import builtins
import dataclasses
import errno
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xattn import fileio, model
from xattn.attention import TagVector
from xattn.dataio import FeatureMapFormatError, load_feature_map, write_feature_map
from xattn.model import (
    Checkpoint,
    CheckpointFormatError,
    ModelConfig,
    ModelParams,
    Variant,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from xattn.retrieval import MAX_SQ_NORM, IndexFormatError, ShopItem, build_index, load_index, save_index
from xattn.fileio import FormatError, write_atomic

from oracles import per_entry_index_bytes

CONFIG = ModelConfig(locations=4, channels=3, tag_count=2, raw_dim=3, variant=Variant.CTXYNET)

# Version 1 files of each format, written before the parsers shared one
# reader, from the seed-1 checkpoint, index and feature map below.
DATA = Path(__file__).parent / "data"


class HalfWriter:
    """A file whose first write stores half of its bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        data = bytes(chunk)
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture
def fail_part_way(monkeypatch):
    def failing_open(path, mode="r", *args, **kwargs):
        return HalfWriter(builtins.open(path, mode, *args, **kwargs))

    def install():
        monkeypatch.setattr(fileio, "open", failing_open, raising=False)

    return install


def checkpoint(seed):
    return Checkpoint(config=CONFIG, params=init_params(CONFIG, seed), epoch=1, seed=seed, stage="ctxynet")


def index(seed):
    params = init_params(CONFIG, seed)
    rng = np.random.default_rng(seed)
    items = [ShopItem(i, i, rng.normal(size=(4, 3)), TagVector.from_ids([i % 2], 2)) for i in range(5)]
    return build_index(items, params)


def feature_map(seed):
    return np.random.default_rng(seed).normal(size=(CONFIG.locations, CONFIG.raw_dim))


# Per format: its error, writer, loader, a value to write for a seed, and
# the file name its golden copy has under DATA.
FORMATS = {
    "checkpoint": (CheckpointFormatError, save_checkpoint, load_checkpoint, checkpoint, "v1.xatn"),
    "index": (
        IndexFormatError,
        save_index,
        lambda path: load_index(path, CONFIG.channels, CONFIG.tag_count),
        index,
        "v1.xidx",
    ),
    "feature_map": (FeatureMapFormatError, write_feature_map, load_feature_map, feature_map, "v1.xfmp"),
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_failed_write_keeps_the_earlier_file(tmp_path, fail_part_way, fmt):
    _, save, _, make, name = FORMATS[fmt]
    path = tmp_path / name
    save(path, make(1))
    before = path.read_bytes()
    fail_part_way()
    with pytest.raises(OSError):
        save(path, make(2))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("fmt", FORMATS)
def test_v1_files_load_and_save_byte_for_byte(tmp_path, fmt):
    _, save, load, _, name = FORMATS[fmt]
    golden = (DATA / name).read_bytes()
    save(tmp_path / name, load(DATA / name))
    assert (tmp_path / name).read_bytes() == golden


@pytest.mark.parametrize("fmt", FORMATS)
def test_every_truncation_raises_format_error(tmp_path, fmt):
    error, save, load, make, name = FORMATS[fmt]
    path = tmp_path / name
    value = make(1)
    save(path, value)
    data = path.read_bytes()
    # Each format ends with an array: its item size and item count.
    if fmt == "checkpoint":
        item, count = 8, list(value.params.named_tensors())[-1][1].size
    elif fmt == "index":
        item, count = (len(data) - 48) // len(value), len(value)
    else:
        item, count = 4, value.size
    start = len(data) - item * count
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(error) as err:
            load(path)
        assert err.value.offset is not None and err.value.offset <= cut
        if cut >= start:
            # A short array is reported at its first incomplete item.
            assert err.value.offset == cut - (cut - start) % item


def test_successful_writes_replace_the_file(tmp_path):
    path = tmp_path / "model.xatn"
    save_checkpoint(path, checkpoint(1))
    save_checkpoint(path, checkpoint(2))
    assert load_checkpoint(path).seed == 2
    shop = tmp_path / "shop.xidx"
    save_index(shop, index(1))
    save_index(shop, index(2))
    assert load_index(shop, 3, 2).fingerprint == index(2).fingerprint
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.xatn", "shop.xidx"]


def test_failing_chunk_source_leaves_no_file(tmp_path):
    path = tmp_path / "out.bin"

    def chunks():
        yield b"first"
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError):
        write_atomic(path, chunks())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "error, load",
    [
        (CheckpointFormatError, load_checkpoint),
        (IndexFormatError, lambda path: load_index(path, 3, 2)),
        (FeatureMapFormatError, load_feature_map),
    ],
)
def test_parsers_raise_format_errors_with_the_offset(tmp_path, error, load):
    assert issubclass(error, FormatError) and issubclass(error, ValueError)
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(error, match=r"bad magic.* \(at byte 0\)$") as err:
        load(path)
    assert err.value.offset == 0
    assert str(error("no offset")) == "no offset" and error("no offset").offset is None


# Files whose bytes parse but whose values break a rule of the value they
# make: each must load, or raise its own FormatError at the offset of the
# item at fault, never a bare ValueError.


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_checkpoint_tensors_off_the_layout_fail_at_their_frame(data):
    # Frames of a random subset, superset or permutation of the layout,
    # each tensor perhaps reshaped to another shape of its size.
    config = dataclasses.replace(CONFIG, variant=data.draw(st.sampled_from(Variant)))
    layout = {name: shape for name, shape, _ in model._tensor_layout(config)}
    pool = {**init_params(CONFIG, 3).tensors, "extra": np.ones(3)}
    # A permutation of the layout, or of any leading part of the pool's.
    subset = st.permutations(list(pool)).flatmap(
        lambda names: st.integers(0, len(names)).map(lambda n: names[:n])
    )
    names = data.draw(st.one_of(st.permutations(list(layout)), subset))
    stage = "ctxynet"
    head = checkpoint_to_bytes(Checkpoint(config, init_params(config, 3), 1, 2, stage))[: 44 + len(stage)]
    body = struct.pack("<I", len(names))
    placed = []  # (name, shape, frame offset)
    for name in names:
        values = pool[name]
        if data.draw(st.booleans()):
            size = values.size
            shapes = [(size,), (1, size), (size, 1), values.shape[::-1]]
            values = values.reshape(data.draw(st.sampled_from(shapes)))
        placed.append((name, values.shape, len(head) + len(body)))
        body += model._tensor_frame(name, values)
    blob = head + body
    bad = [at for name, shape, at in placed if layout.get(name) != shape]
    if bad or set(names) != set(layout):
        with pytest.raises(CheckpointFormatError) as err:
            checkpoint_from_bytes(blob)
        assert err.value.offset == (bad[0] if bad else len(blob))
    else:
        loaded = checkpoint_from_bytes(blob)
        params = ModelParams(config, {name: pool[name] for name in layout})
        assert checkpoint_to_bytes(loaded) == checkpoint_to_bytes(Checkpoint(config, params, 1, 2, stage))


@pytest.mark.parametrize("repeat", [0, 3, 8])
def test_a_repeated_tensor_name_fails_at_its_second_frame(repeat):
    # Every layout tensor once, then tensor ``repeat`` again with the same
    # values: without the rule the second frame would overwrite the first.
    stage = "ctxynet"
    tensors = list(init_params(CONFIG, 3).named_tensors())
    head = checkpoint_to_bytes(Checkpoint(CONFIG, init_params(CONFIG, 3), 1, 2, stage))[: 44 + len(stage)]
    frames = [model._tensor_frame(name, values) for name, values in tensors]
    blob = head + struct.pack("<I", len(frames) + 1) + b"".join(frames) + frames[repeat]
    at = len(blob) - len(frames[repeat])
    message = rf"^duplicate tensor {re.escape(repr(tensors[repeat][0]))} \(at byte {at}\)$"
    with pytest.raises(CheckpointFormatError, match=message) as err:
        checkpoint_from_bytes(blob)
    assert err.value.offset == at


def check_index_entries(directory, ids, faults):
    """Write the seed-1 index with ``ids`` and each ``(row, fault, column)``
    of ``faults`` applied in turn: a finite fault scales the row, another
    is written at the column. ``load_index`` must refuse the first entry
    off the rules at its offset, or else load what saves to the same bytes."""
    built = index(1)
    count = len(built)
    rows = built.embeddings.copy()
    for row, fault, column in faults:
        if np.isfinite(fault):
            # Scaled twice by 1e200, the row overflows to infinity.
            with np.errstate(over="ignore"):
                rows[row] *= fault
        else:
            rows[row, column] = fault
    with np.errstate(over="ignore"):
        unit = [np.isfinite(row).all() and row @ row <= MAX_SQ_NORM for row in rows]
    bits = np.unpackbits(built.tag_bits, axis=1, count=CONFIG.tag_count, bitorder="little")
    entries = list(zip(ids, built.product_ids.tolist(), bits, rows))
    blob = per_entry_index_bytes(built.fingerprint, entries)
    path = directory / "shop.xidx"
    path.write_bytes(blob)
    bad = [row for row in range(1, count) if ids[row] <= ids[row - 1]]
    bad = bad or [row for row in range(count) if not unit[row]]
    if bad:
        with np.errstate(over="ignore"), pytest.raises(IndexFormatError) as err:
            load_index(path, CONFIG.channels, CONFIG.tag_count)
        assert err.value.offset == 48 + bad[0] * (len(blob) - 48) // count
    else:
        save_index(path.with_name("again.xidx"), load_index(path, CONFIG.channels, CONFIG.tag_count))
        assert path.with_name("again.xidx").read_bytes() == blob


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_index_entries_off_the_rules_fail_at_their_entry(tmp_path_factory, data):
    # Entries whose ids are unsorted or repeated, or whose rows hold NaN or
    # infinity or are longer than a unit embedding. Ids are checked first.
    count, channels = index(1).embeddings.shape
    ids = sorted(data.draw(st.sets(st.integers(0, 2**63 - 1), min_size=count, max_size=count)))
    if data.draw(st.booleans()):
        ids = data.draw(st.lists(st.integers(0, 2 * count), min_size=count, max_size=count))
    faults = []
    for row in data.draw(st.lists(st.integers(0, count - 1), max_size=2)):
        fault = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 1 + 2.0**-19, 2.0, 1e200]))
        column = None if np.isfinite(fault) else data.draw(st.integers(0, channels - 1))
        faults.append((row, fault, column))
    check_index_entries(tmp_path_factory.mktemp("values"), ids, faults)


def test_a_row_scaled_past_overflow_fails_at_its_entry(tmp_path):
    check_index_entries(tmp_path, list(range(5)), [(0, 1e200, None), (0, 1e200, None)])
