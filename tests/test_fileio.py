import builtins
import errno
import os
from pathlib import Path

import numpy as np
import pytest

from xattn import fileio
from xattn.attention import TagVector
from xattn.dataio import FeatureMapFormatError, load_feature_map, write_feature_map
from xattn.model import (
    Checkpoint,
    CheckpointFormatError,
    ModelConfig,
    Variant,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from xattn.retrieval import IndexFormatError, ShopItem, build_index, load_index, save_index
from xattn.fileio import FormatError, write_atomic

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
