import builtins
import errno
import os

import numpy as np
import pytest

from xattn import fileio
from xattn.attention import TagVector
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


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path, fail_part_way):
    path = tmp_path / "model.xatn"
    save_checkpoint(path, checkpoint(1))
    before = path.read_bytes()
    fail_part_way()
    with pytest.raises(OSError):
        save_checkpoint(path, checkpoint(2))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_failed_index_write_keeps_the_earlier_file(tmp_path, fail_part_way):
    path = tmp_path / "shop.xidx"
    save_index(path, index(1))
    before = path.read_bytes()
    fail_part_way()
    with pytest.raises(OSError):
        save_index(path, index(2))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


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
