"""How the binary files are read and written: checkpoints (``XATN``,
``model``), indexes (``XIDX``, ``retrieval``) and feature maps (``XFMP``,
``dataio``). Those modules keep each format's byte layout.

``write_atomic`` never leaves a partly written file at the target path.
``Reader`` is the one parser cursor. Each fault raises the parser's own
``FormatError`` subclass, whose ``offset`` is where the fault starts: for a
read past the end, the start of that read, or of an array's first
incomplete item; for a NaN or infinity, the start of the value; for
trailing bytes, the first of them; for a bad magic or version, that field.

Each rule has one home. A rule about a value lives in its constructor,
which raises ``_KeyedError`` keyed by where the fault lies: a config
field, a tensor name or an index row. A parser keeps the rules about
bytes, builds the value and reports that fault at the item's offset.
The range rule, "an integer (or a number) in [low, high)", lives in
``_check_range``, which every module calls; its message reads
``<name> must be an integer in [<low>, <high>), got <value>``.
"""

from __future__ import annotations

import math
import os
import struct
from numbers import Integral, Real
from pathlib import Path
from typing import Iterable, NoReturn

import numpy as np

_U32 = struct.Struct("<I")


class FormatError(ValueError):
    """File bytes could not be parsed; ``offset`` locates the fault."""

    def __init__(self, message: str, offset: int | None = None) -> None:
        super().__init__(message if offset is None else f"{message} (at byte {offset})")
        self.offset = offset


class _KeyedError(ValueError):
    """A value's fault; ``key`` says where in the value, for a parser to place it."""

    def __init__(self, message: str, key: object) -> None:
        super().__init__(message)
        self.key = key


def _check_range(
    value: object, name: str, low: float, high: float = math.inf, integer: bool = True
) -> None:
    """Raise ``_KeyedError`` keyed by ``name`` unless ``value`` is an
    ``Integral`` (with ``integer=False``, a ``Real``) and ``low <= value <
    high``. The test names the range to be in, so NaN, which compares
    false, fails it. The bounds print as plain numbers, such as
    ``4294967296`` and ``inf``."""
    if not (isinstance(value, Integral if integer else Real) and low <= value < high):
        kind = "an integer" if integer else "a number"
        raise _KeyedError(f"{name} must be {kind} in [{low}, {high}), got {value!r}", name)


class Reader:
    """Offset-tracking cursor over a file's bytes.

    Reads return the next bytes and advance ``pos``; ``fail`` raises
    ``error``, with ``source`` (a path, say) before the message when given.
    """

    def __init__(self, data: bytes, error: type[FormatError], source: object = None) -> None:
        self.data = data
        self.pos = 0
        self.error = error
        self.source = source

    def fail(self, message: str, offset: int) -> NoReturn:
        if self.source is not None:
            message = f"{self.source}: {message}"
        # A decode or reshape error caught on the way is not the fault.
        raise self.error(message, offset) from None

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.data):
            left = len(self.data) - self.pos
            self.fail(f"truncated: needed {count} bytes for {what}, had {left}", self.pos)
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: struct.Struct, what: str) -> tuple:
        return fmt.unpack(self.take(fmt.size, what))

    def u32(self, what: str) -> int:
        return self.unpack(_U32, what)[0]

    def text(self, what: str) -> str:
        """A u32 length, then that many bytes of strict UTF-8."""
        raw = self.take(self.u32(f"{what} length"), what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            self.fail(f"{what} is not valid UTF-8", self.pos - len(raw) + exc.start)

    def array(self, dtype: np.dtype | str, count: int, what: str, finite: bool = False) -> np.ndarray:
        """``count`` items of ``dtype``, a read-only view of the bytes.
        ``finite=True`` requires every value to be finite."""
        dtype = np.dtype(dtype)
        start, left = self.pos, len(self.data) - self.pos
        # count is a Python int, so a huge claimed count cannot wrap here.
        if count * dtype.itemsize > left:
            self.fail(
                f"truncated: needed {count * dtype.itemsize} bytes for {what}, had {left}",
                start + left // dtype.itemsize * dtype.itemsize,
            )
        items = np.frombuffer(self.data, dtype=dtype, count=count, offset=start)
        self.pos += items.nbytes
        if finite and not np.isfinite(items).all():
            bad = np.argmin(np.isfinite(items))  # the first value that is not finite
            self.fail(f"{what} holds NaN or infinite values", start + int(bad) * dtype.itemsize)
        return items

    def end(self) -> None:
        """Fail unless every byte has been read."""
        if self.pos != len(self.data):
            self.fail(f"{len(self.data) - self.pos} trailing bytes", self.pos)


def write_atomic(path: "Path | str | os.PathLike", chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to a new file next to ``path``, then rename it over
    ``path``.

    Readers see the old file or the whole new one. If a write fails part
    way, the temporary file is removed and an earlier file at ``path``
    keeps its bytes.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
