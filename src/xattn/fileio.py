"""File writes that never leave a partly written file at the target path,
and the error the binary parsers raise."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable


class FormatError(ValueError):
    """File bytes could not be parsed; ``offset`` locates the fault."""

    def __init__(self, message: str, offset: int | None = None) -> None:
        super().__init__(message if offset is None else f"{message} (at byte {offset})")
        self.offset = offset


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
