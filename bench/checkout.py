"""Bind the benchmark to the checkout it lives in.

The benchmark always measures the ``xattn`` under ``<checkout>/src``; an
``xattn`` installed elsewhere would measure the wrong code, so it is refused.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# One thread, because with two OpenBLAS threads the first build_index of a
# process was reported to stall for about 1.2 s in 3 of 5 processes on a
# 2-core machine, and in none with one thread.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; takes effect only before numpy is imported."""
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_xattn() -> None:
    """Import ``xattn`` from ``<checkout>/src`` or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        xattn = importlib.import_module("xattn")
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import xattn from {SRC}: {exc}") from None
    origin = Path(xattn.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"bench: xattn was imported from {origin}, not from {SRC}")
