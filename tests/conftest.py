import sys
from pathlib import Path

import numpy as np
import pytest

from xattn import attention

# Make the sibling oracle helpers importable regardless of rootdir.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def softmax_calls(monkeypatch):
    """The shape of each score array ``context_attend`` hands to
    ``numeric.softmax`` during the test, one entry per call."""
    calls = []
    real = attention.softmax

    def counted(scores):
        calls.append(np.shape(scores))
        return real(scores)

    monkeypatch.setattr(attention, "softmax", counted)
    return calls


@pytest.fixture
def context_pool_reads(monkeypatch):
    """The ``attention.ContextPool`` properties read during the test,
    ``"pooled"`` or ``"weights"``, one entry per read."""
    reads = []
    for name in ("pooled", "weights"):
        read = getattr(attention.ContextPool, name).fget

        def counted(pool, name=name, read=read):
            reads.append(name)
            return read(pool)

        monkeypatch.setattr(attention.ContextPool, name, property(counted))
    return reads
