"""Shared numeric kernels: softmax and L2 normalization.

Everything here is pure, double precision, and reentrant.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

NORM_EPS = 1e-12


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Overflow-safe softmax along ``axis`` of a score array.

    A 1-D vector is one distribution; in a stack, each line along ``axis``
    is its own (the rows, by default; with ``axis=0``, the columns).
    Uses max-subtraction, so adding a constant to all scores leaves the
    output unchanged. Output entries are positive and sum to 1.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim < 1 or s.size == 0:
        raise ValueError("softmax expects a non-empty score vector or stack")
    # The reductions call the ufuncs, as ``s.all()``, ``s.max()`` and
    # ``s.sum()`` do, without the Python frame each method adds per call.
    if not np.logical_and.reduce(np.isfinite(s), axis=None):
        raise ValueError("softmax scores must be finite")
    weights = s - np.maximum.reduce(s, axis=axis, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=axis, keepdims=True)
    return weights


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row of ``x``, kept as a trailing axis of 1: the
    sums ``np.linalg.norm(x, axis=-1)`` takes for real float64 input."""
    return np.add.reduce(x * x, axis=-1, keepdims=True)


class Normalized(NamedTuple):
    """A stack normalised by ``normalize_rows``, with the norms it took,
    which ``l2_normalize_backward`` reuses instead of taking them again."""

    unit: np.ndarray  # B x C: l2_normalize of the rows
    norm: np.ndarray  # B x 1: each row's norm; inf where its square overflows
    scale: np.ndarray  # B x 1: max(norm, NORM_EPS), the divisor
    scaled: np.ndarray  # B x C: rows / scale; ``unit`` but on a row of infinite norm


def normalize_rows(v: np.ndarray) -> Normalized:
    """``l2_normalize`` of a 2-D stack, kept with its norms.

    ``unit`` is ``l2_normalize(v)`` bit for bit. A row whose squared norm
    overflows is divided by its largest magnitude and squared again, so it
    still normalizes to unit length (numpy warns of the first overflow);
    ``scaled`` keeps the plain quotient of such a row by its infinite norm,
    which the backward reads, as it always did, as a zero gradient.
    """
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 2 or x.shape[-1] == 0:
        raise ValueError("normalize_rows expects a stack of non-empty rows")
    norm = np.sqrt(_sq_norms(x))
    scale = np.maximum(norm, NORM_EPS)
    unit = scaled = x / scale
    over = np.isinf(norm[:, 0])
    if np.logical_or.reduce(over):
        big = x[over] / np.abs(x[over]).max(axis=-1, keepdims=True)
        unit = scaled.copy()
        unit[over] = big / np.maximum(np.sqrt(_sq_norms(big)), NORM_EPS)
    return Normalized(unit=unit, norm=norm, scale=scale, scaled=scaled)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Return ``v / max(||v||_2, NORM_EPS)``; the guard keeps 0 well-defined.

    Each row of a 2-D stack is normalized on its own, by ``normalize_rows``.
    The norm is the one ``np.linalg.norm`` gives: ``sqrt(v.dot(v))`` for a
    vector, a row-wise sum of squares for a stack. A row whose squared norm
    overflows is divided by its largest magnitude and squared again, so it
    still normalizes to unit length (numpy warns of the first overflow);
    every other row keeps its bits.
    """
    x = np.asarray(v, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise ValueError("l2_normalize expects a non-empty vector or a stack of them")
    if x.ndim == 2:
        return normalize_rows(x).unit
    sq = float(x.dot(x))
    if sq == math.inf:
        x = x / np.abs(x).max()
        sq = float(x.dot(x))
    return x / max(math.sqrt(sq), NORM_EPS)


def l2_normalize_backward(v: "np.ndarray | Normalized", grad_output: np.ndarray) -> np.ndarray:
    """Gradient of ``sum(grad_output * l2_normalize(v))`` with respect to ``v``.

    ``v`` is a vector, a 2-D stack, or what ``normalize_rows`` returned for
    a stack, whose norms and quotients are then reused. Each row of a stack
    is its own vector, as in ``l2_normalize``. Below the ``NORM_EPS`` guard
    the map is linear (``v / NORM_EPS``) and the Jacobian is
    ``I / NORM_EPS``. Norms are row-wise sums of squares, for a single
    vector too, as ``np.linalg.norm(v, axis=-1)`` takes them. A vector's
    forward norm is a dot product, which can differ from that sum in the
    last bit, so the backward takes a vector's norm itself. A row whose
    squared norm overflows gets a zero gradient.
    """
    g = np.asarray(grad_output, dtype=np.float64)
    if isinstance(v, Normalized) or np.ndim(v) != 1:
        kept = v if isinstance(v, Normalized) else normalize_rows(v)
        if kept.scaled.shape != g.shape:
            raise ValueError("gradient shape must match the input vector")
        along = np.add.reduce(g * kept.scaled, axis=-1, keepdims=True)
        # Below the guard the projection term drops out: (g - 0) / NORM_EPS.
        along[kept.norm < NORM_EPS] = 0.0
        return (g - along * kept.scaled) / kept.scale
    x = np.asarray(v, dtype=np.float64)
    if x.shape != g.shape:
        raise ValueError("gradient shape must match the input vector")
    norm = math.sqrt(np.add.reduce(x * x))
    scale = max(norm, NORM_EPS)
    y = x / scale
    along = 0.0 if norm < NORM_EPS else np.add.reduce(g * y)
    return (g - along * y) / scale
