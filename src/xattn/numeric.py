"""Shared numeric kernels: softmax and L2 normalization.

Everything here is pure, double precision, and reentrant.
"""

from __future__ import annotations

import math

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
    if not np.isfinite(s).all():
        raise ValueError("softmax scores must be finite")
    weights = s - s.max(axis=axis, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=axis, keepdims=True)
    return weights


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row of ``x``, kept as a trailing axis of 1: the
    sums ``np.linalg.norm(x, axis=-1)`` takes for real float64 input."""
    return np.add.reduce(x * x, axis=-1, keepdims=True)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Return ``v / max(||v||_2, NORM_EPS)``; the guard keeps 0 well-defined.

    Each row of a 2-D stack is normalized on its own. The norm is the one
    ``np.linalg.norm`` gives: ``sqrt(v.dot(v))`` for a vector, a row-wise
    sum of squares for a stack. A row whose squared norm overflows is
    divided by its largest magnitude and squared again, so it still
    normalizes to unit length (numpy warns of the first overflow); every
    other row keeps its bits.
    """
    x = np.asarray(v, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise ValueError("l2_normalize expects a non-empty vector or a stack of them")
    if x.ndim == 1:
        sq = float(x.dot(x))
        if sq == math.inf:
            x = x / np.abs(x).max()
            sq = float(x.dot(x))
        return x / max(math.sqrt(sq), NORM_EPS)
    sq = _sq_norms(x)
    over = np.isinf(sq[:, 0])
    if over.any():
        x = x.copy()
        x[over] /= np.abs(x[over]).max(axis=-1, keepdims=True)
        sq[over] = _sq_norms(x[over])
    return x / np.maximum(np.sqrt(sq), NORM_EPS)


def l2_normalize_backward(v: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
    """Gradient of ``sum(grad_output * l2_normalize(v))`` with respect to ``v``.

    Each row of a 2-D stack is its own vector, as in ``l2_normalize``.
    Below the ``NORM_EPS`` guard the map is linear (``v / NORM_EPS``) and
    the Jacobian is ``I / NORM_EPS``. Norms are row-wise sums of squares,
    for a single vector too, as ``np.linalg.norm(v, axis=-1)`` takes them.
    """
    x = np.asarray(v, dtype=np.float64)
    g = np.asarray(grad_output, dtype=np.float64)
    if x.shape != g.shape:
        raise ValueError("gradient shape must match the input vector")
    norm = np.sqrt(_sq_norms(x))
    scale = np.maximum(norm, NORM_EPS)
    y = x / scale
    along = np.add.reduce(g * y, axis=-1, keepdims=True)
    # Below the guard the projection term drops out: (g - 0) / NORM_EPS.
    along[norm < NORM_EPS] = 0.0
    return (g - along * y) / scale

