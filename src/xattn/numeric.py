"""Shared numeric kernels: softmax and L2 normalization.

Everything here is pure, double precision, and reentrant. Every squared
norm is ``np.vecdot(x, x)``, the BLAS dot ``ndarray.dot`` takes of a
vector, row by row for a stack: a row normalises to the same bits alone
or inside any stack.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

NORM_EPS = 1e-12


def softmax(scores: np.ndarray) -> np.ndarray:
    """Overflow-safe softmax along the last axis of a score array.

    A 1-D vector is one distribution; in a stack, each row is its own.
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
    weights = s - np.maximum.reduce(s, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    return weights


class Normalized(NamedTuple):
    """A stack normalised by ``normalize_rows``, with the norms it took,
    which ``l2_normalize_backward`` reuses instead of taking them again."""

    unit: np.ndarray  # B x C: l2_normalize of the rows
    norm: np.ndarray  # B x 1: each row's norm; inf where its square overflows
    scale: np.ndarray  # B x 1: max(norm, NORM_EPS), the divisor
    scaled: np.ndarray  # B x C: rows / scale; ``unit`` but on a row of infinite norm


def normalize_rows(v: np.ndarray) -> Normalized:
    """``l2_normalize`` of a 2-D stack, kept with its norms.

    Row ``i`` of ``unit`` is ``l2_normalize(v[i])`` bit for bit. A row
    whose squared norm overflows is divided by its largest magnitude and
    squared again, so it still normalizes to unit length (numpy warns of
    the first overflow); ``scaled`` keeps the plain quotient of such a row
    by its infinite norm, which the backward reads as a zero gradient.
    """
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 2 or x.shape[-1] == 0:
        raise ValueError("normalize_rows expects a stack of non-empty rows")
    sq = np.vecdot(x, x)
    over = np.isinf(sq)
    norm = np.sqrt(sq)[:, None]
    scale = np.maximum(norm, NORM_EPS)
    unit = scaled = x / scale
    if np.logical_or.reduce(over):
        big = x[over] / np.abs(x[over]).max(axis=-1, keepdims=True)
        unit = scaled.copy()
        unit[over] = big / np.maximum(np.sqrt(np.vecdot(big, big))[:, None], NORM_EPS)
    return Normalized(unit=unit, norm=norm, scale=scale, scaled=scaled)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Return ``v / max(||v||_2, NORM_EPS)``; the guard keeps 0 well-defined.

    Each row of a 2-D stack is normalized on its own, by ``normalize_rows``.
    A vector takes the same steps without the stack's bookkeeping, which
    the per-query scan embedding would pay for, and gets the bits of a
    stack of one. The norm is ``np.linalg.norm``'s of each row alone. A row
    whose squared norm overflows is divided by its largest magnitude and
    squared again, so it still normalizes to unit length (numpy warns of
    the first overflow); every other row keeps its bits.
    """
    x = np.asarray(v, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise ValueError("l2_normalize expects a non-empty vector or a stack of them")
    if x.ndim == 2:
        return normalize_rows(x).unit
    sq = float(np.vecdot(x, x))
    if sq == math.inf:
        x = x / np.abs(x).max()
        sq = float(np.vecdot(x, x))
    return x / max(math.sqrt(sq), NORM_EPS)


def l2_normalize_backward(kept: Normalized, grad_output: np.ndarray) -> np.ndarray:
    """Gradient of ``sum(grad_output * l2_normalize(v))`` with respect to
    the B x C stack ``v`` that ``normalize_rows`` normalised into ``kept``,
    whose norms and quotients are reused; ``grad_output`` is B x C too.

    Each row is its own vector, as in ``l2_normalize``. Below the
    ``NORM_EPS`` guard the map is linear (``v / NORM_EPS``) and the
    Jacobian is ``I / NORM_EPS``. A row whose squared norm overflows gets a
    zero gradient.
    """
    g = np.asarray(grad_output, dtype=np.float64)
    if kept.scaled.shape != g.shape:
        raise ValueError(f"gradient of shape {g.shape} does not match the rows' {kept.scaled.shape}")
    along = np.add.reduce(g * kept.scaled, axis=-1, keepdims=True)
    # Below the guard the projection term drops out: (g - 0) / NORM_EPS.
    along[kept.norm < NORM_EPS] = 0.0
    return (g - along * kept.scaled) / kept.scale
