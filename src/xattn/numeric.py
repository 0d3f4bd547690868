"""Shared numeric kernels: softmax, L2 normalization, finite differences.

Everything here is pure, double precision, and reentrant.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

NORM_EPS = 1e-12
FD_STEP = 1e-5


class NonFiniteValueError(ValueError):
    """Raised when an objective produced NaN/Inf during finite differencing.

    ``coordinate`` is the flat index of the perturbed entry.
    """

    def __init__(self, message: str, coordinate: int | None = None) -> None:
        super().__init__(message)
        self.coordinate = coordinate


def softmax(scores: np.ndarray) -> np.ndarray:
    """Overflow-safe softmax over the last axis of a score array.

    A 1-D vector is one distribution; each row of a stack is its own.
    Uses max-subtraction, so adding a constant to all scores leaves the
    output unchanged. Output entries are positive and sum to 1.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim < 1 or s.size == 0:
        raise ValueError("softmax expects a non-empty score vector or stack")
    if not np.all(np.isfinite(s)):
        raise ValueError("softmax scores must be finite")
    shifted = np.exp(s - s.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def l2_normalize(v: np.ndarray, eps: float = NORM_EPS) -> np.ndarray:
    """Return ``v / max(||v||_2, eps)``; the eps guard keeps 0 well-defined.

    Each row of a 2-D stack is normalized on its own.
    """
    x = np.asarray(v, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise ValueError("l2_normalize expects a non-empty vector or a stack of them")
    if x.ndim == 1:
        return x / max(float(np.linalg.norm(x)), eps)
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), eps)


def l2_normalize_backward(
    v: np.ndarray, grad_output: np.ndarray, eps: float = NORM_EPS
) -> np.ndarray:
    """Gradient of ``sum(grad_output * l2_normalize(v))`` with respect to ``v``.

    Each row of a 2-D stack is its own vector, as in ``l2_normalize``.
    Below the eps guard the map is linear (``v / eps``) and the Jacobian
    is ``I / eps``.
    """
    x = np.asarray(v, dtype=np.float64)
    g = np.asarray(grad_output, dtype=np.float64)
    if x.shape != g.shape:
        raise ValueError("gradient shape must match the input vector")
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    scale = np.maximum(norm, eps)
    y = x / scale
    # Below the guard the projection term drops out: (g - 0) / eps.
    along = np.where(norm < eps, 0.0, np.sum(g * y, axis=-1, keepdims=True))
    return (g - along * y) / scale


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = FD_STEP
) -> np.ndarray:
    """Central-difference gradient of a scalar function, one entry at a time.

    Accepts arrays of any shape; the result has the same shape. ``f`` is
    evaluated at x +/- h*e_i, so it must be finite in that neighbourhood.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    work = np.array(x, dtype=np.float64, copy=True)
    grad = np.empty_like(work)
    for i in range(work.size):
        orig = work.flat[i]
        work.flat[i] = orig + h
        up = float(f(work))
        work.flat[i] = orig - h
        down = float(f(work))
        work.flat[i] = orig
        if not (math.isfinite(up) and math.isfinite(down)):
            raise NonFiniteValueError(
                f"objective is non-finite when perturbing coordinate {i}",
                coordinate=i,
            )
        grad.flat[i] = (up - down) / (2.0 * h)
    return grad
