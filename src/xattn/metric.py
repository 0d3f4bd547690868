"""Distance and the four-input hinge loss over normalized embeddings.

The loss compares two anchor representations, one per candidate: the
anchor embedded with the positive as context against the positive, and
the anchor embedded with the negative as context against the negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Guard against grossly unnormalized inputs while still admitting the tiny
# off-sphere excursions a finite-difference probe makes (h ~ 1e-5). Model
# outputs are unit to ~1e-15; tests assert that tighter bound there.
_UNIT_NORM_TOL = 1e-4


def distance(a: np.ndarray, b: np.ndarray, squared: bool = True) -> float:
    """Squared Euclidean distance (default) or plain Euclidean.

    Squared keeps the gradient defined at coinciding points and bounded;
    on unit vectors both orderings agree, so retrieval is unaffected.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("distance expects two vectors of equal length")
    diff = x - y
    value = float(diff @ diff)
    return value if squared else math.sqrt(value)


@dataclass(frozen=True)
class TripleEmbeddings:
    """The four unit-norm embeddings entering the loss.

    anchor_pos / anchor_neg are the anchor embedded with the positive /
    negative candidate as context.
    """

    anchor_pos: np.ndarray
    anchor_neg: np.ndarray
    positive: np.ndarray
    negative: np.ndarray

    def __post_init__(self) -> None:
        vecs = (self.anchor_pos, self.anchor_neg, self.positive, self.negative)
        length = vecs[0].shape
        for v in vecs:
            if v.ndim != 1 or v.shape != length:
                raise ValueError("all four embeddings must share one length")
            # The norm np.linalg.norm takes; written so a NaN norm fails too.
            if not abs(math.sqrt(float(v.dot(v))) - 1.0) <= _UNIT_NORM_TOL:
                raise ValueError("embeddings must be L2-normalized")


class TripleGradients(NamedTuple):
    anchor_pos: np.ndarray
    anchor_neg: np.ndarray
    positive: np.ndarray
    negative: np.ndarray


def hinge_argument(e: TripleEmbeddings, alpha: float) -> float:
    return distance(e.anchor_pos, e.positive) - distance(e.anchor_neg, e.negative) + alpha


def triplet_loss(e: TripleEmbeddings, alpha: float) -> float:
    """max(0, d(anchor_pos, positive) - d(anchor_neg, negative) + alpha)."""
    if alpha < 0:
        raise ValueError("margin alpha must be non-negative")
    return max(0.0, hinge_argument(e, alpha))


def triplet_loss_backward(
    e: TripleEmbeddings, alpha: float, *, loss: float | None = None
) -> TripleGradients:
    """Gradients wrt the four embeddings.

    When the hinge is inactive all gradients are zero; the kink (argument
    exactly 0) is treated as inactive. A caller that already holds
    ``triplet_loss(e, alpha)`` passes it as ``loss``, and the hinge is not
    evaluated again: the loss is positive exactly when the hinge is active.
    Composing with the normalization Jacobian is the caller's job.
    """
    if alpha < 0:
        raise ValueError("margin alpha must be non-negative")
    if (hinge_argument(e, alpha) if loss is None else loss) <= 0.0:
        zero = np.zeros_like(e.anchor_pos)
        return TripleGradients(zero, zero.copy(), zero.copy(), zero.copy())
    pos_pull = 2.0 * (e.anchor_pos - e.positive)
    neg_push = 2.0 * (e.anchor_neg - e.negative)
    return TripleGradients(
        anchor_pos=pos_pull,
        anchor_neg=-neg_push,
        positive=-pos_pull,
        negative=neg_push,
    )
