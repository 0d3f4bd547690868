"""The four-input hinge loss over normalized embeddings.

The loss compares two anchor representations, one per candidate: the
anchor embedded with the positive as context against the positive, and
the anchor embedded with the negative as context against the negative.
Both sides are 2 x C stacks: ``anchors`` = [anchor_pos, anchor_neg] and
``shops`` = [positive, negative], so row ``i`` of one faces row ``i`` of
the other. Distances are squared Euclidean, which keeps the gradient
defined at coinciding points and bounded.
"""

from __future__ import annotations

import math

import numpy as np

# Guard against grossly unnormalized inputs while still admitting the tiny
# off-sphere excursions a finite-difference probe makes (h ~ 1e-5). Model
# outputs are unit to ~1e-15; tests assert that tighter bound there.
_UNIT_NORM_TOL = 1e-4


def triplet_loss(anchors: np.ndarray, shops: np.ndarray, alpha: float) -> float:
    """max(0, d(anchor_pos, positive) - d(anchor_neg, negative) + alpha).

    ``anchors`` and ``shops`` must both be 2 x C, with unit rows; a NaN
    row fails the norm check too.
    """
    if alpha < 0:
        raise ValueError("margin alpha must be non-negative")
    if anchors.shape != shops.shape or anchors.shape[:-1] != (2,):
        raise ValueError("anchors and shops must be two 2 x C stacks of one shape")
    # The four squared norms from one array operation, each the dot product
    # np.linalg.norm takes; written so a NaN norm fails too.
    rows = np.concatenate((anchors, shops))
    for norm_sq in np.vecdot(rows, rows).tolist():
        if not abs(math.sqrt(norm_sq) - 1.0) <= _UNIT_NORM_TOL:
            raise ValueError("embeddings must be L2-normalized")
    diff = anchors - shops
    pos, neg = np.vecdot(diff, diff).tolist()
    return max(0.0, pos - neg + alpha)


def triplet_loss_backward(
    anchors: np.ndarray, shops: np.ndarray, loss: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients ``(grad_anchors, grad_shops)`` of the loss wrt both stacks.

    ``loss`` is ``triplet_loss`` of the same stacks: it is positive exactly
    when the hinge is active. When it is not, the kink (argument exactly 0)
    included, all gradients are zero. Composing with the normalization
    Jacobian is the caller's job.
    """
    if loss <= 0.0:
        return np.zeros_like(anchors), np.zeros_like(shops)
    # Row 0 pulls anchor_pos and positive together, row 1 pushes anchor_neg
    # and negative apart.
    grad_anchors = 2.0 * (anchors - shops)
    grad_anchors[1] *= -1.0
    return grad_anchors, -grad_anchors
