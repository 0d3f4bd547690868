"""Attention pooling over spatial feature maps, with analytic gradients.

Two mechanisms share the same shape: score every location, softmax the
scores into weights, aggregate the locations by those weights.

* tag attention (shop images): a location scores high when its feature
  aligns (inner product) with the embedded tag set of the product.
* context attention (query images): a location's score is a linear
  function of its own feature plus a per-location linear function of a
  context vector (the candidate shop embedding).

Every input is a plain float64 array, the weights included: the model
keeps its tensors in one name -> array dict, and each function takes the
arrays it reads. Tag attention pools a B x L x C stack of maps, each under
its own row of a B x T matrix of 0/1 tag bits, and the T x C tag embedding
``embedding``. Context attention pools one L x C map (row l = location l)
under each of K contexts, with the C vector ``feature_weight``. Its scores
are laid out location-major, L x K: the caller forms the context term,
entry (l, k) = ``context_weight[l] . c_k``, and ``context_attend`` adds
the per-location feature term to it. That term depends on the contexts
and the weights alone, never on the query: ``model.forward_triple`` forms
it as ``context_weight @ contexts.T`` for its K=2 shops, and
``retrieval.search`` gathers the K candidates' rows of the N x L product
its index keeps. ``softmax(scores, axis=0)`` then normalises each column:
at K=256, L=49 that reduces across 256 contiguous values per step where K
rows of 49 would each pay numpy's per-row cost. The weights come back
K x L, as a transposed view. The backward functions work on the same
stacks and take the forward's ``AttentionResult``, so they reuse its
softmax weights instead of recomputing scores; the context backward takes
the K x C contexts and ``context_weight`` themselves, since their
gradients are what it returns.

Finiteness is checked where data enters, not per layer: feature-map,
checkpoint and index files are checked by their parsers, raw input by the
model's feature extraction, and here ``softmax`` rejects non-finite
scores, which guards direct calls to these functions. Tag bits are checked
to be 0/1 where a ``TagVector`` is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import softmax


@dataclass(frozen=True)
class TagVector:
    """Binary indicator vector over the tag vocabulary, kept as float 0/1;
    a B x T matrix holds one vector per map of a stack."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        if self.bits.ndim not in (1, 2) or self.bits.size == 0:
            raise ValueError("tag vector must be non-empty and 1-D (or a 2-D stack)")
        if not np.all((self.bits == 0.0) | (self.bits == 1.0)):
            raise ValueError("tag vector entries must be 0 or 1")

    @classmethod
    def from_ids(cls, tag_ids: "list[int] | tuple[int, ...]", size: int) -> "TagVector":
        bits = np.zeros(size, dtype=np.float64)
        for t in tag_ids:
            if not 0 <= t < size:
                raise ValueError(f"tag id {t} out of range [0, {size})")
            bits[t] = 1.0
        return cls(bits=bits)


@dataclass(frozen=True)
class AttentionResult:
    """Softmax weights over locations plus the weighted aggregate."""

    weights: np.ndarray
    pooled: np.ndarray


def tag_embed(bits: np.ndarray, embedding: np.ndarray) -> np.ndarray:
    """Embed a tag set into feature space: the row-sum of the T x C
    embedding matrix over active tags (one row per tag set of a stack)."""
    if embedding.ndim != 2:
        raise ValueError("tag embedding must be a T x C matrix")
    if bits.shape[-1] != embedding.shape[0]:
        raise ValueError(
            f"tag vector length {bits.shape[-1]} does not match embedding rows "
            f"{embedding.shape[0]}"
        )
    return bits @ embedding


def tag_attend(fmap: np.ndarray, bits: np.ndarray, embedding: np.ndarray) -> AttentionResult:
    """Pool each map of a B x L x C stack under tag-conditioned attention,
    map b under row b of the B x T tag bits.

    Location scores are inner products between the location feature and
    the embedded tag set; weights are the softmax of the scores.
    """
    if fmap.ndim != 3 or bits.ndim != 2 or fmap.shape[0] != bits.shape[0]:
        raise ValueError("tag attention pools a B x L x C stack under a B x T tag matrix")
    embedded = tag_embed(bits, embedding)
    if fmap.shape[-1] != embedding.shape[1]:
        raise ValueError(
            f"feature channels {fmap.shape[-1]} do not match embedding columns "
            f"{embedding.shape[1]}"
        )
    weights = softmax(np.einsum("...lc,...c->...l", fmap, embedded))
    return AttentionResult(weights=weights, pooled=np.einsum("...l,...lc->...c", weights, fmap))


def context_attend(
    fmap: np.ndarray, context_term: np.ndarray, feature_weight: np.ndarray
) -> AttentionResult:
    """Pool an L x C query map under context-conditioned attention, once
    per column of the L x K ``context_term``.

    score_l = feature_weight . f_l + context_term[l, k], where the caller
    forms ``context_term[l, k] = context_weight[l] . c_k`` for context
    ``c_k``. The linear alignment fixes the spatial size: the term must
    have exactly one row per location of the map. The result holds K x L
    weights and K pooled rows. The scores are built location-major, L x K
    and C-ordered whatever the term's layout, and normalised down each
    column; the K x L weights returned are a transposed view of them.
    """
    if fmap.ndim != 2:
        raise ValueError("context attention pools a single L x C feature map")
    if feature_weight.ndim != 1 or feature_weight.shape[0] != fmap.shape[1]:
        raise ValueError("feature_weight must be a C vector of the map's channels")
    if context_term.ndim != 2 or context_term.shape[0] != fmap.shape[0]:
        raise ValueError(
            f"context term must be L x K for the map's {fmap.shape[0]} locations, "
            f"got shape {context_term.shape}"
        )
    scores = np.add(context_term, (fmap @ feature_weight)[:, None], order="C")
    weights = softmax(scores, axis=0)
    return AttentionResult(weights=weights.T, pooled=weights.T @ fmap)


def _softmax_backward(weights: np.ndarray, grad_weights: np.ndarray) -> np.ndarray:
    """Exact Jacobian-vector product of softmax over the last axis: grad
    wrt the scores, one row per distribution of a stack."""
    inner = np.add.reduce(weights * grad_weights, axis=-1, keepdims=True)
    return weights * (grad_weights - inner)


def _check_grad_pooled(attended: AttentionResult, grad_pooled: np.ndarray) -> np.ndarray:
    g = np.asarray(grad_pooled, dtype=np.float64)
    if g.shape != attended.pooled.shape:
        raise ValueError(
            f"grad_pooled has shape {g.shape}, the pooled output {attended.pooled.shape}"
        )
    return g


def tag_attend_backward(
    fmap: np.ndarray,
    bits: np.ndarray,
    embedding: np.ndarray,
    attended: AttentionResult,
    grad_pooled: np.ndarray,
    *,
    need_map: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of ``sum(grad_pooled * attended.pooled)`` wrt the B x L x C
    stack of maps and the tag embedding matrix.

    ``attended`` is what ``tag_attend(fmap, bits, embedding)`` returned;
    its weights are reused, not recomputed. Each location's feature
    receives gradient along two paths: directly through the weighted sum,
    and through its score via the softmax. The embedding gradient sums over
    the maps of the stack. With ``need_map`` false the map gradient, which
    only a trunk in training reads, is not formed and comes back as None.
    """
    g = _check_grad_pooled(attended, grad_pooled)
    weights = attended.weights
    grad_scores = _softmax_backward(weights, np.einsum("...lc,...c->...l", fmap, g))
    grad_map = None
    if need_map:
        embedded = tag_embed(bits, embedding)
        grad_map = (
            weights[..., None] * g[..., None, :] + grad_scores[..., None] * embedded[..., None, :]
        )
    grad_embedded = np.einsum("...l,...lc->...c", grad_scores, fmap)
    return grad_map, bits.T @ grad_embedded


def context_attend_backward(
    fmap: np.ndarray,
    contexts: np.ndarray,
    feature_weight: np.ndarray,
    context_weight: np.ndarray,
    attended: AttentionResult,
    grad_pooled: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``sum(grad_pooled * attended.pooled)`` wrt the feature
    map, the K x C contexts, and both alignment weights.

    ``attended`` is what ``context_attend(fmap, contexts, feature_weight,
    context_weight)`` returned; its weights are reused, not recomputed. The
    map and weight gradients sum over the K contexts. The context gradient
    matters: during training the context is itself a shop embedding, so
    this is where gradient flows back into the shop branch.
    """
    g = _check_grad_pooled(attended, grad_pooled)
    if context_weight.shape[0] != fmap.shape[0]:
        raise ValueError("context_weight row count must match the feature map")
    weights = attended.weights
    grad_scores = _softmax_backward(weights, g @ fmap.T)
    score_total = np.add.reduce(grad_scores, axis=0)
    grad_map = weights.T @ g + np.outer(score_total, feature_weight)
    grad_context = grad_scores @ context_weight
    grad_feature_weight = fmap.T @ score_total
    grad_context_weight = grad_scores.T @ contexts
    return grad_map, grad_context, grad_feature_weight, grad_context_weight
