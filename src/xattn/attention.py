"""Attention pooling over spatial feature maps, with analytic gradients.

Two mechanisms share the same shape: score every location, softmax the
scores into weights, aggregate the locations by those weights.

* tag attention (shop images): a location scores high when its feature
  aligns (inner product) with the embedded tag set of the product.
* context attention (query images): a location's score is a linear
  function of its own feature plus a per-location linear function of a
  context vector (the candidate shop embedding).

A feature map is a plain float64 array: L x C for one map (row l =
location l), B x L x C for a stack. The forward functions also take
stacks, so serving runs one array operation per batch: tag attention
pools a B x L x C stack of maps, each under its own row of a B x T tag
matrix, and context attention pools one map under each row of a K x C
stack of contexts. Context scores are laid out location-major, L x K
(``context_weight @ contexts.T`` plus the per-location feature term), and
``softmax(scores, axis=0)`` normalises each column: at K=256, L=49 that
reduces across 256 contiguous values per step where K rows of 49 would
each pay numpy's per-row cost. The weights come back K x L, as a
transposed view. The backward functions work on the same stacks and
take the forward's ``AttentionResult``, so they reuse its softmax weights
instead of recomputing scores.

Finiteness is checked where data enters, not per layer: feature-map,
checkpoint and index files are checked by their parsers, raw input by the
model's feature extraction, and here ``softmax`` rejects non-finite
scores, which guards direct calls to these functions.
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

    @property
    def size(self) -> int:
        return self.bits.shape[-1]


@dataclass
class TagAttentionParams:
    """Tag embedding matrix, one row per vocabulary tag (T x C)."""

    embedding: np.ndarray

    def __post_init__(self) -> None:
        if self.embedding.ndim != 2:
            raise ValueError("tag embedding must be a T x C matrix")


@dataclass
class ContextAttentionParams:
    """Linear alignment weights for context attention.

    ``feature_weight`` (C,) scores a location's own feature;
    ``context_weight`` (L x C) maps the context vector to a per-location
    score, which pins the spatial size L.
    """

    feature_weight: np.ndarray
    context_weight: np.ndarray

    def __post_init__(self) -> None:
        if self.feature_weight.ndim != 1 or self.context_weight.ndim != 2:
            raise ValueError("context attention expects a C vector and an L x C matrix")
        if self.context_weight.shape[1] != self.feature_weight.shape[0]:
            raise ValueError(
                "feature_weight length must match context_weight columns"
            )


@dataclass(frozen=True)
class AttentionResult:
    """Softmax weights over locations plus the weighted aggregate."""

    weights: np.ndarray
    pooled: np.ndarray


def tag_embed(tags: TagVector, params: TagAttentionParams) -> np.ndarray:
    """Embed a tag set into feature space: the row-sum of the embedding
    matrix over active tags (one row per tag set of a stack)."""
    if tags.size != params.embedding.shape[0]:
        raise ValueError(
            f"tag vector length {tags.size} does not match embedding rows "
            f"{params.embedding.shape[0]}"
        )
    return tags.bits @ params.embedding


def tag_attend(
    fmap: np.ndarray, tags: TagVector, params: TagAttentionParams
) -> AttentionResult:
    """Pool a shop feature map under tag-conditioned attention.

    Location scores are inner products between the location feature and
    the embedded tag set; weights are the softmax of the scores. A B x L x C
    stack pools each map under its own row of a B x T tag matrix.
    """
    if fmap.ndim != tags.bits.ndim + 1 or fmap.shape[:-2] != tags.bits.shape[:-1]:
        raise ValueError("a stack of feature maps needs one tag vector per map")
    if fmap.shape[-1] != params.embedding.shape[1]:
        raise ValueError(
            f"feature channels {fmap.shape[-1]} do not match embedding columns "
            f"{params.embedding.shape[1]}"
        )
    weights = softmax(np.einsum("...lc,...c->...l", fmap, tag_embed(tags, params)))
    return AttentionResult(weights=weights, pooled=np.einsum("...l,...lc->...c", weights, fmap))


def context_attend(
    fmap: np.ndarray, context: np.ndarray, params: ContextAttentionParams
) -> AttentionResult:
    """Pool a query feature map under context-conditioned attention.

    score_l = feature_weight . f_l + context_weight[l] . context. The
    linear alignment fixes the spatial size: the map must have exactly as
    many locations as context_weight has rows. A K x C stack of contexts
    gives K x L weights and K pooled rows: the one map under each context.

    The scores are built location-major, L x K, and normalised down each
    column; the K x L weights returned are a transposed view of them.
    """
    ctx = np.asarray(context, dtype=np.float64)
    if fmap.ndim != 2:
        raise ValueError("context attention pools a single L x C feature map")
    if params.context_weight.shape[0] != fmap.shape[0]:
        raise ValueError(
            f"feature map has {fmap.shape[0]} locations but context_weight "
            f"fixes {params.context_weight.shape[0]}"
        )
    channels = params.feature_weight.shape[0]
    if fmap.shape[1] != channels or ctx.ndim not in (1, 2) or ctx.shape[-1] != channels:
        raise ValueError("channel dimensions disagree for context attention")
    scores = params.context_weight @ ctx.T  # L x K, or L for one context
    np.add(scores.T, fmap @ params.feature_weight, out=scores.T)
    weights = softmax(scores, axis=0)
    return AttentionResult(weights=weights.T, pooled=weights.T @ fmap)


def _softmax_backward(weights: np.ndarray, grad_weights: np.ndarray) -> np.ndarray:
    """Exact Jacobian-vector product of softmax over the last axis: grad
    wrt the scores, one row per distribution of a stack."""
    inner = np.sum(weights * grad_weights, axis=-1, keepdims=True)
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
    tags: TagVector,
    params: TagAttentionParams,
    attended: AttentionResult,
    grad_pooled: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``sum(grad_pooled * attended.pooled)`` wrt the feature
    map (or stack) and the tag embedding matrix.

    ``attended`` is what ``tag_attend(fmap, tags, params)`` returned; its
    weights are reused, not recomputed. Each location's feature receives
    gradient along two paths: directly through the weighted sum, and
    through its score via the softmax. The embedding gradient sums over
    the maps of a stack.
    """
    g = _check_grad_pooled(attended, grad_pooled)
    weights = attended.weights
    embedded = tag_embed(tags, params)
    grad_scores = _softmax_backward(weights, np.einsum("...lc,...c->...l", fmap, g))
    grad_map = weights[..., None] * g[..., None, :] + grad_scores[..., None] * embedded[..., None, :]
    grad_embedded = np.einsum("...l,...lc->...c", grad_scores, fmap)
    grad_embedding = np.atleast_2d(tags.bits).T @ np.atleast_2d(grad_embedded)
    return grad_map, grad_embedding


def context_attend_backward(
    fmap: np.ndarray,
    context: np.ndarray,
    params: ContextAttentionParams,
    attended: AttentionResult,
    grad_pooled: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``sum(grad_pooled * attended.pooled)`` wrt the feature
    map, the context vector (or K x C stack), and both alignment weights.

    ``attended`` is what ``context_attend(fmap, context, params)`` returned;
    its weights are reused, not recomputed. The map and weight gradients
    sum over the K contexts. The context gradient matters: during training
    the context is itself a shop embedding, so this is where gradient flows
    back into the shop branch.
    """
    ctx = np.asarray(context, dtype=np.float64)
    g = _check_grad_pooled(attended, grad_pooled)
    if params.context_weight.shape[0] != fmap.shape[0]:
        raise ValueError("context_weight row count must match the feature map")
    weights = np.atleast_2d(attended.weights)
    upstream = np.atleast_2d(g)
    grad_scores = _softmax_backward(weights, upstream @ fmap.T)
    score_total = grad_scores.sum(axis=0)
    grad_map = weights.T @ upstream + np.outer(score_total, params.feature_weight)
    grad_context = (grad_scores @ params.context_weight).reshape(ctx.shape)
    grad_feature_weight = fmap.T @ score_total
    grad_context_weight = grad_scores.T @ np.atleast_2d(ctx)
    return grad_map, grad_context, grad_feature_weight, grad_context_weight
