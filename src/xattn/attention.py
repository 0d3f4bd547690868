"""Attention pooling over spatial feature maps, with analytic gradients.

Two mechanisms share the same shape: score every location, softmax the
scores into weights, aggregate the locations by those weights.

* tag attention (shop images): a location scores high when its feature
  aligns (inner product) with the embedded tag set of the product.
* context attention (query images): a location's score is a linear
  function of its own feature plus a per-location linear function of a
  context vector (the candidate shop embedding).

The forward functions also take stacks, so serving runs one array
operation per batch: tag attention pools a B x L x C stack of maps, each
under its own row of a B x T tag matrix, and context attention pools one
map under each row of a K x C stack of contexts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numeric import softmax


@dataclass(frozen=True)
class FeatureMap:
    """An L x C grid of per-location feature vectors (row l = location l),
    or a B x L x C stack of such grids."""

    data: np.ndarray
    height: int
    width: int

    def __post_init__(self) -> None:
        if self.data.ndim not in (2, 3) or self.data.size == 0:
            raise ValueError("feature map must be a non-empty L x C matrix or B x L x C stack")
        if self.height < 1 or self.width < 1 or self.height * self.width != self.locations:
            raise ValueError(
                f"height*width must equal the location count "
                f"({self.height}*{self.width} != {self.locations})"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("feature map entries must be finite")

    @classmethod
    def from_matrix(cls, data: np.ndarray) -> "FeatureMap":
        """Wrap an L x C matrix or B x L x C stack; the spatial
        factorization defaults to L x 1."""
        arr = np.asarray(data, dtype=np.float64)
        return cls(data=arr, height=arr.shape[-2] if arr.ndim >= 2 else 0, width=1)

    @property
    def locations(self) -> int:
        return self.data.shape[-2]

    @property
    def channels(self) -> int:
        return self.data.shape[-1]


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

    @classmethod
    def zeros(cls, size: int) -> "TagVector":
        return cls(bits=np.zeros(size, dtype=np.float64))

    @property
    def size(self) -> int:
        return self.bits.shape[-1]

    def active_ids(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.bits)[0])


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
    fmap: FeatureMap, tags: TagVector, params: TagAttentionParams
) -> AttentionResult:
    """Pool a shop feature map under tag-conditioned attention.

    Location scores are inner products between the location feature and
    the embedded tag set; weights are the softmax of the scores. A B x L x C
    stack pools each map under its own row of a B x T tag matrix.
    """
    if fmap.channels != params.embedding.shape[1]:
        raise ValueError(
            f"feature channels {fmap.channels} do not match embedding columns "
            f"{params.embedding.shape[1]}"
        )
    if fmap.data.ndim != tags.bits.ndim + 1 or fmap.data.shape[:-2] != tags.bits.shape[:-1]:
        raise ValueError("a stack of feature maps needs one tag vector per map")
    embedded = tag_embed(tags, params)
    if fmap.data.ndim == 2:
        weights = softmax(fmap.data @ embedded)
        return AttentionResult(weights=weights, pooled=weights @ fmap.data)
    weights = softmax(np.einsum("blc,bc->bl", fmap.data, embedded))
    return AttentionResult(weights=weights, pooled=np.einsum("bl,blc->bc", weights, fmap.data))


def context_attend(
    fmap: FeatureMap, context: np.ndarray, params: ContextAttentionParams
) -> AttentionResult:
    """Pool a query feature map under context-conditioned attention.

    score_l = feature_weight . f_l + context_weight[l] . context. The
    linear alignment fixes the spatial size: the map must have exactly as
    many locations as context_weight has rows. A K x C stack of contexts
    gives K x L weights and K pooled rows: the one map under each context.
    """
    ctx = np.asarray(context, dtype=np.float64)
    if fmap.data.ndim != 2:
        raise ValueError("context attention pools a single L x C feature map")
    if params.context_weight.shape[0] != fmap.locations:
        raise ValueError(
            f"feature map has {fmap.locations} locations but context_weight "
            f"fixes {params.context_weight.shape[0]}"
        )
    channels = params.feature_weight.shape[0]
    if fmap.channels != channels or ctx.ndim not in (1, 2) or ctx.shape[-1] != channels:
        raise ValueError("channel dimensions disagree for context attention")
    scores = fmap.data @ params.feature_weight + ctx @ params.context_weight.T
    weights = softmax(scores)
    return AttentionResult(weights=weights, pooled=weights @ fmap.data)


def _softmax_backward(weights: np.ndarray, grad_weights: np.ndarray) -> np.ndarray:
    """Exact Jacobian-vector product of softmax: grad wrt the scores."""
    inner = float(weights @ grad_weights)
    return weights * (grad_weights - inner)


def tag_attend_backward(
    fmap: FeatureMap,
    tags: TagVector,
    params: TagAttentionParams,
    grad_pooled: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``grad_pooled . pooled`` wrt the feature map and the
    tag embedding matrix.

    Each location's feature receives gradient along two paths: directly
    through the weighted sum, and through its score via the softmax.
    """
    g = np.asarray(grad_pooled, dtype=np.float64)
    if g.shape != (fmap.channels,):
        raise ValueError("grad_pooled must be a C vector")
    embedded = tag_embed(tags, params)
    weights = softmax(fmap.data @ embedded)
    grad_weights = fmap.data @ g
    grad_scores = _softmax_backward(weights, grad_weights)
    grad_map = np.outer(weights, g) + np.outer(grad_scores, embedded)
    grad_embedded = fmap.data.T @ grad_scores
    grad_embedding = np.outer(tags.bits, grad_embedded)
    return grad_map, grad_embedding


def context_attend_backward(
    fmap: FeatureMap,
    context: np.ndarray,
    params: ContextAttentionParams,
    grad_pooled: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``grad_pooled . pooled`` wrt the feature map, the
    context vector, and both alignment weights.

    The context gradient matters: during training the context is itself a
    shop embedding, so this is where gradient flows back into the shop
    branch.
    """
    ctx = np.asarray(context, dtype=np.float64)
    g = np.asarray(grad_pooled, dtype=np.float64)
    if g.shape != (fmap.channels,):
        raise ValueError("grad_pooled must be a C vector")
    if params.context_weight.shape[0] != fmap.locations:
        raise ValueError("context_weight row count must match the feature map")
    scores = fmap.data @ params.feature_weight + params.context_weight @ ctx
    weights = softmax(scores)
    grad_weights = fmap.data @ g
    grad_scores = _softmax_backward(weights, grad_weights)
    grad_map = np.outer(weights, g) + np.outer(grad_scores, params.feature_weight)
    grad_context = params.context_weight.T @ grad_scores
    grad_feature_weight = fmap.data.T @ grad_scores
    grad_context_weight = np.outer(grad_scores, ctx)
    return grad_map, grad_context, grad_feature_weight, grad_context_weight
