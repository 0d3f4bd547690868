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
under each row of a K x C stack of contexts, with the C vector
``feature_weight`` and the L x C ``context_weight``. The backward functions
work on the same stacks and take the forward's result (an
``AttentionResult`` or a ``ContextPool``), so they reuse its softmax
weights instead of recomputing scores; the context backward takes the
contexts and ``context_weight`` themselves, since their gradients are what
it returns.

Context attention forms no K x L array of scores to exponentiate, nor
of weights to divide. Its score ``s[k, l] = a_l + t[k, l]``, with ``a_l =
feature_weight . f_l`` and ``t[k, l] = context_weight[l] . c_k``, is a sum,
so with ``A = max_l a_l`` and ``T_k = max_l t[k, l]`` its softmax weight is

    w[k, l] = u_l F[k, l] / Z_k,  u_l = exp(a_l - A),
    F[k, l] = exp(t[k, l] - T_k),  Z_k = sum_l u_l F[k, l].

``F``, the context factor, depends on the contexts and the weights alone,
never on the query: ``context_factor`` makes it, ``model.forward_triple``
for its K=2 shops, ``retrieval.ShopIndex`` once for every indexed item, so
a re-rank gathers its K candidates' rows. ``context_attend`` takes L
exponentials and pools through two BLAS products: the unnormalised rows
``R = F @ (u[:, None] * fmap)`` and the sums ``Z = F @ u``, so context k
pools to ``R_k / Z_k``. One L x C scaling stands in for the K x L weights,
and nothing elementwise touches a K x L or K x C array. The result, a
``ContextPool``, keeps ``R`` and ``Z``: training reads the pooled rows
``R / Z`` and the backward the weights ``u_l F[k, l] / Z_k``, each formed
when read, and the re-rank scores ``(R, Z)`` as they are.

The bound. Both factors lie in (0, 1], and each reaches exactly 1, at the
location of its maximum (``exp(0) = 1``). So ``Z_k`` is at least the
product at either maximum: ``Z_k >= exp(-min(range(a), range(t_k)))``.
With ``u = 2^-53`` and ``E`` the relative error of ``np.exp`` (a few
``u``), rounding the shifted arguments moves an exponential by at most
``u range(a)`` or ``u range(t_k)`` relatively, as it moves the softmax's
own shifted scores; the two exponentials, their product and the sum add
``2 E + (L + 1) u`` more. Below the normal range (``2^-1022``) each of
``u_l``, ``F[k, l]`` and their product may also err by half a subnormal
spacing, ``2^-1075``; the other factor is at most 1, so a product errs by
less than ``2^-1073`` and ``Z_k`` by less than ``L 2^-1073``. Each weight is
therefore within

    2 (u (range(a) + range(t_k)) + 2 E + (L + 2) u)  relatively,
    plus (L + 1) 2^-1073 / Z_k  absolutely,

of the exact softmax of the same ``a`` and ``t``, to first order. The
relative part is the softmax's own, whose shifted scores span up to
``range(a) + range(t_k)``. ``R_k[c]`` sums ``F[k, l] (u_l f[l, c])``
with the roundings of ``Z_k`` and one more, so it is within half the
relative part of the exact ``sum_l u_l F[k, l] f[l, c]``, relative to
``sum_l u_l F[k, l] |f[l, c]|``, plus less than ``L 2^-1073 (1 + max_l
|f[l, c]|)`` absolutely: a scaled entry ``u_l f[l, c]`` below the normal
range errs by ``2^-1075`` whatever the map's magnitude. So the pooled
entry ``R_k[c] / Z_k`` is within

    2 (u (range(a) + range(t_k)) + 2 E + (L + 2) u) sum_l w[k, l] |f[l, c]|
    plus (2 L + 1) 2^-1073 (1 + max_l |f[l, c]|) / Z_k

of the exact softmax pooling. ``MIN_CONTEXT_SUM = 2^-960`` keeps both
absolute parts below ``2^-80`` (times ``1 + max_l |f[l, c]|`` for the
pooled rows) for every L below ``2^32``. A context whose sum is below it,
or not a number, is not trusted: its weights are ``numeric.softmax`` of
its exact scores ``a + context_weight @ c_k``, its row ``R_k`` their
pooling and its sum 1, so no finite model is refused. By the bound on
``Z_k``, that takes both ``range(a)`` and ``range(t_k)`` above ``960 ln 2 =
665.4``; for a unit context, ``range(t_k) <= 2 max_l |context_weight[l]|``,
so some row of ``context_weight`` must have a norm above 332.7.

``R_k`` carries the factor ``Z_k``: ``|R_k[c]| <= Z_k max_l |f[l, c]|``
with ``2^-960 <= Z_k <= L``. So ``R`` is finite for maps whose entries are
below ``DBL_MAX / L``, and its squared norm can underflow even when that
of ``R_k / Z_k`` does not: a row of norm 1 under ``Z_k = 2^-600`` has a
squared norm of ``2^-1200``. ``retrieval``'s distance divides a row whose
squared norm falls below ``2^-1022``, or overflows, by its largest
magnitude (or by ``NORM_EPS Z_k`` when that is larger) before it squares
it again, and its sum with it.

Finiteness is checked where data enters, not per layer: feature-map,
checkpoint and index files are checked by their parsers, raw input by the
model's feature extraction, and here ``softmax`` rejects non-finite tag
scores, ``context_attend`` non-finite feature scores ``a`` and
``context_factor`` non-finite context scores ``t``, which guards direct
calls to these functions. Tag bits are checked to be 0/1 where a
``TagVector`` is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numeric import softmax

# The smallest sum Z_k that context_attend trusts; below it, context k's
# weights are the softmax of its exact scores (the module docstring proves
# the bound).
MIN_CONTEXT_SUM = 2.0**-960


@dataclass(frozen=True)
class TagVector:
    """One image's tag set: a non-empty 1-D indicator vector over the tag
    vocabulary, kept as float 0/1. A stack of images takes a B x T matrix
    of such rows, which ``embed_shops`` and ``forward_triple`` stack."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        if self.bits.ndim != 1 or self.bits.size == 0:
            raise ValueError(f"tag vector must be non-empty and 1-D, got shape {self.bits.shape}")
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


class ContextPool(NamedTuple):
    """Context attention of one map under K contexts, unnormalised: the
    K x C ``rows`` ``R = factor @ (scale[:, None] * fmap)`` and the K
    ``sums`` ``Z = factor @ scale``, where ``scale`` holds the L
    exponentials ``u`` (module docstring). An untrusted context's row is
    the pooling of its exact softmax and its sum 1; ``softmaxed`` holds
    those contexts' indices and softmax weights, or None.

    ``pooled`` (``R / Z``) and ``weights`` (``u_l F[k, l] / Z_k``, or an
    untrusted context's softmax) are formed on each read, so a re-rank,
    which reads neither, forms neither.
    """

    rows: np.ndarray
    sums: np.ndarray
    factor: np.ndarray
    scale: np.ndarray
    softmaxed: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def pooled(self) -> np.ndarray:
        return self.rows / self.sums[:, None]

    @property
    def weights(self) -> np.ndarray:
        weights = self.factor * self.scale
        weights /= self.sums[:, None]
        if self.softmaxed is not None:
            untrusted, softmaxed = self.softmaxed
            weights[untrusted] = softmaxed
        return weights


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


def context_factor(context_weight: np.ndarray, contexts: np.ndarray) -> np.ndarray:
    """The K x L context factor of a K x C stack of contexts: row k holds
    ``exp(t_k - max_l t_k)`` with ``t_k = context_weight @ c_k``, so its
    maximum is exactly 1. Made in place of the product, so it takes that
    array's bytes and no more. Non-finite context scores are refused."""
    if context_weight.ndim != 2 or contexts.ndim != 2 or contexts.shape[1] != context_weight.shape[1]:
        raise ValueError("context factor takes a K x C stack of contexts and an L x C context_weight")
    factor = contexts @ context_weight.T
    if not np.logical_and.reduce(np.isfinite(factor), axis=None):
        raise ValueError("context scores must be finite")
    factor -= np.maximum.reduce(factor, axis=1, keepdims=True)
    np.exp(factor, out=factor)
    return factor


def context_attend(
    fmap: np.ndarray,
    contexts: np.ndarray,
    feature_weight: np.ndarray,
    context_weight: np.ndarray,
    factor: np.ndarray,
) -> ContextPool:
    """Pool an L x C query map under context-conditioned attention, once
    per row of the K x C ``contexts``.

    score_l = feature_weight . f_l + context_weight[l] . c_k, softmaxed
    over the locations. ``factor`` is ``context_factor(context_weight,
    contexts)``, or those rows of a larger one: context k pools to ``R_k /
    Z_k`` (module docstring), and the result keeps ``R`` and ``Z``. The
    linear alignment fixes the spatial size: ``context_weight`` and the
    factor must have one column per location of the map. A context whose
    sum is below ``MIN_CONTEXT_SUM``, or not a number, takes the softmax of
    its exact scores instead.
    """
    if fmap.ndim != 2:
        raise ValueError("context attention pools a single L x C feature map")
    if feature_weight.ndim != 1 or feature_weight.shape[0] != fmap.shape[1]:
        raise ValueError("feature_weight must be a C vector of the map's channels")
    if context_weight.shape != fmap.shape or contexts.ndim != 2 or contexts.shape[1] != fmap.shape[1]:
        raise ValueError(
            f"context attention of an L x C map of shape {fmap.shape} takes a K x C stack of "
            f"contexts and an L x C context_weight, got {contexts.shape} and {context_weight.shape}"
        )
    if factor.shape != (len(contexts), fmap.shape[0]):
        raise ValueError(
            f"context factor must be K x L for {len(contexts)} contexts and the map's "
            f"{fmap.shape[0]} locations, got shape {factor.shape}"
        )
    scores = fmap @ feature_weight
    if not np.logical_and.reduce(np.isfinite(scores)):
        raise ValueError("feature scores must be finite")
    scale = np.exp(scores - np.maximum.reduce(scores))
    # Read C-ordered, so each context's products have one reduction order.
    factor = np.ascontiguousarray(factor)
    rows = factor @ (scale[:, None] * fmap)
    sums = factor @ scale
    trusted = sums >= MIN_CONTEXT_SUM
    softmaxed = None
    if not np.logical_and.reduce(trusted):
        untrusted = np.flatnonzero(~trusted)
        weights = softmax(scores + contexts[untrusted] @ context_weight.T)
        rows[untrusted] = weights @ fmap
        sums[untrusted] = 1.0
        softmaxed = (untrusted, weights)
    return ContextPool(rows=rows, sums=sums, factor=factor, scale=scale, softmaxed=softmaxed)


def _softmax_backward(weights: np.ndarray, grad_weights: np.ndarray) -> np.ndarray:
    """Exact Jacobian-vector product of softmax over the last axis: grad
    wrt the scores, one row per distribution of a stack."""
    inner = np.add.reduce(weights * grad_weights, axis=-1, keepdims=True)
    return weights * (grad_weights - inner)


def _check_grad_pooled(shape: tuple[int, ...], grad_pooled: np.ndarray) -> np.ndarray:
    g = np.asarray(grad_pooled, dtype=np.float64)
    if g.shape != shape:
        raise ValueError(f"grad_pooled has shape {g.shape}, the pooled output {shape}")
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
    g = _check_grad_pooled(attended.pooled.shape, grad_pooled)
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
    attended: ContextPool,
    grad_pooled: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``sum(grad_pooled * attended.pooled)`` wrt the feature
    map, the K x C contexts, and both alignment weights.

    ``attended`` is what ``context_attend(fmap, contexts, feature_weight,
    context_weight, factor)`` returned; its normalised weights, formed here
    from its factor, exponentials and sums, are reused, not recomputed from
    the scores. The map and weight gradients sum over the K
    contexts. The context gradient matters: during training the context is
    itself a shop embedding, so this is where gradient flows back into the
    shop branch.
    """
    g = _check_grad_pooled(attended.rows.shape, grad_pooled)
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
