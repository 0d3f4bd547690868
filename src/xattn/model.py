"""Network assembly: shared trunk, per-domain branches, attention heads.

Three variants form a ladder. The base variant pools both domains
uniformly; the tag variant adds tag-conditioned pooling on the shop
side; the context variant additionally attends the query under each
candidate's shop embedding as context.

The parameters are a config and one name -> array mapping,
``ModelParams.tensors``. ``_tensor_layout(config)`` is the one source of
the tensor names, shapes, initial scales and order: ``init_params``
builds the mapping from it, and ``ModelParams`` refuses any other and
keeps the tensors in its order. Everything else works by name: the
checkpoint, the fingerprint, the gradient dict and the optimiser. The
forward and backward code read the arrays they need by name and hand
them to the ``attention`` functions as plain arrays.

The trunk is a per-location affine+ReLU transform and each branch a
per-location affine one (``_affine``, 1x1-convolution equivalents);
precomputed feature maps can bypass the trunk via raw_dim == channels
with an identity trunk. Feature maps are plain arrays: L x C for one
image, B x L x C for a stack. A forward pass is a trunk pass (``_trunk``)
and a branch pass. The user side applies its branch at every location,
since the re-rank attends the whole L x C map. The shop side pools first
(``_shop_pass``): it pools the trunk's hidden maps and applies the shop
branch once per image, to the pooled row. The branch is affine and the
pooling weights sum to 1, so this is the pooled branch output, and the
branch costs ``C^2`` multiply-adds per image instead of ``L C^2``. Tag
attention scores the hidden maps under the keys ``E @ W_shop``:
``(W h + b) . e = h . (W^T e) + b . e``, and the softmax ignores
``b . e``, which is the same at every location.

Finiteness is checked once, where data enters: ``_trunk`` (behind
``extract_features``, every ``embed_*`` and ``forward_triple``) widens raw
input to float64, which is exact for the float32 maps ``dataio`` loads,
and rejects non-finite raw input; ``checkpoint_from_bytes`` rejects NaN/Inf
tensors, which ``checkpoint_to_bytes`` refuses to write, the feature-map
parser NaN/Inf payloads, and the attention functions non-finite
attention scores. Parameters that overflow in memory give NaN embeddings,
which ``metric.triplet_loss`` (training) and ``retrieval.ShopIndex``
(serving, and the index parser) refuse.

Serving runs the batched forward functions: ``embed_shops`` embeds a
B x L x R stack of shop images under a B x T 0/1 tag matrix as one shop
pass, pooling by tag attention, or uniformly in the base variant, which
has no tag head. A query's scan embedding is ``uniform_embedding`` of its
``extract_features`` map; the re-rank in ``retrieval.search`` attends
that map under its K candidates at once with ``attention.context_attend``
and takes the distance of each pooled row in closed form, from the
unnormalised row and its sum. Its context factor is the K candidates'
rows of the index's N x L ``context_factor(context_weight, embeddings)``,
which the index computes once per model; so the re-rank takes L
exponentials, not L x K.
``embed_shop`` is ``embed_shops`` on a batch of one. Training runs the
same steps, one triple at a time: ``forward_triple`` runs the trunk once,
on the stack [anchor, positive, negative]. The anchor's rows take the
user branch and the shops' rows the shop pass, and, in the context
variant, the anchor is attended under both shops as K=2 contexts with the
same ``context_attend``, whose factor it forms with the same
``context_factor``. It normalises the pooled rows ``R / Z`` of the
unnormalised rows and sums that call returns, and
``context_attend_backward`` forms the weights from them. Each row of the
trunk's product depends on its own input row alone, so the shop
embeddings equal the serving ones, bit for bit where the BLAS gives a
row the same bits in products of any row count (see ``forward_triple``).
The anchor embeddings are ``l2_normalize`` of the quotients of the rows
and sums the re-rank scores, to rounding: the factor's two products, of
two shop rows here and of N index rows there, may differ in the last
bits. It keeps the trunk pass once, as the 3L input rows and 3L hidden
rows, with the anchor's user-branch map, the shop pass's keys and pooled
hidden rows, the attention results and the norms the embeddings were
divided by. ``backward_triple`` calls it once and walks back over them,
reading the anchor's part of the trunk pass as the slices ``[:L]`` and
the shops' as ``[L:]``; the gradient check differences the same
``forward_triple``.
The shop gradient reaches the trunk through the ReLU mask of the hidden
maps alone, with no product through the branch at each location. In the
stages that freeze the trunk, ``backward_triple`` skips the trunk
gradients and the hidden maps' gradient only they read.

A training step costs one trunk pass, one ``forward_triple`` and one
``triplet_loss`` per triple; the hinge is not evaluated again on the way
back, and no norm is taken twice. The forward keeps both sides as 2 x C
stacks, [anchor_pos, anchor_neg] and [positive, negative], with the
``numeric.Normalized`` norms of each stack it normalised, and the loss,
its gradient and the backward steps take them as they are: the
normalisation's backward reuses the norms and quotients. The base and tag
variants' anchor is one uniformly pooled 1 x C row, normalised as a stack
like the others, which stands for both anchor rows. The trunk weight's
gradient stays two products, over the anchor's rows and over the shops'
rows: one product over all 3L rows would sum in another order and change
the bytes. The step returns the gradients of the tensors it updates and
nothing else: no dict entries when the loss is 0, and no trunk entries
when the trunk is frozen.

``params_fingerprint`` identifies the parameters an index was built with,
and ``search`` checks it on every query. Params are immutable values
(``ModelParams``), and training makes new params at each step, so each
params object is hashed once.

Checkpoint file format (little endian): magic ``XATN``, version u32, then
u32 variant, locations, channels, tag count, raw dim and epoch, seed u64,
the stage name, tensor count u32, and per tensor its name, rank u32, that
many u32 dims and the values as float64, row-major. A name is a u32 byte
count, then strict UTF-8. ``fileio`` says how faults are reported: the
parser checks the bytes, a repeated tensor name among them, and
``ModelConfig`` and ``ModelParams`` the values. So the tensors may come
in any order, and a loaded model holds them in layout order, which saves
back to the canonical bytes.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .attention import (
    AttentionResult,
    ContextPool,
    TagVector,
    context_attend,
    context_attend_backward,
    context_factor,
    tag_attend,
    tag_attend_backward,
)
from .fileio import FormatError, Reader, _check_range, _KeyedError, write_atomic
from .metric import triplet_loss, triplet_loss_backward
from .numeric import Normalized, l2_normalize, l2_normalize_backward, normalize_rows

CHECKPOINT_MAGIC = b"XATN"
CHECKPOINT_VERSION = 1

# Magic, version, variant, four dimensions, epoch, seed: the first 40 bytes,
# packed and unpacked by this one Struct.
_HEADER = struct.Struct("<4s7IQ")

DOMAINS = ("user", "shop")

# The dimensions of a ModelConfig, in the order the header stores them.
_DIMS = ("locations", "channels", "tag_count", "raw_dim")

# Every tensor is stored as little-endian float64.
_F8 = np.dtype("<f8")


class Variant(IntEnum):
    """Architecture ladder; each step is a parameter superset of the last."""

    YNET = 0
    TAGYNET = 1
    CTXYNET = 2

    @classmethod
    def parse(cls, name: str) -> "Variant":
        """The variant named ``name``, ignoring case and surrounding blanks."""
        if not isinstance(name, str):
            raise ValueError(f"variant name must be a str, got {name!r}")
        names = tuple(variant.name.lower() for variant in cls)
        key = name.strip().lower()
        if key not in names:
            raise ValueError(f"unknown variant {name!r}; expected one of {names}")
        return cls[key.upper()]


class UnsupportedVariantError(ValueError):
    """An operation was asked of a variant that lacks the needed head."""


class CheckpointFormatError(FormatError):
    """Checkpoint bytes could not be parsed; ``offset`` locates the fault."""


@dataclass(frozen=True)
class ModelConfig:
    locations: int
    channels: int
    tag_count: int
    raw_dim: int
    variant: Variant

    def __post_init__(self) -> None:
        # A checkpoint stores the variant and each dimension as a u32.
        for field_name in _DIMS:
            _check_range(getattr(self, field_name), field_name, 1, 2**32)
        if not isinstance(self.variant, Variant):
            raise ValueError(f"variant must be a Variant, got {self.variant!r}")

    @functools.cached_property
    def _shapes(self) -> dict[str, tuple[int, ...]]:
        """Each tensor's shape by name, in layout order; read at every step."""
        return {name: shape for name, shape, _ in _tensor_layout(self)}


def _affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Per-location affine transform ``x @ weight.T + bias``. The bias goes
    onto the fresh product in place: the same sums without a second array
    of that size."""
    out = x @ weight.T
    out += bias
    return out


@dataclass(frozen=True, eq=False)
class ModelParams:
    """A config and its learnable tensors: one name -> array mapping
    holding exactly the names and shapes of ``_tensor_layout(config)``,
    taken in any order and kept in the layout's, which is the checkpoint's
    and the fingerprint's. An unexpected or mis-shaped tensor, in the order
    given, then a missing one, raises a ValueError keyed by its name
    (``fileio``); ``tensors`` that are not a mapping raise one naming them.

    Params are an immutable value. The constructor stores each tensor as a
    read-only, aligned, C-contiguous ``<f8`` array over a ``bytes`` object
    of its own, so a later write to the array passed in changes nothing
    here, and numpy refuses every write to the stored one and refuses to
    make it writeable. ``tensors`` is a read-only mapping and no field can
    be rebound. Changed params are new params:
    ``ModelParams(params.config, {**params.tensors, name: array})``.

    ``==`` is identity: two objects with equal tensors are not equal.
    Compare ``params_fingerprint`` values to compare contents."""

    config: ModelConfig
    tensors: Mapping[str, np.ndarray]
    # (each tensor's shape, strides and dtype, digest): params_fingerprint's.
    _digest: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.config, ModelConfig):
            raise ValueError(f"params config must be a ModelConfig, got {self.config!r}")
        if not isinstance(self.tensors, Mapping):
            raise ValueError(f"params tensors must be a mapping, got {self.tensors!r}")
        shapes = self.config._shapes
        frozen: dict[str, np.ndarray] = {}
        for name, tensor in self.tensors.items():
            shape = shapes.get(name)
            if shape is None:
                raise _KeyedError(f"unexpected tensor {name!r}", name)
            array = np.asarray(tensor, _F8)
            if array.shape != shape:
                raise _KeyedError(f"tensor {name!r} has shape {array.shape}, expected {shape}", name)
            frozen[name] = np.ndarray(shape, _F8, array.tobytes())
        if len(frozen) != len(shapes):
            missing = next(name for name in shapes if name not in frozen)
            raise _KeyedError(f"missing tensor {missing!r}", missing)
        object.__setattr__(self, "tensors", MappingProxyType({name: frozen[name] for name in shapes}))

    def named_tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self.tensors.items())


def _tensor_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], float]]:
    """Canonical (name, shape, init scale) list; scale 0 means zeros."""
    c, r = config.channels, config.raw_dim
    # math.sqrt, like np.sqrt, is correctly rounded.
    branch_scale = 1.0 / math.sqrt(c)
    layout = [
        ("trunk.weight", (c, r), 1.0 / math.sqrt(r)),
        ("trunk.bias", (c,), 0.0),
        ("branch_shop.weight", (c, c), branch_scale),
        ("branch_shop.bias", (c,), 0.0),
        ("branch_user.weight", (c, c), branch_scale),
        ("branch_user.bias", (c,), 0.0),
    ]
    if config.variant >= Variant.TAGYNET:
        layout.append(("tag_attn.embedding", (config.tag_count, c), branch_scale))
    if config.variant >= Variant.CTXYNET:
        layout.append(("ctx_attn.feature_weight", (c,), branch_scale))
        layout.append(("ctx_attn.context_weight", (config.locations, c), branch_scale))
    return layout


def init_params(
    config: ModelConfig,
    rng: np.random.Generator | int,
    base: ModelParams | None = None,
) -> ModelParams:
    """Seeded uniform [-s, s] initialization of every tensor.

    With ``base``, tensors sharing a name are taken over (shapes must
    match exactly; ``ModelParams`` raises naming the tensor) and only the
    remaining ones are freshly drawn. Extra tensors in ``base`` are
    ignored, so a larger-variant checkpoint can seed a smaller variant.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    base_tensors = base.tensors if base is not None else {}
    tensors: dict[str, np.ndarray] = {}
    for name, shape, scale in _tensor_layout(config):
        if name in base_tensors:
            tensors[name] = base_tensors[name]
        elif scale == 0.0:
            tensors[name] = np.zeros(shape, dtype=np.float64)
        else:
            tensors[name] = rng.uniform(-scale, scale, size=shape)
    return ModelParams(config, tensors)


# ---------------------------------------------------------------------------
# forward paths
# ---------------------------------------------------------------------------


def _trunk(raw: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The trunk pass, relu(trunk(x)) at every location: the (N*L) x R
    input rows of one L x R map or a B x L x R stack, and the (N*L) x C
    hidden rows."""
    data = np.asarray(raw, dtype=np.float64)
    cfg = params.config
    if data.ndim not in (2, 3) or data.shape[-2:] != (cfg.locations, cfg.raw_dim):
        raise ValueError(
            f"raw features must be {cfg.locations} x {cfg.raw_dim} "
            f"(or a stack of such), got {data.shape}"
        )
    if not np.logical_and.reduce(np.isfinite(data), axis=None):
        raise ValueError("raw features must be finite")
    rows = data.reshape(-1, cfg.raw_dim)
    hidden = _affine(rows, params.tensors["trunk.weight"], params.tensors["trunk.bias"])
    np.maximum(hidden, 0.0, out=hidden)
    return rows, hidden


def extract_features(
    raw: np.ndarray, domain: str, params: ModelParams
) -> np.ndarray:
    """Trunk + domain branch, applied per location: branch(relu(trunk(x))).

    ``raw`` is one L x R map or a B x L x R stack; a stack runs as one
    (B*L) x R matrix product per layer and gives a B x L x C feature map.
    """
    if domain not in DOMAINS:
        raise ValueError(f"domain must be one of {DOMAINS}, got {domain!r}")
    _, hidden = _trunk(raw, params)
    t = params.tensors
    features = _affine(hidden, t[f"branch_{domain}.weight"], t[f"branch_{domain}.bias"])
    return features.reshape(*np.shape(raw)[:-1], params.config.channels)


def _location_mean(fmap: np.ndarray) -> np.ndarray:
    """Mean over the locations of a map, or of each map of a stack: the sum
    and the in-place division ``fmap.mean(axis=-2)`` makes, without its
    argument handling."""
    pooled = np.add.reduce(fmap, axis=-2)
    pooled /= fmap.shape[-2]
    return pooled


def uniform_embedding(fmap: np.ndarray) -> np.ndarray:
    """Unit-norm uniform pooling of a feature map (one row per map of a stack)."""
    return l2_normalize(_location_mean(fmap))


def _uniform_pool(fmap: np.ndarray) -> AttentionResult:
    """Uniform pooling as attention with constant weights 1/L; the pooled
    rows are the location mean, as ``uniform_embedding`` takes it."""
    weights = np.full(fmap.shape[:-1], 1.0 / fmap.shape[-2])
    return AttentionResult(weights=weights, pooled=_location_mean(fmap))


class _ShopPass(NamedTuple):
    """The shop side's pass over the trunk's hidden maps: pooling, then the
    shop branch once per pooled row; with the intermediates
    ``backward_triple`` reads."""

    keys: np.ndarray | None  # T x C tag embedding through the branch; None when uniform
    pool: AttentionResult  # B x L weights, B x C pooled hidden rows
    pooled: np.ndarray  # B x C: the shop branch of each pooled hidden row


def _shop_pass(maps: np.ndarray, bits: np.ndarray | None, params: ModelParams) -> _ShopPass:
    """Pool each of the B x L x C hidden ``maps`` the trunk made, under its
    row of the B x T tag ``bits`` or uniformly when ``bits`` is None, then
    apply the shop branch to each pooled row.
    The tags score the hidden maps under the keys ``E @ W``, which embed a
    tag set ``e`` as ``W^T e``."""
    t = params.tensors
    if bits is None:
        keys = None
        pool = _uniform_pool(maps)
    else:
        keys = t["tag_attn.embedding"] @ t["branch_shop.weight"]
        pool = tag_attend(maps, bits, keys)
    pooled = _affine(pool.pooled, t["branch_shop.weight"], t["branch_shop.bias"])
    return _ShopPass(keys=keys, pool=pool, pooled=pooled)


def embed_shops(raws: np.ndarray, bits: np.ndarray, params: ModelParams) -> np.ndarray:
    """Unit-norm B x C shop embeddings of a B x L x R stack, each pooled
    under its own row of the B x T 0/1 matrix ``bits``. The base variant
    has no tag head: it pools uniformly and does not read ``bits``."""
    tagged = params.config.variant >= Variant.TAGYNET
    _, hidden = _trunk(raws, params)
    maps = hidden.reshape(*np.shape(raws)[:-1], params.config.channels)
    return l2_normalize(_shop_pass(maps, bits if tagged else None, params).pooled)


def embed_shop(raw: np.ndarray, tags: TagVector, params: ModelParams) -> np.ndarray:
    """Unit-norm shop embedding of one L x R map: ``embed_shops`` on a
    stack of one."""
    return embed_shops(np.asarray(raw)[None], tags.bits[None], params)[0]


class TripleForward(NamedTuple):
    """Loss and the embeddings of one triple, as the two 2 x C stacks
    ``triplet_loss`` compares, ``anchor_rows`` and ``shop_norms.unit``, with
    the intermediates ``backward_triple`` walks back over. The one trunk
    pass is kept once, as ``rows`` and ``hidden``: with L locations, rows
    ``[:L]`` are the anchor's and rows ``[L:]`` the shops'."""

    loss: float
    anchor_rows: np.ndarray  # [anchor_pos, anchor_neg]
    rows: np.ndarray  # 3L x R input rows of [anchor, positive, negative]
    hidden: np.ndarray  # 3L x C: the one trunk pass over them, after the ReLU
    anchor_map: np.ndarray  # L x C: the anchor's hidden rows through the user branch
    shops: _ShopPass  # the shop pass over the hidden maps of [positive, negative]
    shop_bits: np.ndarray | None  # 2 x T; None when the shops pool uniformly
    anchor_pool: ContextPool | AttentionResult  # K=2 under the shop contexts, else one uniform row
    shop_norms: Normalized  # the rows [positive, negative], with the norms they were divided by
    anchor_norms: Normalized  # anchor_pool's rows, with the norms they were divided by


def forward_triple(
    anchor_raw: np.ndarray,
    positive_raw: np.ndarray,
    negative_raw: np.ndarray,
    positive_tags: TagVector | None,
    negative_tags: TagVector | None,
    params: ModelParams,
    alpha: float,
) -> TripleForward:
    """Loss and all four embeddings for one training triple.

    The three maps, which must have one shape, go through the trunk as one
    stack [anchor, positive, negative]. The anchor's rows then take the
    user branch, and the shops' rows the shop pass of ``embed_shops``. The
    context variant attends the anchor under both shop embeddings at once
    with ``context_attend``, as the re-rank attends its candidates, and
    normalises the pooled rows ``R / Z`` of the unnormalised rows and sums
    it returns, where the re-rank scores those in closed form; the weights
    are formed only if the backward reads them. The other variants pool the
    anchor uniformly as one 1 x C row and use its normalised row,
    ``uniform_embedding(extract_features(anchor_raw, "user", params))``, as
    both anchor rows. Each row of the trunk's product depends only on its
    own input row, and a row normalises to the same bits alone or in a
    stack, so the embeddings equal their serving forms, bit for bit where
    the BLAS gives each row of the trunk's 3L-row product the bits it gets
    in serving's L-row (anchor) or 2L-row (shops) product. With OpenBLAS
    that holds at (L, C, R) = (9, 16, 16) and (49, 128, 128), which the
    tests pin, under one thread and under the default count. It does not
    hold at (4, 128, 128): at C = 128, a product of 1 to 9 rows gives its
    rows other bits than the same rows in a longer product, so there the
    embeddings equal their serving forms to rounding only.
    """
    shape = np.shape(anchor_raw)
    if np.shape(positive_raw) != shape or np.shape(negative_raw) != shape:
        raise ValueError("anchor, positive and negative must be raw maps of one shape")
    raws = np.concatenate((anchor_raw, positive_raw, negative_raw), dtype=np.float64)
    rows, hidden = _trunk(raws.reshape(3, *shape), params)
    cfg = params.config
    t = params.tensors
    n = cfg.locations
    anchor_map = _affine(hidden[:n], t["branch_user.weight"], t["branch_user.bias"])
    shop_bits = None
    if cfg.variant >= Variant.TAGYNET:
        if positive_tags is None or negative_tags is None:
            raise ValueError("tag vectors required for the tag-attention variant")
        # The values np.stack gives, at less cost per call.
        shop_bits = np.array((positive_tags.bits, negative_tags.bits), dtype=np.float64)
    shops = _shop_pass(hidden[n:].reshape(2, n, cfg.channels), shop_bits, params)
    shop_norms = normalize_rows(shops.pooled)

    if cfg.variant >= Variant.CTXYNET:
        weight = t["ctx_attn.context_weight"]
        anchor_pool = context_attend(
            anchor_map,
            shop_norms.unit,
            t["ctx_attn.feature_weight"],
            weight,
            context_factor(weight, shop_norms.unit),
        )
    else:
        anchor_pool = _uniform_pool(anchor_map[None])
    anchor_norms = normalize_rows(anchor_pool.pooled)
    anchor_rows = anchor_norms.unit
    if len(anchor_rows) == 1:
        # The one uniformly pooled row stands for both anchor rows.
        anchor_rows = anchor_rows.repeat(2, axis=0)
    return TripleForward(
        loss=triplet_loss(anchor_rows, shop_norms.unit, alpha),
        anchor_rows=anchor_rows,
        rows=rows,
        hidden=hidden,
        anchor_map=anchor_map,
        shops=shops,
        shop_bits=shop_bits,
        anchor_pool=anchor_pool,
        shop_norms=shop_norms,
        anchor_norms=anchor_norms,
    )


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward_triple(
    anchor_raw: np.ndarray,
    positive_raw: np.ndarray,
    negative_raw: np.ndarray,
    positive_tags: TagVector | None,
    negative_tags: TagVector | None,
    params: ModelParams,
    alpha: float,
    *,
    frozen_trunk: bool = False,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus the analytic gradients a training step applies.

    Runs ``forward_triple`` once and walks back over what it saved; the
    hinge is evaluated once, by the forward's ``triplet_loss``. Shop
    embeddings receive gradient along two routes in the context variant:
    directly from the loss and through the context-attention alignment of
    the anchor.

    The shop side walks back over its one pass: the branch applied to the
    pooled hidden rows ``p_h``, then tag attention over the hidden maps
    under the keys ``E @ W``. With ``g`` the gradient at the branch output,
    the branch weight gets ``g^T p_h`` plus ``E^T`` times the keys'
    gradient, the tag embedding gets the keys' gradient times ``W^T``, and
    the hidden maps' gradient reaches the trunk through the ReLU alone.
    Both sides read their input and hidden rows as the slices ``[:L]`` and
    ``[L:]`` of the forward's one trunk pass.

    The dict holds one array per tensor the step updates: none when the
    loss is 0, and every tensor but the trunk with ``frozen_trunk`` (the
    curriculum stages after the first, which do not update the trunk).
    """
    fwd = forward_triple(
        anchor_raw, positive_raw, negative_raw, positive_tags, negative_tags, params, alpha
    )
    if fwd.loss == 0.0:
        return 0.0, {}
    grad_anchors, grad_shops = triplet_loss_backward(fwd.anchor_rows, fwd.shop_norms.unit, fwd.loss)
    grads: dict[str, np.ndarray] = {}
    t = params.tensors

    if len(fwd.anchor_norms.unit) == 1:
        # Both anchor rows are the one uniformly pooled row.
        grad_anchors = grad_anchors[:1] + grad_anchors[1:]
    grad_pooled = l2_normalize_backward(fwd.anchor_norms, grad_anchors)
    if params.config.variant >= Variant.CTXYNET:
        grad_anchor_map, grad_contexts, grad_feature_weight, grad_context_weight = (
            context_attend_backward(
                fwd.anchor_map,
                fwd.shop_norms.unit,
                t["ctx_attn.feature_weight"],
                t["ctx_attn.context_weight"],
                fwd.anchor_pool,
                grad_pooled,
            )
        )
        grads["ctx_attn.feature_weight"] = grad_feature_weight
        grads["ctx_attn.context_weight"] = grad_context_weight
        # context route back into the shop embeddings
        grad_shops += grad_contexts
    else:
        grad_anchor_map = fwd.anchor_pool.weights[..., None] * grad_pooled[..., None, :]

    # The trunk pass's rows [:n] are the anchor's and rows [n:] the shops'.
    n, channels = params.config.locations, params.config.channels
    shops = fwd.shops
    shop_maps = fwd.hidden[n:].reshape(2, n, channels)
    grad_user = grad_anchor_map.reshape(-1, channels)
    grads["branch_user.weight"] = grad_user.T @ fwd.hidden[:n]
    grads["branch_user.bias"] = np.add.reduce(grad_user, axis=0)

    grad_shop = l2_normalize_backward(fwd.shop_norms, grad_shops)
    grads["branch_shop.weight"] = grad_shop.T @ shops.pool.pooled
    grads["branch_shop.bias"] = np.add.reduce(grad_shop, axis=0)
    grad_hidden_pooled = grad_shop @ t["branch_shop.weight"]
    if fwd.shop_bits is not None:
        grad_maps, grad_keys = tag_attend_backward(
            shop_maps,
            fwd.shop_bits,
            shops.keys,
            shops.pool,
            grad_hidden_pooled,
            need_map=not frozen_trunk,
        )
        grads["branch_shop.weight"] += t["tag_attn.embedding"].T @ grad_keys
        grads["tag_attn.embedding"] = grad_keys @ t["branch_shop.weight"].T
    elif not frozen_trunk:
        grad_maps = shops.pool.weights[..., None] * grad_hidden_pooled[..., None, :]

    if not frozen_trunk:
        # the gradient at each domain's trunk pre-activations
        user_pre = np.where(fwd.hidden[:n] > 0.0, grad_user @ t["branch_user.weight"], 0.0)
        shop_pre = np.where(shop_maps > 0.0, grad_maps, 0.0).reshape(-1, channels)
        grads["trunk.weight"] = user_pre.T @ fwd.rows[:n] + shop_pre.T @ fwd.rows[n:]
        grads["trunk.bias"] = np.add.reduce(user_pre, axis=0) + np.add.reduce(shop_pre, axis=0)
    return fwd.loss, grads


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    """A model and what the checkpoint header records of its training. The
    config must be the params' config, the stage a str, the epoch an integer
    in [0, 2**32) and the seed one in [0, 2**64), as the header's u32 and u64
    hold them; any other value raises a ValueError when constructed."""

    config: ModelConfig
    params: ModelParams
    epoch: int
    seed: int
    stage: str

    def __post_init__(self) -> None:
        # The header is written from the config and the tensors from the params.
        if self.params.config != self.config:
            raise ValueError(
                f"checkpoint config {self.config} differs from its params' config {self.params.config}"
            )
        if not isinstance(self.stage, str):
            raise ValueError(f"checkpoint stage must be a str, got {self.stage!r}")
        # The header holds the epoch as a u32 and the seed as a u64.
        _check_range(self.epoch, "checkpoint epoch", 0, 2**32)
        _check_range(self.seed, "checkpoint seed", 0, 2**64)


def _tensor_frame(name: str, arr: np.ndarray) -> bytes:
    payload = np.ascontiguousarray(arr, dtype="<f8")
    encoded = name.encode("utf-8")
    return b"".join(
        (
            struct.pack("<I", len(encoded)),
            encoded,
            struct.pack("<I", payload.ndim),
            struct.pack(f"<{payload.ndim}I", *payload.shape),
            payload.tobytes(),
        )
    )


def _config_frame(config: ModelConfig) -> bytes:
    return struct.pack("<5I", int(config.variant), *(getattr(config, name) for name in _DIMS))


def params_fingerprint(params: ModelParams) -> bytes:
    """32-byte SHA-256 of the config plus every tensor, framed as in a
    checkpoint.

    Params cannot be written after they are made, so the first call hashes
    them and keeps the digest on ``params`` with each tensor's shape,
    strides and dtype; later calls compare those and read no values. numpy
    still lets a read-only array's shape and dtype be reassigned, which
    reinterprets the same bytes, so a call that finds one reassigned
    hashes again.
    """
    meta = tuple((tensor.shape, tensor.strides, tensor.dtype) for tensor in params.tensors.values())
    kept = params._digest
    if kept is not None and kept[0] == meta:
        return kept[1]
    hasher = hashlib.sha256(_config_frame(params.config))
    for name, tensor in params.tensors.items():
        hasher.update(_tensor_frame(name, tensor))
    digest = hasher.digest()
    object.__setattr__(params, "_digest", (meta, digest))
    return digest


def checkpoint_to_bytes(ckpt: Checkpoint) -> bytes:
    """The checkpoint file's bytes. ``Checkpoint`` has checked every value
    the header holds; this keeps the rules about bytes: the stage name must
    encode as UTF-8 and every tensor must be finite, as the reader requires,
    and a fault raises a ValueError before any byte is made."""
    try:
        stage = ckpt.stage.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"checkpoint stage {ckpt.stage!r} cannot be written as UTF-8") from None
    tensors = list(ckpt.params.named_tensors())
    for name, tensor in tensors:
        if not np.isfinite(tensor).all():
            raise ValueError(f"tensor {name!r} holds NaN or infinite values")
    dims = [getattr(ckpt.config, name) for name in _DIMS]
    parts = [
        _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, ckpt.config.variant, *dims, ckpt.epoch, ckpt.seed),
        struct.pack("<I", len(stage)),
        stage,
        struct.pack("<I", len(tensors)),
    ]
    parts.extend(_tensor_frame(name, arr) for name, arr in tensors)
    return b"".join(parts)


def checkpoint_from_bytes(data: bytes) -> Checkpoint:
    """Parse checkpoint bytes; a fault raises ``CheckpointFormatError``.

    A fault of ``ModelConfig`` is reported at its header field, and one of
    ``ModelParams`` at the tensor's name, or at the end of the file for a
    missing tensor. The params hold copies of the tensors, as every
    ``ModelParams`` does, and share no memory with ``data``.
    """
    reader = Reader(data, CheckpointFormatError)
    magic, version, variant_raw, *dims, epoch, seed = reader.unpack(_HEADER, "header")
    if magic != CHECKPOINT_MAGIC:
        reader.fail(f"bad magic {magic!r}", 0)
    if version != CHECKPOINT_VERSION:
        reader.fail(f"unsupported version {version}", 4)
    try:
        variant = Variant(variant_raw)
    except ValueError:
        reader.fail(f"unknown variant code {variant_raw}", 8)
    try:
        config = ModelConfig(*dims, variant)
    except _KeyedError as exc:
        reader.fail(str(exc), 12 + 4 * _DIMS.index(exc.key))
    stage = reader.text("stage name")
    tensors: dict[str, np.ndarray] = {}
    name_offsets: dict[str, int] = {}
    for _ in range(reader.u32("tensor count")):
        name_offset = reader.pos
        name = reader.text("tensor name")
        if name in tensors:
            reader.fail(f"duplicate tensor {name!r}", name_offset)
        shape = tuple(reader.array("<u4", reader.u32("tensor rank"), "tensor dims").tolist())
        values = reader.array("<f8", math.prod(shape), f"tensor {name!r}", finite=True)
        try:
            tensors[name] = values.reshape(shape)
        except ValueError:
            # numpy refuses more than 64 dims, and a zero dim next to dims
            # whose product overflows, even with the payload size right.
            reader.fail(f"tensor {name!r} has a shape numpy cannot hold: {shape}", name_offset)
        name_offsets[name] = name_offset
    reader.end()
    try:
        params = ModelParams(config, tensors)
    except _KeyedError as exc:
        # A tensor that is missing has no name in the file: it fails at the end.
        reader.fail(str(exc), name_offsets.get(exc.key, reader.pos))
    return Checkpoint(config=config, params=params, epoch=epoch, seed=seed, stage=stage)


def save_checkpoint(path: str | os.PathLike, ckpt: Checkpoint) -> None:
    write_atomic(path, [checkpoint_to_bytes(ckpt)])


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """``checkpoint_from_bytes`` of the file at ``path``."""
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh.read())
