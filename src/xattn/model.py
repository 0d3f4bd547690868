"""Network assembly: shared trunk, per-domain branches, attention heads.

Three variants form a ladder. The base variant pools both domains
uniformly; the tag variant adds tag-conditioned pooling on the shop
side; the context variant additionally attends the query under each
candidate's shop embedding as context.

The trunk and branches are per-location affine+ReLU transforms
(1x1-convolution equivalents); precomputed feature maps can bypass the
trunk via raw_dim == channels with an identity trunk. Feature maps are
plain arrays: L x C for one image, B x L x C for a stack.

Finiteness is checked once, where data enters: ``_features`` (behind
``extract_features``, every ``embed_*`` and ``forward_triple``) rejects
non-finite raw input, ``checkpoint_from_bytes`` rejects NaN/Inf tensors,
the feature-map and index parsers reject NaN/Inf payloads, and
``softmax`` rejects non-finite attention scores. Parameters that overflow
in memory give NaN embeddings, which ``TripleEmbeddings`` (training) and
``retrieval.ShopIndex`` (serving) refuse.

Serving runs the batched forward functions: ``embed_shops`` and
``embed_shops_simple`` embed a B x L x R stack of shop images at once.
A query's scan embedding is ``uniform_embedding`` of its
``extract_features`` map, and ``embed_user_contexts`` attends that map
under K candidate contexts in one pass; ``embed_shop`` is ``embed_shops``
on a batch of one. Training runs the same steps, one triple at a time:
``forward_triple`` embeds the shop pair as the stack [positive, negative]
and, in the context variant, attends the anchor under both as K=2
contexts, so its embeddings equal the serving ones bit for bit. It keeps
the trunk activations and attention results, and ``backward_triple`` calls
it once and walks back over them; the gradient check differences the same
``forward_triple``.

``params_fingerprint`` identifies the parameters an index was built with,
and ``search`` checks it on every query. Tensors change in place (SGD, the
gradient check, callers), so a digest from an earlier call cannot be
trusted on its own. Each ``ModelParams`` keeps its last digest with a
snapshot of exactly the bytes hashed: the config frame and each tensor's
name, shape and float64 payload. A call compares the current config and
tensors with the snapshot, returns the kept digest only when every byte
matches, and re-hashes otherwise. The digest is a function of those bytes
alone, so on a full match it is the digest a fresh hash would give; the
compare is a memcmp that costs a fraction of the SHA-256 it replaces.

Checkpoint file format (little endian): magic ``XATN``, version u32, then
u32 variant, locations, channels, tag count, raw dim and epoch, seed u64,
the stage name, tensor count u32, and per tensor its name, rank u32, that
many u32 dims and the values as float64, row-major. A name is a u32 byte
count, then strict UTF-8. ``fileio`` says how faults are reported. The
tensors must be exactly those of ``_tensor_layout``, in any order: a name
the config has no tensor for, a repeated name or a shape other than the
config's is reported at the tensor's name, a missing tensor at the end of
the file.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .attention import (
    AttentionResult,
    ContextAttentionParams,
    TagAttentionParams,
    TagVector,
    context_attend,
    context_attend_backward,
    tag_attend,
    tag_attend_backward,
)
from .fileio import FormatError, Reader, write_atomic
from .metric import TripleEmbeddings, triplet_loss, triplet_loss_backward
from .numeric import l2_normalize, l2_normalize_backward

CHECKPOINT_MAGIC = b"XATN"
CHECKPOINT_VERSION = 1

# Magic, version, variant, four dimensions, epoch, seed: the first 40 bytes.
_HEADER = struct.Struct("<4s7IQ")

DOMAINS = ("user", "shop")


class Variant(IntEnum):
    """Architecture ladder; each step is a parameter superset of the last."""

    YNET = 0
    TAGYNET = 1
    CTXYNET = 2

    @classmethod
    def parse(cls, name: str) -> "Variant":
        key = name.strip().lower()
        aliases = {
            "ynet": cls.YNET,
            "tag": cls.TAGYNET,
            "tagynet": cls.TAGYNET,
            "ctx": cls.CTXYNET,
            "ctxynet": cls.CTXYNET,
        }
        if key not in aliases:
            raise ValueError(f"unknown variant {name!r}")
        return aliases[key]


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
        for field_name in ("locations", "channels", "tag_count", "raw_dim"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be positive")


@dataclass
class Affine:
    """Per-location affine transform: x -> x @ weight.T + bias."""

    weight: np.ndarray
    bias: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        # The bias goes onto the fresh product in place, the same sums as
        # ``x @ weight.T + bias`` without a second array of that size.
        out = x @ self.weight.T
        out += self.bias
        return out


@dataclass
class ModelParams:
    """All learnable tensors, keyed canonically by ``named_tensors``."""

    config: ModelConfig
    trunk: Affine
    branch_shop: Affine
    branch_user: Affine
    tag_attn: TagAttentionParams | None = None
    ctx_attn: ContextAttentionParams | None = None
    # Read and written by params_fingerprint only.
    _fingerprint: "_HashedBytes | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def named_tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        yield "trunk.weight", self.trunk.weight
        yield "trunk.bias", self.trunk.bias
        yield "branch_shop.weight", self.branch_shop.weight
        yield "branch_shop.bias", self.branch_shop.bias
        yield "branch_user.weight", self.branch_user.weight
        yield "branch_user.bias", self.branch_user.bias
        if self.tag_attn is not None:
            yield "tag_attn.embedding", self.tag_attn.embedding
        if self.ctx_attn is not None:
            yield "ctx_attn.feature_weight", self.ctx_attn.feature_weight
            yield "ctx_attn.context_weight", self.ctx_attn.context_weight

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(arr) for name, arr in self.named_tensors()}

    def copy(self) -> "ModelParams":
        tensors = {name: arr.copy() for name, arr in self.named_tensors()}
        return _params_from_tensors(self.config, tensors)


def _tensor_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], float]]:
    """Canonical (name, shape, init scale) list; scale 0 means zeros."""
    c, r = config.channels, config.raw_dim
    branch_scale = 1.0 / np.sqrt(c)
    layout = [
        ("trunk.weight", (c, r), 1.0 / np.sqrt(r)),
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


def _params_from_tensors(
    config: ModelConfig, tensors: Mapping[str, np.ndarray]
) -> ModelParams:
    """Assemble ``tensors``, which must hold exactly the names and shapes
    of ``_tensor_layout(config)``."""
    t = tensors
    params = ModelParams(
        config=config,
        trunk=Affine(t["trunk.weight"], t["trunk.bias"]),
        branch_shop=Affine(t["branch_shop.weight"], t["branch_shop.bias"]),
        branch_user=Affine(t["branch_user.weight"], t["branch_user.bias"]),
    )
    if config.variant >= Variant.TAGYNET:
        params.tag_attn = TagAttentionParams(embedding=t["tag_attn.embedding"])
    if config.variant >= Variant.CTXYNET:
        params.ctx_attn = ContextAttentionParams(
            feature_weight=t["ctx_attn.feature_weight"],
            context_weight=t["ctx_attn.context_weight"],
        )
    return params


def init_params(
    config: ModelConfig,
    rng: np.random.Generator | int,
    base: ModelParams | None = None,
) -> ModelParams:
    """Seeded uniform [-s, s] initialization of every tensor.

    With ``base``, tensors sharing a name are copied (shapes must match
    exactly; a mismatch raises naming the tensor) and only the remaining
    ones are freshly drawn. Extra tensors in ``base`` are ignored, so a
    larger-variant checkpoint can seed a smaller variant.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    base_tensors = dict(base.named_tensors()) if base is not None else {}
    tensors: dict[str, np.ndarray] = {}
    for name, shape, scale in _tensor_layout(config):
        if name in base_tensors:
            src = base_tensors[name]
            if src.shape != shape:
                raise ValueError(
                    f"checkpoint tensor {name!r} has shape {src.shape}, "
                    f"model expects {shape}"
                )
            tensors[name] = src.astype(np.float64, copy=True)
        elif scale == 0.0:
            tensors[name] = np.zeros(shape, dtype=np.float64)
        else:
            tensors[name] = rng.uniform(-scale, scale, size=shape)
    return _params_from_tensors(config, tensors)


# ---------------------------------------------------------------------------
# forward paths
# ---------------------------------------------------------------------------


class _Features(NamedTuple):
    """One trunk + branch pass, with the activations its backward reads."""

    rows: np.ndarray  # (N*L) x R input rows of the N maps
    hidden: np.ndarray  # (N*L) x C trunk outputs after the ReLU
    fmap: np.ndarray  # L x C map, or B x L x C stack


def _features(raw: np.ndarray, domain: str, params: ModelParams) -> _Features:
    if domain not in DOMAINS:
        raise ValueError(f"domain must be one of {DOMAINS}, got {domain!r}")
    data = np.asarray(raw, dtype=np.float64)
    cfg = params.config
    if data.ndim not in (2, 3) or data.shape[-2:] != (cfg.locations, cfg.raw_dim):
        raise ValueError(
            f"raw features must be {cfg.locations} x {cfg.raw_dim} "
            f"(or a stack of such), got {data.shape}"
        )
    if not np.isfinite(data).all():
        raise ValueError("raw features must be finite")
    rows = data.reshape(-1, cfg.raw_dim)
    hidden = params.trunk.apply(rows)
    np.maximum(hidden, 0.0, out=hidden)
    branch = params.branch_user if domain == "user" else params.branch_shop
    features = branch.apply(hidden).reshape(*data.shape[:-1], cfg.channels)
    return _Features(rows=rows, hidden=hidden, fmap=features)


def extract_features(
    raw: np.ndarray, domain: str, params: ModelParams
) -> np.ndarray:
    """Trunk + domain branch, applied per location: branch(relu(trunk(x))).

    ``raw`` is one L x R map or a B x L x R stack; a stack runs as one
    (B*L) x R matrix product per layer and gives a B x L x C feature map.
    """
    return _features(raw, domain, params).fmap


def uniform_embedding(fmap: np.ndarray) -> np.ndarray:
    """Unit-norm uniform pooling of a feature map (one row per map of a stack)."""
    return l2_normalize(fmap.mean(axis=-2))


def embed_shops(raws: np.ndarray, tags: TagVector, params: ModelParams) -> np.ndarray:
    """Unit-norm B x C shop embeddings of a B x L x R stack, each pooled
    under its own row of the B x T tag matrix ``tags``."""
    if params.config.variant < Variant.TAGYNET:
        raise UnsupportedVariantError(
            "shop tag attention needs the tag head; this model does not have one"
        )
    assert params.tag_attn is not None
    fmaps = extract_features(raws, "shop", params)
    return l2_normalize(tag_attend(fmaps, tags, params.tag_attn).pooled)


def embed_shops_simple(raws: np.ndarray, params: ModelParams) -> np.ndarray:
    """Unit-norm B x C shop embeddings of a B x L x R stack via uniform
    pooling (base-variant path)."""
    return uniform_embedding(extract_features(raws, "shop", params))


def embed_user_contexts(
    fmap: np.ndarray, contexts: np.ndarray, params: ModelParams
) -> np.ndarray:
    """Unit-norm K x C query embeddings: the query feature map attended
    with each row of a K x C stack of (normalized) shop embeddings as
    context."""
    if params.config.variant < Variant.CTXYNET:
        raise UnsupportedVariantError(
            "context attention needs the context head; this model does not have one"
        )
    assert params.ctx_attn is not None
    return l2_normalize(context_attend(fmap, contexts, params.ctx_attn).pooled)


def embed_shop(raw: np.ndarray, tags: TagVector, params: ModelParams) -> np.ndarray:
    """Unit-norm shop embedding via tag-conditioned pooling."""
    raws = np.asarray(raw, dtype=np.float64)[None]
    return embed_shops(raws, TagVector(bits=tags.bits[None]), params)[0]


def _uniform_pool(fmap: np.ndarray) -> AttentionResult:
    """Uniform pooling as attention with constant weights 1/L; the pooled
    rows are the location mean, as ``uniform_embedding`` takes it."""
    weights = np.full(fmap.shape[:-1], 1.0 / fmap.shape[-2])
    return AttentionResult(weights=weights, pooled=fmap.mean(axis=-2))


class TripleForward(NamedTuple):
    """Loss and the four embeddings of one triple, with the intermediates
    ``backward_triple`` walks back over."""

    loss: float
    embeddings: TripleEmbeddings
    anchor: _Features
    shops: _Features  # the stack [positive, negative]
    shop_tags: TagVector | None  # 2 x T; None when the shops pool uniformly
    shop_pool: AttentionResult  # 2 x L weights, 2 x C pooled rows
    anchor_pool: AttentionResult  # K=2 under the shop contexts, else uniform


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

    The shop side is the stack [positive, negative] run through the steps
    of ``embed_shops`` (``embed_shops_simple`` for the base variant). The
    context variant attends the anchor under both shop embeddings at once,
    as ``embed_user_contexts`` does; the other variants reuse one uniformly
    pooled anchor embedding, ``uniform_embedding(extract_features(anchor_raw,
    "user", params))``, for both sides. So the embeddings equal their
    serving forms bit for bit.
    """
    variant = params.config.variant
    anchor = _features(anchor_raw, "user", params)
    shops = _features(np.stack([positive_raw, negative_raw]), "shop", params)
    shop_tags = None
    if variant >= Variant.TAGYNET:
        if positive_tags is None or negative_tags is None:
            raise ValueError("tag vectors required for the tag-attention variant")
        assert params.tag_attn is not None
        shop_tags = TagVector(bits=np.stack([positive_tags.bits, negative_tags.bits]))
        shop_pool = tag_attend(shops.fmap, shop_tags, params.tag_attn)
    else:
        shop_pool = _uniform_pool(shops.fmap)
    shop_rows = l2_normalize(shop_pool.pooled)
    positive, negative = shop_rows

    if variant >= Variant.CTXYNET:
        assert params.ctx_attn is not None
        anchor_pool = context_attend(anchor.fmap, shop_rows, params.ctx_attn)
        anchor_pos, anchor_neg = l2_normalize(anchor_pool.pooled)
    else:
        anchor_pool = _uniform_pool(anchor.fmap)
        anchor_pos = anchor_neg = l2_normalize(anchor_pool.pooled)
    embeddings = TripleEmbeddings(
        anchor_pos=anchor_pos, anchor_neg=anchor_neg, positive=positive, negative=negative
    )
    return TripleForward(
        loss=triplet_loss(embeddings, alpha),
        embeddings=embeddings,
        anchor=anchor,
        shops=shops,
        shop_tags=shop_tags,
        shop_pool=shop_pool,
        anchor_pool=anchor_pool,
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
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus analytic gradients for every tensor in ``params``.

    Runs ``forward_triple`` once and walks back over what it saved. Shop
    embeddings receive gradient along two routes in the context variant:
    directly from the loss and through the context-attention alignment of
    the anchor.
    """
    fwd = forward_triple(
        anchor_raw, positive_raw, negative_raw, positive_tags, negative_tags, params, alpha
    )
    grads = params.zero_grads()
    if fwd.loss == 0.0:
        return 0.0, grads
    e = fwd.embeddings
    eg = triplet_loss_backward(e, alpha)

    grad_shops = np.stack([eg.positive, eg.negative])
    if params.config.variant >= Variant.CTXYNET:
        assert params.ctx_attn is not None
        grad_pooled = l2_normalize_backward(
            fwd.anchor_pool.pooled, np.stack([eg.anchor_pos, eg.anchor_neg])
        )
        grad_anchor_map, grad_contexts, grad_feature_weight, grad_context_weight = (
            context_attend_backward(
                fwd.anchor.fmap,
                np.stack([e.positive, e.negative]),
                params.ctx_attn,
                fwd.anchor_pool,
                grad_pooled,
            )
        )
        grads["ctx_attn.feature_weight"] = grad_feature_weight
        grads["ctx_attn.context_weight"] = grad_context_weight
        # context route back into the shop embeddings
        grad_shops += grad_contexts
    else:
        grad_pooled = l2_normalize_backward(fwd.anchor_pool.pooled, eg.anchor_pos + eg.anchor_neg)
        grad_anchor_map = fwd.anchor_pool.weights[..., None] * grad_pooled[..., None, :]

    grad_pooled = l2_normalize_backward(fwd.shop_pool.pooled, grad_shops)
    if fwd.shop_tags is not None:
        assert params.tag_attn is not None
        grad_shop_map, grads["tag_attn.embedding"] = tag_attend_backward(
            fwd.shops.fmap, fwd.shop_tags, params.tag_attn, fwd.shop_pool, grad_pooled
        )
    else:
        grad_shop_map = fwd.shop_pool.weights[..., None] * grad_pooled[..., None, :]

    for features, grad_map, branch_name in (
        (fwd.anchor, grad_anchor_map, "branch_user"),
        (fwd.shops, grad_shop_map, "branch_shop"),
    ):
        branch = getattr(params, branch_name)
        grad_out = grad_map.reshape(-1, params.config.channels)
        grads[branch_name + ".weight"] = grad_out.T @ features.hidden
        grads[branch_name + ".bias"] = grad_out.sum(axis=0)
        grad_pre = np.where(features.hidden > 0.0, grad_out @ branch.weight, 0.0)
        grads["trunk.weight"] += grad_pre.T @ features.rows
        grads["trunk.bias"] += grad_pre.sum(axis=0)
    return fwd.loss, grads


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    config: ModelConfig
    params: ModelParams
    epoch: int
    seed: int
    stage: str


def _tensor_header(name: str, shape: tuple[int, ...]) -> bytes:
    encoded = name.encode("utf-8")
    return b"".join(
        (
            struct.pack("<I", len(encoded)),
            encoded,
            struct.pack("<I", len(shape)),
            struct.pack(f"<{len(shape)}I", *shape),
        )
    )


def _tensor_frame(name: str, arr: np.ndarray) -> bytes:
    payload = np.ascontiguousarray(arr, dtype="<f8")
    return _tensor_header(name, payload.shape) + payload.tobytes()


def _config_frame(config: ModelConfig) -> bytes:
    return struct.pack(
        "<5I",
        int(config.variant),
        config.locations,
        config.channels,
        config.tag_count,
        config.raw_dim,
    )


class _HashedBytes(NamedTuple):
    """What ``params_fingerprint`` last hashed for one ``ModelParams``: the
    config frame and each tensor's name, shape and float64 payload bytes,
    with the digest of them."""

    config_frame: bytes
    tensors: tuple[tuple[str, tuple[int, ...], bytearray], ...]
    digest: bytes


def params_fingerprint(params: ModelParams) -> bytes:
    """32-byte SHA-256 of the config plus every tensor, framed as in a
    checkpoint.

    ``params`` keeps the last digest with a copy of the bytes it was
    computed from: the config frame and each tensor's name, shape and
    little-endian float64 payload. The digest is returned from there only
    when the current config and tensors equal that copy byte for byte, so
    in-place writes (a sign flip of a zero or a NaN's payload bits
    included), a rebound head and a replaced config all lead to a fresh
    hash. The compare reads each tensor once, in place, and costs a
    fraction of hashing it.
    """
    config_frame = _config_frame(params.config)
    payloads = [
        (name, np.ascontiguousarray(arr, dtype="<f8")) for name, arr in params.named_tensors()
    ]
    kept = params._fingerprint
    if (
        kept is not None
        and kept.config_frame == config_frame
        and len(kept.tensors) == len(payloads)
        # bytearray == array is a memcmp of the two buffers; the array is
        # not copied.
        and all(
            name == kept_name and payload.shape == kept_shape and kept_bytes == payload
            for (name, payload), (kept_name, kept_shape, kept_bytes) in zip(payloads, kept.tensors)
        )
    ):
        return kept.digest
    # Hash the copies rather than the live tensors, so the digest kept is
    # the digest of the bytes kept even if a tensor changes meanwhile.
    tensors = tuple((name, payload.shape, bytearray(payload)) for name, payload in payloads)
    hasher = hashlib.sha256(config_frame)
    for name, shape, data in tensors:
        hasher.update(_tensor_header(name, shape))
        hasher.update(data)
    digest = hasher.digest()
    params._fingerprint = _HashedBytes(config_frame, tensors, digest)
    return digest


def checkpoint_to_bytes(ckpt: Checkpoint) -> bytes:
    stage = ckpt.stage.encode("utf-8")
    tensors = list(ckpt.params.named_tensors())
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        _config_frame(ckpt.config),
        struct.pack("<I", ckpt.epoch),
        struct.pack("<Q", ckpt.seed),
        struct.pack("<I", len(stage)),
        stage,
        struct.pack("<I", len(tensors)),
    ]
    parts.extend(_tensor_frame(name, arr) for name, arr in tensors)
    return b"".join(parts)


def checkpoint_from_bytes(data: bytes) -> Checkpoint:
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
    for i, field_name in enumerate(("locations", "channels", "tag_count", "raw_dim")):
        if dims[i] < 1:
            reader.fail(f"{field_name} must be positive", 12 + 4 * i)
    config = ModelConfig(*dims, variant)
    layout = {name: shape for name, shape, _ in _tensor_layout(config)}
    stage = reader.text("stage name")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(reader.u32("tensor count")):
        name_offset = reader.pos
        name = reader.text("tensor name")
        if name not in layout:
            # A base-variant file that also carried a tag head would load
            # and drop the head, so it could not be saved back byte for byte.
            reader.fail(f"unexpected tensor {name!r}", name_offset)
        if name in tensors:
            reader.fail(f"duplicate tensor {name!r}", name_offset)
        shape = tuple(reader.array("<u4", reader.u32("tensor rank"), "tensor dims").tolist())
        values = reader.array("<f8", math.prod(shape), f"tensor {name!r}", finite=True)
        try:
            tensors[name] = values.reshape(shape).copy()
        except ValueError:
            # numpy refuses more than 64 dims, and a zero dim next to dims
            # whose product overflows, even with the payload size right.
            reader.fail(f"tensor {name!r} has a shape numpy cannot hold: {shape}", name_offset)
        if shape != layout[name]:
            reader.fail(f"tensor {name!r} has shape {shape}, expected {layout[name]}", name_offset)
    reader.end()
    missing = [name for name in layout if name not in tensors]
    if missing:
        reader.fail(f"missing tensor {missing[0]!r}", reader.pos)
    params = _params_from_tensors(config, tensors)
    return Checkpoint(config=config, params=params, epoch=epoch, seed=seed, stage=stage)


def save_checkpoint(path: str | os.PathLike, ckpt: Checkpoint) -> None:
    write_atomic(path, [checkpoint_to_bytes(ckpt)])


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    with open(path, "rb") as fh:
        return checkpoint_from_bytes(fh.read())
