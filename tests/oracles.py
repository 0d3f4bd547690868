"""Naive reference implementations used as independent test oracles.

Everything here is deliberately written with plain Python loops and
``math.exp`` so it shares no code path with the library. Keep it slow
and obvious. The exceptions are references for a numpy form the library
replaced, such as ``out_of_place_features`` or ``reference_train_stage``,
which must agree with it bit for bit; these may call the library's other
steps. The ``reference_load_*`` TSV parsers are the library's former
per-table loops, kept to pin every loaded value and error message.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from xattn.attention import context_attend_backward, tag_attend_backward
from xattn.dataio import TAGS_NAME, Manifest, ManifestError, ManifestRecord
from xattn.model import DOMAINS, Checkpoint, ModelConfig, ModelParams, Variant, forward_triple, init_params

# The tensors a stage after the first does not train.
FROZEN_TRUNK = ("trunk.weight", "trunk.bias")


def naive_softmax(scores) -> list[float]:
    # Shifted by the largest score, as math.exp overflows above 709.78.
    top = max(float(s) for s in scores)
    exps = [math.exp(float(s) - top) for s in scores]
    total = sum(exps)
    return [e / total for e in exps]


def naive_tag_embed(bits, embedding) -> list[float]:
    tag_count = len(bits)
    channels = len(embedding[0])
    out = [0.0] * channels
    for t in range(tag_count):
        if bits[t]:
            for c in range(channels):
                out[c] += float(embedding[t][c])
    return out


def naive_tag_attend(features, bits, embedding) -> tuple[list[float], list[float]]:
    """Double-loop tag attention: scores, softmax, weighted sum."""
    embedded = naive_tag_embed(bits, embedding)
    locations = len(features)
    channels = len(features[0])
    scores = []
    for l in range(locations):
        s = 0.0
        for c in range(channels):
            s += float(features[l][c]) * embedded[c]
        scores.append(s)
    weights = naive_softmax(scores)
    pooled = [0.0] * channels
    for l in range(locations):
        for c in range(channels):
            pooled[c] += weights[l] * float(features[l][c])
    return weights, pooled


def naive_context_attend(
    features, context, feature_weight, context_weight
) -> tuple[list[float], list[float]]:
    """Double-loop context attention with the linear alignment."""
    locations = len(features)
    channels = len(features[0])
    scores = []
    for l in range(locations):
        s = 0.0
        for c in range(channels):
            s += float(feature_weight[c]) * float(features[l][c])
            s += float(context_weight[l][c]) * float(context[c])
        scores.append(s)
    weights = naive_softmax(scores)
    pooled = [0.0] * channels
    for l in range(locations):
        for c in range(channels):
            pooled[c] += weights[l] * float(features[l][c])
    return weights, pooled


def naive_affine_relu_affine(raw, trunk_w, trunk_b, branch_w, branch_b) -> list[list[float]]:
    """Per-location loop oracle for the trunk+branch feature extractor."""
    locations = len(raw)
    raw_dim = len(raw[0])
    channels = len(trunk_w)
    out = []
    for l in range(locations):
        hidden = []
        for c in range(channels):
            z = float(trunk_b[c])
            for k in range(raw_dim):
                z += float(trunk_w[c][k]) * float(raw[l][k])
            hidden.append(max(z, 0.0))
        row = []
        for c in range(channels):
            f = float(branch_b[c])
            for k in range(channels):
                f += float(branch_w[c][k]) * hidden[k]
            row.append(f)
        out.append(row)
    return out


def out_of_place_features(raw, tensors, domain):
    """The trunk + ``domain`` branch pass in numpy, reading ``tensors`` (a
    ``ModelParams.tensors`` dict), with a fresh array at each step, as
    ``x @ weight.T + bias`` and ``np.maximum(h, 0.0)`` write it; the model
    adds the bias and applies the ReLU in place, which must give the same
    bits. Returns the (N*L) x R input rows, the (N*L) x C hidden rows and
    the map shaped like ``raw`` with C channels."""
    raw = np.asarray(raw, dtype=np.float64)
    rows = raw.reshape(-1, raw.shape[-1])
    t = tensors
    hidden = np.maximum(rows @ t["trunk.weight"].T + t["trunk.bias"], 0.0)
    branch_w, branch_b = t[f"branch_{domain}.weight"], t[f"branch_{domain}.bias"]
    fmap = (hidden @ branch_w.T + branch_b).reshape(*raw.shape[:-1], -1)
    return rows, hidden, fmap


def naive_l2_normalize(vec) -> list[float]:
    norm = math.sqrt(sum(float(x) * float(x) for x in vec))
    if norm < 1e-12:
        norm = 1e-12
    return [float(x) / norm for x in vec]


def naive_rank(entries, query_embedding, k) -> list[tuple[int, float]]:
    """Exhaustive squared-distance ranking, ties by ascending item id."""
    scored = []
    for item_id, emb in entries:
        d = 0.0
        for a, b in zip(query_embedding, emb):
            d += (float(a) - float(b)) ** 2
        scored.append((item_id, d))
    scored.sort(key=lambda pair: (pair[1], pair[0]))
    return scored[: min(k, len(scored))]


def naive_shop_embedding(raw, bits, params) -> list[float]:
    """Shop embedding of one image: tag attention when the model has a tag
    head, uniform pooling otherwise."""
    t = params.tensors
    features = naive_affine_relu_affine(
        raw, t["trunk.weight"], t["trunk.bias"], t["branch_shop.weight"], t["branch_shop.bias"]
    )
    if "tag_attn.embedding" in t:
        _, pooled = naive_tag_attend(features, bits, t["tag_attn.embedding"])
    else:
        pooled = [sum(row[c] for row in features) / len(features) for c in range(len(features[0]))]
    return naive_l2_normalize(pooled)


def naive_user_embedding(raw, params) -> list[float]:
    """Uniform-pooled query embedding of one image."""
    t = params.tensors
    features = naive_affine_relu_affine(
        raw, t["trunk.weight"], t["trunk.bias"], t["branch_user.weight"], t["branch_user.bias"]
    )
    pooled = [sum(row[c] for row in features) / len(features) for c in range(len(features[0]))]
    return naive_l2_normalize(pooled)


def per_candidate_rerank(query_raw, candidate_ids, shop_embedding_of, params) -> list[tuple[int, float]]:
    """The context re-rank one candidate at a time: embed the query with
    the candidate's shop embedding as context, take the squared distance
    to that embedding, then sort by (distance, item id)."""
    t = params.tensors
    scored = []
    for item_id in candidate_ids:
        context = shop_embedding_of[item_id]
        features = naive_affine_relu_affine(
            query_raw,
            t["trunk.weight"],
            t["trunk.bias"],
            t["branch_user.weight"],
            t["branch_user.bias"],
        )
        _, pooled = naive_context_attend(
            features, context, t["ctx_attn.feature_weight"], t["ctx_attn.context_weight"]
        )
        contextual = naive_l2_normalize(pooled)
        d = 0.0
        for a, b in zip(contextual, context):
            d += (a - float(b)) ** 2
        scored.append((item_id, d))
    scored.sort(key=lambda pair: (pair[1], pair[0]))
    return scored


def per_entry_index_bytes(fingerprint, entries) -> bytes:
    """XIDX v1 file bytes, written one entry at a time with ``struct``.

    ``entries`` holds (item id, product id, tag bits, embedding) tuples in
    the order they are to be stored.
    """
    parts = [b"XIDX", struct.pack("<I", 1), fingerprint, struct.pack("<Q", len(entries))]
    for item_id, product_id, bits, embedding in entries:
        parts.append(struct.pack("<QQ", item_id, product_id))
        parts.append(np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes())
        parts.append(b"".join(struct.pack("<d", float(x)) for x in embedding))
    return b"".join(parts)


def reference_fingerprint(params) -> bytes:
    """SHA-256 over the config and every tensor, hashed afresh on each call:
    the config as five u32 (variant, L, C, T, R), then per tensor its
    u32-length-prefixed UTF-8 name, u32 rank, u32 dims and float64 payload,
    all little endian."""
    cfg = params.config
    digest = hashlib.sha256(
        struct.pack(
            "<5I", int(cfg.variant), cfg.locations, cfg.channels, cfg.tag_count, cfg.raw_dim
        )
    )
    for name, arr in params.named_tensors():
        payload = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        digest.update(struct.pack("<I", len(encoded)) + encoded)
        digest.update(struct.pack(f"<I{payload.ndim}I", payload.ndim, *payload.shape))
        digest.update(payload.tobytes())
    return digest.digest()


def naive_precision_at_k(ranked_ids_per_query, product_of_item, truth, k) -> float:
    hits = 0
    total = 0
    for query_id, ranked_ids in ranked_ids_per_query.items():
        if query_id not in truth:
            continue
        total += 1
        wanted = truth[query_id]
        if any(product_of_item[i] == wanted for i in ranked_ids[:k]):
            hits += 1
    return hits / total


def as_arrays(*seqs):
    return tuple(np.asarray(s, dtype=np.float64) for s in seqs)


def reference_sample_triples(dataset, count, rng) -> list[tuple[int, int, int]]:
    """The triple sampler that built every product's list of negatives on
    each call: same draws from ``rng``, as (anchor, positive, negative)."""
    shop_by_product = {}
    all_shops = []
    for record in dataset.shop_records():
        shop_by_product.setdefault(record.product_id, []).append(record.item_id)
        all_shops.append((record.item_id, record.product_id))
    anchors = [r for r in dataset.user_records() if r.product_id in shop_by_product]
    negatives_by_product = {
        product: [item for item, p in all_shops if p != product] for product in shop_by_product
    }
    triples = []
    for _ in range(count):
        anchor = anchors[int(rng.integers(len(anchors)))]
        positives = shop_by_product[anchor.product_id]
        negatives = negatives_by_product[anchor.product_id]
        positive = positives[int(rng.integers(len(positives)))]
        negative = negatives[int(rng.integers(len(negatives)))]
        triples.append((anchor.item_id, positive, negative))
    return triples


def _row_norms(x):
    """The norm of each row of a vector or stack, as ``np.linalg.norm``
    takes it of that row alone (the square root of the row's dot with
    itself), kept as a trailing axis of 1."""
    rows = np.atleast_2d(x)
    return np.array([[np.linalg.norm(row)] for row in rows]).reshape(*x.shape[:-1], 1)


def linalg_l2_normalize(v, eps=1e-12):
    """``l2_normalize`` with each row's norm taken by ``np.linalg.norm`` of
    that row alone: the library must give these bits wherever no squared
    norm overflows."""
    x = np.asarray(v, dtype=np.float64)
    return x / np.maximum(_row_norms(x), eps)


def linalg_l2_normalize_backward(v, grad_output, eps=1e-12):
    """``l2_normalize_backward`` with each row's norm taken by
    ``np.linalg.norm`` of that row alone, and ``np.where``."""
    x = np.asarray(v, dtype=np.float64)
    g = np.asarray(grad_output, dtype=np.float64)
    norm = _row_norms(x)
    scale = np.maximum(norm, eps)
    y = x / scale
    along = np.where(norm < eps, 0.0, np.sum(g * y, axis=-1, keepdims=True))
    return (g - along * y) / scale


def reference_l2_normalize_backward(v, grad_output, eps=1e-12):
    """``l2_normalize_backward`` as it was before it reused the forward's
    norms: every call takes each row's norm as ``ndarray.dot`` of that row
    alone (a vector's too) and divides by it again. The library must give
    these bits on every input, a row whose squared norm overflows included,
    which gets a zero gradient."""
    x = np.asarray(v, dtype=np.float64)
    g = np.asarray(grad_output, dtype=np.float64)
    rows = np.atleast_2d(x)
    norm = np.sqrt([[row.dot(row)] for row in rows]).reshape(*x.shape[:-1], 1)
    scale = np.maximum(norm, eps)
    y = x / scale
    along = np.add.reduce(g * y, axis=-1, keepdims=True)
    along[norm < eps] = 0.0
    return (g - along * y) / scale


def reference_full_backward_triple(
    anchor_raw, positive_raw, negative_raw, positive_tags, negative_tags, params, alpha,
    *, frozen_trunk=False,
):
    """``backward_triple`` as it was before its per-call costs were cut: a
    zero dict of every tensor that each gradient overwrites or adds into,
    the loss gradient taken per vector, pairs joined with ``np.stack``,
    and every norm taken again from the pooled rows. It walks back over the
    intermediates ``forward_triple`` keeps, the shop side as one pass: the
    branch on the pooled hidden rows, tag attention under the keys
    ``E @ W_shop``. The base and tag variants' anchor is one pooled 1 x C
    row, which receives the gradient of both anchor rows. Returns the loss
    and the full dict, zeros included."""
    fwd = forward_triple(
        anchor_raw, positive_raw, negative_raw, positive_tags, negative_tags, params, alpha
    )
    t = params.tensors
    grads = {name: np.zeros_like(arr) for name, arr in params.tensors.items()}
    if fwd.loss == 0.0:
        return 0.0, grads
    (anchor_pos, anchor_neg), (positive, negative) = fwd.anchor_rows, fwd.shop_rows
    pos_pull = 2.0 * (anchor_pos - positive)
    neg_push = 2.0 * (anchor_neg - negative)
    grad_shops = np.stack([-pos_pull, neg_push])
    if params.config.variant >= Variant.CTXYNET:
        grad_pooled = reference_l2_normalize_backward(
            fwd.anchor_pool.pooled, np.stack([pos_pull, -neg_push])
        )
        grad_anchor_map, grad_contexts, grad_fw, grad_cw = context_attend_backward(
            fwd.anchor.fmap,
            np.stack([positive, negative]),
            t["ctx_attn.feature_weight"],
            t["ctx_attn.context_weight"],
            fwd.anchor_pool,
            grad_pooled,
        )
        grads["ctx_attn.feature_weight"] = grad_fw
        grads["ctx_attn.context_weight"] = grad_cw
        grad_shops += grad_contexts
    else:
        grad_pooled = reference_l2_normalize_backward(fwd.anchor_pool.pooled, [pos_pull - neg_push])
        grad_anchor_map = fwd.anchor_pool.weights[..., None] * grad_pooled[..., None, :]
    anchor, shops = fwd.anchor, fwd.shops
    grad_user = grad_anchor_map.reshape(-1, params.config.channels)
    grads["branch_user.weight"] = grad_user.T @ anchor.hidden
    grads["branch_user.bias"] = grad_user.sum(axis=0)
    # The shop branch ran once, on the pooled hidden rows.
    grad_shop = reference_l2_normalize_backward(shops.pooled, grad_shops)
    grads["branch_shop.weight"] = grad_shop.T @ shops.pool.pooled
    grads["branch_shop.bias"] = grad_shop.sum(axis=0)
    grad_hidden_pooled = grad_shop @ t["branch_shop.weight"]
    if fwd.shop_bits is not None:
        # The hidden maps were pooled under the keys E @ W_shop.
        grad_maps, grad_keys = tag_attend_backward(
            shops.hidden, fwd.shop_bits, shops.keys, shops.pool, grad_hidden_pooled
        )
        grads["branch_shop.weight"] += t["tag_attn.embedding"].T @ grad_keys
        grads["tag_attn.embedding"] = grad_keys @ t["branch_shop.weight"].T
    else:
        grad_maps = shops.pool.weights[..., None] * grad_hidden_pooled[..., None, :]
    if frozen_trunk:
        return fwd.loss, grads
    for features, grad_pre in (
        (anchor, np.where(anchor.hidden > 0.0, grad_user @ t["branch_user.weight"], 0.0)),
        (shops, np.where(shops.hidden > 0.0, grad_maps, 0.0).reshape(-1, params.config.channels)),
    ):
        grads["trunk.weight"] += grad_pre.T @ features.rows
        grads["trunk.bias"] += grad_pre.sum(axis=0)
    return fwd.loss, grads


def reference_backward_triple(*args, frozen_trunk=False):
    """``reference_full_backward_triple`` cut to what a step applies, as
    ``backward_triple`` returns it: no entries at zero loss, and no trunk
    entries with ``frozen_trunk``. The library's gradients must have
    these bits."""
    loss, grads = reference_full_backward_triple(*args, frozen_trunk=frozen_trunk)
    if loss == 0.0:
        return 0.0, {}
    if frozen_trunk:
        for name in FROZEN_TRUNK:
            del grads[name]
    return loss, grads


def reference_train_stage(stage, dataset, cfg, model_cfg=None, init=None):
    """``train_stage``'s loop before its minibatch sum skipped anything:
    every triple's full gradient dict, zero-loss triples and a frozen
    trunk's zeros included, is added in, with
    ``reference_full_backward_triple`` computing each; only the step leaves
    a frozen trunk out. It samples item ids with
    ``reference_sample_triples`` and looks up each map and tag vector by
    id. The step is its own momentum update of plain writable float64
    arrays, v <- m v - lr g and p <- p + v, not ``training.sgd_step``; the
    forward reads them through an object holding just the config and the
    arrays, and a ``ModelParams`` is built only for the checkpoint. Returns
    the checkpoint, the loss curve and, per minibatch, how many of its
    triples had zero loss."""
    variant = Variant.parse(stage)
    base_cfg = init.config if init is not None else model_cfg
    config = ModelConfig(
        base_cfg.locations, base_cfg.channels, base_cfg.tag_count, base_cfg.raw_dim, variant
    )
    initial = init_params(
        config,
        np.random.default_rng([cfg.seed, int(variant), 0]),
        base=init.params if init is not None else None,
    )
    tensors = {name: np.array(arr) for name, arr in initial.tensors.items()}
    params = SimpleNamespace(config=config, tensors=tensors)
    sample_rng = np.random.default_rng([cfg.seed, int(variant), 1])
    frozen_trunk = int(variant) > 0
    records = {r.item_id: r for r in dataset.manifest.records}
    velocity = {}
    curve = []
    zero_losses = []
    for _ in range(cfg.epochs[stage]):
        triples = reference_sample_triples(dataset, len(dataset.user_records()), sample_rng)
        epoch_loss = 0.0
        for start in range(0, len(triples), cfg.batch_size):
            batch = triples[start : start + cfg.batch_size]
            grads_sum = None
            batch_loss = 0.0
            zero_losses.append(0)
            for anchor, positive, negative in batch:
                loss, grads = reference_full_backward_triple(
                    dataset.features[anchor],
                    dataset.features[positive],
                    dataset.features[negative],
                    dataset.tag_vector(records[positive]),
                    dataset.tag_vector(records[negative]),
                    params,
                    cfg.margins[stage],
                    frozen_trunk=frozen_trunk,
                )
                zero_losses[-1] += loss == 0.0
                batch_loss += loss
                if grads_sum is None:
                    grads_sum = grads
                else:
                    for name in grads_sum:
                        grads_sum[name] += grads[name]
            for name in grads_sum:
                grads_sum[name] *= 1.0 / len(batch)
            if frozen_trunk:
                for name in FROZEN_TRUNK:
                    del grads_sum[name]
            for name, grad in grads_sum.items():
                v = velocity.get(name, np.zeros_like(grad))
                velocity[name] = cfg.momentum * v - cfg.base_lr * grad
                tensors[name] += velocity[name]
            epoch_loss += batch_loss
        curve.append(epoch_loss / len(triples))
    checkpoint = Checkpoint(
        config=config,
        params=ModelParams(config, tensors),
        epoch=cfg.epochs[stage],
        seed=cfg.seed,
        stage=stage,
    )
    return checkpoint, curve, zero_losses


# The TSV parsers as they were before they shared one row reader, each with
# its own loop over the lines: the fuzz tests require the same loaded value,
# or the same ManifestError message, for every damaged file.


def reference_read_lines(path: Path, what: str) -> list[str]:
    """The lines of a UTF-8 text file, split at each line feed and without
    trailing carriage returns; a missing file or a byte that is not UTF-8
    is a ``ManifestError`` naming the file (and the line)."""
    if not path.is_file():
        raise ManifestError(f"{what} not found or not a file: {path}")
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ManifestError(f"{path.name} line {lineno}: not valid UTF-8") from None
    lines = [line.rstrip("\r") for line in text.split("\n")]
    if not lines[-1]:
        lines.pop()  # the text is empty or ends its last line
    return lines


def reference_is_blank(line: str) -> bool:
    """A blank line is empty or holds only spaces and tabs; the TSV readers
    skip it. Other whitespace, such as U+2028 or U+0085, which
    ``str.strip`` would also remove, makes a record line like any text."""
    return not line.strip(" \t")


def reference_load_tag_vocab(path: Path) -> tuple[str, ...]:
    names: dict[int, str] = {}
    lines = reference_read_lines(path, "tag vocabulary")
    for lineno, line in enumerate(lines, start=1):
        if reference_is_blank(line):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ManifestError(f"{path.name} line {lineno}: expected 2 fields, got {len(parts)}")
        try:
            tag_id = int(parts[0])
        except ValueError:
            raise ManifestError(f"{path.name} line {lineno}: bad tag id {parts[0]!r}") from None
        if tag_id in names:
            raise ManifestError(f"{path.name} line {lineno}: duplicate tag id {tag_id}")
        names[tag_id] = parts[1]
    if not names:
        raise ManifestError(f"{path.name}: no tags")
    if sorted(names) != list(range(len(names))):
        raise ManifestError(f"{path.name}: tag ids must be contiguous from 0")
    return tuple(names[i] for i in range(len(names)))


def reference_load_manifest(path: "Path | str") -> Manifest:
    """Parse and validate a manifest; the vocabulary is read from the
    sibling ``tags.tsv``. Every error names the offending line.

    Feature files are not opened here, so a manifest naming a missing file
    parses; ``load_dataset`` reports the file when it fails to open it.
    """
    path = Path(path)
    lines = reference_read_lines(path, "manifest")
    root = path.parent
    tag_names = reference_load_tag_vocab(root / TAGS_NAME)
    tag_count = len(tag_names)

    records: list[ManifestRecord] = []
    seen_ids: set[int] = set()
    for lineno, line in enumerate(lines, start=1):
        if reference_is_blank(line):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ManifestError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        raw_id, domain, raw_product, rel_path, raw_tags = parts
        try:
            item_id = int(raw_id)
            product_id = int(raw_product)
        except ValueError:
            raise ManifestError(f"line {lineno}: ids must be integers") from None
        # An index holds ids as int64 and stores them as u64.
        if not (0 <= item_id < 2**63 and 0 <= product_id < 2**63):
            bad = product_id if 0 <= item_id < 2**63 else item_id
            raise ManifestError(f"line {lineno}: id {bad} outside [0, 2**63)")
        if item_id in seen_ids:
            raise ManifestError(f"line {lineno}: duplicate item id {item_id}")
        seen_ids.add(item_id)
        if domain not in DOMAINS:
            raise ManifestError(f"line {lineno}: unknown domain {domain!r}")
        if not rel_path:
            raise ManifestError(f"line {lineno}: empty feature path")
        # A lexical check, with no realpath or Path per record (a set-up can
        # load thousands): a feature path stays inside the dataset
        # directory unless a symlink there leads out.
        if os.path.isabs(rel_path) or ".." in rel_path.replace(os.sep, "/").split("/"):
            raise ManifestError(
                f"line {lineno}: feature path must stay inside the dataset directory: {rel_path}"
            )
        if domain == "user":
            if raw_tags:
                raise ManifestError(f"line {lineno}: user records must not carry tags")
            tag_ids: tuple[int, ...] = ()
        elif raw_tags:
            try:
                tag_ids = tuple(int(t) for t in raw_tags.split(","))
            except ValueError:
                raise ManifestError(f"line {lineno}: bad tag list {raw_tags!r}") from None
            for t in tag_ids:
                if not 0 <= t < tag_count:
                    raise ManifestError(
                        f"line {lineno}: tag id {t} outside vocabulary of {tag_count}"
                    )
        else:
            tag_ids = ()
        records.append(
            ManifestRecord(
                item_id=item_id,
                domain=domain,
                product_id=product_id,
                path=rel_path,
                tag_ids=tag_ids,
            )
        )
    if not records:
        raise ManifestError("no records")
    return Manifest(records=tuple(records), tag_names=tag_names, root=root)


def reference_load_ground_truth(path: Path) -> dict[int, int]:
    truth: dict[int, int] = {}
    lines = reference_read_lines(path, "ground truth")
    for lineno, line in enumerate(lines, start=1):
        if reference_is_blank(line):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ManifestError(
                f"{path.name} line {lineno}: expected 2 fields, got {len(parts)}"
            )
        try:
            user_id, product_id = int(parts[0]), int(parts[1])
        except ValueError:
            raise ManifestError(f"{path.name} line {lineno}: ids must be integers") from None
        if not (0 <= user_id < 2**63 and 0 <= product_id < 2**63):
            bad = product_id if 0 <= user_id < 2**63 else user_id
            raise ManifestError(f"{path.name} line {lineno}: id {bad} outside [0, 2**63)")
        if user_id in truth:
            raise ManifestError(f"{path.name} line {lineno}: duplicate user id {user_id}")
        truth[user_id] = product_id
    return truth
