"""Naive reference implementations used as independent test oracles.

Everything here is deliberately written with plain Python loops and
``math.exp`` so it shares no code path with the library. Keep it slow
and obvious. The exceptions are references for a numpy form the library
replaced, such as ``out_of_place_features``, which must agree with it bit
for bit.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np


def naive_softmax(scores) -> list[float]:
    exps = [math.exp(float(s)) for s in scores]
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


def out_of_place_features(raw, trunk, branch):
    """The trunk + branch pass in numpy with a fresh array at each step, as
    ``x @ weight.T + bias`` and ``np.maximum(h, 0.0)`` write it; the model
    adds the bias and applies the ReLU in place, which must give the same
    bits. Returns the (N*L) x R input rows, the (N*L) x C hidden rows and
    the map shaped like ``raw`` with C channels."""
    raw = np.asarray(raw, dtype=np.float64)
    rows = raw.reshape(-1, raw.shape[-1])
    hidden = np.maximum(rows @ trunk.weight.T + trunk.bias, 0.0)
    fmap = (hidden @ branch.weight.T + branch.bias).reshape(*raw.shape[:-1], -1)
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
    features = naive_affine_relu_affine(
        raw,
        params.trunk.weight,
        params.trunk.bias,
        params.branch_shop.weight,
        params.branch_shop.bias,
    )
    if params.tag_attn is not None:
        _, pooled = naive_tag_attend(features, bits, params.tag_attn.embedding)
    else:
        pooled = [sum(row[c] for row in features) / len(features) for c in range(len(features[0]))]
    return naive_l2_normalize(pooled)


def naive_user_embedding(raw, params) -> list[float]:
    """Uniform-pooled query embedding of one image."""
    features = naive_affine_relu_affine(
        raw,
        params.trunk.weight,
        params.trunk.bias,
        params.branch_user.weight,
        params.branch_user.bias,
    )
    pooled = [sum(row[c] for row in features) / len(features) for c in range(len(features[0]))]
    return naive_l2_normalize(pooled)


def per_candidate_rerank(query_raw, candidate_ids, shop_embedding_of, params) -> list[tuple[int, float]]:
    """The context re-rank one candidate at a time: embed the query with
    the candidate's shop embedding as context, take the squared distance
    to that embedding, then sort by (distance, item id)."""
    scored = []
    for item_id in candidate_ids:
        context = shop_embedding_of[item_id]
        features = naive_affine_relu_affine(
            query_raw,
            params.trunk.weight,
            params.trunk.bias,
            params.branch_user.weight,
            params.branch_user.bias,
        )
        _, pooled = naive_context_attend(
            features, context, params.ctx_attn.feature_weight, params.ctx_attn.context_weight
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
