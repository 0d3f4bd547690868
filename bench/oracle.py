"""Plain-numpy reference forward pass and output checks.

Nothing here calls an ``xattn`` forward function: the model's tensors are
read by name and the trunk, branches, attention heads and distances are
recomputed with batched numpy, so a defect in the package's forward code
cannot hide behind the same defect in the check.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

# Squared distances between unit vectors lie in [0, 4]. The package and this
# oracle agree to about 1e-15 in float64; anything beyond 1e-9 is a defect.
TOL = 1e-9

# Variant code of xattn.model.Variant.TAGYNET, the first with tag pooling.
TAGYNET = 1


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1e-12)


class NumpyModel:
    """Reference embeddings for one set of model parameters."""

    def __init__(self, params) -> None:
        self.variant = int(params.config.variant)
        self.t = {name: np.array(arr) for name, arr in params.named_tensors()}

    def features(self, raw: np.ndarray, domain: str) -> np.ndarray:
        """Trunk then branch on ``(..., L, R)`` raw maps; returns ``(..., L, C)``."""
        t = self.t
        hidden = np.maximum(raw @ t["trunk.weight"].T + t["trunk.bias"], 0.0)
        return hidden @ t[f"branch_{domain}.weight"].T + t[f"branch_{domain}.bias"]

    def shop_embeddings(self, raws: np.ndarray, tag_bits: np.ndarray) -> np.ndarray:
        """Unit shop embeddings of ``(N, L, R)`` maps with ``(N, T)`` tag bits."""
        fmaps = self.features(raws, "shop")
        if self.variant < TAGYNET:
            return _unit_rows(fmaps.mean(axis=1))
        embedded = tag_bits @ self.t["tag_attn.embedding"]  # (N, C)
        weights = _softmax_rows(np.einsum("nlc,nc->nl", fmaps, embedded))
        return _unit_rows(np.einsum("nl,nlc->nc", weights, fmaps))

    def query_embedding(self, raw: np.ndarray) -> np.ndarray:
        """Uniform-pooled unit query embedding used by the initial scan."""
        return _unit_rows(self.features(raw, "user").mean(axis=0))

    def context_distances(self, raw: np.ndarray, shops: np.ndarray) -> np.ndarray:
        """Squared distance of each ``(K, C)`` shop row to the query attended
        with that row as context."""
        fmap = self.features(raw, "user")  # (L, C)
        scores = fmap @ self.t["ctx_attn.feature_weight"] + shops @ self.t["ctx_attn.context_weight"].T
        pooled = _unit_rows(_softmax_rows(scores) @ fmap)  # (K, C)
        return np.sum((pooled - shops) ** 2, axis=1)


class ReferenceIndex:
    """Oracle embeddings of every shop item, rows in ascending item-id order."""

    def __init__(self, model: NumpyModel, item_ids, product_ids, embeddings: np.ndarray) -> None:
        self.model = model
        self.item_ids = np.asarray(item_ids)
        if np.any(np.diff(self.item_ids) <= 0):
            raise ValueError("reference rows must be in ascending item-id order")
        self.product_ids = np.asarray(product_ids)
        self.embeddings = embeddings
        self.row_of = {int(item): row for row, item in enumerate(self.item_ids)}
        self.product_of = dict(zip(self.item_ids.tolist(), self.product_ids.tolist()))

    def scan_distances(self, query_raw: np.ndarray) -> np.ndarray:
        return np.sum((self.embeddings - self.model.query_embedding(query_raw)) ** 2, axis=1)


def check_ranking(
    ranked: Sequence[tuple[int, float]],
    ids: np.ndarray,
    dists: np.ndarray,
    k: int | None = None,
    tol: float = TOL,
) -> str | None:
    """Problem with a ranked list, or None.

    ``ids``/``dists`` are the oracle distances of every eligible item. With
    ``k``, the list must be the ``min(k, len(ids))`` nearest items; without,
    a permutation of ``ids``. Reported distances must match the oracle, and
    the order may swap two items only when their distances are within ``tol``.
    """
    oracle = dict(zip(ids.tolist(), dists.tolist()))
    got_ids = [int(r[0]) for r in ranked]
    got_set = set(got_ids)
    if len(got_set) != len(got_ids):
        return "ranked list repeats an item"
    unknown = [i for i in got_ids if i not in oracle]
    if unknown:
        return f"ranked list holds items outside the candidate set: {unknown[:3]}"
    if k is None:
        if len(got_ids) != len(oracle):
            return f"re-rank returned {len(got_ids)} of {len(oracle)} candidates"
    else:
        want = min(k, len(oracle))
        if len(got_ids) != want:
            return f"scan returned {len(got_ids)} items, expected {want}"
        omitted = np.array([d for i, d in oracle.items() if i not in got_set])
        if omitted.size and want and omitted.min() < oracle[got_ids[-1]] - tol:
            return "scan omitted an item nearer than one it returned"
    true_d = np.array([oracle[i] for i in got_ids])
    reported = np.array([float(r[1]) for r in ranked])
    if got_ids and not np.max(np.abs(reported - true_d)) <= tol:
        return f"distances differ from the oracle by {np.max(np.abs(reported - true_d)):.3g}"
    if np.any(np.diff(true_d) < -tol):
        return "ranked list is out of distance order"
    return None


def check_search(ranked, ref: ReferenceIndex, query_raw: np.ndarray, k: int, rerank: bool) -> str | None:
    """Check one ``search()`` result: the scan's top-k pool, then, with
    ``rerank``, the context re-ranked order of that pool."""
    scan = ref.scan_distances(query_raw)
    if not rerank:
        return check_ranking(ranked, ref.item_ids, scan, k=k)
    pool = [(item, scan[ref.row_of[item]]) for item, _ in ranked if item in ref.row_of]
    pool.sort(key=lambda r: r[1])
    problem = check_ranking(pool, ref.item_ids, scan, k=k)
    if problem is not None:
        return f"candidate pool: {problem}"
    rows = np.array([ref.row_of[item] for item, _ in pool], dtype=int)
    ctx = ref.model.context_distances(query_raw, ref.embeddings[rows])
    return check_ranking(ranked, ref.item_ids[rows], ctx)


def precision_from_rankings(
    rankings: Mapping[int, Sequence[tuple[int, float]]],
    truth: Mapping[int, int],
    product_of: Mapping[int, int],
    k: int,
) -> float:
    """P@k recomputed from raw rankings: the share of queries with ground
    truth whose true product appears among their first k items."""
    scored = [q for q in rankings if q in truth]
    hits = sum(
        any(product_of[item] == truth[q] for item, _ in rankings[q][:k]) for q in scored
    )
    return hits / len(scored)
