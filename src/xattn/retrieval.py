"""Shop-side index, two-stage query execution, and P@K evaluation.

The index is columnar: sorted item ids, product ids, packed tag bitsets
and an N x C embedding matrix, plus the fingerprint of the model that
built it. ``build_index`` embeds the shop items ``BUILD_BLOCK`` stacked
images at a time.

A query's feature map is extracted once and serves both stages. The
initial stage pools it uniformly and scans the whole embedding matrix
exactly (brute force with an exact top-K selection; desk-scale databases
keep this fast and exactness keeps the oracles simple). The re-rank
stage attends the same feature map under every candidate's embedding as
context, all K candidates in one batch of array operations, and
re-sorts the candidate set.

Index file format (little endian): magic ``XIDX``, version u32, model
fingerprint (32 bytes), entry count u64, then per entry: item id u64,
product id u64, tag bitset (ceil(T/8) bytes, LSB-first), embedding as C
float64. ``fileio`` says how faults are reported.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .attention import TagVector
from .fileio import FormatError, Reader, write_atomic
from .model import (
    ModelParams,
    UnsupportedVariantError,
    Variant,
    embed_shops,
    embed_shops_simple,
    embed_user_contexts,
    extract_features,
    params_fingerprint,
    uniform_embedding,
)

logger = logging.getLogger(__name__)

INDEX_MAGIC = b"XIDX"
INDEX_VERSION = 1

# Magic, version, fingerprint, entry count: the 48 bytes before the entries.
_HEADER = struct.Struct("<4sI32sQ")

# Size of the candidate pool handed to the re-ranker.
DEFAULT_TOP_K = 256

# Shop items stacked into one forward pass by build_index. Larger blocks
# keep B x L x C temporaries that outgrow the CPU caches: at L=49, C=128 a
# block of 64 items holds about 16 MB and built 16% slower than blocks of 8.
BUILD_BLOCK = 8


class IndexFormatError(FormatError):
    """Index bytes could not be parsed; ``offset`` locates the fault."""


class FingerprintMismatchError(ValueError):
    """The index was built by a different model than the one querying it."""


class ShopItem(NamedTuple):
    item_id: int
    product_id: int
    raw: np.ndarray
    tags: TagVector


class Ranked(NamedTuple):
    item_id: int
    distance: float


class RankedList(Sequence[Ranked]):
    """Ranked results, best first, held as two arrays: ``item_ids`` (int64)
    and squared ``distances`` (float64).

    Reads as a sequence of ``Ranked``; a slice is again a ``RankedList``.
    It equals another ``RankedList`` with the same arrays, or any sequence
    of the same ``(item_id, distance)`` pairs.
    """

    __slots__ = ("item_ids", "distances")

    def __init__(self, item_ids: np.ndarray, distances: np.ndarray) -> None:
        ids = np.asarray(item_ids, dtype=np.int64)
        dists = np.asarray(distances, dtype=np.float64)
        if ids.ndim != 1 or ids.shape != dists.shape:
            raise ValueError("item ids and distances must be two vectors of one length")
        self.item_ids = ids
        self.distances = dists

    def __len__(self) -> int:
        return len(self.item_ids)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return RankedList(self.item_ids[key], self.distances[key])
        return Ranked(int(self.item_ids[key]), float(self.distances[key]))

    def __iter__(self):
        return map(Ranked._make, zip(self.item_ids.tolist(), self.distances.tolist()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RankedList):
            return bool(
                np.array_equal(self.item_ids, other.item_ids)
                and np.array_equal(self.distances, other.distances)
            )
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RankedList({list(self)!r})"


@dataclass(eq=False)
class ShopIndex:
    """One row per indexed shop item, in ascending item-id order, plus the
    fingerprint of the model that embedded them.

    ``item_ids`` and ``product_ids`` are (N,) int64, ``embeddings`` is
    (N, C) float64, and ``tag_bits`` keeps each tag set packed as the file
    stores it, (N, ceil(T/8)) uint8; only ``save_index`` reads it. The
    columns are read-only once the index exists.
    """

    item_ids: np.ndarray
    product_ids: np.ndarray
    tag_bits: np.ndarray
    embeddings: np.ndarray
    fingerprint: bytes

    def __post_init__(self) -> None:
        self.item_ids = np.asarray(self.item_ids, dtype=np.int64)
        self.product_ids = np.asarray(self.product_ids, dtype=np.int64)
        self.tag_bits = np.asarray(self.tag_bits, dtype=np.uint8)
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        n = len(self.item_ids)
        if (
            self.item_ids.shape != (n,)
            or self.product_ids.shape != (n,)
            or self.tag_bits.ndim != 2
            or self.embeddings.ndim != 2
            or len(self.tag_bits) != n
            or len(self.embeddings) != n
        ):
            raise ValueError("index columns must hold one row per item")
        if np.any(np.diff(self.item_ids) <= 0):
            raise ValueError("index item ids must be strictly increasing")
        # Parameters that overflowed in memory give NaN embeddings, and a
        # scan over them would return no rows instead of failing.
        if not np.isfinite(self.embeddings).all():
            raise ValueError("index embeddings must be finite")
        if len(self.fingerprint) != 32:
            raise ValueError("fingerprint must be 32 bytes")
        for column in (self.item_ids, self.product_ids, self.tag_bits, self.embeddings):
            column.flags.writeable = False
        # The scan expands |e - q|^2 = |e|^2 - 2 e.q + |q|^2.
        self._sq_norms = np.einsum("ij,ij->i", self.embeddings, self.embeddings)

    def __len__(self) -> int:
        return len(self.item_ids)

    def rows_of(self, item_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Row of each item id; a ValueError names the first id not indexed."""
        ids = np.asarray(item_ids, dtype=np.int64)
        rows = np.searchsorted(self.item_ids, ids)
        found = rows < len(self.item_ids)
        found[found] = self.item_ids[rows[found]] == ids[found]
        if not found.all():
            raise ValueError(f"item id {ids[~found][0]} not in index")
        return rows

    def product_of(self, item_id: int) -> int:
        return int(self.product_ids[self.rows_of([item_id])[0]])


def build_index(items: Iterable[ShopItem], params: ModelParams) -> ShopIndex:
    """Embed every shop item; deterministic, sorted by item id.

    Items are embedded in blocks of ``BUILD_BLOCK``, each stacked into one
    B x L x R array. The base variant has no tag head and indexes
    normalized uniform-pooled embeddings instead (the same aggregation it
    was trained with).
    """
    ordered = sorted(items, key=lambda item: item.item_id)
    item_ids = np.array([item.item_id for item in ordered], dtype=np.int64)
    repeated = np.flatnonzero(item_ids[1:] == item_ids[:-1])
    if repeated.size:
        raise ValueError(f"duplicate item id {item_ids[repeated[0]]}")
    cfg = params.config
    embeddings = np.empty((len(ordered), cfg.channels))
    for lo in range(0, len(ordered), BUILD_BLOCK):
        block = ordered[lo : lo + BUILD_BLOCK]
        raws = np.stack([item.raw for item in block])
        if cfg.variant >= Variant.TAGYNET:
            tags = TagVector(bits=np.stack([item.tags.bits for item in block]))
            embeddings[lo : lo + len(block)] = embed_shops(raws, tags, params)
        else:
            embeddings[lo : lo + len(block)] = embed_shops_simple(raws, params)
    if ordered:
        bits = np.stack([item.tags.bits for item in ordered]).astype(np.uint8)
        tag_bits = np.packbits(bits, axis=1, bitorder="little")
    else:
        tag_bits = np.zeros((0, (cfg.tag_count + 7) // 8), dtype=np.uint8)
    return ShopIndex(
        item_ids=item_ids,
        product_ids=np.array([item.product_id for item in ordered], dtype=np.int64),
        tag_bits=tag_bits,
        embeddings=embeddings,
        fingerprint=params_fingerprint(params),
    )


def _scan(index: ShopIndex, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the ``k`` index entries nearest to ``query`` and their squared
    distances, nearest first; ties break by ascending item id (= row)."""
    dists = index._sq_norms - 2.0 * (index.embeddings @ query) + query @ query
    np.maximum(dists, 0.0, out=dists)  # rounding can dip below 0 at a match
    if k < len(dists):
        # Every row up to the k-th smallest distance, ties at the boundary
        # included, so the tie rule below picks among all of them.
        pool = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
    else:
        pool = np.arange(len(dists))
    rows = pool[np.lexsort((pool, dists[pool]))][:k]
    return rows, dists[rows]


def _rerank_rows(
    index: ShopIndex, fmap: np.ndarray, rows: np.ndarray, params: ModelParams
) -> RankedList:
    """Score index ``rows`` against the query map ``fmap`` attended under
    each row's embedding as context; sort by (distance, item id)."""
    ids = index.item_ids[rows]
    if not len(rows):
        return RankedList(ids, np.zeros(0))
    contexts = index.embeddings[rows]
    diffs = embed_user_contexts(fmap, contexts, params) - contexts
    dists = np.einsum("ij,ij->i", diffs, diffs)
    order = np.lexsort((ids, dists))
    return RankedList(ids[order], dists[order])


def search(
    index: ShopIndex,
    query_raw: np.ndarray,
    params: ModelParams,
    k: int = DEFAULT_TOP_K,
    use_rerank: bool = True,
) -> RankedList:
    """Two-stage query: exhaustive initial scan, then context re-rank.

    The scan ranks every index entry by squared distance to the
    uniform-pooled query embedding and keeps the ``k`` nearest, ties broken
    by ascending item id. With ``use_rerank`` (context variant only), the
    query is attended under each of those candidates' embeddings as context
    and the candidates are re-sorted by that distance, ties again by item
    id. One fingerprint check and one feature extraction serve both stages.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if use_rerank and params.config.variant < Variant.CTXYNET:
        raise UnsupportedVariantError("re-ranking requires the context-attention variant")
    if index.fingerprint != params_fingerprint(params):
        raise FingerprintMismatchError("index fingerprint does not match the query model parameters")
    fmap = extract_features(query_raw, "user", params)
    rows, dists = _scan(index, uniform_embedding(fmap), k)
    if not use_rerank:
        return RankedList(index.item_ids[rows], dists)
    return _rerank_rows(index, fmap, rows, params)


def precision_at_k(
    results: Mapping[int, Sequence[Ranked]],
    truth: Mapping[int, int],
    index: ShopIndex,
    k: int,
) -> float:
    """Fraction of queries with a same-product item in their top k.

    Queries without ground truth are excluded (with a warning count).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = 0
    scored = 0
    excluded = 0
    for query_id, ranked in results.items():
        if query_id not in truth:
            excluded += 1
            continue
        scored += 1
        wanted = truth[query_id]
        if any(index.product_of(r.item_id) == wanted for r in ranked[:k]):
            hits += 1
    if excluded:
        logger.warning("%d queries excluded from P@%d (no ground truth)", excluded, k)
    if scored == 0:
        raise ValueError("no query has ground truth")
    return hits / scored


# ---------------------------------------------------------------------------
# index file io
# ---------------------------------------------------------------------------


def _entry_dtype(channels: int, tag_bytes: int) -> np.dtype:
    """One stored entry: 16 + ceil(T/8) + 8C bytes, no padding."""
    return np.dtype(
        [
            ("item_id", "<u8"),
            ("product_id", "<u8"),
            ("tags", "u1", (tag_bytes,)),
            ("embedding", "<f8", (channels,)),
        ]
    )


def save_index(path: "Path | str", index: ShopIndex) -> None:
    """Write the index file atomically: a temporary file, then a rename."""
    if len(index) and min(index.item_ids[0], index.product_ids.min()) < 0:
        raise ValueError("item and product ids must be non-negative to be stored as u64")
    entries = np.empty(len(index), _entry_dtype(index.embeddings.shape[1], index.tag_bits.shape[1]))
    entries["item_id"] = index.item_ids
    entries["product_id"] = index.product_ids
    entries["tags"] = index.tag_bits
    entries["embedding"] = index.embeddings
    header = _HEADER.pack(INDEX_MAGIC, INDEX_VERSION, index.fingerprint, len(index))
    write_atomic(path, [header, entries.view(np.uint8)])


def load_index(path: "Path | str", channels: int, tag_count: int) -> ShopIndex:
    """Parse an index file; entry sizes come from the model config.

    The file length is checked against the size the entry count implies
    before any column is allocated. Embeddings must be finite, and ids must
    fit in int64 and increase.
    """
    reader = Reader(Path(path).read_bytes(), IndexFormatError)
    magic, version, fingerprint, count = reader.unpack(_HEADER, "header")
    if magic != INDEX_MAGIC:
        reader.fail("bad magic", 0)
    if version != INDEX_VERSION:
        reader.fail(f"unsupported version {version}", 4)
    entry = _entry_dtype(channels, (tag_count + 7) // 8)
    entries = reader.array(entry, count, f"{count} entries", finite="embedding")
    reader.end()
    # u64 ids of 2**63 or more wrap to negative int64 here.
    item_ids = entries["item_id"].astype(np.int64)
    product_ids = entries["product_id"].astype(np.int64)
    bad = np.flatnonzero((item_ids < 0) | (product_ids < 0))
    if bad.size:
        reader.fail("id does not fit in int64", _HEADER.size + int(bad[0]) * entry.itemsize)
    bad = np.flatnonzero(np.diff(item_ids) <= 0)
    if bad.size:
        reader.fail(
            "item ids are not strictly increasing", _HEADER.size + int(bad[0] + 1) * entry.itemsize
        )
    return ShopIndex(
        item_ids=item_ids,
        product_ids=product_ids,
        tag_bits=np.array(entries["tags"], dtype=np.uint8),
        embeddings=np.array(entries["embedding"], dtype=np.float64),
        fingerprint=fingerprint,
    )
