"""Shop-side index, two-stage query execution, and P@K evaluation.

The index is columnar: sorted item ids, product ids, packed tag bitsets
and an N x C embedding matrix, plus the fingerprint of the model that
built it. ``build_index`` embeds the shop items in blocks of about
``BUILD_ROWS`` image locations, one stacked shop pass per block. With
enough blocks it splits them into shares of consecutive blocks, one per
CPU the process may run on: the calling thread embeds the first share and
a pool of shares - 1 threads embeds the others, while numpy releases the
GIL in BLAS and its loops. Each block is the one a single-share loop
makes, so every row, and every saved byte, is the same; only the order of
the blocks changes.

A query's feature map is extracted once and serves both stages. The
initial stage pools it uniformly and finds the exact ``k`` nearest index
entries; it hands them on in row order, unsorted. The re-rank stage
attends the same feature map under every candidate's embedding as
context, all K candidates in one ``context_attend`` call. Each score
``a_l + context_weight[l] . c_k`` is a sum, so its exponential is the
product of ``exp(a_l - max a)``, which depends on the query alone, and of
the context factor ``exp(t_k[l] - max t_k)``, ``t_k = context_weight @
c_k``, which depends on the candidate and the model alone; ``attention``
proves the error bound of the product form. So the index computes the
factor once, as the N x L ``attention.context_factor`` of its embeddings,
on the first re-ranking query, and each re-rank gathers its K rows: it
takes L exponentials instead of L x K, and no softmax. An index is
immutable, so the factor belongs to the model that its fingerprint names;
``search`` checks that this is the querying model before it reads the
factor, so any other model fails that check first. The gathered rows may
differ from a per-query factor in the last bits, and so may the re-rank
distances. ``context_attend`` keeps each candidate's pooled row
unnormalised, as a row ``r`` and its sum ``z``, both BLAS products, and
the re-rank scores them against the context ``c`` in closed form, ``|r|^2
/ s^2 - 2 r.c / s + |c|^2`` with ``s = max(|r|, NORM_EPS z)``, which
equals ``|l2_normalize(r / z) - c|^2`` to within 1e-12 for unit contexts
(``_context_distances``). So the re-rank does no elementwise arithmetic
over a K x L or K x C array: two row gathers, BLAS products and steps
over K-vectors. Either way each query sorts its ``k`` results once, by
(distance, item id), where a tie is one of the computed distances:
candidates whose distances tie in exact arithmetic may differ in the last
bits and sort by those. A pooled row of zeros, say, has the distance
``|c|^2``, which each candidate reads as its rounded squared norm.

Every index row is a unit embedding, as ``embed_shops`` makes it:
``ShopIndex`` refuses a row whose squared norm is above ``MAX_SQ_NORM``,
and ``load_index`` reports such an entry at its offset. The initial stage
is an exact two-pass scan. When ``SCREEN_RATIO * k <= N``, a first pass
scores the whole index through a float32 copy of its rows, which reads
half the bytes of the float64 matrix. It keeps every row whose screened
score is within a rounding margin of the k-th best; with every row and
the query of norm at most 1 (up to rounding), that margin depends on C
alone, and every row of the exact top k is kept (``_candidates`` gives
the margin and its proof). The second pass scores only the kept rows in
float64 and selects among them with the same tie rule as a full scan, so
the result equals a full scan bit for bit. With larger k, the full
float64 scan runs alone. The full scan and the second pass compute
distances through ``np.vecdot``, one row at a time: a row's distance then
has the same bits whichever rows are scored with it. A matrix-vector
product (``@``) gives no such promise: with OpenBLAS, ``E[rows] @ q`` and
``(E @ q)[rows]`` differed in the last bit for most random row subsets.

Index file format (little endian): magic ``XIDX``, version u32, model
fingerprint (32 bytes), entry count u64, then per entry: item id u64,
product id u64, tag bitset (ceil(T/8) bytes, LSB-first), embedding as C
float64. ``fileio`` says how faults are reported.
"""

from __future__ import annotations

import contextvars
import functools
import logging
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .attention import TagVector, context_attend, context_factor
from .fileio import FormatError, Reader, _check_range, _KeyedError, write_atomic
from .model import (
    ModelParams,
    UnsupportedVariantError,
    Variant,
    embed_shops,
    extract_features,
    params_fingerprint,
    uniform_embedding,
)
from .numeric import NORM_EPS

logger = logging.getLogger(__name__)

INDEX_MAGIC = b"XIDX"
INDEX_VERSION = 1

# Magic, version, fingerprint, entry count: the 48 bytes before the entries.
_HEADER = struct.Struct("<4sI32sQ")

# Size of the candidate pool handed to the re-ranker.
DEFAULT_TOP_K = 256

# Image locations stacked into one shop pass by build_index: a block
# holds max(1, BUILD_ROWS // L) items, 16 at L=49 and 196 at L=4. Each
# pass has a fixed cost, so smaller blocks are slower. Larger blocks free
# more memory at once, and glibc's malloc hands it back to the OS, so the
# next block page-faults it in again. So the stacked raw maps share one
# buffer per share of a call, which runs its blocks one after another:
# five builds of 1000 items at L=4, C=128 took 0.041 minor faults per
# location row at 784 rows, against 0.144 with a fresh stack per block
# (0.003 at L=49 either way). Building 1000 items at C=128 (fastest of
# 25, one BLAS thread, 2-vCPU VM, four runs), L=4 / L=49 took 9.1-13.3 /
# 62.6-76.3 ms at 392 rows, 8.3-12.6 / 59.2-71.9 ms at 784 (faster than
# 392 in every run) and 10.6-15.1 / 57.8-73.8 ms at 1568.
BUILD_ROWS = 784

# Blocks each share of a build_index call must have: a call of b blocks
# has min(CPUs, b // MIN_BLOCKS_PER_SHARE) shares, and at least one. A
# pool of one thread is made, given a share and joined in about 85 us (a
# bare thread took 45-50 us; 2-vCPU VM); a block takes 0.6-1 ms at
# C=R=128. Two shares against one (median of 41 builds, C=R=128, one BLAS
# thread, 2-vCPU VM) took 0.84-0.87x the time at 2-3 blocks of 16 items
# (L=49), 0.97x at 3 blocks of 196 (L=4) and 1.24x at blocks of 196 and 4
# items, where one share has almost all the work; from 4 blocks a share
# they took 0.59-0.72x at L=49 and 0.73-0.80x at L=4.
MIN_BLOCKS_PER_SHARE = 4

# The scan screens in float32 only when SCREEN_RATIO * k <= N. Each kept
# row costs a float64 rescoring, so the screen pays only for k well below
# N. Over unit rows at C=128 (one BLAS thread, 2-vCPU VM), screened / full
# scans took 54 / 61 us at N=1000, k=20; 191 / 321 us at N=4000, k=20;
# 217 / 253 us at N=4000, k=256; 292 / 292 us at N=4000, k=512; and
# 135 / 79 us at N=1000, k=512. The break-even N / k was about 8 from
# N=1000 to 4000 and lower above; 16 leaves a margin.
SCREEN_RATIO = 16

# Float32 and float64 unit roundoff.
_U32 = 2.0**-24
_U64 = 2.0**-53

# The smallest normal float64. A re-rank row whose squared norm is below
# it, as the unnormalised rows under small sums can be, has lost bits to
# subnormal rounding, or all of them; _context_distances rescales it.
_MIN_NORMAL = 2.0**-1022

# The largest squared norm of an index row. A row that normalize_rows
# made has a squared norm within 2 gamma_C + 6 u of 1 as ShopIndex takes
# it (two sums of C squares, each within gamma_C = C u / (1 - C u), and a
# few roundings of u = 2^-53); that is below 2^-20 for every C up to 2^31.
MAX_SQ_NORM = 1.0 + 2.0**-20


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


@dataclass(frozen=True, eq=False)
class ShopIndex:
    """One row per indexed shop item, in ascending item-id order, plus the
    fingerprint of the model that embedded them.

    ``item_ids`` and ``product_ids`` are (N,) int64, ``embeddings`` is
    (N, C) float64, and ``tag_bits`` keeps each tag set packed as the file
    stores it, (N, ceil(T/8)) uint8; only ``save_index`` reads it.
    ``fingerprint`` is kept as ``bytes``: a bytes-like value of 32 bytes is
    copied into one, and anything else raises a ValueError that names its
    type or length.

    An index is an immutable value, checked once: no field can be rebound.
    The columns are not copied: the constructor marks each array it is
    given read-only. ``dataclasses.replace`` relabels an index. A column
    that does not convert to its dtype, or ids or tag bytes whose values
    the conversion changes, raise a ValueError naming the column; columns
    of the wrong rank or of unequal lengths raise one too.

    Item ids strictly increase, and every row is a finite unit embedding,
    up to rounding (``MAX_SQ_NORM``). The first id, then the first row,
    that breaks a rule raises a ValueError keyed by its row (``fileio``).
    The scan reads columns derived in memory: ``_sq_norms`` (each row's squared
    norm, which the re-rank reads too) when the index is made, and
    ``_screen`` (the rows as float32) on the first scan that screens, so an
    index that is only built and saved never pays for it. The re-rank
    reads ``_context``: the N x L ``context_factor(context_weight,
    embeddings)`` (N x L x 8 bytes, 392 KB at N=1000, L=49), made by the
    first re-ranking ``search``. Building, loading, saving and scan-only
    searches never make it. The index file stores none of them.
    """

    item_ids: np.ndarray
    product_ids: np.ndarray
    tag_bits: np.ndarray
    embeddings: np.ndarray
    fingerprint: bytes
    _sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    # The re-rank's context factor, once a re-ranking search has made it.
    _context: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        columns = []
        names = ("item_ids", "product_ids", "tag_bits", "embeddings")
        # A NaN or huge float id casts to some integer; the test below refuses it.
        with np.errstate(invalid="ignore"):
            for name, dtype in zip(names, (np.int64, np.int64, np.uint8, np.float64)):
                given = getattr(self, name)
                try:
                    column = np.asarray(given, dtype=dtype)
                    # Ids and tag bytes must keep their values: 1.7 is no id, and -1 no byte.
                    exact = dtype == np.float64 or column is given or np.array_equal(column, given)
                except (TypeError, ValueError, OverflowError):
                    exact = False
                if not exact:
                    raise ValueError(f"index column {name} does not convert exactly to {np.dtype(dtype)}")
                object.__setattr__(self, name, column)
                columns.append(column)
        # The ranks first: len() of a 0-d array raises a TypeError.
        if [column.ndim for column in columns] != [1, 1, 2, 2] or len(set(map(len, columns))) != 1:
            raise ValueError("index columns must hold one row per item")
        bad = np.flatnonzero(self.item_ids[1:] <= self.item_ids[:-1]) + 1
        if bad.size:
            row = int(bad[0])
            fault = f"row {row} holds {self.item_ids[row]} after {self.item_ids[row - 1]}"
            raise _KeyedError(f"index item ids must be strictly increasing: {fault}", row)
        # search compares it with params_fingerprint; the file holds its 32 bytes.
        if not isinstance(self.fingerprint, (bytes, bytearray, memoryview)):
            raise ValueError(f"fingerprint must be 32 bytes, got a {type(self.fingerprint).__name__}")
        object.__setattr__(self, "fingerprint", bytes(self.fingerprint))
        if len(self.fingerprint) != 32:
            raise ValueError(f"fingerprint must be 32 bytes, got {len(self.fingerprint)}")
        # The scan expands |e - q|^2 = |e|^2 - 2 e.q + |q|^2. A row holding
        # NaN or infinity has a NaN or infinite squared norm, so one test of
        # the norms finds it and the long rows. Parameters that overflowed
        # in memory give NaN rows, which a scan would rank nowhere.
        sq_norms = np.einsum("ij,ij->i", self.embeddings, self.embeddings)
        bad = np.flatnonzero(~(sq_norms <= MAX_SQ_NORM))
        if bad.size:
            row = int(bad[0])
            fault = f"index embeddings must be finite: row {row} holds NaN or infinite values"
            if np.isfinite(self.embeddings[row]).all():
                fault = f"index row {row} has squared norm {float(sq_norms[row])!r}"
                fault += f", above {MAX_SQ_NORM!r}: rows must be unit embeddings"
            raise _KeyedError(fault, row)
        for column in columns:
            column.flags.writeable = False
        object.__setattr__(self, "_sq_norms", sq_norms)

    @functools.cached_property
    def _screen(self) -> np.ndarray:
        return self.embeddings.astype(np.float32)

    def _context_factor(self, context_weight: np.ndarray) -> np.ndarray:
        """``context_factor(context_weight, embeddings)``, read-only: row i
        holds ``exp(t_i - max_l t_i)`` with ``t_i = context_weight @ e_i``.
        Made by the first call and kept, for the model ``fingerprint``
        names: the caller must first check that ``context_weight`` is that
        model's, as ``search`` does.
        """
        if self._context is None:
            factor = context_factor(context_weight, self.embeddings)
            factor.flags.writeable = False
            object.__setattr__(self, "_context", factor)
        return self._context

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


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux and the BSDs
        return os.cpu_count() or 1


def build_index(items: Iterable[ShopItem], params: ModelParams) -> ShopIndex:
    """Embed every shop item; deterministic, sorted by item id.

    The items' tag vectors are stacked once into an N x T matrix, which
    ``save_index`` stores packed. Items are embedded in blocks of
    ``max(1, BUILD_ROWS // L)``: each block's maps are stacked into its
    share's float64 B x L x R buffer, which widens the float32 maps
    ``dataio`` loads, and run with the block's rows of that matrix as one
    shop pass (``model.embed_shops``): the trunk on its B*L rows, pooling
    over the B hidden maps, then the shop branch on the B pooled rows. The
    base variant pools uniformly, as it was trained. Every item's tag
    vector must have the model's ``tag_count`` entries, since the index
    stores them, and every map must be L x R; a ValueError names the first
    item that does not. ``ShopIndex`` refuses a repeated item id.

    The blocks are split into ``min(CPUs, blocks // MIN_BLOCKS_PER_SHARE)``
    shares of consecutive blocks, at least one, where CPUs counts those
    this process may run on; with fewer than ``2 * MIN_BLOCKS_PER_SHARE``
    blocks there is one share, so the CPUs are not counted and no pool is
    made. The calling thread embeds the first share, and a pool of shares
    - 1 threads (``concurrent.futures.ThreadPoolExecutor``) embeds the
    others, each share in a copy of the caller's context, so its
    ``np.errstate`` holds there too. A block's rows depend on its own
    items alone, so the embeddings are those of one share, bit for bit.
    Every thread is joined before the call returns or raises. A share stops
    at its first failing block, and the error raised is that of the first
    failing block in item order, as one share would raise it. At L=49,
    C=R=128 on two CPUs (one BLAS thread), 200 items took 7.8-8.3 ms
    instead of 12.3-12.5 ms and 1000 items 34-39 ms instead of 59-60 ms.
    """
    ordered = sorted(items, key=lambda item: item.item_id)
    cfg = params.config
    # The base variant never reads the tags, but the index stores them in
    # ceil(T/8) bytes each, and load_index reads them back at that width.
    for item in ordered:
        if item.tags.bits.shape != (cfg.tag_count,):
            raise ValueError(
                f"item {item.item_id} has a tag vector of shape {item.tags.bits.shape}; "
                f"the model has {cfg.tag_count} tags"
            )
        if item.raw.shape != (cfg.locations, cfg.raw_dim):
            raise ValueError(
                f"item {item.item_id} has raw features of shape {item.raw.shape}; "
                f"the model takes {cfg.locations} x {cfg.raw_dim}"
            )
    bits = np.array([item.tags.bits for item in ordered]).reshape(len(ordered), cfg.tag_count)
    embeddings = np.empty((len(ordered), cfg.channels))
    size = max(1, BUILD_ROWS // cfg.locations)
    starts = range(0, len(ordered), size)
    # Fewer than 2 * MIN_BLOCKS_PER_SHARE blocks make one share whatever
    # the CPU count, so the count is not asked for.
    shares = 1
    if len(starts) >= 2 * MIN_BLOCKS_PER_SHARE:
        shares = min(_cpus(), len(starts) // MIN_BLOCKS_PER_SHARE)
    # Share s embeds the blocks starts[bounds[s] : bounds[s + 1]].
    bounds = [len(starts) * share // shares for share in range(shares + 1)]

    def embed(share: int) -> None:
        # One float64 block buffer per share. Each block's L x R maps are
        # joined (and widened) into its first rows: with every map L x R,
        # the join along the rows is the stack, without np.stack's per-map
        # calls.
        buf = np.empty((min(size, len(ordered)), cfg.locations, cfg.raw_dim))
        for lo in starts[bounds[share] : bounds[share + 1]]:
            block = ordered[lo : lo + size]
            raws = buf[: len(block)]
            np.concatenate([item.raw for item in block], out=raws.reshape(-1, cfg.raw_dim))
            embeddings[lo : lo + len(block)] = embed_shops(raws, bits[lo : lo + len(block)], params)

    if shares == 1:
        embed(0)
    else:
        with ThreadPoolExecutor(shares - 1) as pool:
            futures = [pool.submit(contextvars.copy_context().run, embed, s) for s in range(1, shares)]
            embed(0)
        # Leaving the block joined every worker. A share stops at its first
        # failing block, and the shares follow the item order: the first
        # share that failed raises a serial build's error.
        for future in futures:
            future.result()
    return ShopIndex(
        item_ids=np.array([item.item_id for item in ordered], dtype=np.int64),
        product_ids=np.array([item.product_id for item in ordered], dtype=np.int64),
        tag_bits=np.packbits(bits.astype(np.uint8), axis=1, bitorder="little"),
        embeddings=embeddings,
        fingerprint=params_fingerprint(params),
    )


def _distances(index: ShopIndex, query: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Squared distance of each index row, or of each of ``rows``, to
    ``query``. A row's value has the same bits whatever ``rows`` holds."""
    embeddings, sq_norms = index.embeddings, index._sq_norms
    if rows is not None:
        embeddings, sq_norms = embeddings[rows], sq_norms[rows]
    dists = sq_norms - 2.0 * np.vecdot(embeddings, query) + query @ query
    np.maximum(dists, 0.0, out=dists)  # rounding can dip below 0 at a match
    return dists


def _candidates(index: ShopIndex, query: np.ndarray, k: int) -> np.ndarray | None:
    """Ascending rows that hold every row of the exact ``k`` nearest to
    ``query``, found through the float32 screen; None for ``k >= N``, where
    every row must be scored.

    ``query`` has norm at most 1 up to rounding, as ``uniform_embedding``
    makes it, and so has every index row (``MAX_SQ_NORM``): for C up to
    2^31, both norms are at most ``M = 1 + 2^-20``. Row ``i``'s screened
    score is ``a_i = |e_i|^2 - 2 t_i``, with the squared norm ``_distances``
    reads, where ``t_i`` is the float32 dot product of the float32 row and
    query. It errs from ``e_i . q`` by at most

        beta = gamma_{C+2} M^2 + C 2^-148,

    where ``gamma_n = n 2^-24 / (1 - n 2^-24)``. The first term covers
    rounding the row and the query to float32 and the float32 dot product,
    in any summation order. The second covers underflow to float32
    subnormals: each rounded entry and product loses at most 2^-150, and
    their sum, ``(2 sqrt(C) M + C) 2^-150`` through the dot product's
    rounding, stays below ``C 2^-148``. Adding ``|q|^2`` to ``a_i`` gives
    the row's distance ``d_i`` within ``2 beta + rho / 2``, where ``rho = 8
    (C + 6) 2^-53 M^2`` covers the float64 dot product of ``_distances``
    (its underflow costs at most ``C 2^-1074``) and the float64 roundings
    of terms below ``4 M^2``, the margin's sum included. So:

    - the k rows with the smallest ``a`` have ``d <= a_(k) + |q|^2 + 2 beta
      + rho / 2``, so the k-th smallest distance is at most that;
    - every row of the exact top k, ties at the k-th distance included,
      has ``a_i <= a_(k) + 4 beta + rho``, and is kept.

    The margin depends on C alone. A row whose score is NaN is kept too.
    """
    n, channels = index.embeddings.shape
    if k >= n:
        return None
    scores = index._sq_norms - 2.0 * (index._screen @ query.astype(np.float32))
    m2 = (1.0 + 2.0**-20) ** 2
    gamma = (channels + 2) * _U32 / (1.0 - (channels + 2) * _U32)
    margin = 4.0 * (gamma * m2 + channels * 2.0**-148) + 8 * (channels + 6) * _U64 * m2
    kth = np.partition(scores, k - 1)[k - 1]
    return np.flatnonzero(~(scores > kth + margin))


def _scan(index: ShopIndex, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the ``k`` index entries nearest to ``query`` and their squared
    distances, in ascending row order, not sorted by distance. Of entries
    tied at the k-th distance, the lowest rows are kept."""
    rows = _candidates(index, query, k) if SCREEN_RATIO * k <= len(index) else None
    dists = _distances(index, query, rows)
    pool = np.arange(len(dists))
    if k < len(dists):
        kth = np.partition(dists, k - 1)[k - 1]
        pool = np.flatnonzero(dists <= kth)
        excess = len(pool) - k
        if excess:
            tied = np.flatnonzero(dists[pool] == kth)
            pool = np.delete(pool, tied[-excess:])
    return (pool if rows is None else rows[pool]), dists[pool]


def _context_distances(
    rows: np.ndarray, sums: np.ndarray, contexts: np.ndarray, sq_norms: np.ndarray
) -> np.ndarray:
    """``|l2_normalize(r / z) - c|^2`` for each row ``r`` of ``rows``, its
    sum ``z`` and its ``contexts`` row ``c``, whose squared norms are
    ``sq_norms``, without forming the quotients or the normalised rows.

    With ``rr = r.r`` and ``s = max(sqrt(rr), NORM_EPS z)``, which is ``z``
    times the divisor ``l2_normalize`` takes for ``r / z``, the distance is
    ``rr / s^2 - 2 (r.c) / s + |c|^2``, clamped at 0. Rounding is relative
    to ``(1 + |c|)^2``; for the unit rows of an index the result is within
    1e-12 of the direct form. A row whose ``rr`` overflows, or falls below
    the normal range (``2^-1022``, as under a small sum ``z``), is divided,
    with its sum, by its largest magnitude first, or by ``NORM_EPS z`` when
    that is larger; that leaves ``r / z`` and its normalised row as they
    are. Every other row keeps its bits. Distances that tie in exact
    arithmetic tie here only if their rounded values do.
    """
    rr = np.vecdot(rows, rows)
    rc = np.vecdot(rows, contexts)
    odd = ~((rr >= _MIN_NORMAL) & (rr < np.inf))
    if np.logical_or.reduce(odd):
        sums = sums.copy()
        divisor = np.maximum(np.abs(rows[odd]).max(axis=-1), NORM_EPS * sums[odd])
        scaled = rows[odd] / divisor[:, None]
        rr[odd] = np.vecdot(scaled, scaled)
        rc[odd] = np.vecdot(scaled, contexts[odd])
        sums[odd] /= divisor
    scale = np.maximum(np.sqrt(rr), NORM_EPS * sums)
    dists = rr / (scale * scale)
    dists -= 2.0 * rc / scale
    dists += sq_norms
    np.maximum(dists, 0.0, out=dists)
    return dists


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
    and the candidates are ranked by that distance instead. Either way the
    result is sorted once, by (distance, item id); distances that tie in
    exact arithmetic but not in their rounded values sort by those values
    (module docstring). One fingerprint check and one feature extraction
    serve both stages; the re-rank gathers its candidates' rows of the
    index's context factor, which the first re-ranking call makes and every
    later one reuses, and scores the unnormalised rows and sums of one
    ``context_attend`` call.
    """
    _check_range(k, "k", 1)
    if use_rerank and params.config.variant < Variant.CTXYNET:
        raise UnsupportedVariantError("re-ranking requires the context-attention variant")
    if index.fingerprint != params_fingerprint(params):
        raise FingerprintMismatchError("index fingerprint does not match the query model parameters")
    fmap = extract_features(query_raw, "user", params)
    rows, dists = _scan(index, uniform_embedding(fmap), k)
    if use_rerank and len(rows):
        t = params.tensors
        weight = t["ctx_attn.context_weight"]
        contexts = index.embeddings[rows]
        factor = index._context_factor(weight)[rows]
        pool = context_attend(fmap, contexts, t["ctx_attn.feature_weight"], weight, factor)
        dists = _context_distances(pool.rows, pool.sums, contexts, index._sq_norms[rows])
    # Rows ascend, and item ids with them, so a stable sort by distance
    # breaks ties by item id.
    order = np.argsort(dists, kind="stable")
    return RankedList(index.item_ids[rows[order]], dists[order])


def precision_at_k(
    results: Mapping[int, Sequence[Ranked]],
    truth: Mapping[int, int],
    index: ShopIndex,
    k: int,
) -> float:
    """Fraction of queries with a same-product item in their top k.

    Queries without ground truth are excluded (with a warning count). The
    top k of every scored query map to products through one
    ``index.rows_of`` call, so an item id that is not indexed raises its
    ValueError wherever it ranks.
    """
    _check_range(k, "k", 1)
    top_ids: list[int] = []  # every scored query's top k, one after another
    counts: list[int] = []
    wanted: list[int] = []
    for query_id, ranked in results.items():
        if query_id in truth:
            top = [r.item_id for r in ranked[:k]]
            top_ids += top
            counts.append(len(top))
            wanted.append(truth[query_id])
    excluded = len(results) - len(wanted)
    if excluded:
        logger.warning("%d queries excluded from P@%d (no ground truth)", excluded, k)
    if not wanted:
        raise ValueError("no query has ground truth")
    products = index.product_ids[index.rows_of(top_ids)]
    hit = products == np.repeat(wanted, counts)
    query_of = np.repeat(np.arange(len(wanted)), counts)
    return np.unique(query_of[hit]).size / len(wanted)


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
    before any column is allocated, and ids must fit in int64. A fault of
    ``ShopIndex`` (id order, finite unit rows) is reported at its entry.
    ``channels`` and ``tag_count`` must be integers in [1, 2**32), as in a
    ``ModelConfig``; another value raises a ValueError naming it before the
    file is read.
    """
    _check_range(channels, "channels", 1, 2**32)
    _check_range(tag_count, "tag_count", 1, 2**32)
    reader = Reader(Path(path).read_bytes(), IndexFormatError)
    magic, version, fingerprint, count = reader.unpack(_HEADER, "header")
    if magic != INDEX_MAGIC:
        reader.fail("bad magic", 0)
    if version != INDEX_VERSION:
        reader.fail(f"unsupported version {version}", 4)
    entry = _entry_dtype(channels, (tag_count + 7) // 8)
    entries = reader.array(entry, count, f"{count} entries")
    reader.end()
    # u64 ids of 2**63 or more wrap to negative int64 here.
    item_ids = entries["item_id"].astype(np.int64)
    product_ids = entries["product_id"].astype(np.int64)
    bad = np.flatnonzero((item_ids < 0) | (product_ids < 0))
    if bad.size:
        reader.fail("id does not fit in int64", _HEADER.size + int(bad[0]) * entry.itemsize)
    try:
        return ShopIndex(
            item_ids=item_ids,
            product_ids=product_ids,
            tag_bits=np.array(entries["tags"], dtype=np.uint8),
            embeddings=np.array(entries["embedding"], dtype=np.float64),
            fingerprint=fingerprint,
        )
    except _KeyedError as exc:
        reader.fail(str(exc), _HEADER.size + exc.key * entry.itemsize)
