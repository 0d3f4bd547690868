import dataclasses
import logging
import os
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xattn import retrieval
from xattn.attention import MIN_CONTEXT_SUM, TagVector, context_attend, context_factor
from xattn.dataio import SyntheticSpec, generate_synthetic, load_dataset
from xattn.model import (
    ModelConfig,
    ModelParams,
    UnsupportedVariantError,
    Variant,
    embed_shop,
    extract_features,
    init_params,
    params_fingerprint,
)
from xattn.numeric import l2_normalize, normalize_rows
from xattn.retrieval import (
    BUILD_ROWS,
    SCREEN_RATIO,
    FingerprintMismatchError,
    IndexFormatError,
    Ranked,
    RankedList,
    ShopIndex,
    ShopItem,
    build_index,
    load_index,
    precision_at_k,
    save_index,
    search,
)
from xattn.training import sgd_step

from gradcheck import with_tensors
from mutations import corrupted, non_finite
from oracles import (
    naive_precision_at_k,
    naive_rank,
    naive_shop_embedding,
    naive_user_embedding,
    per_candidate_rerank,
    per_entry_index_bytes,
)

VARIANTS = (Variant.YNET, Variant.TAGYNET, Variant.CTXYNET)


def make_params(variant=Variant.CTXYNET, seed=0, locations=4, channels=5, tags=3, raw_dim=4):
    config = ModelConfig(
        locations=locations, channels=channels, tag_count=tags, raw_dim=raw_dim, variant=variant
    )
    # Positive biases keep a ReLU from zeroing a whole map.
    return with_tensors(init_params(config, seed), {"trunk.bias": 0.05})


def make_items(params, count, rng, ids=None):
    cfg = params.config
    ids = list(range(100, 100 + count)) if ids is None else ids
    return [
        ShopItem(
            item_id=item_id,
            product_id=item_id % 7,
            raw=rng.normal(size=(cfg.locations, cfg.raw_dim)),
            tags=TagVector(bits=rng.integers(0, 2, cfg.tag_count).astype(np.float64)),
        )
        for item_id in ids
    ]


def query(params, rng):
    return rng.normal(size=(params.config.locations, params.config.raw_dim))


def assert_same_ranking(got, want):
    assert [int(r.item_id) for r in got] == [item for item, _ in want]
    np.testing.assert_allclose(got.distances, [d for _, d in want], rtol=0, atol=1e-12)


def assert_same_ranking_up_to_ties(got, want):
    """``assert_same_ranking``, except that a run of ``want`` whose distances
    tie within 1e-12 need only hold the same ids, in any order."""
    want_ids = [item for item, _ in want]
    want_dists = np.array([d for _, d in want])
    np.testing.assert_allclose(got.distances, want_dists, rtol=0, atol=1e-12)
    runs = np.split(np.arange(len(want)), np.flatnonzero(np.diff(want_dists) > 1e-12) + 1)
    for run in runs:
        got_run = [int(got.item_ids[i]) for i in run]
        want_run = [want_ids[i] for i in run]
        assert got_run == want_run or (len(run) > 1 and sorted(got_run) == sorted(want_run))


class TestRankedList:
    def test_sequence_of_ranked(self):
        ranked = RankedList([7, 3, 9], [0.1, 0.2, 0.2])
        assert len(ranked) == 3
        assert ranked[0] == Ranked(7, 0.1) and ranked[-1] == Ranked(9, 0.2)
        assert type(ranked[0].item_id) is int and type(ranked[0].distance) is float
        pairs = [(item, dist) for item, dist in ranked]
        assert pairs == [(7, 0.1), (3, 0.2), (9, 0.2)]
        swapped = list(ranked)
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        assert swapped[0].distance == 0.2
        with pytest.raises(IndexError):
            ranked[3]

    def test_slices_are_ranked_lists(self):
        ranked = RankedList([7, 3, 9], [0.1, 0.2, 0.3])
        head = ranked[:2]
        assert isinstance(head, RankedList) and head == RankedList([7, 3], [0.1, 0.2])
        assert len(ranked[:0]) == 0 and list(ranked[5:]) == []

    def test_equality_is_a_bool(self):
        ranked = RankedList([7, 3], [0.1, 0.2])
        same = ranked == RankedList(np.array([7, 3]), np.array([0.1, 0.2]))
        assert same is True
        assert (ranked == RankedList([3, 7], [0.1, 0.2])) is False
        assert (ranked == RankedList([7, 3], [0.1, 0.25])) is False
        assert (ranked == RankedList([7], [0.1])) is False
        assert ranked == [Ranked(7, 0.1), Ranked(3, 0.2)]
        assert ranked == [(7, 0.1), (3, 0.2)]
        assert ranked != [(7, 0.1)]
        assert ranked != "not a ranking"

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError):
            RankedList([1, 2], [0.1])
        with pytest.raises(TypeError):
            hash(RankedList([1], [0.1]))


def block_items(locations):
    """Items per stacked forward pass of ``build_index`` at grid size L."""
    return max(1, BUILD_ROWS // locations)


# The paper's 7x7 grid.
BLOCK_L = 49
BLOCK = block_items(BLOCK_L)

# Item counts at the block edges, and fixed counts whose test ids stay the
# same when BUILD_ROWS changes.
COUNTS = sorted({1, 7, 8, 19, BLOCK - 1, BLOCK, 2 * BLOCK + 3})


class TestBuildIndex:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("count", COUNTS)
    def test_equals_per_item_embeddings(self, variant, count):
        self.check_per_item_embeddings(variant, count, BLOCK_L)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_grid_larger_than_a_block(self, variant):
        # L > BUILD_ROWS gives one-item blocks.
        self.check_per_item_embeddings(variant, 3, BUILD_ROWS + 1)

    def check_per_item_embeddings(self, variant, count, locations):
        rng = np.random.default_rng(count)
        params = make_params(variant, seed=count, locations=locations)
        items = make_items(params, count, rng, ids=list(rng.permutation(count) * 3 + 11))
        index = build_index(items, params)
        ordered = sorted(items, key=lambda item: item.item_id)
        assert index.item_ids.tolist() == [item.item_id for item in ordered]
        assert index.product_ids.tolist() == [item.product_id for item in ordered]
        for row, item in enumerate(ordered):
            want = embed_shop(item.raw, item.tags, params)
            np.testing.assert_allclose(index.embeddings[row], want, rtol=0, atol=1e-12)
            naive = naive_shop_embedding(item.raw, item.tags.bits, params)
            np.testing.assert_allclose(index.embeddings[row], naive, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", [Variant.YNET, Variant.TAGYNET])
    # BUILD_ROWS // 2 + 1 is the smallest grid with one item per block.
    @pytest.mark.parametrize("locations", [4, BLOCK_L, BUILD_ROWS // 2 + 1, BUILD_ROWS + 1])
    def test_blocks_hold_build_rows_locations(self, monkeypatch, variant, locations):
        params = make_params(variant, locations=locations)
        block = block_items(locations)
        sizes = []
        embed = retrieval.embed_shops

        def counting(raws, bits, params):
            assert len(bits) == len(raws)
            sizes.append(len(raws))
            return embed(raws, bits, params)

        monkeypatch.setattr(retrieval, "embed_shops", counting)
        build_index(make_items(params, 2 * block + 1, np.random.default_rng(locations)), params)
        assert sizes == [block, block, 1]

    def test_duplicate_item_id_raises(self):
        params = make_params()
        items = make_items(params, 4, np.random.default_rng(0), ids=[5, 9, 5, 2])
        with pytest.raises(ValueError, match="increasing: row 2 holds 5 after 5$"):
            build_index(items, params)

    @pytest.mark.parametrize("variant", [Variant.YNET, Variant.TAGYNET])
    @pytest.mark.parametrize("length", [2, 11, 20])
    def test_tag_vector_of_another_length_raises(self, variant, length):
        # 20 tags pack to 3 bytes where the model's 10 take 2, so a saved
        # index would not load; 11 pack to 2 bytes and would load wrong.
        params = make_params(variant, tags=10)
        items = make_items(params, 3, np.random.default_rng(length))
        items[1] = items[1]._replace(tags=TagVector(bits=np.ones(length)))
        with pytest.raises(ValueError, match=f"item {items[1].item_id} has a tag vector"):
            build_index(items, params)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 5), (4,)])
    def test_map_of_another_shape_raises(self, shape):
        params = make_params(Variant.TAGYNET)
        items = make_items(params, 3, np.random.default_rng(9))
        items[2] = items[2]._replace(raw=np.ones(shape))
        with pytest.raises(ValueError, match=f"item {items[2].item_id} has raw features of shape"):
            build_index(items, params)

    def test_columns_are_read_only(self):
        params = make_params()
        index = build_index(make_items(params, 3, np.random.default_rng(0)), params)
        with pytest.raises(ValueError):
            index.embeddings[0, 0] = 1.0

    def test_empty(self, tmp_path):
        for tags in (3, 8, 9):
            params = make_params(tags=tags)
            index = build_index([], params)
            assert len(index) == 0 and index.embeddings.shape == (0, params.config.channels)
            assert index.tag_bits.shape == (0, (tags + 7) // 8) and index.tag_bits.dtype == np.uint8
            save_index(tmp_path / "empty.xidx", index)
            loaded = load_index(tmp_path / "empty.xidx", params.config.channels, tags)
            assert loaded.tag_bits.shape == index.tag_bits.shape and len(loaded) == 0


# (CPUs, MIN_BLOCKS_PER_SHARE, items): one share, two, three, and more CPUs
# than shares or than blocks. Two items per block, the last one short for
# an odd count.
SPLITS = [(1, 4, 40), (2, 4, 40), (3, 4, 41), (64, 4, 40), (64, 1, 41)]


class TestThreadedBuild:
    """``build_index`` splits its blocks into shares, the first on the
    calling thread and the others on a pool, with the serial build's
    blocks, bytes and faults."""

    @pytest.fixture
    def split(self, monkeypatch):
        """Patch the CPU count and the share minimum; make two-item blocks
        at L=4; record the thread that embeds each block, by the block's
        first value. A worker share's blocks are slowed, so that a build
        that did not wait for them would end first."""
        threads = {}
        embed = retrieval.embed_shops
        caller = threading.current_thread()

        def recording(raws, bits, params):
            threads[float(raws[0, 0, 0])] = threading.current_thread()
            if threading.current_thread() is not caller:
                time.sleep(0.001)
            return embed(raws, bits, params)

        def patch(cpus, min_blocks):
            monkeypatch.setattr(retrieval, "_cpus", lambda: cpus)
            monkeypatch.setattr(retrieval, "MIN_BLOCKS_PER_SHARE", min_blocks)
            threads.clear()
            return threads

        monkeypatch.setattr(retrieval, "BUILD_ROWS", 8)
        monkeypatch.setattr(retrieval, "embed_shops", recording)
        return patch

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("cpus, min_blocks, count", SPLITS)
    def test_saves_the_one_share_bytes(self, split, tmp_path, variant, cpus, min_blocks, count):
        params = make_params(variant, seed=count)
        items = make_items(params, count, np.random.default_rng(count))
        split(1, 4)
        save_index(tmp_path / "serial.xidx", build_index(items, params))
        before = threading.active_count()
        threads = split(cpus, min_blocks)
        save_index(tmp_path / "split.xidx", build_index(items, params))
        assert threading.active_count() == before
        assert (tmp_path / "split.xidx").read_bytes() == (tmp_path / "serial.xidx").read_bytes()
        # Each block once, in the shares build_index makes: the caller
        # embeds share 0's blocks and no later one, and each other share
        # runs on one worker thread, of at most shares - 1. A pool may give
        # an idle worker a later share.
        by_block = [threads.pop(float(item.raw[0, 0])) for item in items[::2]]
        assert not threads
        shares = max(1, min(cpus, len(by_block) // min_blocks))
        bounds = [len(by_block) * share // shares for share in range(shares + 1)]
        caller = threading.current_thread()
        assert all(thread is caller for thread in by_block[: bounds[1]])
        assert caller not in by_block[bounds[1] :]
        for lo, hi in zip(bounds[1:], bounds[2:]):
            assert len(set(by_block[lo:hi])) == 1
        assert len(set(by_block[bounds[1] :])) <= shares - 1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_one_share_build_never_counts_the_cpus(self, monkeypatch, tmp_path, variant):
        # Below 2 * MIN_BLOCKS_PER_SHARE blocks a build has one share
        # whatever the CPU count, so it does not ask for the count.
        def no_count():
            raise RuntimeError("the CPU count was asked for")

        params = make_params(variant, seed=75)
        monkeypatch.setattr(retrieval, "BUILD_ROWS", 8)  # two items a block at L=4
        for count in (0, 1, 2, 7, 14):  # 0 to 7 blocks
            items = make_items(params, count, np.random.default_rng(count))
            monkeypatch.setattr(retrieval, "_cpus", lambda: 1)
            save_index(tmp_path / "counted.xidx", build_index(items, params))
            monkeypatch.setattr(retrieval, "_cpus", no_count)
            save_index(tmp_path / "uncounted.xidx", build_index(items, params))
            assert (tmp_path / "uncounted.xidx").read_bytes() == (tmp_path / "counted.xidx").read_bytes()
        # From 8 blocks on, the count decides the shares.
        with pytest.raises(RuntimeError, match="CPU count"):
            build_index(make_items(params, 15, np.random.default_rng(15)), params)

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_empty(self, split, cpus):
        params = make_params()
        split(cpus, 1)
        index = build_index([], params)
        assert len(index) == 0 and index.embeddings.shape == (0, params.config.channels)

    @pytest.mark.parametrize("cpus, min_blocks, count", SPLITS)
    # Each fault alone, and both with either first in item order. At 40
    # items, items 26 and 36 lie in the last share of every split above.
    @pytest.mark.parametrize("faults", [("nan",), ("overflow",), ("nan", "overflow"), ("overflow", "nan")])
    # pytest's filters raise numpy's RuntimeWarning; the caller's errstate
    # must hold in the worker shares too.
    @pytest.mark.parametrize("errstate", [{}, {"over": "raise"}, {"all": "ignore"}])
    def test_a_fault_in_a_worker_share_is_the_serial_builds(self, split, cpus, min_blocks, count, faults, errstate):
        # trunk.weight overflows on any map that is not zero: only the
        # overflow item's rows are not finite.
        params = with_tensors(make_params(Variant.YNET), {"trunk.weight": 1e308})
        items = [item._replace(raw=np.zeros_like(item.raw)) for item in make_items(params, count, np.random.default_rng(0))]
        for row, fault in zip((26, 36), faults):
            raw = np.full_like(items[row].raw, np.nan if fault == "nan" else 1.0)
            items[row] = items[row]._replace(raw=raw)
        split(1, 4)
        with np.errstate(**errstate), pytest.raises(Exception) as serial:
            build_index(items, params)
        before = threading.active_count()
        split(cpus, min_blocks)
        with np.errstate(**errstate), pytest.raises(type(serial.value)) as err:
            build_index(items, params)
        assert err.type is serial.type and str(err.value) == str(serial.value)
        assert threading.active_count() == before
        if errstate == {"all": "ignore"}:  # an overflow fails ShopIndex's check, after the blocks
            faults = [fault for fault in faults if fault == "nan"] or ["row"]
        want = {
            "nan": (ValueError, "raw features must be finite"),
            "row": (ValueError, "embeddings must be finite: row 26 "),
            "overflow": (FloatingPointError if errstate else RuntimeWarning, "overflow encountered"),
        }[faults[0]]
        assert issubclass(err.type, want[0]) and want[1] in str(err.value)

    def test_more_shares_than_cpus_under_frequent_switches(self, split):
        # 41 shares of one block, switching threads every microsecond: a
        # lost or misplaced row would change the embeddings' bits.
        params = make_params(seed=5)
        items = make_items(params, 81, np.random.default_rng(5))
        split(1, 4)
        serial = build_index(items, params)
        split(64, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            index = build_index(items, params)
        finally:
            sys.setswitchinterval(interval)
        assert index.embeddings.tobytes() == serial.embeddings.tobytes()

    def test_cpus(self, monkeypatch):
        assert retrieval._cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert retrieval._cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert retrieval._cpus() == 1


class TestSearch:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_candidate_reference(self, variant, seed):
        rng = np.random.default_rng([seed, int(variant)])
        params = make_params(variant, seed=seed, locations=int(rng.integers(1, 6)))
        items = make_items(params, int(rng.integers(5, 30)), rng)
        index = build_index(items, params)
        embedding_of = dict(zip(index.item_ids.tolist(), index.embeddings))
        raw = query(params, rng)
        k = int(rng.integers(1, len(items) + 3))

        scan = naive_rank(embedding_of.items(), naive_user_embedding(raw, params), k)
        assert_same_ranking(search(index, raw, params, k, use_rerank=False), scan)
        if variant < Variant.CTXYNET:
            return
        want = per_candidate_rerank(raw, [item for item, _ in scan], embedding_of, params)
        assert_same_ranking(search(index, raw, params, k, use_rerank=True), want)

    def test_ties_break_by_item_id(self):
        rng = np.random.default_rng(3)
        params = make_params(Variant.CTXYNET, seed=3)
        base = make_items(params, 3, rng)
        # Four copies of each image under scattered ids: equal embeddings.
        ids = rng.permutation(12) * 5 + 1
        items = [base[i % 3]._replace(item_id=int(item_id)) for i, item_id in enumerate(ids)]
        index = build_index(items, params)
        raw = query(params, rng)
        for use_rerank in (False, True):
            got = search(index, raw, params, k=12, use_rerank=use_rerank)
            keys = list(zip(got.distances.tolist(), got.item_ids.tolist()))
            assert keys == sorted(keys)
            assert len(set(got.distances.tolist())) == 3

    def test_ties_at_the_k_boundary(self):
        rng = np.random.default_rng(4)
        params = make_params(Variant.TAGYNET, seed=4)
        base = make_items(params, 5, rng)
        ids = rng.permutation(20) + 50
        items = [base[i % 5]._replace(item_id=int(item_id)) for i, item_id in enumerate(ids)]
        index = build_index(items, params)
        embedding_of = dict(zip(index.item_ids.tolist(), index.embeddings))
        raw = query(params, rng)
        expected = naive_rank(embedding_of.items(), naive_user_embedding(raw, params), 20)
        for k in range(1, 22):
            assert_same_ranking(search(index, raw, params, k, use_rerank=False), expected[:k])

    def test_k_bounds(self):
        rng = np.random.default_rng(5)
        params = make_params()
        index = build_index(make_items(params, 6, rng), params)
        raw = query(params, rng)
        assert len(search(index, raw, params, k=1)) == 1
        everything = search(index, raw, params, k=100)
        assert sorted(everything.item_ids.tolist()) == index.item_ids.tolist()
        assert everything == search(index, raw, params, k=6)
        for use_rerank in (False, True):
            with pytest.raises(ValueError):
                search(index, raw, params, k=0, use_rerank=use_rerank)
            # Refused before the scan, whose partition needs an integer.
            for k in (2.5, 2.0, "2", None):
                with pytest.raises(ValueError, match=rf"^k must be an integer in \[1, inf\), got {k!r}$"):
                    search(index, raw, params, k=k, use_rerank=use_rerank)
        assert search(index, raw, params, k=np.int64(2)) == search(index, raw, params, k=2)

    def test_empty_index_and_empty_candidates(self):
        rng = np.random.default_rng(6)
        params = make_params()
        raw = query(params, rng)
        empty = build_index([], params)
        # An empty index gives the re-rank an empty candidate pool.
        for use_rerank in (False, True):
            assert search(empty, raw, params, use_rerank=use_rerank) == RankedList([], [])

    def test_unknown_candidate_raises(self):
        rng = np.random.default_rng(7)
        params = make_params()
        index = build_index(make_items(params, 4, rng, ids=[100, 102, 104, 106]), params)
        assert index.rows_of([104, 100]).tolist() == [2, 0]
        assert index.product_ids[index.rows_of([106])].tolist() == [106 % 7]
        # Unknown ids below, between and above the indexed ones.
        for ids, first in (([100, 5, 200], 5), ([101, 100], 101), ([106, 107, 3], 107)):
            with pytest.raises(ValueError, match=f"item id {first} not in index"):
                index.rows_of(ids)


def column_index(embeddings):
    """A bare index over ``embeddings``: the scan reads no other column."""
    n = len(embeddings)
    return ShopIndex(np.arange(n), np.arange(n), np.zeros((n, 1), np.uint8), embeddings, bytes(32))


def nearest_rows(dists, k):
    """The k rows nearest first, ties by row: sorts every row."""
    return np.lexsort((np.arange(len(dists)), dists))[:k]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@st.composite
def screen_cases(draw):
    """An index of N in [1, 300] rows of C in [1, 64] channels and a query,
    all of norm at most 1, as a search sees them. Each row is
    ``normalize_rows`` output for a row of norm 1e-60 to 1e300 (so some
    overflow and some fall below NORM_EPS), some of them scaled down by up
    to 1e-60; there are duplicate rows, rows one ulp apart and zero rows.
    The query is unit, tiny, zero or equal to a row."""
    n = draw(st.integers(1, 300))
    channels = draw(st.one_of(st.just(1), st.integers(1, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # + 0.0 makes -0.0 a 0.0, which rng.uniform would refuse as a high below 0.0.
    low, high = sorted(draw(st.floats(-60, 300)) + 0.0 for _ in range(2))
    rows = rng.normal(size=(n, channels))
    rows *= (10.0 ** rng.uniform(low, high, n) / np.linalg.norm(rows, axis=1))[:, None]
    with np.errstate(over="ignore"):
        rows = normalize_rows(rows).unit
    short = rng.random(n) < draw(st.floats(0, 1))
    rows[short] *= 10.0 ** rng.uniform(-60, 0, (short.sum(), 1))
    for kind in draw(st.lists(st.sampled_from(["duplicate", "ulp", "zero"]), max_size=n)):
        target, source = rng.integers(n, size=2)
        if kind == "duplicate":
            rows[target] = rows[source]
        elif kind == "ulp":
            rows[target] = np.nextafter(rows[source], np.inf)
        else:
            rows[target] = 0.0
    kind = draw(st.sampled_from(["unit", "tiny", "zero", "row"]))
    if kind == "zero":
        q = np.zeros(channels)
    elif kind == "row":
        q = rows[rng.integers(n)].copy()
    else:
        q = l2_normalize(rng.normal(size=channels))
        if kind == "tiny":
            q *= 10.0 ** draw(st.floats(-60, -1))
    return rows, q


class TestScreen:
    @given(screen_cases())
    @settings(max_examples=100, deadline=None)
    def test_candidates_hold_the_exact_top_k(self, case):
        rows, q = case
        index = column_index(rows)
        n = len(index)
        dists = retrieval._distances(index, q)
        for k in range(1, n + 3):
            want = nearest_rows(dists, k)
            candidates = retrieval._candidates(index, q, k)
            if k >= n:
                assert candidates is None
                continue
            assert np.all(np.diff(candidates) > 0)
            assert np.isin(want, candidates).all()
            got = retrieval._distances(index, q, candidates)
            picked = nearest_rows(got, k)
            assert np.array_equal(candidates[picked], want)
            assert np.array_equal(bits(got[picked]), bits(dists[want]))

    @pytest.mark.parametrize("channels", [1, 3, 7, 64, 128, 129])
    def test_distances_do_not_depend_on_the_row_set(self, channels):
        rng = np.random.default_rng(channels)
        index = column_index(l2_normalize(rng.normal(size=(301, channels))))
        q = l2_normalize(rng.normal(size=channels))
        everything = retrieval._distances(index, q)
        for _ in range(100):
            rows = rng.choice(301, size=int(rng.integers(1, 302)), replace=False)
            for subset in (rows, np.sort(rows)):
                assert np.array_equal(bits(retrieval._distances(index, q, subset)), bits(everything[subset]))

    def test_screen_keeps_few_rows_of_unit_embeddings(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(4000, 128))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        index = column_index(rows)
        for _ in range(5):
            q = rng.normal(size=128)
            q /= np.linalg.norm(q)
            assert len(retrieval._candidates(index, q, 20)) < 40

    def test_zero_and_tiny_rows_screen_as_zero(self):
        # The screen is the rows cast to float32: 1e-200 and 1e-160 round
        # to zero there, and a unit row keeps float32's nearest values.
        rows = np.array([[0.0, 0.0], [1e-200, 0.0], [1e-160, 0.0], [0.6, 0.8]])
        index = column_index(rows)
        assert np.array_equal(index._screen, np.float32([[0, 0], [0, 0], [0, 0], [0.6, 0.8]]))
        assert index._screen.dtype == np.float32

    def test_screen_is_built_by_the_first_scan_that_screens(self, tmp_path):
        rng = np.random.default_rng(15)
        params = make_params(Variant.TAGYNET)
        built = build_index(make_items(params, 64, rng), params)
        save_index(tmp_path / "index.xidx", built)
        loaded = load_index(tmp_path / "index.xidx", params.config.channels, params.config.tag_count)
        raw = query(params, rng)
        for index in (built, loaded):
            assert "_screen" not in vars(index)
            # 64 < SCREEN_RATIO * 5: a full scan, which reads no screen.
            full = search(index, raw, params, k=5, use_rerank=False)
            assert "_screen" not in vars(index)
            screened = search(index, raw, params, k=4, use_rerank=False)
            assert "_screen" in vars(index)
            assert screened == full[:4]

    def test_search_prefixes_agree_across_the_screen_boundary(self):
        rng = np.random.default_rng(13)
        params = make_params(Variant.TAGYNET, locations=2, channels=8)
        # 4000 items from 2500 images: many exact ties.
        images = make_items(params, 2500, rng)
        ids = rng.permutation(4000) + 1
        items = [images[i % len(images)]._replace(item_id=int(item_id)) for i, item_id in enumerate(ids)]
        index = build_index(items, params)
        edge = len(index) // SCREEN_RATIO  # the largest screened k
        for _ in range(3):
            raw = query(params, rng)
            ks = (1, 7, 20, edge - 1, edge, edge + 1, edge + 40)
            ranked = {k: search(index, raw, params, k=k, use_rerank=False) for k in ks}
            for j in ks:
                for k in ks[ks.index(j) :]:
                    assert np.array_equal(ranked[k].item_ids[:j], ranked[j].item_ids)
                    assert np.array_equal(bits(ranked[k].distances[:j]), bits(ranked[j].distances))


@st.composite
def pooled_and_contexts(draw):
    """K unnormalised rows with their sums, and K context rows. Each row is
    a pooled row of norm 1e-20 (below NORM_EPS) to 1e3 times its sum, which
    is 1 or from 2^-960 (``MIN_CONTEXT_SUM``) to 50, so the squared norms
    of some rows underflow; the contexts have norms from 0 to 2. Some
    pooled rows or contexts are zero, and some contexts equal the
    normalised pooled row."""
    k = draw(st.integers(1, 40))
    channels = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pooled = rng.normal(size=(k, channels))
    pooled *= (10.0 ** rng.uniform(-20, 3, k) / np.linalg.norm(pooled, axis=1))[:, None]
    contexts = rng.normal(size=(k, channels))
    contexts *= (rng.uniform(0, 2, k) / np.linalg.norm(contexts, axis=1))[:, None]
    for kind in draw(st.lists(st.sampled_from(["zero pooled", "zero context", "match"]), max_size=k)):
        row = rng.integers(k)
        if kind == "zero pooled":
            pooled[row] = 0.0
        elif kind == "zero context":
            contexts[row] = 0.0
        else:
            contexts[row] = l2_normalize(pooled[row])
    sums = np.where(rng.random(k) < draw(st.floats(0, 1)), 1.0, 2.0 ** rng.uniform(-960, np.log2(50), k))
    return pooled * sums[:, None], sums, contexts


class TestRerank:
    @given(pooled_and_contexts())
    @settings(max_examples=200, deadline=None)
    def test_closed_form_distance_equals_the_normalised_difference(self, case):
        rows, sums, contexts = case
        want = np.sum((l2_normalize(rows / sums[:, None]) - contexts) ** 2, axis=1)
        got = retrieval._context_distances(rows, sums, contexts, np.sum(contexts**2, axis=1))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert np.all(got >= 0.0)

    def test_row_whose_squared_norm_overflows(self):
        contexts = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0], [0.8, 0.6]])
        pooled = np.array([[1e200, 0.0], [3.0, 4.0], [1e-20, 2e-20], [-4e300, -3e300]])
        sq_norms, sums = np.ones(4), np.ones(4)
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = retrieval._context_distances(pooled, sums, contexts, sq_norms)
        assert got[0] == 0.0
        np.testing.assert_allclose(got[3], 4.0, rtol=0, atol=1e-15)
        # The other rows have the bits they have without the overflowing ones.
        kept = [1, 2]
        want = retrieval._context_distances(pooled[kept], sums[kept], contexts[kept], sq_norms[kept])
        assert np.array_equal(bits(got[kept]), bits(want))

    def test_rows_whose_squared_norm_underflows(self):
        # Under a sum of 2^-900 every squared norm below underflows to 0 or
        # a subnormal; each row is rescaled first, and its distance is that
        # of the same row under a sum of 1, to rounding. The third row is
        # below the NORM_EPS guard and the fourth is zero: |c|^2 = 1.
        contexts = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0], [0.8, 0.6]])
        pooled = np.array([[2.0, 0.0], [3.0, 4.0], [1e-20, 2e-20], [0.0, 0.0]])
        sq_norms = np.ones(4)
        tiny = np.full(4, 2.0**-900)
        rows = pooled * tiny[:, None]
        assert np.all(np.vecdot(rows, rows) < 2.0**-1022)
        got = retrieval._context_distances(rows, tiny, contexts, sq_norms)
        want = retrieval._context_distances(pooled, np.ones(4), contexts, sq_norms)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(got[[0, 1, 3]], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(got[2], 1.0 - 2 * 2e-8 + 5e-16, rtol=0, atol=1e-15)

    def test_reranks_exactly_the_k_rows_of_the_sorted_scan(self):
        rng = np.random.default_rng(14)
        params = make_params(Variant.CTXYNET, seed=14)
        base = make_items(params, 4, rng)
        # Six copies of each image under scattered ids: ties at most k-th distances.
        ids = rng.permutation(24) * 3 + 10
        items = [base[i % 4]._replace(item_id=int(item_id)) for i, item_id in enumerate(ids)]
        index = build_index(items, params)
        embedding_of = dict(zip(index.item_ids.tolist(), index.embeddings))
        raw = query(params, rng)
        expected = naive_rank(embedding_of.items(), naive_user_embedding(raw, params), 24)
        for k in range(1, 26):
            scan = search(index, raw, params, k, use_rerank=False)
            assert_same_ranking(scan, expected[:k])
            want = per_candidate_rerank(raw, scan.item_ids.tolist(), embedding_of, params)
            assert_same_ranking(search(index, raw, params, k, use_rerank=True), want)


def scaled_heads(params, feature_scale, context_scale):
    """``params`` with both context-attention weights scaled."""
    t = params.tensors
    return with_tensors(
        params,
        {
            "ctx_attn.feature_weight": feature_scale * t["ctx_attn.feature_weight"],
            "ctx_attn.context_weight": context_scale * t["ctx_attn.context_weight"],
        },
    )


class TestContextFactor:
    def test_rows_equal_the_per_query_factor(self):
        # Each term entry is a dot product of C terms, taken in two
        # summation orders, so the two differ by at most B = 2 C u (|w| .
        # |e|), u = 2^-53; the shifted exponent of a row then moves by at
        # most 2 max B, and np.exp adds its own error, a few u, twice.
        rng = np.random.default_rng(61)
        u = 2.0**-53
        differ = 0
        for case in range(60):
            n, locations, channels = (int(rng.integers(1, hi)) for hi in (300, 60, 200))
            k = n if case % 5 == 0 else int(rng.integers(1, n + 1))
            embeddings = rng.normal(size=(n, channels))
            embeddings /= np.linalg.norm(embeddings, axis=1, keepdims=True)
            context_weight = rng.uniform(-1, 1, (locations, channels)) / np.sqrt(channels)
            context_weight *= 10.0 ** rng.uniform(-3, 3)
            rows = np.sort(rng.choice(n, k, replace=False))
            index = column_index(embeddings)
            got = index._context_factor(context_weight)[rows]
            term = embeddings[rows] @ context_weight.T
            want = np.exp(term - term.max(axis=1, keepdims=True))
            shift = 2 * (2 * channels * u * (np.abs(embeddings[rows]) @ np.abs(context_weight).T)).max(axis=1)
            bound = want * (np.expm1(shift)[:, None] + 8 * u)
            assert got.shape == (k, locations)
            assert np.all(np.abs(got - want) <= bound)
            differ += not np.array_equal(got, want)
        # With OpenBLAS many of these shapes differ in the last bits, so the
        # bound above is exercised, not just equality.
        assert differ > 0

    def test_built_once_by_the_first_rerank(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(62)
        params = make_params(Variant.CTXYNET, seed=62)
        weight = params.tensors["ctx_attn.context_weight"]
        index = build_index(make_items(params, 30, rng), params)
        save_index(tmp_path / "shop.xidx", index)
        loaded = load_index(tmp_path / "shop.xidx", params.config.channels, params.config.tag_count)
        made = []
        real = retrieval.context_factor
        monkeypatch.setattr(retrieval, "context_factor", lambda *args: made.append(args) or real(*args))
        for count, built in enumerate((index, loaded), 1):
            assert built._context is None
            search(built, query(params, rng), params, k=8, use_rerank=False)
            assert built._context is None
            search(built, query(params, rng), params, k=8)
            factor = built._context
            assert not factor.flags.writeable
            # Made from the index's own term, by the steps numeric.softmax
            # takes for its numerator: the same bits, a maximum of 1 per row.
            term = built.embeddings @ weight.T
            np.testing.assert_array_equal(factor, np.exp(term - term.max(axis=1, keepdims=True)))
            assert np.all(factor.max(axis=1) == 1.0)
            search(built, query(params, rng), params, k=30)
            search(built, query(params, rng), params, k=3)
            assert built._context is factor
            assert len(made) == count and made[-1][1] is built.embeddings
            with pytest.raises(dataclasses.FrozenInstanceError):
                built._context = None
            with pytest.raises(ValueError, match="read-only"):
                factor[0, 0] = 0.5
        # The index file does not hold the factor.
        save_index(tmp_path / "again.xidx", index)
        assert (tmp_path / "again.xidx").read_bytes() == (tmp_path / "shop.xidx").read_bytes()

    def test_an_in_bound_rerank_calls_no_softmax(self, softmax_calls):
        rng = np.random.default_rng(72)
        params = make_params(Variant.CTXYNET, seed=72)
        index = build_index(make_items(params, 40, rng), params)
        softmax_calls.clear()  # the tag attention of the build
        for k in (1, 7, 40):
            search(index, query(params, rng), params, k=k)
        assert softmax_calls == []

    @pytest.mark.parametrize("feature_scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    @pytest.mark.parametrize("context_scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    def test_reranks_as_the_per_candidate_reference_across_score_ranges(self, feature_scale, context_scale):
        rng = np.random.default_rng(73)
        params = scaled_heads(make_params(Variant.CTXYNET, seed=73), feature_scale, context_scale)
        index = build_index(make_items(params, 30, rng), params)
        embedding_of = dict(zip(index.item_ids.tolist(), index.embeddings))
        for _ in range(4):
            raw = query(params, rng)
            scan = search(index, raw, params, k=12, use_rerank=False)
            want = per_candidate_rerank(raw, scan.item_ids.tolist(), embedding_of, params)
            assert_same_ranking(search(index, raw, params, k=12), want)

    def test_out_of_bound_candidates_rerank_as_the_reference(self, softmax_calls):
        # Heads scaled by 1e4 spread both a and t over thousands, so some
        # candidates' sums fall below MIN_CONTEXT_SUM and take the softmax.
        # Such a head puts all its weight on one location, and where that
        # location's features are all 0 (a ReLU trunk with every unit off),
        # every candidate's distance is |c|^2 = 1 in exact arithmetic: the
        # package orders those ties by rounding and the reference by item
        # id, so within such ties only the set of ids is compared.
        rng = np.random.default_rng(74)
        params = scaled_heads(make_params(Variant.CTXYNET, seed=74), 1e4, 1e4)
        index = build_index(make_items(params, 30, rng), params)
        embedding_of = dict(zip(index.item_ids.tolist(), index.embeddings))
        softmax_calls.clear()  # the tag attention of the build
        for _ in range(6):
            raw = query(params, rng)
            scan = search(index, raw, params, k=30, use_rerank=False)
            want = per_candidate_rerank(raw, scan.item_ids.tolist(), embedding_of, params)
            assert_same_ranking_up_to_ties(search(index, raw, params, k=30), want)
        untrusted = sum(shape[0] for shape in softmax_calls)
        assert len(softmax_calls) <= 6 and 0 < untrusted < 6 * 30

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_never_built_without_a_rerank(self, variant):
        rng = np.random.default_rng(63)
        params = make_params(variant, seed=63)
        index = build_index(make_items(params, 20, rng), params)
        for k in (1, 5, 20):
            search(index, query(params, rng), params, k=k, use_rerank=False)
        assert index._context is None
        if variant < Variant.CTXYNET:
            with pytest.raises(UnsupportedVariantError):
                search(index, query(params, rng), params, use_rerank=True)
            assert index._context is None
        empty = build_index([], params)
        if variant >= Variant.CTXYNET:
            assert search(empty, query(params, rng), params) == RankedList([], [])
        assert empty._context is None

    def test_a_stale_factor_is_never_read(self):
        rng = np.random.default_rng(64)
        params = make_params(Variant.CTXYNET, seed=64)
        other = make_params(Variant.CTXYNET, seed=65)
        index = build_index(make_items(params, 25, rng), params)
        raw = query(params, rng)
        first = search(index, raw, params, k=10)
        kept = index._context

        # A model with another head fails the fingerprint check before the
        # factor is read or made again.
        weight = params.tensors["ctx_attn.context_weight"].copy()
        weight[0, 0] += 0.5
        written = with_tensors(params, {"ctx_attn.context_weight": weight})
        with pytest.raises(FingerprintMismatchError):
            search(index, raw, written, k=10)
        # The fingerprint cannot be rebound to the written model's, so the
        # kept factor still belongs to the model that built the rows.
        with pytest.raises(dataclasses.FrozenInstanceError):
            index.fingerprint = params_fingerprint(written)
        assert index._context is kept
        assert search(index, raw, params, k=10) == first

        # Relabelling makes a new index over the same columns, whose factor
        # is made from the model it names; the original keeps its own.
        embedding_of = dict(zip(index.item_ids.tolist(), index.embeddings))
        for model in (written, other, params):
            relabelled = dataclasses.replace(index, fingerprint=params_fingerprint(model))
            assert relabelled.embeddings is index.embeddings and relabelled._context is None
            got = search(relabelled, raw, model, k=10)
            np.testing.assert_array_equal(
                relabelled._context, context_factor(model.tensors["ctx_attn.context_weight"], index.embeddings)
            )
            scan = search(relabelled, raw, model, k=10, use_rerank=False)
            assert_same_ranking(got, per_candidate_rerank(raw, scan.item_ids.tolist(), embedding_of, model))
            assert (got == first) == (model is params)
        assert index._context is kept


def engineered_rerank(alpha, gamma, magnitude=1.0, count=40, seed=0):
    """A CtxYNet model at L = C = 3 whose user map is the identity, scaled
    by ``magnitude``, an index of ``count`` random unit rows, and the query
    that gives that map. The query's feature scores are ``a = [0, -alpha,
    -alpha]`` and candidate k's context scores ``t_k = [0, beta_k, 0]``,
    ``beta_k = gamma d . c_k`` with ``d`` the unit diagonal. So a candidate
    with ``beta_k > 0`` has the sum ``Z_k = exp(-beta_k) + exp(-alpha) (1 +
    exp(-beta_k))``, which is at least ``exp(-alpha)``, and pools to
    ``magnitude`` times its softmax weights."""
    config = ModelConfig(locations=3, channels=3, tag_count=1, raw_dim=3, variant=Variant.CTXYNET)
    eye = np.eye(3)
    params = with_tensors(
        init_params(config, seed),
        {
            "trunk.weight": eye,
            "trunk.bias": 0.0,
            "branch_user.weight": eye,
            "branch_user.bias": 0.0,
            "ctx_attn.feature_weight": np.array([0.0, -alpha, -alpha]) / magnitude,
            "ctx_attn.context_weight": np.outer([0.0, gamma, 0.0], np.full(3, 3**-0.5)),
        },
    )
    embeddings = l2_normalize(np.random.default_rng(seed).normal(size=(count, 3)))
    ids = np.arange(count) + 100
    index = ShopIndex(ids, ids, np.zeros((count, 1), np.uint8), embeddings, params_fingerprint(params))
    return params, index, magnitude * eye


class TestUnnormalisedRerank:
    """``search`` scores each candidate from its unnormalised row ``R_k`` and
    sum ``Z_k`` and must rank as ``per_candidate_rerank`` does, in and out
    of every guard's range."""

    def check(self, params, index, raw):
        """Check the re-rank of every indexed item against the reference;
        return the ``context_attend`` result over every indexed item, the
        rows and sums that ``search`` scores."""
        t = params.tensors
        weight = t["ctx_attn.context_weight"]
        contexts = index.embeddings
        fmap = extract_features(raw, "user", params)
        pool = context_attend(fmap, contexts, t["ctx_attn.feature_weight"], weight, context_factor(weight, contexts))
        embedding_of = dict(zip(index.item_ids.tolist(), index.embeddings))
        scan = search(index, raw, params, k=len(index), use_rerank=False)
        want = per_candidate_rerank(raw, scan.item_ids.tolist(), embedding_of, params)
        assert_same_ranking(search(index, raw, params, k=len(index)), want)
        return pool

    def test_in_bound_candidates(self, softmax_calls):
        params, index, raw = engineered_rerank(alpha=1.0, gamma=2.0)
        pool = self.check(params, index, raw)
        assert softmax_calls == []
        # Z_k >= exp(-range(a)) = exp(-1) (attention module docstring).
        assert np.all(pool.sums >= np.exp(-1.0)) and np.all(np.vecdot(pool.rows, pool.rows) > 0.1)

    def test_sums_just_above_the_trusted_minimum(self, softmax_calls):
        # exp(-664.9) is 2^-959.3: every sum is trusted, and those of the
        # candidates with beta_k above alpha are within a factor of 3 of
        # MIN_CONTEXT_SUM. Their rows' squared norms underflow to 0.
        params, index, raw = engineered_rerank(alpha=664.9, gamma=1000.0)
        pool = self.check(params, index, raw)
        assert softmax_calls == []
        assert np.all(pool.sums >= MIN_CONTEXT_SUM)
        near = pool.sums < 3 * MIN_CONTEXT_SUM
        assert 0 < near.sum() < len(index)
        assert np.all(np.vecdot(pool.rows[near], pool.rows[near]) == 0.0)

    def test_rows_whose_squared_norm_underflows(self, softmax_calls):
        # Sums near exp(-400) = 2^-577, far above MIN_CONTEXT_SUM, under
        # which a row of norm about 1 has a squared norm of about 2^-1154.
        params, index, raw = engineered_rerank(alpha=400.0, gamma=1000.0)
        pool = self.check(params, index, raw)
        assert softmax_calls == []
        assert np.all(pool.sums > 2.0**-600)
        under = np.vecdot(pool.rows, pool.rows) < 2.0**-1022
        assert 0 < under.sum() < len(index)

    def test_untrusted_candidates(self, softmax_calls):
        # alpha = 700: a candidate with beta_k above 665.4 has a sum below
        # MIN_CONTEXT_SUM and pools the softmax of its exact scores.
        params, index, raw = engineered_rerank(alpha=700.0, gamma=1000.0)
        pool = self.check(params, index, raw)
        assert softmax_calls and softmax_calls[0] == (len(pool.softmaxed[0]), 3)
        assert 0 < len(pool.softmaxed[0]) < len(index)

    def test_rows_whose_squared_norm_overflows(self):
        # A map of 1.5e154 times the identity pools to rows of norm below
        # 1.2e154, whose squares do not overflow, but some sums are near 2,
        # and R_k = Z_k p_k squares past the float64 range.
        params, index, raw = engineered_rerank(alpha=0.5, gamma=1.0, magnitude=1.5e154)
        with pytest.warns(RuntimeWarning, match="overflow"):
            pool = self.check(params, index, raw)
        assert np.all(np.isfinite(np.vecdot(pool.pooled, pool.pooled)))
        with np.errstate(over="ignore"):
            over = np.isinf(np.vecdot(pool.rows, pool.rows))
        assert 0 < over.sum() < len(index)

    def test_one_context_attend_call_per_search_reads_no_quotient(self, monkeypatch, context_pool_reads):
        # The re-rank scores the rows and sums as they are: it never forms
        # the K x C quotients or the K x L weights.
        calls = []
        real = retrieval.context_attend
        monkeypatch.setattr(retrieval, "context_attend", lambda *args: calls.append(real(*args)) or calls[-1])
        rng = np.random.default_rng(76)
        params = make_params(Variant.CTXYNET, seed=76)
        index = build_index(make_items(params, 30, rng), params)
        for count, k in enumerate((1, 12, 30), 1):
            search(index, query(params, rng), params, k=k)
            assert len(calls) == count and calls[-1].rows.shape == (k, params.config.channels)
        search(index, query(params, rng), params, k=5, use_rerank=False)
        assert len(calls) == 3 and context_pool_reads == []

    @pytest.mark.parametrize("seed", [74, 75])
    @pytest.mark.parametrize("scale", [1e3, 1e4])
    def test_ties_of_the_computed_distances(self, seed, scale):
        # Heads this large can put all of a query's weight on a location
        # whose features are all 0 (a ReLU trunk with every unit off), so
        # that every candidate pools to the zero row and its distance is
        # |c|^2 = 1 in exact arithmetic. search sorts such ties by their
        # rounded values, the reference by item id: within runs of the
        # reference tied to 1e-12 only the ids are compared.
        rng = np.random.default_rng(seed)
        params = scaled_heads(make_params(Variant.CTXYNET, seed=seed), scale, scale)
        index = build_index(make_items(params, 30, rng), params)
        embedding_of = dict(zip(index.item_ids.tolist(), index.embeddings))
        tied = 0
        for _ in range(6):
            raw = query(params, rng)
            scan = search(index, raw, params, k=30, use_rerank=False)
            want = per_candidate_rerank(raw, scan.item_ids.tolist(), embedding_of, params)
            assert_same_ranking_up_to_ties(search(index, raw, params, k=30), want)
            tied += int(np.sum(np.diff([d for _, d in want]) <= 1e-12))
        assert tied > 0


class TestImmutableIndex:
    FIELDS = ("item_ids", "product_ids", "tag_bits", "embeddings", "fingerprint")

    def test_no_field_can_be_rebound(self, tmp_path):
        rng = np.random.default_rng(66)
        params = make_params(Variant.CTXYNET, seed=66)
        index = build_index(make_items(params, 12, rng), params)
        save_index(tmp_path / "shop.xidx", index)
        loaded = load_index(tmp_path / "shop.xidx", params.config.channels, params.config.tag_count)
        for built in (index, loaded):
            search(built, query(params, rng), params, k=4)
            for name in (*self.FIELDS, "_sq_norms", "_context"):
                before = getattr(built, name)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(built, name, before)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(built, name)
                assert getattr(built, name) is before
            for name in self.FIELDS[:4]:
                assert not getattr(built, name).flags.writeable
        save_index(tmp_path / "again.xidx", loaded)
        assert (tmp_path / "again.xidx").read_bytes() == (tmp_path / "shop.xidx").read_bytes()

    def test_the_rebinding_faults_fail_at_the_assignment(self):
        # A rebound field would skip the constructor's checks: permuted rows
        # would leave _sq_norms and _screen stale and rank the wrong items,
        # NaN rows would rank nothing or NaN distances without failing, and
        # another model's fingerprint would let that model serve these rows.
        rng = np.random.default_rng(67)
        params = make_params(Variant.CTXYNET, seed=67, channels=8)
        other = make_params(Variant.CTXYNET, seed=68, channels=8)
        index = build_index(make_items(params, 40, rng), params)
        raw = query(params, rng)
        want = {k: search(index, raw, params, k=k, use_rerank=False) for k in (1, 2)}
        for name, value in (
            ("embeddings", index.embeddings[::-1].copy()),
            ("embeddings", np.full_like(index.embeddings, np.nan)),
            ("fingerprint", params_fingerprint(other)),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(index, name, value)
            for k, ranked in want.items():
                assert search(index, raw, params, k=k, use_rerank=False) == ranked
            with pytest.raises(FingerprintMismatchError):
                search(index, raw, other, k=2)
        # replace runs the checks again.
        message = "^index embeddings must be finite: row 0 holds NaN or infinite values$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(index, embeddings=np.full_like(index.embeddings, np.nan))
        with pytest.raises(ValueError, match="^fingerprint must be 32 bytes, got 31$"):
            dataclasses.replace(index, fingerprint=bytes(31))

    def test_columns_are_not_copied(self):
        # The constructor marks the arrays it is given read-only; a column
        # of another dtype is converted first.
        rows = l2_normalize(np.random.default_rng(69).normal(size=(5, 3)))
        item_ids = np.arange(5, dtype=np.int64)
        tag_bits = np.zeros((5, 1), np.uint8)
        index = ShopIndex(item_ids, np.arange(5, dtype=np.int32), tag_bits, rows, bytes(32))
        assert index.embeddings is rows and index.item_ids is item_ids and index.tag_bits is tag_bits
        for given in (rows, item_ids, tag_bits):
            assert not given.flags.writeable
        assert index.product_ids.dtype == np.int64 and not index.product_ids.flags.writeable


class TestChecks:
    def test_fingerprint_mismatch(self):
        rng = np.random.default_rng(8)
        params = make_params(seed=1)
        index = build_index(make_items(params, 4, rng), params)
        raw = query(params, rng)
        other = make_params(seed=2)
        for use_rerank in (False, True):
            with pytest.raises(FingerprintMismatchError):
                search(index, raw, other, use_rerank=use_rerank)
        # So is a model that differs from the indexing one in one entry.
        weight = params.tensors["ctx_attn.feature_weight"].copy()
        weight[0] += 1e-9
        params = with_tensors(params, {"ctx_attn.feature_weight": weight})
        for use_rerank in (False, True):
            with pytest.raises(FingerprintMismatchError):
                search(index, raw, params, use_rerank=use_rerank)

    @pytest.mark.parametrize("frozen", [(), ("trunk.weight", "trunk.bias", "branch_shop.weight")])
    def test_sgd_step_on_the_indexed_params_is_caught(self, frozen):
        rng = np.random.default_rng(11)
        params = make_params()
        index = build_index(make_items(params, 4, rng), params)
        raw = query(params, rng)
        search(index, raw, params)
        grads = {
            name: rng.normal(size=t.shape)
            for name, t in params.named_tensors()
            if name not in frozen
        }
        stepped = sgd_step(params, grads, {}, lr=1e-3, momentum=0.9)
        with pytest.raises(FingerprintMismatchError):
            search(index, raw, stepped)
        with pytest.raises(FingerprintMismatchError):
            search(index, raw, stepped, use_rerank=False)
        # The params the index was built with are as they were.
        search(index, raw, params)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_repeated_searches_are_identical(self, variant):
        rng = np.random.default_rng(12)
        params = make_params(variant)
        index = build_index(make_items(params, 30, rng), params)
        use_rerank = variant == Variant.CTXYNET
        for _ in range(3):
            raw = query(params, rng)
            first = search(index, raw, params, k=8, use_rerank=use_rerank)
            for again in (params, params, ModelParams(params.config, params.tensors)):
                assert search(index, raw, again, k=8, use_rerank=use_rerank) == first
        assert index.fingerprint == params_fingerprint(params)

    @pytest.mark.parametrize("variant", [Variant.YNET, Variant.TAGYNET])
    def test_rerank_needs_context_head_before_scanning(self, variant, monkeypatch):
        rng = np.random.default_rng(9)
        params = make_params(variant)
        index = build_index(make_items(params, 4, rng), params)
        raw = query(params, rng)

        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before the variant check")

        monkeypatch.setattr(retrieval, "_scan", no_scan)
        monkeypatch.setattr(retrieval, "extract_features", no_scan)
        with pytest.raises(UnsupportedVariantError):
            search(index, raw, params, use_rerank=True)

    @pytest.mark.parametrize(
        "variant, use_rerank",
        [(Variant.YNET, False), (Variant.TAGYNET, False), (Variant.CTXYNET, False), (Variant.CTXYNET, True)],
        ids=["ynet", "tagynet", "ctxynet-scan", "ctxynet-rerank"],
    )
    def test_non_finite_query_raises(self, variant, use_rerank):
        rng = np.random.default_rng(10)
        params = make_params(variant)
        index = build_index(make_items(params, 4, rng), params)
        raw = query(params, rng)
        raw[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            search(index, raw, params, use_rerank=use_rerank)

    def test_overflowing_params_cannot_build_an_index(self):
        params = with_tensors(make_params(Variant.YNET), {"trunk.weight": 1e308})
        items = make_items(params, 3, np.random.default_rng(12))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="embeddings must be finite"):
            build_index(items, params)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_non_finite_item_raises(self, variant):
        params = make_params(variant)
        items = make_items(params, 3, np.random.default_rng(11))
        items[1].raw[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            build_index(items, params)


class TestPrecisionAtK:
    def test_excludes_queries_without_truth(self, caplog):
        params = make_params()
        index = build_index(make_items(params, 4, np.random.default_rng(0), ids=[1, 2, 3, 4]), params)
        products = dict(zip(index.item_ids.tolist(), index.product_ids.tolist()))
        results = {
            10: RankedList([1, 2], [0.1, 0.2]),  # hit at rank 1
            11: RankedList([3, 4], [0.1, 0.2]),  # hit at rank 2
            12: RankedList([1, 2], [0.1, 0.2]),  # no ground truth
        }
        truth = {10: products[1], 11: products[4]}
        with caplog.at_level(logging.WARNING, logger="xattn.retrieval"):
            assert precision_at_k(results, truth, index, 1) == 0.5
        assert "1 queries excluded" in caplog.text
        assert precision_at_k(results, truth, index, 2) == 1.0
        with pytest.raises(ValueError):
            precision_at_k({12: results[12]}, truth, index, 1)
        with pytest.raises(ValueError):
            precision_at_k(results, truth, index, 0)
        for k in (1.5, 1.0, "1"):
            with pytest.raises(ValueError, match=rf"^k must be an integer in \[1, inf\), got {k!r}$"):
                precision_at_k(results, truth, index, k)

    def test_matches_the_per_entry_count_with_one_rows_of_call(self, monkeypatch):
        rng = np.random.default_rng(66)
        params = make_params()
        ids = (rng.permutation(60)[:40] * 3 + 5).tolist()
        index = build_index(make_items(params, 40, rng, ids=ids), params)
        product_of = dict(zip(index.item_ids.tolist(), index.product_ids.tolist()))
        calls = []
        rows_of = ShopIndex.rows_of
        monkeypatch.setattr(ShopIndex, "rows_of", lambda self, i: calls.append(1) or rows_of(self, i))
        for trial in range(30):
            results = {}
            for query_id in range(int(rng.integers(1, 12))):
                ranked = rng.permutation(index.item_ids)[: int(rng.integers(0, 15))]
                dists = np.sort(rng.uniform(size=len(ranked)))
                # search returns a RankedList; any sequence of Ranked is read too.
                results[query_id] = (
                    RankedList(ranked, dists)
                    if trial % 2
                    else [Ranked(int(i), float(d)) for i, d in zip(ranked, dists)]
                )
            truth = {q: int(rng.integers(7)) for q in results if rng.random() < 0.8}
            if not truth:
                continue
            ranked_ids = {q: [int(r[0]) for r in ranked] for q, ranked in results.items()}
            for k in (1, 3, 20):
                calls.clear()
                got = precision_at_k(results, truth, index, k)
                assert got == naive_precision_at_k(ranked_ids, product_of, truth, k)
                assert len(calls) == 1
        with pytest.raises(ValueError, match="item id 4 not in index"):
            precision_at_k({0: RankedList([ids[0], 4], [0.0, 1.0])}, {0: product_of[ids[0]]}, index, 2)


# ---------------------------------------------------------------------------
# index files
# ---------------------------------------------------------------------------


def saved_index(tmp_path, count=5, variant=Variant.TAGYNET, tags=11):
    params = make_params(variant, tags=tags)
    index = build_index(make_items(params, count, np.random.default_rng(count)), params)
    path = tmp_path / "shop.xidx"
    save_index(path, index)
    return params, index, path


@pytest.mark.parametrize("variant", VARIANTS)
def test_loaded_float32_maps_index_and_rank_as_float64_copies(tmp_path, variant):
    # The build widens load_dataset's float32 maps in its block buffer and
    # the query trunk widens the query map, both exactly: the saved index
    # has the bytes of one built from float64 copies, and each search
    # returns the same list.
    spec = SyntheticSpec(products=20, holdout_products=0, locations=BLOCK_L, signal_locations=7, seed=3)
    generate_synthetic(spec, tmp_path)
    dataset = load_dataset(tmp_path / "train")
    params = make_params(variant, locations=spec.locations, channels=spec.channels, tags=spec.tag_count, raw_dim=spec.raw_dim)
    indexes = []
    for widen in (False, True):
        items = [
            ShopItem(r.item_id, r.product_id, dataset.features[r.item_id], dataset.tag_vector(r))
            for r in dataset.shop_records()
        ]
        if widen:
            items = [item._replace(raw=item.raw.astype(np.float64)) for item in items]
        assert {item.raw.dtype for item in items} == {np.dtype(np.float64 if widen else np.float32)}
        index = build_index(items, params)
        save_index(tmp_path / f"{widen}.xidx", index)
        indexes.append(index)
    assert len(items) > 2 * BLOCK
    assert (tmp_path / "False.xidx").read_bytes() == (tmp_path / "True.xidx").read_bytes()
    for record in dataset.user_records()[:10]:
        fmap = dataset.features[record.item_id]
        # k=2 scans through the float32 screen (16 k <= N), k=N scores every row.
        for k, use_rerank in ((2, False), (len(items), variant >= Variant.CTXYNET)):
            got = search(indexes[0], fmap, params, k=k, use_rerank=use_rerank)
            want = search(indexes[1], fmap.astype(np.float64), params, k=k, use_rerank=use_rerank)
            assert got == want


class TestIndexFile:
    @pytest.mark.parametrize("count", [0, 1, 9])
    @pytest.mark.parametrize("tags", [1, 8, 11])
    def test_bytes_match_the_per_entry_writer(self, tmp_path, count, tags):
        params, index, path = saved_index(tmp_path, count, tags=tags)
        bits = np.unpackbits(index.tag_bits, axis=1, count=tags, bitorder="little")
        entries = list(zip(index.item_ids.tolist(), index.product_ids.tolist(), bits, index.embeddings))
        assert path.read_bytes() == per_entry_index_bytes(index.fingerprint, entries)

    def test_round_trip(self, tmp_path):
        params, index, path = saved_index(tmp_path)
        loaded = load_index(path, params.config.channels, params.config.tag_count)
        for column in ("item_ids", "product_ids", "tag_bits", "embeddings"):
            np.testing.assert_array_equal(getattr(loaded, column), getattr(index, column))
        assert loaded.fingerprint == index.fingerprint
        resaved = tmp_path / "again.xidx"
        save_index(resaved, loaded)
        assert resaved.read_bytes() == path.read_bytes()
        raw = query(params, np.random.default_rng(1))
        assert search(loaded, raw, params, k=3, use_rerank=False) == search(index, raw, params, k=3, use_rerank=False)

    @pytest.mark.parametrize("argument", ["channels", "tag_count"])
    @pytest.mark.parametrize("value", [0, -1, 1.5])
    def test_sizes_outside_the_model_config_range_are_refused(self, tmp_path, argument, value):
        # The ModelConfig rule, checked before the file is read: a 0 would
        # read entries of another size, and -1 would reach numpy's dtype.
        params, _, path = saved_index(tmp_path)
        sizes = {"channels": params.config.channels, "tag_count": params.config.tag_count}
        message = rf"^{argument} must be an integer in \[1, 4294967296\), got {value}$"
        with pytest.raises(ValueError, match=message):
            load_index(path, **{**sizes, argument: value})

    def test_trailing_bytes(self, tmp_path):
        params, _, path = saved_index(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(IndexFormatError, match="trailing"):
            load_index(path, params.config.channels, params.config.tag_count)

    @pytest.mark.parametrize("count", [2**64 - 1, 2**61, 2**40])
    def test_huge_entry_count_is_a_format_error(self, tmp_path, count):
        params, _, path = saved_index(tmp_path)
        data = bytearray(path.read_bytes())
        data[40:48] = struct.pack("<Q", count)
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="truncated"):
            load_index(path, params.config.channels, params.config.tag_count)

    def test_header_faults(self, tmp_path):
        params, _, path = saved_index(tmp_path)
        data = path.read_bytes()
        dims = (params.config.channels, params.config.tag_count)
        path.write_bytes(b"NOPE" + data[4:])
        with pytest.raises(IndexFormatError, match="magic"):
            load_index(path, *dims)
        path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
        with pytest.raises(IndexFormatError, match="version 2"):
            load_index(path, *dims)

    def test_id_faults(self, tmp_path):
        params, index, path = saved_index(tmp_path, count=3)
        data = path.read_bytes()
        dims = (params.config.channels, params.config.tag_count)
        size = (len(data) - 48) // 3
        second = 48 + size
        path.write_bytes(data[:second] + struct.pack("<Q", 2**63) + data[second + 8 :])
        with pytest.raises(IndexFormatError, match="int64") as err:
            load_index(path, *dims)
        assert err.value.offset == second
        path.write_bytes(data[:second] + data[48:56] + data[second + 8 :])
        with pytest.raises(IndexFormatError, match="increasing") as err:
            load_index(path, *dims)
        assert err.value.offset == second

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_embedding(self, tmp_path, value):
        params, _, path = saved_index(tmp_path, count=3)
        data = bytearray(path.read_bytes())
        size = (len(data) - 48) // 3
        data[48 + 2 * size - 8 : 48 + 2 * size] = struct.pack("<d", value)  # entry 1's last channel
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="NaN or infinite") as err:
            load_index(path, params.config.channels, params.config.tag_count)
        assert err.value.offset == 48 + size

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_non_finite_payload_raises_format_error(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("fuzz")
        params, _, path = saved_index(directory, count=3, tags=3)
        channels, original = params.config.channels, path.read_bytes()
        size = (len(original) - 48) // 3
        # Each entry: ids (16 bytes), one byte of tag bits, the embedding.
        offsets = [48 + e * size + 17 + 8 * c for e in range(3) for c in range(channels)]
        damaged = data.draw(non_finite(original, offsets))
        path.write_bytes(damaged)
        at = next(o for o in offsets if damaged[o : o + 8] != original[o : o + 8])
        with pytest.raises(IndexFormatError, match="NaN or infinite") as err:
            load_index(path, channels, params.config.tag_count)
        assert err.value.offset == at - (at - 48) % size

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_corrupted_bytes_load_or_raise_format_error(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("fuzz")
        params, _, path = saved_index(directory, count=2, tags=3)
        path.write_bytes(data.draw(corrupted(path.read_bytes())))
        dims = (params.config.channels, params.config.tag_count)
        try:
            loaded = load_index(path, *dims)
        except IndexFormatError:
            return
        again = directory / "again.xidx"
        save_index(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("scale", [1 + 2.0**-19, 2.0, 1e200])
    def test_rows_longer_than_a_unit_embedding_are_refused(self, tmp_path, scale):
        params, index, path = saved_index(tmp_path, count=3)
        channels, tags = params.config.channels, params.config.tag_count
        assert np.all(index._sq_norms <= retrieval.MAX_SQ_NORM)
        longer = index.embeddings.copy()
        longer[1] *= scale
        message = r"index row 1 has squared norm .*, above .*: rows must be unit embeddings"
        # At 1e200 the squared norm overflows to inf, which is refused too.
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=f"^{message}$"):
            ShopIndex(index.item_ids, index.product_ids, index.tag_bits, longer, index.fingerprint)
        # The same row in a file: entry 1's embedding is its last 8 C bytes.
        data = bytearray(path.read_bytes())
        size = (len(data) - 48) // 3
        data[48 + 2 * size - 8 * channels : 48 + 2 * size] = longer[1].astype("<f8").tobytes()
        path.write_bytes(bytes(data))
        with np.errstate(over="ignore"), pytest.raises(IndexFormatError, match=message) as err:
            load_index(path, channels, tags)
        assert err.value.offset == 48 + size

    def test_negative_ids_cannot_be_saved(self, tmp_path):
        params = make_params()
        index = build_index(make_items(params, 2, np.random.default_rng(0), ids=[-3, 4]), params)
        with pytest.raises(ValueError, match="non-negative"):
            save_index(tmp_path / "neg.xidx", index)
        assert not (tmp_path / "neg.xidx").exists()

    def test_shop_index_validates_columns(self):
        params = make_params()
        index = build_index(make_items(params, 3, np.random.default_rng(0)), params)
        columns = dict(
            item_ids=index.item_ids,
            product_ids=index.product_ids,
            tag_bits=index.tag_bits,
            embeddings=index.embeddings,
            fingerprint=index.fingerprint,
        )
        with pytest.raises(ValueError, match="increasing"):
            ShopIndex(**{**columns, "item_ids": index.item_ids[::-1]})
        # Ids across the whole int64 range increase: no difference of two
        # ids, which would wrap, is taken.
        extremes = np.array([-(2**63), 0, 2**63 - 1])
        assert ShopIndex(**{**columns, "item_ids": extremes}).rows_of([2**63 - 1]).tolist() == [2]
        with pytest.raises(ValueError, match="one row per item"):
            ShopIndex(**{**columns, "embeddings": index.embeddings[:2]})
        with pytest.raises(ValueError, match="32 bytes"):
            ShopIndex(**{**columns, "fingerprint": b"short"})

    def test_a_column_of_the_wrong_rank_is_refused_before_its_length_is_taken(self):
        # A 0-d column has no len(): its rank is checked first.
        params = make_params()
        index = build_index(make_items(params, 3, np.random.default_rng(0)), params)
        columns = dict(
            item_ids=index.item_ids,
            product_ids=index.product_ids,
            tag_bits=index.tag_bits,
            embeddings=index.embeddings,
            fingerprint=index.fingerprint,
        )
        for name, value in (
            ("item_ids", 5),
            ("product_ids", 5),
            ("tag_bits", index.tag_bits[:, 0]),
            ("embeddings", index.embeddings[0, 0]),
        ):
            with pytest.raises(ValueError, match="^index columns must hold one row per item$"):
                ShopIndex(**{**columns, name: value})

    @pytest.mark.parametrize("value", [[[-1]], [[256]], np.array([[-1]]), [[0.5]], [["1"]], [[None]]])
    def test_tag_bytes_must_convert_exactly(self, value):
        rows = l2_normalize(np.ones((1, 3)))
        with pytest.raises(ValueError, match="^index column tag_bits does not convert exactly to uint8$"):
            ShopIndex([1], [1], value, rows, bytes(32))

    @pytest.mark.parametrize("name", ["item_ids", "product_ids"])
    @pytest.mark.parametrize("value", [[1.7], [np.nan], [2**63], [2**70], np.array([2**63], np.uint64), ["1"]])
    def test_ids_must_convert_exactly(self, name, value):
        columns = dict(item_ids=[1], product_ids=[1], tag_bits=[[0]], embeddings=l2_normalize(np.ones((1, 3))))
        with pytest.raises(ValueError, match=rf"^index column {name} does not convert exactly to int64$"):
            ShopIndex(**{**columns, name: value}, fingerprint=bytes(32))
        # Values that convert exactly are kept.
        exact = ShopIndex(**{**columns, name: [1.0]}, fingerprint=bytes(32))
        assert getattr(exact, name).tolist() == [1]

    def test_fingerprint_is_kept_as_32_bytes(self, tmp_path):
        # The fingerprint keys the context term and is saved as 32 raw
        # bytes, so a str of 32 characters is refused, and a bytearray is
        # copied rather than kept mutable.
        params = make_params()
        index = build_index(make_items(params, 3, np.random.default_rng(0)), params)
        columns = dict(
            item_ids=index.item_ids,
            product_ids=index.product_ids,
            tag_bits=index.tag_bits,
            embeddings=index.embeddings,
        )
        with pytest.raises(ValueError, match="^fingerprint must be 32 bytes, got a str$"):
            ShopIndex(**columns, fingerprint="f" * 32)
        with pytest.raises(ValueError, match="^fingerprint must be 32 bytes, got 31$"):
            ShopIndex(**columns, fingerprint=index.fingerprint[:31])
        mutable = bytearray(index.fingerprint)
        for value in (mutable, memoryview(mutable)):
            built = ShopIndex(**columns, fingerprint=value)
            assert type(built.fingerprint) is bytes and built.fingerprint == index.fingerprint
            mutable[0] ^= 0xFF
            assert built.fingerprint == index.fingerprint
            mutable[0] ^= 0xFF
            save_index(tmp_path / "index.xidx", built)
            assert (tmp_path / "index.xidx").read_bytes()[8:40] == index.fingerprint
