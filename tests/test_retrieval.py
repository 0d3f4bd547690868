import logging
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xattn import retrieval
from xattn.attention import TagVector
from xattn.model import (
    ModelConfig,
    UnsupportedVariantError,
    Variant,
    embed_shop,
    embed_shops_simple,
    init_params,
    params_fingerprint,
)
from xattn.retrieval import (
    BUILD_ROWS,
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

from mutations import corrupted, non_finite
from oracles import (
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
    params = init_params(config, seed)
    # Positive biases keep a ReLU from zeroing a whole map.
    params.trunk.bias[...] = 0.05
    return params


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


class TestBuildIndex:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, 2 * BLOCK + 3])
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
            if variant >= Variant.TAGYNET:
                want = embed_shop(item.raw, item.tags, params)
            else:
                want = embed_shops_simple(item.raw[None], params)[0]
            np.testing.assert_allclose(index.embeddings[row], want, rtol=0, atol=1e-12)
            naive = naive_shop_embedding(item.raw, item.tags.bits, params)
            np.testing.assert_allclose(index.embeddings[row], naive, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", [Variant.YNET, Variant.TAGYNET])
    @pytest.mark.parametrize("locations", [4, BLOCK_L, BUILD_ROWS + 1])
    def test_blocks_hold_build_rows_locations(self, monkeypatch, variant, locations):
        params = make_params(variant, locations=locations)
        block = block_items(locations)
        sizes = []
        name = "embed_shops" if variant >= Variant.TAGYNET else "embed_shops_simple"
        embed = getattr(retrieval, name)

        def counting(raws, *args):
            sizes.append(len(raws))
            return embed(raws, *args)

        monkeypatch.setattr(retrieval, name, counting)
        build_index(make_items(params, 2 * block + 1, np.random.default_rng(locations)), params)
        assert sizes == [block, block, 1]

    def test_duplicate_item_id_raises(self):
        params = make_params()
        items = make_items(params, 4, np.random.default_rng(0), ids=[5, 9, 5, 2])
        with pytest.raises(ValueError, match="duplicate item id 5"):
            build_index(items, params)

    def test_columns_are_read_only(self):
        params = make_params()
        index = build_index(make_items(params, 3, np.random.default_rng(0)), params)
        with pytest.raises(ValueError):
            index.embeddings[0, 0] = 1.0

    def test_empty(self):
        params = make_params()
        index = build_index([], params)
        assert len(index) == 0 and index.embeddings.shape == (0, params.config.channels)


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
        assert index.product_of(106) == 106 % 7
        # Unknown ids below, between and above the indexed ones.
        for ids, first in (([100, 5, 200], 5), ([101, 100], 101), ([106, 107, 3], 107)):
            with pytest.raises(ValueError, match=f"item id {first} not in index"):
                index.rows_of(ids)
            with pytest.raises(ValueError, match=f"item id {first} not in index"):
                index.product_of(first)


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
        # An in-place update of one tensor is caught too.
        params.ctx_attn.feature_weight[0] += 1e-9
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
        grads = {name: rng.normal(size=t.shape) for name, t in params.named_tensors()}
        sgd_step(params, grads, {}, lr=1e-3, momentum=0.9, frozen=frozen)
        with pytest.raises(FingerprintMismatchError):
            search(index, raw, params)
        with pytest.raises(FingerprintMismatchError):
            search(index, raw, params, use_rerank=False)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_repeated_searches_are_identical(self, variant):
        rng = np.random.default_rng(12)
        params = make_params(variant)
        index = build_index(make_items(params, 30, rng), params)
        use_rerank = variant == Variant.CTXYNET
        for _ in range(3):
            raw = query(params, rng)
            first = search(index, raw, params, k=8, use_rerank=use_rerank)
            for again in (params, params, params.copy()):
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
        params = make_params(Variant.YNET)
        params.trunk.weight[...] = 1e308
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
        products = {i: index.product_of(i) for i in (1, 2, 3, 4)}
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


# ---------------------------------------------------------------------------
# index files
# ---------------------------------------------------------------------------


def saved_index(tmp_path, count=5, variant=Variant.TAGYNET, tags=11):
    params = make_params(variant, tags=tags)
    index = build_index(make_items(params, count, np.random.default_rng(count)), params)
    path = tmp_path / "shop.xidx"
    save_index(path, index)
    return params, index, path


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
        with pytest.raises(ValueError, match="one row per item"):
            ShopIndex(**{**columns, "embeddings": index.embeddings[:2]})
        with pytest.raises(ValueError, match="32 bytes"):
            ShopIndex(**{**columns, "fingerprint": b"short"})
