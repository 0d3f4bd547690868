import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xattn import model
from xattn.attention import (
    MIN_CONTEXT_SUM,
    AttentionResult,
    TagVector,
    context_attend,
    context_attend_backward,
    context_factor,
    tag_attend,
    tag_attend_backward,
    tag_embed,
)
from xattn.model import ModelConfig, Variant, forward_triple, init_params
from xattn.numeric import normalize_rows

from gradcheck import finite_diff_grad
from oracles import naive_context_attend, naive_tag_attend

# Frozen from a 50-digit evaluation of exp(2)/(exp(2)+1) and friends.
W0 = 0.8807970779778824
W1 = 0.1192029220221176


def random_instance(rng, locations=None, channels=None, tags=None):
    """An L x C map, a 1 x T row of tag bits, a T x C tag embedding, a 1 x C
    context and the (feature_weight, context_weight) pair. Tag attention
    pools the map as the stack ``fmap[None]``."""
    locations = locations or int(rng.integers(1, 8))
    channels = channels or int(rng.integers(1, 7))
    tags = tags or int(rng.integers(1, 6))
    fmap = rng.normal(size=(locations, channels))
    bits = rng.integers(0, 2, size=(1, tags)).astype(np.float64)
    embedding = rng.normal(size=(tags, channels))
    ctx = rng.normal(size=(1, channels))
    ctx_weights = (rng.normal(size=channels), rng.normal(size=(locations, channels)))
    return fmap, bits, embedding, ctx, ctx_weights


def attend_stack(fmap, contexts, feature_weight, context_weight):
    """``context_attend`` of an L x C map under a K x C stack of contexts,
    with the K x L context factor formed as ``model.forward_triple`` forms
    it."""
    factor = context_factor(context_weight, contexts)
    return context_attend(fmap, contexts, feature_weight, context_weight, factor)


class TestTypes:
    def test_tag_vector_binary_only(self):
        with pytest.raises(ValueError):
            TagVector(bits=np.array([0.0, 0.5]))
        vec = TagVector.from_ids([0, 2], size=4)
        np.testing.assert_array_equal(vec.bits, [1, 0, 1, 0])
        with pytest.raises(ValueError):
            TagVector.from_ids([4], size=4)

    def test_tag_vector_holds_one_non_empty_tag_set(self):
        # A stack of tag sets is a plain B x T array; a TagVector is one row.
        for shape in ((2, 3), (1, 3), (3, 1), (0,), (), (1, 1, 3)):
            message = rf"^tag vector must be non-empty and 1-D, got shape {re.escape(str(shape))}$"
            with pytest.raises(ValueError, match=message):
                TagVector(bits=np.zeros(shape))
        with pytest.raises(ValueError, match=r"^tag vector must be non-empty and 1-D, got shape \(0,\)$"):
            TagVector.from_ids([], size=0)

    def test_tag_vector_bits_that_are_not_an_array(self):
        for bits in ([0.0, 1.0], (1, 0, 1), [True, False]):
            tags = TagVector(bits=bits)
            assert tags.bits.dtype == np.float64
            np.testing.assert_array_equal(tags.bits, np.array(bits, dtype=np.float64))
        for bits, name in (({0: 1.0}, "dict"), ("ab", "str"), ([[0.0], [1.0, 0.0]], "list")):
            with pytest.raises(ValueError, match=rf"^tag vector bits must be numbers, got a {name}$"):
                TagVector(bits=bits)
        # A str of one digit and None become 0-d arrays; a nested list a 2-D one.
        for bits, shape in (("1", ()), (None, ()), ([[0.0, 1.0]], (1, 2))):
            message = rf"^tag vector must be non-empty and 1-D, got shape {re.escape(str(shape))}$"
            with pytest.raises(ValueError, match=message):
                TagVector(bits=bits)

    def test_tag_vector_ids_and_size_must_be_integers(self):
        for tag_id in (1.5, 1.0, "1", None, np.float64(1.0)):
            with pytest.raises(ValueError, match=r"^tag id must be an integer in \[0, 3\), got .*$"):
                TagVector.from_ids([tag_id], 3)
        for tag_id in (-1, 3):
            with pytest.raises(ValueError, match=rf"^tag id must be an integer in \[0, 3\), got {tag_id}$"):
                TagVector.from_ids([tag_id], 3)
        np.testing.assert_array_equal(TagVector.from_ids([np.int64(2), True], 3).bits, [0, 1, 1])
        for size in (2.5, "3", None):
            message = rf"^tag vector size must be an integer in \[0, inf\), got {re.escape(repr(size))}$"
            with pytest.raises(ValueError, match=message):
                TagVector.from_ids([], size)

    def test_tag_vector_size_must_not_be_negative(self):
        # np.zeros(-1) would raise its own "negative dimensions" error.
        with pytest.raises(ValueError, match=r"^tag vector size must be an integer in \[0, inf\), got -1$"):
            TagVector.from_ids([1], -1)

    def test_tag_vector_keeps_a_read_only_copy(self):
        source = np.array([0.0, 1.0, 0.0])
        tags = TagVector(bits=source)
        assert tags.bits is not source and not tags.bits.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tags.bits[0] = 0.5
        source[0] = 0.5  # would break the 0/1 rule, had the vector kept the source
        np.testing.assert_array_equal(tags.bits, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            tags.bits.flags.writeable = True

    def test_context_params_validation(self):
        fmap, contexts, weight = np.zeros((2, 3)), np.zeros((1, 3)), np.zeros((2, 3))
        factor = context_factor(weight, contexts)
        for feature_weight in (np.zeros(4), np.zeros((1, 3)), np.zeros(())):
            with pytest.raises(ValueError, match="feature_weight must be a C vector"):
                context_attend(fmap, contexts, feature_weight, weight, factor)
        for bad in (np.zeros(2), np.zeros((2, 1, 1)), np.zeros((1, 3)), factor.T):
            with pytest.raises(ValueError, match="context factor must be K x L"):
                context_attend(fmap, contexts, np.zeros(3), weight, bad)
        for bad_contexts, bad_weight in ((contexts[0], weight), (np.zeros((1, 4)), weight), (contexts, weight.T)):
            with pytest.raises(ValueError, match="K x C stack of contexts and an L x C context_weight"):
                context_attend(fmap, bad_contexts, np.zeros(3), bad_weight, factor)
        for bad_contexts, bad_weight in ((contexts[0], weight), (np.zeros((1, 4)), weight), (contexts, weight[0])):
            with pytest.raises(ValueError, match="K x C stack of contexts and an L x C context_weight"):
                context_factor(bad_weight, bad_contexts)
        attended = context_attend(fmap, contexts, np.zeros(3), weight, factor)
        np.testing.assert_array_equal(attended.weights, [[0.5, 0.5]])


class TestTagEmbed:
    def test_no_active_tags(self):
        embedding = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(
            tag_embed(TagVector.from_ids([], 3).bits, embedding), [0.0, 0.0]
        )

    def test_one_hot_selects_row(self):
        embedding = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(
            tag_embed(TagVector.from_ids([1], 3).bits, embedding), [2.0, 3.0]
        )

    def test_sum_of_rows(self):
        embedding = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(
            tag_embed(TagVector.from_ids([0, 1], 2).bits, embedding), [1.0, 1.0]
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tag_embed(TagVector.from_ids([], 2).bits, np.zeros((3, 2)))

    def test_embedding_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="T x C matrix"):
            tag_embed(TagVector.from_ids([0], 2).bits, np.zeros(2))


def one_tag_row(tag_ids, size):
    """The 1 x T tag bits of one tag set: a stack of one."""
    return TagVector.from_ids(tag_ids, size).bits[None]


class TestTagAttend:
    def test_constant_map_uniform_weights(self):
        row = np.array([1.5, -2.0, 0.25])
        fmap = np.tile(row, (1, 4, 1))
        result = tag_attend(fmap, one_tag_row([0], 2), np.ones((2, 3)))
        np.testing.assert_allclose(result.weights, np.full((1, 4), 0.25), atol=1e-15)
        np.testing.assert_allclose(result.pooled, [row], atol=1e-15)

    def test_zero_tags_gives_column_mean(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(1, 5, 3))
        result = tag_attend(data, one_tag_row([], 2), rng.normal(size=(2, 3)))
        np.testing.assert_allclose(result.weights, np.full((1, 5), 0.2), atol=1e-15)
        np.testing.assert_allclose(result.pooled, data.mean(axis=1), atol=1e-12)

    def test_frozen_hand_case(self):
        # scores come out as [2, 0]; weights/pooled frozen from extended
        # precision evaluation.
        fmap = np.array([[[2.0, 0.0], [0.0, 2.0]]])
        embedding = np.array([[1.0, 0.0], [0.0, 1.0]])
        result = tag_attend(fmap, one_tag_row([0], 2), embedding)
        np.testing.assert_allclose(result.weights, [[W0, W1]], atol=1e-12)
        np.testing.assert_allclose(
            result.pooled, [[1.7615941559557649, 0.2384058440442351]], atol=1e-12
        )

    def test_dimension_mismatch(self):
        fmap = np.zeros((1, 2, 3))
        with pytest.raises(ValueError):
            tag_attend(fmap, one_tag_row([], 2), np.zeros((2, 4)))

    def test_a_single_map_is_refused(self):
        # Only stacks are pooled: one L x C map is the stack fmap[None].
        fmap, bits, embedding, _, _ = random_instance(np.random.default_rng(3))
        with pytest.raises(ValueError, match="B x L x C stack"):
            tag_attend(fmap, bits[0], embedding)
        with pytest.raises(ValueError, match="B x L x C stack"):
            tag_attend(fmap[None], bits[0], embedding)
        with pytest.raises(ValueError, match="B x L x C stack"):
            tag_attend(np.stack([fmap, fmap]), bits, embedding)
        assert tag_attend(fmap[None], bits, embedding).pooled.shape == (1, fmap.shape[1])


class TestContextAttend:
    def test_zero_params_uniform(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(6, 4))
        result = attend_stack(data, rng.normal(size=(1, 4)), np.zeros(4), np.zeros((6, 4)))
        np.testing.assert_allclose(result.weights, np.full((1, 6), 1 / 6), atol=1e-15)
        np.testing.assert_allclose(result.pooled, [data.mean(axis=0)], atol=1e-12)

    def test_single_location(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(1, 3))
        result = attend_stack(
            data, rng.normal(size=(1, 3)), rng.normal(size=3), rng.normal(size=(1, 3))
        )
        np.testing.assert_array_equal(result.weights, [[1.0]])
        np.testing.assert_allclose(result.pooled, data, atol=1e-15)

    def test_frozen_hand_case(self):
        # scores [1, -1]: same softmax split as the tag case; pooled is 0.
        fmap = np.array([[0.0], [0.0]])
        result = attend_stack(fmap, np.array([[1.0]]), np.array([1.0]), np.array([[1.0], [-1.0]]))
        np.testing.assert_allclose(result.weights, [[W0, W1]], atol=1e-12)
        np.testing.assert_array_equal(result.pooled, [[0.0]])

    @pytest.mark.parametrize("paper_shaped", [False, True], ids=["small", "paper-shaped"])
    def test_a_stack_equals_one_call_per_context(self, paper_shaped):
        # The stack reduces down the columns of L x K scores, a 1-row stack
        # down one column; the two agree to rounding.
        rng = np.random.default_rng(58)
        for _ in range(10 if paper_shaped else 100):
            if paper_shaped:
                fmap = rng.normal(size=(49, 128))
                ctx_weights = (
                    rng.uniform(-1, 1, 128) / np.sqrt(128),
                    rng.uniform(-1, 1, (49, 128)) / np.sqrt(128),
                )
                contexts = rng.normal(size=(256, 128))
                contexts /= np.linalg.norm(contexts, axis=1, keepdims=True)
            else:
                fmap, _, _, ctx, ctx_weights = random_instance(rng)
                contexts = rng.normal(size=(int(rng.integers(1, 9)), ctx.shape[1]))
            stacked = attend_stack(fmap, contexts, *ctx_weights)
            assert stacked.weights.shape == (len(contexts), len(fmap))
            assert stacked.pooled.shape == contexts.shape
            np.testing.assert_allclose(stacked.weights.sum(axis=1), 1.0, rtol=0, atol=1e-14)
            for row, ctx in enumerate(contexts):
                single = attend_stack(fmap, ctx[None], *ctx_weights)
                np.testing.assert_allclose(stacked.weights[row], single.weights[0], rtol=0, atol=1e-15)
                np.testing.assert_allclose(
                    stacked.pooled[row], single.pooled[0], rtol=0, atol=1e-15 * np.abs(fmap).max()
                )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_context_row_fails_the_factor_check(self, bad):
        fmap, _, _, ctx, ctx_weights = random_instance(
            np.random.default_rng(59), locations=3, channels=4
        )
        contexts = np.concatenate([ctx, ctx, ctx])
        contexts[1, 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="context scores must be finite"):
            attend_stack(fmap, contexts, *ctx_weights)

    def test_a_factor_row_that_is_not_a_number_takes_the_exact_softmax(self, softmax_calls):
        # Its sum is not a number, so it is not trusted; its exact scores
        # are finite, so it is pooled as the softmax of those scores.
        fmap, _, _, _, (feature_weight, context_weight) = random_instance(
            np.random.default_rng(67), locations=5, channels=4
        )
        contexts = np.random.default_rng(68).normal(size=(3, 4))
        want = attend_stack(fmap, contexts, feature_weight, context_weight)
        factor = context_factor(context_weight, contexts)
        factor[1, 2] = np.nan
        got = context_attend(fmap, contexts, feature_weight, context_weight, factor)
        assert softmax_calls == [(1, 5)]
        np.testing.assert_array_equal(got.weights[[0, 2]], want.weights[[0, 2]])
        np.testing.assert_allclose(got.weights, want.weights, rtol=1e-14, atol=0)
        np.testing.assert_allclose(got.pooled, want.pooled, rtol=0, atol=1e-14)

    def test_row_count_mismatch(self):
        fmap = np.zeros((3, 2))
        contexts = np.zeros((1, 2))
        with pytest.raises(ValueError, match="L x C context_weight"):
            context_attend(fmap, contexts, np.zeros(2), np.zeros((4, 2)), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="the map's 3 locations"):
            context_attend(fmap, contexts, np.zeros(2), np.zeros((3, 2)), np.zeros((1, 4)))

    def test_a_single_context_is_refused(self):
        # Only a K x C stack is attended: one context is a stack of one.
        fmap, _, _, ctx, (feature_weight, context_weight) = random_instance(
            np.random.default_rng(4)
        )
        factor = context_factor(context_weight, ctx)
        with pytest.raises(ValueError, match="K x C stack"):
            context_attend(fmap, ctx[0], feature_weight, context_weight, factor)
        with pytest.raises(ValueError, match="K x C stack"):
            context_factor(context_weight, ctx[0])
        for bad in (factor[0], factor[None]):
            with pytest.raises(ValueError, match="K x L"):
                context_attend(fmap, ctx, feature_weight, context_weight, bad)
        with pytest.raises(ValueError, match="single L x C"):
            context_attend(fmap[None], ctx, feature_weight, context_weight, factor)
        assert context_attend(fmap, ctx, feature_weight, context_weight, factor).pooled.shape == ctx.shape

    def test_the_factor_layout_leaves_the_bits(self):
        # search passes gathered rows, a fresh C-ordered array; a factor of
        # another layout is read C-ordered too, so each context's sum is
        # reduced in one order.
        rng = np.random.default_rng(60)
        for _ in range(20):
            fmap, _, _, ctx, (feature_weight, context_weight) = random_instance(rng)
            contexts = rng.normal(size=(int(rng.integers(1, 9)), ctx.shape[1]))
            factor = context_factor(context_weight, contexts)
            want = context_attend(fmap, contexts, feature_weight, context_weight, factor)
            strided = np.repeat(factor, 2, axis=1)[:, ::2]
            for layout in (np.asfortranarray(factor), np.ascontiguousarray(factor.T).T, strided):
                got = context_attend(fmap, contexts, feature_weight, context_weight, layout)
                assert np.array_equal(got.weights, want.weights)
                assert np.array_equal(got.pooled, want.pooled)

    def test_the_factor_is_the_shifted_exponential_of_the_context_scores(self):
        rng = np.random.default_rng(69)
        for _ in range(50):
            _, _, _, ctx, (_, context_weight) = random_instance(rng)
            contexts = rng.normal(size=(int(rng.integers(1, 9)), ctx.shape[1])) * 10.0 ** rng.uniform(-3, 3)
            term = contexts @ context_weight.T
            factor = context_factor(context_weight, contexts)
            assert factor.shape == term.shape and factor.flags.c_contiguous
            # The same steps as numeric.softmax's numerator, so the same bits;
            # each row's maximum is exactly 1.
            assert np.array_equal(factor, np.exp(term - term.max(axis=1, keepdims=True)))
            assert np.all(factor.max(axis=1) == 1.0) and np.all(factor >= 0.0)

    def test_out_of_bound_contexts_take_the_exact_softmax(self, softmax_calls):
        # a = [0, -1000] and t = [-1000, 0] under the first context: both
        # ranges are 1000, above 960 ln 2, and u F underflows to 0 at both
        # locations. The exact scores are [-1000, -1000]: equal weights.
        fmap = np.array([[0.0, 3.0], [-1.0, 1.0]])
        feature_weight = np.array([1000.0, 0.0])
        context_weight = np.array([[-1000.0, 0.0], [0.0, 0.0]])
        contexts = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        factor = context_factor(context_weight, contexts)
        got = context_attend(fmap, contexts, feature_weight, context_weight, factor)
        # Only the first context is out of bound: sums 0, 1 and exp(-500).
        assert softmax_calls == [(1, 2)]
        np.testing.assert_array_equal(got.weights[0], [0.5, 0.5])
        np.testing.assert_array_equal(got.pooled[0], [-0.5, 2.0])
        np.testing.assert_array_equal(got.weights[1:], [[1.0, 0.0], [1.0, 0.0]])
        # The third context's exact second weight is exp(-500); its
        # product u F underflows, within the bound's absolute part.
        assert_matches_the_naive_oracle(fmap, contexts, feature_weight, context_weight)

    def test_in_bound_contexts_call_no_softmax(self, softmax_calls):
        rng = np.random.default_rng(70)
        for _ in range(50):
            fmap, _, _, ctx, ctx_weights = random_instance(rng)
            attend_stack(fmap, rng.normal(size=(int(rng.integers(1, 9)), ctx.shape[1])), *ctx_weights)
        assert softmax_calls == []


def scaled_instance(data, contexts_count):
    """A random context-attention instance drawn by hypothesis: a map, K
    contexts, and the two weights each scaled by a factor in [1e-3, 1e3]."""
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    locations = data.draw(st.integers(1, 12), label="L")
    channels = data.draw(st.integers(1, 8), label="C")
    k = contexts_count(locations)
    scale_f = 10.0 ** data.draw(st.floats(-3, 3), label="log10 feature scale")
    scale_c = 10.0 ** data.draw(st.floats(-3, 3), label="log10 context scale")
    rng = np.random.default_rng(seed)
    fmap = rng.normal(size=(locations, channels))
    contexts = rng.normal(size=(k, channels))
    contexts /= np.linalg.norm(contexts, axis=1, keepdims=True)
    feature_weight = scale_f * rng.normal(size=channels)
    context_weight = scale_c * rng.normal(size=(locations, channels))
    return fmap, contexts, feature_weight, context_weight


def naive_context_sum(fmap, context, feature_weight, context_weight) -> float:
    """``Z_k`` by double loops: the sum over locations of ``exp(a_l - max a)
    * exp(t_l - max t)``, with ``a`` the feature and ``t`` the context
    scores."""
    a = [sum(float(f) * float(w) for f, w in zip(row, feature_weight)) for row in fmap]
    t = [sum(float(w) * float(c) for w, c in zip(row, context)) for row in context_weight]
    return sum(math.exp(x - max(a)) * math.exp(y - max(t)) for x, y in zip(a, t))


def assert_matches_the_naive_oracle(fmap, contexts, feature_weight, context_weight):
    """Factor-form weights, pooled rows, sums and unnormalised rows against
    the double-loop oracle.

    Both sides round their scores, summed in different orders: each score
    errs by at most ``2 C u`` times its sum of absolute terms ``S_l``, so a
    weight moves by at most ``8 C u max S`` relatively. The factor form
    adds the module docstring's bound, whose ranges are at most ``2 max S``
    each, and the oracle's shifted exponentials and sum about as much. The
    absolute part is the docstring's at ``MIN_CONTEXT_SUM``. The pooled rows
    add the rounding of two sums of ``L`` terms ``w |f|``. A trusted sum
    ``Z_k`` and row ``R_k`` carry the same relative error, the row relative
    to ``Z_k`` times the pooled magnitude, and the docstring's absolute
    parts; an untrusted context's sum is 1 and its row the pooled row.
    """
    u = 2.0**-53
    locations, channels = fmap.shape
    got = attend_stack(fmap, contexts, feature_weight, context_weight)
    tiny = (locations + 1) * 2.0**-1073 / MIN_CONTEXT_SUM
    untrusted = [] if got.softmaxed is None else got.softmaxed[0].tolist()
    for k, context in enumerate(contexts):
        terms = np.abs(fmap * feature_weight) + np.abs(context_weight * context)
        spread = float(terms.sum(axis=1).max())
        rel = (8 * channels + 16) * u * spread + (3 * locations + 24) * u
        want_w, want_p = (np.array(v) for v in naive_context_attend(fmap, context, feature_weight, context_weight))
        assert np.all(np.abs(got.weights[k] - want_w) <= rel * want_w + tiny)
        magnitude = want_w @ np.abs(fmap) + tiny * np.abs(fmap).sum(axis=0)
        assert np.all(np.abs(got.pooled[k] - want_p) <= (rel + 2 * (locations + 1) * u) * magnitude)
        if k in untrusted:
            assert got.sums[k] == 1.0 and np.array_equal(got.rows[k], got.pooled[k])
            continue
        want_z = naive_context_sum(fmap, context, feature_weight, context_weight)
        assert abs(got.sums[k] - want_z) <= rel * want_z + locations * 2.0**-1073
        floor = locations * 2.0**-1073 * (1 + np.abs(fmap).max(axis=0))
        assert np.all(np.abs(got.rows[k] - want_z * want_p) <= (rel + 2 * (locations + 1) * u) * want_z * magnitude + floor)


class TestFactorFormExactness:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_two_contexts_as_in_training(self, data):
        assert_matches_the_naive_oracle(*scaled_instance(data, lambda locations: 2))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_more_contexts_than_locations(self, data):
        assert_matches_the_naive_oracle(
            *scaled_instance(data, lambda locations: data.draw(st.integers(locations + 1, 3 * locations + 2)))
        )

    def test_wide_ranges_drive_untrusted_contexts(self, softmax_calls):
        # Weights scaled by 1e3 spread a and t over thousands: many
        # contexts fall out of bound, and all still match the oracle.
        rng = np.random.default_rng(71)
        for _ in range(20):
            fmap = rng.normal(size=(6, 3))
            contexts = rng.normal(size=(9, 3))
            contexts /= np.linalg.norm(contexts, axis=1, keepdims=True)
            feature_weight = 1e3 * rng.normal(size=3)
            context_weight = 1e3 * rng.normal(size=(6, 3))
            assert_matches_the_naive_oracle(fmap, contexts, feature_weight, context_weight)
        untrusted = sum(shape[0] for shape in softmax_calls)
        assert 0 < untrusted < 20 * 9

    def test_rows_and_sums_are_products_of_the_factor(self):
        # R = F @ (u f) and Z = F @ u; the quotients and the weights are
        # read from them.
        rng = np.random.default_rng(75)
        fmap, _, _, _, (feature_weight, context_weight) = random_instance(rng, locations=6, channels=4)
        contexts = rng.normal(size=(5, 4))
        factor = context_factor(context_weight, contexts)
        got = context_attend(fmap, contexts, feature_weight, context_weight, factor)
        assert got.softmaxed is None
        scores = fmap @ feature_weight
        scale = np.exp(scores - scores.max())
        np.testing.assert_array_equal(got.scale, scale)
        np.testing.assert_array_equal(got.rows, factor @ (scale[:, None] * fmap))
        np.testing.assert_array_equal(got.sums, factor @ scale)
        np.testing.assert_array_equal(got.pooled, got.rows / got.sums[:, None])
        np.testing.assert_array_equal(got.weights, factor * scale / got.sums[:, None])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_training_normalises_the_rows_over_the_sums_of_its_own_call(self, monkeypatch, context_pool_reads, seed):
        # forward_triple's anchor rows are normalize_rows(R / Z) of the one
        # context_attend call it makes, bit for bit; it reads the quotients
        # once and leaves the weights to the backward.
        calls = []
        real = model.context_attend
        monkeypatch.setattr(model, "context_attend", lambda *args: calls.append(real(*args)) or calls[-1])
        config = ModelConfig(locations=9, channels=16, tag_count=4, raw_dim=16, variant=Variant.CTXYNET)
        params = init_params(config, seed)
        rng = np.random.default_rng(seed)
        raws = [rng.normal(size=(9, 16)) for _ in range(3)]
        tags = [TagVector(rng.integers(0, 2, 4).astype(np.float64)) for _ in range(2)]
        fwd = forward_triple(*raws, *tags, params, 0.5)
        assert len(calls) == 1 and fwd.anchor_pool is calls[0] and context_pool_reads == ["pooled"]
        pool = calls[0]
        assert pool.rows.shape == (2, 16)
        np.testing.assert_array_equal(fwd.anchor_rows, normalize_rows(pool.rows / pool.sums[:, None]).unit)
        np.testing.assert_array_equal(fwd.anchor_norms.unit, fwd.anchor_rows)


class TestForwardProperties:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            fmap, bits, embedding, ctx, ctx_weights = random_instance(rng)
            got = tag_attend(fmap[None], bits, embedding)
            want_w, want_p = naive_tag_attend(fmap, bits[0], embedding)
            np.testing.assert_allclose(got.weights[0], want_w, atol=1e-9)
            np.testing.assert_allclose(got.pooled[0], want_p, atol=1e-9)

            got = attend_stack(fmap, ctx, *ctx_weights)
            want_w, want_p = naive_context_attend(fmap, ctx[0], *ctx_weights)
            np.testing.assert_allclose(got.weights[0], want_w, atol=1e-9)
            np.testing.assert_allclose(got.pooled[0], want_p, atol=1e-9)

    def test_weights_positive_and_normalized(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            fmap, bits, embedding, ctx, ctx_weights = random_instance(rng)
            for result in (
                tag_attend(fmap[None], bits, embedding),
                attend_stack(fmap, ctx, *ctx_weights),
            ):
                assert np.all(result.weights > 0)
                assert abs(result.weights.sum() - 1.0) <= 1e-10

    def test_convex_hull_bound(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            fmap, bits, embedding, ctx, ctx_weights = random_instance(rng)
            for result in (
                tag_attend(fmap[None], bits, embedding),
                attend_stack(fmap, ctx, *ctx_weights),
            ):
                lo = fmap.min(axis=0) - 1e-12
                hi = fmap.max(axis=0) + 1e-12
                assert np.all(result.pooled >= lo) and np.all(result.pooled <= hi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_map_fails_the_softmax_check(self, bad):
        fmap, bits, embedding, ctx, ctx_weights = random_instance(np.random.default_rng(47))
        fmap[-1, 0] = bad
        with np.errstate(invalid="ignore"):
            for attend in (
                lambda: tag_attend(fmap[None], np.ones_like(bits), embedding),
                lambda: attend_stack(fmap, ctx, *ctx_weights),
            ):
                with pytest.raises(ValueError, match="finite"):
                    attend()

    def test_tag_permutation_equivariance(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            fmap, bits, embedding, _, _ = random_instance(rng)
            perm = rng.permutation(fmap.shape[-2])
            base = tag_attend(fmap[None], bits, embedding)
            shuffled = tag_attend(fmap[None, perm], bits, embedding)
            np.testing.assert_allclose(shuffled.weights, base.weights[:, perm], atol=1e-12)
            np.testing.assert_allclose(shuffled.pooled, base.pooled, atol=1e-12)

    def test_context_permutation_equivariance(self):
        # permuting locations and context_weight rows together relabels
        # locations without changing the aggregate
        rng = np.random.default_rng(46)
        for _ in range(100):
            fmap, _, _, ctx, (feature_weight, context_weight) = random_instance(rng)
            perm = rng.permutation(fmap.shape[-2])
            base = attend_stack(fmap, ctx, feature_weight, context_weight)
            shuffled = attend_stack(fmap[perm], ctx, feature_weight, context_weight[perm])
            np.testing.assert_allclose(shuffled.weights, base.weights[:, perm], atol=1e-12)
            np.testing.assert_allclose(shuffled.pooled, base.pooled, atol=1e-12)


def relative_agreement(analytic, numeric, rel_tol=1e-4, abs_tol=1e-7, small=1e-6):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    diff = np.abs(analytic - numeric)
    tiny = np.abs(analytic) < small
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    return np.all(np.where(tiny, diff < abs_tol, diff <= rel_tol * denom))


def stacked_tag_instance(rng):
    """A random tag-attention instance: a stack of one map, or of 1-3 maps,
    with one row of tag bits each."""
    fmap, bits, embedding, _, _ = random_instance(
        rng, locations=int(rng.integers(1, 7)), channels=int(rng.integers(1, 6)),
        tags=int(rng.integers(1, 5)),
    )
    stack = int(rng.integers(0, 4))
    if stack:
        shape = (stack, fmap.shape[-2], fmap.shape[-1])
        fmap = rng.normal(size=shape)
        bits = rng.integers(0, 2, size=(stack, bits.shape[1])).astype(np.float64)
    else:
        fmap = fmap[None]
    return fmap, bits, embedding


class TestTagAttendBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            fmap, bits, embedding = stacked_tag_instance(rng)
            attended = tag_attend(fmap, bits, embedding)
            grad_map, grad_emb = tag_attend_backward(
                fmap, bits, embedding, attended, np.zeros_like(attended.pooled)
            )
            np.testing.assert_array_equal(grad_map, np.zeros_like(fmap))
            np.testing.assert_array_equal(grad_emb, np.zeros_like(embedding))

    def test_inactive_tags_leave_embedding_untouched(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            fmap, bits, embedding = stacked_tag_instance(rng)
            bits = np.zeros_like(bits)
            attended = tag_attend(fmap, bits, embedding)
            _, grad_emb = tag_attend_backward(
                fmap, bits, embedding, attended, rng.normal(size=attended.pooled.shape)
            )
            np.testing.assert_array_equal(grad_emb, np.zeros_like(embedding))

    def test_the_map_gradient_is_formed_only_when_needed(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            fmap, bits, embedding = stacked_tag_instance(rng)
            attended = tag_attend(fmap, bits, embedding)
            upstream = rng.normal(size=attended.pooled.shape)
            _, want = tag_attend_backward(fmap, bits, embedding, attended, upstream)
            grad_map, grad_emb = tag_attend_backward(
                fmap, bits, embedding, attended, upstream, need_map=False
            )
            assert grad_map is None
            assert grad_emb.tobytes() == want.tobytes()

    def test_upstream_must_match_the_pooled_output(self):
        rng = np.random.default_rng(56)
        fmap, bits, embedding, _, _ = random_instance(rng)
        attended = tag_attend(fmap[None], bits, embedding)
        with pytest.raises(ValueError, match="grad_pooled"):
            tag_attend_backward(fmap[None], bits, embedding, attended, np.zeros(fmap.shape[-1]))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            fmap, bits, embedding = stacked_tag_instance(rng)
            attended = tag_attend(fmap, bits, embedding)
            upstream = rng.normal(size=attended.pooled.shape)
            grad_map, grad_emb = tag_attend_backward(fmap, bits, embedding, attended, upstream)

            def loss_wrt_map(data):
                res = tag_attend(data, bits, embedding)
                return float(np.sum(upstream * res.pooled))

            def loss_wrt_emb(emb):
                res = tag_attend(fmap, bits, emb)
                return float(np.sum(upstream * res.pooled))

            assert relative_agreement(grad_map, finite_diff_grad(loss_wrt_map, fmap))
            assert relative_agreement(grad_emb, finite_diff_grad(loss_wrt_emb, embedding))


def stacked_contexts(rng, ctx):
    """The 1 x C context, or a K x C stack of 1-3 contexts."""
    stack = int(rng.integers(0, 4))
    return rng.normal(size=(stack, ctx.shape[1])) if stack else ctx


class TestContextAttendBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            fmap, _, _, ctx, ctx_weights = random_instance(rng)
            ctx = stacked_contexts(rng, ctx)
            attended = attend_stack(fmap, ctx, *ctx_weights)
            grads = context_attend_backward(
                fmap, ctx, *ctx_weights, attended, np.zeros_like(attended.pooled)
            )
            for g in grads:
                np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_single_location_constant_weight(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            fmap, _, _, ctx, _ = random_instance(rng, locations=1)
            ctx = stacked_contexts(rng, ctx)
            ctx_weights = (
                rng.normal(size=fmap.shape[-1]),
                rng.normal(size=(1, fmap.shape[-1])),
            )
            attended = attend_stack(fmap, ctx, *ctx_weights)
            _, _, grad_fw, grad_cw = context_attend_backward(
                fmap, ctx, *ctx_weights, attended, rng.normal(size=attended.pooled.shape)
            )
            np.testing.assert_array_equal(grad_fw, np.zeros_like(grad_fw))
            np.testing.assert_array_equal(grad_cw, np.zeros_like(grad_cw))

    def test_upstream_must_match_the_pooled_output(self):
        rng = np.random.default_rng(57)
        fmap, _, _, ctx, ctx_weights = random_instance(rng)
        contexts = np.concatenate([ctx, ctx])
        attended = attend_stack(fmap, contexts, *ctx_weights)
        with pytest.raises(ValueError, match="grad_pooled"):
            context_attend_backward(fmap, contexts, *ctx_weights, attended, np.zeros(fmap.shape[-1]))

    def test_context_weight_must_have_a_row_per_location(self):
        rng = np.random.default_rng(58)
        fmap, _, _, ctx, (feature_weight, context_weight) = random_instance(rng, locations=3)
        attended = attend_stack(fmap, ctx, feature_weight, context_weight)
        grad = rng.normal(size=attended.pooled.shape)
        for rows in (2, 4):
            other = rng.normal(size=(rows, fmap.shape[1]))
            with pytest.raises(ValueError, match="^context_weight row count must match the feature map$"):
                context_attend_backward(fmap, ctx, feature_weight, other, attended, grad)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            fmap, _, _, ctx, (feature_weight, context_weight) = random_instance(rng)
            ctx = stacked_contexts(rng, ctx)
            attended = attend_stack(fmap, ctx, feature_weight, context_weight)
            upstream = rng.normal(size=attended.pooled.shape)
            grad_map, grad_ctx, grad_fw, grad_cw = context_attend_backward(
                fmap, ctx, feature_weight, context_weight, attended, upstream
            )

            def eval_at(data=None, context=None, fw=None, cw=None):
                res = attend_stack(
                    fmap if data is None else data,
                    ctx if context is None else context,
                    feature_weight if fw is None else fw,
                    context_weight if cw is None else cw,
                )
                return float(np.sum(upstream * res.pooled))

            assert relative_agreement(
                grad_map, finite_diff_grad(lambda d: eval_at(data=d), fmap)
            )
            assert relative_agreement(
                grad_ctx, finite_diff_grad(lambda c: eval_at(context=c), ctx)
            )
            assert relative_agreement(
                grad_fw, finite_diff_grad(lambda w: eval_at(fw=w), feature_weight)
            )
            assert relative_agreement(
                grad_cw, finite_diff_grad(lambda w: eval_at(cw=w), context_weight)
            )
