import numpy as np
import pytest

from xattn.attention import (
    AttentionResult,
    TagVector,
    context_attend,
    context_attend_backward,
    tag_attend,
    tag_attend_backward,
    tag_embed,
)

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
    with the L x K context term formed as ``model.forward_triple`` forms it."""
    return context_attend(fmap, context_weight @ contexts.T, feature_weight)


class TestTypes:
    def test_tag_vector_binary_only(self):
        with pytest.raises(ValueError):
            TagVector(bits=np.array([0.0, 0.5]))
        vec = TagVector.from_ids([0, 2], size=4)
        np.testing.assert_array_equal(vec.bits, [1, 0, 1, 0])
        with pytest.raises(ValueError):
            TagVector.from_ids([4], size=4)

    def test_context_params_validation(self):
        fmap, term = np.zeros((2, 3)), np.zeros((2, 1))
        for feature_weight in (np.zeros(4), np.zeros((1, 3)), np.zeros(())):
            with pytest.raises(ValueError, match="feature_weight must be a C vector"):
                context_attend(fmap, term, feature_weight)
        for bad in (np.zeros(2), np.zeros((2, 1, 1))):
            with pytest.raises(ValueError, match="context term must be L x K"):
                context_attend(fmap, bad, np.zeros(3))
        attended = context_attend(fmap, term, np.zeros(3))
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
    def test_non_finite_context_row_fails_the_softmax_check(self, bad):
        fmap, _, _, ctx, ctx_weights = random_instance(
            np.random.default_rng(59), locations=3, channels=4
        )
        contexts = np.concatenate([ctx, ctx, ctx])
        contexts[1, 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            attend_stack(fmap, contexts, *ctx_weights)

    def test_row_count_mismatch(self):
        fmap = np.zeros((3, 2))
        with pytest.raises(ValueError, match="the map's 3 locations"):
            context_attend(fmap, np.zeros((4, 1)), np.zeros(2))

    def test_a_single_context_is_refused(self):
        # Only an L x K term is attended: one context is the L x 1 column.
        fmap, _, _, ctx, (feature_weight, context_weight) = random_instance(
            np.random.default_rng(4)
        )
        term = context_weight @ ctx.T
        for bad in (term[:, 0], term[None]):
            with pytest.raises(ValueError, match="L x K"):
                context_attend(fmap, bad, feature_weight)
        with pytest.raises(ValueError, match="single L x C"):
            context_attend(fmap[None], term, feature_weight)
        assert context_attend(fmap, term, feature_weight).pooled.shape == ctx.shape

    def test_the_term_layout_leaves_the_bits(self):
        # search passes a transposed view of gathered rows; the scores are
        # C-ordered either way, so the softmax reduces in one order.
        rng = np.random.default_rng(60)
        for _ in range(20):
            fmap, _, _, ctx, (feature_weight, context_weight) = random_instance(rng)
            contexts = rng.normal(size=(int(rng.integers(1, 9)), ctx.shape[1]))
            term = context_weight @ contexts.T
            want = context_attend(fmap, term, feature_weight)
            for layout in (np.asfortranarray(term), np.ascontiguousarray(term.T).T):
                got = context_attend(fmap, layout, feature_weight)
                assert np.array_equal(got.weights, want.weights)
                assert np.array_equal(got.pooled, want.pooled)


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
