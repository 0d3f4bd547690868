import numpy as np
import pytest

from xattn.attention import (
    AttentionResult,
    ContextAttentionParams,
    FeatureMap,
    TagAttentionParams,
    TagVector,
    context_attend,
    context_attend_backward,
    tag_attend,
    tag_attend_backward,
    tag_embed,
)
from xattn.numeric import finite_diff_grad

from oracles import naive_context_attend, naive_tag_attend

# Frozen from a 50-digit evaluation of exp(2)/(exp(2)+1) and friends.
W0 = 0.8807970779778824
W1 = 0.1192029220221176


def random_instance(rng, locations=None, channels=None, tags=None):
    locations = locations or int(rng.integers(1, 8))
    channels = channels or int(rng.integers(1, 7))
    tags = tags or int(rng.integers(1, 6))
    fmap = FeatureMap.from_matrix(rng.normal(size=(locations, channels)))
    bits = TagVector(bits=rng.integers(0, 2, size=tags).astype(np.float64))
    tag_params = TagAttentionParams(embedding=rng.normal(size=(tags, channels)))
    ctx = rng.normal(size=channels)
    ctx_params = ContextAttentionParams(
        feature_weight=rng.normal(size=channels),
        context_weight=rng.normal(size=(locations, channels)),
    )
    return fmap, bits, tag_params, ctx, ctx_params


class TestTypes:
    def test_feature_map_shape_validation(self):
        with pytest.raises(ValueError):
            FeatureMap(data=np.zeros((2, 2)), height=3, width=1)
        with pytest.raises(ValueError):
            FeatureMap.from_matrix(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            FeatureMap.from_matrix(np.array([[np.nan, 1.0]]))

    def test_feature_map_accessors(self):
        fmap = FeatureMap(data=np.zeros((6, 4)), height=2, width=3)
        assert fmap.locations == 6 and fmap.channels == 4

    def test_tag_vector_binary_only(self):
        with pytest.raises(ValueError):
            TagVector(bits=np.array([0.0, 0.5]))
        vec = TagVector.from_ids([0, 2], size=4)
        np.testing.assert_array_equal(vec.bits, [1, 0, 1, 0])
        assert vec.active_ids() == (0, 2)
        with pytest.raises(ValueError):
            TagVector.from_ids([4], size=4)

    def test_context_params_validation(self):
        with pytest.raises(ValueError):
            ContextAttentionParams(
                feature_weight=np.zeros(3), context_weight=np.zeros((2, 4))
            )


class TestTagEmbed:
    def test_no_active_tags(self):
        params = TagAttentionParams(embedding=np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(
            tag_embed(TagVector.zeros(3), params), [0.0, 0.0]
        )

    def test_one_hot_selects_row(self):
        params = TagAttentionParams(embedding=np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(
            tag_embed(TagVector.from_ids([1], 3), params), [2.0, 3.0]
        )

    def test_sum_of_rows(self):
        params = TagAttentionParams(embedding=np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(
            tag_embed(TagVector.from_ids([0, 1], 2), params), [1.0, 1.0]
        )

    def test_length_mismatch(self):
        params = TagAttentionParams(embedding=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            tag_embed(TagVector.zeros(2), params)


class TestTagAttend:
    def test_constant_map_uniform_weights(self):
        row = np.array([1.5, -2.0, 0.25])
        fmap = FeatureMap.from_matrix(np.tile(row, (4, 1)))
        params = TagAttentionParams(embedding=np.ones((2, 3)))
        result = tag_attend(fmap, TagVector.from_ids([0], 2), params)
        np.testing.assert_allclose(result.weights, np.full(4, 0.25), atol=1e-15)
        np.testing.assert_allclose(result.pooled, row, atol=1e-15)

    def test_zero_tags_gives_column_mean(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 3))
        result = tag_attend(
            FeatureMap.from_matrix(data),
            TagVector.zeros(2),
            TagAttentionParams(embedding=rng.normal(size=(2, 3))),
        )
        np.testing.assert_allclose(result.weights, np.full(5, 0.2), atol=1e-15)
        np.testing.assert_allclose(result.pooled, data.mean(axis=0), atol=1e-12)

    def test_frozen_hand_case(self):
        # scores come out as [2, 0]; weights/pooled frozen from extended
        # precision evaluation.
        fmap = FeatureMap.from_matrix(np.array([[2.0, 0.0], [0.0, 2.0]]))
        params = TagAttentionParams(embedding=np.array([[1.0, 0.0], [0.0, 1.0]]))
        result = tag_attend(fmap, TagVector.from_ids([0], 2), params)
        np.testing.assert_allclose(result.weights, [W0, W1], atol=1e-12)
        np.testing.assert_allclose(
            result.pooled, [1.7615941559557649, 0.2384058440442351], atol=1e-12
        )

    def test_dimension_mismatch(self):
        fmap = FeatureMap.from_matrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            tag_attend(fmap, TagVector.zeros(2), TagAttentionParams(np.zeros((2, 4))))


class TestContextAttend:
    def test_zero_params_uniform(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(6, 4))
        params = ContextAttentionParams(
            feature_weight=np.zeros(4), context_weight=np.zeros((6, 4))
        )
        result = context_attend(FeatureMap.from_matrix(data), rng.normal(size=4), params)
        np.testing.assert_allclose(result.weights, np.full(6, 1 / 6), atol=1e-15)
        np.testing.assert_allclose(result.pooled, data.mean(axis=0), atol=1e-12)

    def test_single_location(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(1, 3))
        params = ContextAttentionParams(
            feature_weight=rng.normal(size=3), context_weight=rng.normal(size=(1, 3))
        )
        result = context_attend(FeatureMap.from_matrix(data), rng.normal(size=3), params)
        np.testing.assert_array_equal(result.weights, [1.0])
        np.testing.assert_allclose(result.pooled, data[0], atol=1e-15)

    def test_frozen_hand_case(self):
        # scores [1, -1]: same softmax split as the tag case; pooled is 0.
        fmap = FeatureMap.from_matrix(np.array([[0.0], [0.0]]))
        params = ContextAttentionParams(
            feature_weight=np.array([1.0]),
            context_weight=np.array([[1.0], [-1.0]]),
        )
        result = context_attend(fmap, np.array([1.0]), params)
        np.testing.assert_allclose(result.weights, [W0, W1], atol=1e-12)
        np.testing.assert_array_equal(result.pooled, [0.0])

    def test_row_count_mismatch(self):
        fmap = FeatureMap.from_matrix(np.zeros((3, 2)))
        params = ContextAttentionParams(
            feature_weight=np.zeros(2), context_weight=np.zeros((4, 2))
        )
        with pytest.raises(ValueError):
            context_attend(fmap, np.zeros(2), params)


class TestForwardProperties:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            fmap, bits, tag_params, ctx, ctx_params = random_instance(rng)
            got = tag_attend(fmap, bits, tag_params)
            want_w, want_p = naive_tag_attend(fmap.data, bits.bits, tag_params.embedding)
            np.testing.assert_allclose(got.weights, want_w, atol=1e-9)
            np.testing.assert_allclose(got.pooled, want_p, atol=1e-9)

            got = context_attend(fmap, ctx, ctx_params)
            want_w, want_p = naive_context_attend(
                fmap.data, ctx, ctx_params.feature_weight, ctx_params.context_weight
            )
            np.testing.assert_allclose(got.weights, want_w, atol=1e-9)
            np.testing.assert_allclose(got.pooled, want_p, atol=1e-9)

    def test_weights_positive_and_normalized(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            fmap, bits, tag_params, ctx, ctx_params = random_instance(rng)
            for result in (
                tag_attend(fmap, bits, tag_params),
                context_attend(fmap, ctx, ctx_params),
            ):
                assert np.all(result.weights > 0)
                assert abs(result.weights.sum() - 1.0) <= 1e-10

    def test_convex_hull_bound(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            fmap, bits, tag_params, ctx, ctx_params = random_instance(rng)
            for result in (
                tag_attend(fmap, bits, tag_params),
                context_attend(fmap, ctx, ctx_params),
            ):
                lo = fmap.data.min(axis=0) - 1e-12
                hi = fmap.data.max(axis=0) + 1e-12
                assert np.all(result.pooled >= lo) and np.all(result.pooled <= hi)

    def test_tag_permutation_equivariance(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            fmap, bits, tag_params, _, _ = random_instance(rng)
            perm = rng.permutation(fmap.locations)
            base = tag_attend(fmap, bits, tag_params)
            shuffled = tag_attend(
                FeatureMap.from_matrix(fmap.data[perm]), bits, tag_params
            )
            np.testing.assert_allclose(shuffled.weights, base.weights[perm], atol=1e-12)
            np.testing.assert_allclose(shuffled.pooled, base.pooled, atol=1e-12)

    def test_context_permutation_equivariance(self):
        # permuting locations and context_weight rows together relabels
        # locations without changing the aggregate
        rng = np.random.default_rng(46)
        for _ in range(100):
            fmap, _, _, ctx, ctx_params = random_instance(rng)
            perm = rng.permutation(fmap.locations)
            base = context_attend(fmap, ctx, ctx_params)
            shuffled = context_attend(
                FeatureMap.from_matrix(fmap.data[perm]),
                ctx,
                ContextAttentionParams(
                    feature_weight=ctx_params.feature_weight,
                    context_weight=ctx_params.context_weight[perm],
                ),
            )
            np.testing.assert_allclose(shuffled.weights, base.weights[perm], atol=1e-12)
            np.testing.assert_allclose(shuffled.pooled, base.pooled, atol=1e-12)


def relative_agreement(analytic, numeric, rel_tol=1e-4, abs_tol=1e-7, small=1e-6):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    diff = np.abs(analytic - numeric)
    tiny = np.abs(analytic) < small
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    return np.all(np.where(tiny, diff < abs_tol, diff <= rel_tol * denom))


def stacked_tag_instance(rng):
    """A random tag-attention instance: one map, or a stack of 1-3 maps with
    one tag vector each."""
    fmap, bits, tag_params, _, _ = random_instance(
        rng, locations=int(rng.integers(1, 7)), channels=int(rng.integers(1, 6)),
        tags=int(rng.integers(1, 5)),
    )
    stack = int(rng.integers(0, 4))
    if stack:
        shape = (stack, fmap.locations, fmap.channels)
        fmap = FeatureMap.from_matrix(rng.normal(size=shape))
        bits = TagVector(bits=rng.integers(0, 2, size=(stack, bits.size)).astype(np.float64))
    return fmap, bits, tag_params


class TestTagAttendBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            fmap, bits, tag_params = stacked_tag_instance(rng)
            attended = tag_attend(fmap, bits, tag_params)
            grad_map, grad_emb = tag_attend_backward(
                fmap, bits, tag_params, attended, np.zeros_like(attended.pooled)
            )
            np.testing.assert_array_equal(grad_map, np.zeros_like(fmap.data))
            np.testing.assert_array_equal(grad_emb, np.zeros_like(tag_params.embedding))

    def test_inactive_tags_leave_embedding_untouched(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            fmap, bits, tag_params = stacked_tag_instance(rng)
            bits = TagVector(bits=np.zeros_like(bits.bits))
            attended = tag_attend(fmap, bits, tag_params)
            _, grad_emb = tag_attend_backward(
                fmap, bits, tag_params, attended, rng.normal(size=attended.pooled.shape)
            )
            np.testing.assert_array_equal(grad_emb, np.zeros_like(tag_params.embedding))

    def test_upstream_must_match_the_pooled_output(self):
        rng = np.random.default_rng(56)
        fmap, bits, tag_params, _, _ = random_instance(rng)
        attended = tag_attend(fmap, bits, tag_params)
        with pytest.raises(ValueError, match="grad_pooled"):
            tag_attend_backward(fmap, bits, tag_params, attended, np.zeros(fmap.channels + 1))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            fmap, bits, tag_params = stacked_tag_instance(rng)
            attended = tag_attend(fmap, bits, tag_params)
            upstream = rng.normal(size=attended.pooled.shape)
            grad_map, grad_emb = tag_attend_backward(fmap, bits, tag_params, attended, upstream)

            def loss_wrt_map(data):
                res = tag_attend(FeatureMap.from_matrix(data), bits, tag_params)
                return float(np.sum(upstream * res.pooled))

            def loss_wrt_emb(emb):
                res = tag_attend(fmap, bits, TagAttentionParams(embedding=emb))
                return float(np.sum(upstream * res.pooled))

            assert relative_agreement(grad_map, finite_diff_grad(loss_wrt_map, fmap.data))
            assert relative_agreement(
                grad_emb, finite_diff_grad(loss_wrt_emb, tag_params.embedding)
            )


def stacked_contexts(rng, ctx):
    """The single context, or a K x C stack of 1-3 contexts."""
    stack = int(rng.integers(0, 4))
    return rng.normal(size=(stack, ctx.size)) if stack else ctx


class TestContextAttendBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            fmap, _, _, ctx, ctx_params = random_instance(rng)
            ctx = stacked_contexts(rng, ctx)
            attended = context_attend(fmap, ctx, ctx_params)
            grads = context_attend_backward(
                fmap, ctx, ctx_params, attended, np.zeros_like(attended.pooled)
            )
            for g in grads:
                np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_single_location_constant_weight(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            fmap, _, _, ctx, _ = random_instance(rng, locations=1)
            ctx = stacked_contexts(rng, ctx)
            ctx_params = ContextAttentionParams(
                feature_weight=rng.normal(size=fmap.channels),
                context_weight=rng.normal(size=(1, fmap.channels)),
            )
            attended = context_attend(fmap, ctx, ctx_params)
            _, _, grad_fw, grad_cw = context_attend_backward(
                fmap, ctx, ctx_params, attended, rng.normal(size=attended.pooled.shape)
            )
            np.testing.assert_array_equal(grad_fw, np.zeros_like(grad_fw))
            np.testing.assert_array_equal(grad_cw, np.zeros_like(grad_cw))

    def test_upstream_must_match_the_pooled_output(self):
        rng = np.random.default_rng(57)
        fmap, _, _, ctx, ctx_params = random_instance(rng)
        contexts = np.stack([ctx, ctx])
        attended = context_attend(fmap, contexts, ctx_params)
        with pytest.raises(ValueError, match="grad_pooled"):
            context_attend_backward(fmap, contexts, ctx_params, attended, np.zeros(fmap.channels))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            fmap, _, _, ctx, ctx_params = random_instance(rng)
            ctx = stacked_contexts(rng, ctx)
            attended = context_attend(fmap, ctx, ctx_params)
            upstream = rng.normal(size=attended.pooled.shape)
            grad_map, grad_ctx, grad_fw, grad_cw = context_attend_backward(
                fmap, ctx, ctx_params, attended, upstream
            )

            def eval_at(data=None, context=None, fw=None, cw=None):
                res = context_attend(
                    FeatureMap.from_matrix(fmap.data if data is None else data),
                    ctx if context is None else context,
                    ContextAttentionParams(
                        feature_weight=ctx_params.feature_weight if fw is None else fw,
                        context_weight=ctx_params.context_weight if cw is None else cw,
                    ),
                )
                return float(np.sum(upstream * res.pooled))

            assert relative_agreement(
                grad_map, finite_diff_grad(lambda d: eval_at(data=d), fmap.data)
            )
            assert relative_agreement(
                grad_ctx, finite_diff_grad(lambda c: eval_at(context=c), ctx)
            )
            assert relative_agreement(
                grad_fw,
                finite_diff_grad(lambda w: eval_at(fw=w), ctx_params.feature_weight),
            )
            assert relative_agreement(
                grad_cw,
                finite_diff_grad(lambda w: eval_at(cw=w), ctx_params.context_weight),
            )
