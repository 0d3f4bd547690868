import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xattn.metric import (
    TripleEmbeddings,
    distance,
    hinge_argument,
    triplet_loss,
    triplet_loss_backward,
)
from xattn.numeric import finite_diff_grad, l2_normalize


def unit(rng, dim=4):
    return l2_normalize(rng.normal(size=dim))


def random_triple(rng, dim=4):
    return TripleEmbeddings(
        anchor_pos=unit(rng, dim),
        anchor_neg=unit(rng, dim),
        positive=unit(rng, dim),
        negative=unit(rng, dim),
    )


class TestDistance:
    def test_identity(self):
        a = np.array([0.6, 0.8])
        assert distance(a, a) == 0.0

    def test_orthogonal_unit_vectors(self):
        assert distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_antipodal_unit_vectors(self):
        assert distance(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 4.0

    def test_plain_euclidean_mode(self):
        assert distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]), squared=False) == pytest.approx(
            np.sqrt(2.0)
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            distance(np.zeros(2), np.zeros(3))

    def test_unit_vector_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = distance(unit(rng), unit(rng))
            assert 0.0 <= d <= 4.0 + 1e-12


class TestTripleEmbeddings:
    def test_rejects_unnormalized(self):
        v = np.array([1.0, 0.0])
        for bad in (v * 2.0, np.array([np.nan, 0.0]), np.array([np.inf, 0.0])):
            with pytest.raises(ValueError):
                TripleEmbeddings(bad, v, v, v)

    def test_rejects_mixed_lengths(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            TripleEmbeddings(unit(rng, 3), unit(rng, 4), unit(rng, 4), unit(rng, 4))


class TestTripletLoss:
    def test_direct_evaluation(self):
        # d(anchor_pos, positive)=0.2, d(anchor_neg, negative)=0.4: unit
        # vectors at the needed squared distances via cos = 1 - d/2.
        def pair_at(d):
            c = 1.0 - d / 2.0
            s = np.sqrt(1.0 - c * c)
            return np.array([1.0, 0.0]), np.array([c, s])

        ap, p = pair_at(0.2)
        an, q = pair_at(0.4)
        e = TripleEmbeddings(ap, an, p, q)
        assert triplet_loss(e, 0.5) == pytest.approx(0.3, abs=1e-12)

    def test_satisfied_margin_is_zero(self):
        v = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])  # d(anchor_neg, negative) = 2 >= alpha
        e = TripleEmbeddings(v, v, v, q)
        assert triplet_loss(e, 0.5) == 0.0

    def test_equal_distances_hit_margin_exactly(self):
        # same geometry on both sides makes the loss exactly the margin
        rng = np.random.default_rng(3)
        a, b = unit(rng), unit(rng)
        e = TripleEmbeddings(a, a, b, b)
        assert triplet_loss(e, 0.5) == 0.5

    def test_negative_margin_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            triplet_loss(random_triple(rng), -0.1)

    def test_loss_nonnegative_and_zero_condition(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            e = random_triple(rng)
            alpha = float(rng.uniform(0.0, 1.0))
            loss = triplet_loss(e, alpha)
            assert loss >= 0.0
            d_pos = distance(e.anchor_pos, e.positive)
            d_neg = distance(e.anchor_neg, e.negative)
            assert (loss == 0.0) == (d_pos + alpha <= d_neg)

    @given(st.floats(0.0, 2.0), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_monotone_in_positive_distance(self, gap, alpha):
        # widening the anchor/positive gap with everything else fixed
        # never decreases the loss
        def embeddings(d_pos):
            c = 1.0 - d_pos / 2.0
            s = np.sqrt(max(0.0, 1.0 - c * c))
            return TripleEmbeddings(
                np.array([1.0, 0.0]),
                np.array([1.0, 0.0]),
                np.array([c, s]),
                np.array([0.0, 1.0]),
            )

        wider = min(2.0, gap + 0.25)
        assert triplet_loss(embeddings(wider), alpha) >= triplet_loss(
            embeddings(gap), alpha
        )


class TestTripletLossBackward:
    def test_inactive_hinge_zero_gradients(self):
        v = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        grads = triplet_loss_backward(TripleEmbeddings(v, v, v, q), 0.5)
        for g in grads:
            np.testing.assert_array_equal(g, [0.0, 0.0])

    def test_boundary_argument_exactly_zero(self):
        # anchor_pos == positive and anchor_neg == negative with alpha 0:
        # the hinge argument is exactly 0 and the kink counts as inactive
        rng = np.random.default_rng(6)
        a, b = unit(rng), unit(rng)
        e = TripleEmbeddings(a, b, a, b)
        assert hinge_argument(e, 0.0) == 0.0
        for g in triplet_loss_backward(e, 0.0):
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_boundary_with_integer_distances(self):
        # d_pos=2, d_neg=4, alpha=2: argument is exactly 0 in floats
        e = TripleEmbeddings(
            np.array([1.0, 0.0]),
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([-1.0, 0.0]),
        )
        assert hinge_argument(e, 2.0) == 0.0
        for g in triplet_loss_backward(e, 2.0):
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_active_hand_case(self):
        e = TripleEmbeddings(
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
        )
        grads = triplet_loss_backward(e, 0.5)
        np.testing.assert_array_equal(grads.anchor_pos, [2.0, -2.0])
        np.testing.assert_array_equal(grads.positive, [-2.0, 2.0])

    def test_a_given_loss_stands_for_the_hinge(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            e = random_triple(rng)
            alpha = float(rng.uniform(0.0, 1.0))
            want = triplet_loss_backward(e, alpha)
            got = triplet_loss_backward(e, alpha, loss=triplet_loss(e, alpha))
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
        # The given loss decides, not a fresh hinge: 0 means inactive.
        e = TripleEmbeddings(*(unit(rng) for _ in range(4)))
        for g in triplet_loss_backward(e, 4.0, loss=0.0):
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 20:
            e = random_triple(rng)
            alpha = float(rng.uniform(0.2, 1.0))
            if hinge_argument(e, alpha) < 0.05:  # stay clear of the kink
                continue
            checked += 1
            grads = triplet_loss_backward(e, alpha)
            fields = ("anchor_pos", "anchor_neg", "positive", "negative")
            for field, analytic in zip(fields, grads):
                def objective(vec, field=field):
                    parts = {f: getattr(e, f) for f in fields}
                    parts[field] = vec
                    return triplet_loss(TripleEmbeddings(**parts), alpha)

                numeric = finite_diff_grad(objective, getattr(e, field))
                np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-6)
