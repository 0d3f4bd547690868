import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xattn.metric import triplet_loss, triplet_loss_backward
from xattn.numeric import l2_normalize

from gradcheck import finite_diff_grad


def unit(rng, dim=4):
    return l2_normalize(rng.normal(size=dim))


def stacks(anchor_pos, anchor_neg, positive, negative):
    """The two stacks ``triplet_loss`` takes: anchors and shops."""
    return np.stack([anchor_pos, anchor_neg]), np.stack([positive, negative])


def random_triple(rng, dim=4):
    return stacks(*(unit(rng, dim) for _ in range(4)))


def sq_dist(a, b):
    diff = a - b
    return float(diff @ diff)


def d_pos_alone(a, b):
    """The loss at margin 0 with anchor_neg == negative: d(a, b) alone."""
    far = np.zeros_like(a)
    far[0] = 1.0
    return triplet_loss(*stacks(a, far, b, far), 0.0)


class TestDistance:
    """The loss measures squared Euclidean distances between unit rows."""

    def test_identity(self):
        a = np.array([0.6, 0.8])
        assert d_pos_alone(a, a) == 0.0

    def test_orthogonal_unit_vectors(self):
        assert d_pos_alone(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_antipodal_unit_vectors(self):
        assert d_pos_alone(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 4.0

    def test_length_mismatch(self):
        rng = np.random.default_rng(2)
        anchors, shops = random_triple(rng)
        with pytest.raises(ValueError, match="2 x C"):
            triplet_loss(anchors[:, :3], shops, 0.5)

    def test_unit_vector_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = d_pos_alone(unit(rng), unit(rng))
            assert 0.0 <= d <= 4.0 + 1e-12


class TestTripleEmbeddings:
    """``triplet_loss`` checks the rows it is given."""

    def test_rejects_unnormalized(self):
        # One check covers all four rows; the tolerance is 1e-4 on the norm.
        v = np.array([0.6, 0.8])
        for bad in (
            v * 2.0,
            v * (1.0 + 2e-4),
            v * (1.0 - 2e-4),
            np.array([np.nan, 0.0]),
            np.array([np.inf, 0.0]),
        ):
            for row in range(4):
                rows = [v, v, v, v]
                rows[row] = bad
                with pytest.raises(ValueError, match="L2-normalized"):
                    triplet_loss(*stacks(*rows), 0.5)

    def test_accepts_rows_within_the_tolerance(self):
        v = np.array([0.6, 0.8])
        for near in (v * (1.0 + 5e-5), v * (1.0 - 5e-5)):
            for row in range(4):
                rows = [v, v, v, v]
                rows[row] = near
                assert triplet_loss(*stacks(*rows), 0.5) >= 0.0

    def test_rejects_mixed_lengths(self):
        rng = np.random.default_rng(2)
        anchors, shops = random_triple(rng)
        with pytest.raises(ValueError, match="2 x C"):
            triplet_loss(anchors[:1], shops[:1], 0.5)
        three = np.stack([unit(rng) for _ in range(3)])
        with pytest.raises(ValueError, match="2 x C"):
            triplet_loss(three, three, 0.5)
        with pytest.raises(ValueError, match="2 x C"):
            triplet_loss(anchors[0], shops[0], 0.5)


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
        assert triplet_loss(*stacks(ap, an, p, q), 0.5) == pytest.approx(0.3, abs=1e-12)

    def test_satisfied_margin_is_zero(self):
        v = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])  # d(anchor_neg, negative) = 2 >= alpha
        assert triplet_loss(*stacks(v, v, v, q), 0.5) == 0.0

    def test_equal_distances_hit_margin_exactly(self):
        # same geometry on both sides makes the loss exactly the margin
        rng = np.random.default_rng(3)
        a, b = unit(rng), unit(rng)
        assert triplet_loss(*stacks(a, a, b, b), 0.5) == 0.5

    def test_negative_margin_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            triplet_loss(*random_triple(rng), -0.1)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.1])
    def test_margin_must_be_a_finite_non_negative_number(self, alpha):
        # NaN would score every triple 0.0 and inf every one inf.
        message = rf"^margin alpha must be a number in \[0, inf\), got {alpha!r}$"
        with pytest.raises(ValueError, match=message):
            triplet_loss(*random_triple(np.random.default_rng(4)), alpha)

    def test_loss_nonnegative_and_zero_condition(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            anchors, shops = random_triple(rng)
            alpha = float(rng.uniform(0.0, 1.0))
            loss = triplet_loss(anchors, shops, alpha)
            assert loss >= 0.0
            d_pos = sq_dist(anchors[0], shops[0])
            d_neg = sq_dist(anchors[1], shops[1])
            assert (loss == 0.0) == (d_pos + alpha <= d_neg)

    @given(st.floats(0.0, 2.0), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_monotone_in_positive_distance(self, gap, alpha):
        # widening the anchor/positive gap with everything else fixed
        # never decreases the loss
        def embeddings(d_pos):
            c = 1.0 - d_pos / 2.0
            s = np.sqrt(max(0.0, 1.0 - c * c))
            return stacks(
                np.array([1.0, 0.0]),
                np.array([1.0, 0.0]),
                np.array([c, s]),
                np.array([0.0, 1.0]),
            )

        wider = min(2.0, gap + 0.25)
        assert triplet_loss(*embeddings(wider), alpha) >= triplet_loss(*embeddings(gap), alpha)


class TestTripletLossBackward:
    def test_inactive_hinge_zero_gradients(self):
        v = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        anchors, shops = stacks(v, v, v, q)
        loss = triplet_loss(anchors, shops, 0.5)
        assert loss == 0.0
        for g in triplet_loss_backward(anchors, shops, loss):
            np.testing.assert_array_equal(g, np.zeros((2, 2)))

    def test_boundary_argument_exactly_zero(self):
        # anchor_pos == positive and anchor_neg == negative with alpha 0:
        # the hinge argument is exactly 0 and the kink counts as inactive
        rng = np.random.default_rng(6)
        a, b = unit(rng), unit(rng)
        anchors, shops = stacks(a, b, a, b)
        loss = triplet_loss(anchors, shops, 0.0)
        assert loss == 0.0
        for g in triplet_loss_backward(anchors, shops, loss):
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_boundary_with_integer_distances(self):
        # d_pos=2, d_neg=4, alpha=2: argument is exactly 0 in floats
        anchors, shops = stacks(
            np.array([1.0, 0.0]),
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([-1.0, 0.0]),
        )
        loss = triplet_loss(anchors, shops, 2.0)
        assert loss == 0.0
        for g in triplet_loss_backward(anchors, shops, loss):
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_active_hand_case(self):
        anchors, shops = stacks(
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
        )
        loss = triplet_loss(anchors, shops, 0.5)
        assert loss == 2.5
        grad_anchors, grad_shops = triplet_loss_backward(anchors, shops, loss)
        # d(anchor_neg, negative) = 0, so the push row is zero.
        np.testing.assert_array_equal(grad_anchors, [[2.0, -2.0], [0.0, 0.0]])
        np.testing.assert_array_equal(grad_shops, [[-2.0, 2.0], [0.0, 0.0]])

    def test_a_given_loss_stands_for_the_hinge(self):
        # The loss passed in decides, not a fresh hinge: 0 means inactive,
        # and a positive loss gives the active gradient.
        rng = np.random.default_rng(8)
        for _ in range(50):
            anchors, shops = random_triple(rng)
            active = triplet_loss_backward(anchors, shops, 1.0)
            np.testing.assert_array_equal(active[0], 2.0 * (anchors - shops) * [[1.0], [-1.0]])
            np.testing.assert_array_equal(active[1], -active[0])
            for g in triplet_loss_backward(anchors, shops, 0.0):
                np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 20:
            anchors, shops = random_triple(rng)
            alpha = float(rng.uniform(0.2, 1.0))
            loss = triplet_loss(anchors, shops, alpha)
            if loss < 0.05:  # stay clear of the kink
                continue
            checked += 1
            grad_anchors, grad_shops = triplet_loss_backward(anchors, shops, loss)
            numeric_anchors = finite_diff_grad(lambda a: triplet_loss(a, shops, alpha), anchors)
            numeric_shops = finite_diff_grad(lambda s: triplet_loss(anchors, s, alpha), shops)
            np.testing.assert_allclose(grad_anchors, numeric_anchors, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(grad_shops, numeric_shops, rtol=1e-6, atol=1e-6)
