import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xattn.numeric import (
    NonFiniteValueError,
    finite_diff_grad,
    l2_normalize,
    l2_normalize_backward,
    softmax,
)

from oracles import naive_softmax


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_log3_offsets(self):
        # Frozen from extended-precision evaluation of exp/sum: any common
        # offset c added to [0, ln 3] must give exactly [0.25, 0.75].
        for c in (-40.0, -1.0, 0.0, 2.5, 40.0):
            got = softmax([c, c + math.log(3.0)])
            np.testing.assert_allclose(got, [0.25, 0.75], atol=1e-12)

    def test_single_element(self):
        np.testing.assert_array_equal(softmax([5.0]), [1.0])

    def test_overflow_safety(self):
        got = softmax([1000.0, 1000.0])
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax([0.0, np.nan])
        with pytest.raises(ValueError):
            softmax([np.inf, 1.0])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            scores = rng.uniform(-50, 50, size=rng.integers(1, 65))
            np.testing.assert_allclose(
                softmax(scores), naive_softmax(scores), rtol=0, atol=1e-12
            )

    def test_order_preserving(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            scores = rng.uniform(-50, 50, size=rng.integers(2, 33))
            weights = softmax(scores)
            order = np.argsort(scores)
            assert np.all(np.diff(weights[order]) >= 0)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=64),
        st.floats(-50, 50),
    )
    @settings(max_examples=200)
    def test_shift_invariance_and_normalization(self, scores, shift):
        base = softmax(scores)
        shifted = softmax([s + shift for s in scores])
        assert abs(base.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(base, shifted, atol=1e-12)
        assert np.all(base > 0) and np.all(base <= 1.0)


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_zero_vector_guard(self):
        np.testing.assert_array_equal(l2_normalize([0.0, 0.0]), [0.0, 0.0])

    def test_already_unit(self):
        np.testing.assert_array_equal(l2_normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_unit_norm_within_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.normal(size=rng.integers(1, 20))
            if np.linalg.norm(v) < 1e-6:
                continue
            assert abs(np.linalg.norm(l2_normalize(v)) - 1.0) <= 1e-12

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
    @settings(max_examples=200)
    def test_idempotent(self, values):
        v = np.asarray(values)
        if np.linalg.norm(v) < 1e-6:
            return
        once = l2_normalize(v)
        twice = l2_normalize(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for shape in [(6,)] * 25 + [(1, 6), (3, 6), (4, 2)] * 5:
            v = rng.normal(size=shape)
            g = rng.normal(size=shape)
            analytic = l2_normalize_backward(v, g)
            numeric = finite_diff_grad(lambda x: float(np.sum(g * l2_normalize(x))), v)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    def test_backward_below_the_guard_is_linear(self):
        # Each row on its own: a zero row gets g / eps, the other the projection.
        v = np.array([[0.0, 0.0], [3.0, 4.0]])
        g = np.array([[1.0, -2.0], [1.0, 0.0]])
        got = l2_normalize_backward(v, g)
        np.testing.assert_array_equal(got[0], g[0] / 1e-12)
        np.testing.assert_allclose(got[1], l2_normalize_backward(v[1], g[1]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(got[1], [0.128, -0.096], rtol=0, atol=1e-15)


class TestFiniteDiffGrad:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda x: float(x @ x), np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_constant(self):
        grad = finite_diff_grad(lambda x: 7.5, np.array([1.0, -2.0, 3.0]))
        np.testing.assert_array_equal(grad, [0.0, 0.0, 0.0])

    def test_matrix_input(self):
        x = np.arange(6, dtype=np.float64).reshape(2, 3)
        grad = finite_diff_grad(lambda m: float((m * m).sum()), x)
        np.testing.assert_allclose(grad, 2 * x, atol=1e-7)

    def test_non_finite_reports_coordinate(self):
        def bad(x):
            return math.inf if x[1] > 0.5 else float(x.sum())

        with pytest.raises(NonFiniteValueError) as err:
            finite_diff_grad(bad, np.array([0.0, 0.5, 0.0]))
        assert err.value.coordinate == 1

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.array([1.0]), h=0.0)
