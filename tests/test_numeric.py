import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xattn.numeric import l2_normalize, l2_normalize_backward, normalize_rows, softmax

from gradcheck import NonFiniteValueError, finite_diff_grad
from oracles import (
    linalg_l2_normalize,
    linalg_l2_normalize_backward,
    naive_softmax,
    reference_l2_normalize_backward,
)


def backward_of(v, grad_output):
    """``l2_normalize_backward`` of a vector or stack as it stands: the
    stack normalised by ``normalize_rows`` first, a vector as a stack of one."""
    x, g = np.asarray(v, dtype=np.float64), np.asarray(grad_output, dtype=np.float64)
    if x.ndim == 1:
        return l2_normalize_backward(normalize_rows(x[None]), g[None])[0]
    return l2_normalize_backward(normalize_rows(x), g)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def vectors_and_stacks(draw):
    """A vector of 1 to 64 entries or a stack of 1 to 8 such rows, each row
    scaled to a norm from 1e-20 (below NORM_EPS) to 1e20, some rows zero,
    with a gradient of the same shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = draw(st.integers(1, 64))
    rows = draw(st.integers(1, 8))
    x = rng.normal(size=(rows, channels))
    x *= 10.0 ** rng.uniform(-20, 20, size=(rows, 1))
    x[rng.random(rows) < 0.2] = 0.0
    g = rng.normal(size=x.shape)
    if draw(st.booleans()):
        return x[0], g[0]
    return x, g


@st.composite
def backward_cases(draw):
    """``vectors_and_stacks`` with some rows, or the vector, drawn again at
    a norm from 1e160 to 1e300, so that their squared norm overflows."""
    x, g = draw(vectors_and_stacks())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.atleast_2d(x)  # a view: writes reach x
    over = rng.random(len(rows)) < 0.3
    rows[over] = rng.normal(size=(over.sum(), rows.shape[1]))
    rows[over] *= 10.0 ** rng.uniform(160, 300, size=(over.sum(), 1))
    return x, g, over


@st.composite
def row_stacks(draw):
    """A stack of 1 to 300 rows of 2, 16 or 128 entries, each row scaled to
    a norm from 1e-20 (below NORM_EPS) to 1e20, some rows zero and some at
    a norm from 1e160 to 1e300, whose squared norm overflows; with a
    gradient of the same shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = draw(st.sampled_from((2, 16, 128)))
    rows = draw(st.integers(1, 300))
    x = rng.normal(size=(rows, channels)) * 10.0 ** rng.uniform(-20, 20, size=(rows, 1))
    x[rng.random(rows) < 0.1] = 0.0
    over = rng.random(rows) < 0.1
    x[over] = rng.normal(size=(over.sum(), channels)) * 10.0 ** rng.uniform(160, 300, size=(over.sum(), 1))
    return x, rng.normal(size=x.shape)


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
            analytic = backward_of(v, g)
            numeric = finite_diff_grad(lambda x: float(np.sum(g * l2_normalize(x))), v)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    def test_backward_below_the_guard_is_linear(self):
        # Each row on its own: a zero row gets g / eps, the other the projection.
        v = np.array([[0.0, 0.0], [3.0, 4.0]])
        g = np.array([[1.0, -2.0], [1.0, 0.0]])
        got = backward_of(v, g)
        np.testing.assert_array_equal(got[0], g[0] / 1e-12)
        np.testing.assert_allclose(got[1], backward_of(v[1], g[1]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(got[1], [0.128, -0.096], rtol=0, atol=1e-15)

    def test_backward_refuses_a_gradient_of_another_shape(self):
        # (1, 3) and (3,) would broadcast against the rows without the check.
        kept = normalize_rows(np.ones((2, 3)))
        for shape in ((1, 3), (3,), (2, 4), (2, 3, 1)):
            message = rf"^gradient of shape {re.escape(str(shape))} does not match the rows' \(2, 3\)$"
            with pytest.raises(ValueError, match=message):
                l2_normalize_backward(kept, np.ones(shape))

    @given(vectors_and_stacks())
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_the_linalg_norm_forms(self, case):
        x, g = case
        assert same_bits(l2_normalize(x), linalg_l2_normalize(x))
        assert same_bits(backward_of(x, g), linalg_l2_normalize_backward(x, g))

    @given(backward_cases())
    @settings(max_examples=300, deadline=None)
    def test_backward_gives_the_reference_bits(self, case):
        # Zero rows, rows below NORM_EPS and rows whose squared norm
        # overflows, from the norms normalize_rows kept.
        x, g, over = case
        with np.errstate(over="ignore"):
            want = reference_l2_normalize_backward(x, g)
            got = backward_of(x, g)
            assert same_bits(got, want)
        # An overflowing row gets a zero gradient, as it always did.
        assert not np.atleast_2d(got)[over].any()
        assert np.isfinite(got).all()

    @given(row_stacks())
    @settings(max_examples=100, deadline=None)
    def test_a_row_has_the_same_bits_alone_or_in_a_stack(self, case):
        # Every squared norm is np.vecdot's, which must give ndarray.dot's
        # bits for each row, so that a training row and a serving vector agree.
        x, g = case
        with np.errstate(over="ignore"):
            kept = normalize_rows(x)
            grad = l2_normalize_backward(kept, g)
            for i, row in enumerate(x):
                assert kept.norm[i, 0] == math.sqrt(row.dot(row))
                assert same_bits(kept.unit[i], l2_normalize(row))
                assert same_bits(grad[i], backward_of(row, g[i]))

    def test_overflowing_vector_still_normalises(self):
        # Its squared norm is inf, which numpy reports before the rescale.
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = l2_normalize(np.array([1e200, 0.0]))
        assert same_bits(got, np.array([1.0, 0.0]))
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = l2_normalize(np.array([-3e300, 4e300]))
        np.testing.assert_allclose(got, [-0.6, 0.8], rtol=0, atol=1e-15)

    def test_overflowing_row_leaves_the_other_rows_alone(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 2)) * 10.0 ** rng.uniform(-20, 20, size=(6, 1))
        x[[1, 4]] = [1e200, 0.0], [0.0, -1e180]
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = l2_normalize(x)
        with np.errstate(over="ignore"):
            old = linalg_l2_normalize(x)
        assert same_bits(got[1], np.array([1.0, 0.0]))
        assert same_bits(got[4], np.array([0.0, -1.0]))
        kept = [0, 2, 3, 5]
        assert same_bits(got[kept], old[kept])


class TestFiniteDiffGrad:
    # The test helper of tests/gradcheck.py, which the gradient checks of
    # this file and of test_attention.py and test_gradcheck.py rely on.
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
