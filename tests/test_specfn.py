import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw as scipy_lambertw

from bifield import specfn
from bifield.errors import NegativeArgument
from bifield.specfn import (
    lambert_w_from_log_rows,
    lambert_w_rows,
    smallest_positive_cubic_root_rows,
)

import scalar_inversions as scalar
from scalar_inversions import BracketFailure, invert_monotone

# Newton iteration on w e^w = 1, run to convergence beforehand and frozen.
W_OF_ONE = 0.5671432904097838


class TestLambertW:
    def test_known_value(self):
        assert float(lambert_w_rows(1.0)) == pytest.approx(W_OF_ONE, abs=1e-15)

    def test_zero(self):
        assert float(lambert_w_rows(0.0)) == 0.0

    def test_negative_raises(self):
        with pytest.raises(NegativeArgument):
            lambert_w_rows(-0.1)

    @pytest.mark.parametrize(
        "x", [1e-12, 1e-8, 1e-3, 0.1, 0.25, 0.3, 0.9, 1.0, 2.9, 3.0, 3.1, 10.0, 1e3, 1e8, 1e12]
    )
    def test_residual_ladder(self, x):
        w = float(lambert_w_rows(x))
        assert abs(w * math.exp(w) - x) <= 1e-13 * max(1.0, x)

    @pytest.mark.parametrize("x", [0.05, 0.7, 4.0, 123.0, 1e6])
    def test_against_scipy(self, x):
        assert float(lambert_w_rows(x)) == pytest.approx(float(scipy_lambertw(x).real), rel=1e-14)

    @given(st.floats(min_value=1e-10, max_value=1e9))
    @settings(max_examples=200, deadline=None)
    def test_residual_property(self, x):
        w = float(lambert_w_rows(x))
        assert w >= 0.0
        assert abs(w * math.exp(w) - x) <= 1e-13 * max(1.0, x)

    def test_log_form_matches_plain(self):
        x = 50.0
        assert float(lambert_w_from_log_rows(math.log(x))) == pytest.approx(
            float(lambert_w_rows(x)), rel=1e-14)

    def test_log_form_huge_argument(self):
        # residual of w + ln w = ln x is the relative residual of w e^w = x
        lx = np.array([720.0, 1e4, 1e6])
        w = lambert_w_from_log_rows(lx)
        assert np.all(np.abs(w + np.log(w) - lx) <= 1e-13 * lx)


class TestCubicRoot:
    def test_frozen_simple(self):
        # (0 + a)^2 a = 1 -> a = 1;  (1 + a)^2 a = 4 -> a = 1
        a = smallest_positive_cubic_root_rows([0.0, 1.0], [1.0, 4.0])
        np.testing.assert_allclose(a, [1.0, 1.0], rtol=1e-12)

    def test_zero_sigma(self):
        assert np.array_equal(smallest_positive_cubic_root_rows([5.0, -5.0], 0.0), [0.0, 0.0])

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            smallest_positive_cubic_root_rows(1.0, -1.0)

    def test_cancellation_regime(self):
        # root ~ sigma2/gamma^2 while the closed form loses every digit
        gamma, sigma2 = 2.0, 1e-20
        a = float(smallest_positive_cubic_root_rows(gamma, sigma2))
        assert a == pytest.approx(sigma2 / gamma**2, rel=1e-6)
        assert abs((gamma + a) ** 2 * a - sigma2) <= 1e-10 * max(1.0, sigma2)

    def test_three_real_roots_takes_smallest(self):
        # gamma < 0 with sigma2 < -4 gamma^3/27: smallest root left of -gamma/3
        gamma, sigma2 = -3.0, 1.0
        a = float(smallest_positive_cubic_root_rows(gamma, sigma2))
        assert 0.0 <= a <= -gamma / 3.0
        assert abs((gamma + a) ** 2 * a - sigma2) <= 1e-10

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_residual_property(self, gamma, sigma2):
        a = float(smallest_positive_cubic_root_rows(gamma, sigma2))
        assert a >= 0.0
        assert abs((gamma + a) ** 2 * a - sigma2) <= 1e-10 * max(1.0, sigma2)

    def test_smallest_nonnegative(self):
        # scan phi on [0, a) for sign changes: none may occur before the root
        rng = np.random.default_rng(7)
        gamma = rng.uniform(-5, 5, 50)
        sigma2 = rng.uniform(0, 20, 50)
        for g, s2, a in zip(gamma, sigma2, smallest_positive_cubic_root_rows(gamma, sigma2)):
            grid = np.linspace(0.0, a * (1.0 - 1e-9), 200)
            phi = (g + grid) ** 2 * grid - s2
            assert np.all(phi <= 1e-10 * max(1.0, s2))


class TestInvertMonotone:
    def test_cubic_root(self):
        root = invert_monotone(lambda a: a**3, 8.0, 0.0, 10.0, deriv=lambda a: 3 * a * a)
        assert root == pytest.approx(2.0, rel=1e-12)

    def test_without_derivative(self):
        root = invert_monotone(lambda a: a + math.sin(a), 1.0, 0.0, 2.0)
        assert abs(root + math.sin(root) - 1.0) <= 1e-12

    def test_decreasing(self):
        root = invert_monotone(lambda a: -a, -3.0, 0.0, 10.0)
        assert root == pytest.approx(3.0, rel=1e-12)

    def test_bracket_failure(self):
        with pytest.raises(BracketFailure):
            invert_monotone(lambda a: a, 100.0, 0.0, 1.0)

    def test_endpoint_hit(self):
        assert invert_monotone(lambda a: a, 0.0, 0.0, 1.0) == 0.0

    def test_rootless_target_stops_when_bracket_closes(self):
        # g jumps over the target at a = 3, above 0.0625, where a bracket of
        # adjacent floats is wider than 1e-17 of its end: once no float lies
        # inside [lo, hi] the solve returns its best iterate instead of
        # running on to the 200-step cap (202 evaluations)
        calls = []

        def g(a):
            calls.append(a)
            return a if a < 3.0 else a + 1.0

        root = invert_monotone(g, 3.5, 0.0, 8.0, deriv=lambda a: 1.0)
        assert root in (3.0, math.nextafter(3.0, 0.0))
        assert len(calls) < 80

    @given(st.floats(min_value=0.01, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_residual_property(self, target):
        g = lambda a: a * math.exp(min(a, 50.0)) if a < 50 else a * math.exp(50.0)
        root = invert_monotone(g, target, 0.0, 60.0)
        assert abs(g(root) - target) <= 1e-12 * max(1.0, target)


class TestArrayKernelsAgainstScalar:
    """The array kernels against the scalar algorithms of the test oracle,
    element by element. numpy's exp, log and pow differ from the math
    module's in the last bit on a few percent of inputs, so the converged
    W agrees to a few ulps; the cubic's closed form magnifies such a change
    by up to 1e6 before a polish that stops at a 1e-12 residual."""

    def test_lambert_w_rows(self):
        rng = np.random.default_rng(11)
        # every seed branch, their edges, and the ln-argument path past 1e308
        x = np.concatenate([[0.0, 5e-324, 0.25, np.nextafter(0.25, 1.0), 3.0,
                             np.nextafter(3.0, 4.0), 1e308, 1.5e308, 1.7e308],
                            np.logspace(-300.0, 308.0, 2000), rng.uniform(0.0, 5.0, 1000)])
        w = lambert_w_rows(x)
        ref = np.array([scalar.lambert_w(v) for v in x])
        assert np.all(np.abs(w - ref) <= 4 * np.finfo(float).eps * np.abs(ref))
        assert lambert_w_rows(x.reshape(-1, 3)).shape == (len(x) // 3, 3)

    def test_lambert_w_from_log_rows(self):
        rng = np.random.default_rng(12)
        log_x = np.concatenate([rng.uniform(-800.0, 5.0, 500), np.logspace(0.0, 15.0, 1000)])
        w = lambert_w_from_log_rows(log_x)
        ref = np.array([scalar.lambert_w_from_log(v) for v in log_x])
        assert np.all(np.abs(w - ref) <= 4 * np.finfo(float).eps * np.abs(ref))

    def test_cubic_rows(self):
        rng = np.random.default_rng(13)
        # closed form, three real roots (gamma < 0, small sigma2) and the
        # cancelling cube-root difference (gamma > 0, tiny sigma2)
        gamma = np.concatenate([rng.uniform(-30.0, 30.0, 4000), rng.uniform(0.1, 10.0, 1000),
                                [0.0, 0.0, 5.0, -5.0]])
        sigma2 = np.concatenate([rng.uniform(0.0, 100.0, 4000),
                                 10.0 ** rng.uniform(-30.0, -8.0, 1000), [0.0, 1.0, 0.0, 0.0]])
        a = smallest_positive_cubic_root_rows(gamma, sigma2)
        ref = np.array([scalar.smallest_positive_cubic_root(g, s) for g, s in zip(gamma, sigma2)])
        assert np.all(np.abs(a - ref) <= 1e-12 * np.maximum(1.0, ref))
        assert np.all(np.abs((gamma + a) ** 2 * a - sigma2) <= 1e-10 * np.maximum(1.0, sigma2))

    @pytest.mark.parametrize("name, args", [
        ("lambert_w", (-0.1,)), ("lambert_w", (math.nan,)),
        ("smallest_positive_cubic_root", (1.0, -1.0))])
    def test_one_element_failures_match_scalar(self, name, args):
        with pytest.raises(Exception) as got:
            getattr(specfn, f"{name}_rows")(*args)
        with pytest.raises(Exception) as ref:
            getattr(scalar, name)(*args)
        assert (type(got.value), str(got.value)) == (type(ref.value), str(ref.value))

    def test_rows_failures_name_the_first_element(self):
        with pytest.raises(NegativeArgument, match=r"^lambert_w: negative argument -2\.0$"):
            lambert_w_rows([1.0, -2.0, -3.0])
        with pytest.raises(ValueError, match=r"^sigma2 must be >= 0, got -1\.0$"):
            smallest_positive_cubic_root_rows([1.0, 2.0], [0.5, -1.0])
