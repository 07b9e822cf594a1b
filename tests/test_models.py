import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifield.models import ModelParams

import scalar_inversions as oracle

ALL_KINDS = ["classical", "logarithmic", "exponential", "fractional_power", "quadratic"]


def make(kind, beta=1.0, kappa=0.0, alpha=0.5, p=2.5):
    if kind == "classical":
        return ModelParams.classical(beta=beta, kappa=kappa)
    if kind == "logarithmic":
        return ModelParams.logarithmic(beta=beta, kappa=kappa)
    if kind == "exponential":
        return ModelParams.exponential(beta=beta, kappa=kappa)
    if kind == "fractional_power":
        return ModelParams.fractional_power(beta=beta, p=p, kappa=kappa)
    return ModelParams.quadratic(alpha=alpha, kappa=kappa)


def fn(m, s, order=0):
    """f (order 0), f' (1) or f'' (2) of m at one s in the model domain:
    the one-element derivative_rows call; past overflow the value is inf."""
    with np.errstate(over="ignore"):
        return float(m.derivative_rows(np.array([float(s)]), order)[0])


def domain_sample(kind, p, rng):
    # a point comfortably inside each model's s-domain
    if kind == "classical":
        return rng.uniform(-3.0, 0.45)
    if kind == "logarithmic":
        return rng.uniform(-3.0, 0.9)
    if kind == "fractional_power":
        return rng.uniform(-0.9 * p, 3.0)
    return rng.uniform(-3.0, 3.0)


class TestFrozenValues:
    def test_classical(self):
        m = ModelParams.classical(beta=1.0)
        assert fn(m, 0.375) == pytest.approx(0.5, rel=1e-14)
        assert fn(m, 0.375, 1) == pytest.approx(2.0, rel=1e-14)
        assert fn(m, 0.375, 2) == pytest.approx(8.0, rel=1e-14)

    def test_logarithmic(self):
        m = ModelParams.logarithmic(beta=1.0)
        assert fn(m, 0.5) == pytest.approx(math.log(2.0), rel=1e-14)
        assert fn(m, 0.5, 1) == pytest.approx(2.0, rel=1e-14)
        assert fn(m, 0.5, 2) == pytest.approx(4.0, rel=1e-14)

    def test_exponential(self):
        m = ModelParams.exponential(beta=2.0)
        assert fn(m, 0.0, 1) == 1.0
        assert fn(m, 0.0, 2) == pytest.approx(2.0, rel=1e-14)
        assert fn(m, 1.0) == pytest.approx((math.e**2 - 1.0) / 2.0, rel=1e-14)

    def test_quadratic(self):
        m = ModelParams.quadratic(alpha=0.5)
        assert fn(m, 1.0) == pytest.approx(1.5, rel=1e-14)
        assert fn(m, 1.0, 1) == pytest.approx(2.0, rel=1e-14)
        assert fn(m, 1.0, 2) == pytest.approx(1.0, rel=1e-14)

    def test_fractional_f_does_not_cancel_at_small_s(self):
        # the power form ((1 + s/2)^2 - 1) rounds 1 + s/2 first and read
        # f(1e-15) = 8.9e-16 and f(3e-19) = 0; f = s + s^2/4 at p = 2
        m = ModelParams.fractional_power(beta=1.0, p=2.0)
        for s in (1e-15, 3e-19):
            assert fn(m, s) == pytest.approx(s + 0.25 * s * s, rel=4e-16)
            assert m.derivative_rows(np.array([s]), 0)[0] == fn(m, s)
        assert fn(ModelParams.fractional_power(beta=1.0, p=1.5), 3e-19) == pytest.approx(3e-19, rel=4e-16)
        # a nonpositive base (integer p only) keeps the power form
        assert fn(m, -3.0) == -0.75 and fn(m, -2.0) == -1.0

    def test_maxwell_is_p_equal_one(self):
        m = ModelParams.fractional_power(beta=3.0, p=1.0)
        for s in (-2.0, 0.0, 1.7):
            assert fn(m, s) == pytest.approx(s, abs=1e-15)
            assert fn(m, s, 1) == 1.0
            assert fn(m, s, 2) == 0.0


class TestWeakFieldNormalization:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_f0_and_fprime0(self, kind):
        m = make(kind)
        assert fn(m, 0.0) == 0.0
        assert fn(m, 0.0, 1) == 1.0


class TestDomains:
    def test_classical_boundary(self):
        m = ModelParams.classical(beta=1.0)
        assert not m.domain_rows(0.5) and not m.domain_rows(0.6)
        assert m.domain_rows(0.4999)

    def test_logarithmic_boundary(self):
        m = ModelParams.logarithmic(beta=2.0)
        assert not m.domain_rows(0.5)
        assert m.domain_rows(0.4999)

    def test_exponential_unbounded(self):
        m = ModelParams.exponential(beta=1.0)
        assert fn(m, -100.0) == pytest.approx(-1.0, rel=1e-12)
        assert fn(m, 5.0) > 0.0

    def test_fractional_integer_p_all_reals(self):
        m = ModelParams.fractional_power(beta=1.0, p=3.0)
        assert m.domain_rows(-100.0) and math.isfinite(fn(m, -100.0))

    def test_fractional_noninteger_p_bounded(self):
        m = ModelParams.fractional_power(beta=1.0, p=2.5)
        assert not m.domain_rows(-3.0)  # 1 + s/p = -0.2


class TestDerivativeConsistency:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fd_cross_check(self, kind):
        m = make(kind)
        rng = np.random.default_rng(3)
        for _ in range(40):
            s = domain_sample(kind, m.p, rng)
            h = 1e-6 * max(1.0, abs(s))
            fd1 = (fn(m, s + h) - fn(m, s - h)) / (2 * h)
            fd2 = (fn(m, s + h, 1) - fn(m, s - h, 1)) / (2 * h)
            assert fd1 == pytest.approx(fn(m, s, 1), rel=1e-6, abs=1e-9)
            assert fd2 == pytest.approx(fn(m, s, 2), rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_electrostatic_response_monotone(self, kind):
        # g(a) = f'(a/2)^2 a must increase strictly in a over the range the
        # electrostatic inversion sweeps: a = E^2 saturates below 1/beta
        # (classical) and 2/beta (logarithmic), unbounded otherwise
        m = make(kind)
        a_max = {"classical": 0.999, "logarithmic": 1.999}.get(kind, 10.0)
        grid = np.linspace(0.0, a_max, 400)
        g = np.array([fn(m, 0.5 * a, 1) ** 2 * a for a in grid])
        assert np.all(np.diff(g) > 0.0)


class TestCustom:
    @staticmethod
    def _valid_triple():
        # f(s) = s + s^2/4 with exact derivatives
        return (lambda s: s + 0.25 * s * s, lambda s: 1 + 0.5 * s, lambda s: 0.5)

    def test_valid_custom(self):
        f, fp, fpp = self._valid_triple()
        m = ModelParams.custom(f, fp, fpp)
        assert fn(m, 2.0) == pytest.approx(3.0)
        assert fn(m, 2.0, 1) == pytest.approx(2.0)

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError):
            ModelParams.custom(lambda s: s + 1.0, lambda s: 1.0, lambda s: 0.0)
        with pytest.raises(ValueError):
            ModelParams.custom(lambda s: 2.0 * s, lambda s: 2.0, lambda s: 0.0)

    def test_inconsistent_derivative_rejected(self):
        with pytest.raises(ValueError):
            ModelParams.custom(lambda s: s + 0.25 * s * s, lambda s: 1.0 + 0.6 * s, lambda s: 0.6)

    def test_domain_bounds_respected(self):
        f, fp, fpp = self._valid_triple()
        m = ModelParams.custom(f, fp, fpp, s_min=-1.0, s_max=1.0)
        assert not m.domain_rows(1.5) and m.domain_rows(0.9)


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            ModelParams.classical(beta=0.0)
        with pytest.raises(ValueError):
            ModelParams.classical(beta=1.0, kappa=-0.5)
        with pytest.raises(ValueError):
            ModelParams.quadratic(alpha=-1.0)
        with pytest.raises(ValueError):
            ModelParams.fractional_power(p=0.5)
        with pytest.raises(ValueError):
            ModelParams(kind="cubic")


@given(st.floats(min_value=-5.0, max_value=0.49))
@settings(max_examples=150, deadline=None)
def test_classical_fprime_matches_fd_property(s):
    m = ModelParams.classical(beta=1.0)
    h = 1e-6 * max(1.0, abs(s))
    if s + h >= 0.4999:
        return
    fd = (fn(m, s + h) - fn(m, s - h)) / (2 * h)
    assert fd == pytest.approx(fn(m, s, 1), rel=2e-6)


class TestRows:
    """One model table: derivative_rows and domain_rows give one s the bits
    of a rows call, and agree with the oracle's own table
    (scalar_inversions.f, f_prime, f_double_prime, in_domain; math module,
    one s at a time) to rounding."""

    @staticmethod
    def check_table(m, s):
        s = np.concatenate([s, [np.nan, np.inf, -np.inf]])
        ok = m.domain_rows(s)
        assert list(ok) == [bool(m.domain_rows(v)) for v in s]
        assert list(ok) == [oracle.in_domain(m, v) for v in s]
        assert ok.sum() > 500
        for order, ref in enumerate([oracle.f, oracle.f_prime, oracle.f_double_prime]):
            rows = m.derivative_rows(s[ok], order)
            assert np.array_equal(rows, [fn(m, v, order) for v in s[ok]]), order
            np.testing.assert_allclose(rows, [ref(m, v) for v in s[ok]], rtol=4e-16, atol=0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.5, 3.0])
    def test_fractional_power_rounds_like_the_scalar(self, p):
        m = ModelParams.fractional_power(beta=0.9, p=p)
        self.check_table(m, np.random.default_rng(51).uniform(-1.5, 20.0, 4000))

    @pytest.mark.parametrize("kind", ALL_KINDS + ["custom"])
    def test_domain_and_derivatives_match_the_scalar(self, kind):
        if kind == "custom":
            m = ModelParams.custom(*TestCustom._valid_triple(), s_min=-2.0, s_max=2.0)
        else:
            m = make(kind)
        self.check_table(m, np.random.default_rng(52).uniform(-3.0, 3.0, 2000))
        assert str(m.domain_error(-2.5)) == f"s=-2.5 outside domain of {m.kind} model"

    def test_exponential_overflow_is_inf(self):
        m = ModelParams.exponential(1.0)
        assert fn(m, 1000.0, 1) == math.inf
        assert fn(m, 1000.0) == math.inf and fn(m, 1000.0, 2) == math.inf
