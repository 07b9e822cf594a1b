import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from bifield import constitutive, models, specfn
from bifield.constitutive import forward_rows, invert_rows
from bifield.errors import DomainViolation, FieldError, InversionFailure, raise_first
from bifield.models import ModelParams

import scalar_inversions
from scalar_inversions import dyonic_eh as scalar_eh
from scalar_inversions import electrostatic_e as scalar_e
from scalar_inversions import forward_fields
from scalar_inversions import magnetostatic_h as scalar_h

CLOSED_FORM_TOL = 1e-9
ROOT_FOUND_TOL = 1e-7
ZERO3 = np.zeros(3)


def all_params(kappa):
    return [
        ("classical", ModelParams.classical(beta=1.0, kappa=kappa), CLOSED_FORM_TOL),
        ("logarithmic", ModelParams.logarithmic(beta=1.0, kappa=kappa), CLOSED_FORM_TOL),
        ("exponential", ModelParams.exponential(beta=1.0, kappa=kappa), CLOSED_FORM_TOL),
        ("quadratic", ModelParams.quadratic(alpha=0.5, kappa=kappa), CLOSED_FORM_TOL),
        ("fractional", ModelParams.fractional_power(beta=1.0, p=3.0, kappa=kappa), ROOT_FOUND_TOL),
    ]


def inverted(m, d, b):
    """E, H and s of the rows D, B (one point or (N, 3)), raising the
    failure of the first failing row as invert_rows records it."""
    e, h, s, code, errors = invert_rows(m, d, b)
    raise_first(code, errors)
    return e, h, s


def random_db(rng, cap=1.2):
    # moderate field strengths (|d|, |b| <= cap), inside every model's
    # comfortable regime; alpha B^2 < 1 keeps the quadratic kind single-rooted
    d = rng.normal(size=3)
    b = rng.normal(size=3)
    d *= rng.uniform(0.05, cap) / np.linalg.norm(d)
    b *= rng.uniform(0.05, cap) / np.linalg.norm(b)
    return d, b


class TestElectrostatic:
    def test_classical(self):
        m = ModelParams.classical(beta=1.0)
        e = inverted(m, (1.0, 0.0, 0.0), ZERO3)[0][0]
        np.testing.assert_allclose(e, [1.0 / math.sqrt(2.0), 0, 0], rtol=1e-14)

    def test_logarithmic(self):
        m = ModelParams.logarithmic(beta=2.0)
        e = inverted(m, (1.0, 0.0, 0.0), ZERO3)[0][0]
        # 2 / (1 + sqrt(5)): the inverse golden ratio
        np.testing.assert_allclose(e, [2.0 / (1.0 + math.sqrt(5.0)), 0, 0], rtol=1e-14)

    def test_exponential(self):
        m = ModelParams.exponential(beta=1.0)
        e = inverted(m, (1.0, 0.0, 0.0), ZERO3)[0][0]
        assert np.linalg.norm(e) == pytest.approx(0.7530891649796748, rel=1e-12)

    def test_quadratic(self):
        m = ModelParams.quadratic(alpha=1.0)
        e = inverted(m, (1.0, 0.0, 0.0), ZERO3)[0][0]
        assert np.linalg.norm(e) ** 2 == pytest.approx(0.4655712318767679, rel=1e-10)

    def test_maxwell_identity(self):
        m = ModelParams.fractional_power(p=1.0)
        d = np.array([0.3, -0.7, 1.1])
        np.testing.assert_allclose(inverted(m, d, ZERO3)[0][0], d, rtol=1e-12)

    def test_fractional_root_found(self):
        m = ModelParams.fractional_power(beta=1.0, p=3.0)
        d = np.array([2.0, 1.0, -0.5])
        e = inverted(m, d, ZERO3)[0][0]
        st = forward_fields(m, e, np.zeros(3))
        np.testing.assert_allclose(st.d, d, rtol=ROOT_FOUND_TOL)

    def test_zero(self):
        m = ModelParams.classical()
        np.testing.assert_array_equal(inverted(m, np.zeros(3), ZERO3)[0][0], np.zeros(3))

    def test_parallel_to_d(self):
        rng = np.random.default_rng(5)
        for _, m, _ in all_params(0.0):
            d = rng.normal(size=3)
            e = inverted(m, d, ZERO3)[0][0]
            cross = np.cross(e, d)
            assert np.linalg.norm(cross) <= 1e-12 * np.linalg.norm(d) ** 2


class TestMagnetostatic:
    def test_classical(self):
        m = ModelParams.classical(beta=1.0)
        h = inverted(m, ZERO3, (0.0, 2.0, 0.0))[1][0]
        np.testing.assert_allclose(h, [0, 2.0 / math.sqrt(5.0), 0], rtol=1e-14)

    def test_logarithmic(self):
        m = ModelParams.logarithmic(beta=1.0)
        h = inverted(m, ZERO3, (0.0, 0.0, 1.0))[1][0]
        np.testing.assert_allclose(h, [0, 0, 1.0 / 1.5], rtol=1e-14)

    def test_quadratic_zero_crossing(self):
        # f'(-B^2/2) = 1 - alpha B^2 vanishes at B^2 = 1/alpha: H = 0 exactly
        m = ModelParams.quadratic(alpha=1.0)
        h = inverted(m, ZERO3, (1.0, 0.0, 0.0))[1][0]
        np.testing.assert_array_equal(h, np.zeros(3))

    def test_forward_consistency(self):
        rng = np.random.default_rng(6)
        for _, m, tol in all_params(0.0):
            b = rng.normal(size=3) * 0.8
            h = inverted(m, ZERO3, b)[1][0]
            st = forward_fields(m, np.zeros(3), b)
            np.testing.assert_allclose(st.h, h, rtol=1e-12, atol=1e-15)


class TestDyonicSpecialCases:
    def test_classical_k0_example(self):
        m = ModelParams.classical(beta=1.0)
        (e,), (h,), _ = inverted(m, (1.0, 0.0, 0.0), (0.0, 2.0, 0.0))
        np.testing.assert_allclose(e, [math.sqrt(2.5), 0, 0], rtol=1e-14)
        np.testing.assert_allclose(h, [0, 2.0 * math.sqrt(0.4), 0], rtol=1e-14)

    def test_b_zero_reduces_to_electrostatic(self):
        for kappa in (0.0, 1.0):
            for _, m, _ in all_params(kappa):
                d = np.array([0.4, -0.2, 0.9])
                (e,), (h,), _ = inverted(m, d, np.zeros(3))
                np.testing.assert_array_equal(h, np.zeros(3))
                ref = scalar_e(m, d)
                assert np.linalg.norm(e - ref) <= 1e-15 * np.linalg.norm(ref)

    def test_d_zero_reduces_to_magnetostatic(self):
        for kappa in (0.0, 1.0):
            for _, m, _ in all_params(kappa):
                b = np.array([0.4, 0.1, -0.6])
                (e,), (h,), (s,) = inverted(m, np.zeros(3), b)
                np.testing.assert_array_equal(e, np.zeros(3))
                ref = scalar_h(m, b)
                assert np.linalg.norm(h - ref) <= 1e-15 * np.linalg.norm(ref)
                assert s == pytest.approx(-0.5 * float(b @ b))

    def test_both_zero(self):
        m = ModelParams.classical()
        (e,), (h,), (s,) = inverted(m, np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(e, np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros(3))
        assert s == 0.0


class TestRoundTrip:
    """The rows inversion pushed back through the scalar forward map."""

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
    def test_all_models(self, kappa):
        rng = np.random.default_rng(int(kappa * 10) + 1)
        for name, m, tol in all_params(kappa):
            d, b = map(np.array, zip(*(random_db(rng) for _ in range(250))))
            e, h, _ = inverted(m, d, b)
            for i in range(len(d)):
                st = forward_fields(m, e[i], b[i])
                res = (max(np.linalg.norm(st.d - d[i]), np.linalg.norm(st.h - h[i]))
                       / max(np.linalg.norm(d[i]), np.linalg.norm(b[i])))
                assert res <= tol, f"{name} kappa={kappa}: residual {res} at row {i}"

    def test_strong_fields_classical(self):
        # residual scale is eps * beta * B^2 (the invariant s is recomputed
        # from (E, B) with first-order cancellation), so keep B^2 <= 1e5
        m = ModelParams.classical(beta=2.0, kappa=1.0)
        rng = np.random.default_rng(9)
        rows = []
        for _ in range(100):
            d = rng.normal(size=3) * 10.0 ** rng.uniform(0, 2.5)
            b = rng.normal(size=3) * 10.0 ** rng.uniform(0, 2.5)
            rows.append((d, b))
        d, b = map(np.array, zip(*rows))
        e, h, _ = inverted(m, d, b)
        for i in range(len(d)):
            st = forward_fields(m, e[i], b[i])
            res = (max(np.linalg.norm(st.d - d[i]), np.linalg.norm(st.h - h[i]))
                   / max(np.linalg.norm(d[i]), np.linalg.norm(b[i])))
            assert res <= 1e-9, i

    def test_exponential_huge_b_log_path(self):
        # beta B^2 > 709 would overflow the naive Lambert argument
        m = ModelParams.exponential(beta=1.0, kappa=0.5)
        d = np.array([5.0, 1.0, 0.0])
        b = np.array([0.0, 30.0, 2.0])  # B^2 = 904
        (e,), (h,), _ = inverted(m, d, b)
        st = forward_fields(m, e, b)
        res = max(np.linalg.norm(st.d - d), np.linalg.norm(st.h - h)) / np.linalg.norm(b)
        assert res <= 1e-9

    def test_aux_s_matches_recomputed(self):
        rng = np.random.default_rng(12)
        for kappa in (0.0, 0.7):
            for name, m, tol in all_params(kappa):
                d, b = random_db(rng)
                (e,), _, (s,) = inverted(m, d, b)
                eb = float(e @ b)
                s_ref = 0.5 * (float(e @ e) - float(b @ b)) + 0.5 * kappa**2 * eb * eb
                assert s == pytest.approx(s_ref, rel=1e-9, abs=1e-12), name

    def test_aux_b_equals_eta_a(self):
        # (E.B)^2 = eta E^2 with eta = (B.D)^2 / (D^2 + kappa^2 (2 + kappa^2 B^2) |B x D|^2)
        rng = np.random.default_rng(13)
        k2 = 0.8**2
        for name, m, _ in all_params(0.8):
            for _ in range(20):
                d, b = random_db(rng)
                (e,), _, _ = inverted(m, d, b)
                bxd = np.cross(b, d)
                eta = float(b @ d) ** 2 / (float(d @ d) + k2 * (2.0 + k2 * float(b @ b))
                                           * float(bxd @ bxd))
                eb = float(e @ b)
                assert eb * eb == pytest.approx(eta * float(e @ e), rel=1e-8, abs=1e-13), name


class TestKappaContinuity:
    @pytest.mark.parametrize("kind", ["classical", "logarithmic"])
    def test_small_kappa_matches_k0_branch(self, kind):
        mk = getattr(ModelParams, kind)
        m0, m1 = mk(beta=1.0, kappa=0.0), mk(beta=1.0, kappa=1e-6)
        rng = np.random.default_rng(21)
        for _ in range(50):
            d, b = random_db(rng)
            (e0,), (h0,), _ = inverted(m0, d, b)
            (e1,), (h1,), _ = inverted(m1, d, b)
            scale = max(np.linalg.norm(e0), np.linalg.norm(h0), 1e-12)
            assert np.linalg.norm(e1 - e0) / scale <= 1e-4
            assert np.linalg.norm(h1 - h0) / scale <= 1e-4


class TestSaturation:
    # The bounds are properties of the electrostatic inversions: no matter how
    # large |D| grows, Classical E = D/sqrt(1+beta D^2) stays below 1/sqrt(beta)
    # and Logarithmic E = 2D/(1+sqrt(1+2 beta D^2)) below sqrt(2/beta).

    def test_classical_field_bound(self):
        m = ModelParams.classical(beta=4.0)
        rng = np.random.default_rng(31)
        cap = 1.0 / math.sqrt(4.0)
        for _ in range(200):
            d = rng.normal(size=3) * 10.0 ** rng.uniform(-2, 8)
            (e,), _, _ = inverted(m, d, np.zeros(3))
            en = np.linalg.norm(e)
            # strict below the bound; float saturation may round onto it
            assert en <= cap * (1.0 + 1e-15)
            if float(d @ d) < 1e10:
                assert en < cap

    def test_logarithmic_field_bound(self):
        m = ModelParams.logarithmic(beta=0.5)
        rng = np.random.default_rng(32)
        cap = math.sqrt(2.0 / 0.5)
        for _ in range(200):
            d = rng.normal(size=3) * 10.0 ** rng.uniform(-2, 8)
            en = np.linalg.norm(inverted(m, d, ZERO3)[0][0])
            assert en <= cap * (1.0 + 1e-15)
            if float(d @ d) < 1e10:
                assert en < cap


class TestGuards:
    def test_quadratic_guard_band(self):
        # B^2 = 1/alpha makes f' ~ 0; a tiny D lands inside the guard band
        m = ModelParams.quadratic(alpha=1.0)
        with pytest.raises(DomainViolation):
            inverted(m, (1e-15, 0.0, 0.0), (1.0, 0.0, 0.0))

    def test_quadratic_negative_branch_rejected(self):
        # alpha B^2 > 1 with small D: the smallest-root branch has f' < 0,
        # which flips E against D and must be refused
        m = ModelParams.quadratic(alpha=1.0)
        with pytest.raises((InversionFailure, DomainViolation)):
            inverted(m, (0.1, 0.0, 0.0), (2.0, 0.0, 0.0))

    def test_forward_domain_violation(self):
        m = ModelParams.classical(beta=1.0)
        with pytest.raises(DomainViolation):
            forward_fields(m, (2.0, 0.0, 0.0), np.zeros(3))
        e = [(0.1, 0.0, 0.0), (2.0, 0.0, 0.0)]
        d, h, _, code, errors = forward_rows(m, e, np.zeros((2, 3)))
        assert code.tolist() == [0, 1] and isinstance(errors[0], DomainViolation)
        assert np.isnan(d[1]).all() and np.isnan(h[1]).all() and np.isfinite(d[0]).all()


class TestFieldState:
    def test_forward_fields_shape(self):
        m = ModelParams.exponential(beta=0.5)
        st = forward_fields(m, (0.1, 0.0, 0.0), (0.0, 0.2, 0.0))
        assert st.s == pytest.approx(0.5 * (0.01 - 0.04))
        d, h, s, code, _ = forward_rows(m, [(0.1, 0.0, 0.0)], [(0.0, 0.2, 0.0)])
        assert d.shape == h.shape == (1, 3) and s.shape == code.shape == (1,)
        assert s[0] == st.s


class TestForwardRows:
    """forward_rows against the one-point forward map of the oracle."""

    KINDS = [
        ModelParams.classical(beta=1.3),
        ModelParams.logarithmic(beta=0.8),
        ModelParams.exponential(beta=0.5),
        ModelParams.fractional_power(beta=1.1, p=1.7),
        ModelParams.fractional_power(beta=1.1, p=3.0),
        ModelParams.quadratic(alpha=0.05),
        ModelParams.custom(lambda s: s + 0.1 * s * s, lambda s: 1.0 + 0.2 * s, lambda s: 0.2,
                           s_min=-2.0, s_max=2.0),
    ]

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("base", KINDS, ids=lambda m: m.kind)
    def test_rows_match_the_one_point_map(self, base, kappa):
        # every row, in domain or not, is what forward_fields gives there:
        # the same bits, except the exponential's f' = exp(beta s), which
        # numpy rounds unlike the math module in the last bit; a failing
        # row carries the oracle's exception
        m = dataclasses.replace(base, kappa=kappa)
        rng = np.random.default_rng(5)
        e, b = rng.normal(size=(2, 200, 3)) * 0.6
        d, h, s, code, errors = forward_rows(m, e, b)
        failed = 0
        for i in range(len(e)):
            try:
                st = forward_fields(m, e[i], b[i])
            except DomainViolation as exc:
                failed += 1
                assert code[i] and str(errors[code[i] - 1]) == str(exc)
                continue
            assert code[i] == 0
            if m.kind == "exponential":
                np.testing.assert_allclose(d[i], st.d, rtol=4e-16, atol=0.0)
                np.testing.assert_allclose(h[i], st.h, rtol=4e-16, atol=0.0)
                assert s[i] == st.s
            else:
                assert np.array_equal(d[i], st.d) and np.array_equal(h[i], st.h) and s[i] == st.s
        assert failed == np.count_nonzero(code)

    def test_row_is_independent_of_its_batch(self):
        m = ModelParams.fractional_power(beta=1.1, p=1.7, kappa=0.5)
        rng = np.random.default_rng(6)
        e, b = rng.normal(size=(2, 50, 3))
        d, h, s, code, _ = forward_rows(m, e, b)
        for i in range(len(e)):
            one = forward_rows(m, e[i], b[i])
            assert bool(one[3][0]) == bool(code[i])
            if not code[i]:
                assert np.array_equal(one[0][0], d[i]) and np.array_equal(one[1][0], h[i])
                assert one[2][0] == s[i]

    def test_round_trip_of_the_rows_inversion(self):
        # the forward map undoes invert_rows on every kind that inverted
        rng = np.random.default_rng(8)
        d, b = rng.normal(size=(2, 60, 3))
        for base in self.KINDS:
            m = dataclasses.replace(base, kappa=0.5)
            e, h, _, code, _ = invert_rows(m, d, b)
            ok = code == 0
            fd, fh, _, fcode, _ = forward_rows(m, e[ok], b[ok])
            assert not fcode.any()
            np.testing.assert_allclose(fd, d[ok], rtol=0.0, atol=1e-7)
            np.testing.assert_allclose(fh, h[ok], rtol=0.0, atol=1e-7)


class TestRows:
    """invert_rows against the scalar branches of the oracle."""

    def test_matches_scalar_on_mixed_rows(self):
        rng = np.random.default_rng(8)
        rows = [random_db(rng) for _ in range(30)]
        d = np.array([r[0] for r in rows])
        b = np.array([r[1] for r in rows])
        b[:5] = 0.0   # electric rows
        d[5:10] = 0.0  # magnetic rows
        d[10] = b[10] = 0.0
        for kappa in (0.0, 0.5):
            for name, m, _ in all_params(kappa):
                e, h, s = inverted(m, d, b)
                for i in range(len(d)):
                    e_ref, h_ref, aux = scalar_eh(m, d[i], b[i])
                    np.testing.assert_allclose(e[i], e_ref, rtol=1e-12, atol=1e-15, err_msg=name)
                    np.testing.assert_allclose(h[i], h_ref, rtol=1e-12, atol=1e-15, err_msg=name)
                    assert abs(s[i] - aux.s) <= 1e-12 * max(1.0, abs(aux.s)), name

    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    def test_static_rows_match_static_branches(self, kappa):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(40, 3)) * 10.0 ** rng.uniform(-3, 3, size=(40, 1))
        zero = np.zeros_like(v)
        for name, m, _ in all_params(kappa):
            e, h, _ = inverted(m, v, zero)
            for row, ref in zip(e, (scalar_e(m, x) for x in v)):
                assert np.linalg.norm(row - ref) <= 1e-15 * np.linalg.norm(ref), name
            assert not np.any(h)
            e, h, _ = inverted(m, zero, v)
            for row, ref in zip(h, (scalar_h(m, x) for x in v)):
                assert np.linalg.norm(row - ref) <= 1e-15 * np.linalg.norm(ref), name
            assert not np.any(e)

    def test_logarithmic_saturation_through_rows(self):
        # acceptance check 07's draws and gate, one batch
        rng = np.random.default_rng(107)
        m = ModelParams.logarithmic(beta=0.5)
        cap = math.sqrt(2.0 / 0.5)
        d = rng.normal(size=(1000, 3)) * 10.0 ** rng.uniform(-2, 8, size=(1000, 1))
        e, _, _ = inverted(m, d, np.zeros_like(d))
        norms = np.linalg.norm(e, axis=1)
        assert np.max(np.linalg.norm(d, axis=1)) > 1e8
        assert np.all(norms <= cap * (1.0 + 1e-15))
        assert np.max(norms) > cap * (1.0 - 1e-7)

    def test_failures_raise_the_scalar_class(self):
        # Maxwell's f restricted to s > -1/2: g(a) = (1 + kappa^2 eta) a
        # starts at B^2 - 1 on the domain's edge, above the targets of rows
        # 1 and 2, so their roots lie outside the domain
        m = ModelParams.custom(lambda s: s, lambda s: 1.0, lambda s: 0.0, kappa=0.5, s_min=-0.5)
        d = np.array([[0.1, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0]])
        b = np.array([[0.0, 0.1, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        with pytest.raises(InversionFailure, match=r" unreachable inside the model domain$") as one:
            inverted(m, d[1], b[1])
        # the batch raises the failure of its first failing row, row 1, as
        # that row records it alone: no count, no location
        with pytest.raises(InversionFailure) as batch:
            inverted(m, d, b)
        assert str(batch.value) == str(one.value)
        for m in (ModelParams.logarithmic(beta=1.0), ModelParams.logarithmic(beta=1.0, kappa=0.5)):
            with pytest.raises(DomainViolation, match=r"^non-finite D or B "):
                inverted(m, d[:2], np.array([[0.0, 0.1, 0.0], [math.nan, 0.0, 1.0]]))


def oracle_rows(rng, n=240):
    """Rows from weak to strong fields, with blocks of B = 0, D = 0 and
    D = B = 0 rows."""
    d = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3.0, 1.5, size=(n, 1))
    b = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3.0, 1.5, size=(n, 1))
    b[:30] = 0.0
    d[30:60] = 0.0
    d[60:63] = b[60:63] = 0.0
    return d, b


# Rows at the edges of the Lambert W and cubic solves, appended to the
# oracle rows of the exponential and quadratic kinds. The quadratic ones
# assume alpha = 0.5, so that |B|^2 = 2 is 1/alpha exactly.
EDGE_ROWS = {
    "exponential": [
        ((5.0, 1.0, 0.0), (0.0, 30.0, 2.0)),  # beta B^2 = 904: ln-argument W
        ((0.0, 1e-3, 0.0), (40.0, 0.0, 0.0)),  # beta B^2 = 1600, tiny D
        ((1e-9, 0.0, 0.0), (0.0, 0.0, 0.0)),  # W series seed
    ],
    "quadratic": [
        ((0.3, -0.2, 0.1), (1.0, 1.0, 0.0)),  # |B|^2 = 1/alpha: gamma = 0
        ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0)),  # f'(-B^2/2) = 0: H = 0
        ((1e-15, 0.0, 0.0), (1.0, 1.0, 0.0)),  # f'(s) ~ 1e-10: guard band
        ((1e-15, 2e-15, 0.0), (1.0, 0.0, 1.0)),  # guard band
        ((0.1, 0.2, 0.0), (2.0, 0.0, 0.0)),  # three real roots
        ((0.1, 0.0, 0.0), (0.0, 2.0, 0.5)),  # three real roots
        ((1e-8, 2e-8, 0.0), (0.1, 0.0, 0.0)),  # cube-root difference cancels
        ((0.0, 3e-9, 1e-9), (0.0, 0.0, 0.0)),  # cancels, B = 0
    ],
}


def kernel_rows(m, rng):
    d, b = oracle_rows(rng)
    edge = np.array(EDGE_ROWS.get(m.kind, []), dtype=float).reshape(-1, 2, 3)
    return np.concatenate([d, edge[:, 0]]), np.concatenate([b, edge[:, 1]])


def custom_classical(kappa=0.0):
    """The classical Lagrangian at beta = 1 as user-supplied callables."""
    return ModelParams.custom(lambda s: 1.0 - math.sqrt(1.0 - 2.0 * s),
                              lambda s: 1.0 / math.sqrt(1.0 - 2.0 * s),
                              lambda s: (1.0 - 2.0 * s) ** -1.5, kappa=kappa, s_max=0.5)


# numpy's exp, log and pow round differently from the math module's in the
# last bit on a few percent of inputs, so these kinds agree with the oracle
# to rounding: (E and H relative to the row's largest component, s relative
# to (E^2 + B^2)/2). The cubic's closed form (T^(1/3) - 2 gamma)^2 / 6 T^(1/3)
# magnifies a last-bit change in T by up to 1e6 before a polish that stops
# at a 1e-12 residual, so a and s = (one_pk a - B^2)/2 agree to 1e-12 only.
# Every other kind rounds like the oracle, bit for bit.
ROUNDING = {"exponential": (1e-14, 1e-14), "quadratic": (1e-14, 1e-12)}

_NUMBER = re.compile(r"-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+|nan|-?inf")


def same_row(m, got, ref, b):
    """got and ref, each (E, H, s), agree as ROUNDING says for m's kind."""
    if m.kind not in ROUNDING:
        return (np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
                and got[2] == ref[2])
    tol, tol_s = ROUNDING[m.kind]
    scale_s = 0.5 * (float(ref[0] @ ref[0]) + float(b @ b))
    return (all(np.max(np.abs(g - r)) <= tol * np.max(np.abs(r)) for g, r in zip(got, ref[:2]))
            and abs(got[2] - ref[2]) <= tol_s * scale_s)


def same_failure(m, got, ref):
    """Same class and message; for a ROUNDING kind the numbers in the
    message agree to its E tolerance."""
    if type(got) is not type(ref):
        return False
    if m.kind not in ROUNDING:
        return str(got) == str(ref)
    if _NUMBER.sub("#", str(got)) != _NUMBER.sub("#", str(ref)):
        return False
    tol = ROUNDING[m.kind][0]
    return all(g == r or abs(float(g) - float(r)) <= tol * abs(float(r))
               for g, r in zip(_NUMBER.findall(str(got)), _NUMBER.findall(str(ref))))


ARRAY_KERNEL_MODELS = [
    pytest.param(ModelParams.fractional_power(beta=1.0, p=1.5), id="frac1.5-k0"),
    pytest.param(ModelParams.fractional_power(beta=1.0, p=1.5, kappa=0.5), id="frac1.5-k0.5"),
    pytest.param(ModelParams.fractional_power(beta=0.7, p=3.0), id="frac3-k0"),
    pytest.param(ModelParams.fractional_power(beta=0.7, p=3.0, kappa=0.5), id="frac3-k0.5"),
    pytest.param(ModelParams.fractional_power(beta=2.0, p=1.0), id="frac1-k0"),
    pytest.param(ModelParams.fractional_power(beta=2.0, p=1.0, kappa=0.5), id="frac1-k0.5"),
    pytest.param(ModelParams.classical(beta=1.3), id="classical-k0"),
    pytest.param(ModelParams.classical(beta=1.3, kappa=0.8), id="classical-k0.8"),
    pytest.param(ModelParams.logarithmic(beta=0.8, kappa=0.5), id="logarithmic-k0.5"),
    pytest.param(ModelParams.exponential(beta=1.0), id="exponential-k0"),
    pytest.param(ModelParams.exponential(beta=1.0, kappa=0.5), id="exponential-k0.5"),
    pytest.param(ModelParams.quadratic(alpha=0.5), id="quadratic-k0"),
    pytest.param(ModelParams.quadratic(alpha=0.5, kappa=0.2), id="quadratic-k0.2"),
    pytest.param(custom_classical(kappa=0.5), id="custom-k0.5"),
]


class TestRowKernelsAgainstScalar:
    """invert_rows, and raise_first on its codes, against the scalar oracle's
    dyonic_eh, row by row: the array kernels round like it (bit for bit, or
    to ROUNDING) and fail each row with its class and message."""

    @pytest.mark.parametrize("m", ARRAY_KERNEL_MODELS)
    def test_every_row_matches_the_scalar_path(self, m):
        d, b = kernel_rows(m, np.random.default_rng(31))
        if m.kind == "exponential":
            assert np.max(m.beta * np.sum(b * b, axis=1)) > 709.0
        e, h, s, code, errors = invert_rows(m, d, b)
        first = None
        for i in range(len(d)):
            try:
                e_ref, h_ref, aux = scalar_eh(m, d[i], b[i])
            except FieldError as exc:
                assert code[i], i
                assert same_failure(m, errors[code[i] - 1], exc), (i, errors[code[i] - 1], exc)
                first = (i, exc) if first is None else first
                continue
            assert code[i] == 0, (i, errors[code[i] - 1])
            assert same_row(m, (e[i], h[i], s[i]), (e_ref, h_ref, aux.s), b[i]), i
        if first is None:
            inverted(m, d, b)
            return
        i, exc = first
        with pytest.raises(type(exc)) as info:
            inverted(m, d, b)
        assert same_failure(m, info.value, exc)

    def test_fractional_domain_edge_failures_are_pinned(self):
        # p = 1.5: |B|^2 >= 2p/beta puts s = -B^2/2 outside the domain
        m = ModelParams.fractional_power(beta=1.0, p=1.5, kappa=0.5)
        d = np.array([[0.3, 0.1, 0.0], [0.5, 0.0, 0.2], [0.0, 0.0, 0.0], [0.2, 0.2, 0.2]])
        b = np.array([[0.1, 0.4, 0.0], [2.0, 0.5, 0.0], [0.0, 1.9, 0.0], [0.0, 0.0, 3.0]])
        # rows 1 and 3 have roots inside the domain: their brackets start
        # at the first a whose s_a lies in it, not at a = 0
        e, h, s, code, errors = invert_rows(m, d, b)
        failed = {i: errors[code[i] - 1] for i in np.flatnonzero(code)}
        assert sorted(failed) == [2]
        assert type(failed[2]) is DomainViolation  # D = 0: the magnetic branch's f'
        assert str(failed[2]) == "s=-1.805 outside domain of fractional_power model"
        for i in (0, 1, 3):
            # row 3's s lies 0.02 above the edge, where f' = (1 + s/p)^0.5
            # turns the solve's 1e-13 in s into 5e-13 in D
            st = forward_fields(m, e[i], b[i])
            assert np.allclose(st.d, d[i], rtol=0.0, atol=1e-11)
            assert np.allclose(st.h, h[i], rtol=0.0, atol=1e-11)
            assert abs(st.s - s[i]) <= 1e-12
            e_ref, h_ref, aux = scalar_eh(m, d[i], b[i])
            assert np.array_equal(e[i], e_ref) and np.array_equal(h[i], h_ref)
            assert s[i] == aux.s
            assert bool(m.domain_rows(-0.5 * float(b[i] @ b[i]))) == (i == 0)
        with pytest.raises(DomainViolation, match=r"^s=-1.805 outside domain of fractional_power model$"):
            inverted(m, d, b)

    def test_maxwell_limit_is_exact(self):
        d, b = oracle_rows(np.random.default_rng(32))
        e, h, _ = inverted(ModelParams.fractional_power(beta=3.0, p=1.0), d, b)
        assert np.array_equal(e, d) and np.array_equal(h, b)

    def test_solver_exits_follow_invert_monotone(self, monkeypatch):
        # f' jumps from 1 to 1.5 at s = 0.01, so targets between g = 0.02
        # and g = 0.045 have no root: Newton steps leave the bracket, which
        # collapses onto the jump, and the stop once no float lies inside
        # the bracket returns the best iterate. A jump from 1 to 1e33 at
        # s = 2e-6 under targets |D|^2 ~ 1e60 leaves the bisection ~217
        # halvings short of the jump, so the iteration cap returns it. The
        # array solve must take the scalar exits on every row.
        def fp(s):
            return 1.0 if s < 0.01 else 1.5

        def f(s):
            return s if s < 0.01 else 0.01 + 1.5 * (s - 0.01)

        def fp_steep(s):
            return 1.0 if s < 2e-6 else 1e33

        def f_steep(s):
            return s if s < 2e-6 else 2e-6 + 1e33 * (s - 2e-6)

        rng = np.random.default_rng(33)
        n = 300
        d = rng.normal(size=(n, 3)) * rng.uniform(0.05, 0.6, size=(n, 1))
        b = rng.normal(size=(n, 3)) * rng.uniform(0.0, 0.2, size=(n, 1))
        b[:100] = 0.0
        steep_d = rng.normal(size=(20, 3)) * 1e30
        counts = []  # g evaluations of each scalar solve
        newton_steps = []  # f'' calls, one per step, of each array solve
        solve = scalar_inversions.invert_monotone

        def counted_solve(g, *args, **kwargs):
            counts.append(0)

            def g_counted(a):
                counts[-1] += 1
                return g(a)

            return solve(g_counted, *args, **kwargs)

        derivative_rows = ModelParams.derivative_rows

        def counted_derivative(self, s, order):
            newton_steps[-1] += order == 2
            return derivative_rows(self, s, order)

        monkeypatch.setattr(scalar_inversions, "invert_monotone", counted_solve)
        monkeypatch.setattr(ModelParams, "derivative_rows", counted_derivative)
        for m, d, b in ((ModelParams.custom(f, fp, lambda s: 0.0, kappa=0.5), d, b),
                        (ModelParams.custom(f_steep, fp_steep, lambda s: 0.0, kappa=0.5),
                         steep_d, np.zeros_like(steep_d))):
            newton_steps.append(0)
            e, h, s, code, _ = invert_rows(m, d, b)
            for i in range(len(d)):
                e_ref, h_ref, aux = scalar_eh(m, d[i], b[i])
                assert code[i] == 0
                assert np.array_equal(e[i], e_ref) and np.array_equal(h[i], h_ref), i
                assert s[i] == aux.s, i
        # flo, fhi and the 200 capped steps make 202 evaluations
        assert 202 in counts and any(50 < c < 202 for c in counts)
        # the array solves stop with the scalar ones: on the first model
        # none of them runs to the cap, on the second one does
        assert newton_steps[0] < 200 and newton_steps[1] == 200

    def test_large_batches_make_no_scalar_solves(self, monkeypatch):
        calls = []

        def counted(name, solve):
            def wrapper(*args):
                calls.append(name)
                return solve(*args)
            return wrapper

        # the special functions run as array kernels, at most three calls per
        # batch (the electric branch, the dyonic branch and its log form)
        # rather than one per row
        for name in ("lambert_w_rows", "lambert_w_from_log_rows",
                     "smallest_positive_cubic_root_rows"):
            monkeypatch.setattr(constitutive, name, counted(name, getattr(specfn, name)))
        rng = np.random.default_rng(34)
        d = rng.normal(size=(1000, 3)) * 10.0 ** rng.uniform(-3.0, 1.5, size=(1000, 1))
        b = rng.normal(size=(1000, 3)) * 10.0 ** rng.uniform(-3.0, 1.5, size=(1000, 1))
        b[:100] = 0.0
        for m in (ModelParams.exponential(1.0, kappa=0.5), ModelParams.quadratic(0.5, kappa=0.2)):
            calls.clear()
            _, _, _, code, _ = invert_rows(m, d, b)
            assert np.count_nonzero(code == 0) > 500
            assert 0 < len(calls) <= 3


VIEW_MODELS = [
    pytest.param(ModelParams.classical(beta=1.0), id="classical-k0"),
    pytest.param(ModelParams.classical(beta=1.0, kappa=0.6), id="classical-k0.6"),
    pytest.param(ModelParams.logarithmic(beta=1.0), id="logarithmic-k0"),
    pytest.param(ModelParams.logarithmic(beta=1.0, kappa=0.5), id="logarithmic-k0.5"),
    pytest.param(ModelParams.fractional_power(beta=1.0, p=1.5, kappa=0.5), id="frac1.5-k0.5"),
    pytest.param(ModelParams.exponential(beta=1.0), id="exponential-k0"),
    pytest.param(ModelParams.exponential(beta=1.0, kappa=0.5), id="exponential-k0.5"),
    pytest.param(ModelParams.quadratic(alpha=0.5), id="quadratic-k0"),
    pytest.param(ModelParams.quadratic(alpha=0.5, kappa=0.2), id="quadratic-k0.2"),
    pytest.param(custom_classical(kappa=0.5), id="custom-k0.5"),
]


def domain_floor_bisection(params, one_pk, b2):
    """The reference of constitutive._domain_floor: at most 200 bisections
    of [0, b2/one_pk] on the domain test, for the rows whose s_0 = -b2/2
    lies below the domain, keeping the in-domain end."""
    lo = np.zeros(len(b2))
    rows = np.flatnonzero(~params.domain_rows(0.5 * (one_pk * lo - b2)))
    below, inside = lo[rows], b2[rows] / one_pk[rows]
    for _ in range(200):
        if not np.any(np.nextafter(below, inside) < inside):
            break
        mid = 0.5 * (below + inside)
        ok = params.domain_rows(0.5 * (one_pk[rows] * mid - b2[rows]))
        inside = np.where(ok, mid, inside)
        below = np.where(ok, below, mid)
    lo[rows] = inside
    return lo


class TestDomainFloor:
    """_domain_floor's walk from the domain edge against the bisection."""

    @pytest.mark.parametrize("m", [
        ModelParams.fractional_power(beta=0.3, p=1.5),
        ModelParams.fractional_power(beta=1.0, p=1.7),
        ModelParams.fractional_power(beta=2.7, p=2.5),
        ModelParams.fractional_power(beta=1.1, p=3.3),
        ModelParams.custom(lambda s: s, lambda s: 1.0, lambda s: 0.0, s_min=-0.37),
        ModelParams.custom(lambda s: s, lambda s: 1.0, lambda s: 0.0, s_min=-123.456),
    ], ids=["frac-0.3-1.5", "frac-1-1.7", "frac-2.7-2.5", "frac-1.1-3.3", "custom-0.37",
            "custom-123"])
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 2.0])
    def test_equals_the_bisection(self, m, kappa):
        # b2 log-uniform up to 1e16, and rows within 40 ulps and within
        # 1e-6 of -2 s_lo, where s_a is flat over millions of ulps of a
        rng = np.random.default_rng(17)
        n = 40_000
        b2 = 10.0 ** rng.uniform(-3.0, 16.0, n)
        edge = -2.0 * m.lower_edge()
        b2[:4000] = edge * (1.0 + rng.integers(-40, 41, 4000) * 2.0**-52)
        b2[4000:8000] = edge * (1.0 + rng.uniform(-1e-6, 1e-6, 4000))
        one_pk = 1.0 + kappa**2 * 10.0 ** rng.uniform(-8.0, 2.0, n)
        want = domain_floor_bisection(m, one_pk, b2)
        got = constitutive._domain_floor(m, one_pk, b2)
        assert np.count_nonzero(want) > n // 2
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_no_lower_edge_keeps_zero(self):
        m = ModelParams.fractional_power(beta=1.0, p=2.0)  # integer p: no edge
        b2 = np.array([0.0, 1.0, 1e12])
        assert constitutive._domain_floor(m, np.ones(3), b2).tolist() == [0.0] * 3


def scalar_outcome(m, d, b):
    """What the rows API owes one row: E, H, s from the oracle's dyonic_eh,
    or its failure (DomainViolation for a non-finite result)."""
    try:
        with np.errstate(all="ignore"):  # the overflowing rows
            e, h, aux = scalar_eh(m, d, b)
    except FieldError as exc:
        return exc
    if not (np.isfinite(e).all() and np.isfinite(h).all() and math.isfinite(aux.s)):
        return DomainViolation("inversion gave a non-finite field")
    return e, h, aux.s


class TestBranchViews:
    """A batch whose rows all take one branch (B = 0, D = 0 or dyonic) is
    worked on through views, not index arrays. Its rows must come out as
    they do inside a mixed batch, bit for bit, and as from the oracle's
    dyonic_eh, and each failing row must keep its own index."""

    @pytest.mark.parametrize("m", VIEW_MODELS)
    def test_full_branches_match_mixed_batch_and_scalar(self, m):
        rng = np.random.default_rng(41)

        def vectors():
            return rng.normal(size=(40, 3)) * 10.0 ** rng.uniform(-2.0, 1.0, size=(40, 1))

        zero = np.zeros((40, 3))
        batches = {"electric": (vectors(), zero), "magnetic": (zero, vectors()),
                   "dyonic": (vectors(), vectors())}
        for d, b in batches.values():
            # row 7 overflows |D|^2 or |B|^2: a failure inside a full branch
            # for the magnetic and dyonic batches of every model
            for v in (d, b):
                if v.any():
                    v[7] *= 1e155
        mixed_d = np.concatenate([d for d, _ in batches.values()] + [zero[:1]])
        mixed_b = np.concatenate([b for _, b in batches.values()] + [zero[:1]])
        order = rng.permutation(len(mixed_d))
        me, mh, ms, mcode, merrors = invert_rows(m, mixed_d[order], mixed_b[order])
        at = np.argsort(order)  # row k of the concatenation sits at at[k]

        for k, (name, (d, b)) in enumerate(batches.items()):
            e, h, s, code, errors = invert_rows(m, d, b)
            rows = at[40 * k:40 * (k + 1)]
            assert np.array_equal(e, me[rows], equal_nan=True), name
            assert np.array_equal(h, mh[rows], equal_nan=True), name
            assert np.array_equal(s, ms[rows], equal_nan=True), name
            assert np.array_equal(code != 0, mcode[rows] != 0), name
            for i in np.flatnonzero(code):
                got, ref = errors[code[i] - 1], merrors[mcode[rows[i]] - 1]
                assert (type(got), str(got)) == (type(ref), str(ref)), (name, i)
            for i in range(len(d)):
                want = scalar_outcome(m, d[i], b[i])
                if code[i]:
                    assert isinstance(want, FieldError), (name, i)
                    assert same_failure(m, errors[code[i] - 1], want), (name, i)
                else:
                    assert not isinstance(want, FieldError), (name, i, want)
                    assert same_row(m, (e[i], h[i], s[i]), want, b[i]), (name, i)
            if name != "electric":
                assert code[7], name
                first = int(np.flatnonzero(code)[0])
                with pytest.raises(FieldError) as info:
                    inverted(m, d, b)
                ref = errors[code[first] - 1]
                assert (type(info.value), str(info.value)) == (type(ref), str(ref)), name


def _imports(path) -> list:
    """(module, name) of every import in the file at path; name is None for
    a plain import."""
    imported = []
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [("." * node.level + (node.module or ""), alias.name)
                         for alias in node.names]
    return imported


def test_oracle_independence():
    """The scalar oracle shares no code with the kernels it checks: from
    bifield it imports only ModelParams (for its parameters, custom
    callables and domain_error message), the model kind names, as_vec3 and
    the exception classes, and it calls none of ModelParams' model
    functions; its f, f', f'' and domain are its own. Its energy_density
    is the reference for observables.density_rows."""
    allowed = {("bifield.models", "ModelParams"), ("bifield.sources", "as_vec3")}
    allowed |= {("bifield.models", name) for name, value in vars(models).items()
                if isinstance(value, str) and value in models.KINDS}
    package = [(module, name) for module, name in _imports(scalar_inversions.__file__)
               if module.startswith(("bifield", "."))]
    assert ("bifield.models", "ModelParams") in package
    for module, name in package:
        assert module == "bifield.errors" or (module, name) in allowed, (module, name)
    model_functions = {"f", "f_prime", "f_double_prime", "in_domain", "domain_rows",
                       "derivative_rows", "f_and_prime_rows", "power_rows"}
    attributes = {node.attr for node in ast.walk(ast.parse(Path(scalar_inversions.__file__)
                                                            .read_text()))
                  if isinstance(node, ast.Attribute)}
    assert not attributes & model_functions


def test_continuous_oracle_independence():
    """continuous_pointwise, the per-point reference of the continuous
    command, reaches none of the rows code it checks (invert_rows,
    density_rows, currents._fd_rows, the continuous rows functions): from
    bifield it imports only the Newton-potential quadrature, its finite
    differences are fd_oracle's numpy ones, and its inversion, density, f'
    and f'' are scalar_inversions'."""
    path = Path(scalar_inversions.__file__).with_name("continuous_pointwise.py")
    imported = _imports(path)
    package = [(module, name) for module, name in imported if module.startswith(("bifield", "."))]
    assert sorted(package) == [("bifield.continuous", "newton_potential")]
    local = {module for module, _ in imported} - {"numpy"} - {m for m, _ in package}
    assert local == {"fd_oracle", "scalar_inversions"}
    rows_code = {"invert_rows", "dyonic_eh_rows", "density_rows", "_fd_rows", "_gauss_law",
                 "state_rows", "curl_rows", "jm_rows", "_gradient_rows", "_db_rows",
                 "f_prime", "f_double_prime", "derivative_rows"}
    attributes = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute)}
    assert not attributes & rows_code


def test_invert_rows_owns_the_branch_skeleton():
    """Every model kind supplies an (electric, dyonic) pair of formulas and
    nothing else: the magnetic branch and the direction check run only in
    invert_rows, and so does the dyonic setup: invert_rows is its only
    caller."""
    assert set(constitutive._ROW_KERNELS) == set(models.KINDS)
    for pair in constitutive._ROW_KERNELS.values():
        assert isinstance(pair, tuple) and len(pair) == 2 and all(map(callable, pair))
    callers = {"_magnetostatic_rows": set(), "_direction_rows": set(), "_dyon_setup": set()}
    for node in ast.parse(Path(constitutive.__file__).read_text()).body:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and sub.func.id in callers):
                callers[sub.func.id].add(getattr(node, "name", None))
    assert callers == {"_magnetostatic_rows": {"invert_rows"},
                       "_direction_rows": {"invert_rows"},
                       "_dyon_setup": {"invert_rows"}}
