"""Tests for the induced current densities and the FD oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifield import ChargeConfig, ModelParams
from bifield import currents
from bifield.constitutive import dyonic_eh, electrostatic_e, magnetostatic_h
from bifield.currents import (
    CurrentSample,
    current_at,
    fd_curl,
    fd_div,
    fd_step,
    grad_field_square,
    je_classical_dyonic_k0,
    je_classical_magnetostatic,
    je_generic_magnetostatic,
    jm_classical_dyonic_k0,
    jm_classical_electrostatic,
    jm_classical_electrostatic_pair,
    jm_classical_jacobi_term,
    jm_generic_electrostatic,
    stencil_is_clear,
)
from bifield.errors import SingularPoint
from bifield.sources import displacement_field, magnetic_field

BETA = 1.0
FD_TOL = 1e-5

finite3 = st.tuples(
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


def pair_config(q1=1.0, q2=2.0, magnetic=False):
    a, b = (0.0, q1) if magnetic else (q1, 0.0)
    c, d = (0.0, q2) if magnetic else (q2, 0.0)
    return ChargeConfig.build([((1.0, 0.0, 0.0), a, b), ((-1.0, 0.0, 0.0), c, d)])


def random_config(rng, n, electric=True, magnetic=False, spread=1.5):
    while True:
        pos = rng.uniform(-spread, spread, size=(n, 3))
        qs = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        gs = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        entries = [
            (pos[i], qs[i] if electric else 0.0, gs[i] if magnetic else 0.0)
            for i in range(n)
        ]
        try:
            return ChargeConfig.build(entries)
        except Exception:
            continue


def far_point(rng, cfg, min_dist=0.4):
    while True:
        x = rng.uniform(-3.0, 3.0, size=3)
        if cfg.min_distance(x) > min_dist:
            return x


class TestVectorIdentity:
    @given(finite3, finite3, finite3)
    @settings(max_examples=200, deadline=None)
    def test_cyclic_cross_sum_cancels(self, a, b, c):
        a, b, c = np.array(a), np.array(b), np.array(c)
        total = np.cross(a, b + c) + np.cross(b, c + a) + np.cross(c, a + b)
        scale = max(1.0, np.linalg.norm(a) * (np.linalg.norm(b) + np.linalg.norm(c)))
        assert np.max(np.abs(total)) <= 1e-12 * scale

    def test_jacobi_partial_sum_vanishes(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = rng.integers(2, 5)
            cfg = random_config(rng, int(n))
            x = far_point(rng, cfg)
            term = jm_classical_jacobi_term(cfg, BETA, x)
            assert np.max(np.abs(term)) <= 1e-12


class TestClassicalElectrostatic:
    def test_single_charge_is_conservative(self):
        cfg = ChargeConfig.build([((0.2, -0.1, 0.4), 3.0, 0.0)])
        jm = jm_classical_electrostatic(cfg, BETA, (1.0, 1.0, 1.0))
        assert np.max(np.abs(jm)) <= 1e-12

    def test_pair_formula_matches_triple_sum(self):
        cfg = pair_config(q1=1.0, q2=2.0)
        x = np.array([0.0, 1.0, 0.0])
        jt = jm_classical_electrostatic(cfg, BETA, x)
        jp = jm_classical_electrostatic_pair(cfg, BETA, x)
        assert np.max(np.abs(jt - jp)) <= 1e-12
        assert np.linalg.norm(jt) > 0.0

    def test_pair_formula_matches_on_random_points(self):
        rng = np.random.default_rng(7)
        cfg = pair_config(q1=-1.3, q2=0.8)
        for _ in range(25):
            x = far_point(rng, cfg)
            jt = jm_classical_electrostatic(cfg, BETA, x)
            jp = jm_classical_electrostatic_pair(cfg, BETA, x)
            assert np.max(np.abs(jt - jp)) <= 1e-12 * max(1.0, np.max(np.abs(jt)))

    def test_pair_formula_rejects_other_sizes(self):
        cfg = ChargeConfig.build([((0, 0, 0), 1.0, 0.0)])
        with pytest.raises(ValueError):
            jm_classical_electrostatic_pair(cfg, BETA, (1.0, 1.0, 1.0))

    def test_matches_minus_fd_curl_of_e(self):
        params = ModelParams.classical(beta=BETA)
        cfg = pair_config()
        rng = np.random.default_rng(3)

        def e_field(y):
            return electrostatic_e(params, displacement_field(cfg, y))

        for _ in range(12):
            x = far_point(rng, cfg)
            jm = jm_classical_electrostatic(cfg, BETA, x)
            curl = fd_curl(e_field, x)
            assert np.max(np.abs(jm + curl)) <= FD_TOL * max(1.0, np.max(np.abs(jm)))

    def test_collinear_geometry_gives_zero(self):
        cfg = pair_config()
        jm = jm_classical_electrostatic(cfg, BETA, (3.0, 0.0, 0.0))
        assert np.max(np.abs(jm)) == 0.0

    def test_nonconservative_witness_on_grid(self):
        # a 5^3 sample grid sees a strictly positive current magnitude
        cfg = pair_config()
        ticks = np.linspace(-1.6, 1.6, 5)
        best = 0.0
        for gx in ticks:
            for gy in ticks:
                for gz in ticks:
                    x = np.array([gx, gy, gz])
                    if cfg.min_distance(x) < 0.3:
                        continue
                    best = max(best, float(np.max(np.abs(jm_classical_electrostatic(cfg, BETA, x)))))
        assert best > 0.0

    def test_singular_point_rejected(self):
        cfg = pair_config()
        with pytest.raises(SingularPoint):
            jm_classical_electrostatic(cfg, BETA, (1.0, 0.0, 0.0))


class TestClassicalMagnetostatic:
    def test_single_center_zero(self):
        cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 0.0, 2.0)])
        je = je_classical_magnetostatic(cfg, BETA, (0.3, 0.4, 0.5))
        assert np.max(np.abs(je)) <= 1e-12

    def test_matches_fd_curl_of_h(self):
        params = ModelParams.classical(beta=BETA)
        cfg = pair_config(magnetic=True)
        rng = np.random.default_rng(11)

        def h_field(y):
            return magnetostatic_h(params, magnetic_field(cfg, y))

        for _ in range(12):
            x = far_point(rng, cfg)
            je = je_classical_magnetostatic(cfg, BETA, x)
            curl = fd_curl(h_field, x)
            assert np.max(np.abs(je - curl)) <= FD_TOL * max(1.0, np.max(np.abs(je)))

    def test_mirror_of_electric_current(self):
        # same numbers as charges: j_e(g) = -j_m(q), only the overall sign flips
        cfg_e = pair_config(q1=1.1, q2=-0.7)
        cfg_m = pair_config(q1=1.1, q2=-0.7, magnetic=True)
        x = np.array([0.2, 0.9, -0.4])
        jm = jm_classical_electrostatic(cfg_e, BETA, x)
        je = je_classical_magnetostatic(cfg_m, BETA, x)
        assert np.max(np.abs(je + jm)) <= 1e-15 * max(1.0, np.max(np.abs(jm)))


class TestDyonicKappaZero:
    def test_reduces_to_electrostatic_without_g(self):
        cfg = pair_config()
        x = np.array([0.0, 1.0, 0.0])
        jm_d = jm_classical_dyonic_k0(cfg, BETA, x)
        jm_e = jm_classical_electrostatic(cfg, BETA, x)
        assert np.max(np.abs(jm_d - jm_e)) == 0.0

    def test_reduces_to_magnetostatic_without_q(self):
        cfg = pair_config(magnetic=True)
        x = np.array([0.0, 1.0, 0.0])
        je_d = je_classical_dyonic_k0(cfg, BETA, x)
        je_m = je_classical_magnetostatic(cfg, BETA, x)
        assert np.max(np.abs(je_d - je_m)) == 0.0

    def test_single_dyon_zero(self):
        cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 1.0, 0.5)])
        x = np.array([0.3, 0.4, 0.5])
        assert np.max(np.abs(jm_classical_dyonic_k0(cfg, BETA, x))) <= 1e-12
        assert np.max(np.abs(je_classical_dyonic_k0(cfg, BETA, x))) <= 1e-12

    def test_matches_fd_curls(self):
        params = ModelParams.classical(beta=BETA)
        cfg = ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.5), ((-1.0, 0.0, 0.0), 2.0, -1.0)]
        )
        rng = np.random.default_rng(19)

        def e_field(y):
            return dyonic_eh(params, displacement_field(cfg, y), magnetic_field(cfg, y))[0]

        def h_field(y):
            return dyonic_eh(params, displacement_field(cfg, y), magnetic_field(cfg, y))[1]

        for _ in range(10):
            x = far_point(rng, cfg)
            jm = jm_classical_dyonic_k0(cfg, BETA, x)
            je = je_classical_dyonic_k0(cfg, BETA, x)
            assert np.max(np.abs(jm + fd_curl(e_field, x))) <= FD_TOL * max(1.0, np.max(np.abs(jm)))
            assert np.max(np.abs(je - fd_curl(h_field, x))) <= FD_TOL * max(1.0, np.max(np.abs(je)))


class TestGenericElectrostatic:
    def test_linear_model_is_conservative(self):
        params = ModelParams.fractional_power(beta=1.0, p=1.0)
        cfg = pair_config()
        jm = jm_generic_electrostatic(params, cfg, (0.0, 1.0, 0.0))
        assert np.max(np.abs(jm)) == 0.0

    def test_classical_params_recover_dedicated_formula(self):
        params = ModelParams.classical(beta=0.6)
        cfg = pair_config(q1=0.9, q2=-1.4)
        rng = np.random.default_rng(23)
        for _ in range(15):
            x = far_point(rng, cfg)
            jg = jm_generic_electrostatic(params, cfg, x)
            jc = jm_classical_electrostatic(cfg, 0.6, x)
            assert np.max(np.abs(jg - jc)) <= 1e-9 * max(1.0, np.max(np.abs(jc)))

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams.logarithmic(beta=0.4),
            ModelParams.exponential(beta=0.7),
            ModelParams.quadratic(alpha=0.3),
            ModelParams.fractional_power(beta=0.8, p=3.0),
        ],
        ids=["logarithmic", "exponential", "quadratic", "fractional"],
    )
    def test_matches_minus_fd_curl_across_models(self, params):
        cfg = pair_config()
        rng = np.random.default_rng(29)

        def e_field(y):
            return electrostatic_e(params, displacement_field(cfg, y))

        for _ in range(6):
            x = far_point(rng, cfg)
            jm = jm_generic_electrostatic(params, cfg, x)
            curl = fd_curl(e_field, x)
            assert np.max(np.abs(jm + curl)) <= FD_TOL * max(1.0, np.max(np.abs(jm)))


class TestGenericMagnetostatic:
    def test_single_center_zero(self):
        params = ModelParams.exponential(beta=1.0)
        cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 0.0, 1.7)])
        je = je_generic_magnetostatic(params, cfg, (0.4, -0.2, 0.6))
        assert np.max(np.abs(je)) <= 1e-15

    def test_linear_model_zero(self):
        params = ModelParams.fractional_power(beta=1.0, p=1.0)
        cfg = pair_config(magnetic=True)
        je = je_generic_magnetostatic(params, cfg, (0.0, 1.0, 0.0))
        assert np.max(np.abs(je)) == 0.0

    def test_classical_params_recover_dedicated_formula(self):
        params = ModelParams.classical(beta=BETA)
        cfg = pair_config(magnetic=True)
        rng = np.random.default_rng(31)
        for _ in range(10):
            x = far_point(rng, cfg)
            jg = je_generic_magnetostatic(params, cfg, x)
            jc = je_classical_magnetostatic(cfg, BETA, x)
            assert np.max(np.abs(jg - jc)) <= 1e-12 * max(1.0, np.max(np.abs(jc)))

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams.logarithmic(beta=0.5),
            ModelParams.exponential(beta=0.7),
            ModelParams.quadratic(alpha=0.4),
        ],
        ids=["logarithmic", "exponential", "quadratic"],
    )
    def test_matches_fd_curl_across_models(self, params):
        cfg = pair_config(magnetic=True)
        rng = np.random.default_rng(37)

        def h_field(y):
            return magnetostatic_h(params, magnetic_field(cfg, y))

        for _ in range(6):
            x = far_point(rng, cfg)
            je = je_generic_magnetostatic(params, cfg, x)
            curl = fd_curl(h_field, x)
            assert np.max(np.abs(je - curl)) <= FD_TOL * max(1.0, np.max(np.abs(je)))

    def test_gradient_of_field_square_matches_fd(self):
        cfg = pair_config(magnetic=True)
        x = np.array([0.3, 0.8, -0.2])

        def b2(y):
            b = magnetic_field(cfg, y)
            return float(b @ b)

        h = 1e-5
        fd = np.array(
            [
                (b2(x + h * e) - b2(x - h * e)) / (2 * h)
                for e in np.eye(3)
            ]
        )
        grad = grad_field_square(cfg, x, which="magnetic")
        assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))


class TestFiniteDifferenceOracles:
    def test_constant_field(self):
        f = lambda y: np.array([1.0, 2.0, 3.0])
        x = np.array([0.3, 0.2, -0.1])
        assert np.max(np.abs(fd_curl(f, x))) == 0.0
        assert fd_div(f, x) == 0.0

    def test_rotation_field(self):
        f = lambda y: np.array([-y[1], y[0], 0.0])
        x = np.array([0.3, 0.2, -0.1])
        curl = fd_curl(f, x)
        assert np.max(np.abs(curl - np.array([0.0, 0.0, 2.0]))) <= 1e-10
        assert abs(fd_div(f, x)) <= 1e-10

    def test_gradient_field_has_no_curl(self):
        cfg = ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.0), ((-0.5, 0.8, 0.0), -2.0, 0.0), ((0.0, -0.9, 0.6), 0.5, 0.0)]
        )
        f = lambda y: displacement_field(cfg, y)
        rng = np.random.default_rng(41)
        for _ in range(8):
            x = far_point(rng, cfg)
            assert np.max(np.abs(fd_curl(f, x))) <= 1e-6

    def test_richardson_improves_cubic_field(self):
        # curl of (0, x^3, 0) is (0, 0, 3 x^2): plain central diff carries an
        # O(h^2) error, the two-step extrapolation kills it
        f = lambda y: np.array([0.0, y[0] ** 3, 0.0])
        x = np.array([1.0, 0.0, 0.0])
        plain = fd_curl(f, x, step=1e-2)
        extrap = fd_curl(f, x, step=1e-2, richardson=True)
        assert abs(plain[2] - 3.0) > 1e-7
        assert abs(extrap[2] - 3.0) <= 1e-9

    @pytest.mark.parametrize("richardson", [False, True])
    def test_stacked_field_matches_per_field_curls(self, richardson):
        f = lambda y: np.array([y[1] * y[2] ** 2, np.sin(y[0]), y[0] * y[1]])
        g = lambda y: np.array([np.exp(y[2]), y[0] ** 3, -y[1] * y[2]])
        x = np.array([0.4, -0.7, 0.2])
        stacked = fd_curl(lambda y: np.stack((f(y), g(y))), x, step=1e-3, richardson=richardson)
        assert stacked.shape == (2, 3)
        assert np.array_equal(stacked[0], fd_curl(f, x, step=1e-3, richardson=richardson))
        assert np.array_equal(stacked[1], fd_curl(g, x, step=1e-3, richardson=richardson))

    def test_default_step_scales_with_position(self):
        assert fd_step((0.0, 0.0, 0.0)) == 1e-4
        assert fd_step((200.0, 0.0, 0.0)) == pytest.approx(2e-2)

    def test_stencil_clearance(self):
        cfg = pair_config()
        assert stencil_is_clear(cfg, (0.0, 1.0, 0.0), 0.1)
        assert not stencil_is_clear(cfg, (1.05, 0.0, 0.0), 0.1)


class TestDispatcher:
    def test_electric_only_routes(self):
        cfg = pair_config()
        for params in (ModelParams.classical(beta=BETA), ModelParams.logarithmic(beta=0.5)):
            s = current_at(params, cfg, (0.0, 1.0, 0.0))
            assert s.method == "analytic"
            assert np.max(np.abs(s.j_e)) == 0.0
            assert np.max(np.abs(s.j_m)) > 0.0

    def test_magnetic_only_routes(self):
        cfg = pair_config(magnetic=True)
        s = current_at(ModelParams.exponential(beta=0.7), cfg, (0.0, 1.0, 0.0))
        assert s.method == "analytic"
        assert np.max(np.abs(s.j_m)) == 0.0
        assert np.max(np.abs(s.j_e)) > 0.0

    def test_classical_k0_dyonic_analytic(self):
        cfg = ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.5), ((-1.0, 0.0, 0.0), 2.0, -1.0)]
        )
        s = current_at(ModelParams.classical(beta=BETA), cfg, (0.0, 1.0, 0.0))
        assert s.method == "analytic"
        assert np.max(np.abs(s.j_m)) > 0.0
        assert np.max(np.abs(s.j_e)) > 0.0

    def test_mixed_kappa_positive_falls_back_to_fd(self):
        cfg = ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.5), ((-1.0, 0.0, 0.0), 2.0, -1.0)]
        )
        s = current_at(ModelParams.classical(beta=BETA, kappa=0.8), cfg, (0.0, 1.0, 0.0))
        assert s.method == "fd"
        assert np.all(np.isfinite(s.j_m)) and np.all(np.isfinite(s.j_e))

    def test_fd_route_inverts_once_per_stencil_node(self, monkeypatch):
        params = ModelParams.fractional_power(beta=1.0, p=1.5, kappa=0.5)
        cfg = ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.4), ((-1.0, 0.5, 0.0), -2.0, 1.0)]
        )
        x = np.array([0.2, 1.1, -0.3])
        calls = []

        def counting_eh(*args, **kwargs):
            calls.append(1)
            return dyonic_eh(*args, **kwargs)

        monkeypatch.setattr(currents, "dyonic_eh", counting_eh)
        s = current_at(params, cfg, x)
        monkeypatch.undo()
        # two Richardson steps, six stencil nodes each, one inversion per node
        assert s.method == "fd" and len(calls) == 12

        # reference: separate curls of E-only and H-only fields
        def e_field(y):
            return dyonic_eh(params, displacement_field(cfg, y), magnetic_field(cfg, y))[0]

        def h_field(y):
            return dyonic_eh(params, displacement_field(cfg, y), magnetic_field(cfg, y))[1]

        h = fd_step(x)
        assert np.array_equal(s.j_m, -fd_curl(e_field, x, step=h, richardson=True))
        assert np.array_equal(s.j_e, fd_curl(h_field, x, step=h, richardson=True))

    def test_fd_route_consistent_with_analytic_at_tiny_kappa(self):
        cfg = ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.5), ((-1.0, 0.0, 0.0), 2.0, -1.0)]
        )
        x = np.array([0.0, 1.0, 0.0])
        s = current_at(ModelParams.classical(beta=BETA, kappa=1e-5), cfg, x)
        jm0 = jm_classical_dyonic_k0(cfg, BETA, x)
        je0 = je_classical_dyonic_k0(cfg, BETA, x)
        assert np.max(np.abs(s.j_m - jm0)) <= 1e-8
        assert np.max(np.abs(s.j_e - je0)) <= 1e-8

    def test_sample_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CurrentSample(
                j_e=np.array([np.inf, 0.0, 0.0]),
                j_m=np.zeros(3),
                at=np.zeros(3),
            )


class TestResidualIdentityAcrossModels:
    @pytest.mark.parametrize(
        "params",
        [
            ModelParams.classical(beta=1.0),
            ModelParams.logarithmic(beta=0.5),
            ModelParams.exponential(beta=0.7),
            ModelParams.quadratic(alpha=0.4),
            ModelParams.fractional_power(beta=0.8, p=3.0),
        ],
        ids=["classical", "logarithmic", "exponential", "quadratic", "fractional"],
    )
    def test_curl_plus_current_vanishes_pointwise(self, params):
        cfg_e = pair_config(q1=1.0, q2=-1.5)
        cfg_m = pair_config(q1=1.0, q2=-1.5, magnetic=True)
        points = [np.array([0.0, 1.0, 0.0]), np.array([0.5, -0.8, 0.9]), np.array([-1.2, 0.4, 1.5])]

        def e_field(y):
            return electrostatic_e(params, displacement_field(cfg_e, y))

        def h_field(y):
            return magnetostatic_h(params, magnetic_field(cfg_m, y))

        for x in points:
            jm = jm_generic_electrostatic(params, cfg_e, x)
            je = je_generic_magnetostatic(params, cfg_m, x)
            assert np.max(np.abs(fd_curl(e_field, x) + jm)) <= FD_TOL
            assert np.max(np.abs(fd_curl(h_field, x) - je)) <= FD_TOL
