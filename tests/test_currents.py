"""Tests for the induced current densities and the FD stencil."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifield import ChargeConfig, ModelParams
from bifield import currents
from bifield.currents import current_rows, eh_field
from bifield.errors import DomainViolation, FieldError, SingularPoint
from bifield.observables import hamiltonian_on_points
from bifield.sources import _coulomb_gradient, _coulomb_offsets
from bifield.verify import jm_classical_jacobi_term

import triple_sums
from fd_oracle import fd_curl, fd_div, fd_jacobian
from triple_sums import coulomb_rows, jm_classical_electrostatic_pair

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


def one_species(cfg, electric=True):
    """The electric (or magnetic) charges of cfg alone, at the same places."""
    return ChargeConfig.build([(c.position, c.q if electric else 0.0, 0.0 if electric else c.g)
                               for c in cfg.charges])


def custom_classical(beta):
    """The classical Lagrangian as user-supplied callables, which take the
    generic inversion and the generic current formulas."""
    return ModelParams.custom(lambda s: (1.0 - math.sqrt(1.0 - 2.0 * beta * s)) / beta,
                              lambda s: 1.0 / math.sqrt(1.0 - 2.0 * beta * s),
                              lambda s: beta * (1.0 - 2.0 * beta * s) ** -1.5,
                              s_max=0.5 / beta)


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


def nearest(cfg, x):
    """The distance from the point x to the nearest charge, one norm per charge."""
    return min(np.linalg.norm(x - p) for p in cfg.positions)


def far_point(rng, cfg, min_dist=0.4):
    while True:
        x = rng.uniform(-3.0, 3.0, size=3)
        if nearest(cfg, x) > min_dist:
            return x


def far_points(rng, cfg, n, min_dist=0.4):
    return np.array([far_point(rng, cfg, min_dist) for _ in range(n)])


def field_and_gradient(cfg, weights, pts):
    """F and grad(F^2) of the Coulomb kernel at points of shape (N, 3)."""
    return _coulomb_gradient(weights, *_coulomb_offsets(cfg, np.reshape(pts, (-1, 3)))[:2])


def assert_rows_close(got, ref, tol=FD_TOL):
    """Every row of got is the row of ref to tol * max(1, max |ref|)."""
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=1))
    assert np.all(np.max(np.abs(got - ref), axis=1) <= tol * scale)


CLASSICAL = ModelParams.classical(beta=BETA)


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
        jm = current_rows(CLASSICAL, cfg, (1.0, 1.0, 1.0)).j_m
        assert np.max(np.abs(jm)) <= 1e-12

    def test_pair_formula_matches_triple_sum(self):
        cfg = pair_config(q1=1.0, q2=2.0)
        x = np.array([0.0, 1.0, 0.0])
        jt = current_rows(CLASSICAL, cfg, x).j_m[0]
        jp = jm_classical_electrostatic_pair(cfg, BETA, x)
        assert np.max(np.abs(jt - jp)) <= 1e-12
        assert np.linalg.norm(jt) > 0.0

    def test_pair_formula_matches_on_random_points(self):
        rng = np.random.default_rng(7)
        cfg = pair_config(q1=-1.3, q2=0.8)
        pts = far_points(rng, cfg, 25)
        for x, jt in zip(pts, current_rows(CLASSICAL, cfg, pts).j_m):
            jp = jm_classical_electrostatic_pair(cfg, BETA, x)
            assert np.max(np.abs(jt - jp)) <= 1e-12 * max(1.0, np.max(np.abs(jt)))

    def test_pair_formula_rejects_other_sizes(self):
        cfg = ChargeConfig.build([((0, 0, 0), 1.0, 0.0)])
        with pytest.raises(ValueError):
            jm_classical_electrostatic_pair(cfg, BETA, (1.0, 1.0, 1.0))

    def test_matches_minus_fd_curl_of_e(self):
        cfg = pair_config()
        pts = far_points(np.random.default_rng(3), cfg, 12)
        jm = current_rows(CLASSICAL, cfg, pts).j_m
        assert_rows_close(fd_curl(eh_field(CLASSICAL, cfg), pts)[:, 0], -jm)

    def test_collinear_geometry_gives_zero(self):
        cfg = pair_config()
        jm = current_rows(CLASSICAL, cfg, (3.0, 0.0, 0.0)).j_m
        assert np.max(np.abs(jm)) == 0.0

    def test_nonconservative_witness_on_grid(self):
        # a 5^3 sample grid sees a strictly positive current magnitude
        cfg = pair_config()
        ticks = np.linspace(-1.6, 1.6, 5)
        grid = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 3)
        grid = grid[[nearest(cfg, x) >= 0.3 for x in grid]]
        assert float(np.max(np.abs(current_rows(CLASSICAL, cfg, grid).j_m))) > 0.0

    def test_singular_point_rejected(self):
        rows = current_rows(CLASSICAL, pair_config(), (1.0, 0.0, 0.0))
        assert rows.code.tolist() == [1] and isinstance(rows.errors[0], SingularPoint)


class TestClassicalMagnetostatic:
    def test_single_center_zero(self):
        cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 0.0, 2.0)])
        je = current_rows(CLASSICAL, cfg, (0.3, 0.4, 0.5)).j_e
        assert np.max(np.abs(je)) <= 1e-12

    def test_matches_fd_curl_of_h(self):
        cfg = pair_config(magnetic=True)
        pts = far_points(np.random.default_rng(11), cfg, 12)
        je = current_rows(CLASSICAL, cfg, pts).j_e
        assert_rows_close(fd_curl(eh_field(CLASSICAL, cfg), pts)[:, 1], je)

    def test_mirror_of_electric_current(self):
        # same numbers as charges: j_e(g) = -j_m(q), only the overall sign flips
        cfg_e = pair_config(q1=1.1, q2=-0.7)
        cfg_m = pair_config(q1=1.1, q2=-0.7, magnetic=True)
        x = np.array([0.2, 0.9, -0.4])
        jm = current_rows(CLASSICAL, cfg_e, x).j_m
        je = current_rows(CLASSICAL, cfg_m, x).j_e
        assert np.max(np.abs(je + jm)) <= 1e-15 * max(1.0, np.max(np.abs(jm)))


class TestDyonicKappaZero:
    # the dispatcher sends a configuration without g (or q) to the
    # single-species forms, so the reductions are checked on the kernel
    def test_reduces_to_electrostatic_without_g(self):
        cfg = pair_config()
        x = np.array([0.0, 1.0, 0.0])
        d, grad = field_and_gradient(cfg, cfg.qs, x)
        zero = np.zeros_like(d)
        jm_d = currents._dyonic_k0_curl(BETA, d, grad, zero, zero)
        jm_e = current_rows(CLASSICAL, cfg, x).j_m
        assert np.max(np.abs(jm_d - jm_e)) == 0.0

    def test_reduces_to_magnetostatic_without_q(self):
        cfg = pair_config(magnetic=True)
        x = np.array([0.0, 1.0, 0.0])
        b, grad = field_and_gradient(cfg, cfg.gs, x)
        zero = np.zeros_like(b)
        je_d = -currents._dyonic_k0_curl(BETA, b, grad, zero, zero)
        je_m = current_rows(CLASSICAL, cfg, x).j_e
        assert np.max(np.abs(je_d - je_m)) == 0.0

    def test_single_dyon_zero(self):
        cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 1.0, 0.5)])
        rows = current_rows(CLASSICAL, cfg, (0.3, 0.4, 0.5))
        assert currents.current_method(CLASSICAL, cfg) == "analytic" and rows.code.tolist() == [0]
        assert np.max(np.abs(rows.j_m)) <= 1e-12
        assert np.max(np.abs(rows.j_e)) <= 1e-12

    def test_matches_fd_curls(self):
        cfg = ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.5), ((-1.0, 0.0, 0.0), 2.0, -1.0)]
        )
        pts = far_points(np.random.default_rng(19), cfg, 10)
        rows = current_rows(CLASSICAL, cfg, pts)
        assert currents.current_method(CLASSICAL, cfg) == "analytic" and not rows.code.any()
        curl = fd_curl(eh_field(CLASSICAL, cfg), pts)
        assert_rows_close(curl[:, 0], -rows.j_m)
        assert_rows_close(curl[:, 1], rows.j_e)


class TestGenericElectrostatic:
    def test_linear_model_is_conservative(self):
        params = ModelParams.fractional_power(beta=1.0, p=1.0)
        cfg = pair_config()
        rows = current_rows(params, cfg, (0.0, 1.0, 0.0))
        assert rows.code.tolist() == [0]
        assert np.max(np.abs(rows.j_m)) == 0.0

    def test_classical_params_recover_dedicated_formula(self):
        cfg = pair_config(q1=0.9, q2=-1.4)
        pts = far_points(np.random.default_rng(23), cfg, 15)
        rows = current_rows(custom_classical(0.6), cfg, pts)
        assert not rows.code.any()
        assert_rows_close(rows.j_m, current_rows(ModelParams.classical(beta=0.6), cfg, pts).j_m,
                            tol=1e-9)

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
        pts = far_points(np.random.default_rng(29), cfg, 6)
        rows = current_rows(params, cfg, pts)
        assert currents.current_method(params, cfg) == "analytic" and not rows.code.any()
        assert_rows_close(fd_curl(eh_field(params, cfg), pts)[:, 0], -rows.j_m)


class TestGenericMagnetostatic:
    def test_single_center_zero(self):
        params = ModelParams.exponential(beta=1.0)
        cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 0.0, 1.7)])
        rows = current_rows(params, cfg, (0.4, -0.2, 0.6))
        assert rows.code.tolist() == [0]
        assert np.max(np.abs(rows.j_e)) <= 1e-15

    def test_linear_model_zero(self):
        params = ModelParams.fractional_power(beta=1.0, p=1.0)
        cfg = pair_config(magnetic=True)
        rows = current_rows(params, cfg, (0.0, 1.0, 0.0))
        assert rows.code.tolist() == [0]
        assert np.max(np.abs(rows.j_e)) == 0.0

    def test_classical_params_recover_dedicated_formula(self):
        cfg = pair_config(magnetic=True)
        pts = far_points(np.random.default_rng(31), cfg, 10)
        rows = current_rows(custom_classical(BETA), cfg, pts)
        assert not rows.code.any()
        assert_rows_close(rows.j_e, current_rows(CLASSICAL, cfg, pts).j_e, tol=1e-12)

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
        pts = far_points(np.random.default_rng(37), cfg, 6)
        rows = current_rows(params, cfg, pts)
        assert currents.current_method(params, cfg) == "analytic" and not rows.code.any()
        assert_rows_close(fd_curl(eh_field(params, cfg), pts)[:, 1], rows.j_e)

    def test_gradient_of_field_square_matches_fd(self):
        cfg = pair_config(magnetic=True)
        x = np.array([0.3, 0.8, -0.2])

        def b2(y):
            b = coulomb_rows(cfg, cfg.gs, y)
            return np.sum(b * b, axis=1)

        fd = fd_jacobian(b2, x[None, :], np.array([1e-5]))[0]
        grad = field_and_gradient(cfg, cfg.gs, x)[1][0]
        assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))


class TestFactoredFormsMatchTripleSums:
    """The O(n) factored currents against the term-by-term fsum oracle."""

    MODELS = (ModelParams.logarithmic(beta=0.4), ModelParams.exponential(beta=0.7),
              ModelParams.fractional_power(beta=0.8, p=3.0))

    @staticmethod
    def assert_close(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_configurations(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(4):
            cfg = random_config(rng, n, electric=True, magnetic=True)
            x = far_point(rng, cfg, min_dist=0.2)
            beta = float(rng.uniform(0.2, 2.0))
            params = self.MODELS[int(rng.integers(len(self.MODELS)))]
            classical = ModelParams.classical(beta=beta)
            self.assert_close(current_rows(classical, one_species(cfg), x).j_m[0],
                              triple_sums.jm_classical_electrostatic(cfg, beta, x))
            self.assert_close(current_rows(classical, one_species(cfg, electric=False), x).j_e[0],
                              triple_sums.je_classical_magnetostatic(cfg, beta, x))
            dyonic = current_rows(classical, cfg, x)
            self.assert_close(dyonic.j_m[0], triple_sums.jm_classical_dyonic_k0(cfg, beta, x))
            self.assert_close(dyonic.j_e[0], triple_sums.je_classical_dyonic_k0(cfg, beta, x))
            self.assert_close(current_rows(params, one_species(cfg), x).j_m[0],
                              triple_sums.jm_generic_electrostatic(params, cfg, x))
            self.assert_close(current_rows(params, one_species(cfg, electric=False), x).j_e[0],
                              triple_sums.je_generic_magnetostatic(params, cfg, x))
            for which, weights in (("electric", cfg.qs), ("magnetic", cfg.gs)):
                self.assert_close(field_and_gradient(cfg, weights, x)[1][0],
                                  triple_sums.grad_field_square(cfg, x, which=which))

    def test_thirty_two_centres(self):
        rng = np.random.default_rng(332)
        cfg = random_config(rng, 32, electric=True, magnetic=True, spread=2.0)
        x = far_point(rng, cfg, min_dist=0.2)
        # the dyonic oracle runs both the single-species and the mixed triple sum
        self.assert_close(current_rows(CLASSICAL, cfg, x).j_m[0],
                          triple_sums.jm_classical_dyonic_k0(cfg, BETA, x))
        self.assert_close(field_and_gradient(cfg, cfg.qs, x)[1][0],
                          triple_sums.grad_field_square(cfg, x, which="electric"))


class TestFiniteDifferenceOracles:
    """The numpy oracle of tests/fd_oracle.py, and currents._stencil
    against it."""

    def test_oracle_imports_numpy_alone(self):
        tree = ast.parse(Path(__file__).with_name("fd_oracle.py").read_text())
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert [(type(node).__name__, [a.name for a in node.names]) for node in imports] == [
            ("Import", ["numpy"])]

    def test_constant_field(self):
        f = lambda y: np.broadcast_to([1.0, 2.0, 3.0], y.shape)
        x = np.array([[0.3, 0.2, -0.1]])
        assert np.max(np.abs(fd_curl(f, x))) == 0.0
        assert fd_div(f, x).tolist() == [0.0]

    def test_rotation_field(self):
        f = lambda y: np.stack((-y[:, 1], y[:, 0], np.zeros(len(y))), axis=1)
        x = np.array([[0.3, 0.2, -0.1]])
        curl = fd_curl(f, x)
        assert np.max(np.abs(curl - np.array([0.0, 0.0, 2.0]))) <= 1e-10
        assert abs(fd_div(f, x)[0]) <= 1e-10

    def test_gradient_field_has_no_curl(self):
        cfg = ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.0), ((-0.5, 0.8, 0.0), -2.0, 0.0), ((0.0, -0.9, 0.6), 0.5, 0.0)]
        )
        pts = far_points(np.random.default_rng(41), cfg, 8)
        assert np.max(np.abs(fd_curl(lambda y: coulomb_rows(cfg, cfg.qs, y), pts))) <= 1e-6

    def test_richardson_improves_cubic_field(self):
        # curl of (0, x^3, 0) is (0, 0, 3 x^2): plain central diff carries an
        # O(h^2) error, the two-step extrapolation kills it
        f = lambda y: np.stack((np.zeros(len(y)), y[:, 0] ** 3, np.zeros(len(y))), axis=1)
        x = np.array([[1.0, 0.0, 0.0]])
        plain = fd_curl(f, x, step=1e-2)[0]
        extrap = fd_curl(f, x, step=1e-2, richardson=True)[0]
        assert abs(plain[2] - 3.0) > 1e-7
        assert abs(extrap[2] - 3.0) <= 1e-9

    @pytest.mark.parametrize("richardson", [False, True])
    def test_stacked_field_matches_per_field_curls(self, richardson):
        f = lambda y: np.stack((y[:, 1] * y[:, 2] ** 2, np.sin(y[:, 0]), y[:, 0] * y[:, 1]), axis=1)
        g = lambda y: np.stack((np.exp(y[:, 2]), y[:, 0] ** 3, -y[:, 1] * y[:, 2]), axis=1)
        x = np.array([[0.4, -0.7, 0.2], [1.1, 0.3, -0.5]])
        stacked = fd_curl(lambda y: np.stack((f(y), g(y)), axis=1), x, step=1e-3,
                          richardson=richardson)
        assert stacked.shape == (2, 2, 3)
        assert np.array_equal(stacked[:, 0], fd_curl(f, x, step=1e-3, richardson=richardson))
        assert np.array_equal(stacked[:, 1], fd_curl(g, x, step=1e-3, richardson=richardson))

    def test_default_step_scales_with_position(self):
        steps = currents._fd_step_rows(np.array([[0.0, 0.0, 0.0], [200.0, 0.0, 0.0]]))
        assert steps[0] == 1e-4 and steps[1] == pytest.approx(2e-2)
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-2.0, 2.0, (200, 1))
        for x, h in zip(pts, currents._fd_step_rows(pts)):
            assert h == 1e-4 * max(1.0, float(np.linalg.norm(x)))

    @pytest.mark.parametrize("richardson", [False, True])
    @pytest.mark.parametrize("step", [None, 3.7e-3])
    def test_stencil_matches_the_per_axis_reference(self, step, richardson):
        # currents._stencil's nodes and Jacobians against the oracle's per-axis
        # differences, bit for bit, for a (3,) and a stacked (2, 3) field
        f = lambda y: np.stack((y[:, 1] * y[:, 2] ** 2, np.sin(y[:, 0]),
                                y[:, 0] * y[:, 1] * np.exp(y[:, 2])), axis=1)
        g = lambda y: np.stack((f(y), np.stack((np.exp(y[:, 2]), y[:, 0] ** 3,
                                                -y[:, 1] * y[:, 2]), axis=1)), axis=1)
        pts = np.random.default_rng(8).uniform(-3.0, 3.0, size=(10, 3))
        h = currents._fd_step_rows(pts) if step is None else np.full(len(pts), step)
        hs = np.stack((0.5 * h, h), axis=1) if richardson else h[:, None]
        nodes, jacobian = currents._stencil(pts, hs)
        for field in (f, g):
            jac = jacobian(field(nodes))
            curl, div = currents._curl(jac), np.trace(jac, axis1=-2, axis2=-1)
            if richardson:
                curl, div = (4.0 * curl[:, 0] - curl[:, 1]) / 3.0, (4.0 * div[:, 0] - div[:, 1]) / 3.0
            else:
                curl, div = curl[:, 0], div[:, 0]
            ref = fd_curl(field, pts, step=h, richardson=richardson)
            assert curl.shape == ref.shape and np.array_equal(curl, ref)
            ref = fd_div(field, pts, step=h, richardson=richardson)
            assert div.shape == ref.shape and np.array_equal(div, ref)

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, step):
        f = lambda y: y * y
        with pytest.raises(ValueError, match="step"):
            fd_curl(f, (1.0, 2.0, 3.0), step=step)
        with pytest.raises(ValueError, match="step"):
            fd_div(f, (1.0, 2.0, 3.0), step=step, richardson=True)

    def test_only_the_fd_users_build_a_stencil(self):
        """Every central difference in src/ takes its nodes and Jacobians
        from currents._stencil (the gridded Newton route's corner stencils
        aside), so no FD user grows its own."""
        callers = set()
        for path in Path(currents.__file__).parent.glob("*.py"):
            for node in ast.parse(path.read_text()).body:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call):
                        func = sub.func
                        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                        if name == "_stencil":
                            callers.add(getattr(node, "name", None))
        assert callers == {"_fd_rows", "continuous_residual_suite", "residual_suite"}

    def test_stencil_clearance(self):
        cfg = pair_config()
        clear = currents._stencil_clear(cfg, np.array([[0.0, 1.0, 0.0], [1.05, 0.0, 0.0]]), 0.1)
        assert clear.tolist() == [True, False]


class TestDispatcher:
    def test_electric_only_routes(self):
        cfg = pair_config()
        for params in (ModelParams.classical(beta=BETA), ModelParams.logarithmic(beta=0.5)):
            s = current_rows(params, cfg, (0.0, 1.0, 0.0))
            assert currents.current_method(params, cfg) == "analytic" and s.code.tolist() == [0]
            assert np.max(np.abs(s.j_e)) == 0.0
            assert np.max(np.abs(s.j_m)) > 0.0

    def test_magnetic_only_routes(self):
        cfg = pair_config(magnetic=True)
        params = ModelParams.exponential(beta=0.7)
        s = current_rows(params, cfg, (0.0, 1.0, 0.0))
        assert currents.current_method(params, cfg) == "analytic" and s.code.tolist() == [0]
        assert np.max(np.abs(s.j_m)) == 0.0
        assert np.max(np.abs(s.j_e)) > 0.0

    def test_classical_k0_dyonic_analytic(self):
        cfg = ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.5), ((-1.0, 0.0, 0.0), 2.0, -1.0)]
        )
        params = ModelParams.classical(beta=BETA)
        s = current_rows(params, cfg, (0.0, 1.0, 0.0))
        assert currents.current_method(params, cfg) == "analytic" and s.code.tolist() == [0]
        assert np.max(np.abs(s.j_m)) > 0.0
        assert np.max(np.abs(s.j_e)) > 0.0

    def test_mixed_kappa_positive_falls_back_to_fd(self):
        cfg = ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.5), ((-1.0, 0.0, 0.0), 2.0, -1.0)]
        )
        params = ModelParams.classical(beta=BETA, kappa=0.8)
        s = current_rows(params, cfg, (0.0, 1.0, 0.0))
        assert currents.current_method(params, cfg) == "fd" and s.code.tolist() == [0]
        assert np.all(np.isfinite(s.j_m)) and np.all(np.isfinite(s.j_e))

    def test_fd_route_inverts_once_per_stencil_node(self, monkeypatch):
        params = ModelParams.fractional_power(beta=1.0, p=1.5, kappa=0.5)
        cfg = ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.4), ((-1.0, 0.5, 0.0), -2.0, 1.0)]
        )
        x = np.array([0.2, 1.1, -0.3])
        calls = []
        invert_rows = currents.invert_rows

        def counting_rows(params, d, b):
            calls.append(len(d))
            return invert_rows(params, d, b)

        monkeypatch.setattr(currents, "invert_rows", counting_rows)
        s = current_rows(params, cfg, x)
        monkeypatch.undo()
        # two Richardson steps, six stencil nodes each, one row per node, one call
        assert currents.current_method(params, cfg) == "fd" and s.code.tolist() == [0] and calls == [12]

        # reference: the oracle's curls of E and H of the rows field
        curl_e, curl_h = fd_curl(eh_field(params, cfg), x, step=currents._fd_step_rows(x[None, :]),
                                 richardson=True)[0]
        assert np.array_equal(s.j_m[0], -curl_e)
        assert np.array_equal(s.j_e[0], curl_h)

    def test_fd_route_consistent_with_analytic_at_tiny_kappa(self):
        cfg = ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.5), ((-1.0, 0.0, 0.0), 2.0, -1.0)]
        )
        x = np.array([0.0, 1.0, 0.0])
        tiny, k0_params = ModelParams.classical(beta=BETA, kappa=1e-5), ModelParams.classical(beta=BETA)
        s = current_rows(tiny, cfg, x)
        k0 = current_rows(k0_params, cfg, x)
        assert currents.current_method(tiny, cfg) == "fd" and currents.current_method(k0_params, cfg) == "analytic"
        assert np.max(np.abs(s.j_m - k0.j_m)) <= 1e-8
        assert np.max(np.abs(s.j_e - k0.j_e)) <= 1e-8

    @pytest.mark.parametrize("params, cfg, method", [
        (ModelParams.logarithmic(beta=1.0), pair_config(), "analytic"),
        (ModelParams.classical(beta=BETA), ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.5), ((-1.0, 0.0, 0.0), 2.0, -1.0)]), "analytic"),
        (ModelParams.logarithmic(beta=1.0), ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.5), ((-1.0, 0.0, 0.0), 2.0, -1.0)]), "fd"),
    ], ids=["electric", "classical-dyonic-k0", "fd"])
    def test_zero_points(self, params, cfg, method):
        # an empty array or list: the currents, and the energy density on the
        # same rows (closed form and inverted), come out empty
        for pts in (np.empty((0, 3)), []):
            rows = current_rows(params, cfg, pts)
            assert currents.current_method(params, cfg) == method
            assert rows.j_e.shape == rows.j_m.shape == (0, 3)
            assert rows.code.shape == (0,) and rows.errors == []
            assert hamiltonian_on_points(params, cfg, pts).shape == (0,)

    def test_sample_rejects_nonfinite(self):
        # the currents of huge charges overflow: the point fails rather than
        # carrying an inf or NaN
        cfg = pair_config(q1=1e200, q2=-1e200)
        rows = current_rows(ModelParams.classical(beta=BETA), cfg, (0.0, 1.0, 0.0))
        assert rows.code.tolist() == [1]
        assert isinstance(rows.errors[0], DomainViolation)
        assert str(rows.errors[0]) == "current has non-finite components"


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
        points = np.array([[0.0, 1.0, 0.0], [0.5, -0.8, 0.9], [-1.2, 0.4, 1.5]])
        jm = current_rows(params, cfg_e, points).j_m
        je = current_rows(params, cfg_m, points).j_e
        assert np.max(np.abs(fd_curl(eh_field(params, cfg_e), points)[:, 0] + jm)) <= FD_TOL
        assert np.max(np.abs(fd_curl(eh_field(params, cfg_m), points)[:, 1] - je)) <= FD_TOL


class TestCurrentRows:
    """current_rows on many points at once against the per-point routes and
    one-point calls."""

    @staticmethod
    def points(cfg, rng, n=60):
        pts = rng.uniform(-2.0, 2.0, size=(n, 3))
        pts[:3] = cfg.positions[0] + np.array([[0.0, 0.0, 0.0], [5e-5, 0.0, 0.0], [0.02, 0.0, 0.0]])
        return pts

    def test_fd_rows_match_scalar_fd_curls(self):
        # the 12 stacked stencil nodes of every point against the oracle's
        # curls of eh_field at that point alone, bit for bit; near each centre the quadratic
        # model's cubic root has f' = 1 + 2 alpha s < 0 at some stencil
        # nodes, which fail; the first three points probe the exclusion rules
        params = ModelParams.quadratic(1.0, kappa=0.5)
        cfg = ChargeConfig.build([((1.0, 0.0, 0.0), 1.0, 0.4), ((-1.0, 0.5, 0.0), -2.0, 1.0)])
        pts = self.points(cfg, np.random.default_rng(41))
        pts[3:6] = cfg.positions[1] + np.array([[0.0, 0.1, 0.0], [0.15, 0.0, 0.0], [0.0, 0.0, -0.2]])
        rows = current_rows(params, cfg, pts)
        assert currents.current_method(params, cfg) == "fd"
        eh = eh_field(params, cfg)
        outcomes = set()
        for i, (x, h) in enumerate(zip(pts, currents._fd_step_rows(pts))):
            if not nearest(cfg, x) > h + cfg.exclusion_radius:
                assert isinstance(rows.errors[rows.code[i] - 1], SingularPoint), i
                outcomes.add("skip")
                continue
            try:
                curl_e, curl_h = fd_curl(eh, x, step=h, richardson=True)[0]
            except FieldError as exc:
                got = rows.errors[rows.code[i] - 1]
                assert (type(got), str(got)) == (type(exc), str(exc)), i
                outcomes.add("fail")
                continue
            assert rows.code[i] == 0, i
            assert np.array_equal(rows.j_m[i], -curl_e) and np.array_equal(rows.j_e[i], curl_h), i
            outcomes.add("ok")
        assert outcomes == {"skip", "fail", "ok"}

    @pytest.mark.parametrize("params, cfg", [
        (ModelParams.classical(beta=BETA), pair_config()),
        (ModelParams.logarithmic(beta=0.5), pair_config()),
        (ModelParams.fractional_power(beta=1.0, p=1.5), pair_config(magnetic=True)),
        (ModelParams.exponential(beta=0.7), pair_config(magnetic=True)),
        (ModelParams.classical(beta=BETA), ChargeConfig.build(
            [((1.0, 0.0, 0.0), 1.0, 0.5), ((-1.0, 0.0, 0.0), 2.0, -1.0)])),
    ], ids=["classical-electric", "log-electric", "fractional-magnetic",
            "exponential-magnetic", "classical-dyonic"])
    def test_closed_form_rows_match_pointwise_calls(self, params, cfg):
        pts = self.points(cfg, np.random.default_rng(42))
        rows = current_rows(params, cfg, pts)
        assert currents.current_method(params, cfg) == "analytic"
        assert isinstance(rows.errors[rows.code[0] - 1], SingularPoint)
        for i, x in enumerate(pts):
            s = current_rows(params, cfg, x)
            if s.code[0]:
                got, exc = rows.errors[rows.code[i] - 1], s.errors[s.code[0] - 1]
                assert (type(got), str(got)) == (type(exc), str(exc)), i
                continue
            assert rows.code[i] == 0, i
            assert np.array_equal(rows.j_e[i], s.j_e[0]) and np.array_equal(rows.j_m[i], s.j_m[0]), i
