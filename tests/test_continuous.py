"""Tests for continuous sources: Newton potentials, field construction,
the conservativeness dichotomy, and the lattice ingester.

Radial reference values come from 1D radial quadrature (scipy) of the same
densities, frozen here. The Gaussian potential has the closed form
-Q erf(r / (sqrt2 sigma)) / (4 pi r), used directly. The Gauss's-law fields
of radial sources are checked against finite differences of the spherical
Newton-potential quadrature, the route gridded sources take.
"""

import dataclasses
import gc
import json
import math
import weakref

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import erf

from bifield import ChargeConfig, StateRows, continuous
from bifield.errors import ConfigError, QuadratureError
from bifield.models import ModelParams
from bifield.observables import QuadratureSpec
from bifield.cli import main
from bifield.constitutive import invert_rows
from bifield.currents import eh_rows
from bifield.continuous import (
    ContinuousSource,
    _gauss_law,
    bump_source,
    gaussian_source,
    gridded_source,
    jm_rows,
    merge_sources,
    newton_potential,
    state_rows,
    two_gaussian_source,
)
from bifield.errors import raise_first
from bifield.verify import continuous_residual_suite

from fd_oracle import fd_curl

# 1D radial quadrature of the bump density (total 2, radius 1.5): potential
# at r = 0.5 and r = 1.0 from the center, via Q_enc(r)/(4 pi r) + outer shell
BUMP_U_HALF = -0.2045495239482435
BUMP_U_ONE = -0.1542888389262224


# the model state_rows inverts with when a test reads only D or B off it
CLASSICAL = ModelParams.classical(1.0)


def gaussian_potential(total, sigma, r):
    return -total * erf(r / (math.sqrt(2.0) * sigma)) / (4.0 * math.pi * r)


def curl_e(src, params, pts) -> np.ndarray:
    """curl E = -j_m at points of shape (N, 3), from one state_rows and one
    jm_rows call; raises the first failure."""
    pts = np.reshape(pts, (-1, 3))
    state = state_rows(src, params, pts)
    j_m = jm_rows(src, params, pts, None, state)
    raise_first(state.code, state.errors)
    return -j_m


def bare(src):
    """The same electric density with its radial parts stripped off, so its
    fields go through finite differences of the Newton potential."""
    return ContinuousSource(rho_e=src.rho_e, gamma=src.gamma, total_q=src.total_q,
                            support_radius=src.support_radius, center=src.center,
                            width=src.width)


# fourth-order central stencils: first derivative, second derivative
FD1 = {-2: 1.0 / 12.0, -1: -8.0 / 12.0, 1: 8.0 / 12.0, 2: -1.0 / 12.0}
FD2 = {-2: -1.0 / 12.0, -1: 16.0 / 12.0, 0: -30.0 / 12.0, 1: 16.0 / 12.0, 2: -1.0 / 12.0}


def fd_hessian(u, x, h):
    """Fourth-order FD Hessian of a scalar function u at x."""
    e = np.eye(3) * h
    hess = np.empty((3, 3))
    for i in range(3):
        hess[i, i] = sum(c * u(x + a * e[i]) for a, c in FD2.items()) / h**2
        for j in range(i + 1, 3):
            hess[i, j] = hess[j, i] = sum(
                ca * cb * u(x + a * e[i] + b * e[j])
                for a, ca in FD1.items() for b, cb in FD1.items()) / h**2
    return hess


def fd_jacobian(g, x, h):
    """Fourth-order FD Jacobian of a vector function g at x, column k = d/dx_k."""
    e = np.eye(3) * h
    return np.column_stack([sum(c * g(x + a * e[k]) for a, c in FD1.items()) / h
                            for k in range(3)])


def gauss_law(parts, x):
    """D and the Hessian of u at one point, from the rows kernel."""
    d, hess = _gauss_law(parts, np.asarray(x, dtype=float)[None, :])
    return d[0], hess[0]


def bump_shape(t):
    return t * t * math.exp(-1.0 / (1.0 - t * t)) if t < 1.0 else 0.0


def offset_pair():
    # strong offset mixture; its E-field curl is O(1e-2) near the overlap
    return two_gaussian_source(q1=8.0, sigma1=0.6, center1=(-1.0, 0.0, 0.0),
                               q2=6.0, sigma2=0.8, center2=(1.2, 0.4, 0.0))


class TestContinuousSource:
    def test_slow_decay_exponent_rejected(self):
        rho = gaussian_source().rho_e
        with pytest.raises(ConfigError):
            ContinuousSource(rho_e=rho, gamma=3.0)
        with pytest.raises(ConfigError):
            ContinuousSource(rho_e=rho, gamma=2.5)

    def test_slow_decaying_density_rejected(self):
        def rho(pts):
            pts = np.asarray(pts, dtype=float)
            r2 = np.sum(pts * pts, axis=-1)
            return (1.0 + r2) ** -1.4  # decays like r^-2.8, slower than claimed

        with pytest.raises(ConfigError):
            ContinuousSource(rho_e=rho, gamma=4.0, support_radius=5.0, width=1.0)

    def test_needs_a_density(self):
        with pytest.raises(ConfigError):
            ContinuousSource()

    def test_bad_geometry_rejected(self):
        rho = gaussian_source().rho_e
        with pytest.raises(ConfigError):
            ContinuousSource(rho_e=rho, support_radius=0.0)
        with pytest.raises(ConfigError):
            ContinuousSource(rho_e=rho, width=-1.0)

    def test_gaussian_builder_fields(self):
        src = gaussian_source(total=1.7, sigma=0.8, center=(0.3, -0.2, 0.1))
        assert src.total_q == 1.7
        assert src.total_g == 0.0
        assert src.rho_m is None
        assert len(src.radial_e) == 1 and src.radial_m == ()
        assert np.array_equal(src.radial_e[0].center, [0.3, -0.2, 0.1])
        assert src.width == 0.8
        msrc = gaussian_source(total=0.5, magnetic=True)
        assert msrc.rho_e is None
        assert msrc.total_g == 0.5
        assert len(msrc.radial_m) == 1 and msrc.radial_e == ()

    def test_gaussian_density_normalization(self):
        # radial quadrature of 4 pi r^2 rho reproduces the total
        src = gaussian_source(total=1.7, sigma=0.8, center=(0.3, -0.2, 0.1))
        c = np.array([0.3, -0.2, 0.1])
        rs = np.linspace(1e-4, 10.0, 20001)
        vals = src.rho_e(c + rs[:, None] * np.array([0.0, 0.0, 1.0]))
        total = np.trapezoid(4.0 * math.pi * rs**2 * vals, rs)
        assert abs(total - 1.7) <= 1e-6

    def test_bump_density_compact_and_normalized(self):
        src = bump_source(total=2.0, radius=1.5, center=(0.2, 0.0, 0.0))
        c = np.array([0.2, 0.0, 0.0])
        assert float(src.rho_e(c + np.array([0.0, 1.5, 0.0]))) == 0.0
        assert float(src.rho_e(c + np.array([0.0, 2.0, 0.0]))) == 0.0
        assert float(src.rho_e(c)) > 0.0
        rs = np.linspace(1e-6, 1.5, 30001)
        vals = src.rho_e(c + rs[:, None] * np.array([1.0, 0.0, 0.0]))
        total = np.trapezoid(4.0 * math.pi * rs**2 * vals, rs)
        assert abs(total - 2.0) <= 1e-6

    def test_invalid_widths_rejected(self):
        with pytest.raises(ConfigError):
            gaussian_source(sigma=0.0)
        with pytest.raises(ConfigError):
            two_gaussian_source(sigma1=-1.0)
        with pytest.raises(ConfigError):
            bump_source(radius=0.0)

    def test_merge_sources(self):
        e = gaussian_source(total=2.0, sigma=1.0, center=(-0.5, 0.0, 0.0))
        m = gaussian_source(total=1.5, sigma=1.2, center=(0.5, 0.0, 0.0), magnetic=True)
        dy = merge_sources(e, m)
        assert dy.total_q == 2.0
        assert dy.total_g == 1.5
        assert dy.rho_e is e.rho_e
        assert dy.rho_m is m.rho_m
        assert dy.width == 1.0
        assert dy.support_radius >= max(e.support_radius, m.support_radius)
        with pytest.raises(ConfigError):
            merge_sources(m, m)
        with pytest.raises(ConfigError):
            merge_sources(e, e)


class TestNewtonPotential:
    def test_gaussian_matches_closed_form(self):
        src = gaussian_source(total=1.0, sigma=1.0)
        for r in np.geomspace(0.2, 12.0, 15):
            u = newton_potential(src, (r, 0.0, 0.0))
            exact = gaussian_potential(1.0, 1.0, r)
            assert abs(u - exact) <= 1e-5 * abs(exact)

    def test_missing_density_gives_zero(self):
        src = gaussian_source(total=1.0, sigma=1.0)
        assert newton_potential(src, (1.0, 2.0, 3.0), which="magnetic") == 0.0

    def test_narrow_source_is_coulomb_far_out(self):
        src = gaussian_source(total=2.0, sigma=0.05)
        r = 0.5  # ten widths from the center
        u = newton_potential(src, (0.3, 0.4, 0.0))
        exact = -2.0 / (4.0 * math.pi * r)
        assert abs(u - exact) <= 1e-6 * abs(exact)

    def test_bump_exterior_is_exactly_coulomb(self):
        src = bump_source(total=2.0, radius=1.5, center=(0.2, 0.0, 0.0))
        for x in [(3.0, 0.0, 0.0), (0.2, 5.0, 0.0)]:
            d = float(np.linalg.norm(np.array(x) - np.array([0.2, 0.0, 0.0])))
            u = newton_potential(src, x)
            exact = -2.0 / (4.0 * math.pi * d)
            assert abs(u - exact) <= 1e-6 * abs(exact)

    def test_bump_interior_matches_radial_oracle(self):
        src = bump_source(total=2.0, radius=1.5, center=(0.2, 0.0, 0.0))
        c = np.array([0.2, 0.0, 0.0])
        u_half = newton_potential(src, c + np.array([0.0, 0.5, 0.0]))
        u_one = newton_potential(src, c + np.array([0.0, 0.0, 1.0]))
        assert abs(u_half - BUMP_U_HALF) <= 1e-8
        assert abs(u_one - BUMP_U_ONE) <= 1e-8

    def test_regime_boundary_is_seamless(self):
        # the x-centered and source-centered quadratures agree where they meet
        src = gaussian_source(total=1.0, sigma=1.0)
        for r in (8.9, 9.1):
            u = newton_potential(src, (r, 0.0, 0.0))
            exact = gaussian_potential(1.0, 1.0, r)
            assert abs(u - exact) <= 1e-9 * abs(exact)

    def test_invalid_inputs(self):
        src = gaussian_source()
        with pytest.raises(ValueError):
            newton_potential(src, (1.0, 0.0, 0.0), which="both")
        with pytest.raises(ValueError):
            newton_potential(src, (math.inf, 0.0, 0.0))

    def test_unresolvable_density_raises(self):
        # valid decay, but too rough for a two-level quadrature at 1e-10
        def rho(pts):
            pts = np.asarray(pts, dtype=float)
            r2 = np.sum(pts * pts, axis=-1)
            return np.exp(-0.5 * r2) * (1.0 + 0.8 * np.sin(40.0 * r2))

        src = ContinuousSource(rho_e=rho, gamma=6.0, support_radius=8.0, width=1.0)
        quad = QuadratureSpec(rel_tol=1e-10, max_subdivisions=1)
        with pytest.raises(QuadratureError):
            newton_potential(src, (0.3, 0.1, 0.2), quad)


class TestPotentialGradient:
    def test_analytic_matches_finite_differences(self):
        src = gaussian_source(total=1.0, sigma=1.0)
        x = np.array([1.2, -0.5, 0.8])
        g = state_rows(src, CLASSICAL, x[None]).d[0]
        h = 1e-5
        for k in range(3):
            step = np.zeros(3)
            step[k] = h
            fd = (newton_potential(src, x + step) - newton_potential(src, x - step)) / (2.0 * h)
            assert abs(g[k] - fd) <= 1e-9

    def test_small_radius_series_matches_erf_branch(self):
        src = gaussian_source(total=3.0, sigma=1.0)
        # below r = 0.01 sigma the gradient switches to a series; the erf
        # expression is still good to ~1e-11 there and pins it down
        r = 0.009
        enclosed = 3.0 * (math.erf(r / math.sqrt(2.0))
                          - math.sqrt(2.0 / math.pi) * r * math.exp(-0.5 * r * r))
        expected = enclosed / (4.0 * math.pi * r**2)
        g, g0 = state_rows(src, CLASSICAL, np.array([[r, 0.0, 0.0], [0.0, 0.0, 0.0]])).d
        assert abs(g[0] - expected) <= 1e-9 * abs(expected)
        assert abs(g[1]) == 0.0 and abs(g[2]) == 0.0
        assert np.all(g0 == 0.0)

    def test_fd_route_matches_analytic_route(self):
        # same density with the analytic gradient stripped off
        src = gaussian_source(total=1.0, sigma=1.0)
        x = np.array([[0.8, -0.3, 0.5]])
        g_fd = state_rows(bare(src), CLASSICAL, x).d
        g_an = state_rows(src, CLASSICAL, x).d
        # quadrature noise at rel_tol 1e-6 bounds the FD route near 1e-7
        assert np.max(np.abs(g_fd - g_an)) <= 1e-7

    def test_missing_density_gradient_is_zero(self):
        src = gaussian_source()
        assert np.all(state_rows(src, CLASSICAL, np.array([[1.0, 1.0, 1.0]])).b == 0.0)


class TestGaussLaw:
    """The Gauss's-law kernel of radial parts against the quadrature route."""

    BUMP = dict(total=2.0, radius=1.5, center=(0.2, 0.0, 0.0))

    @pytest.mark.parametrize("offset, h", [
        ((0.4, 0.3, -0.2), 0.05),     # interior, r = 0.54
        ((1.45, 0.1, 0.0), 0.025),    # near the edge, r = 1.45 of R = 1.5
        ((3.3, -1.0, 0.5), 0.05),     # exterior, past support + width
    ])
    def test_bump_matches_newton_quadrature(self, offset, h):
        src = bump_source(**self.BUMP)
        x = np.array(self.BUMP["center"]) + np.array(offset)
        d, hess = gauss_law(src.radial_e, x)
        ref = bare(src)
        d_fd = state_rows(ref, CLASSICAL, x[None]).d[0]
        h_fd = fd_hessian(lambda y: newton_potential(ref, y), x, h)
        assert np.max(np.abs(d_fd - d)) <= 1e-6 * np.max(np.abs(d))
        assert np.max(np.abs(h_fd - hess)) <= 1e-4 * np.max(np.abs(hess))
        # the public routes read the kernel
        assert np.array_equal(state_rows(src, CLASSICAL, x[None]).d[0], d)

    def test_bump_enclosed_charge_matches_adaptive_quadrature(self):
        total, R = 2.0, 1.5
        part = bump_source(total=total, radius=R).radial_e[0]
        full, _ = scipy_quad(bump_shape, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
        for r in (1e-3, 0.1, 0.5, 0.9, 1.2, 1.4, 1.49, 1.4999):
            enclosed = part.coef(r) * 4.0 * math.pi * r**3
            ref = total * scipy_quad(bump_shape, 0.0, r / R, epsabs=0.0,
                                     epsrel=1e-13, limit=200)[0] / full
            assert abs(enclosed - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("shape", ["bump", "gaussian"])
    def test_centre_is_explicit(self, shape):
        c = np.array([0.2, -0.1, 0.3])
        src = (bump_source(total=2.0, radius=1.5, center=c) if shape == "bump"
               else gaussian_source(total=2.0, sigma=0.8, center=c))
        d, hess = gauss_law(src.radial_e, c)
        assert np.all(d == 0.0)
        assert np.array_equal(hess, float(src.rho_e(c)) / 3.0 * np.eye(3))
        # the limit r -> 0 meets the centre value
        _, near = gauss_law(src.radial_e, c + np.array([1e-7, 0.0, 0.0]))
        assert np.max(np.abs(near - hess)) <= 1e-12 * np.max(np.abs(hess))

    def test_bump_is_exactly_coulomb_from_its_edge(self):
        total, R = 2.0, 1.5
        c = np.array([0.2, 0.0, 0.0])
        src = bump_source(total=total, radius=R, center=c)
        for r in (R, math.nextafter(R, 2.0), 1.0000001 * R, 4.0):
            # an axis offset, so that |x - c| is exactly r
            rv = np.array([0.0, r, 0.0])
            d, hess = gauss_law(src.radial_e, c + rv)
            coef = total / (4.0 * math.pi * r**3)
            assert np.array_equal(d, coef * rv)
            rhat = rv / r
            coulomb = coef * (np.eye(3) - 3.0 * np.outer(rhat, rhat))
            assert np.max(np.abs(hess - coulomb)) <= 1e-15 * coef
        # just inside, the rule's S(t)/S(1) meets Coulomb continuously
        r = R * (1.0 - 1e-12)
        part = src.radial_e[0]
        assert abs(part.coef(r) / (total / (4.0 * math.pi * r**3)) - 1.0) <= 1e-12

    def test_gaussian_series_seam(self):
        sigma = 0.8
        part = gaussian_source(total=3.0, sigma=sigma).radial_e[0]
        below, at = math.nextafter(1e-2 * sigma, 0.0), 1e-2 * sigma
        assert abs(part.coef(below) / part.coef(at) - 1.0) <= 1e-11
        x_below = np.array([below, 0.0, 0.0])
        x_at = np.array([at, 0.0, 0.0])
        _, h_below = gauss_law((part,), x_below)
        _, h_at = gauss_law((part,), x_at)
        assert np.max(np.abs(h_below - h_at)) <= 1e-11 * np.max(np.abs(h_at))

    def test_two_gaussian_hessian_matches_fd_of_gradient(self):
        src = offset_pair()
        for x in [(0.0, 0.8, 0.3), (-1.0, 0.05, 0.0), (2.5, -0.7, 1.1)]:
            x = np.array(x)
            _, hess = gauss_law(src.radial_e, x)
            jac = fd_jacobian(lambda y: state_rows(src, CLASSICAL, y[None]).d[0], x, 1e-3)
            assert np.max(np.abs(jac - hess)) <= 1e-10 * np.max(np.abs(hess))

    @pytest.mark.parametrize("shape", ["bump", "two_gaussian"])
    def test_hessian_trace_is_density(self, shape):
        # div D = rho at every point, inside and outside the support
        src = bump_source(**self.BUMP) if shape == "bump" else offset_pair()
        rng = np.random.default_rng(3)
        for x in rng.uniform(-2.5, 2.5, (20, 3)):
            _, hess = gauss_law(src.radial_e, x)
            rho = float(src.rho_e(x))
            assert np.array_equal(hess, hess.T)
            assert abs(np.trace(hess) - rho) <= 1e-14 * max(1.0, np.max(np.abs(hess)))


class TestNewtonMemo:
    def test_source_is_freed_with_its_values(self):
        src = gaussian_source(total=1.0, sigma=1.0)
        newton_potential(src, (1.0, 0.0, 0.0))
        ref = weakref.ref(src)
        del src
        gc.collect()
        assert ref() is None

    def test_memo_is_bounded_least_recent_first(self, monkeypatch):
        monkeypatch.setattr(continuous, "_NEWTON_MEMO_SIZE", 2)
        src = gaussian_source(total=1.0, sigma=1.0)
        calls = []
        impl = continuous._newton_impl

        def counting(*args):
            calls.append(args[2].tolist())
            return impl(*args)

        monkeypatch.setattr(continuous, "_newton_impl", counting)
        a, b, c = (3.0, 0.0, 0.0), (0.0, 3.0, 0.0), (0.0, 0.0, 3.0)
        first = newton_potential(src, a)
        newton_potential(src, b)
        assert newton_potential(src, a) == first      # a is now the most recent
        newton_potential(src, c)                      # evicts b
        newton_potential(src, a)
        newton_potential(src, b)
        assert calls == [list(a), list(b), list(c), list(b)]
        assert len(src._newton_memo) == 2

    def test_gridded_run_reuses_stencil_values(self, tmp_path, monkeypatch):
        # per point: 12 gradient nodes, then the Hessian's centre and its 12
        # mixed nodes; its 6 axis nodes are the gradient's +-2h nodes
        n, lo, sp = 9, -2.0, 0.5
        ax = lo + sp * np.arange(n)
        pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
        gaussian_source().rho_e(pts).astype("<f8").tofile(tmp_path / "rho.dat")
        (tmp_path / "rho.dat.json").write_text(json.dumps(
            {"dims": [n] * 3, "spacing": [sp] * 3, "origin": [lo] * 3}))
        cfg = {"model": {"kind": "classical"},
               "continuous": {"shape": "gridded", "lattice": "rho.dat"},
               "quadrature": {"rel_tol": 0.05, "max_subdivisions": 1},
               "grid": {"lo": [0.5, 0.2, 0.1], "hi": [1.5, 0.2, 0.1], "shape": [2, 1, 1]}}
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        calls = []
        impl = continuous._newton_impl

        def counting(*args):
            calls.append(1)
            return impl(*args)

        monkeypatch.setattr(continuous, "_newton_impl", counting)
        assert main(["continuous", "--config", str(tmp_path / "run.json"),
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert len(calls) == 2 * 25


class TestStateRecord:
    """eh_rows and state_rows return one StateRows record, which carries the
    Jacobians of D and B where the source gives them: the Gauss-law
    Hessians of a radial source, none from eh_rows or a gridded source."""

    PTS = np.array([(0.7, 0.2, -0.4), (1.5, -1.0, 0.3), (-0.3, 0.6, 0.1)])

    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("kind", ["charges", "radial", "gridded"])
    def test_one_record_for_both_source_kinds(self, kind, n):
        pts = self.PTS[:n]
        params = ModelParams.logarithmic(0.8, kappa=0.5)
        src = merge_sources(gaussian_source(2.0, 0.8), gaussian_source(1.5, 1.0, magnetic=True))
        if kind == "charges":
            cfg = ChargeConfig.build([((1.0, 0.0, 0.0), 1.0, 0.4), ((-1.0, 0.5, 0.0), -2.0, 1.0)])
            state = eh_rows(params, cfg, pts)
        elif kind == "radial":
            state = state_rows(src, params, pts)
        else:
            src = dataclasses.replace(src, radial_e=(), radial_m=())
            state = state_rows(src, params, pts, QuadratureSpec(rel_tol=1e-4))
        assert type(state) is StateRows
        assert state.d.shape == state.b.shape == state.e.shape == state.h.shape == (n, 3)
        assert state.s.shape == state.code.shape == (n,)
        assert not state.code.any() and state.errors == []
        if kind == "radial":
            assert state.jac_d.shape == state.jac_b.shape == (n, 3, 3)
            # div D = rho_e and div B = rho_m: the traces are the densities
            for jac, rho in ((state.jac_d, src.rho_e), (state.jac_b, src.rho_m)):
                trace = np.trace(jac, axis1=1, axis2=2)
                assert np.allclose(trace, rho(pts), rtol=1e-12, atol=0.0)
        else:
            assert state.jac_d is None and state.jac_b is None


class TestContinuousFields:
    def test_electric_only_has_no_magnetic_part(self):
        src = gaussian_source(total=1.0, sigma=1.0)
        state = state_rows(src, CLASSICAL, np.array([[0.7, 0.1, -0.3]]))
        assert state.code.tolist() == [0]
        assert np.all(state.b == 0.0)
        assert np.all(state.h == 0.0)
        assert np.linalg.norm(state.e) > 0.0
        # a (3,) point is the one-row call; no points give empty rows
        one = state_rows(src, CLASSICAL, np.array([0.7, 0.1, -0.3]))
        assert np.array_equal(one.e, state.e) and one.code.tolist() == [0]
        empty = state_rows(src, CLASSICAL, [])
        assert empty.d.shape == empty.b.shape == empty.e.shape == empty.h.shape == (0, 3)
        assert empty.jac_d.shape == empty.jac_b.shape == (0, 3, 3)
        assert empty.s.shape == empty.code.shape == (0,) and empty.errors == []

    @pytest.mark.parametrize("params", [
        ModelParams.classical(1.0),
        ModelParams.logarithmic(0.6),
        ModelParams.exponential(0.5),
        ModelParams.quadratic(0.4),
    ])
    def test_radial_source_is_conservative(self, params):
        src = gaussian_source(total=3.0, sigma=1.0)
        pts = np.array([(0.8, 0.3, -0.2), (2.0, -1.0, 0.5)])
        assert not state_rows(src, params, pts).code.any()
        curl = fd_curl(lambda y: state_rows(src, params, y).e, pts, richardson=True)
        assert np.max(np.abs(curl)) <= 1e-8

    def test_offset_source_is_not_conservative(self):
        src = offset_pair()
        params = ModelParams.classical(1.0)
        pts = [(0.0, 0.8, 0.3), (-0.2, 0.6, 0.0), (0.2, 0.3, -0.8)]
        curl = fd_curl(lambda y: state_rows(src, params, y).e, pts, richardson=True)
        assert float(np.max(np.abs(curl))) > 1e-3

    def test_radial_dyonic_source_conservative_both_fields(self):
        e_src = gaussian_source(total=2.0, sigma=1.0)
        m_src = gaussian_source(total=1.5, sigma=1.2, magnetic=True)
        dy = merge_sources(e_src, m_src)
        for params in [ModelParams.classical(1.0, kappa=0.0),
                       ModelParams.logarithmic(0.5, kappa=0.7)]:
            pts = np.array([(0.7, 0.2, -0.4), (1.5, -0.8, 0.3)])
            assert not state_rows(dy, params, pts).code.any()

            def eh(y, params=params):
                state = state_rows(dy, params, y)
                return np.stack((state.e, state.h), axis=1)

            assert np.max(np.abs(fd_curl(eh, pts))) <= 1e-6

    @staticmethod
    def _bump_curl(src):
        params = ModelParams.classical(1.0)
        x = np.array([[0.8, 0.4, -0.3]])
        assert not state_rows(src, params, x).code.any()
        return fd_curl(lambda y: state_rows(src, params, y).e, x, step=0.05)

    def test_bump_fd_route_stays_conservative(self):
        src = bump_source(total=2.0, radius=1.5, center=(0.2, 0.0, 0.0))
        assert np.max(np.abs(self._bump_curl(src))) <= 1e-6

    def test_bare_bump_newton_fd_route_stays_conservative(self):
        # the finite-difference Newton route that gridded sources take
        src = bare(bump_source(total=2.0, radius=1.5, center=(0.2, 0.0, 0.0)))
        assert np.max(np.abs(self._bump_curl(src))) <= 1e-6

    def test_far_field_is_coulombic(self):
        src = offset_pair()
        target = src.total_q / (4.0 * math.pi)
        for R in (30.0, 100.0):
            g = state_rows(src, CLASSICAL, np.array([[R, 0.1, 0.0]])).d[0]
            ratio = float(np.linalg.norm(g)) * R * R / target
            assert abs(ratio - 1.0) <= 0.02


class TestCurlFormula:
    def test_matches_fd_curl_for_offset_source(self):
        src = offset_pair()
        params = ModelParams.classical(1.0)
        pts = [(0.0, 0.8, 0.3), (0.5, -0.6, 0.2), (-0.2, 0.6, 0.0)]
        fd = fd_curl(lambda y: state_rows(src, params, y).e, pts, richardson=True)
        formula = curl_e(src, params, pts)
        assert np.all(np.max(np.abs(formula - fd), axis=1) <= 1e-4)
        assert np.all(np.max(np.abs(formula), axis=1) > 1e-3)

    def test_classical_prefactor_equivalence(self):
        # the model-generic prefactor f'' h' / f'^2 reduces to
        # beta / (1 + beta |grad u|^2)^{3/2} for the square-root model
        src = offset_pair()
        beta = 1.0
        params = ModelParams.classical(beta)
        for x in [np.array([0.3, 0.5, -0.2]), np.array([-0.8, 0.1, 0.4])]:
            g = state_rows(src, params, x[None]).d[0]
            e, _, _, code, _ = invert_rows(params, g, np.zeros(3))
            assert not code.any()
            a = float(e[0] @ e[0])
            fp, fpp = (params.derivative_rows(np.array([0.5 * a]), k)[0] for k in (1, 2))
            generic = fpp / (fp * (fpp * a + fp)) / fp**2
            closed = beta / (1.0 + beta * float(g @ g)) ** 1.5
            assert abs(generic - closed) <= 1e-12 * closed

    def test_radial_source_gives_zero(self):
        src = gaussian_source(total=3.0, sigma=1.0)
        formula = curl_e(src, ModelParams.classical(1.0), (0.8, 0.3, -0.2))
        assert np.max(np.abs(formula)) <= 1e-9

    def test_maxwell_limit_is_exactly_zero(self):
        src = offset_pair()
        formula = curl_e(src, ModelParams.fractional_power(1.0, 1), (0.0, 0.8, 0.3))
        assert np.all(formula == 0.0)

    def test_magnetic_only_source_takes_no_current_kernel(self, monkeypatch):
        # without an electric density D = 0, so E = 0 and j_m = 0 by
        # construction: no kernel call, no Hessian, and unsigned zeros
        def unexpected(*args, **kwargs):
            raise AssertionError("j_m of a magnetic-only source is not computed")

        monkeypatch.setattr(continuous, "_implicit_currents", unexpected)
        monkeypatch.setattr(continuous, "_fd_hessian", unexpected)
        src = gaussian_source(total=1.0, sigma=0.8, magnetic=True)
        params = ModelParams.logarithmic(1.0, kappa=0.5)
        pts = np.array([(x, y, z) for x in (-1.5, 0.0, 1.5) for y in (-0.5, 0.5)
                        for z in (-0.5, 0.5)])
        state = state_rows(src, params, pts)
        j_m = jm_rows(src, params, pts, None, state)
        assert not state.code.any() and not state.d.any() and not state.e.any()
        assert j_m.shape == pts.shape and not j_m.any() and not np.signbit(j_m).any()

    @pytest.mark.parametrize("params", [
        ModelParams.logarithmic(0.7),
        ModelParams.exponential(0.5),
        ModelParams.quadratic(0.3),
    ])
    def test_matches_fd_curl_across_models(self, params):
        src = offset_pair()
        pt = (0.0, 0.8, 0.3)
        fd = fd_curl(lambda y: state_rows(src, params, y).e, pt, richardson=True)
        formula = curl_e(src, params, pt)
        assert np.max(np.abs(formula - fd)) <= 1e-4


def dyonic_pair():
    # the offset electric mixture and a magnetic Gaussian beside it
    return merge_sources(offset_pair(), gaussian_source(total=3.0, sigma=0.7,
                                                        center=(0.2, -0.3, 0.1), magnetic=True))


class TestImplicitKernel:
    """j_m of every source with an electric density, at any kappa, comes
    from one currents._implicit_currents call on the Hessians of u and v."""

    PTS = np.array([(0.0, 0.8, 0.3), (0.5, -0.6, 0.2), (-0.2, 0.6, 0.0), (1.1, 0.2, -0.4)])

    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    @pytest.mark.parametrize("kind", ["electric", "magnetic", "dyonic"])
    def test_one_kernel_call_for_every_electric_source(self, monkeypatch, kind, kappa):
        calls = []
        kernel = continuous._implicit_currents
        monkeypatch.setattr(continuous, "_implicit_currents",
                            lambda *args: calls.append(len(args[1])) or kernel(*args))
        src = {"electric": offset_pair(), "dyonic": dyonic_pair(),
               "magnetic": gaussian_source(total=3.0, sigma=0.7, magnetic=True)}[kind]
        j_m = curl_e(src, ModelParams.logarithmic(0.8, kappa=kappa), self.PTS)
        assert calls == ([] if kind == "magnetic" else [len(self.PTS)])
        assert (np.max(np.abs(j_m)) > 1e-3) == (kind != "magnetic")

    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    @pytest.mark.parametrize("params", [
        ModelParams.classical(1.0),
        ModelParams.logarithmic(0.8),
        ModelParams.exponential(0.5),
        ModelParams.fractional_power(0.8, p=1.7),
        ModelParams.quadratic(0.3),
    ], ids=["classical", "logarithmic", "exponential", "fractional", "quadratic"])
    def test_dyonic_source_matches_fd_curl(self, params, kappa):
        params = dataclasses.replace(params, kappa=kappa)
        src = dyonic_pair()
        fd = fd_curl(lambda y: state_rows(src, params, y).e, self.PTS, richardson=True)
        formula = curl_e(src, params, self.PTS)
        assert np.max(np.abs(formula)) > 1e-3
        assert np.max(np.abs(formula - fd)) <= 1e-8 * max(1.0, np.max(np.abs(fd)))

    @pytest.mark.parametrize("kappa", [0.0, 0.5])
    def test_fd_hessian_of_a_gridded_magnetic_density(self, kappa):
        # the magnetic density without its radial parts: B and H_v come from
        # finite differences of the Newton potential
        src = dyonic_pair()
        gridded = ContinuousSource(rho_e=src.rho_e, rho_m=src.rho_m, total_q=src.total_q,
                                   total_g=src.total_g, support_radius=src.support_radius,
                                   center=src.center, width=src.width, radial_e=src.radial_e)
        params = ModelParams.logarithmic(0.8, kappa=kappa)
        x = self.PTS[:1]
        assert state_rows(gridded, params, x).jac_b is None
        assert np.max(np.abs(curl_e(gridded, params, x) - curl_e(src, params, x))) <= 1e-5

    def test_failed_gridded_hessian_fails_its_row_once(self, monkeypatch):
        # a row whose electric Hessian fails keeps that failure: the magnetic
        # pass skips it
        def failing_hessian(src, x, quad, which):
            raise QuadratureError(which)

        monkeypatch.setattr(continuous, "_fd_hessian", failing_hessian)
        src = dyonic_pair()
        params = ModelParams.logarithmic(0.8)
        state = state_rows(src, params, self.PTS)
        # without the Hessians of the record, both come from _fd_hessian
        j_m = jm_rows(src, params, self.PTS, None,
                      dataclasses.replace(state, jac_d=None, jac_b=None))
        assert [str(state.errors[k - 1]) for k in state.code] == ["electric"] * len(self.PTS)
        assert len(state.errors) == len(self.PTS) and not j_m.any()


class TestResidualSuite:
    GRID = [(x, y, z) for x in (-1.0, 0.0, 1.0) for y in (-0.5, 0.5) for z in (-0.4, 0.4)]

    def test_electric_source_satisfies_gauss_law(self):
        src = offset_pair()
        out = continuous_residual_suite(src, ModelParams.classical(1.0), self.GRID)
        assert out["n_points"] == len(self.GRID)
        assert out["max_rho_e"] > 0.1
        assert out["max_residual_e"] <= 1e-3 * out["max_rho_e"]
        assert out["max_residual_m"] == 0.0

    @pytest.mark.parametrize("grid", [np.empty((0, 3)), []], ids=["array", "list"])
    def test_zero_points_give_an_empty_report(self, grid):
        out = continuous_residual_suite(gaussian_source(1.0, 0.8), ModelParams.classical(1.0), grid)
        assert out == {"max_residual_e": 0.0, "max_residual_m": 0.0,
                       "max_rho_e": 0.0, "max_rho_m": 0.0, "n_points": 0}

    def test_stencil_nodes_invert_once(self, monkeypatch):
        # D and B's flux fields are one stacked field: the two Richardson
        # stencils of verify._stencil have 12 nodes per point, all inverted
        # in one state_rows call
        src = offset_pair()
        params = ModelParams.classical(1.0)
        expected = continuous_residual_suite(src, params, self.GRID[:2])
        calls = []
        invert_rows = continuous.invert_rows

        def counting_rows(params, d, b):
            calls.append(len(d))
            return invert_rows(params, d, b)

        monkeypatch.setattr(continuous, "invert_rows", counting_rows)
        assert continuous_residual_suite(src, params, self.GRID[:2]) == expected
        assert calls == [2 * 12]

    def test_dyonic_source_satisfies_both_laws(self):
        e_src = gaussian_source(total=2.0, sigma=1.0, center=(-0.5, 0.0, 0.0))
        m_src = gaussian_source(total=1.5, sigma=1.2, center=(0.5, 0.2, 0.0), magnetic=True)
        dy = merge_sources(e_src, m_src)
        out = continuous_residual_suite(dy, ModelParams.logarithmic(0.5, kappa=0.5), self.GRID[:6])
        assert out["max_residual_e"] <= 1e-3 * out["max_rho_e"]
        assert out["max_residual_m"] <= 1e-3 * out["max_rho_m"]


class TestGriddedSource:
    @staticmethod
    def write_lattice(tmp_path, fmt="binary", n=41, lo=-4.0, sp=0.2):
        base = gaussian_source(total=1.0, sigma=1.0)
        ax = lo + sp * np.arange(n)
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        vals = base.rho_e(np.stack([X, Y, Z], axis=-1))
        meta = {"dims": [n, n, n], "spacing": [sp, sp, sp],
                "origin": [lo, lo, lo], "format": fmt}
        if fmt == "binary":
            path = tmp_path / "rho.dat"
            vals.astype("<f8").tofile(path)
        else:
            path = tmp_path / "rho.csv"
            np.savetxt(path, vals.ravel()[:, None], delimiter=",")
        (tmp_path / (path.name + ".json")).write_text(json.dumps(meta))
        return path, vals

    def test_binary_round_trip(self, tmp_path):
        path, vals = self.write_lattice(tmp_path, "binary")
        src = gridded_source(path)
        assert abs(src.total_q - 1.0) <= 1e-3
        # trilinear interpolation is exact on lattice nodes; this pins the
        # byte order and the z-fastest layout
        node = np.array([-4.0 + 10 * 0.2, -4.0 + 3 * 0.2, -4.0 + 30 * 0.2])
        assert float(src.rho_e(node)) == vals[10, 3, 30]
        assert float(src.rho_e(np.array([9.0, 0.0, 0.0]))) == 0.0

    def test_csv_matches_binary(self, tmp_path):
        p_bin, _ = self.write_lattice(tmp_path, "binary")
        p_csv, _ = self.write_lattice(tmp_path, "csv")
        s_bin = gridded_source(p_bin)
        s_csv = gridded_source(p_csv)
        pt = np.array([0.37, -0.81, 0.13])
        assert abs(float(s_bin.rho_e(pt)) - float(s_csv.rho_e(pt))) <= 1e-12

    def test_potential_against_closed_form(self, tmp_path):
        path, _ = self.write_lattice(tmp_path, "binary")
        src = gridded_source(path)
        quad = QuadratureSpec(rel_tol=1e-4)
        u = newton_potential(src, (1.0, 0.0, 0.0), quad)
        exact = gaussian_potential(1.0, 1.0, 1.0)
        # budget set by the trilinear sampling error of the lattice itself
        assert abs(u - exact) <= 1e-2 * abs(exact)

    def test_sidecar_errors(self, tmp_path):
        path, vals = self.write_lattice(tmp_path, "binary")
        with pytest.raises(ConfigError):
            gridded_source(path, tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dims": [3, 3, 3]}))
        with pytest.raises(ConfigError):
            gridded_source(path, bad)
        bad.write_text(json.dumps({"dims": [2, 2, 2], "spacing": [0.1, 0.1, 0.1],
                                   "origin": [0, 0, 0], "format": "binary"}))
        with pytest.raises(ConfigError):
            gridded_source(path, bad)  # size mismatch
        bad.write_text(json.dumps({"dims": [41, 41, 41], "spacing": [0.2, 0.2, 0.2],
                                   "origin": [-4, -4, -4], "format": "parquet"}))
        with pytest.raises(ConfigError):
            gridded_source(path, bad)
