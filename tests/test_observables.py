"""Tests for energy densities, total-energy quadrature, flux charges and
the field-equation residual suite.

Reference values come from independent 1D radial quadrature (scipy) of the
closed-form density, frozen here, and from exact identities of the classical
model. FD and flux tolerances follow the oracle error budgets.
"""

import json
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifield import cli, currents, observables, verify
from bifield.errors import (
    ConfigError, DomainViolation, FieldError, InversionFailure, QuadratureError, SingularPoint,
    raise_first,
)
from bifield.models import ModelParams
from bifield.sources import ChargeConfig, _db_weights
from bifield.currents import current_rows, eh_field, eh_rows
from bifield.observables import (
    EnergyReport,
    QuadratureSpec,
    _far_radius,
    classical_energy_density,
    default_probe_radii,
    density_rows,
    divergence_exponent_probe,
    flux_charge,
    flux_spheres,
    free_charge_with_inner_spheres,
    hamiltonian_on_points,
    total_energy,
)
from bifield.verify import residual_suite

from scalar_inversions import dyonic_eh as scalar_eh
from scalar_inversions import FieldState, energy_density
from shell_energy import shell_total_energy
from fd_oracle import fd_curl, fd_div
from triple_sums import coulomb_rows, eh_pointwise, flux_charge_pointwise, pointwise

# scipy.integrate.quad of 4 pi r^2 H(D(r)) over (0, inf), classical model,
# beta = 1, single unit charge: H = D^2 / (1 + sqrt(1 + D^2))
SINGLE_ELECTRIC_ENERGY = 0.34868320668436725
# same oracle for the unit dyon q = g = 1 at kappa = 1
SINGLE_DYON_K1_ENERGY = 0.5864129171201082
# 1 / (4 pi)^2 and sqrt(2) / (4 pi), the near-field density plateaus
# H r^4 (kappa = 0 dyon) and H r^2 (kappa = 1 dyon)
DYON_K0_PLATEAU = 0.006332573977646111
DYON_K1_PLATEAU = 0.11253953951963827
# flux of E through R = 10 for the single unit charge at beta = 1:
# 4 pi R^2 E(R) with E = D / sqrt(1 + D^2), D = 1 / (4 pi R^2)
SINGLE_FLUX_R10 = 0.9999996833714514
EPS = np.finfo(float).eps


def single_charge(q=1.0, g=0.0):
    return ChargeConfig.build([((0.0, 0.0, 0.0), q, g)])


def pair_config(sep=2.0, q1=1.0, q2=1.0, g1=0.0, g2=0.0):
    h = 0.5 * sep
    return ChargeConfig.build([((h, 0.0, 0.0), q1, g1), ((-h, 0.0, 0.0), q2, g2)])


def three_charges():
    return ChargeConfig.build([
        ((1.0, 0.0, 0.0), 1.0, 0.0),
        ((-1.0, 0.5, 0.0), -2.0, 0.0),
        ((0.0, -1.0, 0.3), 0.5, 0.0),
    ])


def all_kinds(kappa):
    return {
        "classical": ModelParams.classical(1.0, kappa=kappa),
        "logarithmic": ModelParams.logarithmic(0.5, kappa=kappa),
        "exponential": ModelParams.exponential(0.5, kappa=kappa),
        "quadratic": ModelParams.quadratic(0.3, kappa=kappa),
        "fractional_power": ModelParams.fractional_power(0.5, 3.0, kappa=kappa),
        # the exponential model at beta = 1/2, solved by the generic inversion
        "custom": ModelParams.custom(lambda s: 2.0 * math.expm1(0.5 * s),
                                     lambda s: math.exp(0.5 * s),
                                     lambda s: 0.5 * math.exp(0.5 * s), kappa=kappa),
    }


def coarse_quad(rel_tol=1e-5, max_subdivisions=4):
    return QuadratureSpec(rel_tol=rel_tol, max_subdivisions=max_subdivisions)


class TestQuadratureSpec:
    def test_defaults_are_consistent(self):
        quad = QuadratureSpec()
        assert (quad.rel_tol, quad.abs_tol, quad.max_subdivisions) == (1e-6, 1e-6, 8)

    @pytest.mark.parametrize("kwargs", [
        dict(rel_tol=0.0),
        dict(abs_tol=-1.0),
        dict(max_subdivisions=0),
        dict(exclusion=2.0, ball_radius=1.0),
        dict(ball_radius=20.0, far_radius=10.0),
    ])
    def test_invalid_geometry_rejected(self, kwargs):
        # bad tolerances fail in QuadratureSpec; the former geometry
        # settings are unknown quadrature keys, as the geometry is the
        # charge configuration's
        with pytest.raises(ConfigError):
            cli._quad_from_section(kwargs)

    def test_for_config_invariants(self):
        # the quadrature geometry of a configuration: cells that stop short
        # of half the closest pair, an outer flux sphere beyond every charge
        # and its cell, and balls inside the cells
        rng = np.random.default_rng(5)
        configs = [pair_config(), three_charges(), pair_config(sep=30.0),
                   ChargeConfig.build([(rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0), 0.0)
                                       for _ in range(6)])]
        for cfg in configs:
            assert cfg.cell_scale == 0.45 * cfg.min_separation < 0.5 * cfg.min_separation
            assert _far_radius(cfg) > cfg.diameter + cfg.cell_scale
            assert _far_radius(cfg) >= 10.0 * cfg.cell_scale
            assert 0.0 < cfg.exclusion_radius < cfg.cell_scale

    def test_validate_for_rejects_fat_balls(self):
        # a ball that reaches the cells (0.45 of the separation) cannot be built
        entries = [((0.5, 0.0, 0.0), 1.0, 0.0), ((-0.5, 0.0, 0.0), 1.0, 0.0)]
        with pytest.raises(ValueError, match="below the cell scale"):
            ChargeConfig.build(entries, exclusion_radius=0.6)

    def test_validate_for_rejects_small_far_radius(self):
        # a pair 30 apart: a fixed outer sphere of 10 would lie between the
        # charges; the derived one encloses both charges and their cells
        cfg = pair_config(sep=30.0)
        assert _far_radius(cfg) == 4.0 * (cfg.diameter + cfg.cell_scale)
        assert _far_radius(cfg) > cfg.diameter + cfg.cell_scale


class TestEnergyDensity:
    def test_vacuum_state_has_zero_density(self):
        zero = np.zeros(3)
        for params in [ModelParams.classical(1.0), ModelParams.logarithmic(0.5),
                       ModelParams.exponential(0.5), ModelParams.quadratic(0.3),
                       ModelParams.fractional_power(1.0, 3)]:
            state = FieldState(e=zero, b=zero, d=zero, h=zero, s=0.0)
            assert energy_density(params, state) == 0.0

    def test_classical_electrostatic_saturation_value(self):
        # at beta = 1 and |D| = 1: H = D^2 / (1 + sqrt(1 + D^2)) = 1/(1+sqrt(2))
        d = np.array([1.0, 0.0, 0.0])
        val = classical_energy_density(1.0, 0.0, d, np.zeros(3))
        assert abs(val - 1.0 / (1.0 + math.sqrt(2.0))) < 1e-15

    def test_classical_closed_form_matches_generic(self):
        rng = np.random.default_rng(7)
        for kappa in (0.0, 0.5, 1.0):
            params = ModelParams.classical(1.0, kappa=kappa)
            for _ in range(40):
                d = rng.normal(size=3) * 2.0
                b = rng.normal(size=3) * 2.0
                e, h, aux = scalar_eh(params, d, b)
                generic = energy_density(params, FieldState(e=e, b=b, d=d, h=h, s=aux.s))
                closed = float(classical_energy_density(1.0, kappa, d, b))
                assert abs(generic - closed) <= 1e-10 * max(1.0, abs(closed))

    def test_classical_density_keeps_its_plateau_next_to_a_dyon(self):
        # kappa > 0: H r^2 tends to a constant toward a centre. |B x D|^2 from
        # D^2 B^2 - (B.D)^2 cancelled there, where D and B are near parallel,
        # and H r^2 reached 4.7e5 at r = 1e-8 on the ball nodes (0.1385 at 1e-2)
        cfg = ChargeConfig.build([((1.0, 0.0, 0.0), 1.0, 0.5), ((-1.0, 0.5, 0.0), -2.0, 1.0),
                                  ((0.0, -1.0, 0.3), 0.5, -0.7)])
        params = ModelParams.classical(1.0, kappa=0.6)
        dirs, _ = observables._sphere_rule(16, 32)

        def plateau(r):
            return r * r * hamiltonian_on_points(params, cfg, cfg.positions[0] + r * dirs).max()

        assert abs(plateau(1e-8) / plateau(1e-2) - 1.0) <= 1e-2

    def test_classical_density_bits_without_a_cross_term(self):
        # with kappa = 0 or B = 0 the |B x D|^2 term drops out: the cross
        # product leaves those rows as the difference form gave them
        rng = np.random.default_rng(5)
        d = rng.normal(size=(200, 3)) * 3.0
        b = rng.normal(size=(200, 3)) * 3.0
        b[100:] = 0.0
        for kappa in (0.0, 0.6):
            keep = np.arange(200) >= (0 if kappa == 0.0 else 100)
            d2, b2 = np.sum(d * d, axis=-1), np.sum(b * b, axis=-1)
            bd = np.sum(b * d, axis=-1)
            bxd2 = np.maximum(d2 * b2 - bd * bd, 0.0)
            r1 = np.sqrt((1.0 + b2) * (1.0 + kappa**2 * b2))
            r2 = np.sqrt(1.0 + d2 + kappa**2 * b2 + kappa**2 * bxd2)
            ref = (b2 * r1 * r2 + (1.0 + b2) * (d2 + kappa**2 * bxd2)) / (r1 * (r1 + r2))
            got = classical_energy_density(1.0, kappa, d, b)
            assert np.array_equal(got[keep], ref[keep])
            assert np.max(np.abs(got - ref) / ref) <= 1e-12

    def test_classical_density_stays_closed_form_next_to_a_charge(self):
        # 1e-5 from a unit charge D^2 exceeds 2^53, so E^2 = D^2 / (1 + D^2)
        # and 2 beta s from the inversion round onto 1: the generic
        # f'(s) E^2 - f(s) is infinite there, the closed form in D is not
        params = ModelParams.classical(1.0)
        r = np.array([1e-5, 1e-6, 1e-7, 1e-8])
        pts = np.column_stack((r, np.zeros(4), np.zeros(4)))
        d, b, e, _, s, code, _ = eh_rows(params, single_charge(), pts)
        assert not code.any()
        d2 = np.sum(d * d, axis=1)
        ref = d2 / (1.0 + np.sqrt(1.0 + d2))
        dens = density_rows(params, d, b, e, s, code, [])
        assert not code.any() and np.max(np.abs(dens / ref - 1.0)) <= 4e-16
        assert np.array_equal(2.0 * s, np.ones(4))

    def test_logarithmic_electrostatic_closed_form(self):
        # H = E^2 / (1 - beta E^2 / 2) + ln(1 - beta E^2 / 2) / beta
        beta = 0.8
        params = ModelParams.logarithmic(beta)
        for dmag in (0.3, 1.0, 4.0):
            d = np.array([0.0, dmag, 0.0])
            e, h, aux = scalar_eh(params, d, np.zeros(3))
            state = FieldState(e=e, b=np.zeros(3), d=d, h=h, s=aux.s)
            e2 = float(e @ e)
            u = 1.0 - 0.5 * beta * e2
            expected = e2 / u + math.log(u) / beta
            assert abs(energy_density(params, state) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_exponential_electrostatic_closed_form(self):
        # H = (1 - e^{beta s}(1 - beta E^2)) / beta with s = E^2 / 2
        beta = 0.6
        params = ModelParams.exponential(beta)
        for dmag in (0.2, 1.5, 5.0):
            d = np.array([dmag, 0.0, 0.0])
            e, h, aux = scalar_eh(params, d, np.zeros(3))
            state = FieldState(e=e, b=np.zeros(3), d=d, h=h, s=aux.s)
            e2 = float(e @ e)
            expected = (1.0 - math.exp(0.5 * beta * e2) * (1.0 - beta * e2)) / beta
            assert abs(energy_density(params, state) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_dyon_kappa_zero_near_field_plateau(self):
        # H r^4 -> (q g)/(4 pi)^2 magnitude toward a kappa = 0 dyon
        params = ModelParams.classical(1.0, kappa=0.0)
        cfg = single_charge(q=1.0, g=1.0)
        r = 1e-3
        x = np.array([r, 0.0, 0.0])
        h = hamiltonian_on_points(params, cfg, x)[0]
        assert abs(h * r**4 - DYON_K0_PLATEAU) <= 1e-3 * DYON_K0_PLATEAU

    def test_dyon_kappa_one_near_field_plateau(self):
        # H r^2 -> sqrt(beta q^2 + kappa^2 g^2) / (4 pi sqrt(beta) kappa)
        params = ModelParams.classical(1.0, kappa=1.0)
        cfg = single_charge(q=1.0, g=1.0)
        r = 1e-3
        x = np.array([0.0, r, 0.0])
        h = hamiltonian_on_points(params, cfg, x)[0]
        assert abs(h * r**2 - DYON_K1_PLATEAU) <= 1e-2 * DYON_K1_PLATEAU

    def test_batch_matches_pointwise(self):
        # the batched densities against the scalar inversion and density, for
        # every kind, kappa in {0, 0.5}, electric, magnetic and dyonic charges
        base = three_charges()
        charge_sets = {"electric": (base.qs, 0.0 * base.qs),
                       "magnetic": (0.0 * base.qs, base.qs),
                       "dyonic": (base.qs, 0.7 * base.qs - 0.2)}
        for charges, (q, g) in charge_sets.items():
            cfg = ChargeConfig.build(zip(base.positions, q, g))
            rng = np.random.default_rng(3)
            pts = rng.normal(size=(20, 3)) * 4.0
            pts = pts[np.min(np.linalg.norm(
                pts[:, None, :] - cfg.positions[None, :, :], axis=-1), axis=1) > 0.3]
            for kappa in (0.0, 0.5):
                for kind, params in all_kinds(kappa).items():
                    batch = hamiltonian_on_points(params, cfg, pts)
                    for i, (d, b) in enumerate(zip(*coulomb_rows(cfg, _db_weights(cfg), pts))):
                        e, h, aux = scalar_eh(params, d, b)
                        ref = energy_density(params, FieldState(e=e, b=b, d=d, h=h, s=aux.s))
                        assert abs(batch[i] - ref) <= 1e-12 * max(1.0, abs(ref)), \
                            (kind, kappa, charges, i)

    def test_batch_failure_is_the_first_rows_own(self):
        # the dyon pair of current-dyon-fd in the quadratic model: next to
        # each centre |B|^2 > 1/alpha, where the cubic's smallest positive
        # root has f' = 1 + 2 alpha s < 0 and fails the direction check.
        # The batch raises row 1's failure as that row records it alone
        cfg = ChargeConfig.build([((1.0, 0.0, 0.0), 1.0, 0.4), ((-1.0, 0.5, 0.0), -2.0, 1.0)])
        params = ModelParams.quadratic(1.0, kappa=0.5)
        pts = np.array([[3.0, 0.0, 0.0], [1.05, 0.0, 0.0], [-1.0, 0.55, 0.0]])
        with pytest.raises(InversionFailure, match=r"^direction match violated: ") as info:
            hamiltonian_on_points(params, cfg, pts)
        *_, code, errors = eh_rows(params, cfg, pts[1:2])
        assert code.tolist() == [1] and str(info.value) == str(errors[0])
        assert np.all(np.isfinite(hamiltonian_on_points(params, cfg, pts[:1])))

    @pytest.mark.parametrize("params", [ModelParams.logarithmic(1.0),
                                        ModelParams.logarithmic(1.0, kappa=0.5),
                                        ModelParams.classical(1.0)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_batch_rejects_non_finite_points(self, params, bad):
        cfg = single_charge(q=1.0, g=0.4)
        with pytest.raises(DomainViolation):
            hamiltonian_on_points(params, cfg, np.array([[bad, 0.0, 0.0], [2.0, 0.0, 0.0]]))

    def test_logarithmic_energy_makes_no_scalar_inversions(self, monkeypatch):
        # every inversion of an energy run is a rows call over many nodes
        rows = []
        invert = currents.invert_rows

        def counting(params, d, b):
            rows.append(len(d))
            return invert(params, d, b)

        monkeypatch.setattr(currents, "invert_rows", counting)
        dyon = single_charge(q=1.0, g=0.5)
        # the quadratic dyon leaves the single-root branch next to its centre
        for cfg, params in ((dyon, ModelParams.logarithmic(1.0, kappa=0.5)),
                            (dyon, ModelParams.exponential(1.0, kappa=0.5)),
                            (single_charge(), ModelParams.quadratic(0.5, kappa=0.5))):
            rows.clear()
            report = total_energy(cfg, params, coarse_quad(rel_tol=1e-3, max_subdivisions=2))
            assert report.value > 0.0 and rows and min(rows) > 1, (params.kind, rows)

    def test_batch_rejects_singular_points(self):
        cfg = three_charges()
        params = ModelParams.classical(1.0)
        with pytest.raises(SingularPoint):
            hamiltonian_on_points(params, cfg, np.array([[1.0, 0.0, 0.0], [5.0, 0.0, 0.0]]))

    @given(
        kind=st.sampled_from(["classical", "logarithmic", "exponential",
                              "quadratic", "fractional"]),
        kappa=st.sampled_from([0.0, 0.7]),
        vec=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_density_nonnegative_on_increasing_branch(self, kind, kappa, vec):
        # H >= 0 wherever f'(s) > 0: H = (2 s f' - f) + B^2 f' and s >= -B^2/2
        params = {
            "classical": ModelParams.classical(0.8, kappa=kappa),
            "logarithmic": ModelParams.logarithmic(0.8, kappa=kappa),
            "exponential": ModelParams.exponential(0.8, kappa=kappa),
            "quadratic": ModelParams.quadratic(0.8, kappa=kappa),
            "fractional": ModelParams.fractional_power(0.8, 3, kappa=kappa),
        }[kind]
        e = np.array(vec[:3])
        b = np.array(vec[3:])
        e2, b2 = float(e @ e), float(b @ b)
        eb = float(e @ b)
        s = 0.5 * (e2 - b2) + 0.5 * params.kappa**2 * eb * eb
        if not params.domain_rows(s) or params.derivative_rows(np.array([s]), 1)[0] <= 1e-9:
            return
        state = FieldState(e=e, b=b, d=np.zeros(3), h=np.zeros(3), s=s)
        assert energy_density(params, state) >= -1e-12


def radial_energy_oracle(params, q, g, exclusion):
    """scipy.integrate.quad of 4 pi r^3 H(r) d(ln r) along one ray of a
    charge (q, g) at the origin, over exclusion < r < 1e12, one decade at a
    time; beyond 1e12 the energy is below 1e-13."""
    from scipy.integrate import quad

    cfg = single_charge(q=q, g=g)
    ray = np.array([0.6, 0.0, 0.8])

    def integrand(t):
        r = math.exp(t)
        return 4.0 * math.pi * r**3 * hamiltonian_on_points(params, cfg, r * ray)[0]

    # full_output: rounding noise in the density (E^2 f' - f cancels far
    # out, where H ~ E^2 / 2) stops quad short of 1e-9 with a warning; limit
    # bounds its evaluations, and moves the sum by ~2e-9 of the value
    # against 200
    edges = np.log(np.geomspace(exclusion, 1e12, 21))
    return sum(quad(integrand, a, b, epsabs=1e-11, epsrel=1e-9, limit=10, full_output=1)[0]
               for a, b in zip(edges[:-1], edges[1:]))


ORACLE_CASES = [
    pytest.param(ModelParams.classical(1.0), 1.0, 0.0, id="classical-electric"),
    pytest.param(ModelParams.logarithmic(1.0), 1.0, 0.0, id="logarithmic-electric"),
    pytest.param(ModelParams.exponential(1.0), 1.0, 0.0, id="exponential-electric"),
    pytest.param(ModelParams.quadratic(0.5), 1.0, 0.0, id="quadratic-electric"),
    pytest.param(ModelParams.fractional_power(1.0, 2.0), 1.0, 0.0, id="fractional-p2-electric"),
    pytest.param(ModelParams.logarithmic(1.0), 0.0, 1.0, id="logarithmic-magnetic"),
    pytest.param(ModelParams.exponential(1.0), 0.0, 1.0, id="exponential-magnetic"),
    pytest.param(ModelParams.classical(1.0, kappa=0.6), 1.0, 0.5, id="classical-dyon-k0.6"),
]


class TestTotalEnergy:
    @pytest.mark.parametrize("params, q, g", ORACLE_CASES)
    def test_single_centre_matches_radial_integral(self, params, q, g):
        # r^2 H near a charge goes as r^0 (classical, logarithmic), r^0 times
        # sqrt(ln 1/r) (exponential, electric) and r^-2/3 (quadratic and
        # fractional p = 2, electric): the radial map must resolve all of them
        cfg = single_charge(q=q, g=g)
        quad = QuadratureSpec(rel_tol=1e-5)
        report = total_energy(cfg, params, quad)
        ref = radial_energy_oracle(params, q, g, cfg.exclusion_radius)
        assert report.converged
        assert abs(report.value - ref) <= quad.rel_tol * ref
        assert report.value == sum(report.parts["cells"])

    @pytest.mark.parametrize("beta, q", [(1.0, 1.0), (0.9, 1.0), (1.0, 1.1), (1.3, 0.7)])
    def test_fractional_p15_diverges_logarithmically(self, beta, q):
        # p = 1.5 gives H ~ D^(2p/(2p-1)) = r^-3 next to an electric charge:
        # the energy grows as ln(1/exclusion), so it is reported unconverged
        # with level 0's value, for a slope a rounding error either side of -3
        cfg = single_charge(q=q)
        params = ModelParams.fractional_power(beta, 1.5)
        report = total_energy(cfg, params, coarse_quad())
        assert not report.converged
        assert report.parts["levels"] == 1
        assert abs(report.near_charge_exponents[0] + 3.0) < 1e-3

    def test_fractional_p16_is_integrable(self):
        # p = 1.6 gives H ~ r^-2.909, on the integrable side of the margin;
        # r^2 H ~ r^-0.909 is resolved only slowly, hence the coarse rel_tol
        cfg = single_charge()
        report = total_energy(cfg, ModelParams.fractional_power(1.0, 1.6),
                              coarse_quad(rel_tol=1e-2))
        assert report.converged
        assert report.parts["levels"] > 1
        assert abs(report.near_charge_exponents[0] + 32.0 / 11.0) < 1e-2

    @pytest.mark.parametrize("exclusion", [1e-2, 1e-1, 0.5])
    def test_wide_exclusion_converges_to_the_radial_integral(self, exclusion):
        # the probe radii (1e-2 to 1e-4 of the core) lie inside a wide ball,
        # so the exponent is NaN and decides nothing: the energy outside the
        # ball is the radial integral from its surface
        cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 1.0, 0.0)], exclusion_radius=exclusion)
        params = ModelParams.classical(1.0)
        quad = QuadratureSpec(rel_tol=1e-5)
        report = total_energy(cfg, params, quad)
        ref = radial_energy_oracle(params, 1.0, 0.0, exclusion)
        assert report.converged
        assert math.isnan(report.near_charge_exponents[0])
        assert abs(report.value - ref) <= quad.rel_tol * ref

    @pytest.mark.parametrize("q", [1e-4, 1e4])
    def test_probe_sits_in_the_core_of_any_charge(self, q):
        # the core of a unit charge ends near r = 1; the probe scales with it
        cfg = single_charge(q=q)
        report = total_energy(cfg, ModelParams.classical(1.0), coarse_quad(rel_tol=1e-4))
        assert report.converged
        assert abs(report.near_charge_exponents[0] + 2.0) < 1e-3

    def test_nodes_reach_the_density_in_bounded_chunks(self, monkeypatch):
        # a chunk smaller than one shell's directions splits the shell
        cfg = pair_config(sep=2.0, q2=-1.0)
        params = ModelParams.classical(1.0)
        quad = QuadratureSpec(rel_tol=1e-3, max_subdivisions=2)
        ref = total_energy(cfg, params, quad)
        rows = []
        density = observables.hamiltonian_on_points

        def counted(params, cfg, pts):
            rows.append(len(pts))
            return density(params, cfg, pts)

        monkeypatch.setattr(observables, "hamiltonian_on_points", counted)
        monkeypatch.setattr(observables, "_FLUX_CHUNK", 20)
        report = total_energy(cfg, params, quad)
        assert max(rows) <= 20
        assert sum(rows) == report.parts["nodes"] + 7 * len(cfg)   # the probe rays
        assert report.parts["nodes"] == ref.parts["nodes"]
        assert abs(report.value - ref.value) <= 1e-13 * ref.value

    def test_unconverged_levels_are_reported(self):
        # no two levels agree to 1e-13; the report keeps the last of the three
        cfg = single_charge()
        quad = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-13, max_subdivisions=2)
        report = total_energy(cfg, ModelParams.classical(1.0), quad)
        assert report.converged is False
        assert report.parts["levels"] == 3
        # 24, 36 and 48 radial nodes on 4x8, 6x12 and 8x16 directions
        assert report.parts["nodes"] == 24 * 32 + 36 * 72 + 48 * 128
        assert report.value == sum(report.parts["cells"])
        assert abs(report.value - SINGLE_ELECTRIC_ENERGY) <= 1e-6 * SINGLE_ELECTRIC_ENERGY

    def test_single_electric_matches_radial_oracle(self):
        cfg = single_charge()
        params = ModelParams.classical(1.0)
        report = total_energy(cfg, params, coarse_quad())
        assert report.converged
        assert abs(report.value - SINGLE_ELECTRIC_ENERGY) <= 1e-4 * SINGLE_ELECTRIC_ENERGY
        assert abs(report.near_charge_exponents[0] + 2.0) < 0.05

    def test_single_dyon_kappa_one_finite(self):
        cfg = single_charge(q=1.0, g=1.0)
        params = ModelParams.classical(1.0, kappa=1.0)
        report = total_energy(cfg, params, coarse_quad())
        assert report.converged
        assert abs(report.value - SINGLE_DYON_K1_ENERGY) <= 1e-4 * SINGLE_DYON_K1_ENERGY
        assert abs(report.near_charge_exponents[0] + 2.0) < 0.1

    @pytest.mark.parametrize("exclusion", [1e-8, 1e-6])
    def test_single_dyon_kappa_zero_diverges(self, exclusion):
        # the dyon's energy is infinite whatever the exclusion below the
        # probe radii, though the integral over r > exclusion is finite
        cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 1.0, 1.0)], exclusion_radius=exclusion)
        params = ModelParams.classical(1.0, kappa=0.0)
        report = total_energy(cfg, params, coarse_quad())
        assert not report.converged
        assert report.parts["levels"] == 1
        assert abs(report.near_charge_exponents[0] + 4.0) < 0.1

    def test_far_separated_pair_is_additive(self):
        # two unit charges 1000 apart: interaction energy ~ 1/(4 pi 1000)
        cfg = pair_config(sep=1000.0)
        params = ModelParams.classical(1.0)
        quad = QuadratureSpec(rel_tol=1e-5, max_subdivisions=4)
        report = total_energy(cfg, params, quad)
        assert report.converged
        expected = 2.0 * SINGLE_ELECTRIC_ENERGY
        assert abs(report.value - expected) <= 1e-2 * expected

    def test_three_charge_energy_positive_and_converged(self):
        cfg = three_charges()
        params = ModelParams.classical(1.0)
        quad = QuadratureSpec(rel_tol=1e-4, max_subdivisions=3)
        report = total_energy(cfg, params, quad)
        assert report.converged
        assert report.value > 0.0
        cells = report.parts["cells"]
        assert len(cells) == 3
        assert all(v > 0.0 for v in cells)
        assert report.value == sum(cells)

    def test_logarithmic_dyon_kappa_one_finite(self):
        cfg = single_charge(q=1.0, g=1.0)
        params = ModelParams.logarithmic(1.0, kappa=1.0)
        quad = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6, max_subdivisions=3)
        report = total_energy(cfg, params, quad)
        assert report.converged
        assert report.value > 0.0
        assert abs(report.near_charge_exponents[0] + 2.0) < 0.1

    def test_neutral_pair_needs_no_tail(self):
        # the far field of a neutral pair is a dipole, whose energy beyond R
        # falls as R^-3; the radial map reaches infinity, so the rule at
        # rel_tol 5e-5 agrees with one at 1e-8
        cfg = pair_config(sep=2.0, q2=-1.0)
        coarse = total_energy(cfg, ModelParams.classical(1.0),
                              QuadratureSpec(rel_tol=5e-5))
        fine = total_energy(cfg, ModelParams.classical(1.0),
                            QuadratureSpec(rel_tol=1e-8, max_subdivisions=6))
        assert coarse.converged
        assert abs(coarse.value - fine.value) <= 5e-5 * fine.value

    def test_pair_within_tolerance_where_the_shell_was_not(self):
        # the q = +-1 pair at (+-1, 0, 0): the masked shell agreed with
        # itself at rel_tol 1e-5 while 1.7e-5 off the multicentre reference
        # 0.6574825896 (the exclusion balls hold 1.8e-8 of it)
        cfg = pair_config(sep=2.0, q2=-1.0)
        report = total_energy(cfg, ModelParams.classical(1.0),
                              QuadratureSpec(rel_tol=1e-5))
        assert report.converged
        assert abs(report.value - 0.6574825896) <= 1e-5 * 0.6574825896


    def test_validate_runs_before_integration(self, tmp_path, monkeypatch):
        # a layout whose default ball would hold a pair's cells is a config
        # error (exit 1) before any integration starts
        def integrate(*args):
            raise AssertionError("total_energy ran")

        monkeypatch.setattr(cli, "total_energy", integrate)
        data = {"model": {"kind": "classical", "beta": 1.0},
                "charges": [{"pos": [0.0, 0.0, 0.0], "q": 1.0}, {"pos": [1.0, 0.0, 0.0], "q": -1.0},
                            {"pos": [1e-9, 0.0, 0.0], "q": 1.0}]}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        argv = ["energy", "--config", str(path), "--out-dir", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_CONFIG


class TestBeckeWeights:
    def test_partition_of_unity(self):
        cfg = three_charges()
        pts = np.random.default_rng(3).normal(size=(500, 3)) * 2.0
        total = sum(observables._becke_weights(cfg, i, pts) for i in range(3))
        assert np.max(np.abs(total - 1.0)) <= 1e-14

    def test_one_centre_weight_is_exactly_one(self):
        pts = np.random.default_rng(4).normal(size=(50, 3))
        assert np.all(observables._becke_weights(single_charge(), 0, pts) == 1.0)

    def test_exclusion_balls_lie_outside_the_domain(self):
        # zero weight exactly where _coulomb_offsets rejects a point: strictly
        # inside a ball (radius 9e-9 here); the sphere itself is regular
        cfg = pair_config(sep=2.0)
        pts = np.array([[1.0 + 5e-9, 0.0, 0.0], [-1.0, 5e-9, 0.0], [0.0, 0.0, 0.0],
                        [-1.0, 0.0, cfg.exclusion_radius]])
        w = [observables._becke_weights(cfg, i, pts) for i in range(2)]
        assert w[0][0] == w[1][0] == w[0][1] == w[1][1] == 0.0
        assert w[0][2] == w[1][2] == 0.5
        assert w[1][3] > 0.0 and np.isfinite(hamiltonian_on_points(ModelParams.classical(1.0),
                                                                   cfg, pts[3]))


SHELL_CASES = [
    pytest.param(ChargeConfig.build([((0.5622351776349419, 0.21169405914193606,
                                       0.4196023808168503), 1.0, 0.0)]),
                 ModelParams.logarithmic(beta=1.0), 1e-5, 1e-6, id="single-logarithmic"),
    pytest.param(ChargeConfig.build([((1.0, 0.0, 0.0), 1.0, 0.5), ((-1.0, 0.5, 0.0), -2.0, 1.0),
                                     ((0.0, -1.0, 0.3), 0.5, -0.7)]),
                 ModelParams.classical(beta=1.0, kappa=0.6), 1e-2, 1e-4, id="dyon3-classical-k0.6"),
    pytest.param(pair_config(sep=2.0, q2=-1.0), ModelParams.classical(beta=1.0), 1e-4, 2e-4,
                 id="pair-classical"),
]


class TestAgainstShellReference:
    """The ball, shell and tail integrator that total_energy replaced, kept
    in tests/shell_energy.py. It is judged by its measured error: the gap
    allowed is what it was measured to miss by at that rel_tol (2.5e-7 on
    the single charge, 7.1e-5 on the three-centre dyon, 1.2e-4 on the pair), not the
    rel_tol its converged flag claims."""

    @pytest.mark.parametrize("cfg, params, rel_tol, gap", SHELL_CASES)
    def test_energy_within_the_reference_error(self, cfg, params, rel_tol, gap):
        quad = QuadratureSpec(rel_tol=rel_tol, max_subdivisions=3)
        ref = shell_total_energy(cfg, params, quad)
        got = total_energy(cfg, params, quad)
        assert got.converged
        assert abs(got.value - ref.value) <= gap * ref.value

    @pytest.mark.parametrize("params", [ModelParams.logarithmic(beta=1.0, kappa=0.5),
                                        ModelParams.fractional_power(beta=0.7, p=3.0)],
                             ids=["logarithmic-k0.5", "fractional-p3"])
    def test_unconverged_dyons_stay_unconverged(self, params):
        # the kappa = 0 fractional dyon diverges; the kappa = 0.5 logarithmic
        # density is not resolved next to its centres (the dyonic
        # projection cancels there)
        cfg = ChargeConfig.build([((1.0, 0.0, 0.0), 1.0, 0.5), ((-1.0, 0.5, 0.0), -2.0, 1.0),
                                  ((0.0, -1.0, 0.3), 0.5, -0.7)])
        quad = QuadratureSpec(rel_tol=1e-2, max_subdivisions=3)
        assert not shell_total_energy(cfg, params, quad).converged
        assert not total_energy(cfg, params, quad).converged


def mp_gauss_legendre(n: int, dps: int = 40):
    """The positive nodes of the n-point Gauss-Legendre rule, descending,
    and their weights, as mpmath numbers: Newton on the three-term
    recurrence for P_n from Tricomi's estimate, w = 2/((1 - x^2) P_n'(x)^2)."""
    with mpmath.workdps(dps):
        nodes, weights = [], []
        for i in range(1, n // 2 + 1):
            x = mpmath.cos(mpmath.pi * (4 * i - 1) / (4 * n + 2)) * (1 - mpmath.mpf(n - 1) / (8 * n**3))
            for _ in range(20):
                p0, p1 = mpmath.mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (p0 - x * p1) / (1 - x * x)
                step = p1 / dp
                x -= step
                if abs(step) < mpmath.mpf(10) ** (5 - dps):
                    break
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return nodes, weights


class TestGaussRule:
    """The memoized 1-D Gauss-Legendre rule."""

    def test_rule_matches_a_forty_digit_rule_and_is_read_only(self):
        # the eigenvector weights lose ~3e-17 n^2 relative at the ends of
        # the rule (2.05e-12 at n = 256), numpy's leggauss ~3e-16 n^2
        for n in (1, 2, 4, 5, 8, 24, 35, 36, 64, 128, 256):
            nodes, weights = observables._gauss(n)
            assert nodes.shape == weights.shape == (n,)
            assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
            assert np.all(np.diff(nodes) > 0.0)
            ref_nodes, ref_weights = mp_gauss_legendre(n)
            top = slice(n - 1, (n - 1) // 2, -1)  # the positive half, descending
            assert max((abs(float(x - r)) for x, r in zip(nodes[top], ref_nodes)), default=0.0) <= 4e-16
            assert max((abs(float(w / r - 1)) for w, r in zip(weights[top], ref_weights)),
                       default=0.0) <= 1e-16 * n * n
            if n % 2:
                assert nodes[n // 2] == 0.0
                assert abs(weights[n // 2] - (2.0 - 2.0 * math.fsum(weights[top]))) <= 1e-15
            for a in (nodes, weights):
                with pytest.raises(ValueError):
                    a[0] = 0.0

    def test_charge_caches_only_one_dimensional_rules(self, tmp_path):
        observables._gauss.cache_clear()
        data = {"model": {"kind": "logarithmic", "beta": 1.0},
                "charges": [{"pos": [0.3, 0.1, -0.2], "q": 1.0}]}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        argv = ["charge", "--config", str(path), "--out-dir", str(tmp_path), "--R", "50"]
        assert cli.main(argv) == cli.EXIT_OK
        info = observables._gauss.cache_info()
        # each order was built once and kept
        assert 0 < info.misses == info.currsize < info.maxsize
        assert cli.main(argv) == cli.EXIT_OK
        again = observables._gauss.cache_info()
        assert again.misses == info.misses and again.hits > info.hits
        # the sphere rule reaches millions of nodes and stays uncached
        assert not hasattr(observables._sphere_rule, "cache_info")
        assert not hasattr(observables._sphere_rule, "__wrapped__")


def classical_e(cfg):
    """The rows field E = D / sqrt(1 + D^2) of the classical beta = 1 model."""
    def field(pts):
        d = coulomb_rows(cfg, cfg.qs, pts)
        return d / np.sqrt(1.0 + np.sum(d * d, axis=1, keepdims=True))

    return field


class TestFluxCharge:
    def test_single_charge_flux_frozen_value(self):
        cfg = single_charge()
        quad = QuadratureSpec()
        val = flux_charge(classical_e(cfg), 10.0, quad)
        assert abs(val - SINGLE_FLUX_R10) <= 1e-10
        # E is slightly below D in magnitude, so the flux undershoots the charge
        assert val < 1.0

    def test_displacement_flux_is_gauss_exact(self):
        cfg = three_charges()
        quad = QuadratureSpec()
        for R in (10.0, 50.0):
            val = flux_charge(lambda pts: coulomb_rows(cfg, cfg.qs, pts), R, quad)
            total = math.fsum(cfg.qs)
            assert abs(val - total) <= 1e-10 * max(1.0, abs(total))

    def test_three_charge_e_flux_approaches_total(self):
        cfg = three_charges()
        quad = QuadratureSpec()
        val = flux_charge(classical_e(cfg), 50.0, quad)
        assert abs(val - (-0.5)) <= 1e-4

    def test_flux_ladder_monotone_toward_total_charge(self):
        cfg = three_charges()
        quad = QuadratureSpec()
        errs = [abs(flux_charge(classical_e(cfg), _far_radius(cfg) * 2.0**k, quad) - math.fsum(cfg.qs))
                for k in range(4)]
        assert all(b < a for a, b in zip(errs[:-1], errs[1:]))

    def test_off_center_sphere_same_charge(self):
        cfg = single_charge()
        quad = QuadratureSpec()
        val = flux_charge(lambda pts: coulomb_rows(cfg, cfg.qs, pts), 5.0, quad,
                          center=(1.0, -2.0, 0.5))
        assert abs(val - 1.0) <= 1e-9

    def test_unresolvable_field_raises(self):
        rng = np.random.default_rng(0)
        quad = QuadratureSpec(rel_tol=1e-12, max_subdivisions=2)
        with pytest.raises(QuadratureError):
            flux_charge(pointwise(lambda y: rng.normal(size=3)), 3.0, quad)

    def test_stacked_field_keeps_each_level(self):
        # a centred charge converges at the first doubling, an off-centre
        # one needs two more: each stacked flux equals its own quadrature
        centred = ChargeConfig.build([((0.0, 0.0, 0.0), 1.0, 0.0)])
        off = ChargeConfig.build([((0.0, 0.3, 0.6), -2.0, 0.0)])
        quad = QuadratureSpec()
        calls = []

        def counted(pts):
            calls.append(len(pts))
            return np.stack((coulomb_rows(centred, centred.qs, pts),
                             coulomb_rows(off, off.qs, pts)), axis=1)

        flux = flux_charge(counted, 1.0, quad)
        assert flux.shape == (2,)
        assert flux[0] == flux_charge(lambda pts: coulomb_rows(centred, centred.qs, pts), 1.0, quad)
        assert flux[1] == flux_charge(lambda pts: coulomb_rows(off, off.qs, pts), 1.0, quad)
        # the centred charge's flux is 1 to the rounding of the rule
        assert abs(flux[0] - 1.0) <= 4 * EPS and flux[1] != -2.0
        # levels of 8x16, 16x32 and 32x64 nodes, one rows call per level
        assert calls == [128, 512, 2048]


def flux_outcome(flux, field, R, quad, center):
    """The flux, or the class and message of what the quadrature raised."""
    try:
        return flux(field, R, quad, center=center)
    except (FieldError, QuadratureError) as exc:
        return type(exc), str(exc)


def spheres_outcome(field, spheres, quad):
    """flux_spheres over (R, center) pairs, or what it raised, as flux_outcome."""
    try:
        return flux_spheres(field, [c for _, c in spheres], [R for R, _ in spheres], quad)
    except (FieldError, QuadratureError) as exc:
        return type(exc), str(exc)


def same_outcome(got, want) -> bool:
    return np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


class TestFluxRowsAgainstPointwise:
    """flux_charge on the rows field eh_field against the per-node oracle
    flux_charge_pointwise on eh_pointwise, bit for bit."""

    dyon = ChargeConfig.build([
        ((1.0, 0.0, 0.0), 1.0, 0.5),
        ((-1.0, 0.5, 0.0), -2.0, 1.0),
        ((0.0, -1.0, 0.3), 0.5, -0.7),
    ])

    @pytest.mark.parametrize("params", [
        ModelParams.classical(beta=1.0, kappa=0.6),
        ModelParams.logarithmic(beta=1.0),
        ModelParams.fractional_power(beta=1.0, p=1.5, kappa=0.5),
        ModelParams.exponential(beta=1.0),
    ], ids=["classical-k0.6", "logarithmic", "fractional", "exponential"])
    def test_three_centre_dyon(self, params):
        cfg = self.dyon
        quad = QuadratureSpec()
        eh, oracle = eh_field(params, cfg), eh_pointwise(params, cfg)
        spheres = [(50.0, cfg.centroid), (2.0, cfg.centroid),
                   (0.05, cfg.positions[0]), (4.0, (0.5, 0.2, -0.3))]
        wants = [flux_outcome(flux_charge_pointwise, oracle, R, quad, center)
                 for R, center in spheres]
        # the oracle's exponential inversion takes the math module's exp and
        # log, which round unlike numpy's on a few percent of inputs (see
        # scalar_inversions): its E and H differ from the rows' at ~9% of
        # the nodes, by up to 2.3e-14 of the largest, and its fluxes agree
        # to that; the other models' fluxes agree bit for bit
        if params.kind == "exponential":
            def same(got, want):
                if isinstance(want, tuple):
                    return got == want
                return np.allclose(got, want, rtol=5e-14, atol=0.0)
        else:
            same = same_outcome
        for (R, center), want in zip(spheres, wants):
            assert same(flux_outcome(flux_charge, eh, R, quad, center), want), R
        # the four spheres through one flux_spheres call: it raises the
        # first failure in sphere order, and the spheres that converge keep
        # the oracle's bits in a call of their own
        failures = [w for w in wants if isinstance(w, tuple)]
        got = spheres_outcome(eh, spheres, quad)
        if failures:
            assert got == failures[0]
        else:
            assert all(same(g, w) for g, w in zip(got, wants))
        ok = [(sphere, w) for sphere, w in zip(spheres, wants) if isinstance(w, np.ndarray)]
        fluxes = spheres_outcome(eh, [sphere for sphere, _ in ok], quad)
        assert len(fluxes) == len(ok) >= 3
        assert all(same(g, w) for g, (_, w) in zip(fluxes, ok))

    def test_stacked_components_converge_at_own_levels(self):
        # E and H of the dyon next to the D of a centred unit charge, which
        # converges at the first doubling; each keeps its own level
        params = ModelParams.classical(beta=1.0, kappa=0.6)
        centred = ChargeConfig.build([((0.0, 0.0, 0.0), 1.0, 0.0)])
        quad = QuadratureSpec(rel_tol=1e-9)
        eh = eh_field(params, self.dyon)
        levels = []

        def stacked(pts):
            levels.append(len(pts))
            return np.concatenate((eh(pts), coulomb_rows(centred, centred.qs, pts)[:, None]),
                                  axis=1)

        flux = flux_charge(stacked, 3.0, quad)
        oracle = eh_pointwise(params, self.dyon)
        assert np.array_equal(flux[:2], flux_charge_pointwise(oracle, 3.0, quad))
        assert flux[2] == flux_charge_pointwise(
            lambda y: coulomb_rows(centred, centred.qs, y[None, :])[0], 3.0, quad)
        assert abs(flux[2] - 1.0) <= 4 * EPS and len(levels) > 2

    def test_chunked_levels_keep_the_bits(self, monkeypatch):
        # a lone sphere's level of _FLUX_CHUNK nodes or more goes to the
        # field whole cos(theta) rows at a time: the chunks' nodes are the
        # level-wide rule's, bit for bit; a level of one chunk keeps the
        # level-wide sums' bits, and one of several adds their partial
        # sums, within 1e-13 of the level-wide sums
        eh = eh_field(ModelParams.logarithmic(beta=1.0), self.dyon)
        quad = QuadratureSpec()
        whole = flux_charge(eh, 2.0, quad)
        sphere = observables._FluxSphere((0.0, 0.0, 0.0), 2.0)
        calls = []

        def recorded(pts):
            calls.append(np.array(pts))
            return eh(pts)

        monkeypatch.setattr(observables, "_FLUX_CHUNK", 512)
        for n_mu in (16, 32, 64):
            calls.clear()
            got = observables._level_sums(recorded, sphere, n_mu, 2 * n_mu)
            dirs, w_ang = observables._sphere_rule(n_mu, 2 * n_mu)
            assert np.array_equal(np.concatenate(calls), sphere.nodes(dirs))
            assert [len(c) for c in calls] == [512] * (n_mu * n_mu // 256)
            want = sphere.sums(eh(sphere.nodes(dirs)), dirs, w_ang)
            assert np.array_equal(got, want) if n_mu == 16 else np.allclose(
                got, want, rtol=1e-13, atol=0.0)
        calls.clear()
        flux = flux_charge(recorded, 2.0, quad)
        assert np.allclose(flux, whole, rtol=1e-13, atol=0.0)
        assert [len(c) for c in calls][:3] == [128, 512, 512] and max(map(len, calls)) == 512

    def test_shared_levels_split_into_chunks(self, monkeypatch):
        # with 1000-node chunks the 128- and 512-node levels of three
        # spheres are shared, sphere-major: 384 nodes, then 1536 in two
        # chunks; the one sphere left after that refines alone, its
        # 32 x 64 level in chunks of 15 cos(theta) rows; every sphere gets
        # the bits it gets alone
        eh = eh_field(ModelParams.logarithmic(beta=1.0), self.dyon)
        quad = QuadratureSpec()
        spheres = [(2.0, self.dyon.centroid), (0.05, self.dyon.positions[1]),
                   (4.0, (0.5, 0.2, -0.3))]
        monkeypatch.setattr(observables, "_FLUX_CHUNK", 1000)
        alone = [flux_charge(eh, R, quad, center=c) for R, c in spheres]
        calls = []

        def counted(pts):
            calls.append(len(pts))
            return eh(pts)

        fluxes = spheres_outcome(counted, spheres, quad)
        assert all(np.array_equal(f, a) for f, a in zip(fluxes, alone))
        assert calls == [384, 1000, 536, 960, 960, 128]

    def test_lone_sphere_level_memory_is_flat(self, monkeypatch):
        # an inner sphere of the classical kappa = 0.6 dyon does not
        # converge; its levels of up to 256 x 512 nodes, past 1024-node
        # chunks, peak below half of one such level's field values
        params = ModelParams.classical(beta=1.0, kappa=0.6)
        quad = QuadratureSpec(max_subdivisions=5)
        eh = eh_field(params, self.dyon)
        R, first = 2.0 * self.dyon.exclusion_radius, self.dyon.positions[0]
        monkeypatch.setattr(observables, "_FLUX_CHUNK", 1024)
        with pytest.raises(QuadratureError):
            flux_charge(eh, R, quad, center=first)  # builds the Gauss rules once
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError):
                flux_charge(eh, R, quad, center=first)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (256 * 512) * 2 * 3 * 8

    def test_unconverged_sphere_stops_before_later_spheres_refine(self, monkeypatch):
        # the inner spheres of the classical kappa = 0.6 dyon do not
        # converge: the first one raises what flux_charge raises for it
        # alone (the outer sphere before it converges), and no sphere after
        # it evaluates a level of _FLUX_CHUNK nodes
        params = ModelParams.classical(beta=1.0, kappa=0.6)
        quad = QuadratureSpec(max_subdivisions=5)
        eh = eh_field(params, self.dyon)
        R, first = 2.0 * self.dyon.exclusion_radius, self.dyon.positions[0]
        assert isinstance(flux_charge(eh, _far_radius(self.dyon), quad, center=self.dyon.centroid),
                          np.ndarray)
        want = flux_outcome(flux_charge, eh, R, quad, first)
        assert want[0] is QuadratureError
        calls = []

        def counted(params, cfg, pts):
            calls.append(np.array(pts))
            return eh_rows(params, cfg, pts)

        monkeypatch.setattr(currents, "eh_rows", counted)
        with pytest.raises(QuadratureError, match=re.escape(want[1])):
            free_charge_with_inner_spheres(self.dyon, params, quad, [20.0, 40.0, 80.0, 160.0])
        # levels 0-3 of the eight spheres are one call each; from level 4
        # on, only the first inner sphere is refined
        sizes = [len(c) for c in calls]
        assert sizes[:4] == [8 * 128, 8 * 512, 3 * 2048, 3 * 8192]
        assert sizes[4:] == [32768] * 5
        for pts in calls[4:]:
            assert np.allclose(np.linalg.norm(pts - first, axis=1), R, rtol=1e-6, atol=0.0)

    def test_failing_inner_sphere_raises_the_oracle_failure(self):
        # a magnetic charge in the p = 1.5 fractional model: close to it the
        # electrostatic target is unreachable inside the model domain
        params = ModelParams.fractional_power(beta=1.0, p=1.5, kappa=0.5)
        cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 1.0, 1.0), ((2.0, 0.0, 0.0), -1.0, 0.0)])
        quad = QuadratureSpec()
        R, center = 2.0 * cfg.exclusion_radius, cfg.positions[0]
        got = flux_outcome(flux_charge, eh_field(params, cfg), R, quad, center)
        want = flux_outcome(flux_charge_pointwise, eh_pointwise(params, cfg), R, quad, center)
        assert got == want and want[0] is InversionFailure
        with pytest.raises(InversionFailure, match=re.escape(want[1])):
            free_charge_with_inner_spheres(cfg, params, quad)

    def test_non_finite_node_fails_loudly(self):
        # D overflows at R = 0.1 around a q = 1e308 charge: the node fails
        # before any model branch sees it, with one class and message in
        # every model, instead of a NaN flux that never settles
        cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 1e308, 0.0)])
        for params in (ModelParams.classical(beta=1.0), ModelParams.logarithmic(beta=1.0),
                       ModelParams.exponential(beta=1.0),
                       ModelParams.fractional_power(beta=1.0, p=1.5)):
            with pytest.raises(DomainViolation) as info:
                flux_charge(eh_field(params, cfg), 0.1, QuadratureSpec(max_subdivisions=2))
            assert type(info.value) is DomainViolation, params.kind
            assert str(info.value) == (
                "non-finite D or B (an overflowed or undefined Coulomb field)"), params.kind


class TestFreeCharge:
    def test_electric_only_charge_unchanged(self):
        cfg = three_charges()
        params = ModelParams.classical(1.0)
        quad = coarse_quad()
        out = free_charge_with_inner_spheres(cfg, params, quad)
        assert abs(out["q_free"] - math.fsum(cfg.qs)) <= 1e-3
        assert abs(out["g_free"]) <= 1e-3

    def test_single_dyon_screening(self):
        # q_free = q - |g| sgn(q), g_free = g - |q| sgn(g) for kappa = 0
        cfg = single_charge(q=2.0, g=1.0)
        params = ModelParams.classical(1.0, kappa=0.0)
        quad = coarse_quad()
        out = free_charge_with_inner_spheres(cfg, params, quad)
        assert abs(out["q_free"] - 1.0) <= 1e-3
        assert abs(out["g_free"] - (-1.0)) <= 1e-3

    def test_two_dyon_mixing(self):
        cfg = ChargeConfig.build([
            ((1.0, 0.0, 0.0), 1.0, 0.5),
            ((-1.0, 0.0, 0.0), -1.0, 1.0),
        ])
        params = ModelParams.classical(1.0, kappa=0.0)
        quad = coarse_quad()
        out = free_charge_with_inner_spheres(cfg, params, quad)
        # q_free = (1 - 0.5) + (-1 + 1) = 0.5; g_free = (0.5 - 1) + (1 - 1) = -0.5
        assert abs(out["q_free"] - 0.5) <= 1e-3
        assert abs(out["g_free"] - (-0.5)) <= 1e-3


class TestExponentProbe:
    def test_electric_charge_slope(self):
        cfg = single_charge()
        params = ModelParams.classical(1.0)
        slope = divergence_exponent_probe(cfg, params, 0, default_probe_radii(1.0))
        assert abs(slope + 2.0) < 0.05

    def test_dyon_kappa_zero_slope(self):
        cfg = single_charge(q=1.0, g=1.0)
        params = ModelParams.classical(1.0, kappa=0.0)
        slope = divergence_exponent_probe(cfg, params, 0, default_probe_radii(1.0))
        assert abs(slope + 4.0) < 0.1

    def test_logarithmic_dyon_kappa_positive_slope(self):
        cfg = single_charge(q=1.0, g=1.0)
        params = ModelParams.logarithmic(1.0, kappa=1.0)
        slope = divergence_exponent_probe(cfg, params, 0, default_probe_radii(1.0))
        assert abs(slope + 2.0) < 0.1

    def test_radii_must_decrease(self):
        cfg = single_charge()
        params = ModelParams.classical(1.0)
        with pytest.raises(ValueError):
            divergence_exponent_probe(cfg, params, 0, [1e-3, 1e-2])
        with pytest.raises(ValueError):
            divergence_exponent_probe(cfg, params, 0, [1e-3])

    def test_probe_below_exclusion_raises(self):
        cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 1.0, 0.0)], exclusion_radius=1e-3)
        params = ModelParams.classical(1.0)
        with pytest.raises(SingularPoint):
            divergence_exponent_probe(cfg, params, 0, [1e-4, 1e-5])


def residual_pointwise(cfg, params, grid) -> tuple:
    """residual_suite point by point: the oracle's curls and divergences of
    E, H and of D, B at each point whose stencil is clear, against one-point
    current_rows calls."""
    def db(pts):
        return np.moveaxis(coulomb_rows(cfg, _db_weights(cfg), pts), 0, 1)

    eh = eh_field(params, cfg)
    details = []
    pts = np.asarray(grid, dtype=float).reshape(-1, 3)
    for x, h in zip(pts, currents._fd_step_rows(pts)):
        if not min(np.linalg.norm(x - p) for p in cfg.positions) > h + cfg.exclusion_radius:
            continue
        current = current_rows(params, cfg, x)
        raise_first(current.code, current.errors)
        curl_e, curl_h = fd_curl(eh, x, step=h)[0]
        div_d, div_b = fd_div(db, x, step=h)[0]
        curl_d, curl_b = fd_curl(db, x, step=h)[0]
        details.append({
            "at": [float(v) for v in x],
            "div_d": abs(float(div_d)),
            "curl_d": float(np.max(np.abs(curl_d))),
            "div_b": abs(float(div_b)),
            "curl_b": float(np.max(np.abs(curl_b))),
            "curl_e_jm": float(np.max(np.abs(curl_e + current.j_m[0]))),
            "curl_h_je": float(np.max(np.abs(curl_h - current.j_e[0]))),
        })
    return tuple(details)


def peak(details, key: str) -> float:
    """The largest residual key over the points of a residual_suite report."""
    return max([0.0] + [p[key] for p in details])


class TestResidualSuite:
    @staticmethod
    def grid_points():
        return [
            [0.5, 0.5, 0.0],
            [0.8, 0.4, 0.1],
            [-0.6, 0.5, 0.2],
            [0.0, 1.5, -0.4],
        ]

    def test_maxwell_limit_residuals_vanish(self):
        cfg = pair_config(sep=2.0, q1=1.0, q2=2.0)
        params = ModelParams.fractional_power(1.0, 1)
        details = residual_suite(cfg, params, self.grid_points())
        assert [p["at"] for p in details] == self.grid_points()  # none skipped
        assert peak(details, "curl_e_jm") <= 1e-6
        assert peak(details, "curl_h_je") <= 1e-6
        assert peak(details, "div_b") <= 1e-6

    def test_classical_pair_residuals_and_nonzero_curl(self):
        cfg = pair_config(sep=2.0, q1=1.0, q2=2.0)
        params = ModelParams.classical(1.0)
        details = residual_suite(cfg, params, self.grid_points())
        assert currents.current_method(params, cfg) == "analytic"
        assert peak(details, "curl_e_jm") <= 1e-5
        assert peak(details, "curl_d") <= 1e-6
        assert peak(details, "div_d") <= 1e-6
        # the induced magnetic current is genuinely nonzero at these points
        assert any(p["curl_e_jm"] > 0.0 for p in details)
        assert np.max(np.abs(current_rows(params, cfg, self.grid_points()).j_m)) > 1e-3

    def test_dyonic_kappa_positive_uses_fd_currents(self):
        cfg = single_charge(q=1.0, g=1.0)
        params = ModelParams.classical(1.0, kappa=1.0)
        details = residual_suite(cfg, params, [[1.0, 0.5, 0.3], [-0.8, 1.1, 0.2]])
        assert currents.current_method(params, cfg) == "fd"
        assert len(details) == 2
        assert peak(details, "curl_e_jm") <= 1e-6
        assert peak(details, "curl_h_je") <= 1e-6

    @pytest.mark.parametrize("params, cfg", [
        (ModelParams.classical(1.0), pair_config(sep=2.0, q1=1.0, q2=2.0)),
        (ModelParams.exponential(0.7), pair_config(sep=2.0, q1=1.0, q2=-2.0)),
        (ModelParams.classical(1.0), pair_config(sep=2.0, g1=0.5, g2=-1.0)),
        (ModelParams.classical(1.0, kappa=1.0), single_charge(q=1.0, g=1.0)),
        (ModelParams.logarithmic(0.5, kappa=0.3), pair_config(sep=2.0, q1=1.0, q2=-0.5, g1=0.5)),
    ], ids=["classical-electric", "exponential-electric", "classical-dyonic-k0", "classical-k1-dyon",
            "log-dyon-pair"])
    def test_report_matches_the_pointwise_loop(self, params, cfg):
        rng = np.random.default_rng(11)
        grid = np.concatenate([rng.uniform(-2.0, 2.0, size=(12, 3)),
                               cfg.positions[:1] + [1e-6, 0.0, 0.0]])
        details = residual_suite(cfg, params, grid)
        assert len(details) < len(grid)  # the point next to a charge is skipped
        assert details == residual_pointwise(cfg, params, grid)

    def test_failure_is_the_pointwise_loop_failure(self):
        params = ModelParams.quadratic(1.0, kappa=0.5)
        cfg = ChargeConfig.build([((1.0, 0.0, 0.0), 1.0, 0.4), ((-1.0, 0.5, 0.0), -2.0, 1.0)])
        grid = [[0.3, 1.2, -0.4], [-0.85, 0.5, 0.0], [0.5, -1.0, 0.7]]
        with pytest.raises(FieldError) as want:
            residual_pointwise(cfg, params, grid)
        with pytest.raises(FieldError) as got:
            residual_suite(cfg, params, grid)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    @pytest.mark.parametrize("params", [ModelParams.logarithmic(1.0),
                                        ModelParams.classical(1.0, kappa=0.5),
                                        ModelParams.classical(1.0)],
                             ids=["logarithmic", "classical-kappa", "classical-k0"])
    def test_all_points_skipped(self, params):
        cfg = pair_config(sep=2.0, g1=0.5, g2=-1.0)
        grid = [[1.0 + 1e-6, 0.0, 0.0], [-1.0, 1e-5, 0.0]]
        assert residual_suite(cfg, params, grid) == ()
        assert residual_suite(cfg, params, []) == ()

    def test_stencil_too_close_is_skipped(self):
        cfg = pair_config(sep=2.0)
        params = ModelParams.classical(1.0)
        grid = [[1.0 + 1e-6, 0.0, 0.0], [0.0, 2.0, 0.0]]
        details = residual_suite(cfg, params, grid)
        assert [p["at"] for p in details] == [[0.0, 2.0, 0.0]]

    def test_currents_come_from_one_rows_call(self, monkeypatch):
        cfg = single_charge(q=1.0, g=1.0)
        params = ModelParams.classical(1.0, kappa=1.0)
        grid = [[1.0, 0.5, 0.3], [-0.8, 1.1, 0.2], [1e-6, 0.0, 0.0]]
        calls = []
        current_rows = verify.current_rows

        def counting_rows(params, cfg, pts):
            calls.append(len(pts))
            return current_rows(params, cfg, pts)

        def counting_eh(params, cfg, pts):
            calls.append(("eh", len(pts)))
            return eh_rows(params, cfg, pts)

        monkeypatch.setattr(verify, "current_rows", counting_rows)
        monkeypatch.setattr(verify, "eh_rows", counting_eh)
        details = residual_suite(cfg, params, grid)
        # the point inside the stencil clearance is skipped before the calls
        assert calls == [2, ("eh", 12)]
        assert len(details) == 2
        assert peak(details, "curl_e_jm") <= 1e-6
