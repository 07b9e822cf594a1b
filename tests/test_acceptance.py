"""Acceptance gate: eleven end-to-end checks at their stated tolerances.

Each check prints one PASS/FAIL line (run pytest -s to see them all) and
asserts the same thresholds, so a red line and a failing test coincide.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erf

from bifield import (
    ChargeConfig,
    ModelParams,
    QuadratureSpec,
    current_rows,
    divergence_exponent_probe,
    flux_charge,
    free_charge_with_inner_spheres,
    gaussian_source,
    invert_rows,
    newton_potential,
    total_energy,
    two_gaussian_source,
)
from bifield.continuous import jm_rows, state_rows
from bifield.currents import eh_field
from bifield.errors import raise_first
from bifield.observables import default_probe_radii, hamiltonian_on_points
from bifield.sources import _db_weights
from bifield.specfn import lambert_w_rows, smallest_positive_cubic_root_rows
from bifield.verify import jm_classical_jacobi_term

from fd_oracle import fd_curl
from scalar_inversions import forward_fields
from triple_sums import coulomb_rows

# frozen references, shared with the module test files:
# scipy radial quadrature of the single-unit-charge energy (beta = 1) and
# the closed-form flux of E through R = 10 for the same charge
SINGLE_ELECTRIC_ENERGY = 0.34868320668436725
DYON_K1_PLATEAU = math.sqrt(2.0) / (4.0 * math.pi)


def _line(ok: bool, label: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    return ok


def _dyonic_configs():
    return [
        ChargeConfig.build([((0.0, 0.0, 0.0), 1.0, 0.6)]),
        ChargeConfig.build([((1.0, 0.0, 0.0), 1.0, 0.4),
                            ((-1.0, 0.5, 0.0), -2.0, 1.0)]),
        ChargeConfig.build([((1.0, 0.0, 0.0), 1.0, 0.4),
                            ((-1.0, 0.5, 0.0), -2.0, 1.0),
                            ((0.0, -1.0, 0.3), 0.5, -0.7)]),
    ]


def _electric_pair():
    return ChargeConfig.build([((1.0, 0.0, 0.0), 1.0, 0.0),
                               ((-1.0, 0.0, 0.0), 2.0, 0.0)])


def _sample_points(rng, cfg, n, box=2.0, clearance=0.4):
    pts = []
    while len(pts) < n:
        x = rng.uniform(-box, box, 3)
        if min(np.linalg.norm(x - p) for p in cfg.positions) >= clearance:
            pts.append(x)
    return np.array(pts)


def _inverted(params, d, b):
    """E, H and s of the rows D, B, raising the first row's failure."""
    e, h, s, code, errors = invert_rows(params, d, b)
    raise_first(code, errors)
    return e, h, s


def _state_e(src, params):
    """The rows field of E of a continuous source, raising a failure."""
    def field(y):
        state = state_rows(src, params, y)
        raise_first(state.code, state.errors)
        return state.e

    return field


def test_01_constitutive_round_trip_all_models():
    rng = np.random.default_rng(101)
    d, b = np.concatenate([
        coulomb_rows(cfg, _db_weights(cfg), _sample_points(rng, cfg, 334, box=3.0, clearance=0.25))
        for cfg in _dyonic_configs()], axis=1)[:, :1000]
    draws = list(zip(d, b))
    scale = [max(float(np.linalg.norm(dd)), float(np.linalg.norm(bb)), 1e-30)
             for dd, bb in draws]

    closed_kinds = [
        ModelParams.classical(beta=1.3),
        ModelParams.logarithmic(beta=0.8),
        ModelParams.exponential(beta=0.5),
        ModelParams.quadratic(alpha=0.05),
    ]
    iterative_kinds = [ModelParams.fractional_power(beta=1.1, p=1.7)]

    import dataclasses

    t0 = time.time()
    worst_closed = 0.0
    worst_iter = 0.0
    for base in closed_kinds + iterative_kinds:
        for kappa in (0.0, 0.5, 1.0):
            params = dataclasses.replace(base, kappa=kappa)
            e, h, _, code, errors = invert_rows(params, d, b)
            raise_first(code, errors)
            # the scalar forward map checks the rows inversion
            states = (forward_fields(params, e[i], b[i]) for i in range(len(draws)))
            worst = max(max(float(np.linalg.norm(st.d - d[i])),
                            float(np.linalg.norm(st.h - h[i]))) / scale[i]
                        for i, st in enumerate(states))
            if base in iterative_kinds:
                worst_iter = max(worst_iter, worst)
            else:
                worst_closed = max(worst_closed, worst)
    elapsed = time.time() - t0

    ok = worst_closed <= 1e-9 and worst_iter <= 1e-7 and elapsed < 20.0
    assert _line(ok, "01 constitutive round trip",
                 f"closed {worst_closed:.2e} <= 1e-9, iterative "
                 f"{worst_iter:.2e} <= 1e-7, {elapsed:.1f}s < 20s "
                 f"(15 model variants x 1000 states)")


def test_02_currents_match_field_curls():
    rng = np.random.default_rng(102)
    beta = 1.0
    params = ModelParams.classical(beta=beta)

    def worst_and_peak(cfg, field):
        # curl E = -j_m (field 0) or curl H = j_e (field 1) at 200 points:
        # the worst |curl - j| / max(1, |j|) and the largest |j|
        pts = _sample_points(rng, cfg, 200, box=1.5)
        cur = current_rows(params, cfg, pts)
        raise_first(cur.code, cur.errors)
        j = cur.j_e if field else -cur.j_m
        curl = fd_curl(eh_field(params, cfg), pts, richardson=True)[:, field]
        mag = np.max(np.abs(j), axis=1)
        return float(np.max(np.max(np.abs(curl - j), axis=1) / np.maximum(1.0, mag))), float(mag.max())

    worst_e, peak_jm = worst_and_peak(_electric_pair(), 0)
    m_cfg = ChargeConfig.build([((1.0, 0.0, 0.0), 0.0, 1.0),
                                ((-1.0, 0.0, 0.0), 0.0, 2.0)])
    worst_m, peak_je = worst_and_peak(m_cfg, 1)

    single = ChargeConfig.build([((0.0, 0.0, 0.0), 1.5, 0.0)])
    lone = float(np.max(np.abs(
        current_rows(params, single, _sample_points(rng, single, 20, clearance=0.5)).j_m)))

    ok = (worst_e <= 1e-5 and worst_m <= 1e-5
          and peak_jm > 1e-3 and peak_je > 1e-3 and lone <= 1e-12)
    assert _line(ok, "02 currents vs field curls",
                 f"curl(E)+j_m {worst_e:.2e} <= 1e-5, curl(H)-j_e "
                 f"{worst_m:.2e} <= 1e-5, peaks {peak_jm:.1e}/{peak_je:.1e} "
                 f"> 1e-3, single charge {lone:.1e} <= 1e-12 (200 pts each)")


def test_03_jacobi_partial_sum_vanishes():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        cfg = ChargeConfig.build([
            (rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0), 0.0)
            for _ in range(n)
        ])
        for x in _sample_points(rng, cfg, 3, box=4.0, clearance=0.3):
            worst = max(worst, float(np.max(np.abs(
                jm_classical_jacobi_term(cfg, 1.0, x)))))
    ok = worst <= 1e-12
    assert _line(ok, "03 cyclic current cancellation",
                 f"max partial sum {worst:.2e} <= 1e-12 "
                 f"(100 configs, n in 2..4)")


def test_04_flux_charges():
    params = ModelParams.classical(beta=1.0)

    triple = ChargeConfig.build([
        ((1.0, 0.0, 0.0), 1.0, 0.0),
        ((-1.0, 0.5, 0.0), -2.0, 0.0),
        ((0.0, -1.0, 0.3), 0.5, 0.0),
    ])
    quad = QuadratureSpec()

    eh = eh_field(params, triple)
    got = flux_charge(lambda pts: eh(pts)[:, 0], 50.0, quad, center=triple.centroid)
    rel = abs(got - (-0.5)) / 0.5

    single = ChargeConfig.build([((0.0, 0.0, 0.0), 1.0, 0.0)])
    eh = eh_field(params, single)
    R = 10.0
    flux = flux_charge(lambda pts: eh(pts)[:, 0], R, quad)
    exact = 1.0 / math.sqrt(1.0 + 1.0 / (16.0 * math.pi**2 * R**4))
    err = abs(flux - exact)

    ok = rel <= 1e-4 and err <= 1e-10
    assert _line(ok, "04 flux charges",
                 f"three-charge E flux rel {rel:.2e} <= 1e-4, single-charge "
                 f"closed-form gap {err:.2e} <= 1e-10")


def test_05_dyon_free_charges():
    cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 2.0, 1.0)])
    params = ModelParams.classical(beta=1.0, kappa=0.0)
    free = free_charge_with_inner_spheres(cfg, params, QuadratureSpec())
    dq = abs(free["q_free"] - 1.0)
    dg = abs(free["g_free"] + 1.0)
    ok = dq <= 1e-3 and dg <= 1e-3
    assert _line(ok, "05 dyon free charges",
                 f"q_free gap {dq:.2e}, g_free gap {dg:.2e}, both <= 1e-3 "
                 f"(q=2, g=1 -> 1, -1)")


def test_06_energy_oracle_and_near_field():
    single = ChargeConfig.build([((0.0, 0.0, 0.0), 1.0, 0.0)])
    params = ModelParams.classical(beta=1.0)
    quad = QuadratureSpec(rel_tol=1e-5, max_subdivisions=4)
    report = total_energy(single, params, quad)
    rel = abs(report.value - SINGLE_ELECTRIC_ENERGY) / SINGLE_ELECTRIC_ENERGY
    ok_electric = report.converged and rel <= 1e-4

    dyon = ChargeConfig.build([((0.0, 0.0, 0.0), 1.0, 1.0)])
    k1 = ModelParams.classical(beta=1.0, kappa=1.0)
    r = 1e-3
    h = hamiltonian_on_points(k1, dyon, np.array([r, 0.0, 0.0]))[0]
    plateau_rel = abs(h * r**2 - DYON_K1_PLATEAU) / DYON_K1_PLATEAU
    ok_plateau = plateau_rel <= 1e-2

    k0 = ModelParams.classical(beta=1.0, kappa=0.0)
    k0_report = total_energy(dyon, k0, QuadratureSpec(rel_tol=1e-5, max_subdivisions=4))
    slope = divergence_exponent_probe(dyon, k0, 0, default_probe_radii(1.0))
    ok_dyon = (not k0_report.converged) and abs(slope + 4.0) <= 0.1

    ok = ok_electric and ok_plateau and ok_dyon
    assert _line(ok, "06 energies and near fields",
                 f"single-charge energy rel {rel:.2e} <= 1e-4, kappa=1 "
                 f"plateau rel {plateau_rel:.2e} <= 1e-2, kappa=0 dyon "
                 f"slope {slope:.3f} ~ -4 and converged={k0_report.converged}")


def test_07_saturation_bounds():
    rng = np.random.default_rng(107)
    violations = 0
    worst_frac = 0.0
    for params, cap in (
        (ModelParams.classical(beta=4.0), 1.0 / math.sqrt(4.0)),
        (ModelParams.logarithmic(beta=0.5), math.sqrt(2.0 / 0.5)),
    ):
        d = np.array([rng.normal(size=3) * 10.0 ** rng.uniform(-2, 8) for _ in range(1000)])
        en = np.linalg.norm(_inverted(params, d, np.zeros_like(d))[0], axis=1)
        worst_frac = max(worst_frac, float(en.max()) / cap)
        # float saturation may land on the bound itself, never above
        violations += int(np.count_nonzero(en > cap * (1.0 + 1e-15)))
    ok = violations == 0
    assert _line(ok, "07 field saturation",
                 f"{violations} violations in 2000 draws (closest approach "
                 f"{worst_frac:.15f} of the bound)")


def _bisect_cubic(gamma: float, sigma2: float) -> float:
    # independent oracle: dense scan for the first sign change, then bisection
    a_max = max(3.0 * abs(gamma), 2.0 * sigma2 ** (1.0 / 3.0), sigma2, 1.0)
    grid = a_max * np.logspace(-14.0, 0.0, 4000)
    phi = (gamma + grid) ** 2 * grid - sigma2
    idx = int(np.argmax(phi >= 0.0))
    if phi[idx] < 0.0:
        raise AssertionError("oracle found no sign change")
    lo = 0.0 if idx == 0 else float(grid[idx - 1])
    hi = float(grid[idx])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (gamma + mid) ** 2 * mid - sigma2 >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def test_08_special_function_contracts():
    xs = np.logspace(-12.0, 12.0, 1000)
    worst_w = max(abs(w * math.exp(w) - x) / x for x, w in zip(xs, lambert_w_rows(xs)))

    rng = np.random.default_rng(108)
    draws = [(rng.uniform(-30.0, 30.0), rng.uniform(0.0, 100.0)) for _ in range(10_000)]
    roots = smallest_positive_cubic_root_rows(*np.array(draws).T)
    worst_res = 0.0
    worst_gap = 0.0
    for i, ((gamma, sigma2), a) in enumerate(zip(draws, roots)):
        worst_res = max(worst_res,
                        abs((gamma + a) ** 2 * a - sigma2) / max(1.0, sigma2))
        if i % 10 == 0 and sigma2 > 0.0:  # oracle on every tenth draw
            ref = _bisect_cubic(gamma, sigma2)
            worst_gap = max(worst_gap, abs(a - ref) / max(1.0, ref))

    ok = worst_w <= 1e-13 and worst_res <= 1e-10 and worst_gap <= 1e-9
    assert _line(ok, "08 special functions",
                 f"Lambert identity {worst_w:.2e} <= 1e-13 (1000 pts), cubic "
                 f"residual {worst_res:.2e} <= 1e-10 (10^4 draws), bisection "
                 f"gap {worst_gap:.2e} <= 1e-9")


def _medium_coefficients(params, e, b):
    """The blocks (ee, eh, he, hh) of the local medium relation taking
    (E, H) to (D, B), each block a coefficient times the identity."""
    k2 = params.kappa**2
    eb = float(e @ b)
    s = 0.5 * (float(e @ e) - float(b @ b)) + 0.5 * k2 * eb * eb
    fp = params.derivative_rows(np.array([s]), 1)[0]
    return fp * (1.0 + k2 * k2 * eb * eb), k2 * eb, k2 * eb, 1.0 / fp


def test_09_medium_matrix_unimodular():
    rng = np.random.default_rng(109)
    beta = 1.7
    worst = 0.0
    for i in range(1000):
        kappa = (0.0, 0.5, 1.0)[i % 3]
        params = ModelParams.classical(beta=beta, kappa=kappa)
        e = rng.normal(size=3)
        e *= rng.uniform(0.05, 0.95) / (math.sqrt(beta) * np.linalg.norm(e))
        b = rng.normal(size=3) * rng.uniform(0.1, 3.0)
        ee, eh, he, hh = _medium_coefficients(params, e, b)
        worst = max(worst, abs(ee * hh - eh * he - 1.0))
    ok = worst <= 1e-10
    assert _line(ok, "09 medium matrix determinant",
                 f"max |det - 1| {worst:.2e} <= 1e-10 (1000 states, "
                 f"kappa in 0/0.5/1)")


def test_10_continuous_sources():
    total, sigma = 2.0, 0.8
    radial = gaussian_source(total=total, sigma=sigma)
    params = ModelParams.classical(beta=1.0)

    worst_u = 0.0
    for r in np.linspace(0.05, 5.0, 50):
        u = newton_potential(radial, (r, 0.0, 0.0))
        exact = -total * float(erf(r / (math.sqrt(2.0) * sigma))) / (4.0 * math.pi * r)
        worst_u = max(worst_u, abs(u - exact) / abs(exact))

    worst_curl = float(np.max(np.abs(fd_curl(
        _state_e(radial, params), [(0.7, 0.2, -0.4), (1.5, -1.0, 0.3)], richardson=True))))

    offset = two_gaussian_source(q1=8.0, sigma1=0.6, center1=(-1.0, 0.0, 0.0),
                                 q2=6.0, sigma2=0.8, center2=(1.2, 0.4, 0.0))

    pts = np.array([(0.0, 0.8, 0.3), (0.5, -0.6, 0.2), (-0.2, 0.6, 0.0)])
    fd = fd_curl(_state_e(offset, params), pts, richardson=True)
    state = state_rows(offset, params, pts)
    formula = -jm_rows(offset, params, pts, None, state)
    raise_first(state.code, state.errors)
    peak = float(np.max(np.abs(fd)))
    worst_match = float(np.max(np.abs(formula - fd)))

    ok = (worst_u <= 1e-5 and worst_curl <= 1e-6
          and peak > 1e-3 and worst_match <= 1e-4)
    assert _line(ok, "10 smooth sources",
                 f"potential vs closed form {worst_u:.2e} <= 1e-5 (50 radii), "
                 f"radial curl {worst_curl:.2e} <= 1e-6, offset curl peak "
                 f"{peak:.1e} > 1e-3 matching formula to {worst_match:.2e} <= 1e-4")


def test_11_maxwell_limit():
    params = ModelParams.fractional_power(beta=3.0, p=1.0)
    rng = np.random.default_rng(111)
    draws = np.array([(rng.uniform(-5.0, 5.0, 3), rng.uniform(-5.0, 5.0, 3))
                      for _ in range(50)])
    d, b = draws[:, 0], draws[:, 1]
    e, h, _ = _inverted(params, d, b)
    worst_field = float(max(np.max(np.abs(e - d)), np.max(np.abs(h - b))))

    cfg = _electric_pair()
    pts = _sample_points(rng, cfg, 10)
    currents = current_rows(params, cfg, pts)
    raise_first(currents.code, currents.errors)
    worst_j = float(max(np.max(np.abs(currents.j_e)), np.max(np.abs(currents.j_m))))
    worst_fd = float(np.max(np.abs(fd_curl(eh_field(params, cfg), pts, richardson=True)[:, 0])))

    ok = worst_field == 0.0 and worst_j <= 1e-12 and worst_fd <= 1e-6
    assert _line(ok, "11 linear limit",
                 f"|E-D|,|H-B| max {worst_field:.1e} (exact), currents "
                 f"{worst_j:.2e} <= 1e-12, FD curl {worst_fd:.2e} <= 1e-6")
