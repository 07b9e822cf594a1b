"""The built-in numeric verification suites of `bifield verify`.

Each suite draws its inputs from one shared generator, evaluates a known
identity or reference value through the rows functions the commands run,
and reports its worst residual against a tolerance. The currents are
checked where the paper states them: curl E = -j_m and curl H = j_e by
residual_suite's finite differences of eh_rows against current_rows, and
Gauss's law div D = rho_e for continuous sources by
continuous_residual_suite on state_rows; both take their central
differences from currents._stencil. The command line imports this module
only when verify runs.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .constitutive import forward_rows, invert_rows, rowdot
from .continuous import (ContinuousSource, bump_source, gaussian_source, jm_rows,
                         newton_potential, state_rows)
from .currents import (_curl, _fd_step_rows, _stencil, _stencil_clear, current_rows, eh_field,
                       eh_rows)
from .errors import DomainViolation, raise_first
from .models import ModelParams
from .observables import (QuadratureSpec, flux_charge, free_charge_with_inner_spheres,
                          total_energy)
from .sources import (ChargeConfig, _coulomb_offsets, _db_weights, _superpose, as_vec3,
                      mark_singular)
from .specfn import lambert_w_rows, smallest_positive_cubic_root_rows

__all__ = ["SUITES", "continuous_residual_suite", "jm_classical_jacobi_term", "residual_suite",
           "run_suites"]

# radial-quadrature reference for the total energy of a unit charge,
# classical model with beta = 1
_UNIT_CHARGE_ENERGY = 0.34868320668436725


def _suite(name: str, tol: float, residuals) -> dict:
    """The report of a suite: it passes when it made at least one check and
    its worst residual is within tol."""
    res = [float(r) for r in residuals]
    # max() skips a NaN that is not first; a NaN residual fails the suite
    worst = math.nan if not res or any(map(math.isnan, res)) else max(res)
    return {
        "name": name,
        "max_residual": worst if math.isfinite(worst) else None,
        "tolerance": tol,
        "passed": bool(worst <= tol),
        "n_checks": len(res),
    }


def _charge_distance(cfg: ChargeConfig, pts) -> np.ndarray:
    """The distance from each row of pts (one point or (N, 3)) to its
    nearest charge."""
    return _coulomb_offsets(cfg, np.reshape(pts, (-1, 3)))[1].min(axis=1)


def jm_classical_jacobi_term(cfg: ChargeConfig, beta: float, x) -> np.ndarray:
    """The partial triple sum that the vector identity kills.

    j_m^1 = -beta / (2 (4 pi)^3 (1 + beta D^2)^{3/2})
            * sum_{ijk} q_i q_j q_k r_i x (r_j + r_k) / (|r_i|^3 |r_j|^3 |r_k|^3)

    Identically zero by a x (b+c) + b x (c+a) + c x (a+b) = 0; evaluated
    term by term with math.fsum as a floating-point witness of that
    cancellation, which a factored sum would hide. Raises SingularPoint
    inside an exclusion ball.
    """
    x = as_vec3(x)[None, :]
    rs, norms, inside = _coulomb_offsets(cfg, x)
    code, errors = np.zeros(1, dtype=np.int64), []
    mark_singular(cfg, x, code, errors, inside)
    raise_first(code, errors)
    d = _superpose(cfg.qs, rs, norms)[0]
    rs, norms = rs[0], norms[0]
    d2 = float(d @ d)
    c = cfg.qs / norms**3
    n = len(cfg)
    parts = ([], [], [])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                vec = c[i] * c[j] * c[k] * np.cross(rs[i], rs[j] + rs[k])
                for comp in range(3):
                    parts[comp].append(vec[comp])
    pref = -beta / (2.0 * (4.0 * math.pi) ** 3 * (1.0 + beta * d2) ** 1.5)
    return pref * np.array([math.fsum(p) for p in parts])


def residual_suite(cfg: ChargeConfig, params: ModelParams, grid) -> tuple:
    """Finite-difference residuals of the static field equations on a grid.

    One dict per usable grid point: its location "at" and |div D|,
    |curl D|, |div B|, |curl B|, |curl E + j_m| and |curl H - j_e| there,
    using analytic currents where closed forms exist. Points whose FD
    stencil would enter a charge exclusion ball are skipped. The currents
    come from one current_rows call and D, B, E and H at the stencil nodes
    of every point from one eh_rows call; a failing current raises before a
    failing node.
    """
    pts = np.asarray(grid, dtype=float).reshape(-1, 3)
    steps = _fd_step_rows(pts)
    clear = _stencil_clear(cfg, pts, steps)
    x = pts[clear]
    currents = current_rows(params, cfg, x)
    raise_first(currents.code, currents.errors)
    nodes, jacobian = _stencil(x, steps[clear][:, None])
    d, b, e, h, _, code, errors = eh_rows(params, cfg, nodes)
    raise_first(code, errors)
    jac = jacobian(np.stack((d, b, e, h), axis=1))[:, 0]  # point, D B E H, i, j
    div = np.abs(np.trace(jac[:, :2], axis1=-2, axis2=-1))
    curl = _curl(jac)
    curl[:, 2] += currents.j_m
    curl[:, 3] -= currents.j_e
    peak = np.abs(curl).max(axis=2)  # curl D, curl B, curl E + j_m, curl H - j_e
    cols = np.column_stack((div[:, 0], peak[:, 0], div[:, 1], peak[:, 1:]))
    keys = ("div_d", "curl_d", "div_b", "curl_b", "curl_e_jm", "curl_h_je")
    return tuple({"at": p.tolist(), **dict(zip(keys, map(float, row)))}
                 for p, row in zip(x, cols))


def continuous_residual_suite(src: ContinuousSource, params: ModelParams,
                              grid, quad: QuadratureSpec = None) -> dict:
    """FD residuals of the dyonic source equations on a probe grid.

    The flux fields D = f'(s)(E + kappa^2 (E.B) B) and B = H/f'(s) +
    kappa^2 (E.B) E, from one state_rows call at the 12 Richardson stencil
    nodes (step width/10) of every point, have FD divergences compared
    against rho_e and rho_m. Intended for sources with radial parts; with FD
    gradients the quadrature noise in u dominates the budget.
    """
    pts = np.asarray(grid, dtype=float).reshape(-1, 3)
    hs = np.array([0.5, 1.0]) * (src.width / 10.0)
    nodes, jacobian = _stencil(pts, np.broadcast_to(hs, (len(pts), 2)))
    _, b, e, h, s, _, code, errors = state_rows(src, params, nodes, quad)
    raise_first(code, errors)
    fp = params.derivative_rows(s, 1)[:, None]
    keb = (params.kappa**2 * rowdot(e, b))[:, None]
    flux = np.stack((fp * (e + keb * b), h / fp + keb * e), axis=1)
    div = np.trace(jacobian(flux), axis1=-2, axis2=-1)  # point, step, flux
    div = (4.0 * div[:, 0] - div[:, 1]) / 3.0
    rho = np.stack([np.zeros(len(pts)) if r is None else np.asarray(r(pts), dtype=float)
                    for r in (src.rho_e, src.rho_m)], axis=1)
    res, peak = np.abs(div - rho).max(axis=0, initial=0.0), np.abs(rho).max(axis=0, initial=0.0)
    return {"max_residual_e": float(res[0]), "max_residual_m": float(res[1]),
            "max_rho_e": float(peak[0]), "max_rho_m": float(peak[1]), "n_points": len(pts)}


def _verify_lambert(rng) -> dict:
    xs = np.concatenate([np.logspace(-12, 12, 200), rng.uniform(1e-6, 1e6, 200)])
    w = lambert_w_rows(xs)
    return _suite("lambert_identity", 1e-13, np.abs(w * np.exp(w) - xs) / xs)


def _verify_cubic(rng) -> dict:
    gamma, sigma2 = rng.uniform((-20.0, 0.0), (20.0, 50.0), size=(400, 2)).T
    a = smallest_positive_cubic_root_rows(gamma, sigma2)
    return _suite("cubic_residual", 1e-10,
                  np.abs((gamma + a) ** 2 * a - sigma2) / np.maximum(1.0, sigma2))


def _verify_round_trip(rng) -> dict:
    cfg = ChargeConfig.build([((1.0, 0.0, 0.0), 1.0, 0.4), ((-1.0, 0.5, 0.0), -2.0, 1.0)])
    kinds = [
        ModelParams.classical(beta=1.3),
        ModelParams.logarithmic(beta=0.8),
        ModelParams.exponential(beta=0.5),
        ModelParams.fractional_power(beta=1.1, p=1.7),
        ModelParams.quadratic(alpha=0.05),
    ]
    res = []
    pts = rng.uniform(-3.0, 3.0, size=(40, 3))
    pts = pts[_charge_distance(cfg, pts) >= 0.3]
    d, b = _superpose(_db_weights(cfg), *_coulomb_offsets(cfg, pts)[:2])
    scale = np.maximum(np.sqrt(np.maximum(rowdot(d, d), rowdot(b, b))), 1e-30)
    for base in kinds:
        for kappa in (0.0, 0.5, 1.0):
            params = dataclasses.replace(base, kappa=kappa)
            e, h, _, code, errors = invert_rows(params, d, b)
            # quadratic domain holes are legitimate; any other failure raises
            hole = np.array([False] + [isinstance(exc, DomainViolation) for exc in errors])[code]
            raise_first(np.where(hole, 0, code), errors)
            ok = code == 0
            # the forward map checks the rows inversion
            fd, fh, _, fcode, ferrors = forward_rows(params, e[ok], b[ok])
            raise_first(fcode, ferrors)
            fd, fh = fd - d[ok], fh - h[ok]
            res.extend(np.maximum(np.sqrt(rowdot(fd, fd)), np.sqrt(rowdot(fh, fh))) / scale[ok])
    return _suite("constitutive_round_trip", 1e-7, res)


def _verify_jacobi(rng) -> dict:
    res = []
    for _ in range(20):
        n = int(rng.integers(2, 5))
        cfg = ChargeConfig.build([
            (rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0), 0.0)
            for _ in range(n)
        ])
        xs = rng.uniform(-4.0, 4.0, (5, 3))
        for x in xs[_charge_distance(cfg, xs) >= 0.3]:
            res.append(float(np.max(np.abs(
                jm_classical_jacobi_term(cfg, 1.0, x)
            ))))
    return _suite("jacobi_partial_sum", 1e-12, res)


def _electric_pair() -> ChargeConfig:
    return ChargeConfig.build([
        ((1.0, 0.0, 0.0), 1.0, 0.0),
        ((-1.0, 0.0, 0.0), 2.0, 0.0),
    ])


def _verify_curl(rng, name: str, cfg: ChargeConfig, key: str) -> dict:
    """residual_suite's curl residual key of the classical (beta = 1) pair
    cfg at up to 12 random points at least 0.4 from its charges, one check
    per point that residual_suite evaluates."""
    pts = []
    for _ in range(200):
        if len(pts) == 12:
            break
        x = rng.uniform(-2.0, 2.0, 3)
        if _charge_distance(cfg, x)[0] >= 0.4:
            pts.append(x)
    details = residual_suite(cfg, ModelParams.classical(beta=1.0), np.reshape(pts, (-1, 3)))
    return _suite(name, 1e-5, [p[key] for p in details])


def _verify_curl_electric(rng) -> dict:
    return _verify_curl(rng, "electrostatic_curl_match", _electric_pair(), "curl_e_jm")


def _verify_curl_magnetic(rng) -> dict:
    cfg = ChargeConfig.build([
        ((1.0, 0.0, 0.0), 0.0, 1.0),
        ((-1.0, 0.0, 0.0), 0.0, 2.0),
    ])
    return _verify_curl(rng, "magnetostatic_curl_match", cfg, "curl_h_je")


def _verify_single_null(rng) -> dict:
    cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 1.5, 0.0)])
    cur = current_rows(ModelParams.classical(beta=1.0), cfg, rng.uniform(0.5, 2.0, size=(5, 3)))
    raise_first(cur.code, cur.errors)
    return _suite("single_charge_null_current", 1e-12, np.max(np.abs(cur.j_m), axis=1))


def _verify_flux(rng) -> dict:
    q, beta, R = 2.0, 1.0, 10.0
    cfg = ChargeConfig.build([((0.0, 0.0, 0.0), q, 0.0)])
    params = ModelParams.classical(beta=beta)
    quad = QuadratureSpec()
    eh = eh_field(params, cfg)
    flux = flux_charge(lambda pts: eh(pts)[:, 0], R, quad)
    exact = q / math.sqrt(1.0 + beta * q**2 / (16.0 * math.pi**2 * R**4))
    return _suite("flux_closed_form", 1e-10, [abs(flux - exact) / abs(exact)])


def _verify_free_charge(rng) -> dict:
    cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 2.0, 1.0)])
    params = ModelParams.classical(beta=1.0)
    free = free_charge_with_inner_spheres(cfg, params, QuadratureSpec())
    return _suite("dyon_free_charge", 1e-3,
                  [abs(free["q_free"] - 1.0), abs(free["g_free"] + 1.0)])


def _verify_energy(rng) -> dict:
    cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 1.0, 0.0)])
    params = ModelParams.classical(beta=1.0)
    quad = QuadratureSpec(rel_tol=1e-5)
    report = total_energy(cfg, params, quad)
    rel = abs(report.value - _UNIT_CHARGE_ENERGY) / _UNIT_CHARGE_ENERGY
    if not report.converged:
        rel = math.inf
    return _suite("total_energy_reference", 1e-4, [rel])


def _verify_saturation(rng) -> dict:
    res = []
    dirs = rng.standard_normal((5, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    d = (np.logspace(0.0, 8.0, 15)[:, None, None] * dirs).reshape(-1, 3)
    for beta in (0.5, 2.0):
        for params, bound in (
            (ModelParams.classical(beta=beta), 1.0 / math.sqrt(beta)),
            (ModelParams.logarithmic(beta=beta), math.sqrt(2.0 / beta)),
        ):
            e, _, _, code, errors = invert_rows(params, d, np.zeros_like(d))
            raise_first(code, errors)
            # float saturation may round onto the bound itself
            res.extend((np.sqrt(rowdot(e, e)) - bound) / bound)
    return _suite("saturation_bounds", 1e-15, res)


def _verify_maxwell_fields(rng) -> dict:
    params = ModelParams.fractional_power(beta=3.0, p=1.0)
    d, b = np.split(rng.uniform(-5.0, 5.0, size=(30, 6)), 2, axis=1)
    e, h, _, code, errors = invert_rows(params, d, b)
    raise_first(code, errors)
    return _suite("maxwell_limit_fields", 0.0,
                  np.maximum(np.max(np.abs(e - d), axis=1), np.max(np.abs(h - b), axis=1)))


def _verify_maxwell_currents(rng) -> dict:
    params = ModelParams.fractional_power(beta=2.0, p=1.0)
    cfg = _electric_pair()
    pts = rng.uniform(-2.0, 2.0, size=(5, 3))
    cur = current_rows(params, cfg, pts[_charge_distance(cfg, pts) >= 0.4])
    raise_first(cur.code, cur.errors)
    return _suite("maxwell_limit_currents", 1e-12,
                  np.maximum(np.max(np.abs(cur.j_e), axis=1), np.max(np.abs(cur.j_m), axis=1)))


def _verify_newton(rng) -> dict:
    from scipy.special import erf

    total, sigma = 2.0, 0.8
    src = gaussian_source(total=total, sigma=sigma)
    res = []
    for r in (0.5, 1.0, 2.0, 4.0):
        u = newton_potential(src, (r, 0.0, 0.0))
        exact = -total * float(erf(r / (math.sqrt(2.0) * sigma))) / (4.0 * math.pi * r)
        res.append(abs(u - exact) / abs(exact))
    return _suite("newton_potential_reference", 1e-5, res)


# the radial sources and points of the continuous suites, classical beta = 1.5
_RADIAL_PARAMS = ModelParams.classical(beta=1.5)
_RADIAL_POINTS = np.array([[0.7, 0.2, -0.4], [1.5, -1.0, 0.3]])


def _radial_sources() -> tuple:
    return gaussian_source(total=2.0, sigma=0.8), bump_source(total=2.0, radius=1.5)


def _verify_radial_curl(rng) -> dict:
    res = []
    for src in _radial_sources():
        d, _, e, _, _, hess, code, errors = state_rows(src, _RADIAL_PARAMS, _RADIAL_POINTS)
        j_m = jm_rows(src, _RADIAL_PARAMS, _RADIAL_POINTS, None, d, e, hess, code, errors)
        raise_first(code, errors)
        res.extend(np.max(np.abs(j_m), axis=1))
    return _suite("radial_curl_free", 1e-6, res)


def _verify_gauss_law(rng) -> dict:
    """|div D - rho_e| relative to the largest rho_e at the points, one
    check per source."""
    res = []
    for src in _radial_sources():
        report = continuous_residual_suite(src, _RADIAL_PARAMS, _RADIAL_POINTS)
        res.append(report["max_residual_e"] / report["max_rho_e"])
    return _suite("continuous_gauss_law", 1e-5, res)


SUITES = (
    _verify_lambert,
    _verify_cubic,
    _verify_round_trip,
    _verify_jacobi,
    _verify_curl_electric,
    _verify_curl_magnetic,
    _verify_single_null,
    _verify_flux,
    _verify_free_charge,
    _verify_energy,
    _verify_saturation,
    _verify_maxwell_fields,
    _verify_maxwell_currents,
    _verify_newton,
    _verify_radial_curl,
    _verify_gauss_law,
)


def run_suites(rng) -> list:
    """The report of every suite in SUITES, in order, all drawing from rng;
    one line per suite is printed as it finishes."""
    suites = []
    for fn in SUITES:
        suite = fn(rng)
        suites.append(suite)
        status = "ok  " if suite["passed"] else "FAIL"
        worst = suite["max_residual"]
        shown = f"{worst:.3e}" if worst is not None else (
            "non-finite" if suite["n_checks"] else "none")
        print(f"{status} {suite['name']:<28} max {shown} "
              f"tol {suite['tolerance']:.1e} ({suite['n_checks']} checks)")
    return suites
