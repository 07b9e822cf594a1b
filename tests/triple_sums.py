"""Term-by-term reference for the closed-form currents.

The induced currents written out as fsum-accumulated sums over charge pairs
and triples, O(n^3) per point. bifield.currents evaluates the same
quantities in factored form (a prefactor times grad(F^2) x F from one O(n)
Coulomb kernel); the tests hold the two against each other. The two-centre
closed form of the electrostatic current is kept here as a third, fully
explicit reference.

The Coulomb fields themselves are fsum-accumulated too (_coulomb_sum and
_coulomb_potential_sum): the correctly rounded reference for the einsum
kernel in bifield.sources, and the D and B every sum here is built from.
coulomb_rows is that kernel on its own, the rows field the tests feed to
the quadratures and compare against.

flux_charge_pointwise is the sphere-flux quadrature calling its field once
per node, the reference for bifield.observables.flux_charge, which calls a
rows field once per refinement level; pointwise turns a per-point field
into such a rows field. eh_pointwise is E and H from one call per point of
the scalar oracle's dyonic_eh (scalar_inversions), the reference for
bifield.currents.eh_field.
"""

import math
from typing import Callable, Sequence

import numpy as np

from bifield.constitutive import rowdot
from bifield.errors import QuadratureError, raise_first
from bifield.models import ModelParams
from bifield.observables import QuadratureSpec, _sphere_rule
from bifield.sources import (FOUR_PI, ChargeConfig, _coulomb_offsets, _db_weights, _superpose,
                             as_vec3, mark_singular)
from scalar_inversions import dyonic_eh, electrostatic_e, f_double_prime, f_prime

_FOUR_PI = 4.0 * math.pi


def coulomb_rows(cfg: ChargeConfig, weights: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """F = sum_j w_j r_j / (4 pi |r_j|^3) at points of shape (N, 3), from the
    kernel in bifield.sources; no exclusion ball is checked."""
    return _superpose(weights, *_coulomb_offsets(cfg, pts)[:2])


def _check_regular(cfg: ChargeConfig, x) -> np.ndarray:
    """x as a vec3, raising SingularPoint inside an exclusion ball."""
    x = as_vec3(x)
    code, errors = np.zeros(1, dtype=np.int64), []
    mark_singular(cfg, x[None, :], code, errors, _coulomb_offsets(cfg, x[None, :])[2])
    raise_first(code, errors)
    return x


def _coulomb_sum(cfg: ChargeConfig, weights: Sequence[float], x) -> np.ndarray:
    """sum_i w_i (x - x_i) / (4 pi |x - x_i|^3), fsum-accumulated per component."""
    x = _check_regular(cfg, x)
    terms = []
    for c, w in zip(cfg.charges, weights):
        r = x - c.position
        rn = float(np.linalg.norm(r))
        terms.append(w / (FOUR_PI * rn**3) * r)
    return np.array(
        [math.fsum(t[k] for t in terms) for k in range(3)]
    )


def _coulomb_potential_sum(cfg: ChargeConfig, weights: Sequence[float], x) -> float:
    """sum_i w_i / (4 pi |x - x_i|), fsum-accumulated."""
    x = _check_regular(cfg, x)
    return math.fsum(
        w / (FOUR_PI * float(np.linalg.norm(x - c.position)))
        for c, w in zip(cfg.charges, weights)
    )


def displacement_field(cfg: ChargeConfig, x) -> np.ndarray:
    return _coulomb_sum(cfg, cfg.qs, x)


def magnetic_field(cfg: ChargeConfig, x) -> np.ndarray:
    return _coulomb_sum(cfg, cfg.gs, x)


def _offsets(cfg: ChargeConfig, x) -> tuple[np.ndarray, np.ndarray]:
    """Displacements r_i = x - x_i and their norms, singularity-checked."""
    x = _check_regular(cfg, x)
    rs = x[None, :] - cfg.positions
    norms = np.linalg.norm(rs, axis=1)
    return rs, norms


def _curl_triple_sum(weights: np.ndarray, rs: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """sum_{ijk} c_i c_j c_k (r_j . r_k) r_i x (r_j/|r_j|^2 + r_k/|r_k|^2).

    with c_i = w_i / |r_i|^3. This is the angular structure shared by every
    single-species current; prefactors are applied by the callers.
    """
    n = len(weights)
    c = weights / norms**3
    u = rs / norms[:, None] ** 2
    parts = ([], [], [])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                scale = c[i] * c[j] * c[k] * float(rs[j] @ rs[k])
                vec = np.cross(rs[i], u[j] + u[k])
                for comp in range(3):
                    parts[comp].append(scale * vec[comp])
    return np.array([math.fsum(p) for p in parts])


def _mixed_triple_sum(wa: np.ndarray, wb: np.ndarray, rs: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """sum_{ijk} a_i b_j b_k r_i x [(r_j + r_k) - 3 (r_j . r_k)(r_j/|r_j|^2 + r_k/|r_k|^2)].

    with a_i = wa_i / |r_i|^3, b_j = wb_j / |r_j|^3. This is A x grad(F_B^2)
    written out for two Coulomb superpositions A and F_B; the (r_j + r_k)
    part no longer cancels because the species weights differ.
    """
    n = len(norms)
    a = wa / norms**3
    b = wb / norms**3
    u = rs / norms[:, None] ** 2
    parts = ([], [], [])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                inner = (rs[j] + rs[k]) - 3.0 * float(rs[j] @ rs[k]) * (u[j] + u[k])
                vec = a[i] * b[j] * b[k] * np.cross(rs[i], inner)
                for comp in range(3):
                    parts[comp].append(vec[comp])
    return np.array([math.fsum(p) for p in parts])


def jm_classical_electrostatic(cfg: ChargeConfig, beta: float, x) -> np.ndarray:
    """Magnetic current density of the classical multicentered electric field.

    j_m = 3 beta / (2 (4 pi)^3 (1 + beta D^2)^{3/2}) * triple sum, and
    curl E = -j_m for E = D / sqrt(1 + beta D^2). Uses the electric charges
    only; exactly zero for a single center.
    """
    rs, norms = _offsets(cfg, x)
    d = displacement_field(cfg, x)
    d2 = float(d @ d)
    pref = 3.0 * beta / (2.0 * _FOUR_PI**3 * (1.0 + beta * d2) ** 1.5)
    return pref * _curl_triple_sum(cfg.qs, rs, norms)


def jm_classical_electrostatic_pair(cfg: ChargeConfig, beta: float, x) -> np.ndarray:
    """Dedicated two-center closed form of jm_classical_electrostatic.

    j_m = 3 beta q1 q2 / ((4 pi)^3 (1+beta D^2)^{3/2} |r1|^3 |r2|^3)
          * [ (r1.r2)/(|r1|^2 |r2|^2) (q1/|r1| - q2/|r2|)
              + q2/|r2|^3 - q1/|r1|^3 ] (r1 x r2)
    """
    if len(cfg) != 2:
        raise ValueError("pair formula requires exactly two charges")
    rs, norms = _offsets(cfg, x)
    q1, q2 = cfg.qs
    r1, r2 = rs
    n1, n2 = norms
    d = displacement_field(cfg, x)
    d2 = float(d @ d)
    pref = 3.0 * beta * q1 * q2 / (_FOUR_PI**3 * (1.0 + beta * d2) ** 1.5 * n1**3 * n2**3)
    bracket = (
        float(r1 @ r2) / (n1**2 * n2**2) * (q1 / n1 - q2 / n2)
        + q2 / n2**3
        - q1 / n1**3
    )
    return pref * bracket * np.cross(r1, r2)


def je_classical_magnetostatic(cfg: ChargeConfig, beta: float, x) -> np.ndarray:
    """Electric current density of the classical multicentered magnetic field.

    curl H = j_e for H = B / sqrt(1 + beta B^2); same triple sum as the
    electric case with g_i in place of q_i and the opposite overall sign.
    """
    rs, norms = _offsets(cfg, x)
    b = magnetic_field(cfg, x)
    b2 = float(b @ b)
    pref = -3.0 * beta / (2.0 * _FOUR_PI**3 * (1.0 + beta * b2) ** 1.5)
    return pref * _curl_triple_sum(cfg.gs, rs, norms)


def jm_classical_dyonic_k0(cfg: ChargeConfig, beta: float, x) -> np.ndarray:
    """Magnetic current density for the classical kappa = 0 dyonic solution.

    E = sqrt((1+beta B^2)/(1+beta D^2)) D, and

        j_m = sqrt(1 + beta B^2) * j_m(electric part)
              + beta / (2 (4 pi)^3 sqrt(1+beta D^2) sqrt(1+beta B^2))
                * sum_{ijk} q_i g_j g_k r_i x [(r_j + r_k)
                      - 3 (r_j . r_k)(r_j/|r_j|^2 + r_k/|r_k|^2)] / (...)

    The second term is D/sqrt(1+beta D^2) x grad sqrt(1+beta B^2) written
    out; it vanishes when all g_i = 0, recovering the electrostatic current.
    """
    rs, norms = _offsets(cfg, x)
    d = displacement_field(cfg, x)
    b = magnetic_field(cfg, x)
    d2 = float(d @ d)
    b2 = float(b @ b)
    jm2 = jm_classical_electrostatic(cfg, beta, x)
    pref3 = beta / (2.0 * _FOUR_PI**3 * math.sqrt(1.0 + beta * d2) * math.sqrt(1.0 + beta * b2))
    jm3 = pref3 * _mixed_triple_sum(cfg.qs, cfg.gs, rs, norms)
    return math.sqrt(1.0 + beta * b2) * jm2 + jm3


def je_classical_dyonic_k0(cfg: ChargeConfig, beta: float, x) -> np.ndarray:
    """Electric current density for the classical kappa = 0 dyonic solution.

    H = sqrt((1+beta D^2)/(1+beta B^2)) B, so by the product rule

        j_e = sqrt(1 + beta D^2) * j_e(magnetic part)
              - beta / (2 (4 pi)^3 sqrt(1+beta B^2) sqrt(1+beta D^2))
                * sum_{ijk} g_i q_j q_k r_i x [(r_j + r_k)
                      - 3 (r_j . r_k)(r_j/|r_j|^2 + r_k/|r_k|^2)] / (...)

    This is the electric-magnetic mirror of jm_classical_dyonic_k0; the
    relative sign flips because j_e = +curl H while j_m = -curl E.
    """
    rs, norms = _offsets(cfg, x)
    d = displacement_field(cfg, x)
    b = magnetic_field(cfg, x)
    d2 = float(d @ d)
    b2 = float(b @ b)
    je2 = je_classical_magnetostatic(cfg, beta, x)
    pref3 = beta / (2.0 * _FOUR_PI**3 * math.sqrt(1.0 + beta * d2) * math.sqrt(1.0 + beta * b2))
    je3 = pref3 * _mixed_triple_sum(cfg.gs, cfg.qs, rs, norms)
    return math.sqrt(1.0 + beta * d2) * je2 - je3


def jm_generic_electrostatic(params: ModelParams, cfg: ChargeConfig, x) -> np.ndarray:
    """Magnetic current density of the electrostatic solution for any model.

    With h = h(D^2) the solution of (f'(h/2))^2 h = D^2 (so h = E^2),

        j_m = 3 f''(h/2) h'(D^2) / (2 (4 pi)^3 f'(h/2)^2) * triple sum

    where h' comes from differentiating the inversion identity implicitly:
    h' = 1 / (f'(h/2) [f''(h/2) h + f'(h/2)]). Differencing the root finder
    instead would be noise-dominated. curl E = -j_m. Linear electrodynamics
    (f'' = 0) gives zero identically.
    """
    rs, norms = _offsets(cfg, x)
    d = displacement_field(cfg, x)
    e = electrostatic_e(params, d)
    h = float(e @ e)
    fp = f_prime(params, 0.5 * h)
    fpp = f_double_prime(params, 0.5 * h)
    if fpp == 0.0:
        return np.zeros(3)
    hprime = 1.0 / (fp * (fpp * h + fp))
    pref = 3.0 * fpp * hprime / (2.0 * _FOUR_PI**3 * fp**2)
    return pref * _curl_triple_sum(cfg.qs, rs, norms)


def grad_field_square(cfg: ChargeConfig, x, which: str = "magnetic") -> np.ndarray:
    """Analytic gradient of D^2 or B^2 for a Coulomb superposition.

    grad(F^2) = (4 pi)^{-2} sum_{jk} w_j w_k [ (r_j + r_k)
                 - 3 (r_j . r_k)(r_j/|r_j|^2 + r_k/|r_k|^2) ] / (|r_j|^3 |r_k|^3)
    """
    rs, norms = _offsets(cfg, x)
    weights = cfg.gs if which == "magnetic" else cfg.qs
    c = weights / norms**3
    u = rs / norms[:, None] ** 2
    n = len(cfg)
    parts = ([], [], [])
    for j in range(n):
        for k in range(n):
            vec = c[j] * c[k] * ((rs[j] + rs[k]) - 3.0 * float(rs[j] @ rs[k]) * (u[j] + u[k]))
            for comp in range(3):
                parts[comp].append(vec[comp])
    return np.array([math.fsum(p) for p in parts]) / _FOUR_PI**2


def je_generic_magnetostatic(params: ModelParams, cfg: ChargeConfig, x) -> np.ndarray:
    """Electric current density of the magnetostatic solution for any model.

    j_e = (1/2) f''(-B^2/2) B x grad(B^2), which is curl of H = f'(-B^2/2) B.
    Vanishes for a single center (B parallel to grad B^2) and for linear
    electrodynamics.
    """
    x = _check_regular(cfg, x)
    b = magnetic_field(cfg, x)
    b2 = float(b @ b)
    fpp = f_double_prime(params, -0.5 * b2)
    if fpp == 0.0:
        return np.zeros(3)
    return 0.5 * fpp * np.cross(b, grad_field_square(cfg, x, which="magnetic"))


def eh_pointwise(params: ModelParams, cfg: ChargeConfig) -> Callable:
    """The field y (3,) -> stack(E, H), one Coulomb pass and one dyonic_eh
    call per point."""
    weights = _db_weights(cfg)

    def field(y):
        d, b = coulomb_rows(cfg, weights, as_vec3(y)[None, :])[:, 0]
        e, h, _ = dyonic_eh(params, d, b)
        return np.stack((e, h))

    return field


def pointwise(field: Callable) -> Callable:
    """The rows field pts (M, 3) -> (M, ..., 3) of a per-point field."""
    return lambda pts: np.array([field(y) for y in pts])


def flux_charge_pointwise(field: Callable, R: float, quad: QuadratureSpec,
                          center=(0.0, 0.0, 0.0)) -> float | np.ndarray:
    """flux_charge with a per-point field y (3,) -> (..., 3), called once
    per sphere node."""
    center = as_vec3(center)
    n_mu, n_phi = 8, 16
    prev = flux = done = None
    for _ in range(quad.max_subdivisions + 1):
        dirs, w_ang = _sphere_rule(n_mu, n_phi)
        vals = [np.asarray(field(p), dtype=float) for p in center[None, :] + R * dirs]
        shape = vals[0].shape[:-1]
        rows = np.array(vals).reshape(len(dirs), -1, 3)
        # rowdot rounds each normal component like a scalar 3-term dot, so a
        # stacked field keeps the bits of separate ones
        normal = np.array([rowdot(rows[:, m], dirs) for m in range(rows.shape[1])])
        cur = np.array([R**2 * float(w_ang @ row) for row in normal])
        if prev is None:
            flux, done = cur.copy(), np.zeros(len(cur), dtype=bool)
        else:
            fresh = ~done & (np.abs(cur - prev) <= quad.rel_tol * np.maximum(np.abs(cur), quad.abs_tol))
            flux[fresh] = cur[fresh]
            done |= fresh
            if np.all(done):
                return float(flux[0]) if shape == () else flux.reshape(shape)
        prev = cur
        n_mu *= 2
        n_phi *= 2
    raise QuadratureError(f"flux quadrature did not stabilize at R={R!r}")
