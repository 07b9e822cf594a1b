"""Induced current densities for multicentered point-charge fields.

A single point charge produces purely radial E and H fields that are
gradients, hence curl-free. With two or more centers the nonlinearity couples
the Coulomb terms and static current densities appear:

    curl E = -j_m        (induced magnetic current density)
    curl H = +j_e        (induced electric current density)

This module evaluates the closed-form triple sums for j_m and j_e in the
classical square-root model, their generalization to an arbitrary response
function, and the kappa = 0 dyonic composition. Finite-difference curl and
divergence operators are provided as independent oracles; every analytic
current here is cross-checked against them in the test suite.

All sums are accumulated with math.fsum per component so that exact
cancellations (single center, collinear geometry, the vector identity
a x (b+c) + b x (c+a) + c x (a+b) = 0) survive at the 1e-12 level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SingularPoint
from .models import ModelParams, CLASSICAL
from .sources import ChargeConfig, as_vec3, displacement_field, magnetic_field
from .constitutive import dyonic_eh, electrostatic_e

__all__ = [
    "CurrentSample",
    "jm_classical_electrostatic",
    "jm_classical_electrostatic_pair",
    "jm_classical_jacobi_term",
    "je_classical_magnetostatic",
    "jm_classical_dyonic_k0",
    "je_classical_dyonic_k0",
    "jm_generic_electrostatic",
    "je_generic_magnetostatic",
    "grad_field_square",
    "eh_field",
    "fd_curl",
    "fd_div",
    "fd_step",
    "stencil_is_clear",
    "current_at",
]

_FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class CurrentSample:
    """Current densities evaluated at one point.

    method records how the values were obtained: "analytic" for the closed
    forms, "fd" when only the finite-difference curl of the inverted fields
    is available (mixed dyonic configurations beyond the classical kappa = 0
    case).
    """

    j_e: np.ndarray
    j_m: np.ndarray
    at: np.ndarray
    method: str = "analytic"

    def __post_init__(self):
        if not (np.all(np.isfinite(self.j_e)) and np.all(np.isfinite(self.j_m))):
            raise ValueError("current sample has non-finite components")


def _offsets(cfg: ChargeConfig, x) -> tuple[np.ndarray, np.ndarray]:
    """Displacements r_i = x - x_i and their norms, singularity-checked."""
    x = cfg.check_regular(x)
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


def jm_classical_jacobi_term(cfg: ChargeConfig, beta: float, x) -> np.ndarray:
    """The partial triple sum that the vector identity kills.

    j_m^1 = -beta / (2 (4 pi)^3 (1 + beta D^2)^{3/2})
            * sum_{ijk} q_i q_j q_k r_i x (r_j + r_k) / (|r_i|^3 |r_j|^3 |r_k|^3)

    Identically zero by a x (b+c) + b x (c+a) + c x (a+b) = 0; evaluated
    term by term here as a floating-point witness of that cancellation.
    """
    rs, norms = _offsets(cfg, x)
    d = displacement_field(cfg, x)
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
    pref = -beta / (2.0 * _FOUR_PI**3 * (1.0 + beta * d2) ** 1.5)
    return pref * np.array([math.fsum(p) for p in parts])


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
    fp = params.f_prime(0.5 * h)
    fpp = params.f_double_prime(0.5 * h)
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
    x = cfg.check_regular(x)
    b = magnetic_field(cfg, x)
    b2 = float(b @ b)
    fpp = params.f_double_prime(-0.5 * b2)
    if fpp == 0.0:
        return np.zeros(3)
    return 0.5 * fpp * np.cross(b, grad_field_square(cfg, x, which="magnetic"))


def fd_step(x, scale: float = 1e-4) -> float:
    """Default stencil half-width: scale * max(1, |x|)."""
    x = as_vec3(x)
    return scale * max(1.0, float(np.linalg.norm(x)))


def _fd_jacobian(field: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """J[..., i, j] = dF_i/dx_j by second-order central differences.

    field returns an array of shape (..., 3); each leading index is a
    separate vector field, differenced on the same six stencil nodes.
    """
    cols = []
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        fp = np.asarray(field(x + step), dtype=float)
        fm = np.asarray(field(x - step), dtype=float)
        cols.append((fp - fm) / (2.0 * h))
    return np.stack(cols, axis=-1)


def fd_curl(field: Callable, x, step: Optional[float] = None, richardson: bool = False) -> np.ndarray:
    """Finite-difference curl of a vector field at x.

    Second-order central differences with half-width step (default
    1e-4 * max(1, |x|)). With richardson=True the two-step extrapolation
    (4 c(h/2) - c(h)) / 3 removes the leading error term. A field of shape
    (..., 3) gives curls of the same shape, one per leading index. Raises
    whatever the field raises on stencil nodes (e.g. SingularPoint near a
    charge).
    """
    x = as_vec3(x)
    h = fd_step(x) if step is None else float(step)

    def curl_at(hh: float) -> np.ndarray:
        j = _fd_jacobian(field, x, hh)
        return np.stack([j[..., 2, 1] - j[..., 1, 2], j[..., 0, 2] - j[..., 2, 0],
                         j[..., 1, 0] - j[..., 0, 1]], axis=-1)

    if not richardson:
        return curl_at(h)
    return (4.0 * curl_at(0.5 * h) - curl_at(h)) / 3.0


def fd_div(field: Callable, x, step: Optional[float] = None, richardson: bool = False) -> float:
    """Finite-difference divergence of a vector field at x."""
    x = as_vec3(x)
    h = fd_step(x) if step is None else float(step)

    def div_at(hh: float) -> float:
        return float(np.trace(_fd_jacobian(field, x, hh)))

    if not richardson:
        return div_at(h)
    return (4.0 * div_at(0.5 * h) - div_at(h)) / 3.0


def eh_field(params: ModelParams, cfg: ChargeConfig) -> Callable:
    """The field y -> stack(E, H), shape (2, 3), with one inversion per point.

    fd_curl of it gives curl E and curl H from the same stencil nodes.
    """

    def field(y):
        e, h, _ = dyonic_eh(params, displacement_field(cfg, y), magnetic_field(cfg, y))
        return np.stack((e, h))

    return field


def stencil_is_clear(cfg: ChargeConfig, x, step: float) -> bool:
    """True when every node of the 6-point stencil stays outside the
    charge exclusion balls. Sweeps skip points that fail this, so the FD
    oracles are never contaminated by near-singular values."""
    x = as_vec3(x)
    return cfg.min_distance(x) > step + cfg.exclusion_radius


def current_at(params: ModelParams, cfg: ChargeConfig, x) -> CurrentSample:
    """Evaluate (j_e, j_m) at x, choosing the best available route.

    Electric-only and magnetic-only configurations and the classical
    kappa = 0 dyonic case use the closed forms. Mixed configurations in any
    other model (or kappa > 0) have no derived closed form, so the currents
    are measured as finite-difference curls of the inverted E and H fields
    and tagged method="fd".
    """
    x = cfg.check_regular(x)
    electric_only = bool(np.all(cfg.gs == 0.0))
    magnetic_only = bool(np.all(cfg.qs == 0.0))

    if electric_only:
        if params.kind == CLASSICAL:
            jm = jm_classical_electrostatic(cfg, params.beta, x)
        else:
            jm = jm_generic_electrostatic(params, cfg, x)
        return CurrentSample(j_e=np.zeros(3), j_m=jm, at=x)

    if magnetic_only:
        if params.kind == CLASSICAL:
            je = je_classical_magnetostatic(cfg, params.beta, x)
        else:
            je = je_generic_magnetostatic(params, cfg, x)
        return CurrentSample(j_e=je, j_m=np.zeros(3), at=x)

    if params.kind == CLASSICAL and params.kappa == 0.0:
        jm = jm_classical_dyonic_k0(cfg, params.beta, x)
        je = je_classical_dyonic_k0(cfg, params.beta, x)
        return CurrentSample(j_e=je, j_m=jm, at=x)

    h = fd_step(x)
    if not stencil_is_clear(cfg, x, h):
        raise SingularPoint("finite-difference stencil enters a charge exclusion ball")
    curl_e, curl_h = fd_curl(eh_field(params, cfg), x, step=h, richardson=True)
    return CurrentSample(j_e=curl_h, j_m=-curl_e, at=x, method="fd")
