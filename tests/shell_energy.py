"""Reference for bifield.observables.total_energy: the ball, shell and tail
integrator it replaced.

The energy is a ball integral around each charge, marched decade by decade
from the cell scale down to the exclusion radius on log-spaced Gauss nodes;
a shell around the centroid out to the outer flux sphere's radius with the
balls masked out; and
shell doublings [R, 2R] until a doubling agrees with the monopole's share
(Q^2 + G^2)/(16 pi R), after which the monopole tail (Q^2 + G^2)/(8 pi 2R)
takes over. The masked shell's integrand is discontinuous in angle, so two
of its levels can agree while both are off by more than rel_tol: the tests
judge this reference by its measured error against independent oracles,
never by its converged flag.
"""

import math

import numpy as np

from bifield.observables import (
    EnergyReport,
    QuadratureSpec,
    _far_radius,
    _panel_nodes,
    _sphere_rule,
    hamiltonian_on_points,
)
from bifield.sources import ChargeConfig

_BALL_ANGULAR = (16, 32)       # (mu nodes, phi nodes) for per-charge balls
_SHELL_ANGULAR = (12, 24)      # base rule for the bounded shell, scaled per level
_RADIAL_NODES_PER_DECADE = 8
_MAX_TAIL_DOUBLINGS = 24


def _log_radial_rule(r_lo: float, r_hi: float, nodes_per_decade: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes in t = ln r, one panel per decade; weights
    include the r^3 jacobian of integral(F r^2 dr) = integral(F r^3 dt)."""
    t_lo, t_hi = math.log(r_lo), math.log(r_hi)
    decades = (t_hi - t_lo) / math.log(10.0)
    t, w = _panel_nodes(t_lo, t_hi, max(1, math.ceil(decades)), max(4, nodes_per_decade))
    r = np.exp(t)
    return r, w * r**3


def _linear_radial_rule(r_lo: float, r_hi: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    r, w = _panel_nodes(r_lo, r_hi, 1, max(4, n_nodes))
    return r, w * r**2


def _ball_energy(params, cfg: ChargeConfig, index: int, quad: QuadratureSpec) -> tuple[float, bool]:
    """Integral of H over the ball around one charge, and whether it
    converged: not when the value passes 1/abs_tol, nor when the innermost
    three decades keep growing (the kappa = 0 dyon)."""
    center = cfg.positions[index]
    dirs, w_ang = _sphere_rule(*_BALL_ANGULAR)
    n_dec = max(1, math.ceil(math.log10(cfg.cell_scale / cfg.exclusion_radius)))
    edges = np.geomspace(cfg.cell_scale, cfg.exclusion_radius, n_dec + 1)
    acc = 0.0
    contribs = []
    for r_hi, r_lo in zip(edges[:-1], edges[1:]):
        rs, wr = _log_radial_rule(r_lo, r_hi, _RADIAL_NODES_PER_DECADE)
        pts = center + rs[:, None, None] * dirs
        h = hamiltonian_on_points(params, cfg, pts.reshape(-1, 3)).reshape(len(rs), len(dirs))
        contribs.append(float(np.einsum("r,a,ra->", wr, w_ang, h)))
        acc += contribs[-1]
        if acc > 1.0 / quad.abs_tol:
            return acc, False
    if len(contribs) >= 3:
        c1, c2, c3 = contribs[-3:]
        if c3 >= 0.999 * c2 and c2 >= 0.999 * c1 and c3 > quad.rel_tol * max(acc, quad.abs_tol):
            return acc, False
    return acc, True


def _shell_segments(cfg: ChargeConfig, r_lo: float, r_hi: float) -> list:
    """Radial segments of [r_lo, r_hi] around the centroid, split where
    spheres start or stop intersecting the per-charge balls."""
    center = cfg.centroid
    cuts = {r_lo, r_hi}
    for pos in cfg.positions:
        d = float(np.linalg.norm(pos - center))
        for c in (d - cfg.cell_scale, d + cfg.cell_scale):
            if r_lo < c < r_hi:
                cuts.add(c)
    edges = sorted(cuts)
    return list(zip(edges[:-1], edges[1:]))


def _shell_energy_once(params, cfg, r_lo, r_hi, n_mu, n_phi, radial_factor) -> float:
    """One level of the shell quadrature over [r_lo, r_hi], the nodes inside
    a ball left out."""
    center = cfg.centroid
    dirs, w_ang = _sphere_rule(n_mu, n_phi)
    total = 0.0
    nodes = _RADIAL_NODES_PER_DECADE * radial_factor
    for a, b in _shell_segments(cfg, r_lo, r_hi):
        if b - a <= 0.0:
            continue
        if a <= 1e-12 * r_hi:
            rs, wr = _linear_radial_rule(a, b, 2 * nodes)
        else:
            rs, wr = _log_radial_rule(a, b, nodes)
        flat = (center + rs[:, None, None] * dirs).reshape(-1, 3)
        dist = np.linalg.norm(flat[:, None, :] - cfg.positions[None, :, :], axis=-1)
        outside = np.all(dist > cfg.cell_scale, axis=1)
        h = np.zeros(len(flat))
        if np.any(outside):
            h[outside] = hamiltonian_on_points(params, cfg, flat[outside])
        total += float(np.einsum("r,a,ra->", wr, w_ang, h.reshape(len(rs), len(dirs))))
    return total


def _shell_energy(params, cfg, quad, r_lo, r_hi, rest: float) -> tuple[float, bool]:
    """The shell refined (orders times 2, 3, ...) until two levels agree
    within rel_tol of rest plus the shell; else the last level and False."""
    n_mu, n_phi = _SHELL_ANGULAR
    prev = _shell_energy_once(params, cfg, r_lo, r_hi, n_mu, n_phi, 1)
    for level in range(1, quad.max_subdivisions + 1):
        scale = level + 1
        cur = _shell_energy_once(params, cfg, r_lo, r_hi, scale * n_mu, scale * n_phi, scale)
        if abs(cur - prev) <= quad.rel_tol * max(abs(rest + cur), quad.abs_tol):
            return cur, True
        prev = cur
    return prev, False


def shell_total_energy(cfg: ChargeConfig, params, quad: QuadratureSpec) -> EnergyReport:
    """Balls + masked shell + doublings + monopole tail, with parts
    "balls", "shell", "tail" and "far_radius_used". The near-charge
    exponents are not probed (NaN)."""
    balls, converged = [], True
    for i in range(len(cfg)):
        val, ok = _ball_energy(params, cfg, i, quad)
        balls.append(val)
        converged = converged and ok
    r_start = cfg.cell_scale if len(cfg) == 1 else 0.0
    shell, ok = _shell_energy(params, cfg, quad, r_start, _far_radius(cfg), sum(balls))
    converged = converged and ok
    monopole = (math.fsum(cfg.qs)**2 + math.fsum(cfg.gs)**2) / (8.0 * math.pi)
    r_far = _far_radius(cfg)
    extensions = 0.0
    for _ in range(_MAX_TAIL_DOUBLINGS):
        extension, ok = _shell_energy(params, cfg, quad, r_far, 2.0 * r_far,
                                      sum(balls) + shell + extensions)
        extensions += extension
        converged = converged and ok
        deviation = extension - monopole / (2.0 * r_far)
        r_far *= 2.0
        tail = monopole / r_far
        if abs(deviation) <= quad.rel_tol * max(abs(sum(balls) + shell + extensions + tail), quad.abs_tol):
            break
    else:
        converged = False
    return EnergyReport(
        value=sum(balls) + shell + extensions + tail,
        converged=converged,
        near_charge_exponents=(math.nan,) * len(cfg),
        parts={"balls": balls, "shell": shell + extensions, "tail": tail, "far_radius_used": r_far},
    )
