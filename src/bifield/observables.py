"""Global observables: energy densities, total energies, flux charges.

Three families of quantities live here:

* the Hamiltonian energy density of a field state, in the model-generic form
  H = f'(s)(E^2 + kappa^2 (E.B)^2) - f(s), evaluated over point arrays from
  one currents.StateRows record (of currents.eh_rows or
  continuous.state_rows), with a vectorized closed form in D and B for the
  classical square-root model;
* the total energy by one multicentre rule, Becke's fuzzy cells: each
  centre integrates its smooth share of H on a mapped radial rule that
  reaches infinity, with divergence detected rather than extrapolated;
* flux-defined free charges on spheres and the near-charge
  divergence-exponent probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigError, DomainViolation, QuadratureError, SingularPoint, fail_rows,
                     raise_first)
from .models import ModelParams, CLASSICAL, QUADRATIC
from .sources import ChargeConfig, _coulomb_offsets, as_vec3
from .constitutive import _branch, cross_rows, rowdot
from .currents import StateRows, eh_field, eh_rows

__all__ = [
    "QuadratureSpec",
    "EnergyReport",
    "classical_energy_density",
    "hamiltonian_on_points",
    "density_rows",
    "total_energy",
    "flux_charge",
    "flux_spheres",
    "free_charge_with_inner_spheres",
    "divergence_exponent_probe",
    "default_probe_radii",
]

# generic ray direction for near-charge probes; avoids the coordinate axes
# and any pair axis a test configuration is likely to use
_PROBE_RAY = np.array([0.36514837, 0.52827334, 0.76698920])
_PROBE_RAY = _PROBE_RAY / np.linalg.norm(_PROBE_RAY)

_FLUX_CHUNK = 32768            # quadrature nodes per field call, which bounds memory
# a near-charge slope at or below this makes r^2 H non-integrable; the margin
# over -3 keeps a logarithmic divergence from passing on a rounding error
_DIVERGENT_SLOPE = -2.95


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the energy, flux and Newton-potential quadratures.

    Their geometry comes from the charge configuration: the radial scale
    ChargeConfig.cell_scale, the exclusion balls of radius
    ChargeConfig.exclusion_radius, and the outer flux sphere _far_radius.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-6
    max_subdivisions: int = 8

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ConfigError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ConfigError("max_subdivisions must be at least 1")


def _far_radius(cfg: ChargeConfig) -> float:
    """The radius of the outer flux sphere about the centroid, beyond every
    charge and its cell: max(4 (diameter + cell_scale), 10 cell_scale)."""
    return max(4.0 * (cfg.diameter + cfg.cell_scale), 10.0 * cfg.cell_scale)


@dataclass(frozen=True)
class EnergyReport:
    """A total energy and its parts: "cells" (each centre's fuzzy-cell
    integral at the level reported; value is their sum), "levels" (the
    levels of the rule evaluated) and "nodes" (the density evaluations of
    all those levels)."""

    value: float
    converged: bool
    near_charge_exponents: tuple
    parts: dict = dataclass_field(default_factory=dict)


# -- energy densities --------------------------------------------------------


def classical_energy_density(beta: float, kappa: float, d, b) -> np.ndarray:
    """Closed-form classical density from (D, B), vectorized.

    H = (B^2 R1 R2 + (1 + beta B^2)(D^2 + kappa^2 |BxD|^2)) / (R1 (R1 + R2))
    with R1 = sqrt((1+beta B^2)(1+kappa^2 B^2)) and
    R2 = sqrt(1 + beta D^2 + kappa^2 B^2 + beta kappa^2 |BxD|^2). Accepts
    arrays of shape (..., 3) and returns shape (...). |BxD|^2 comes from the
    cross product: D^2 B^2 - (B.D)^2 cancels near a dyon's centre.
    """
    d = np.asarray(d, dtype=float)
    b = np.asarray(b, dtype=float)
    d2 = np.sum(d * d, axis=-1)
    b2 = np.sum(b * b, axis=-1)
    bxd = cross_rows(b, d)
    bxd2 = np.sum(bxd * bxd, axis=-1)
    k2 = kappa**2
    r1 = np.sqrt((1.0 + beta * b2) * (1.0 + k2 * b2))
    r2 = np.sqrt(1.0 + beta * d2 + k2 * b2 + beta * k2 * bxd2)
    return (b2 * r1 * r2 + (1.0 + beta * b2) * (d2 + k2 * bxd2)) / (r1 * (r1 + r2))


def density_rows(params: ModelParams, state: StateRows) -> np.ndarray:
    """Energy density of the rows of an inverted state: the classical closed
    form in (D, B) (E and s unused), else
    H = f'(s)(E^2 + kappa^2 (E.B)^2) - f(s) as arrays. The closed form
    stays accurate next to a charge, where 2 beta s from the inversion
    rounds onto 1. A row that failed before (code != 0) gets 0; a
    non-classical row whose s lies outside the model domain fails with
    domain_error(s), and a row whose density is non-finite with
    DomainViolation("non-finite energy density"), in the state's
    (code, errors) (see errors.fail_rows)."""
    code, errors = state.code, state.errors
    if params.kind != CLASSICAL:
        fail_rows(code, errors, (code == 0) & ~params.domain_rows(state.s),
                  lambda j: params.domain_error(state.s[j]))
    ok = _branch(code == 0)
    dens = np.zeros(len(code))
    if ok is None:
        return dens
    if params.kind == CLASSICAL:
        dens[ok] = classical_energy_density(params.beta, params.kappa, state.d[ok], state.b[ok])
    else:
        e, b, s = state.e[ok], state.b[ok], state.s[ok]
        eb = rowdot(e, b)
        # an overflow surfaces as a non-finite density, which fails below
        with np.errstate(over="ignore", invalid="ignore"):
            dens[ok] = (params.derivative_rows(s, 1) * (rowdot(e, e) + params.kappa**2 * eb * eb)
                        - params.derivative_rows(s, 0))
    if not np.isfinite(dens).all():
        fail_rows(code, errors, ~np.isfinite(dens), DomainViolation("non-finite energy density"))
    return dens


def hamiltonian_on_points(params: ModelParams, cfg: ChargeConfig, pts) -> np.ndarray:
    """Energy density of the multicentered solution at points of shape (N, 3).

    The state comes from one eh_rows call and the densities from
    density_rows, as in the sample command, so the two agree bit for bit.
    Raises the failure of the first failing row (errors.raise_first):
    SingularPoint inside an exclusion ball, InversionFailure or
    DomainViolation, never a NaN.
    """
    state = eh_rows(params, cfg, pts)
    out = density_rows(params, state)
    raise_first(state.code, state.errors)
    return out


# -- quadrature building blocks ----------------------------------------------


@lru_cache(maxsize=64)
def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] by Golub & Welsch, Math.
    Comp. 23, 221 (1969): the nodes are the eigenvalues of the symmetric
    Jacobi matrix with off-diagonal k/sqrt(4k^2 - 1), k = 1..n-1, and the
    weights 2 v_0^2 from the first components of its unit eigenvectors.
    Nodes are made exactly odd and weights exactly even (a mirror pair's
    null field depends on it), and the weights are scaled to sum to 2 (a
    centred charge's flux is then 1 to rounding). One eigh per rule; at
    n = 2048, a flux sphere's eighth level, it takes longer than numpy's
    leggauss (1.4 s against 0.7 s on a 2-core x86-64 VM). For n > 25
    LAPACK's eigh takes its divide-and-conquer path, which OpenBLAS runs on
    threads: on a 2-vCPU x86-64 VM a fresh process's first rule sometimes
    took 13-16 ms at n = 36, 24-48 ms at n = 64 and 228 ms at n = 128,
    against 0.2-1.7 ms with OPENBLAS_NUM_THREADS=1. A bump source builds
    _gauss(64) when it is made, so a continuous bump run's set-up time
    carries this spread.

    Built once per process and shared read-only. Only 1-D rules are kept:
    sphere rules reach millions of nodes on flux levels."""
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, -1), UPLO="L")
    weights = 2.0 * vectors[0] ** 2
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    weights *= 2.0 / weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _panel_nodes(r_lo: float, r_hi: float, n_panels: int, nodes: int):
    """The nodes-point Gauss-Legendre rule on each of n_panels equal panels
    of [r_lo, r_hi]: nodes and weights, concatenated."""
    base_t, base_w = _gauss(nodes)
    edges = np.linspace(r_lo, r_hi, n_panels + 1)
    rs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        rs.append(mid + half * base_t)
        ws.append(base_w * half)
    return np.concatenate(rs), np.concatenate(ws)


def _sphere_rule(n_mu: int, n_phi: int, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions and weights with sum(weights) = 4 pi, cos(theta)
    major. With rows, only the nodes of those cos(theta) nodes of the
    n_mu-point rule, with the bits the whole rule gives them."""
    mu, w_mu = (v[rows] for v in _gauss(n_mu))
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    sin_th = np.sqrt(np.maximum(1.0 - mu**2, 0.0))
    dirs = np.empty((len(mu) * n_phi, 3))
    dirs[:, 0] = np.outer(sin_th, np.cos(phi)).ravel()
    dirs[:, 1] = np.outer(sin_th, np.sin(phi)).ravel()
    dirs[:, 2] = np.outer(mu, np.ones(n_phi)).ravel()
    weights = np.outer(w_mu, np.full(n_phi, 2.0 * math.pi / n_phi)).ravel()
    return dirs, weights


def default_probe_radii(scale: float) -> np.ndarray:
    """Log-spaced radii between 1e-2 and 1e-4 times scale, decreasing."""
    return scale * np.geomspace(1e-2, 1e-4, 7)


def divergence_exponent_probe(cfg: ChargeConfig, params: ModelParams,
                              charge_index: int, radii: Sequence[float]) -> float:
    """Least-squares slope of log H against log r toward one charge.

    Sampled along a fixed generic ray. A slope near -2 means the energy
    integral converges at the charge; -3 or below means it diverges there
    (total_energy draws the line at _DIVERGENT_SLOPE), and -4 is the
    signature of the kappa = 0 dyon.
    """
    radii = np.asarray(radii, dtype=float)
    if len(radii) < 2 or np.any(np.diff(radii) >= 0.0):
        raise ValueError("radii must be strictly decreasing with at least two entries")
    center = cfg.positions[charge_index]
    pts = center[None, :] + radii[:, None] * _PROBE_RAY[None, :]
    h = hamiltonian_on_points(params, cfg, pts)
    if np.any(h <= 0.0):
        raise QuadratureError("energy density not positive along the probe ray")
    x, y = np.log(radii), np.log(h)
    x = x - x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


def _becke_orders(level: int) -> tuple[int, int, int]:
    """(radial, mu, phi) Gauss orders of an energy level: (24, 4, 8) times 1,
    1.5, 2, 3, 4, 6, ..., growing by 3/2 and 4/3 in turn, so the orders
    double every two levels and the work of level 8 stays near 3 million
    nodes per centre."""
    scale = (2 + level % 2) << (level // 2)
    return 12 * scale, 2 * scale, 4 * scale


def _radial_rule(n: int, r_m: float, exclusion: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre in x on (-1, 1) mapped onto r > exclusion by
    r = exclusion + r_m ((1+x)/2)^2 (1+x)/(1-x): Becke's map (1+x)/(1-x)
    times the factor ((1+x)/2)^alpha of Treutler & Ahlrichs, J. Chem. Phys.
    102, 346 (1995), with alpha = 2. The far end keeps Becke's form, under
    which a 1/r^4 density is smooth in x; the factor makes r vanish as
    (1+x)^3 at a centre, where r^2 H may be a fractional power of r (r^-2/3
    for the quadratic model). Weights include the jacobian and r^2."""
    x, w = _gauss(n)
    g = 0.25 * (1.0 + x) ** 3 / (1.0 - x)
    r = exclusion + r_m * g
    return r, w * r_m * g * (3.0 / (1.0 + x) + 1.0 / (1.0 - x)) * r * r


def _becke_weights(cfg: ChargeConfig, index: int, pts: np.ndarray) -> np.ndarray:
    """Becke's fuzzy-cell weight of centre index at points of shape (N, 3).

    w_i = P_i / sum_j P_j with P_j = prod_{k != j} s(mu_jk), where
    mu_jk = (|x - x_j| - |x - x_k|) / |x_j - x_k| and s = (1 - p(p(p(mu))))/2,
    p(mu) = 1.5 mu - 0.5 mu^3. The weights of all centres sum to 1; for one
    centre w is exactly 1. A point that _coulomb_offsets rejects, strictly
    inside an exclusion ball, lies outside the domain and gets 0.
    """
    if len(cfg) == 1:
        return np.ones(len(pts))
    pos = cfg.positions
    _, dist, inside = _coulomb_offsets(cfg, pts)
    sep = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    np.fill_diagonal(sep, 1.0)
    cell = np.ones_like(dist)
    for k in range(len(cfg)):
        mu = (dist - dist[:, k:k + 1]) / sep[k]
        mu[:, k] = -1.0            # s(-1) = 1: centre k has no factor of its own
        for _ in range(3):
            mu = 1.5 * mu - 0.5 * mu**3
        cell *= 0.5 * (1.0 - mu)
    w = cell[:, index] / cell.sum(axis=1)
    w[inside.any(axis=1)] = 0.0
    return w


def _becke_level(params, cfg: ChargeConfig, level: int) -> tuple[list, int]:
    """Each centre's integral of w_i H on its level grid, and the number of
    nodes evaluated. Nodes of zero weight are not evaluated; the others go
    to hamiltonian_on_points in chunks of at most _FLUX_CHUNK nodes."""
    n_r, n_mu, n_phi = _becke_orders(level)
    r, w_r = _radial_rule(n_r, cfg.cell_scale, cfg.exclusion_radius)
    dirs, w_ang = _sphere_rule(n_mu, n_phi)
    cells, nodes = [], 0
    for i, center in enumerate(cfg.positions):
        cell = 0.0
        for lo in range(0, n_r * len(dirs), _FLUX_CHUNK):
            k_r, k_dir = np.divmod(np.arange(lo, min(lo + _FLUX_CHUNK, n_r * len(dirs))), len(dirs))
            pts = center + r[k_r, None] * dirs[k_dir]
            w = w_r[k_r] * w_ang[k_dir] * _becke_weights(cfg, i, pts)
            keep = w != 0.0
            nodes += int(np.count_nonzero(keep))
            cell += float(w[keep] @ hamiltonian_on_points(params, cfg, pts[keep]))
        cells.append(cell)
    return cells, nodes


def _near_exponent(cfg: ChargeConfig, params: ModelParams, index: int) -> float:
    """divergence_exponent_probe at default_probe_radii(r) toward one centre,
    or NaN if it fails, with r = min(cell_scale, (b (q^2 + g^2))^(1/4)) and
    b the model's field scale (alpha for the quadratic model, else beta).
    The centre's own Coulomb field has b D^2 = 1/(16 pi^2) at that r, so
    the probe radii lie in its nonlinear core however far the neighbours."""
    b = params.alpha if params.kind == QUADRATIC else params.beta
    q, g = cfg.qs[index], cfg.gs[index]
    r = min(cfg.cell_scale, (b * (q * q + g * g)) ** 0.25)
    try:
        return divergence_exponent_probe(cfg, params, index, default_probe_radii(r))
    except (QuadratureError, SingularPoint):
        return math.nan


def total_energy(cfg: ChargeConfig, params: ModelParams, quad: QuadratureSpec) -> EnergyReport:
    """Total field energy outside the exclusion balls (cfg.exclusion_radius),
    by Becke's fuzzy-cell quadrature (J. Chem. Phys. 88, 2547 (1988)).

    The cell weights w_i sum to 1 (_becke_weights), so the energy is the sum
    over centres of the integral of w_i H on a grid around centre i:
    _radial_rule with r_m = cfg.cell_scale, which reaches infinity (there
    is no far tail), times _sphere_rule. All orders refine together
    (_becke_orders) until two levels agree within rel_tol max(|E|, abs_tol);
    after max_subdivisions refinements without agreement the report has
    converged=False and the last level's value. The orders double every two
    levels, so level L evaluates about 768 * 8^(L/2) nodes per centre: 3.1
    million at level 8, 25 million at 10, 201 million at 12.

    Divergence is detected, never extrapolated, from the near_charge_exponents
    the report carries: the slope of log H against log r toward each centre
    in its nonlinear core (_near_exponent). At _DIVERGENT_SLOPE (-2.95) or
    below, r^2 H is not integrable at that centre (the kappa = 0 dyon gives
    -4, a logarithmic divergence -3), so the energy of the field is infinite
    whatever the exclusion: the report has converged=False and level 0's
    value, without refinement. A slope that cannot be fitted (NaN), as when
    an exclusion ball wider than the default holds the probe radii, decides
    nothing.
    """
    exponents = tuple(_near_exponent(cfg, params, i) for i in range(len(cfg)))
    diverges = any(slope <= _DIVERGENT_SLOPE for slope in exponents)

    cells, nodes = _becke_level(params, cfg, 0)
    levels, converged = 1, False
    while not diverges and levels <= quad.max_subdivisions:
        prev = sum(cells)
        cells, added = _becke_level(params, cfg, levels)
        nodes += added
        levels += 1
        if abs(sum(cells) - prev) <= quad.rel_tol * max(abs(sum(cells)), quad.abs_tol):
            converged = True
            break
    return EnergyReport(
        value=sum(cells),
        converged=converged,
        near_charge_exponents=exponents,
        parts={"cells": cells, "levels": levels, "nodes": nodes},
    )


# -- flux charges --------------------------------------------------------------


class _FluxSphere:
    """One sphere's refinement in flux_spheres: its nodes at a level and the
    level-to-level test, each stacked component kept from the level at
    which it converged."""

    def __init__(self, center, R):
        self.center, self.R = as_vec3(center), R
        self.prev = self.flux = self.done = self.shape = None

    def nodes(self, dirs: np.ndarray) -> np.ndarray:
        return self.center + self.R * dirs

    def sums(self, vals: np.ndarray, dirs: np.ndarray, w_ang: np.ndarray) -> np.ndarray:
        """sum w (F.n) per stacked component of vals at nodes(dirs)."""
        self.shape = vals.shape[1:-1]
        rows = vals.reshape(len(dirs), -1, 3)
        # rowdot rounds each normal component like a scalar 3-term dot, so a
        # stacked field keeps the bits of separate ones
        return np.array([float(w_ang @ rowdot(rows[:, m], dirs)) for m in range(rows.shape[1])])

    def take(self, sums: np.ndarray, quad: QuadratureSpec) -> bool:
        """Add one level's sums; True once every component has converged."""
        cur = self.R**2 * sums
        if self.prev is None:
            self.flux, self.done = cur.copy(), np.zeros(len(cur), dtype=bool)
        else:
            fresh = ~self.done & (np.abs(cur - self.prev)
                                  <= quad.rel_tol * np.maximum(np.abs(cur), quad.abs_tol))
            self.flux[fresh] = cur[fresh]
            self.done |= fresh
            if np.all(self.done):
                return True
        self.prev = cur
        return False

    def result(self) -> float | np.ndarray:
        return float(self.flux[0]) if self.shape == () else self.flux.reshape(self.shape)


def _level_sums(field: Callable, sphere: _FluxSphere, n_mu: int, n_phi: int) -> np.ndarray:
    """sphere.sums over the n_mu x n_phi level, formed whole cos(theta) rows
    at a time, at most _FLUX_CHUNK nodes (or one row) each: a level may hold
    millions. A level of one chunk has the bits of one sums call."""
    step = max(1, _FLUX_CHUNK // n_phi)
    sums = None
    for lo in range(0, n_mu, step):
        dirs, w_ang = _sphere_rule(n_mu, n_phi, slice(lo, lo + step))
        part = sphere.sums(np.asarray(field(sphere.nodes(dirs)), dtype=float), dirs, w_ang)
        sums = part if sums is None else sums + part
    return sums


def flux_spheres(field: Callable, centres, radii, quad: QuadratureSpec) -> list:
    """Fluxes of a vector field through K spheres, centres (K, 3) and
    radii (K,), each as flux_charge computes it alone.

    Levels with fewer nodes per sphere than _FLUX_CHUNK (the 8x16 to 64x128
    levels) are shared: the nodes of every sphere still refining go through
    field together, sphere-major and in chunks of at most _FLUX_CHUNK. A
    sphere leaves once all its components have converged. From the first
    level that fills a chunk, the spheres left refine one at a time in
    order, so a sphere that cannot converge raises before any later sphere
    evaluates a chunk-sized level; such a level is summed chunk by chunk
    (_level_sums), so memory stays flat in its size. Returns one flux
    (float or array) per sphere. Raises what field raises (at a shared
    level, for the first failing node in sphere order), or QuadratureError
    naming the first sphere in order that did not converge within
    max_subdivisions doublings.
    """
    spheres = [_FluxSphere(c, R) for c, R in zip(centres, radii)]
    live, n_mu, n_phi, level = spheres, 8, 16, 0
    while live and level <= quad.max_subdivisions and n_mu * n_phi < _FLUX_CHUNK:
        dirs, w_ang = _sphere_rule(n_mu, n_phi)
        pts = np.concatenate([s.nodes(dirs) for s in live])
        vals = np.concatenate([np.asarray(field(pts[lo:lo + _FLUX_CHUNK]), dtype=float)
                               for lo in range(0, len(pts), _FLUX_CHUNK)])
        live = [s for s, v in zip(live, np.split(vals, len(live)))
                if not s.take(s.sums(v, dirs, w_ang), quad)]
        level, n_mu, n_phi = level + 1, 2 * n_mu, 2 * n_phi
    for s in live:
        m, n = n_mu, n_phi
        for _ in range(level, quad.max_subdivisions + 1):
            if s.take(_level_sums(field, s, m, n), quad):
                break
            m, n = 2 * m, 2 * n
        else:
            raise QuadratureError(f"flux quadrature did not stabilize at R={s.R!r}")
    return [s.result() for s in spheres]


def flux_charge(field: Callable, R: float, quad: QuadratureSpec,
                center=(0.0, 0.0, 0.0)) -> float | np.ndarray:
    """Flux of a vector field through the sphere of radius R.

    Product Gauss rule in cos(theta) times a uniform rule in phi, doubled
    until two successive levels agree to rel_tol. field is a rows field,
    (M, 3) -> (M, ..., 3), called once per level on its nodes (per chunk of
    _FLUX_CHUNK nodes on finer levels). The fluxes have shape (...), one per
    stacked component, each kept from the level at which it converged;
    (M, 3) values give a float. Raises QuadratureError if max_subdivisions
    doublings do not converge. The one-sphere case of flux_spheres.
    """
    return flux_spheres(field, [center], [R], quad)[0]


def free_charge_with_inner_spheres(cfg: ChargeConfig, params: ModelParams,
                                   quad: QuadratureSpec, ladder_radii: Sequence[float] = ()) -> dict:
    """Free charges as the flux through the outer sphere (_far_radius about
    the centroid) minus the sum of fluxes through the spheres of twice the
    exclusion radius about each charge.

    The inner spheres capture the point-like singular content of E and H
    (for classical kappa = 0 dyons, |g_i| sgn(q_i) and |q_i| sgn(g_i)), so
    q_free reproduces sum(q_i) - sum(|g_i| sgn(q_i)) and g_free its mirror.
    The (E, H) fluxes through spheres of ladder_radii about the centroid
    come as "ladder", from the same flux_spheres call: the outer sphere,
    the inner spheres in charge order, then the ladder.
    """
    inner = len(cfg)
    centres = [cfg.centroid, *cfg.positions] + [cfg.centroid] * len(ladder_radii)
    radii = [_far_radius(cfg)] + [2.0 * cfg.exclusion_radius] * inner + list(ladder_radii)
    fluxes = flux_spheres(eh_field(params, cfg), centres, radii, quad)
    free = fluxes[0]
    for flux in fluxes[1:1 + inner]:
        free = free - flux
    return {"q_free": float(free[0]), "g_free": float(free[1]),
            "ladder": [(float(e), float(h)) for e, h in fluxes[1 + inner:]]}
