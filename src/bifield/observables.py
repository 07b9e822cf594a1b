"""Global observables: energy densities, total energies, flux charges.

Three families of quantities live here:

* the Hamiltonian energy density of a field state, in the model-generic form
  H = f'(s)(E^2 + kappa^2 (E.B)^2) - f(s), evaluated over point arrays from
  one batched inversion, with a vectorized closed form for the classical
  square-root model;
* singularity-aware quadrature: total energy assembled from per-charge ball
  integrals (log-spaced radial nodes), a bounded shell, and an analytic
  monopole far tail, with divergence detected rather than extrapolated;
* flux-defined free charges on spheres, the near-charge divergence-exponent
  probe, and a finite-difference residual suite for the static field
  equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, DomainViolation, QuadratureError, SingularPoint
from .models import ModelParams, CLASSICAL
from .sources import ChargeConfig, _batch_coulomb, _db_weights, as_vec3
from .constitutive import cross_rows, dyonic_eh_rows, rowdot
from .currents import _fd_step_rows, _stencil_clear, current_rows, eh_field, fd_curl, fd_div

__all__ = [
    "QuadratureSpec",
    "EnergyReport",
    "ResidualReport",
    "classical_energy_density",
    "hamiltonian_at",
    "hamiltonian_on_points",
    "density_rows",
    "total_energy",
    "flux_charge",
    "free_charge_with_inner_spheres",
    "divergence_exponent_probe",
    "default_probe_radii",
    "residual_suite",
]

# generic ray direction for near-charge probes; avoids the coordinate axes
# and any pair axis a test configuration is likely to use
_PROBE_RAY = np.array([0.36514837, 0.52827334, 0.76698920])
_PROBE_RAY = _PROBE_RAY / np.linalg.norm(_PROBE_RAY)

_BALL_ANGULAR = (16, 32)       # (mu nodes, phi nodes) for per-charge balls
_SHELL_ANGULAR = (12, 24)      # base rule for the bounded shell, doubled adaptively
_RADIAL_NODES_PER_DECADE = 8
_MAX_TAIL_DOUBLINGS = 24
_FLUX_CHUNK = 32768            # sphere nodes per field call, which bounds memory


@dataclass(frozen=True)
class QuadratureSpec:
    """Geometry and tolerances for the energy and flux quadratures.

    ball_radius r_b bounds the per-charge spherical integrals, exclusion is
    the inner cutoff of those balls, far_radius R_far is where the analytic
    tail takes over. Invariants: 0 < exclusion < r_b < min pairwise charge
    distance / 2 and R_far > configuration diameter.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-6
    max_subdivisions: int = 8
    ball_radius: float = 1.0
    far_radius: float = 10.0
    exclusion: float = 1e-8
    flux_radii: tuple = ()

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ConfigError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ConfigError("max_subdivisions must be at least 1")
        if not (0.0 < self.exclusion < self.ball_radius < self.far_radius):
            raise ConfigError("need 0 < exclusion < ball_radius < far_radius")
        if not all(r > 0.0 and math.isfinite(r) for r in self.flux_radii):
            raise ConfigError(f"flux_radii must be positive and finite, got {self.flux_radii!r}")

    @classmethod
    def for_config(cls, cfg: ChargeConfig, rel_tol: float = 1e-6,
                   abs_tol: float = 1e-6, max_subdivisions: int = 8) -> "QuadratureSpec":
        """Pick radii suited to a charge configuration.

        The ball radius takes 45% of the minimum pairwise separation so the
        shell quadrature only ever sees the smooth outskirts of each charge.
        """
        sep = cfg.min_separation
        r_b = 1.0 if not math.isfinite(sep) else 0.45 * sep
        r_far = max(4.0 * (cfg.diameter + r_b), 10.0 * r_b)
        return cls(
            rel_tol=rel_tol,
            abs_tol=abs_tol,
            max_subdivisions=max_subdivisions,
            ball_radius=r_b,
            far_radius=r_far,
            exclusion=1e-8 * r_b,
            flux_radii=tuple(r_far * 2.0**k for k in range(4)),
        )

    def validate_for(self, cfg: ChargeConfig) -> None:
        sep = cfg.min_separation
        if math.isfinite(sep) and not (self.ball_radius < 0.5 * sep):
            raise ConfigError("ball_radius must be below half the minimum charge separation")
        if not (self.far_radius > cfg.diameter):
            raise ConfigError("far_radius must exceed the configuration diameter")


@dataclass(frozen=True)
class EnergyReport:
    """A total energy and its parts: "balls" (one integral per charge),
    "shell" (the bounded shell plus its doublings), "tail" (the monopole
    remainder (Q^2 + G^2)/(8 pi R) beyond R = "far_radius_used"). The tail
    is not small in general; the doublings stop once it is accurate."""

    value: float
    converged: bool
    near_charge_exponents: tuple
    parts: dict = dataclass_field(default_factory=dict)


@dataclass(frozen=True)
class ResidualReport:
    max_div_d: float
    max_curl_d: float
    max_div_b: float
    max_curl_b: float
    max_curl_e_plus_jm: float
    max_curl_h_minus_je: float
    current_method: str
    n_evaluated: int
    n_skipped: int
    details: tuple = ()


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


def density_rows(params: ModelParams, d: np.ndarray, b: np.ndarray,
                 e: Optional[np.ndarray], s: Optional[np.ndarray]) -> np.ndarray:
    """Energy density of inverted rows: the classical closed form in (D, B)
    (e and s unused), else H = f'(s)(E^2 + kappa^2 (E.B)^2) - f(s) as arrays.
    Non-finite where it overflows; raises DomainViolation, as
    f_and_prime_rows does, if an s lies outside the model domain."""
    if params.kind == CLASSICAL:
        return classical_energy_density(params.beta, params.kappa, d, b)
    eb = rowdot(e, b)
    # an overflow surfaces as a non-finite density, which callers reject
    with np.errstate(over="ignore", invalid="ignore"):
        f, fp = params.f_and_prime_rows(s)
        return fp * (rowdot(e, e) + params.kappa**2 * eb * eb) - f


def hamiltonian_on_points(params: ModelParams, cfg: ChargeConfig, pts) -> np.ndarray:
    """Energy density of the multicentered solution at points of shape (N, 3).

    The classical model goes through the vectorized closed form. Every other
    model inverts all N rows in one dyonic_eh_rows call and evaluates
    H = f'(s)(E^2 + kappa^2 (E.B)^2) - f(s) as arrays. A row that fails to
    invert, leaves the model domain or gives a non-finite density raises
    (InversionFailure or DomainViolation), never a NaN.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d, b = _batch_coulomb(cfg, _db_weights(cfg), pts)
    e = s = None
    if params.kind != CLASSICAL:
        e, _, s = dyonic_eh_rows(params, d, b)
    out = density_rows(params, d, b, e, s)
    if not np.isfinite(out).all():
        bad = np.flatnonzero(~np.isfinite(out))
        raise DomainViolation(
            f"non-finite energy density at {len(bad)} of {len(out)} points; "
            f"first at x={pts[bad[0]].tolist()}")
    return out


def hamiltonian_at(params: ModelParams, cfg: ChargeConfig, x) -> float:
    return float(hamiltonian_on_points(params, cfg, as_vec3(x)[None, :])[0])


# -- quadrature building blocks ----------------------------------------------


@lru_cache(maxsize=64)
def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """leggauss(n), built once per process and shared read-only. Only 1-D
    rules are kept: sphere rules reach millions of nodes on flux levels."""
    nodes, weights = leggauss(n)
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


def _sphere_rule(n_mu: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions and weights with sum(weights) = 4 pi."""
    mu, w_mu = _gauss(n_mu)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    sin_th = np.sqrt(np.maximum(1.0 - mu**2, 0.0))
    dirs = np.empty((n_mu * n_phi, 3))
    dirs[:, 0] = np.outer(sin_th, np.cos(phi)).ravel()
    dirs[:, 1] = np.outer(sin_th, np.sin(phi)).ravel()
    dirs[:, 2] = np.outer(mu, np.ones(n_phi)).ravel()
    weights = np.outer(w_mu, np.full(n_phi, 2.0 * math.pi / n_phi)).ravel()
    return dirs, weights


def _log_radial_rule(r_lo: float, r_hi: float, nodes_per_decade: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes in t = ln r; weights include the r^3 jacobian
    of integral(F r^2 dr) = integral(F r^3 dt). Resolves power-law densities
    uniformly across many orders of magnitude in r."""
    t_lo, t_hi = math.log(r_lo), math.log(r_hi)
    decades = (t_hi - t_lo) / math.log(10.0)
    t, w = _panel_nodes(t_lo, t_hi, max(1, math.ceil(decades)), max(4, nodes_per_decade))
    r = np.exp(t)
    return r, w * r**3


def _linear_radial_rule(r_lo: float, r_hi: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    r, w = _panel_nodes(r_lo, r_hi, 1, max(4, n_nodes))
    return r, w * r**2


def _annulus_energy(params, cfg, center, r_lo, r_hi, dirs, w_ang, nodes_per_decade) -> float:
    rs, wr = _log_radial_rule(r_lo, r_hi, nodes_per_decade)
    pts = center[None, None, :] + rs[:, None, None] * dirs[None, :, :]
    h = hamiltonian_on_points(params, cfg, pts.reshape(-1, 3)).reshape(len(rs), len(dirs))
    return float(np.einsum("r,a,ra->", wr, w_ang, h))


def _ball_energy(params, cfg, index: int, quad: QuadratureSpec) -> tuple[float, bool]:
    """Integral of H over the ball around one charge, marched decade by
    decade from the ball surface down to the exclusion radius.

    Divergence is detected, never extrapolated. Contributions may grow
    inward through the Coulombic decades of a large ball (density ~ r^-4)
    before the nonlinearity caps them, so growth alone is not conclusive;
    what decides is the innermost decades: a convergent density has them
    decaying, while the kappa = 0 dyon keeps growing all the way to the
    cutoff. An accumulated value beyond 1/abs_tol also stops the march
    with converged=False."""
    center = cfg.positions[index]
    dirs, w_ang = _sphere_rule(*_BALL_ANGULAR)
    n_dec = max(1, math.ceil(math.log10(quad.ball_radius / quad.exclusion)))
    edges = np.geomspace(quad.ball_radius, quad.exclusion, n_dec + 1)
    acc = 0.0
    contribs: list[float] = []
    converged = True
    for r_hi, r_lo in zip(edges[:-1], edges[1:]):
        val = _annulus_energy(params, cfg, center, r_lo, r_hi, dirs, w_ang,
                              _RADIAL_NODES_PER_DECADE)
        contribs.append(val)
        acc += val
        if acc > 1.0 / quad.abs_tol:
            converged = False
            break
    if converged and len(contribs) >= 3:
        c1, c2, c3 = contribs[-3:]
        if (
            c3 >= 0.999 * c2
            and c2 >= 0.999 * c1
            and c3 > quad.rel_tol * max(acc, quad.abs_tol)
        ):
            converged = False
    return acc, converged


def _shell_segments(cfg: ChargeConfig, quad: QuadratureSpec, r_lo: float, r_hi: float) -> list:
    """Radial segments of [r_lo, r_hi] around the centroid, split where
    spheres start or stop intersecting the per-charge balls, so the only
    discontinuities of the masked integrand sit on segment boundaries."""
    center = cfg.centroid
    cuts = {r_lo, r_hi}
    for pos in cfg.positions:
        d = float(np.linalg.norm(pos - center))
        for c in (d - quad.ball_radius, d + quad.ball_radius):
            if r_lo < c < r_hi:
                cuts.add(c)
    edges = sorted(cuts)
    return list(zip(edges[:-1], edges[1:]))


def _shell_energy_once(params, cfg, quad, r_lo, r_hi, n_mu, n_phi, radial_factor) -> float:
    """One level of the shell quadrature, with the ball nodes masked out. A
    segment starting beyond every ball (inner radius at least the farthest
    charge's distance from the centroid plus ball_radius) has no node in a
    ball and is passed whole without building the node-charge distances."""
    center = cfg.centroid
    dirs, w_ang = _sphere_rule(n_mu, n_phi)
    clear_of_balls = float(np.max(np.linalg.norm(cfg.positions - center, axis=1))) + quad.ball_radius
    total = 0.0
    nodes = _RADIAL_NODES_PER_DECADE * radial_factor
    for a, b in _shell_segments(cfg, quad, r_lo, r_hi):
        if b - a <= 0.0:
            continue
        if a <= 1e-12 * r_hi:
            rs, wr = _linear_radial_rule(a, b, 2 * nodes)
        else:
            rs, wr = _log_radial_rule(a, b, nodes)
        pts = center[None, None, :] + rs[:, None, None] * dirs[None, :, :]
        flat = pts.reshape(-1, 3)
        if a >= clear_of_balls:
            h = hamiltonian_on_points(params, cfg, flat)
        else:
            dist = np.linalg.norm(flat[:, None, :] - cfg.positions[None, :, :], axis=-1)
            outside = np.all(dist > quad.ball_radius, axis=1)
            h = np.zeros(len(flat))
            if outside.all():
                h = hamiltonian_on_points(params, cfg, flat)
            elif outside.any():
                h[outside] = hamiltonian_on_points(params, cfg, flat[outside])
        total += float(np.einsum("r,a,ra->", wr, w_ang, h.reshape(len(rs), len(dirs))))
    return total


def _shell_energy(params, cfg, quad, r_lo, r_hi, rest: float) -> tuple[float, bool]:
    """Bounded-shell integral, refined until two successive orders agree
    within rel_tol of the energy they add to: rest, the energy accumulated
    outside this shell, plus the shell (the far tail is held to the same
    measure). Returns the value and whether they agreed; if they never do,
    the last level and False."""
    n_mu, n_phi = _SHELL_ANGULAR
    prev = _shell_energy_once(params, cfg, quad, r_lo, r_hi, n_mu, n_phi, 1)
    for level in range(1, quad.max_subdivisions + 1):
        scale = level + 1
        cur = _shell_energy_once(
            params, cfg, quad, r_lo, r_hi, scale * n_mu, scale * n_phi, scale
        )
        if abs(cur - prev) <= quad.rel_tol * max(abs(rest + cur), quad.abs_tol):
            return cur, True
        prev = cur
    return prev, False


def default_probe_radii(ball_radius: float) -> np.ndarray:
    """Log-spaced radii between 1e-2 and 1e-4 ball radii, decreasing."""
    return ball_radius * np.geomspace(1e-2, 1e-4, 7)


def divergence_exponent_probe(cfg: ChargeConfig, params: ModelParams,
                              charge_index: int, radii: Sequence[float]) -> float:
    """Least-squares slope of log H against log r toward one charge.

    Sampled along a fixed generic ray. A slope near -2 means the ball
    integral of H converges; near -4 is the signature of the kappa = 0
    dyon divergence.
    """
    radii = np.asarray(radii, dtype=float)
    if len(radii) < 2 or np.any(np.diff(radii) >= 0.0):
        raise ValueError("radii must be strictly decreasing with at least two entries")
    center = cfg.positions[charge_index]
    pts = center[None, :] + radii[:, None] * _PROBE_RAY[None, :]
    h = hamiltonian_on_points(params, cfg, pts)
    if np.any(h <= 0.0):
        raise QuadratureError("energy density not positive along the probe ray")
    slope = np.polyfit(np.log(radii), np.log(h), 1)[0]
    return float(slope)


def total_energy(cfg: ChargeConfig, params: ModelParams, quad: QuadratureSpec) -> EnergyReport:
    """Total field energy, decomposed as per-charge balls + bounded shell
    + analytic monopole far tail.

    The tail beyond R is the monopole term (Q^2 + G^2)/(8 pi R) of the
    leading Coulombic 1/r^4 density. It is exact to leading order, so what
    is tested is its error, not its size: each doubling integrates the shell
    [R, 2R] and compares it with the monopole's share (Q^2 + G^2)/(16 pi R).
    Once they agree within rel_tol of the accumulated value, the tail takes
    over at 2R; what it leaves out falls as R^-3 per doubling (the dipole
    term), so the rest is below 1/7 of the last deviation. At least one
    doubling is made, so a neutral configuration, whose tail is 0, still
    integrates its dipole shell. After _MAX_TAIL_DOUBLINGS without agreement
    the report has converged=False. Divergent ball integrals are
    reported with converged=False and the fitted near-charge exponent;
    the value is then the truncated accumulation, not an extrapolation.
    A shell whose refinements never agree within max_subdivisions also
    gives converged=False, with its last level in the value.
    """
    quad.validate_for(cfg)
    balls = []
    converged = True
    for i in range(len(cfg)):
        val, ok = _ball_energy(params, cfg, i, quad)
        balls.append(val)
        converged = converged and ok

    exponents = []
    for i in range(len(cfg)):
        try:
            exponents.append(divergence_exponent_probe(
                cfg, params, i, default_probe_radii(quad.ball_radius)))
        except (QuadratureError, SingularPoint):
            exponents.append(float("nan"))

    # the shell starts at the ball surface for a single charge (the centroid
    # is the charge itself); with several charges it covers the whole
    # interior with the balls masked out
    r_start = quad.ball_radius if len(cfg) == 1 else 0.0
    shell, ok = _shell_energy(params, cfg, quad, r_start, quad.far_radius, sum(balls))
    converged = converged and ok

    # the tail beyond R is monopole / R, half of it in [R, 2R]
    monopole = (cfg.total_q**2 + cfg.total_g**2) / (8.0 * math.pi)
    r_far = quad.far_radius
    extensions = 0.0
    for _ in range(_MAX_TAIL_DOUBLINGS):
        extension, ok = _shell_energy(params, cfg, quad, r_far, 2.0 * r_far,
                                      sum(balls) + shell + extensions)
        extensions += extension
        converged = converged and ok
        deviation = extension - monopole / (2.0 * r_far)
        r_far *= 2.0
        tail = monopole / r_far
        accumulated = sum(balls) + shell + extensions + tail
        if abs(deviation) <= quad.rel_tol * max(abs(accumulated), quad.abs_tol):
            break
    else:
        converged = False

    value = sum(balls) + shell + extensions + tail
    return EnergyReport(
        value=float(value),
        converged=converged,
        near_charge_exponents=tuple(exponents),
        parts={
            "balls": [float(v) for v in balls],
            "shell": float(shell + extensions),
            "tail": float(tail),
            "far_radius_used": float(r_far),
        },
    )


# -- flux charges --------------------------------------------------------------


def flux_charge(field: Callable, R: float, quad: QuadratureSpec,
                center=(0.0, 0.0, 0.0)) -> float | np.ndarray:
    """Flux of a vector field through the sphere of radius R.

    Product Gauss rule in cos(theta) times a uniform rule in phi, doubled
    until two successive levels agree to rel_tol. field is a rows field,
    (M, 3) -> (M, ..., 3), called once per level on its nodes (per chunk of
    _FLUX_CHUNK nodes on finer levels). The fluxes have shape (...), one per
    stacked component, each kept from the level at which it converged;
    (M, 3) values give a float. Raises QuadratureError if max_subdivisions
    doublings do not converge.
    """
    center = as_vec3(center)
    n_mu, n_phi = 8, 16
    prev = flux = done = None
    for _ in range(quad.max_subdivisions + 1):
        dirs, w_ang = _sphere_rule(n_mu, n_phi)
        chunks = np.split(dirs, range(_FLUX_CHUNK, len(dirs), _FLUX_CHUNK))
        vals = np.concatenate([np.asarray(field(center + R * d), dtype=float) for d in chunks])
        rows = vals.reshape(len(dirs), -1, 3)
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
                return float(flux[0]) if vals.ndim == 2 else flux.reshape(vals.shape[1:-1])
        prev = cur
        n_mu, n_phi = 2 * n_mu, 2 * n_phi
    raise QuadratureError(f"flux quadrature did not stabilize at R={R!r}")


def free_charge_with_inner_spheres(cfg: ChargeConfig, params: ModelParams,
                                   quad: QuadratureSpec) -> dict:
    """Free charges as outer flux minus the sum of fluxes through small
    spheres hugging each charge.

    The inner spheres capture the point-like singular content of E and H
    (for classical kappa = 0 dyons, |g_i| sgn(q_i) and |q_i| sgn(g_i)), so
    q_free reproduces sum(q_i) - sum(|g_i| sgn(q_i)) and g_free its mirror.
    """
    quad.validate_for(cfg)
    eh = eh_field(params, cfg)
    free = flux_charge(eh, quad.far_radius, quad, center=cfg.centroid)
    for pos in cfg.positions:
        free = free - flux_charge(eh, 2.0 * quad.exclusion, quad, center=pos)
    return {"q_free": float(free[0]), "g_free": float(free[1])}


# -- residual suite ------------------------------------------------------------


def residual_suite(cfg: ChargeConfig, params: ModelParams, grid) -> ResidualReport:
    """Finite-difference residuals of the static field equations on a grid.

    Reports the max over usable grid points of |div D|, |curl D|, |div B|,
    |curl B|, |curl E + j_m| and |curl H - j_e|, using analytic currents
    where closed forms exist. Points whose FD stencil would enter a charge
    exclusion ball are skipped and counted.
    """
    weights = _db_weights(cfg)

    def db_field(y):
        return _batch_coulomb(cfg, weights, as_vec3(y)[None, :])[:, 0]

    eh = eh_field(params, cfg)
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    steps = _fd_step_rows(pts)
    clear = _stencil_clear(cfg, pts, steps)
    currents = current_rows(params, cfg, pts[clear])

    maxima = dict(div_d=0.0, curl_d=0.0, div_b=0.0, curl_b=0.0, curl_e_jm=0.0, curl_h_je=0.0)
    details = []
    method = "analytic"
    for k, (x, h) in enumerate(zip(pts[clear], steps[clear])):
        if currents.code[k]:
            raise currents.errors[currents.code[k] - 1]
        method = currents.method
        j_e, j_m = currents.j_e[k], currents.j_m[k]
        curl_e, curl_h = fd_curl(eh, x, step=h)
        div_d, div_b = fd_div(db_field, x, step=h)
        curl_d, curl_b = fd_curl(db_field, x, step=h)
        point = {
            "at": [float(v) for v in x],
            "div_d": abs(float(div_d)),
            "curl_d": float(np.max(np.abs(curl_d))),
            "div_b": abs(float(div_b)),
            "curl_b": float(np.max(np.abs(curl_b))),
            "curl_e_jm": float(np.max(np.abs(curl_e + j_m))),
            "curl_h_je": float(np.max(np.abs(curl_h - j_e))),
        }
        details.append(point)
        for key in maxima:
            maxima[key] = max(maxima[key], point[key])
    return ResidualReport(
        max_div_d=maxima["div_d"],
        max_curl_d=maxima["curl_d"],
        max_div_b=maxima["div_b"],
        max_curl_b=maxima["curl_b"],
        max_curl_e_plus_jm=maxima["curl_e_jm"],
        max_curl_h_minus_je=maxima["curl_h_je"],
        current_method=method,
        n_evaluated=len(details),
        n_skipped=int(np.count_nonzero(~clear)),
        details=tuple(details),
    )
