"""Continuously distributed charge sources and their exact field solutions.

A density rho decaying faster than |x|^-3 generates its displacement field
through the Newton potential u = Gamma * rho (Gamma(x) = -1/(4 pi |x|)), so
D = grad u, B = grad v, and the same pointwise constitutive inversion as in
the point-charge case produces E and H exactly. Radially symmetric sources
give conservative E and H; offset sources do not, and the induced curl of E
has a closed form in the Hessian of u.

Built-in shapes: a Gaussian, an offset two-Gaussian mixture, a compactly
supported bump, and a gridded density ingested from a lattice file. The
first three are sums of radial parts, whose gradient and Hessian follow
exactly from Gauss's law: D = Q(r) r_vec / (4 pi r^3) with Q(r) the charge
enclosed by the sphere of radius r. A gridded density goes through
fourth-order finite differences of the quadrature potential with a step
tied to the source width, since quadrature noise in u, not truncation,
dominates there.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .constitutive import invert_rows, rowdot
from .currents import _fd_rows, _generic_electric_curl
from .errors import ConfigError, QuadratureError, merge_failures
from .models import ModelParams
from .observables import QuadratureSpec, _gauss, _panel_nodes, _sphere_rule
from .sources import as_vec3

__all__ = [
    "ContinuousSource",
    "RadialPart",
    "gaussian_source",
    "two_gaussian_source",
    "bump_source",
    "gridded_source",
    "merge_sources",
    "newton_potential",
    "state_rows",
    "jm_rows",
]

_FOUR_PI = 4.0 * math.pi
_MAX_POTENTIAL_LEVELS = 4
_DEFAULT_QUAD = QuadratureSpec()

_DECAY_DIRECTIONS = np.array([
    [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
    [1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1],
], dtype=float)
_DECAY_DIRECTIONS /= np.linalg.norm(_DECAY_DIRECTIONS, axis=1, keepdims=True)


def _check_decay(rho: Callable, gamma: float, start_radius: float, label: str) -> None:
    """Sample |rho| r^gamma on rays; the far shells must not set new highs.

    A density decaying like r^-gamma or faster keeps the product bounded by
    its inner-shell level; slower decay makes it grow without bound.
    """
    radii = start_radius * np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    pts = radii[:, None, None] * _DECAY_DIRECTIONS[None, :, :]
    vals = np.abs(np.asarray(rho(pts), dtype=float)) * radii[:, None] ** gamma
    shell_max = vals.max(axis=1)
    inner = float(shell_max[:3].max())
    outer = float(shell_max[3:].max())
    if outer > inner * (1.0 + 1e-6) + 1e-200:
        raise ConfigError(
            f"{label} density does not decay like r^-{gamma} on sampled rays"
        )


@dataclass(frozen=True, eq=False)
class RadialPart:
    """One spherically symmetric piece of a density, solved by Gauss's law.

    coef(r) is the enclosed charge over 4 pi r^3, Q(r) / (4 pi r^3), for
    r = |x - center|: it is the part's field as D = coef(r) (x - center).
    Declaring the ratio rather than Q keeps it finite at r = 0, where it is
    rho(center)/3. profile(d2) is the density at squared distance d2 from
    the centre, vectorized over arrays of d2.
    """

    center: np.ndarray
    coef: Callable
    profile: Callable


def _radial_density(parts) -> Callable:
    """The density of a sum of radial parts, for points of shape (..., 3)."""
    def rho(pts):
        pts = np.asarray(pts, dtype=float)
        total = None
        for part in parts:
            term = part.profile(np.sum((pts - part.center) ** 2, axis=-1))
            total = term if total is None else total + term
        return total

    return rho


_NEWTON_MEMO_SIZE = 262144


@dataclass(frozen=True, eq=False)
class ContinuousSource:
    """A continuous charge distribution with controlled decay.

    rho_e and rho_m are vectorized scalar-field evaluators mapping points of
    shape (..., 3) to densities of shape (...). gamma > 3 is the declared
    decay exponent, verified on rays at construction; anything slower is
    rejected because the total charge integral would not converge.
    support_radius bounds (around center) where the density is numerically
    relevant, width is the smallest feature scale (it sets finite-difference
    steps). radial_e / radial_m, when not empty, are the RadialParts whose
    densities sum to rho_e / rho_m; their fields then come from Gauss's law
    instead of the Newton-potential quadrature.
    """

    rho_e: Optional[Callable] = None
    rho_m: Optional[Callable] = None
    gamma: float = 6.0
    total_q: float = 0.0
    total_g: float = 0.0
    support_radius: float = 1.0
    center: tuple = (0.0, 0.0, 0.0)
    width: float = 1.0
    radial_e: tuple = ()
    radial_m: tuple = ()
    # newton_potential values of this source, least recently used first
    _newton_memo: OrderedDict = field(default_factory=OrderedDict, init=False,
                                      repr=False)

    def __post_init__(self):
        if self.rho_e is None and self.rho_m is None:
            raise ConfigError("a continuous source needs at least one density")
        if not (self.gamma > 3.0):
            raise ConfigError(
                "decay exponent gamma must exceed 3; slower-decaying sources "
                "are not supported"
            )
        if not (self.support_radius > 0.0 and self.width > 0.0):
            raise ConfigError("support_radius and width must be positive")
        start = max(10.0, float(np.linalg.norm(self.center)) + self.support_radius)
        if self.rho_e is not None:
            _check_decay(self.rho_e, self.gamma, start, "electric")
        if self.rho_m is not None:
            _check_decay(self.rho_m, self.gamma, start, "magnetic")


# -- built-in source shapes ----------------------------------------------------


def _radial_source(parts, total: float, magnetic: bool, **common) -> ContinuousSource:
    rho = _radial_density(parts)
    if magnetic:
        return ContinuousSource(rho_m=rho, total_g=total, radial_m=parts, **common)
    return ContinuousSource(rho_e=rho, total_q=total, radial_e=parts, **common)


def _gaussian_part(total: float, sigma: float, center) -> RadialPart:
    """Gaussian of integral `total`: its enclosed charge is
    Q[erf(t/sqrt2) - sqrt(2/pi) t e^{-t^2/2}] with t = r/sigma."""
    amp = total / ((2.0 * math.pi) ** 1.5 * sigma**3)

    def coef(r):
        t = r / sigma
        if t < 1e-2:
            # series of Q_enc/(4 pi r^3) avoids the erf cancellation
            return (total * math.sqrt(2.0 / math.pi)
                    / (3.0 * _FOUR_PI * sigma**3)
                    * (1.0 - 0.3 * t * t + 3.0 * t**4 / 56.0))
        enclosed = total * (math.erf(t / math.sqrt(2.0))
                            - math.sqrt(2.0 / math.pi) * t * math.exp(-0.5 * t * t))
        return enclosed / (_FOUR_PI * r**3)

    def profile(d2):
        return amp * np.exp(-0.5 * d2 / sigma**2)

    return RadialPart(np.asarray(center, dtype=float), coef, profile)


def gaussian_source(total=1.0, sigma=1.0, center=(0.0, 0.0, 0.0),
                    magnetic: bool = False, gamma: float = 6.0) -> ContinuousSource:
    """Gaussian density of integral `total` and width sigma."""
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ConfigError("sigma must be positive and finite")
    return _radial_source(
        (_gaussian_part(total, sigma, center),), total, magnetic,
        gamma=gamma, support_radius=8.0 * sigma,
        center=tuple(float(v) for v in center), width=float(sigma))


def two_gaussian_source(q1=1.0, sigma1=1.0, center1=(0.0, 0.0, 0.0),
                        q2=1.0, sigma2=1.0, center2=(2.0, 0.0, 0.0),
                        magnetic: bool = False, gamma: float = 6.0) -> ContinuousSource:
    """Mixture of two offset Gaussians; nonradial, so E is non-conservative."""
    if not (sigma1 > 0.0 and sigma2 > 0.0):
        raise ConfigError("widths must be positive")
    c1 = np.asarray(center1, dtype=float)
    c2 = np.asarray(center2, dtype=float)
    mid = 0.5 * (c1 + c2)
    support = max(float(np.linalg.norm(c1 - mid)) + 8.0 * sigma1,
                  float(np.linalg.norm(c2 - mid)) + 8.0 * sigma2)
    parts = (_gaussian_part(q1, sigma1, center1), _gaussian_part(q2, sigma2, center2))
    return _radial_source(
        parts, q1 + q2, magnetic, gamma=gamma, support_radius=support,
        center=tuple(float(v) for v in mid), width=float(min(sigma1, sigma2)))


def _bump_part(total: float, R: float, center) -> RadialPart:
    """Bump of integral `total`: Q(r) = total S(min(1, r/R)) / S(1) with
    S(t) = int_0^t s^2 e^{-1/(1-s^2)} ds."""
    # S(t) = t^3 sum_i w_i e^{-1/(1-(t u_i)^2)} on 64 Gauss-Legendre nodes
    # u_i in (0, 1); it matches an adaptive quadrature to ~2e-14 for every t
    nodes, weights = _gauss(64)
    u = 0.5 * (1.0 + nodes)
    w = 0.5 * weights * u**2

    def shape_mean(t):
        # S(t) / t^3, finite at t = 0
        return float(w @ np.exp(-1.0 / (1.0 - (t * u) ** 2)))

    amp = total / (_FOUR_PI * R**3 * shape_mean(1.0))

    def coef(r):
        t = r / R
        if t >= 1.0:
            return total / (_FOUR_PI * r**3)
        return amp * shape_mean(t)

    def profile(d2):
        t2 = np.atleast_1d(np.asarray(d2, dtype=float) / (R * R))
        out = np.zeros_like(t2)
        inside = t2 < 1.0
        out[inside] = amp * np.exp(-1.0 / (1.0 - t2[inside]))
        return out.reshape(np.shape(d2))

    return RadialPart(np.asarray(center, dtype=float), coef, profile)


def bump_source(total=1.0, radius=1.0, center=(0.0, 0.0, 0.0),
                magnetic: bool = False, gamma: float = 6.0) -> ContinuousSource:
    """Compactly supported bump A exp(-1/(1 - |x-c|^2/R^2)) inside radius R."""
    R = float(radius)
    if not (R > 0.0 and math.isfinite(R)):
        raise ConfigError("radius must be positive and finite")
    return _radial_source(
        (_bump_part(total, R, center),), total, magnetic,
        gamma=gamma, support_radius=R,
        center=tuple(float(v) for v in center), width=R / 3.0)


def gridded_source(lattice_path, sidecar_path=None, magnetic: bool = False,
                   gamma: float = 6.0) -> ContinuousSource:
    """Density ingested from a lattice file with a JSON sidecar.

    The sidecar holds dims [nx, ny, nz], spacing [dx, dy, dz], origin
    [x0, y0, z0] and format ("binary" or "csv"). Binary lattices are
    little-endian float64, row-major with z the fastest index; CSV lattices
    list the same values in the same order. Evaluation is trilinear, zero
    outside the grid hull.
    """
    path = Path(lattice_path)
    sidecar = Path(sidecar_path) if sidecar_path else Path(str(path) + ".json")
    try:
        meta = json.loads(sidecar.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read lattice sidecar {sidecar}: {exc}") from exc
    try:
        dims = [int(v) for v in meta["dims"]]
        spacing = [float(v) for v in meta["spacing"]]
        origin = [float(v) for v in meta["origin"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"lattice sidecar needs dims, spacing, origin: {exc}") from exc
    if len(dims) != 3 or len(spacing) != 3 or len(origin) != 3:
        raise ConfigError("dims, spacing and origin must each have three entries")
    if min(dims) < 2 or min(spacing) <= 0.0:
        raise ConfigError("need at least two nodes per axis and positive spacing")
    fmt = meta.get("format", "binary")
    if fmt == "binary":
        data = np.fromfile(path, dtype="<f8")
    elif fmt == "csv":
        data = np.loadtxt(path, delimiter=",").ravel()
    else:
        raise ConfigError(f"unknown lattice format {fmt!r}")
    nx, ny, nz = dims
    if data.size != nx * ny * nz:
        raise ConfigError(
            f"lattice holds {data.size} values, sidecar promises {nx * ny * nz}")
    cube = data.reshape(nx, ny, nz)
    axes = tuple(origin[k] + spacing[k] * np.arange(dims[k]) for k in range(3))
    from scipy.interpolate import RegularGridInterpolator

    interp = RegularGridInterpolator(axes, cube, method="linear",
                                     bounds_error=False, fill_value=0.0)

    def rho(pts):
        pts = np.asarray(pts, dtype=float)
        return interp(pts.reshape(-1, 3)).reshape(pts.shape[:-1])

    lo = np.array(origin)
    hi = lo + np.array(spacing) * (np.array(dims) - 1)
    center = 0.5 * (lo + hi)
    support = 0.5 * float(np.linalg.norm(hi - lo)) + max(spacing)
    total = float(cube.sum() * spacing[0] * spacing[1] * spacing[2])
    common = dict(gamma=gamma, support_radius=support,
                  center=tuple(float(v) for v in center),
                  width=2.0 * min(spacing))
    if magnetic:
        return ContinuousSource(rho_m=rho, total_g=total, **common)
    return ContinuousSource(rho_e=rho, total_q=total, **common)


def merge_sources(electric: ContinuousSource, magnetic: ContinuousSource) -> ContinuousSource:
    """Combine an electric-density source and a magnetic-density source
    into one dyonic source."""
    if electric.rho_e is None:
        raise ConfigError("first source must carry an electric density")
    if magnetic.rho_m is None:
        raise ConfigError("second source must carry a magnetic density")
    ce = np.asarray(electric.center, dtype=float)
    cm = np.asarray(magnetic.center, dtype=float)
    mid = 0.5 * (ce + cm)
    support = max(float(np.linalg.norm(ce - mid)) + electric.support_radius,
                  float(np.linalg.norm(cm - mid)) + magnetic.support_radius)
    return ContinuousSource(
        rho_e=electric.rho_e,
        rho_m=magnetic.rho_m,
        gamma=min(electric.gamma, magnetic.gamma),
        total_q=electric.total_q,
        total_g=magnetic.total_g,
        support_radius=support,
        center=tuple(float(v) for v in mid),
        width=min(electric.width, magnetic.width),
        radial_e=electric.radial_e,
        radial_m=magnetic.radial_m,
    )


# -- Newton potential ----------------------------------------------------------


# cap on points materialized at once by a quadrature level, keeps the peak
# memory of refined levels bounded
_CHUNK_POINTS = 2_000_000


def _potential_level(rho, x, c, far, r_lo, r_hi, n_panels, nodes, n_mu, n_phi) -> float:
    # near the support: spherical coordinates centred at x, where the
    # 1/|x-y| kernel cancels one power of the r^2 jacobian, so the radial
    # weight is just r; x outside the support (far): integrate over the
    # source ball around its centre c, kernel smooth
    dirs, w_ang = _sphere_rule(n_mu, n_phi)
    rs, wr = _panel_nodes(r_lo, r_hi, n_panels, nodes)
    radial_w = wr * rs**2 if far else wr * rs
    origin = c if far else x
    block = max(1, _CHUNK_POINTS // len(dirs))
    total = 0.0
    for k in range(0, len(rs), block):
        pts = origin[None, None, :] + rs[k:k + block, None, None] * dirs[None, :, :]
        vals = np.asarray(rho(pts), dtype=float)
        if far:
            vals = vals / np.linalg.norm(pts - x[None, None, :], axis=-1)
        total += float(np.einsum("r,a,ra->", radial_w[k:k + block], w_ang, vals))
    return -total / _FOUR_PI


def _newton_impl(src: ContinuousSource, which: str, x: np.ndarray,
                 quad: QuadratureSpec) -> float:
    rho = src.rho_e if which == "electric" else src.rho_m
    if rho is None:
        return 0.0
    c = np.asarray(src.center, dtype=float)
    d = float(np.linalg.norm(x - c))
    far = d > src.support_radius + src.width
    if far:
        r_lo, r_hi = 0.0, src.support_radius
    else:
        r_lo, r_hi = max(0.0, d - src.support_radius), d + src.support_radius
    panels = min(64, max(4, math.ceil((r_hi - r_lo) / src.width)))
    n_mu, n_phi = 8, 16
    prev = None
    for _ in range(min(quad.max_subdivisions, _MAX_POTENTIAL_LEVELS) + 1):
        cur = _potential_level(rho, x, c, far, r_lo, r_hi, panels, 6, n_mu, n_phi)
        if prev is not None and abs(cur - prev) <= quad.rel_tol * max(abs(cur), 1e-30):
            return cur
        prev = cur
        panels *= 2
        n_mu *= 2
        n_phi *= 2
    raise QuadratureError(
        f"Newton potential quadrature did not stabilize at x={tuple(x)!r}")


def newton_potential(src: ContinuousSource, x, quad: QuadratureSpec = None,
                     which: str = "electric") -> float:
    """Newton potential u(x) = -(1/4 pi) integral of rho(y)/|x-y|.

    Adaptive product quadrature in spherical coordinates centered at x (the
    kernel singularity cancels against the volume jacobian) or at the source
    when x lies outside its support. O(1/|x|) far away. The source keeps
    its last 262144 values, which makes repeated stencil evaluations cheap
    and frees them with the source. It is the production route for gridded
    densities and the reference for the Gauss's-law fields of radial ones.
    """
    if which not in ("electric", "magnetic"):
        raise ValueError("which must be 'electric' or 'magnetic'")
    x = as_vec3(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation point must be finite")
    quad = quad if quad is not None else _DEFAULT_QUAD
    key = (which, (float(x[0]), float(x[1]), float(x[2])), quad)
    memo = src._newton_memo
    if key in memo:
        memo.move_to_end(key)
        return memo[key]
    value = _newton_impl(src, which, np.array(key[1]), quad)
    memo[key] = value
    if len(memo) > _NEWTON_MEMO_SIZE:
        memo.popitem(last=False)
    return value


def _gauss_law(parts, pts: np.ndarray):
    """D = sum_k coef_k(r_k) r_k at points of shape (N, 3) and its Jacobian,
    the exact Hessian of u, sum_k [coef_k I + (rho_k - 3 coef_k) r_k r_k^T
    / r_k^2] (rho_k / 3 I at a centre), with r_k = x - center_k. coef is
    called once per row, profile once on all rows."""
    d = hess = None
    for part in parts:
        rv = pts - part.center
        r = np.sqrt(rowdot(rv, rv))
        coef = np.array([part.coef(v) for v in r.tolist()])
        rho = part.profile(r * r)
        centre = r == 0.0
        diag = np.where(centre, rho / 3.0, coef)
        w = np.divide(rho - 3.0 * coef, r * r, out=np.zeros_like(r), where=~centre)
        h = diag[:, None, None] * np.eye(3) + w[:, None, None] * (rv[:, :, None] * rv[:, None, :])
        d = coef[:, None] * rv if d is None else d + coef[:, None] * rv
        hess = h if hess is None else hess + h
    return d, hess


def _fd_gradient(src: ContinuousSource, x: np.ndarray, quad: QuadratureSpec,
                 which: str) -> np.ndarray:
    """Fourth-order central differences of newton_potential, step width/20."""
    u = partial(newton_potential, src, quad=quad, which=which)
    h = src.width / 20.0
    grad = np.empty(3)
    for k, step in enumerate(np.eye(3) * h):
        grad[k] = (-u(x + 2.0 * step) + 8.0 * u(x + step) - 8.0 * u(x - step)
                   + u(x - 2.0 * step)) / (12.0 * h)
    return grad


def _fd_hessian(src: ContinuousSource, x: np.ndarray, quad: QuadratureSpec) -> np.ndarray:
    """Second differences of u with step width/10: a larger step than the
    gradient's keeps the quadrature noise down."""
    u = partial(newton_potential, src, quad=quad)
    h = src.width / 10.0
    e = np.eye(3) * h
    u0 = u(x)
    hess = np.empty((3, 3))
    for i in range(3):
        hess[i, i] = (u(x + e[i]) - 2.0 * u0 + u(x - e[i])) / (h * h)
        for j in range(i + 1, 3):
            hess[i, j] = hess[j, i] = (u(x + e[i] + e[j]) - u(x + e[i] - e[j])
                                       - u(x - e[i] + e[j]) + u(x - e[i] - e[j])) / (4.0 * h * h)
    return hess


def _each_row(fn, pts: np.ndarray, rows, code: np.ndarray, errors: list, shape) -> np.ndarray:
    """fn(x) at the given rows of pts; a QuadratureError fails its row."""
    out = np.zeros((len(pts),) + shape)
    for i in rows:
        try:
            out[i] = fn(pts[i])
        except QuadratureError as exc:
            errors.append(exc)
            code[i] = len(errors)
    return out


def _gradient_rows(src: ContinuousSource, pts: np.ndarray, quad: QuadratureSpec,
                   which: str, code: np.ndarray, errors: list):
    """D (which='electric') or B (which='magnetic') at points of shape (N, 3)
    and the Hessian of u by Gauss's law; else _fd_gradient at each row that
    has not failed (zero without a density) and None."""
    parts = src.radial_e if which == "electric" else src.radial_m
    if parts:
        return _gauss_law(parts, pts)
    rho = src.rho_e if which == "electric" else src.rho_m
    rows = np.flatnonzero(code == 0) if rho is not None else []
    return _each_row(lambda x: _fd_gradient(src, x, quad, which), pts, rows, code, errors, (3,)), None


# -- fields and currents -------------------------------------------------------


def state_rows(src: ContinuousSource, params: ModelParams, pts: np.ndarray,
               quad: QuadratureSpec = None):
    """D = grad u, B = grad v, then E, H and s from one invert_rows call, at
    points of shape (N, 3): (D, B, E, H, s, the Hessian of u or None, code,
    errors). A point fails with its first failure in the order D, B, E."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    code = np.zeros(len(pts), dtype=np.int64)
    errors: list = []
    d, hess = _gradient_rows(src, pts, quad, "electric", code, errors)
    b = _gradient_rows(src, pts, quad, "magnetic", code, errors)[0]
    e, h, s, inv_code, inv_errors = invert_rows(params, d, b)
    merge_failures(code, errors, np.arange(len(pts)), inv_code, inv_errors)
    return d, b, e, h, s, hess, code, errors


def jm_rows(src: ContinuousSource, params: ModelParams, pts: np.ndarray,
            quad: QuadratureSpec, d: np.ndarray, e: np.ndarray, hess,
            code: np.ndarray, errors: list) -> np.ndarray:
    """j_m = -curl E at the rows of pts that have not failed, from their
    state_rows fields; failures go into (code, errors). A source with no
    electric density has D = 0, so E = 0 and j_m = 0 by construction. An
    electric source takes currents._generic_electric_curl with
    grad(D^2) = 2 H_u D (_fd_hessian per row without radial parts): curl E
    is f''(h/2) h'(|D|^2) / f'(h/2)^2 D x (H_u D), with h = E^2 and H_u the
    Hessian of u, so it vanishes for a radial u (H_u D is parallel to D)
    and in the Maxwell limit f'' = 0. A dyonic source takes the Richardson
    FD curl of E with step width/10 from currents._fd_rows, which takes the
    state at all stencil nodes from one state_rows call."""
    j_m = np.zeros_like(pts)
    if src.rho_e is None:
        return j_m
    rows = np.flatnonzero(code == 0)
    if src.rho_m is not None:
        curl_e, _, sub_code, sub_errors = _fd_rows(
            partial(state_rows, src, params, quad=quad), pts[rows],
            np.full(len(rows), src.width / 10.0))
        merge_failures(code, errors, rows, sub_code, sub_errors)
        j_m[rows] = -curl_e
        return j_m
    if hess is None:
        hess = _each_row(lambda x: _fd_hessian(src, x, quad), pts, rows, code, errors, (3, 3))
        rows = np.flatnonzero(code == 0)
    g = d[rows]
    grad = 2.0 * (hess[rows] @ g[:, :, None])[:, :, 0]
    j_m[rows] = _generic_electric_curl(params, g, e[rows], grad, code, errors, rows)
    return j_m
