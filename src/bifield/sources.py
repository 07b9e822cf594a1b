"""Point-charge configurations and the solenoidal/irrotational source fields.

The multicenter ansatz prescribes

    D(x) = sum_i q_i (x - x_i) / (4 pi |x - x_i|^3),
    B(x) = sum_i g_i (x - x_i) / (4 pi |x - x_i|^3),

both gradients of superposed Coulomb potentials, hence curl-free away from
the centers with delta-function divergences q_i, g_i. One kernel serves one
point and N points alike: _coulomb_offsets forms r_i = x - x_i and |r_i| and
masks the points inside an exclusion ball, which mark_singular fails as
rows (nothing here raises a field error; currents.eh_rows turns points into
D and B and the inverted fields), and _superpose adds the centers one by one
(_centre_sum); weights of shape (m, n) give m fields (D and B) from one
offsets pass, each bit-equal to its own call. The sum is not correctly
rounded: against the math.fsum sums kept in the tests it stays within
4.8 eps sum_i |term_i| over 24000 random configurations with n = 1..8 (the
tests gate 8 eps), and a mirror pair's midpoint field stays exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import SingularPoint, fail_rows

FOUR_PI = 4.0 * math.pi


def as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class PointCharge:
    """One center: position plus electric charge q and magnetic charge g."""

    position: np.ndarray
    q: float = 0.0
    g: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        if not np.all(np.isfinite(self.position)):
            raise ValueError("charge position must be finite")
        if not (math.isfinite(self.q) and math.isfinite(self.g)):
            raise ValueError("charges must be finite")
        if self.q == 0.0 and self.g == 0.0:
            raise ValueError("a center needs a nonzero q or g")


@dataclass(frozen=True)
class ChargeConfig:
    """Immutable list of point charges with a shared exclusion radius.

    cell_scale is 0.45 times the minimum pairwise separation (1 for a single
    center), the radius at which the energy cells of neighbouring charges
    meet. The exclusion radius defaults to the larger of 1e-9 times the
    configuration diameter (at least 1e-9) and 1e-8 times cell_scale, and
    must lie below cell_scale. It is the one radius of the balls that every
    evaluation and quadrature leaves out: field evaluation strictly inside
    any exclusion ball fails with SingularPoint rather than returning huge
    numbers. positions, qs and gs (read-only arrays), diameter,
    min_separation and cell_scale are computed once, when the configuration
    is built.
    """

    charges: tuple
    exclusion_radius: float = field(default=None)  # type: ignore[assignment]
    positions: np.ndarray = field(init=False, repr=False, compare=False)
    qs: np.ndarray = field(init=False, repr=False, compare=False)
    gs: np.ndarray = field(init=False, repr=False, compare=False)
    diameter: float = field(init=False, repr=False, compare=False)
    min_separation: float = field(init=False, repr=False, compare=False)
    cell_scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        chs = tuple(
            c if isinstance(c, PointCharge) else PointCharge(*c) for c in self.charges
        )
        if not chs:
            raise ValueError("configuration needs at least one charge")
        object.__setattr__(self, "charges", chs)
        pos = np.array([c.position for c in chs])
        same = np.argwhere(np.triu((pos[:, None] == pos[None, :]).all(axis=2), 1))
        if len(same):
            raise ValueError(f"charges {same[0][0]} and {same[0][1]} share a position")
        dists = _pair_distances(pos)
        for name, arr in (("positions", pos), ("qs", np.array([c.q for c in chs])),
                          ("gs", np.array([c.g for c in chs]))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "diameter", float(dists.max(initial=0.0)))
        object.__setattr__(self, "min_separation", float(dists.min(initial=math.inf)))
        object.__setattr__(self, "cell_scale",
                           0.45 * self.min_separation if len(chs) > 1 else 1.0)
        if self.exclusion_radius is None:
            object.__setattr__(self, "exclusion_radius", max(1e-9 * max(self.diameter, 1.0),
                                                             1e-8 * self.cell_scale))
        elif not (self.exclusion_radius > 0.0):
            raise ValueError("exclusion_radius must be positive")
        if not (self.exclusion_radius < self.cell_scale):
            raise ValueError(f"exclusion_radius {self.exclusion_radius!r} must be below "
                             f"the cell scale {self.cell_scale!r}")

    @classmethod
    def build(cls, entries: Iterable, exclusion_radius: float | None = None) -> "ChargeConfig":
        """entries: iterables of (position, q, g) or PointCharge instances."""
        return cls(charges=tuple(entries), exclusion_radius=exclusion_radius)

    def __len__(self) -> int:
        return len(self.charges)

    @property
    def centroid(self) -> np.ndarray:
        return self.positions.mean(axis=0)


def _pair_distances(pos: np.ndarray) -> np.ndarray:
    """|x_i - x_j| over the pairs i < j in np.triu_indices order, each
    rounded as np.linalg.norm(x_i - x_j) rounds it: one (3,) @ (3,) dot per
    pair (norm(axis=-1) and einsum sum in another order)."""
    i, j = np.triu_indices(len(pos), 1)
    r = pos[i] - pos[j]
    return np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])


def _coulomb_offsets(cfg: ChargeConfig, pts: np.ndarray):
    """r_ij = pts_i - x_j, |r_ij| and the (N, n) mask of points strictly
    inside an exclusion ball, for points of shape (N, 3): the one exclusion
    rule, under which the sphere is regular. Nothing is raised;
    mark_singular fails the masked points."""
    rs = pts[:, None, :] - cfg.positions[None, :, :]
    dist = np.linalg.norm(rs, axis=-1)
    return rs, dist, dist < cfg.exclusion_radius


def mark_singular(cfg: ChargeConfig, pts: np.ndarray, code: np.ndarray, errors: list,
                  inside: np.ndarray) -> np.ndarray:
    """Fail each point strictly inside an exclusion ball with a
    SingularPoint naming the point and its first such charge (see
    errors.fail_rows for code and errors); returns the indices of the
    other points. inside is the mask of _coulomb_offsets(cfg, pts)."""
    bad = inside.any(axis=1)
    fail_rows(code, errors, bad, lambda i: SingularPoint(
        f"point {pts[i].tolist()} within exclusion radius {cfg.exclusion_radius!r} "
        f"of charge {int(np.argmax(inside[i]))}"))
    return np.flatnonzero(~bad)


def _centre_sum(c: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """sum_j c_ij r_ij for c of shape (..., N, n) and rs (N, n, 3), giving
    (..., N, 3). The terms c_ij r_ij are added onto zeros in centre order,
    the order of numpy's einsum over j, so the bits and signed zeros are
    the einsum's; a loop over the few centres is faster than einsum's
    generic sum-of-products loop. Like the einsum it is silent on overflow
    and on invalid values."""
    out = np.zeros(c.shape[:-1] + (3,))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(rs.shape[1]):
            out += c[..., j, None] * rs[:, j]
    return out


def _superpose(weights: np.ndarray, rs: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """sum_j w_j r_ij / (4 pi |r_ij|^3); weights (n,) give (N, 3), weights
    (m, n) give (m, N, 3). The product w_j/(4 pi) |r_ij|^-3 may overflow
    silently, as in the sum: the callers check D and B for non-finite rows."""
    w, inv3 = weights[..., None, :] / FOUR_PI, dist**-3
    with np.errstate(over="ignore", invalid="ignore"):
        return _centre_sum(w * inv3, rs)


def _db_weights(cfg: ChargeConfig) -> np.ndarray:
    """The stacked (q, g) weights: a kernel call with them gives (D, B)."""
    return np.stack((cfg.qs, cfg.gs))


def _coulomb_gradient(weights: np.ndarray, rs: np.ndarray,
                      dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F and grad(F^2) from the offsets rs (N, n, 3) and dist (N, n) of
    _coulomb_offsets, in O(n) per point.

    With c_j = w_j / (4 pi |r_j|^3), F = sum_j c_j r_j has the Jacobian
    sum_j c_j (1 - 3 r_j r_j^T / |r_j|^2), so

        grad(F^2) = 2 (sum_j c_j) F - 6 sum_j c_j r_j (r_j . F) / |r_j|^2.

    Weights of shape (m, n) give both of shape (m, N, 3).
    """
    c = weights[..., None, :] / FOUR_PI * dist**-3
    f = _centre_sum(c, rs)
    proj = c * np.einsum("ijk,...ik->...ij", rs, f) / dist**2
    grad = 2.0 * np.sum(c, axis=-1)[..., None] * f - 6.0 * _centre_sum(proj, rs)
    return f, grad


def _coulomb_jacobian(weights: np.ndarray, rs: np.ndarray,
                      dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F and its Jacobian J[..., i, j] = dF_i/dx_j from the offsets rs
    (N, n, 3) and dist (N, n) of _coulomb_offsets, in O(n) per point:

        J = sum_j c_j (I - 3 r_j r_j^T / |r_j|^2),  c_j = w_j / (4 pi |r_j|^3),

    exactly symmetric (each outer product is), so grad(F^2) = 2 J F.
    Weights of shape (m, n) give F of shape (m, N, 3) and J (m, N, 3, 3).
    """
    c = weights[..., None, :] / FOUR_PI * dist**-3
    f = _centre_sum(c, rs)
    k = -3.0 * c / dist**2
    jac = np.zeros(c.shape[:-1] + (3, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(rs.shape[1]):
            jac += k[..., j, None, None] * (rs[:, j, :, None] * rs[:, j, None, :])
        jac[..., [0, 1, 2], [0, 1, 2]] += np.sum(c, axis=-1)[..., None]
    return f, jac
