"""Induced current densities for multicentered point-charge fields.

A single point charge produces purely radial E and H fields that are
gradients, hence curl-free. With two or more centers the nonlinearity couples
the Coulomb terms and static current densities appear:

    curl E = -j_m        (induced magnetic current density)
    curl H = +j_e        (induced electric current density)

Every closed form here follows from E = phi(D^2) D with curl D = 0:
curl E = phi'(D^2) grad(D^2) x D, a scalar prefactor times one cross
product. The module evaluates it for the classical square-root model, for
an arbitrary response function, and for the kappa = 0 dyonic composition,
taking D and grad(D^2) (or B and grad(B^2)) from one O(n) Coulomb kernel in
sources. The tests check every analytic current against finite-difference
curls of the rows fields and against the term-by-term triple sums over the
charges.

eh_rows is the one function that turns points into the state of a
point-charge configuration: D, B, E, H, s and a failure code per point,
from one Coulomb pass and one constitutive rows call (continuous.state_rows
is its twin for continuous sources). current_rows is the module's one
evaluation of the currents: N points at once, the closed forms as array
arithmetic, and the finite-difference route by stacking the 12 stencil
nodes of every point into one eh_rows call. Like every rows kernel, these
record failures instead of raising them.

Every central difference in the package gets its nodes and Jacobians from
_stencil: _fd_rows here, and the residual suites of verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainViolation, SingularPoint, fail_rows, merge_failures, raise_first
from .models import ModelParams, CLASSICAL
from .sources import (ChargeConfig, _coulomb_gradient, _coulomb_offsets, _db_weights, _superpose,
                      mark_singular)
from .constitutive import invert_rows, rowdot

__all__ = [
    "eh_rows",
    "eh_field",
    "CurrentRows",
    "current_method",
    "current_rows",
]


@dataclass(frozen=True)
class CurrentRows:
    """Current densities at N points.

    j_e and j_m have shape (N, 3), by the route current_method picks.
    code[i] = 0 when point i evaluated, else k > 0 with errors[k - 1] the
    exception a one-point current_rows call records there (a SingularPoint
    marks a point to skip). A failed point's currents are meaningless.
    """

    j_e: np.ndarray
    j_m: np.ndarray
    code: np.ndarray
    errors: list


def _classical_curl(beta: float, f: np.ndarray, grad_f2: np.ndarray) -> np.ndarray:
    """beta / (2 (1 + beta F^2)^{3/2}) grad(F^2) x F on rows, which is minus
    the curl of F / sqrt(1 + beta F^2) for a curl-free F."""
    pref = beta / (2.0 * np.power(1.0 + beta * rowdot(f, f), 1.5))
    return pref[:, None] * np.cross(grad_f2, f)


def _dyonic_k0_curl(beta: float, a: np.ndarray, grad_a2: np.ndarray,
                    b: np.ndarray, grad_b2: np.ndarray) -> np.ndarray:
    """Minus the curl of sqrt((1 + beta B^2)/(1 + beta A^2)) A on rows, by the
    product rule:

        sqrt(1 + beta B^2) * _classical_curl(A)
        + beta / (2 sqrt(1 + beta A^2) sqrt(1 + beta B^2)) A x grad(B^2)

    The classical kappa = 0 dyon has j_m = _dyonic_k0_curl(D, B) and, as
    H = sqrt((1 + beta D^2)/(1 + beta B^2)) B, j_e = -_dyonic_k0_curl(B, D):
    the sign flips because j_e = +curl H while j_m = -curl E.
    """
    root_a = np.sqrt(1.0 + beta * rowdot(a, a))
    root_b = np.sqrt(1.0 + beta * rowdot(b, b))
    mixed = (beta / (2.0 * root_a * root_b))[:, None] * np.cross(a, grad_b2)
    return root_b[:, None] * _classical_curl(beta, a, grad_a2) + mixed


def _generic_electric_curl(params: ModelParams, d: np.ndarray, e: np.ndarray,
                           grad: np.ndarray, code: np.ndarray, errors: list, idx) -> np.ndarray:
    """The magnetic current density of the electrostatic solution for any
    model, on rows: j_m from D, the caller's E and grad(D^2).

    With h = h(D^2) the solution of (f'(h/2))^2 h = D^2 (so h = E^2),

        j_m = f''(h/2) h'(D^2) / (2 f'(h/2)^2) grad(D^2) x D

    where h' comes from differentiating the inversion identity implicitly:
    h' = 1 / (f'(h/2) [f''(h/2) h + f'(h/2)]). Differencing the root finder
    instead would be noise-dominated. Linear electrodynamics (f'' = 0) gives
    zero identically. A row whose h/2 lies outside the model domain fails
    with domain_error(h/2); the failures go into (code, errors) at the rows
    idx (see errors.fail_rows).
    """
    with np.errstate(all="ignore"):
        h = rowdot(e, e)
        s = 0.5 * h
        ok = params.domain_rows(s)
        fail_rows(code, errors, ~ok, lambda j: params.domain_error(s[j]), idx)
        fp = params.derivative_rows(s[ok], 1)
        fpp = params.derivative_rows(s[ok], 2)
        hprime = 1.0 / (fp * (fpp * h[ok] + fp))
        pref = fpp * hprime / (2.0 * fp * fp)
        # linear electrodynamics (f'' = 0) gives exactly zero
        rows = np.flatnonzero(ok)[fpp != 0.0]
        jm = np.zeros_like(d)
        jm[rows] = pref[fpp != 0.0, None] * np.cross(grad[rows], d[rows])
    return jm


def _generic_magnetic_curl(params: ModelParams, b: np.ndarray, grad: np.ndarray):
    """The electric current density of the magnetostatic solution for any
    model, on rows: j_e = (1/2) f''(-B^2/2) B x grad(B^2), the curl of
    H = f'(-B^2/2) B. Returns (j_e, code, errors), a row whose -B^2/2 lies
    outside the model domain failing with domain_error(-B^2/2)."""
    code = np.zeros(len(b), dtype=np.int64)
    errors: list = []
    s = -0.5 * rowdot(b, b)
    ok = params.domain_rows(s)
    fail_rows(code, errors, ~ok, lambda j: params.domain_error(s[j]))
    with np.errstate(all="ignore"):
        fpp = params.derivative_rows(s[ok], 2)
        rows = np.flatnonzero(ok)[fpp != 0.0]
        je = np.zeros_like(b)
        je[rows] = (0.5 * fpp[fpp != 0.0])[:, None] * np.cross(b[rows], grad[rows])
    return je, code, errors


def _fd_step_rows(pts: np.ndarray) -> np.ndarray:
    """The stencil half-width at each row of pts: 1e-4 * max(1, |x|)."""
    return 1e-4 * np.maximum(1.0, np.sqrt(rowdot(pts, pts)))


def _stencil(pts: np.ndarray, hs: np.ndarray):
    """The central-difference stencil of points of shape (N, 3) at
    half-widths of shape (N, K): (nodes, jacobian).

    nodes, of shape (6KN, 3), run point, step, axis (x, y, z), sign (+, -).
    jacobian maps field values at the nodes, of shape (6KN, ..., 3), to
    J[p, k, ..., i, j] = (F(x + h e_j) - F(x - h e_j))_i / 2h.
    """
    n, k = hs.shape
    steps = np.zeros((n, k, 3, 3))
    steps[:, :, [0, 1, 2], [0, 1, 2]] = hs[:, :, None]
    x = pts[:, None, None, :]
    nodes = np.stack((x + steps, x - steps), axis=3).reshape(-1, 3)

    def jacobian(values) -> np.ndarray:
        f = np.asarray(values, dtype=float)
        f = f.reshape((n, k, 3, 2) + f.shape[1:])
        width = (2.0 * hs).reshape((n, k) + (1,) * (f.ndim - 3))
        return np.moveaxis((f[:, :, :, 0] - f[:, :, :, 1]) / width, 2, -1)

    return nodes, jacobian


def _curl(j: np.ndarray) -> np.ndarray:
    """The curl (..., 3) of Jacobians J[..., i, j] = dF_i/dx_j."""
    return np.stack([j[..., 2, 1] - j[..., 1, 2], j[..., 0, 2] - j[..., 2, 0],
                     j[..., 1, 0] - j[..., 0, 1]], axis=-1)


def eh_rows(params: ModelParams, cfg: ChargeConfig, pts):
    """The inverted state of the multicentred solution at points of shape
    (N, 3): (D, B, E, H, s, code, errors), from one Coulomb pass (the
    offsets that decide the exclusion balls also give D and B on the
    regular rows) and one invert_rows call over all rows. A row inside an
    exclusion ball carries D = B = 0 and keeps its SingularPoint; a point
    fails with its first failure in the order singular, inversion. Never
    raises for a point.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    code = np.zeros(len(pts), dtype=np.int64)
    errors: list = []
    rs, dist, inside = _coulomb_offsets(cfg, pts)
    idx = mark_singular(cfg, pts, code, errors, inside)
    idx = slice(None) if len(idx) == len(pts) else idx  # views when no row is singular
    d, b = np.zeros((2,) + pts.shape)
    d[idx], b[idx] = _superpose(_db_weights(cfg), rs[idx], dist[idx])
    e, h, s, inv_code, inv_errors = invert_rows(params, d, b)
    merge_failures(code, errors, np.arange(len(pts)), inv_code, inv_errors)
    return d, b, e, h, s, code, errors


def eh_field(params: ModelParams, cfg: ChargeConfig) -> Callable:
    """The field y -> stack(E, H), (..., 3) -> (..., 2, 3), from one eh_rows
    call, so a quadrature takes the E and H fluxes from the same nodes.
    Raises the failure eh_rows records for the first failing point in row
    order (DomainViolation for a non-finite inversion).
    """
    def field(y):
        _, _, e, h, _, code, errors = eh_rows(params, cfg, y)
        raise_first(code, errors)
        return np.stack((e, h), axis=1).reshape(np.shape(y)[:-1] + (2, 3))

    return field


def _stencil_clear(cfg: ChargeConfig, pts: np.ndarray, step) -> np.ndarray:
    """True at each row of pts whose 6-point stencil of half-width step stays
    outside the charge exclusion balls, by the distances of
    _coulomb_offsets. Sweeps skip the other points, so the FD curls are
    never contaminated by near-singular values."""
    return _coulomb_offsets(cfg, pts)[1].min(axis=1) > step + cfg.exclusion_radius


def _fd_rows(state_at: Callable, pts: np.ndarray, h: np.ndarray):
    """Richardson FD curls of E and H at points of shape (N, 3) with stencil
    half-widths h of shape (N,): (curl E, curl H, code, errors).

    Stacks the 12 stencil nodes of every point in _stencil's order (h/2
    first, then h; +x, -x, +y, -y, +z, -z), takes E, H and the node
    failures from one state_at(nodes) call (eh_rows or
    continuous.state_rows bound to its source), and extrapolates the two
    curls as (4 c(h/2) - c(h)) / 3. A point takes the failure of its first
    failing node.
    """
    n = len(pts)
    nodes, jacobian = _stencil(pts, np.stack((0.5 * h, h), axis=1))
    _, _, e, h_node, *_, node_code, errors = state_at(nodes)
    node_code = node_code.reshape(n, 12)
    code = node_code[np.arange(n), np.argmax(node_code != 0, axis=1)]
    curl = _curl(jacobian(np.stack((e, h_node), axis=1)))  # point, step, E or H, component
    curl = (4.0 * curl[:, 0] - curl[:, 1]) / 3.0
    return curl[:, 0], curl[:, 1], code, errors


def current_method(params: ModelParams, cfg: ChargeConfig) -> str:
    """The route current_rows takes for a configuration: "analytic" (the
    closed forms) for electric-only and magnetic-only configurations and
    the classical kappa = 0 dyonic case, else "fd"."""
    if not cfg.gs.any() or not cfg.qs.any() or (params.kind == CLASSICAL and params.kappa == 0.0):
        return "analytic"
    return "fd"


def current_rows(params: ModelParams, cfg: ChargeConfig, pts, e=None) -> CurrentRows:
    """Evaluate (j_e, j_m) at points of shape (N, 3) by the route that
    current_method picks; every row is what a one-point call gives there.

    Electric-only and magnetic-only configurations and the classical
    kappa = 0 dyonic case use the closed forms, on all points at once.
    Mixed configurations in any other model (or kappa > 0) have no derived
    closed form, so the currents are measured as Richardson FD curls of the
    inverted E and H (method "fd"): the stencil nodes of all points go
    through one eh_rows call, and a point whose stencil would enter an
    exclusion ball fails with SingularPoint. Never raises
    for a point: failures and points to skip come back as codes. e, the E
    of eh_rows at the same points, spares a non-classical electric-only
    configuration its inversion; the failures of that inversion are then
    the caller's.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    n = len(pts)
    j_e = np.zeros((n, 3))
    j_m = np.zeros((n, 3))
    code = np.zeros(n, dtype=np.int64)
    errors: list = []
    electric_only = not cfg.gs.any()
    magnetic_only = not cfg.qs.any()
    classical = params.kind == CLASSICAL
    with np.errstate(all="ignore"):
        if current_method(params, cfg) == "analytic":
            rs, dist, inside = _coulomb_offsets(cfg, pts)
            idx = mark_singular(cfg, pts, code, errors, inside)
            rs, dist = rs[idx], dist[idx]
            if electric_only:
                d, grad = _coulomb_gradient(cfg.qs, rs, dist)
                if classical:
                    j_m[idx] = _classical_curl(params.beta, d, grad)
                elif e is not None:
                    j_m[idx] = _generic_electric_curl(params, d, e[idx], grad, code, errors, idx)
                else:
                    e, _, _, sub_code, sub_errors = invert_rows(params, d, np.zeros_like(d))
                    merge_failures(code, errors, idx, sub_code, sub_errors)
                    j_m[idx] = _generic_electric_curl(params, d, e, grad, code, errors, idx)
            elif magnetic_only:
                b, grad = _coulomb_gradient(cfg.gs, rs, dist)
                if classical:
                    j_e[idx] = -_classical_curl(params.beta, b, grad)
                else:
                    j_e[idx], sub_code, sub_errors = _generic_magnetic_curl(params, b, grad)
                    merge_failures(code, errors, idx, sub_code, sub_errors)
            else:
                (d, b), (grad_d2, grad_b2) = _coulomb_gradient(_db_weights(cfg), rs, dist)
                j_m[idx] = _dyonic_k0_curl(params.beta, d, grad_d2, b, grad_b2)
                j_e[idx] = -_dyonic_k0_curl(params.beta, b, grad_b2, d, grad_d2)
        else:
            # a stencil entering an exclusion ball skips its point
            h = _fd_step_rows(pts)
            clear = _stencil_clear(cfg, pts, h)
            fail_rows(code, errors, ~clear,
                      SingularPoint("finite-difference stencil enters a charge exclusion ball"))
            idx = np.flatnonzero(clear)
            curl_e, curl_h, sub_code, sub_errors = _fd_rows(
                partial(eh_rows, params, cfg), pts[idx], h[idx])
            merge_failures(code, errors, idx, sub_code, sub_errors)
            j_e[idx] = curl_h
            j_m[idx] = -curl_e
        finite = np.isfinite(j_e).all(axis=1) & np.isfinite(j_m).all(axis=1)
    fail_rows(code, errors, ~finite, DomainViolation("current has non-finite components"))
    return CurrentRows(j_e=j_e, j_m=j_m, code=code, errors=errors)
