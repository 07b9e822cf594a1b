"""Induced current densities for multicentered point-charge fields.

A single point charge produces purely radial E and H fields that are
gradients, hence curl-free. With two or more centers the nonlinearity couples
the Coulomb terms and static current densities appear:

    curl E = -j_m        (induced magnetic current density)
    curl H = +j_e        (induced electric current density)

Every inversion has the form E = P / phi with phi = f'(s) and P an
explicit function of D and B, and s solves one scalar equation. Its
implicit derivative gives the currents of any model at any kappa in closed
form (_implicit_currents), from D, B, their Jacobians and s; as
curl D = curl B = 0, each is a few cross products. The classical model
keeps its D-based _classical_curl and _dyonic_k0_curl wherever kappa does
not enter. D, B and their Jacobians come from one O(n) Coulomb kernel in
sources. The tests check every current against FD curls of the rows
fields, the triple sums over the charges and 50-digit references.

StateRows is the one record of a solution's state at N points: D, B, E,
H, s, the failure code of each point and, where the source gives them, the
Jacobians of D and B. eh_rows is the one function that turns points into
the state of a point-charge configuration, from one Coulomb pass and one
constitutive rows call (continuous.state_rows is its twin for continuous
sources). current_rows is the module's one evaluation of the currents: N
points at once, as array arithmetic. Like every rows kernel, these record
failures instead of raising them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainViolation, fail_rows, merge_failures, raise_first
from .models import ModelParams, CLASSICAL
from .sources import (ChargeConfig, _coulomb_gradient, _coulomb_jacobian, _coulomb_offsets,
                      _db_weights, _superpose, mark_singular)
from .constitutive import cross_rows, invert_rows, rowdot

__all__ = [
    "StateRows",
    "eh_rows",
    "eh_field",
    "CurrentRows",
    "current_rows",
]


@dataclass(frozen=True)
class StateRows:
    """The state of a solution at N points: d, b, e and h of shape (N, 3),
    s of shape (N,), and code[i] = 0 when point i evaluated, else k > 0
    with errors[k - 1] its first failure (see errors.fail_rows); a reader
    that fails more rows adds them to the same code and errors. jac_d and
    jac_b, of shape (N, 3, 3), are the Jacobians of D and B, or None where
    the record does not carry them: eh_rows forms none, and
    continuous.state_rows none for a gridded density. A failed point's
    values are meaningless."""

    d: np.ndarray
    b: np.ndarray
    e: np.ndarray
    h: np.ndarray
    s: np.ndarray
    code: np.ndarray
    errors: list
    jac_d: Optional[np.ndarray] = None
    jac_b: Optional[np.ndarray] = None


@dataclass(frozen=True)
class CurrentRows:
    """Current densities at N points.

    j_e and j_m have shape (N, 3).
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


def _jdot(jac: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J v on rows: Jacobians (N, 3, 3) times vectors (N, 3)."""
    return (jac @ v[:, :, None])[:, :, 0]


def _implicit_currents(params: ModelParams, d: np.ndarray, b: np.ndarray, jac_d: np.ndarray,
                       jac_b: np.ndarray, s: np.ndarray):
    """(j_e, j_m) of any model at any kappa on rows, from D, B, their
    symmetric Jacobians J_D and J_B and the invariant s of their inversion.

    Every inversion has E = P / phi with phi = f'(s), P = D - c B and
    c = kappa^2 (B.D) / (1 + kappa^2 B^2), and H = phi B - (c / phi) P. s
    solves the one scalar equation phi^2 (2 s + B^2) = t with
    t = (D^2 + kappa^2 |B x D|^2) / (1 + kappa^2 B^2), so
    grad phi = f'' grad s = phi^2 pref v with v = grad t - phi^2 grad(B^2)
    and pref = f'' / (2 phi^3 (f'' (2 s + B^2) + phi)). As
    curl D = curl B = 0 and curl P = -grad c x B,

        j_m = -curl E = pref v x P + (grad c x B) / phi,
        j_e = curl H = phi^2 pref v x B + c j_m - (grad c x P) / phi.

    grad(F^2) = 2 J_F F, and grad |w|^2 = 2 (J_D (w x B) - J_B (w x D))
    for w = B x D. At kappa = 0, c = 0 and t = D^2, which leaves the
    scalar prefactor times one cross product. f'' = 0 gives the v terms as
    exact zeros. A row whose s lies outside the model domain gets NaN
    currents: the kernel records no failures.
    """
    ok = params.domain_rows(s)
    s = np.where(ok, s, 0.0)
    k2 = params.kappa**2
    with np.errstate(all="ignore"):
        phi = np.where(ok, params.derivative_rows(s, 1), np.nan)
        fpp = params.derivative_rows(s, 2)
        phi2 = phi * phi
        b2 = rowdot(b, b)
        opk = 1.0 + k2 * b2
        grad_a = 2.0 * _jdot(jac_d, d)
        grad_b = 2.0 * _jdot(jac_b, b)
        c = k2 * rowdot(b, d) / opk
        p = d - c[:, None] * b
        w = cross_rows(b, d)
        grad_w2 = 2.0 * (_jdot(jac_d, cross_rows(w, b)) - _jdot(jac_b, cross_rows(w, d)))
        t = (rowdot(d, d) + k2 * rowdot(w, w)) / opk
        grad_t = (grad_a + k2 * (grad_w2 - t[:, None] * grad_b)) / opk[:, None]
        grad_bd = _jdot(jac_b, d) + _jdot(jac_d, b)
        grad_c = k2 * (grad_bd - c[:, None] * grad_b) / opk[:, None]
        pref = fpp * (1.0 / (phi * (fpp * (2.0 * s + b2) + phi))) / (2.0 * phi2)
        v = grad_t - phi2[:, None] * grad_b
        linear = (fpp == 0.0)[:, None]
        j_m = (np.where(linear, 0.0, pref[:, None] * cross_rows(v, p))
               + cross_rows(grad_c, b) / phi[:, None])
        j_e = (np.where(linear, 0.0, (pref * phi2)[:, None] * cross_rows(v, b))
               + c[:, None] * j_m - cross_rows(grad_c, p) / phi[:, None])
        return j_e, j_m


def eh_rows(params: ModelParams, cfg: ChargeConfig, pts) -> StateRows:
    """The inverted state of the multicentred solution at points of shape
    (N, 3), without Jacobians, from one Coulomb pass (the offsets that
    decide the exclusion balls also give D and B on the regular rows) and
    one invert_rows call over all rows. A row inside an exclusion ball
    carries D = B = 0 and keeps its SingularPoint; a point fails with its
    first failure in the order singular, inversion. Never raises for a
    point.
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
    return StateRows(d, b, e, h, s, code, errors)


def eh_field(params: ModelParams, cfg: ChargeConfig) -> Callable:
    """The field y -> stack(E, H), (..., 3) -> (..., 2, 3), from one eh_rows
    call, so a quadrature takes the E and H fluxes from the same nodes.
    Raises the failure eh_rows records for the first failing point in row
    order (DomainViolation for a non-finite inversion).
    """
    def field(y):
        state = eh_rows(params, cfg, y)
        raise_first(state.code, state.errors)
        return np.stack((state.e, state.h), axis=1).reshape(np.shape(y)[:-1] + (2, 3))

    return field


def current_rows(params: ModelParams, cfg: ChargeConfig, pts,
                 state: StateRows = None) -> CurrentRows:
    """Evaluate (j_e, j_m) at points of shape (N, 3), all at once; every
    row is what a one-point call gives there.

    One Coulomb pass gives D, B and what the closed forms need. The
    classical model at kappa = 0, and with one kind of charge at any kappa,
    takes its D-based curls; every other configuration takes one inversion
    and one _implicit_currents call, on J_D and J_B from
    _coulomb_jacobian. A point inside an exclusion ball fails with
    SingularPoint. Never raises for a point: failures and points to skip
    come back as codes. state, the eh_rows record of the same points,
    spares the inversion: its s is taken, and its failures stay the
    caller's.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    n = len(pts)
    j_e = np.zeros((n, 3))
    j_m = np.zeros((n, 3))
    code = np.zeros(n, dtype=np.int64)
    errors: list = []
    electric_only = not cfg.gs.any()
    magnetic_only = not cfg.qs.any()
    with np.errstate(all="ignore"):
        rs, dist, inside = _coulomb_offsets(cfg, pts)
        idx = mark_singular(cfg, pts, code, errors, inside)
        rs, dist = rs[idx], dist[idx]
        one_kind = electric_only or magnetic_only
        if params.kind != CLASSICAL or (params.kappa > 0.0 and not one_kind):
            (d, b), (jac_d, jac_b) = _coulomb_jacobian(_db_weights(cfg), rs, dist)
            if state is None:
                s = np.zeros(n)
                _, _, s[idx], sub_code, sub_errors = invert_rows(params, d, b)
                merge_failures(code, errors, idx, sub_code, sub_errors)
            else:
                s = state.s
            je, jm = _implicit_currents(params, d, b, jac_d, jac_b, s[idx])
            # the absent kind's current stays exactly zero
            j_e[idx] = 0.0 if electric_only else je
            j_m[idx] = 0.0 if magnetic_only else jm
        elif electric_only:
            j_m[idx] = _classical_curl(params.beta, *_coulomb_gradient(cfg.qs, rs, dist))
        elif magnetic_only:
            j_e[idx] = -_classical_curl(params.beta, *_coulomb_gradient(cfg.gs, rs, dist))
        else:
            (d, b), (grad_a, grad_b) = _coulomb_gradient(_db_weights(cfg), rs, dist)
            j_m[idx] = _dyonic_k0_curl(params.beta, d, grad_a, b, grad_b)
            j_e[idx] = -_dyonic_k0_curl(params.beta, b, grad_b, d, grad_a)
        finite = np.isfinite(j_e).all(axis=1) & np.isfinite(j_m).all(axis=1)
    fail_rows(code, errors, ~finite, DomainViolation("current has non-finite components"))
    return CurrentRows(j_e=j_e, j_m=j_m, code=code, errors=errors)
