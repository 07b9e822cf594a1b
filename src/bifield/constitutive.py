"""Constitutive inversions: recover (E, H) from prescribable (D, B).

The forward map (model f, coupling kappa)

    s = (E^2 - B^2)/2 + (kappa^2/2)(E.B)^2,
    D = f'(s) (E + kappa^2 (E.B) B),
    H = f'(s) (B - kappa^2 (E.B) E),

is inverted in closed form for the classical, logarithmic, exponential and
quadratic models, and by a guarded monotone solve for everything else. In
every model the inverse has the shape

    E = (positive scalar) * (D - kappa^2 (B.D) B / (1 + kappa^2 B^2)),

so branch selection reduces to scalar root choices (centralized in specfn)
plus one post-hoc direction check.

kappa = 0 is dispatched to dedicated closed forms rather than taking limits
numerically; D = 0 is routed to the magnetostatic branch (exact for every
model), which the logarithmic closed form needs.

dyonic_eh inverts one point; dyonic_eh_rows inverts an (N, 3) batch. The
classical, logarithmic and fractional-power models run there as array
arithmetic copied from the scalar branches (the fractional power through a
masked monotone solve that follows invert_monotone row by row); the
exponential, quadratic and custom models call dyonic_eh row by row.
invert_rows is its non-raising core: a failure code per row and the list of
exceptions, each the one dyonic_eh raises for that row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DomainViolation, FieldError, InversionFailure, fail_rows, merge_failures
from .models import (
    CLASSICAL,
    EXPONENTIAL,
    FRACTIONAL_POWER,
    LOGARITHMIC,
    QUADRATIC,
    ModelParams,
)
from .sources import as_vec3
from .specfn import invert_monotone, lambert_w, lambert_w_from_log, smallest_positive_cubic_root

# inversions divide by f'(s); inside this band the state is rejected
FPRIME_GUARD = 1e-8

_ZERO3 = np.zeros(3)


@dataclass(frozen=True)
class AuxScalars:
    """Scalar invariants reconstructed alongside an inversion.

    a = E^2, b = (E.B)^2 (= eta * a when eta is defined), s the Lorentz
    invariant.
    """

    a: float
    b: float
    s: float
    eta: Optional[float] = None

    def __post_init__(self):
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("a = E^2 and b = (E.B)^2 must be nonnegative")


@dataclass(frozen=True)
class FieldState:
    """All four fields at one point, plus the invariant s."""

    e: np.ndarray
    b: np.ndarray
    d: np.ndarray
    h: np.ndarray
    s: float


@dataclass(frozen=True)
class MediumMatrix:
    """2x2 block matrix taking (E, H) to (D, B); each block is coeff * I."""

    ee: float
    eh: float
    he: float
    hh: float

    @property
    def det(self) -> float:
        return self.ee * self.hh - self.eh * self.he

    def apply(self, e, h) -> Tuple[np.ndarray, np.ndarray]:
        e = as_vec3(e)
        h = as_vec3(h)
        return self.ee * e + self.eh * h, self.he * e + self.hh * h


def forward_fields(params: ModelParams, e, b) -> FieldState:
    """Evaluate the forward constitutive map at prescribed (E, B)."""
    e = as_vec3(e)
    b = as_vec3(b)
    k2 = params.kappa**2
    eb = float(e @ b)
    s = 0.5 * (float(e @ e) - float(b @ b)) + 0.5 * k2 * eb * eb
    fp = params.f_prime(s)  # raises DomainViolation outside the model domain
    d = fp * (e + k2 * eb * b)
    h = fp * (b - k2 * eb * e)
    return FieldState(e=e, b=b, d=d, h=h, s=s)


def medium_matrix(params: ModelParams, e, b) -> MediumMatrix:
    """Block coefficients of the local medium relation (E, H) -> (D, B)."""
    e = as_vec3(e)
    b = as_vec3(b)
    k2 = params.kappa**2
    eb = float(e @ b)
    s = 0.5 * (float(e @ e) - float(b @ b)) + 0.5 * k2 * eb * eb
    fp = params.f_prime(s)
    if abs(fp) < FPRIME_GUARD:
        raise DomainViolation(f"f'(s) = {fp!r} inside guard band; medium matrix singular")
    return MediumMatrix(ee=fp * (1.0 + k2 * k2 * eb * eb), eh=k2 * eb, he=k2 * eb, hh=1.0 / fp)


# ---------------------------------------------------------------------------
# electrostatic / magnetostatic branches
# ---------------------------------------------------------------------------


def _electrostatic_a(params: ModelParams, d2: float) -> float:
    """Solve (f'(a/2))^2 a = D^2 for a = E^2 >= 0."""
    if d2 == 0.0:
        return 0.0
    beta = params.beta
    if params.kind == CLASSICAL:
        return d2 / (1.0 + beta * d2)
    if params.kind == LOGARITHMIC:
        # E = 2D / (1 + sqrt(1 + 2 beta D^2))
        return 4.0 * d2 / (1.0 + math.sqrt(1.0 + 2.0 * beta * d2)) ** 2
    if params.kind == EXPONENTIAL:
        return lambert_w(beta * d2) / beta
    if params.kind == QUADRATIC:
        al = params.alpha
        return smallest_positive_cubic_root(1.0 / al, d2 / al**2)

    def g(a: float) -> float:
        fp = params.f_prime(0.5 * a)
        return fp * fp * a

    def dg(a: float) -> float:
        fp = params.f_prime(0.5 * a)
        return fp * (fp + params.f_double_prime(0.5 * a) * a)

    hi = max(1.0, d2)
    for _ in range(200):
        if g(hi) >= d2:
            break
        hi *= 2.0
    else:
        raise InversionFailure(f"electrostatic bracket expansion failed at D^2={d2!r}")
    return invert_monotone(g, d2, 0.0, hi, deriv=dg)


def electrostatic_e(params: ModelParams, d) -> np.ndarray:
    """Electric field for a purely electric state (B = 0): E parallel to D.

    The classical and logarithmic forms are written to saturate cleanly as
    |D| -> inf (a = E^2 approaches the bound and f'(a/2) the domain edge,
    so E = D / f'(a/2) is not evaluated literally there).
    """
    d = as_vec3(d)
    d2 = float(d @ d)
    if d2 == 0.0:
        return _ZERO3.copy()
    beta = params.beta
    if params.kind == CLASSICAL:
        return d / math.sqrt(1.0 + beta * d2)
    if params.kind == LOGARITHMIC:
        return 2.0 * d / (1.0 + math.sqrt(1.0 + 2.0 * beta * d2))
    if params.kind == EXPONENTIAL:
        return d * math.exp(-0.5 * lambert_w(beta * d2))
    a = _electrostatic_a(params, d2)
    fp = params.f_prime(0.5 * a)
    if abs(fp) < FPRIME_GUARD:
        raise DomainViolation(f"f'(a/2) = {fp!r} inside guard band")
    return d / fp


def magnetostatic_h(params: ModelParams, b) -> np.ndarray:
    """Magnetic field strength for a purely magnetic state (D = 0): H = f'(-B^2/2) B.

    Forward evaluation only; a zero of f' (quadratic model at B^2 = 1/alpha)
    legitimately returns H = 0 here.
    """
    b = as_vec3(b)
    b2 = float(b @ b)
    if b2 == 0.0:
        return _ZERO3.copy()
    return params.f_prime(-0.5 * b2) * b


# ---------------------------------------------------------------------------
# dyonic branches
# ---------------------------------------------------------------------------


def _classical_k0(params, d, b, d2, b2):
    beta = params.beta
    f = math.sqrt((1.0 + beta * b2) / (1.0 + beta * d2))
    e = f * d
    h = b / f
    s = (d2 - b2) / (2.0 * (1.0 + beta * d2))
    eb = f * float(b @ d)
    return e, h, AuxScalars(a=float(e @ e), b=eb * eb, s=s)


def _classical_k(params, d, b, d2, b2, bd, bxd2, eta):
    beta = params.beta
    k2 = params.kappa**2
    opk = 1.0 + k2 * b2
    r1 = math.sqrt((1.0 + beta * b2) * opk)
    r2 = math.sqrt(1.0 + beta * d2 + k2 * b2 + beta * k2 * bxd2)
    f = r1 / r2  # = sqrt(1 - 2 beta s)
    e = f * (d - k2 * bd / opk * b)
    eb = f * bd / opk
    h = (b - k2 * eb * e) / f
    s = (d2 - b2 + k2 * (bxd2 - b2 * b2)) / (2.0 * r2 * r2)
    return e, h, AuxScalars(a=float(e @ e), b=eb * eb, s=s, eta=eta)


def _logarithmic_k0(params, d, b, d2, b2):
    beta = params.beta
    two_pb = 2.0 + beta * b2
    root = math.sqrt(1.0 + beta * d2 * two_pb)
    one_m = two_pb / (1.0 + root)  # = 1 - beta s, always in (0, 2]
    e = one_m * d
    h = b / one_m
    s = (1.0 - one_m) / beta
    eb = one_m * float(b @ d)
    return e, h, AuxScalars(a=float(e @ e), b=eb * eb, s=s)


def _logarithmic_k(params, d, b, d2, b2, bd, bxd2, eta):
    beta = params.beta
    k2 = params.kappa**2
    opk = 1.0 + k2 * b2
    one_pk = 1.0 + k2 * eta
    c = 1.0 + 0.5 * beta * b2
    m = 1.0 + k2 * (2.0 + k2 * b2) * eta
    chi = m / (beta * d2 * one_pk)
    # smaller root of A^2 a^2 - (2AC + m/D^2) a + C^2 = 0, A = beta*one_pk/2,
    # written in conjugate form so it stays stable as D -> 0
    a = 2.0 * c * c / (beta * one_pk * (c + chi + math.sqrt(chi * (2.0 * c + chi))))
    s = 0.5 * (one_pk * a - b2)
    one_m = 1.0 - beta * s
    if one_m <= 0.0:
        raise DomainViolation(f"logarithmic inversion left its domain: 1-beta*s={one_m!r}")
    e = one_m * (d - k2 * bd / opk * b)
    eb = one_m * bd / opk
    h = (b - k2 * eb * e) / one_m
    return e, h, AuxScalars(a=float(e @ e), b=eb * eb, s=s, eta=eta)


def _exponential(params, d, b, d2, b2, bd, bxd2, eta):
    beta = params.beta
    k2 = params.kappa**2
    opk = 1.0 + k2 * b2
    ratio = (d2 + k2 * bxd2) / opk
    ln_arg = math.log(beta) + beta * b2 + math.log(ratio)
    if ln_arg <= 700.0:
        w = lambert_w(math.exp(ln_arg))
    else:
        w = lambert_w_from_log(ln_arg)
    # beta*s = (w - beta B^2)/2; exponents combined to dodge overflow
    em = math.exp(0.5 * (beta * b2 - w))  # e^{-beta s}
    ep = math.exp(0.5 * (w - beta * b2))  # e^{+beta s} = f'(s)
    e = em * (d - k2 * bd / opk * b)
    eb = em * bd / opk
    h = ep * (b - k2 * eb * e)
    s = 0.5 * (w / beta - b2)
    return e, h, AuxScalars(a=float(e @ e), b=eb * eb, s=s, eta=eta)


def _quadratic(params, d, b, d2, b2, bd, bxd2, eta):
    al = params.alpha
    k2 = params.kappa**2
    opk = 1.0 + k2 * b2
    one_pk = 1.0 + k2 * eta
    m = 1.0 + k2 * (2.0 + k2 * b2) * eta
    gamma = (1.0 - al * b2) / (al * one_pk)
    sigma2 = d2 / ((al * one_pk) ** 2 * m)
    a = smallest_positive_cubic_root(gamma, sigma2)
    s = 0.5 * (one_pk * a - b2)
    fp = 1.0 + 2.0 * al * s
    if abs(fp) < FPRIME_GUARD:
        raise DomainViolation(
            f"quadratic inversion inside the f' guard band: f'(s) = {fp!r}"
        )
    e = (d - k2 * bd / opk * b) / fp
    eb = bd / (fp * opk)
    h = fp * (b - k2 * eb * e)
    return e, h, AuxScalars(a=float(e @ e), b=eb * eb, s=s, eta=eta)


def _generic(params, d, b, d2, b2, bd, bxd2, eta):
    k2 = params.kappa**2
    opk = 1.0 + k2 * b2
    one_pk = 1.0 + k2 * eta
    t = (d2 + k2 * bxd2) / opk

    def g(a: float) -> float:
        fp = params.f_prime(0.5 * (one_pk * a - b2))
        return fp * fp * one_pk * a

    def dg(a: float) -> float:
        s_a = 0.5 * (one_pk * a - b2)
        fp = params.f_prime(s_a)
        return one_pk * fp * (fp + params.f_double_prime(s_a) * one_pk * a)

    hi = max(1.0, t)
    try:
        for _ in range(200):
            if g(hi) >= t:
                break
            hi *= 2.0
        else:
            raise InversionFailure(f"bracket expansion failed at target {t!r}")
        a = invert_monotone(g, t, 0.0, hi, deriv=dg)
    except DomainViolation as exc:
        raise InversionFailure(
            f"target {t!r} unreachable inside the model domain"
        ) from exc
    s = 0.5 * (one_pk * a - b2)
    fp = params.f_prime(s)
    if abs(fp) < FPRIME_GUARD:
        raise DomainViolation(f"f'(s) = {fp!r} inside guard band")
    e = (d - k2 * bd / opk * b) / fp
    eb = bd / (fp * opk)
    h = fp * (b - k2 * eb * e)
    return e, h, AuxScalars(a=float(e @ e), b=eb * eb, s=s, eta=eta)


def dyonic_eh(params: ModelParams, d, b) -> Tuple[np.ndarray, np.ndarray, AuxScalars]:
    """Invert the constitutive map at one point: (D, B) -> (E, H).

    Returns (E, H, aux). The inversion is exact up to scalar root solves;
    the returned E always satisfies the direction match
    E . (D - kappa^2 (B.D) B / (1 + kappa^2 B^2)) >= 0, else InversionFailure.
    """
    d = as_vec3(d)
    b = as_vec3(b)
    d2 = float(d @ d)
    b2 = float(b @ b)

    if b2 == 0.0:
        e = electrostatic_e(params, d)
        aux = AuxScalars(a=float(e @ e), b=0.0, s=0.5 * float(e @ e))
        return e, _ZERO3.copy(), aux
    if d2 == 0.0:
        h = magnetostatic_h(params, b)
        return _ZERO3.copy(), h, AuxScalars(a=0.0, b=0.0, s=-0.5 * b2)

    bd = float(b @ d)
    bxd = np.cross(b, d)
    bxd2 = float(bxd @ bxd)
    k2 = params.kappa**2
    eta = bd * bd / (d2 + k2 * (2.0 + k2 * b2) * bxd2)

    if params.kind == CLASSICAL:
        if params.kappa == 0.0:
            e, h, aux = _classical_k0(params, d, b, d2, b2)
        else:
            e, h, aux = _classical_k(params, d, b, d2, b2, bd, bxd2, eta)
    elif params.kind == LOGARITHMIC:
        if params.kappa == 0.0:
            e, h, aux = _logarithmic_k0(params, d, b, d2, b2)
        else:
            e, h, aux = _logarithmic_k(params, d, b, d2, b2, bd, bxd2, eta)
    elif params.kind == EXPONENTIAL:
        e, h, aux = _exponential(params, d, b, d2, b2, bd, bxd2, eta)
    elif params.kind == QUADRATIC:
        e, h, aux = _quadratic(params, d, b, d2, b2, bd, bxd2, eta)
    else:
        e, h, aux = _generic(params, d, b, d2, b2, bd, bxd2, eta)

    proj = d - k2 * bd / (1.0 + k2 * b2) * b
    dot = float(e @ proj)
    if dot < -1e-12 * (float(np.linalg.norm(e)) * float(np.linalg.norm(proj)) + 1e-300):
        raise InversionFailure(
            f"direction match violated: E.(D - k^2 (B.D) B/(1+k^2 B^2)) = {dot!r}"
        )
    return e, h, aux


def state_from_db(params: ModelParams, d, b) -> FieldState:
    """Full field state at one point from prescribed (D, B)."""
    d = as_vec3(d)
    b = as_vec3(b)
    e, h, aux = dyonic_eh(params, d, b)
    return FieldState(e=e, b=b, d=d, h=h, s=aux.s)


def round_trip_residual(params: ModelParams, d, b) -> float:
    """Relative error of the inversion pushed back through the forward map."""
    d = as_vec3(d)
    b = as_vec3(b)
    e, h, _ = dyonic_eh(params, d, b)
    st = forward_fields(params, e, b)
    scale = max(float(np.linalg.norm(d)), float(np.linalg.norm(b)), 1e-30)
    return max(
        float(np.linalg.norm(st.d - d)), float(np.linalg.norm(st.h - h))
    ) / scale


# ---------------------------------------------------------------------------
# batched inversion
# ---------------------------------------------------------------------------


def rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, 3) arrays, taken by matmul like the
    scalar path's u[i] @ v[i] so that both round alike (an einsum or a sum
    can differ in the last bit)."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _split_rows(d, b):
    """d2, b2, zeroed E, H, s and code arrays, and the rows dyonic_eh sends
    to electrostatic_e (B = 0, D != 0), to magnetostatic_h (D = 0, B != 0)
    and to a dyonic branch: None for a branch with no rows, the full slice
    for one with every row (so that indexing takes views), else an index
    array. Rows with D = B = 0 keep E = H = 0 and s = 0."""
    d2 = rowdot(d, d)
    b2 = rowdot(b, b)
    n = len(d)
    elec, mag, dyon = (None if not m.any() else slice(None) if m.all() else np.flatnonzero(m)
                       for m in ((b2 == 0.0) & (d2 != 0.0), (d2 == 0.0) & (b2 != 0.0),
                                 (d2 != 0.0) & (b2 != 0.0)))
    return (d2, b2, np.zeros_like(d), np.zeros_like(b), np.zeros(n),
            np.zeros(n, dtype=np.int64), elec, mag, dyon)


def _prime_rows(params, s, idx, code, errors, label):
    """f'(s) on the rows idx as f_prime gives it, failing a row outside the
    model domain or, with DomainViolation "<label> = f' inside guard band",
    inside the FPRIME_GUARD band. Failed rows get NaN."""
    ok = params.domain_rows(s)
    fail_rows(code, errors, ~ok, lambda j: params.domain_error(s[j]), idx)
    fp = np.full(len(s), np.nan)
    fp[ok] = params.derivative_rows(s[ok], 1)
    fail_rows(code, errors, ok & (np.abs(fp) < FPRIME_GUARD), lambda j: DomainViolation(
        f"{label} = {float(fp[j])!r} inside guard band"), idx)
    return fp


def _magnetostatic_rows(params, b, b2, idx, h, s, code, errors):
    """magnetostatic_h on the rows idx: H = f'(-B^2/2) B, failing outside
    the model domain as f_prime does."""
    if idx is None:
        return
    sm = -0.5 * b2[idx]
    s[idx] = sm
    ok = params.domain_rows(sm)
    fail_rows(code, errors, ~ok, lambda j: params.domain_error(sm[j]), idx)
    rows = idx if ok.all() else np.arange(len(h))[idx][ok]
    h[rows] = params.derivative_rows(sm[ok], 1)[:, None] * b[rows]


def _dyon_setup(params, d, b, d2, b2):
    """The scalars dyonic_eh forms before its branches, on rows: B.D,
    |B x D|^2, eta, 1 + kappa^2 B^2 and the direction-check projection
    D - kappa^2 (B.D) B / (1 + kappa^2 B^2)."""
    k2 = params.kappa**2
    bd = rowdot(b, d)
    bxd = np.cross(b, d)
    bxd2 = rowdot(bxd, bxd)
    eta = bd * bd / (d2 + k2 * (2.0 + k2 * b2) * bxd2)
    opk = 1.0 + k2 * b2
    proj = d - (k2 * bd / opk)[:, None] * b
    return bd, bxd2, eta, opk, proj


def _direction_rows(e, proj, idx, code, errors):
    """dyonic_eh's direction check on the rows idx."""
    dot = rowdot(e, proj)
    norms = np.sqrt(rowdot(e, e)) * np.sqrt(rowdot(proj, proj))
    fail_rows(code, errors, dot < -1e-12 * (norms + 1e-300), lambda j: InversionFailure(
        f"direction match violated: E.(D - k^2 (B.D) B/(1+k^2 B^2)) = {float(dot[j])!r}"),
        idx)


def _classical_rows(params, d, b, errors):
    """The classical branches of dyonic_eh as array arithmetic, expression
    by expression: electrostatic_e, magnetostatic_h, _classical_k0 or
    _classical_k, then the direction check."""
    beta = params.beta
    k2 = params.kappa**2
    d2, b2, e, h, s, code, elec, mag, dyon = _split_rows(d, b)
    if elec is not None:
        ee = d[elec] / np.sqrt(1.0 + beta * d2[elec])[:, None]
        e[elec], s[elec] = ee, 0.5 * rowdot(ee, ee)
    _magnetostatic_rows(params, b, b2, mag, h, s, code, errors)
    if dyon is None:
        return e, h, s, code
    dd, bb, d2y, b2y = d[dyon], b[dyon], d2[dyon], b2[dyon]
    bd, bxd2, _, opk, proj = _dyon_setup(params, dd, bb, d2y, b2y)
    if params.kappa == 0.0:
        f = np.sqrt((1.0 + beta * b2y) / (1.0 + beta * d2y))
        e[dyon] = f[:, None] * dd
        h[dyon] = bb / f[:, None]
        s[dyon] = (d2y - b2y) / (2.0 * (1.0 + beta * d2y))
    else:
        r1 = np.sqrt((1.0 + beta * b2y) * opk)
        r2 = np.sqrt(1.0 + beta * d2y + k2 * b2y + beta * k2 * bxd2)
        f = r1 / r2
        ey = f[:, None] * proj
        eb = f * bd / opk
        e[dyon] = ey
        h[dyon] = (bb - (k2 * eb)[:, None] * ey) / f[:, None]
        s[dyon] = (d2y - b2y + k2 * (bxd2 - b2y * b2y)) / (2.0 * r2 * r2)
    _direction_rows(e[dyon], proj, dyon, code, errors)
    return e, h, s, code


def _logarithmic_rows(params, d, b, errors):
    """The logarithmic branches of dyonic_eh as array arithmetic, expression
    by expression: electrostatic_e for B = 0, magnetostatic_h for D = 0,
    _logarithmic_k0 or _logarithmic_k otherwise, then the direction check."""
    beta = params.beta
    k2 = params.kappa**2
    d2, b2, e, h, s, code, elec, mag, dyon = _split_rows(d, b)
    if elec is not None:
        ee = 2.0 * d[elec] / (1.0 + np.sqrt(1.0 + 2.0 * beta * d2[elec]))[:, None]
        e[elec], s[elec] = ee, 0.5 * rowdot(ee, ee)
    _magnetostatic_rows(params, b, b2, mag, h, s, code, errors)
    if dyon is None:
        return e, h, s, code
    dd, bb, d2y, b2y = d[dyon], b[dyon], d2[dyon], b2[dyon]
    bd, _, eta, opk, proj = _dyon_setup(params, dd, bb, d2y, b2y)
    if params.kappa == 0.0:
        two_pb = 2.0 + beta * b2y
        root = np.sqrt(1.0 + beta * d2y * two_pb)
        one_m = two_pb / (1.0 + root)
        ey = one_m[:, None] * dd
        hy = bb / one_m[:, None]
        sy = (1.0 - one_m) / beta
    else:
        one_pk = 1.0 + k2 * eta
        c = 1.0 + 0.5 * beta * b2y
        m = 1.0 + k2 * (2.0 + k2 * b2y) * eta
        chi = m / (beta * d2y * one_pk)
        a = 2.0 * c * c / (beta * one_pk * (c + chi + np.sqrt(chi * (2.0 * c + chi))))
        sy = 0.5 * (one_pk * a - b2y)
        one_m = 1.0 - beta * sy
        ey = one_m[:, None] * proj
        eb = one_m * bd / opk
        hy = (bb - (k2 * eb)[:, None] * ey) / one_m[:, None]
        fail_rows(code, errors, one_m <= 0.0, lambda j: DomainViolation(
            f"logarithmic inversion left its domain: 1-beta*s={float(one_m[j])!r}"), dyon)
    e[dyon], h[dyon], s[dyon] = ey, hy, sy
    _direction_rows(ey, proj, dyon, code, errors)
    return e, h, s, code


def _monotone_rows(params, t, one_pk, b2):
    """The monotone solve of _generic on rows: g(a) = f'(s_a)^2 one_pk a = t
    with s_a = (one_pk a - b2)/2 (one_pk = 1, b2 = 0 is _electrostatic_a's).

    Each row runs the scalar iterates and stops at its own test. The bracket
    [0, hi] doubles from max(1, t) until g(hi) >= t, at most 200 times. Then
    invert_monotone(g, t, 0, hi, deriv=dg) runs: its flo == 0 and fhi == 0
    exits, its best-residual tracking, Newton steps kept only strictly
    inside the bracket, its 1e-12 residual stop and its stop once no float
    lies strictly inside the bracket. Its bracket test cannot fail here
    (flo = -t < 0 <= fhi), and g increases.

    Returns a (NaN where unsolved), the mask of rows whose s_a left the
    model domain with the s_a at which they did, and the mask of rows whose
    bracket never closed.
    """
    n = len(t)
    a_out = np.full(n, np.nan)
    lost = np.zeros(n, dtype=bool)
    lost_s = np.full(n, np.nan)

    def g(rows, a):
        """Drop the rows whose s_a leaves the domain; return the others with
        their a, s_a, f'(s_a) and g(a) - t."""
        s_a = 0.5 * (one_pk[rows] * a - b2[rows])
        ok = params.domain_rows(s_a)
        lost[rows[~ok]] = True
        lost_s[rows[~ok]] = s_a[~ok]
        rows, a, s_a = rows[ok], a[ok], s_a[ok]
        fp = params.derivative_rows(s_a, 1)
        return rows, a, s_a, fp, fp * fp * one_pk[rows] * a - t[rows]

    hi = np.where(t > 1.0, t, 1.0)
    rows = np.arange(n)
    closed = np.zeros(n, dtype=bool)
    for _ in range(200):
        rows, _, _, _, fhi = g(rows, hi[rows])
        closed[rows[fhi >= 0.0]] = True
        rows = rows[~(fhi >= 0.0)]
        hi[rows] *= 2.0
        if not len(rows):
            break
    unbracketed = np.zeros(n, dtype=bool)
    unbracketed[rows] = True

    rows, _, _, _, flo = g(np.flatnonzero(closed), np.zeros(int(closed.sum())))
    a_out[rows[flo == 0.0]] = 0.0
    rows = rows[flo != 0.0]
    rows, _, _, _, fhi = g(rows, hi[rows])
    a_out[rows[fhi == 0.0]] = hi[rows[fhi == 0.0]]
    rows = rows[fhi != 0.0]

    tol = 1e-12 * np.where(np.abs(t[rows]) > 1.0, np.abs(t[rows]), 1.0)
    lo = np.zeros(len(rows))
    hi = hi[rows]
    a = 0.5 * (lo + hi)
    best = a.copy()
    best_res = np.full(len(rows), np.inf)
    for _ in range(200):
        if not len(rows):
            break
        kept, a, s_a, fp, fa = g(rows, a)
        if len(kept) < len(rows):
            ok = np.isin(rows, kept)
            tol, lo, hi, best, best_res = (v[ok] for v in (tol, lo, hi, best, best_res))
            rows = kept
        res = np.abs(fa)
        better = res < best_res
        best = np.where(better, a, best)
        best_res = np.where(better, res, best_res)
        done = res <= tol
        a_out[rows[done]] = a[done]
        up = fa > 0.0
        hi = np.where(up, a, hi)
        lo = np.where(up, lo, a)
        opk = one_pk[rows]
        da = opk * fp * (fp + params.derivative_rows(s_a, 2) * opk * a)
        step = a - fa / da
        newton = (da != 0.0) & np.isfinite(da) & (lo < step) & (step < hi)
        a = np.where(newton, step, 0.5 * (lo + hi))
        narrow = ~done & (np.nextafter(lo, hi) >= hi)
        a_out[rows[narrow]] = best[narrow]
        go = ~(done | narrow)
        rows, a, tol, lo, hi, best, best_res = (
            v[go] for v in (rows, a, tol, lo, hi, best, best_res))
    a_out[rows] = best
    return a_out, lost, lost_s, unbracketed


def _generic_rows(params, d, b, errors):
    """The branches dyonic_eh takes for a model without a closed form, as
    array arithmetic: electrostatic_e through _electrostatic_a's solve,
    magnetostatic_h, and _generic, then the direction check. Each failing
    row gets the exception the scalar path raises for it. Exact for a model
    whose derivative_rows round like its scalar f' and f''; the fractional
    power is the one built-in kind routed here."""
    k2 = params.kappa**2
    d2, b2, e, h, s, code, elec, mag, dyon = _split_rows(d, b)

    # electrostatic_e: _electrostatic_a raises DomainViolation unwrapped
    if elec is not None:
        t = d2[elec]
        a, lost, lost_s, unbracketed = _monotone_rows(params, t, np.ones(len(t)),
                                                      np.zeros(len(t)))
        fail_rows(code, errors, lost, lambda j: params.domain_error(lost_s[j]), elec)
        fail_rows(code, errors, unbracketed, lambda j: InversionFailure(
            f"electrostatic bracket expansion failed at D^2={float(t[j])!r}"), elec)
        fp = _prime_rows(params, 0.5 * a, elec, code, errors, "f'(a/2)")
        ee = d[elec] / fp[:, None]
        e[elec], s[elec] = ee, 0.5 * rowdot(ee, ee)

    _magnetostatic_rows(params, b, b2, mag, h, s, code, errors)
    if dyon is None:
        return e, h, s, code

    # _generic turns a DomainViolation inside its solve into InversionFailure
    dd, bb, d2y, b2y = d[dyon], b[dyon], d2[dyon], b2[dyon]
    bd, bxd2, eta, opk, proj = _dyon_setup(params, dd, bb, d2y, b2y)
    one_pk = 1.0 + k2 * eta
    t = (d2y + k2 * bxd2) / opk
    a, lost, _, unbracketed = _monotone_rows(params, t, one_pk, b2y)
    fail_rows(code, errors, lost, lambda j: InversionFailure(
        f"target {float(t[j])!r} unreachable inside the model domain"), dyon)
    fail_rows(code, errors, unbracketed, lambda j: InversionFailure(
        f"bracket expansion failed at target {float(t[j])!r}"), dyon)
    sy = 0.5 * (one_pk * a - b2y)
    fp = _prime_rows(params, sy, dyon, code, errors, "f'(s)")
    ey = proj / fp[:, None]
    eb = bd / (fp * opk)
    e[dyon] = ey
    h[dyon] = fp[:, None] * (bb - (k2 * eb)[:, None] * ey)
    s[dyon] = sy
    _direction_rows(ey, proj, dyon, code, errors)
    return e, h, s, code


_ROW_KERNELS = {
    CLASSICAL: _classical_rows,
    LOGARITHMIC: _logarithmic_rows,
    FRACTIONAL_POWER: _generic_rows,
}


def _scalar_rows(params, d, b, failures):
    """dyonic_eh row by row; failing rows get the 1-based index of their
    exception in failures."""
    e = np.zeros_like(d)
    h = np.zeros_like(b)
    s = np.zeros(len(d))
    code = np.zeros(len(d), dtype=np.int64)
    for i in range(len(d)):
        try:
            e[i], h[i], aux = dyonic_eh(params, d[i], b[i])
        except FieldError as exc:
            failures.append(exc)
            code[i] = len(failures)
            continue
        s[i] = aux.s
    return e, h, s, code


def invert_rows(params: ModelParams, d, b) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                                     np.ndarray, list]:
    """The non-raising core of dyonic_eh_rows: E, H, s, code, errors.

    code[i] is 0 for a row that inverted to finite values and k > 0 when
    errors[k - 1] is its failure: DomainViolation for a non-finite D or B
    (such rows reach no model branch), the exception dyonic_eh raises for
    that row alone, or DomainViolation for a non-finite result. A failed
    row's E, H and s are meaningless.
    """
    d = np.asarray(d, dtype=float).reshape(-1, 3)
    b = np.asarray(b, dtype=float).reshape(-1, 3)
    if not (np.isfinite(d).all() and np.isfinite(b).all()):
        ok = np.isfinite(d).all(axis=1) & np.isfinite(b).all(axis=1)
        e, h, s = np.zeros_like(d), np.zeros_like(b), np.zeros(len(d))
        code = (~ok).astype(np.int64)
        errors = [DomainViolation("non-finite D or B (an overflowed or undefined Coulomb field)")]
        e[ok], h[ok], s[ok], sub_code, sub_errors = invert_rows(params, d[ok], b[ok])
        merge_failures(code, errors, np.flatnonzero(ok), sub_code, sub_errors)
        return e, h, s, code, errors
    errors = []
    rows = _ROW_KERNELS.get(params.kind, _scalar_rows)
    with np.errstate(all="ignore"):
        e, h, s, code = rows(params, d, b, errors)
    if not (np.isfinite(e).all() and np.isfinite(h).all() and np.isfinite(s).all()):
        finite = np.isfinite(e).all(axis=1) & np.isfinite(h).all(axis=1) & np.isfinite(s)
        fail_rows(code, errors, ~finite, DomainViolation("inversion gave a non-finite field"))
    return e, h, s, code, errors


def dyonic_eh_rows(params: ModelParams, d, b) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert the constitutive map on rows: D, B of shape (N, 3) -> E, H, s.

    Returns E and H of shape (N, 3) and the invariant s of shape (N,). The
    classical, logarithmic and fractional-power models run as array
    arithmetic copied from the scalar branches and round like them; every
    other model calls dyonic_eh row by row. Fails loudly: if any row fails
    or yields a non-finite value, raises the class the scalar path raises
    for the first such row (DomainViolation for a non-finite one), naming
    that row and the number of failing rows.
    """
    d = np.asarray(d, dtype=float).reshape(-1, 3)
    b = np.asarray(b, dtype=float).reshape(-1, 3)
    e, h, s, code, errors = invert_rows(params, d, b)
    bad = np.flatnonzero(code)
    if len(bad):
        i = int(bad[0])
        first = errors[code[i] - 1]
        raise type(first)(
            f"{len(bad)} of {len(d)} rows failed; first row {i} "
            f"(D={d[i].tolist()}, B={b[i].tolist()}): {first}") from first
    return e, h, s
