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

dyonic_eh inverts one point; dyonic_eh_rows inverts an (N, 3) batch, in
array arithmetic for the logarithmic model and through dyonic_eh row by row
for the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DomainViolation, FieldError, InversionFailure
from .models import (
    CLASSICAL,
    EXPONENTIAL,
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
        return params.f_prime(0.5 * a) ** 2 * a

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
        s_a = 0.5 * (one_pk * a - b2)
        return params.f_prime(s_a) ** 2 * one_pk * a

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


def _logarithmic_rows(params, d, b, failures):
    """The logarithmic branches of dyonic_eh as array arithmetic, expression
    by expression: electrostatic_e for B = 0, magnetostatic_h for D = 0,
    _logarithmic_k0 or _logarithmic_k otherwise, then the direction check.
    Failing rows get the 1-based index of their exception in failures."""
    beta = params.beta
    k2 = params.kappa**2
    d2 = rowdot(d, d)
    b2 = rowdot(b, b)
    e = np.zeros_like(d)
    h = np.zeros_like(b)
    s = np.empty(len(d))
    code = np.zeros(len(d), dtype=np.int64)

    elec = b2 == 0.0
    if elec.any():
        de = d[elec]
        e[elec] = 2.0 * de / (1.0 + np.sqrt(1.0 + 2.0 * beta * d2[elec]))[:, None]
        s[elec] = 0.5 * rowdot(e[elec], e[elec])

    mag = ~elec & (d2 == 0.0)
    if mag.any():
        h[mag] = (1.0 / (1.0 - beta * (-0.5 * b2[mag])))[:, None] * b[mag]
        s[mag] = -0.5 * b2[mag]

    dyon = ~(elec | mag)
    if not dyon.any():
        return e, h, s, code
    dd, bb, d2y, b2y = d[dyon], b[dyon], d2[dyon], b2[dyon]
    if params.kappa == 0.0:
        two_pb = 2.0 + beta * b2y
        root = np.sqrt(1.0 + beta * d2y * two_pb)
        one_m = two_pb / (1.0 + root)
        ey = one_m[:, None] * dd
        hy = bb / one_m[:, None]
        sy = (1.0 - one_m) / beta
        proj = dd
    else:
        bd = rowdot(bb, dd)
        bxd = np.cross(bb, dd)
        bxd2 = rowdot(bxd, bxd)
        eta = bd * bd / (d2y + k2 * (2.0 + k2 * b2y) * bxd2)
        opk = 1.0 + k2 * b2y
        one_pk = 1.0 + k2 * eta
        c = 1.0 + 0.5 * beta * b2y
        m = 1.0 + k2 * (2.0 + k2 * b2y) * eta
        chi = m / (beta * d2y * one_pk)
        a = 2.0 * c * c / (beta * one_pk * (c + chi + np.sqrt(chi * (2.0 * c + chi))))
        sy = 0.5 * (one_pk * a - b2y)
        one_m = 1.0 - beta * sy
        proj = dd - (k2 * bd / opk)[:, None] * bb
        ey = one_m[:, None] * proj
        eb = one_m * bd / opk
        hy = (bb - (k2 * eb)[:, None] * ey) / one_m[:, None]
    e[dyon], h[dyon], s[dyon] = ey, hy, sy

    code_y = np.zeros(len(dd), dtype=np.int64)
    left = one_m <= 0.0
    if left.any():
        failures.append(DomainViolation(
            "logarithmic inversion left its domain: 1-beta*s <= 0"))
        code_y[left] = len(failures)
    dot = rowdot(ey, proj)
    if (dot < 0.0).any():
        norms = np.linalg.norm(ey, axis=1) * np.linalg.norm(proj, axis=1)
        wrong = (code_y == 0) & (dot < -1e-12 * (norms + 1e-300))
        if wrong.any():
            failures.append(InversionFailure(
                "direction match violated: E.(D - k^2 (B.D) B/(1+k^2 B^2)) < 0"))
            code_y[wrong] = len(failures)
    code[dyon] = code_y
    return e, h, s, code


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


def dyonic_eh_rows(params: ModelParams, d, b) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert the constitutive map on rows: D, B of shape (N, 3) -> E, H, s.

    Returns E and H of shape (N, 3) and the invariant s of shape (N,). The
    logarithmic model runs as array arithmetic copied from the scalar
    branches; every other model calls dyonic_eh row by row. Fails loudly:
    if any row fails or yields a non-finite value, raises the class the
    scalar path raises for the first such row (DomainViolation for a
    non-finite one), naming that row and the number of failing rows.
    """
    d = np.asarray(d, dtype=float).reshape(-1, 3)
    b = np.asarray(b, dtype=float).reshape(-1, 3)
    failures: list = []
    rows = _logarithmic_rows if params.kind == LOGARITHMIC else _scalar_rows
    with np.errstate(all="ignore"):
        e, h, s, code = rows(params, d, b, failures)
    finite = np.isfinite(e).all(axis=1) & np.isfinite(h).all(axis=1) & np.isfinite(s)
    if not finite[code == 0].all():
        failures.append(DomainViolation("inversion gave a non-finite field"))
        code[(code == 0) & ~finite] = len(failures)
    bad = np.flatnonzero(code)
    if len(bad):
        i = int(bad[0])
        first = failures[code[i] - 1]
        raise type(first)(
            f"{len(bad)} of {len(d)} rows failed; first row {i} "
            f"(D={d[i].tolist()}, B={b[i].tolist()}): {first}") from first
    return e, h, s
