"""Scalar reference for the constitutive inversion and its special functions.

bifield.constitutive inverts (D, B) -> (E, H) on rows only, through array
kernels that follow scalar algorithms branch by branch, and bifield.specfn
solves Lambert W and the cubic on arrays the same way. This module keeps
those scalar algorithms, one point or one argument at a time with the math
module, as the oracle the tests hold the kernels against:

* dyonic_eh, electrostatic_e and magnetostatic_h with the per-model branches
  _classical_k0 ... _generic and _electrostatic_a;
* lambert_w, lambert_w_from_log and _halley_w; smallest_positive_cubic_root
  and _cubic_newton; invert_monotone, the bracketed Newton/bisection behind
  the models without a closed form, and the BracketFailure it raises;
* energy_density, the model-generic Hamiltonian density of one state, the
  reference for bifield.observables.density_rows;
* forward_fields and the FieldState it returns, the forward map at one
  point, the reference for bifield.constitutive.forward_rows;
* in_domain, f, f_prime and f_double_prime, the model table one s at a
  time, the reference for ModelParams.domain_rows and derivative_rows.

The classical, logarithmic, fractional-power and custom kernels round like
these bodies bit for bit. The exponential and quadratic ones take numpy's
exp, log and pow, which differ from the math module's in the last bit on a
few percent of inputs, so they agree to rounding.

The oracle is independent of the code it checks: it imports from bifield
only ModelParams (for its parameters, custom callables and domain_error
message), the model kind names, as_vec3 and the exception classes;
test_oracle_independence enforces that.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from bifield.errors import (
    DomainViolation,
    FieldError,
    InversionFailure,
    NegativeArgument,
    NoNonnegativeRoot,
)
from bifield.models import (
    CLASSICAL,
    CUSTOM,
    EXPONENTIAL,
    FRACTIONAL_POWER,
    LOGARITHMIC,
    QUADRATIC,
    ModelParams,
)
from bifield.sources import as_vec3

# inversions divide by f'(s); inside this band the state is rejected
FPRIME_GUARD = 1e-8

_ZERO3 = np.zeros(3)


class BracketFailure(FieldError):
    """Monotone inversion could not enclose the target value."""


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


# ---------------------------------------------------------------------------
# model table
# ---------------------------------------------------------------------------


def in_domain(params: ModelParams, s: float) -> bool:
    if not math.isfinite(s):
        return False
    b = params.beta
    if params.kind == CLASSICAL:
        return 2.0 * b * s < 1.0
    if params.kind == LOGARITHMIC:
        return b * s < 1.0
    if params.kind == FRACTIONAL_POWER and abs(params.p - round(params.p)) > 1e-9:
        return 1.0 + b * s / params.p > 0.0
    if params.kind == CUSTOM:
        return params.s_min < s < params.s_max
    return True


def _require(params: ModelParams, s: float) -> float:
    s = float(s)
    if not in_domain(params, s):
        raise params.domain_error(s)
    return s


def _fpow(params: ModelParams, s: float, order: int) -> float:
    """(1 + beta s/p)^(p - order) through numpy's power, as the kernels take
    it (Python's pow differs from it in the last bit on a few percent of
    inputs); exact for a negative base and integer p."""
    expo = params.p - order
    if abs(params.p - round(params.p)) <= 1e-9:
        expo = float(round(expo))
    with np.errstate(over="ignore"):
        return float(np.power(np.asarray(1.0 + params.beta * s / params.p), expo))


def f(params: ModelParams, s: float) -> float:
    s = _require(params, s)
    b = params.beta
    if params.kind == CLASSICAL:
        return (1.0 - math.sqrt(1.0 - 2.0 * b * s)) / b
    if params.kind == LOGARITHMIC:
        return -math.log1p(-b * s) / b
    if params.kind == EXPONENTIAL:
        return math.expm1(b * s) / b
    if params.kind == FRACTIONAL_POWER:
        x = b * s / params.p
        if 1.0 + x > 0.0:
            # the power form cancels at small s
            with np.errstate(over="ignore"):
                return float(np.expm1(params.p * np.log1p(np.asarray(x)))) / b
        return (_fpow(params, s, 0) - 1.0) / b
    if params.kind == QUADRATIC:
        return s + params.alpha * s * s
    return params.f_custom(s)


def f_prime(params: ModelParams, s: float) -> float:
    s = _require(params, s)
    b = params.beta
    if params.kind == CLASSICAL:
        return 1.0 / math.sqrt(1.0 - 2.0 * b * s)
    if params.kind == LOGARITHMIC:
        return 1.0 / (1.0 - b * s)
    if params.kind == EXPONENTIAL:
        return math.exp(b * s)
    if params.kind == FRACTIONAL_POWER:
        return _fpow(params, s, 1)
    if params.kind == QUADRATIC:
        return 1.0 + 2.0 * params.alpha * s
    return params.f_prime_custom(s)


def f_double_prime(params: ModelParams, s: float) -> float:
    s = _require(params, s)
    b = params.beta
    if params.kind == CLASSICAL:
        return b / (1.0 - 2.0 * b * s) ** 1.5
    if params.kind == LOGARITHMIC:
        return b / (1.0 - b * s) ** 2
    if params.kind == EXPONENTIAL:
        return b * math.exp(b * s)
    if params.kind == FRACTIONAL_POWER:
        if params.p == 1.0:
            return 0.0
        return b * (params.p - 1.0) / params.p * _fpow(params, s, 2)
    if params.kind == QUADRATIC:
        return 2.0 * params.alpha
    return params.f_double_prime_custom(s)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


# Truncated series for W(x) about 0 (radius of convergence 1/e); used only
# as an iteration seed, never as the returned value.
_W_SERIES = [(-k) ** (k - 1) / math.factorial(k) for k in range(1, 9)]


def _halley_w(w: float, x: float) -> float:
    """Halley steps for w e^w = x, followed by one Newton polish."""
    for _ in range(40):
        ew = math.exp(w)
        r = w * ew - x
        wp1 = w + 1.0
        # Halley update; denominator never vanishes for w > -1
        dw = r / (ew * wp1 - (w + 2.0) * r / (2.0 * wp1))
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            break
    ew = math.exp(w)
    r = w * ew - x
    w -= r / (ew * (w + 1.0))
    return w


def lambert_w(x: float) -> float:
    """Principal-branch Lambert W on the nonnegative axis.

    Residual contract: |w e^w - x| <= 1e-13 * max(1, x).

    Raises
    ------
    NegativeArgument
        If x < 0 (the real principal branch below -1/e is not needed here).
    """
    x = float(x)
    if math.isnan(x):
        raise NegativeArgument("lambert_w: argument is NaN")
    if x < 0.0:
        raise NegativeArgument(f"lambert_w: negative argument {x!r}")
    if x == 0.0:
        return 0.0
    if x > 1e308:
        return lambert_w_from_log(math.log(x))
    if x <= 0.25:
        # series seed
        w = 0.0
        xk = 1.0
        for c in _W_SERIES:
            xk *= x
            w += c * xk
    elif x <= 3.0:
        w = math.log1p(x)
    else:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    return _halley_w(w, x)


def lambert_w_from_log(log_x: float) -> float:
    """Lambert W given ln(x), for arguments beyond float range.

    Solves w + ln w = ln x by guarded Newton; identical to lambert_w(e^{log_x})
    in exact arithmetic. Requires log_x > 1 (i.e. x > e), which holds whenever
    this path is taken.
    """
    if log_x <= 1.0:
        return lambert_w(math.exp(log_x))
    w = log_x - math.log(log_x)
    for _ in range(40):
        dw = (w + math.log(w) - log_x) / (1.0 + 1.0 / w)
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def _cubic(a: float, gamma: float) -> float:
    return (gamma + a) ** 2 * a


def _cubic_newton(gamma: float, sigma2: float, lo: float, hi: float) -> float:
    """Bracketed Newton for (gamma+a)^2 a = sigma2 on [lo, hi].

    phi(lo) <= 0 <= phi(hi) must hold on entry.
    """
    a = 0.5 * (lo + hi)
    for _ in range(200):
        phi = _cubic(a, gamma) - sigma2
        if phi > 0.0:
            hi = a
        else:
            lo = a
        dphi = (gamma + a) * (gamma + 3.0 * a)
        if dphi > 0.0:
            step = a - phi / dphi
            a = step if lo < step < hi else 0.5 * (lo + hi)
        else:
            a = 0.5 * (lo + hi)
        if hi - lo <= 1e-16 * max(1.0, hi) and abs(phi) <= 1e-10 * max(1.0, sigma2):
            break
    return a


def smallest_positive_cubic_root(gamma: float, sigma2: float) -> float:
    """Smallest nonnegative root of (gamma + a)^2 a = sigma2.

    Uses the closed form

        T = 8 gamma^3 + 108 sigma2 + 12 sqrt(12 gamma^3 sigma2 + 81 sigma2^2),
        a = (T^(1/3) - 2 gamma)^2 / (6 T^(1/3)),

    falling back to a bracketed Newton solve when the cube-root difference
    cancels (relative difference < 1e-6) or when the inner discriminant goes
    negative (three real roots, possible only for gamma < 0).

    Residual contract: |(gamma+a)^2 a - sigma2| <= 1e-10 * max(1, sigma2).
    """
    gamma = float(gamma)
    sigma2 = float(sigma2)
    if sigma2 < 0.0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2!r}")
    if sigma2 == 0.0:
        return 0.0

    four27 = 4.0 * gamma**3 + 27.0 * sigma2
    if gamma < 0.0 and four27 <= 0.0:
        # Three real roots (sigma2 <= -4 gamma^3/27); the smallest nonnegative
        # one sits left of the local max of phi at a = -gamma/3.
        hi = -gamma / 3.0
        return _cubic_newton(gamma, sigma2, 0.0, hi)

    disc = 3.0 * sigma2 * four27  # >= 0 on this path
    t = (8.0 * gamma**3 + 108.0 * sigma2 + 12.0 * math.sqrt(disc)) ** (1.0 / 3.0)
    diff = t - 2.0 * gamma
    if gamma > 0.0 and diff < 1e-6 * t:
        # (T^(1/3) - 2 gamma)^2 loses all significant digits; the root is
        # near sigma2/gamma^2, safely bracketed by it.
        hi = min(sigma2 / gamma**2, sigma2 ** (1.0 / 3.0)) * (1.0 + 1e-12) + 1e-300
        if _cubic(hi, gamma) < sigma2:
            hi = sigma2 ** (1.0 / 3.0) * 2.0
        a = _cubic_newton(gamma, sigma2, 0.0, hi)
    else:
        a = diff * diff / (6.0 * t)
        # one or two Newton polishes to pin the residual
        for _ in range(3):
            phi = _cubic(a, gamma) - sigma2
            if abs(phi) <= 1e-12 * max(1.0, sigma2):
                break
            dphi = (gamma + a) * (gamma + 3.0 * a)
            if dphi <= 0.0:
                break
            a_next = a - phi / dphi
            if a_next < 0.0:
                break
            a = a_next

    if a < 0.0:
        raise NoNonnegativeRoot(
            f"cubic solve returned a={a!r} for gamma={gamma!r}, sigma2={sigma2!r}"
        )
    return a


def invert_monotone(
    g: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    deriv: Optional[Callable[[float], float]] = None,
    rel_tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Solve g(a) = target for strictly monotone g on [lo, hi].

    Newton steps (when `deriv` is given and the step stays inside the current
    bracket) accelerate a bisection that guarantees progress. The returned
    root satisfies |g(root) - target| <= rel_tol * max(1, |target|) whenever
    g is smooth enough for float arithmetic to resolve it.

    Raises
    ------
    BracketFailure
        If [lo, hi] does not enclose the target.
    """
    flo = g(lo) - target
    if flo == 0.0:
        return lo
    fhi = g(hi) - target
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketFailure(
            f"g({lo!r})={flo + target!r} and g({hi!r})={fhi + target!r} "
            f"do not enclose target {target!r}"
        )
    increasing = fhi > 0.0
    tol = rel_tol * max(1.0, abs(target))

    a = 0.5 * (lo + hi)
    best = a
    best_res = math.inf
    for _ in range(max_iter):
        fa = g(a) - target
        if abs(fa) < best_res:
            best, best_res = a, abs(fa)
        if abs(fa) <= tol:
            return a
        if (fa > 0.0) == increasing:
            hi = a
        else:
            lo = a
        a_next = None
        if deriv is not None:
            da = deriv(a)
            if da != 0.0 and math.isfinite(da):
                step = a - fa / da
                if lo < step < hi:
                    a_next = step
        a = a_next if a_next is not None else 0.5 * (lo + hi)
        if math.nextafter(lo, hi) >= hi:  # no float left strictly inside
            break
    return best


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
        fp = f_prime(params, 0.5 * a)
        return fp * fp * a

    def dg(a: float) -> float:
        fp = f_prime(params, 0.5 * a)
        return fp * (fp + f_double_prime(params, 0.5 * a) * a)

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
    fp = f_prime(params, 0.5 * a)
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
    return f_prime(params, -0.5 * b2) * b


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


def _domain_floor(params, one_pk, b2):
    """The least a >= 0, to a float, with s_a = (one_pk a - b2)/2 in the
    domain: 0 if s_0 is, else bisect [0, b2/one_pk], where s_a = 0."""
    below, inside = 0.0, b2 / one_pk
    if in_domain(params, 0.5 * (one_pk * below - b2)):
        return below
    for _ in range(200):
        if math.nextafter(below, inside) >= inside:
            break
        mid = 0.5 * (below + inside)
        if in_domain(params, 0.5 * (one_pk * mid - b2)):
            inside = mid
        else:
            below = mid
    return inside


def _generic(params, d, b, d2, b2, bd, bxd2, eta):
    k2 = params.kappa**2
    opk = 1.0 + k2 * b2
    one_pk = 1.0 + k2 * eta
    t = (d2 + k2 * bxd2) / opk

    def g(a: float) -> float:
        fp = f_prime(params, 0.5 * (one_pk * a - b2))
        return fp * fp * one_pk * a

    def dg(a: float) -> float:
        s_a = 0.5 * (one_pk * a - b2)
        fp = f_prime(params, s_a)
        return one_pk * fp * (fp + f_double_prime(params, s_a) * one_pk * a)

    lo = _domain_floor(params, one_pk, b2)
    hi = max(1.0, t, lo)
    try:
        for _ in range(200):
            if g(hi) >= t:
                break
            hi *= 2.0
        else:
            raise InversionFailure(f"bracket expansion failed at target {t!r}")
        a = invert_monotone(g, t, lo, hi, deriv=dg)
    except (DomainViolation, BracketFailure) as exc:
        raise InversionFailure(
            f"target {t!r} unreachable inside the model domain"
        ) from exc
    s = 0.5 * (one_pk * a - b2)
    fp = f_prime(params, s)
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


@dataclass(frozen=True)
class FieldState:
    """All four fields at one point, plus the invariant s."""

    e: np.ndarray
    b: np.ndarray
    d: np.ndarray
    h: np.ndarray
    s: float


def forward_fields(params: ModelParams, e, b) -> FieldState:
    """Evaluate the forward constitutive map at prescribed (E, B)."""
    e = as_vec3(e)
    b = as_vec3(b)
    k2 = params.kappa**2
    eb = float(e @ b)
    s = 0.5 * (float(e @ e) - float(b @ b)) + 0.5 * k2 * eb * eb
    fp = f_prime(params, s)  # raises DomainViolation outside the model domain
    d = fp * (e + k2 * eb * b)
    h = fp * (b - k2 * eb * e)
    return FieldState(e=e, b=b, d=d, h=h, s=s)


def energy_density(params: ModelParams, state) -> float:
    """Hamiltonian energy density H = f'(s)(E^2 + kappa^2 (E.B)^2) - f(s) of
    a state with fields e, b and invariant s.

    Nonnegative on the f'(s) > 0 branch of every built-in model with
    kappa >= 0; raises DomainViolation outside the model domain.
    """
    e2 = float(state.e @ state.e)
    eb = float(state.e @ state.b)
    k2 = params.kappa**2
    return f_prime(params, state.s) * (e2 + k2 * eb * eb) - f(params, state.s)
