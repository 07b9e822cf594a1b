"""Special functions and guarded root solvers used by the constitutive inversions.

Three primitives live here:

* :func:`lambert_w` -- principal branch of ``w e^w = x`` on ``x >= 0``,
  with a log-argument variant for arguments too large to represent.
* :func:`smallest_positive_cubic_root` -- smallest nonnegative root of the
  normalized cubic ``(gamma + a)^2 a = sigma2``.
* :func:`invert_monotone` -- bracketed Newton/bisection hybrid for strictly
  monotone scalar equations.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .errors import BracketFailure, NegativeArgument, NoNonnegativeRoot

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
