"""Special functions used by the constitutive inversions, on arrays.

Two primitives live here, each an array kernel:

* :func:`lambert_w_rows` -- principal branch of ``w e^w = x`` on ``x >= 0``,
  element by element, with :func:`lambert_w_from_log_rows` for arguments
  given by their logarithm because they are too large to represent.
* :func:`smallest_positive_cubic_root_rows` -- smallest nonnegative root of
  the normalized cubic ``(gamma + a)^2 a = sigma2``, element by element.

The piecewise seeds and branches are masks, and every element runs the
iterates of its own scalar solve and stops at its own test. numpy's exp,
log and pow round differently from the math module's in the last bit on a
few percent of inputs, so the roots agree with a scalar evaluation of the
same algorithm to rounding, not bit for bit.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NegativeArgument, NoNonnegativeRoot

# Truncated series for W(x) about 0 (radius of convergence 1/e); used only
# as an iteration seed, never as the returned value.
_W_SERIES = [(-k) ** (k - 1) / math.factorial(k) for k in range(1, 9)]


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    return float(values.flat[np.flatnonzero(bad.ravel())[0]])


def _halley_w(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Halley steps for w e^w = x, each element stopping at its own test,
    followed by one Newton polish."""
    live = np.arange(len(w))
    for _ in range(40):
        wl, xl = w[live], x[live]
        ew = np.exp(wl)
        r = wl * ew - xl
        wp1 = wl + 1.0
        # Halley update; denominator never vanishes for w > -1
        dw = r / (ew * wp1 - (wl + 2.0) * r / (2.0 * wp1))
        wl = wl - dw
        w[live] = wl
        live = live[~(np.abs(dw) <= 1e-16 * (1.0 + np.abs(wl)))]
        if not len(live):
            break
    ew = np.exp(w)
    r = w * ew - x
    return w - r / (ew * (w + 1.0))


def _lambert_w(x: np.ndarray) -> np.ndarray:
    """lambert_w_rows on a 1-D array already checked for NaN and x < 0."""
    w = np.zeros_like(x)
    huge = x > 1e308
    if huge.any():
        w[huge] = _lambert_w_log(np.log(x[huge]))
    series = (x > 0.0) & (x <= 0.25)
    xs = x[series]
    ws = np.zeros_like(xs)
    xk = np.ones_like(xs)
    for c in _W_SERIES:
        xk = xk * xs
        ws = ws + c * xk
    w[series] = ws
    mid = (x > 0.25) & (x <= 3.0)
    w[mid] = np.log1p(x[mid])
    big = (x > 3.0) & ~huge
    l1 = np.log(x[big])
    l2 = np.log(l1)
    w[big] = l1 - l2 + l2 / l1
    halley = (x > 0.0) & ~huge
    w[halley] = _halley_w(w[halley], x[halley])
    return w


def _lambert_w_log(log_x: np.ndarray) -> np.ndarray:
    """lambert_w_from_log_rows on a 1-D array."""
    w = np.empty_like(log_x)
    small = log_x <= 1.0
    w[small] = _lambert_w(np.exp(log_x[small]))
    live = np.flatnonzero(~small)
    lx = log_x[live]
    wl = lx - np.log(lx)
    for _ in range(40):
        dw = (wl + np.log(wl) - lx) / (1.0 + 1.0 / wl)
        wl = wl - dw
        w[live] = wl
        go = ~(np.abs(dw) <= 1e-16 * (1.0 + np.abs(wl)))
        live, lx, wl = live[go], lx[go], wl[go]
        if not len(live):
            break
    return w


def lambert_w_rows(x) -> np.ndarray:
    """Principal-branch Lambert W on the nonnegative axis, element by element.

    Each element takes its seed (series for x <= 0.25, log1p(x) up to 3,
    the asymptotic ln x - ln ln x + ln ln x / ln x beyond) and runs Halley
    steps to its own stop, then one Newton polish; x > 1e308 goes through
    lambert_w_from_log_rows. Residual contract:
    |w e^w - x| <= 1e-13 * max(1, x).

    Raises
    ------
    NegativeArgument
        If any x is NaN or negative (the real principal branch below -1/e
        is not needed here), naming the first such element.
    """
    x = np.asarray(x, dtype=float)
    bad = np.isnan(x) | (x < 0.0)
    if bad.any():
        v = _first(x, bad)
        raise NegativeArgument("lambert_w: argument is NaN" if math.isnan(v)
                               else f"lambert_w: negative argument {v!r}")
    with np.errstate(all="ignore"):
        return _lambert_w(x.ravel()).reshape(x.shape)


def lambert_w_from_log_rows(log_x) -> np.ndarray:
    """Lambert W given ln(x), element by element, for arguments beyond
    float range.

    Solves w + ln w = ln x by Newton, each element stopping at its own
    test; identical to lambert_w_rows(e^{log_x}) in exact arithmetic.
    Elements with log_x <= 1 take lambert_w_rows(e^{log_x}).
    """
    log_x = np.asarray(log_x, dtype=float)
    with np.errstate(all="ignore"):
        return _lambert_w_log(log_x.ravel()).reshape(log_x.shape)


def _cubic(a, gamma):
    return (gamma + a) ** 2 * a


def _cubic_newton(gamma, sigma2, lo, hi) -> np.ndarray:
    """Bracketed Newton for (gamma+a)^2 a = sigma2 on [lo, hi], each element
    stopping at its own test. phi(lo) <= 0 <= phi(hi) must hold on entry."""
    a = 0.5 * (lo + hi)
    out = a.copy()
    live = np.arange(len(a))
    for _ in range(200):
        if not len(live):
            break
        phi = _cubic(a, gamma) - sigma2
        up = phi > 0.0
        hi = np.where(up, a, hi)
        lo = np.where(up, lo, a)
        dphi = (gamma + a) * (gamma + 3.0 * a)
        step = a - phi / dphi
        a = np.where((dphi > 0.0) & (lo < step) & (step < hi), step, 0.5 * (lo + hi))
        done = ((hi - lo <= 1e-16 * np.maximum(1.0, hi))
                & (np.abs(phi) <= 1e-10 * np.maximum(1.0, sigma2)))
        out[live[done]] = a[done]
        go = ~done
        live, a, gamma, sigma2, lo, hi = (v[go] for v in (live, a, gamma, sigma2, lo, hi))
    out[live] = a
    return out


def _cubic_root(gamma: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """smallest_positive_cubic_root_rows on 1-D arrays."""
    a = np.zeros_like(sigma2)
    g3 = gamma**3
    four27 = 4.0 * g3 + 27.0 * sigma2
    root = sigma2 != 0.0
    # Three real roots (sigma2 <= -4 gamma^3/27); the smallest nonnegative
    # one sits left of the local max of phi at a = -gamma/3.
    three = root & (gamma < 0.0) & (four27 <= 0.0)
    g = gamma[three]
    a[three] = _cubic_newton(g, sigma2[three], np.zeros(len(g)), -g / 3.0)

    rest = np.flatnonzero(root & ~three)
    g, s2 = gamma[rest], sigma2[rest]
    disc = 3.0 * s2 * four27[rest]  # >= 0 on this path
    t = (8.0 * g3[rest] + 108.0 * s2 + 12.0 * np.sqrt(disc)) ** (1.0 / 3.0)
    diff = t - 2.0 * g
    # (T^(1/3) - 2 gamma)^2 loses all significant digits; the root is near
    # sigma2/gamma^2, safely bracketed by it.
    cancel = (g > 0.0) & (diff < 1e-6 * t)
    gc, sc = g[cancel], s2[cancel]
    hi = np.minimum(sc / gc**2, sc ** (1.0 / 3.0)) * (1.0 + 1e-12) + 1e-300
    hi = np.where(_cubic(hi, gc) < sc, sc ** (1.0 / 3.0) * 2.0, hi)
    a[rest[cancel]] = _cubic_newton(gc, sc, np.zeros(len(gc)), hi)

    # the closed form, then up to three Newton polishes to pin the residual
    live = rest[~cancel]
    g, s2, closed = g[~cancel], s2[~cancel], diff[~cancel]
    a[live] = closed * closed / (6.0 * t[~cancel])
    for _ in range(3):
        al = a[live]
        phi = _cubic(al, g) - s2
        dphi = (g + al) * (g + 3.0 * al)
        a_next = al - phi / dphi
        go = ~((np.abs(phi) <= 1e-12 * np.maximum(1.0, s2)) | (dphi <= 0.0) | (a_next < 0.0))
        a[live[go]] = a_next[go]
        live, g, s2 = live[go], g[go], s2[go]
    return a


def smallest_positive_cubic_root_rows(gamma, sigma2) -> np.ndarray:
    """Smallest nonnegative root of (gamma + a)^2 a = sigma2, element by
    element.

    Uses the closed form

        T = 8 gamma^3 + 108 sigma2 + 12 sqrt(12 gamma^3 sigma2 + 81 sigma2^2),
        a = (T^(1/3) - 2 gamma)^2 / (6 T^(1/3)),

    with up to three Newton polishes, and a bracketed Newton solve on the
    elements where the cube-root difference cancels (relative difference
    < 1e-6) or the inner discriminant goes negative (three real roots,
    possible only for gamma < 0). sigma2 = 0 gives a = 0.

    Residual contract: |(gamma+a)^2 a - sigma2| <= 1e-10 * max(1, sigma2).

    Raises ValueError if any sigma2 < 0 and NoNonnegativeRoot if a root
    comes out negative, naming the first such element.
    """
    gamma, sigma2 = np.broadcast_arrays(np.asarray(gamma, dtype=float),
                                        np.asarray(sigma2, dtype=float))
    neg = sigma2 < 0.0
    if neg.any():
        raise ValueError(f"sigma2 must be >= 0, got {_first(sigma2, neg)!r}")
    with np.errstate(all="ignore"):
        a = _cubic_root(gamma.ravel(), sigma2.ravel()).reshape(gamma.shape)
    neg = a < 0.0
    if neg.any():
        raise NoNonnegativeRoot(
            f"cubic solve returned a={_first(a, neg)!r} for gamma={_first(gamma, neg)!r}, "
            f"sigma2={_first(sigma2, neg)!r}")
    return a
