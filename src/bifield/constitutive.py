"""Constitutive inversions: recover (E, H) from prescribable (D, B).

The forward map (model f, coupling kappa)

    s = (E^2 - B^2)/2 + (kappa^2/2)(E.B)^2,
    D = f'(s) (E + kappa^2 (E.B) B),
    H = f'(s) (B - kappa^2 (E.B) E),

is inverted in closed form for the classical, logarithmic, exponential and
quadratic models, and by a guarded monotone solve for everything else. In
every model the inverse has the shape

    E = (positive scalar) * (D - kappa^2 (B.D) B / (1 + kappa^2 B^2)),

so branch selection reduces to scalar root choices (Lambert W and the cubic
in specfn) plus one post-hoc direction check.

kappa = 0 is dispatched to dedicated closed forms rather than taking limits
numerically; D = 0 is routed to the magnetostatic branch (exact for every
model), which the logarithmic closed form needs.

invert_rows is the one place any model is inverted. It takes D and B of
shape (N, 3) and owns the branch skeleton: the split into electric,
magnetic, dyonic and D = B = 0 rows, the magnetic branch (the same in every
model), the direction check and the non-finite check. A model kind owns
only its electric and dyonic formulas (_ROW_KERNELS): array arithmetic
whose branches are row masks, Lambert W and the cubic from specfn's array
kernels, a masked Newton/bisection for the fractional power and custom
models. invert_rows returns a failure code per row with the exceptions
(errors.raise_first raises the first), and forward_rows evaluates the
forward map on rows, the check of the inversion.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import DomainViolation, InversionFailure, fail_rows, merge_failures
from .models import (
    CLASSICAL,
    CUSTOM,
    EXPONENTIAL,
    FRACTIONAL_POWER,
    LOGARITHMIC,
    QUADRATIC,
    ModelParams,
)
from .specfn import lambert_w_from_log_rows, lambert_w_rows, smallest_positive_cubic_root_rows

# inversions divide by f'(s); inside this band the state is rejected
FPRIME_GUARD = 1e-8


# ---------------------------------------------------------------------------
# batched inversion
# ---------------------------------------------------------------------------


def rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, 3) arrays, taken by matmul so that
    each rounds like the 3-vector product u[i] @ v[i] (an einsum or a sum
    can differ in the last bit)."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def cross_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v over the last axis as np.cross forms it, with less overhead."""
    out = np.empty_like(u)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out[..., i] = u[..., j] * v[..., k] - u[..., k] * v[..., j]
    return out


def _branch(mask):
    """The rows of one branch: None when it has none, the full slice when
    it has every row (so that indexing takes views), else an index array."""
    k = np.count_nonzero(mask)
    return None if k == 0 else slice(None) if k == len(mask) else np.flatnonzero(mask)


def _prime_rows(params, s, idx, code, errors, label):
    """f'(s) on the rows idx, failing a row outside the model domain with
    domain_error(s) or, with DomainViolation "<label> = f' inside guard
    band", inside the FPRIME_GUARD band. Failed rows get NaN."""
    ok = params.domain_rows(s)
    fail_rows(code, errors, ~ok, lambda j: params.domain_error(s[j]), idx)
    fp = np.full(len(s), np.nan)
    fp[ok] = params.derivative_rows(s[ok], 1)
    fail_rows(code, errors, ok & (np.abs(fp) < FPRIME_GUARD), lambda j: DomainViolation(
        f"{label} = {float(fp[j])!r} inside guard band"), idx)
    return fp


def _magnetostatic_rows(params, b, b2, idx, h, s, code, errors):
    """The magnetic branch on the rows idx: H = f'(-B^2/2) B, failing
    outside the model domain with domain_error(s). A zero of f' (quadratic
    model at B^2 = 1/alpha) legitimately gives H = 0."""
    sm = -0.5 * b2[idx]
    s[idx] = sm
    ok = params.domain_rows(sm)
    fail_rows(code, errors, ~ok, lambda j: params.domain_error(sm[j]), idx)
    rows = idx if ok.all() else np.arange(len(h))[idx][ok]
    h[rows] = params.derivative_rows(sm[ok], 1)[:, None] * b[rows]


def _dyon_setup(params, d, b, d2, b2):
    """The scalars every dyonic branch starts from, on rows: B.D,
    |B x D|^2, eta = (B.D)^2 / (D^2 + kappa^2 (2 + kappa^2 B^2) |B x D|^2),
    1 + kappa^2 B^2 and the direction-check projection
    D - kappa^2 (B.D) B / (1 + kappa^2 B^2)."""
    k2 = params.kappa**2
    bd = rowdot(b, d)
    bxd = cross_rows(b, d)
    bxd2 = rowdot(bxd, bxd)
    eta = bd * bd / (d2 + k2 * (2.0 + k2 * b2) * bxd2)
    opk = 1.0 + k2 * b2
    proj = d - (k2 * bd / opk)[:, None] * b
    return bd, bxd2, eta, opk, proj


def _direction_rows(e, proj, idx, code, errors):
    """The direction check on the rows idx: E.(D - kappa^2 (B.D) B /
    (1 + kappa^2 B^2)) below -1e-12 of the norms fails the row."""
    dot = rowdot(e, proj)
    norms = np.sqrt(rowdot(e, e)) * np.sqrt(rowdot(proj, proj))
    fail_rows(code, errors, dot < -1e-12 * (norms + 1e-300), lambda j: InversionFailure(
        f"direction match violated: E.(D - k^2 (B.D) B/(1+k^2 B^2)) = {float(dot[j])!r}"),
        idx)


def _eh_from_prime(params, fp, b, setup):
    """E = proj / f'(s) and H = f'(s) (B - kappa^2 (E.B) E) on dyonic rows."""
    bd, _, _, opk, proj = setup
    e = proj / fp[:, None]
    eb = bd / (fp * opk)
    return e, fp[:, None] * (b - (params.kappa**2 * eb)[:, None] * e)


# The formulas of each kind, on the rows of their branch (idx maps them to
# rows of code): electric(params, d, d2, idx, code, errors) -> E for B = 0,
# dyonic(params, d, b, d2, b2, setup, idx, code, errors) -> (E, H, s).


def _classical_electric(params, d, d2, idx, code, errors):
    """E = D/sqrt(1 + beta D^2), which saturates cleanly at |E| -> 1/sqrt(beta)
    as |D| -> inf, where f'(E^2/2) reaches its domain edge."""
    return d / np.sqrt(1.0 + params.beta * d2)[:, None]


def _classical_dyonic(params, d, b, d2, b2, setup, idx, code, errors):
    """The kappa = 0 closed form E = f D, H = B/f with
    f = sqrt((1 + beta B^2)/(1 + beta D^2)), or the kappa > 0 one with
    f = sqrt(1 - 2 beta s)."""
    beta = params.beta
    k2 = params.kappa**2
    bd, bxd2, _, opk, proj = setup
    if params.kappa == 0.0:
        f = np.sqrt((1.0 + beta * b2) / (1.0 + beta * d2))
        return f[:, None] * d, b / f[:, None], (d2 - b2) / (2.0 * (1.0 + beta * d2))
    r2 = np.sqrt(1.0 + beta * d2 + k2 * b2 + beta * k2 * bxd2)
    f = np.sqrt((1.0 + beta * b2) * opk) / r2
    e = f[:, None] * proj
    eb = f * bd / opk
    return (e, (b - (k2 * eb)[:, None] * e) / f[:, None],
            (d2 - b2 + k2 * (bxd2 - b2 * b2)) / (2.0 * r2 * r2))


def _logarithmic_electric(params, d, d2, idx, code, errors):
    """E = 2D/(1 + sqrt(1 + 2 beta D^2)), which saturates cleanly at
    |E| -> sqrt(2/beta) as |D| -> inf."""
    return 2.0 * d / (1.0 + np.sqrt(1.0 + 2.0 * params.beta * d2))[:, None]


def _logarithmic_dyonic(params, d, b, d2, b2, setup, idx, code, errors):
    """1 - beta s in closed form: for kappa > 0 through the smaller root of
    a quadratic in a = E^2, in conjugate form so it stays stable as D -> 0,
    failing a row whose 1 - beta s is not positive."""
    beta = params.beta
    k2 = params.kappa**2
    bd, _, eta, opk, proj = setup
    if params.kappa == 0.0:
        two_pb = 2.0 + beta * b2
        root = np.sqrt(1.0 + beta * d2 * two_pb)
        one_m = two_pb / (1.0 + root)
        return one_m[:, None] * d, b / one_m[:, None], (1.0 - one_m) / beta
    one_pk = 1.0 + k2 * eta
    c = 1.0 + 0.5 * beta * b2
    m = 1.0 + k2 * (2.0 + k2 * b2) * eta
    chi = m / (beta * d2 * one_pk)
    a = 2.0 * c * c / (beta * one_pk * (c + chi + np.sqrt(chi * (2.0 * c + chi))))
    s = 0.5 * (one_pk * a - b2)
    one_m = 1.0 - beta * s
    e = one_m[:, None] * proj
    eb = one_m * bd / opk
    fail_rows(code, errors, one_m <= 0.0, lambda j: DomainViolation(
        f"logarithmic inversion left its domain: 1-beta*s={float(one_m[j])!r}"), idx)
    return e, (b - (k2 * eb)[:, None] * e) / one_m[:, None], s


def _monotone_rows(params, t, one_pk, b2):
    """Solve g(a) = f'(s_a)^2 one_pk a = t on rows, with
    s_a = (one_pk a - b2)/2 (one_pk = 1, b2 = 0 for the electric branch).

    A bracketed Newton/bisection in which each row runs its own iterates
    and stops at its own test. The bracket [lo, hi] starts at lo = 0, or,
    where s_0 = -b2/2 lies below the domain, at the first a whose s_a lies
    inside (_domain_floor); hi doubles from max(1, t, lo) until
    g(hi) >= t, at most 200 times. A row with g(lo) = t or g(hi) = t
    returns that end; a row with g(lo) > t has no root in the domain.
    Otherwise at most 200 steps from the midpoint: each halves the bracket
    on the sign of g(a) - t and takes the Newton step when it lands
    strictly inside the bracket, else the midpoint; a row stops at
    |g(a) - t| <= 1e-12 max(1, |t|), or with the iterate of least residual
    once no float lies strictly inside its bracket or the steps run out.
    g increases, and g(lo) - t < 0 <= g(hi) - t.

    Returns a (NaN where unsolved), the mask of rows whose s_a left the
    model domain or whose root lies outside it, with the s_a at which they
    did, and the mask of rows whose bracket never closed.
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

    lo = _domain_floor(params, one_pk, b2)
    hi = np.maximum(np.where(t > 1.0, t, 1.0), lo)
    g_hi = np.zeros(n)
    rows = np.arange(n)
    closed = np.zeros(n, dtype=bool)
    for _ in range(200):
        rows, _, _, _, fhi = g(rows, hi[rows])
        up = fhi >= 0.0
        closed[rows[up]] = True
        g_hi[rows[up]] = fhi[up]
        rows = rows[~up]
        hi[rows] *= 2.0
        if not len(rows):
            break
    unbracketed = np.zeros(n, dtype=bool)
    unbracketed[rows] = True

    rows, lo, s_lo, _, flo = g(np.flatnonzero(closed), lo[closed])
    at_lo = flo == 0.0
    a_out[rows[at_lo]] = lo[at_lo]
    at_hi = ~at_lo & (g_hi[rows] == 0.0)
    a_out[rows[at_hi]] = hi[rows[at_hi]]
    above = ~(at_lo | at_hi) & (flo > 0.0)
    lost[rows[above]] = True
    lost_s[rows[above]] = s_lo[above]
    inner = ~(at_lo | at_hi | above)
    rows, lo = rows[inner], lo[inner]

    tol = 1e-12 * np.where(np.abs(t[rows]) > 1.0, np.abs(t[rows]), 1.0)
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


def _domain_floor(params, one_pk, b2):
    """The least a >= 0, to a float, whose s_a = (one_pk a - b2)/2 lies in
    the model domain: 0 where s_0 = -b2/2 does, else at most b2/one_pk.
    s_a increases with a, so the domain test flips once, a few ulps from
    (2 s_lo + b2)/one_pk at the domain's lower edge s_lo, or further where
    s_a is flat in a (b2 near -2 s_lo): probes 1, 2, 4, ... ulps from there
    bracket the flip and halving the bracket in ulps finds it."""
    lo = np.zeros(len(b2))
    rows = np.flatnonzero(~params.domain_rows(0.5 * (one_pk * lo - b2)))
    if not len(rows):
        return lo
    opk, b2 = one_pk[rows], b2[rows]

    def inside(k, at):
        return params.domain_rows(0.5 * (opk[at] * k.view(np.float64) - b2[at]))

    out, ins = np.zeros(len(rows), dtype=np.int64), (b2 / opk).view(np.int64)
    k0 = np.clip(((2.0 * params.lower_edge() + b2) / opk).view(np.int64), 1, ins)
    up = ~inside(k0, slice(None))  # the flip lies above k0
    out[up], ins[~up] = k0[up], k0[~up]
    step, live = np.where(up, 1, -1), np.arange(len(rows))
    while len(live := live[ins[live] - out[live] > 1]):
        k = np.where(step[live] != 0, k0[live] + step[live],
                     out[live] + (ins[live] - out[live]) // 2)
        k = np.clip(k, out[live] + 1, ins[live] - 1)
        ok = inside(k, live)
        ins[live[ok]], out[live[~ok]] = k[ok], k[~ok]
        step[live] = np.where(ok == up[live], 0, 2 * step[live])  # 0 once bracketed
    lo[rows] = ins.view(np.float64)
    return lo


def _generic_electric(params, d, d2, idx, code, errors):
    """E = D/f'(a/2) with a = E^2 from the monotone solve of
    f'(a/2)^2 a = D^2; a solve that leaves the model domain fails with the
    domain's own error. Both generic formulas give the scalar path's bits:
    the scalar f' and f'' are one-row calls of derivative_rows."""
    a, lost, lost_s, unbracketed = _monotone_rows(params, d2, np.ones(len(d2)),
                                                  np.zeros(len(d2)))
    fail_rows(code, errors, lost, lambda j: params.domain_error(lost_s[j]), idx)
    fail_rows(code, errors, unbracketed, lambda j: InversionFailure(
        f"electrostatic bracket expansion failed at D^2={float(d2[j])!r}"), idx)
    return d / _prime_rows(params, 0.5 * a, idx, code, errors, "f'(a/2)")[:, None]


def _generic_dyonic(params, d, b, d2, b2, setup, idx, code, errors):
    """a from the monotone solve of f'(s_a)^2 (1 + kappa^2 eta) a = t, where
    a solve that leaves the model domain is an InversionFailure, failing a
    row whose f'(s) falls inside the guard band."""
    k2 = params.kappa**2
    _, bxd2, eta, opk, _ = setup
    one_pk = 1.0 + k2 * eta
    t = (d2 + k2 * bxd2) / opk
    a, lost, _, unbracketed = _monotone_rows(params, t, one_pk, b2)
    fail_rows(code, errors, lost, lambda j: InversionFailure(
        f"target {float(t[j])!r} unreachable inside the model domain"), idx)
    fail_rows(code, errors, unbracketed, lambda j: InversionFailure(
        f"bracket expansion failed at target {float(t[j])!r}"), idx)
    s = 0.5 * (one_pk * a - b2)
    fp = _prime_rows(params, s, idx, code, errors, "f'(s)")
    return (*_eh_from_prime(params, fp, b, setup), s)


def _exponential_electric(params, d, d2, idx, code, errors):
    """E = D e^{-W/2} with W = W(beta D^2)."""
    return d * np.exp(-0.5 * lambert_w_rows(params.beta * d2))[:, None]


def _exponential_dyonic(params, d, b, d2, b2, setup, idx, code, errors):
    """beta s = (W - beta B^2)/2 with W the Lambert W of
    beta e^{beta B^2} (D^2 + kappa^2 |B x D|^2)/(1 + kappa^2 B^2), taken
    from its logarithm where that exceeds 700."""
    beta = params.beta
    k2 = params.kappa**2
    bd, bxd2, _, opk, proj = setup
    ln_arg = math.log(beta) + beta * b2 + np.log((d2 + k2 * bxd2) / opk)
    small = ln_arg <= 700.0
    w = np.empty_like(ln_arg)
    w[small] = lambert_w_rows(np.exp(ln_arg[small]))
    w[~small] = lambert_w_from_log_rows(ln_arg[~small])
    # beta*s = (w - beta B^2)/2; exponents combined to dodge overflow
    em = np.exp(0.5 * (beta * b2 - w))  # e^{-beta s}
    ep = np.exp(0.5 * (w - beta * b2))  # e^{+beta s} = f'(s)
    e = em[:, None] * proj
    eb = em * bd / opk
    return e, ep[:, None] * (b - (k2 * eb)[:, None] * e), 0.5 * (w / beta - b2)


def _quadratic_electric(params, d, d2, idx, code, errors):
    """E = D/f'(a/2) with a = E^2 the smallest root of
    (1/alpha + a)^2 a = D^2/alpha^2."""
    al = params.alpha
    a = smallest_positive_cubic_root_rows(1.0 / al, d2 / al**2)
    return d / _prime_rows(params, 0.5 * a, idx, code, errors, "f'(a/2)")[:, None]


def _quadratic_dyonic(params, d, b, d2, b2, setup, idx, code, errors):
    """a from the normalized cubic (gamma + a)^2 a = sigma2, failing a row
    whose f'(s) falls inside the guard band."""
    al = params.alpha
    k2 = params.kappa**2
    eta = setup[2]
    one_pk = 1.0 + k2 * eta
    m = 1.0 + k2 * (2.0 + k2 * b2) * eta
    gamma = (1.0 - al * b2) / (al * one_pk)
    sigma2 = d2 / ((al * one_pk) ** 2 * m)
    s = 0.5 * (one_pk * smallest_positive_cubic_root_rows(gamma, sigma2) - b2)
    fp = 1.0 + 2.0 * al * s
    fail_rows(code, errors, np.abs(fp) < FPRIME_GUARD, lambda j: DomainViolation(
        f"quadratic inversion inside the f' guard band: f'(s) = {float(fp[j])!r}"), idx)
    return (*_eh_from_prime(params, fp, b, setup), s)


_ROW_KERNELS = {
    CLASSICAL: (_classical_electric, _classical_dyonic),
    LOGARITHMIC: (_logarithmic_electric, _logarithmic_dyonic),
    EXPONENTIAL: (_exponential_electric, _exponential_dyonic),
    FRACTIONAL_POWER: (_generic_electric, _generic_dyonic),
    QUADRATIC: (_quadratic_electric, _quadratic_dyonic),
    CUSTOM: (_generic_electric, _generic_dyonic),
}


def invert_rows(params: ModelParams, d, b) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                                     np.ndarray, list]:
    """Invert the constitutive map on rows: D, B of shape (N, 3) -> E, H
    of shape (N, 3), the invariant s of shape (N,), code and errors.

    The model kind supplies its electric and dyonic formulas; this owns the
    rest: the split into branches, the magnetic branch H = f'(-B^2/2) B,
    s = E^2/2 on electric rows, the _dyon_setup scalars, the direction and
    non-finite checks. Rows with D = B = 0 keep E = H = 0 and s = 0.

    code[i] is 0 for a row that inverted to finite values and k > 0 when
    errors[k - 1] is its failure: DomainViolation for a non-finite D or B
    (such rows reach no model branch), the failure of its model branch
    (the same whatever else is in the batch), or DomainViolation for a
    non-finite result. A failed row's E, H and s are meaningless.
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
    electric, dyonic = _ROW_KERNELS[params.kind]
    e, h, s = np.zeros_like(d), np.zeros_like(b), np.zeros(len(d))
    code = np.zeros(len(d), dtype=np.int64)
    errors = []
    with np.errstate(all="ignore"):
        d2, b2 = rowdot(d, d), rowdot(b, b)
        d0, b0 = d2 == 0.0, b2 == 0.0
        elec, mag, dyon = _branch(b0 & ~d0), _branch(d0 & ~b0), _branch(~(d0 | b0))
        if elec is not None:
            ee = electric(params, d[elec], d2[elec], elec, code, errors)
            e[elec], s[elec] = ee, 0.5 * rowdot(ee, ee)
        if mag is not None:
            _magnetostatic_rows(params, b, b2, mag, h, s, code, errors)
        if dyon is not None:
            dd, bb, d2y, b2y = d[dyon], b[dyon], d2[dyon], b2[dyon]
            setup = _dyon_setup(params, dd, bb, d2y, b2y)
            e[dyon], h[dyon], s[dyon] = dyonic(params, dd, bb, d2y, b2y, setup, dyon, code, errors)
            _direction_rows(e[dyon], setup[4], dyon, code, errors)
    if not (np.isfinite(e).all() and np.isfinite(h).all() and np.isfinite(s).all()):
        finite = np.isfinite(e).all(axis=1) & np.isfinite(h).all(axis=1) & np.isfinite(s)
        fail_rows(code, errors, ~finite, DomainViolation("inversion gave a non-finite field"))
    return e, h, s, code, errors


def forward_rows(params: ModelParams, e, b) -> tuple:
    """The forward map of the module docstring on rows: E, B of shape
    (N, 3) -> D, H, s, code, errors, code and errors as invert_rows. A row
    whose s lies outside the model domain fails with domain_error(s) and
    has NaN D and H; past overflow f'(s) is inf. Each row has the bits of
    the one-point map with 3-vector dots and a one-element derivative_rows
    call for f'(s)."""
    e = np.asarray(e, dtype=float).reshape(-1, 3)
    b = np.asarray(b, dtype=float).reshape(-1, 3)
    code = np.zeros(len(e), dtype=np.int64)
    errors: list = []
    k2 = params.kappa**2
    eb = rowdot(e, b)
    s = 0.5 * (rowdot(e, e) - rowdot(b, b)) + 0.5 * k2 * eb * eb
    ok = params.domain_rows(s)
    fail_rows(code, errors, ~ok, lambda j: params.domain_error(s[j]))
    fp = np.full(len(s), np.nan)
    with np.errstate(over="ignore"):
        fp[ok] = params.derivative_rows(s[ok], 1)
    fp, keb = fp[:, None], (k2 * eb)[:, None]
    return fp * (e + keb * b), fp * (b - keb * e), s, code, errors

