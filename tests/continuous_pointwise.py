"""Per-point reference for the `continuous` command.

bifield.continuous evaluates a continuous source on rows: D, B and the
Hessians of u and v for a whole chunk from one Gauss's-law pass, E and H
from one invert_rows call, the density from density_rows, and j_m from
the implicit kernel of currents at any kappa.
This module keeps the per-point evaluation those replaced, one point at a
time:

* _gauss_law, D and the Hessian of one point from the radial parts, and
  the fourth-order finite differences of newton_potential for a source
  without them;
* the scalar inversion (scalar_inversions.dyonic_eh) and the scalar
  energy_density;
* the kappa = 0 closed form of j_m (any source without B included), with
  the oracle's f' and f'', and otherwise the curl of grad E from the 3 x 3
  implicit derivative of the forward map D(E, B), a route the rows code
  does not take.

continuous_pointwise(src, params, x, quad) is the command's table row at x,
or raises the point's failure. Like scalar_inversions it shares no code with
the rows path it checks; test_oracle_independence enforces that.
"""

import numpy as np

from bifield.continuous import newton_potential
from scalar_inversions import dyonic_eh, energy_density, f_double_prime, f_prime


def _gauss_law(parts, x: np.ndarray):
    """D = sum_k coef_k(r_k) r_k and its Jacobian, the exact Hessian of u,
    sum_k [coef_k I + (rho_k - 3 coef_k) r_k r_k^T / r_k^2], with
    r_k = x - center_k. At a centre the Hessian term is rho_k / 3 I."""
    d = hess = None
    for part in parts:
        rv = x - part.center
        r = float(np.linalg.norm(rv))
        coef = part.coef(r)
        if r == 0.0:
            h = float(part.profile(0.0)) / 3.0 * np.eye(3)
        else:
            rho = float(part.profile(r * r))
            h = coef * np.eye(3) + ((rho - 3.0 * coef) / (r * r)) * np.outer(rv, rv)
        d = coef * rv if d is None else d + coef * rv
        hess = h if hess is None else hess + h
    return d, hess


def potential_gradient(src, x, quad, which):
    """D or B at x: Gauss's law, else fourth-order FD of newton_potential."""
    parts = src.radial_e if which == "electric" else src.radial_m
    if parts:
        return _gauss_law(parts, x)[0]
    if (src.rho_e if which == "electric" else src.rho_m) is None:
        return np.zeros(3)
    h = src.width / 20.0
    grad = np.empty(3)
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        up2 = newton_potential(src, x + 2.0 * step, quad, which)
        up1 = newton_potential(src, x + step, quad, which)
        dn1 = newton_potential(src, x - step, quad, which)
        dn2 = newton_potential(src, x - 2.0 * step, quad, which)
        grad[k] = (-up2 + 8.0 * up1 - 8.0 * dn1 + dn2) / (12.0 * h)
    return grad


def potential_hessian(src, x, quad, which):
    """Hessian of u (which='electric') or v at x: Gauss's law, zero without
    a density, else second differences of the potential."""
    parts = src.radial_e if which == "electric" else src.radial_m
    if parts:
        return _gauss_law(parts, x)[1]
    if (src.rho_e if which == "electric" else src.rho_m) is None:
        return np.zeros((3, 3))
    h = src.width / 10.0
    u0 = newton_potential(src, x, quad, which)
    hess = np.empty((3, 3))
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = h
        hess[i, i] = (newton_potential(src, x + ei, quad, which) - 2.0 * u0
                      + newton_potential(src, x - ei, quad, which)) / (h * h)
        for j in range(i + 1, 3):
            ej = np.zeros(3)
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                newton_potential(src, x + ei + ej, quad, which)
                - newton_potential(src, x + ei - ej, quad, which)
                - newton_potential(src, x - ei + ej, quad, which)
                + newton_potential(src, x - ei - ej, quad, which)) / (4.0 * h * h)
    return hess


class State:
    """D, B, E, H and s at one point."""

    def __init__(self, src, params, x, quad):
        self.d = potential_gradient(src, x, quad, "electric")
        self.b = potential_gradient(src, x, quad, "magnetic")
        self.e, self.h, aux = dyonic_eh(params, self.d, self.b)
        self.s = aux.s


def k0_current(src, params, x, quad, st) -> np.ndarray:
    """j_m = -curl E at x of a kappa = 0 source, by the implicit derivative
    of phi = f'(s) = f'((a / phi^2 - b) / 2), with a = D^2 and b = B^2:
    j_m = P (grad a - phi^2 grad b) x D, P = f'' h' / (2 phi^2) with
    h = E^2 = 2 s + b and h' = 1 / (phi (f'' h + phi)), grad a = 2 H_u D
    and grad b = 2 H_v B."""
    phi, fpp = f_prime(params, st.s), f_double_prime(params, st.s)
    if fpp == 0.0:
        return np.zeros(3)
    hprime = 1.0 / (phi * (fpp * (2.0 * st.s + float(st.b @ st.b)) + phi))
    pref = fpp * hprime / (2.0 * phi * phi)
    grad_a = 2.0 * (potential_hessian(src, x, quad, "electric") @ st.d)
    grad_b = 2.0 * (potential_hessian(src, x, quad, "magnetic") @ st.b)
    return pref * np.cross(grad_a - phi * phi * grad_b, st.d)


def implicit_current(src, params, x, quad, st) -> np.ndarray:
    """j_m = -curl E at x of any source, from the forward map
    D = f'(s) u with u = E + kappa^2 (E.B) B = ds/dE: its Jacobian
    J_D = A J_E + C J_B with A = dD/dE = f' (I + kappa^2 B B^T) + f'' u u^T
    and C = dD/dB = f' kappa^2 (B E^T + (E.B) I) + f'' u (ds/dB)^T,
    ds/dB = -B + kappa^2 (E.B) E, solved for J_E = A^-1 (H_u - C H_v)."""
    phi, fpp = f_prime(params, st.s), f_double_prime(params, st.s)
    k2 = params.kappa**2
    e, b = st.e, st.b
    eb = float(e @ b)
    u = e + k2 * eb * b
    a = phi * (np.eye(3) + k2 * np.outer(b, b)) + fpp * np.outer(u, u)
    c = phi * k2 * (np.outer(b, e) + eb * np.eye(3)) + fpp * np.outer(u, -b + k2 * eb * e)
    jac = np.linalg.solve(a, potential_hessian(src, x, quad, "electric")
                          - c @ potential_hessian(src, x, quad, "magnetic"))
    return -np.array([jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1]])


def continuous_pointwise(src, params, x, quad=None) -> tuple:
    """The `continuous` table row at x: (*x, *E, *H, *j_m, density)."""
    x = np.asarray(x, dtype=float)
    st = State(src, params, x, quad)
    if params.kappa == 0.0 or src.rho_m is None or src.rho_e is None:
        j_m = k0_current(src, params, x, quad, st)
    else:
        j_m = implicit_current(src, params, x, quad, st)
    return (*x, *st.e, *st.h, *j_m, energy_density(params, st))
