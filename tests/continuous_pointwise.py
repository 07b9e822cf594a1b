"""Per-point reference for the `continuous` command.

bifield.continuous evaluates a continuous source on rows: D, B and the
Hessian of u for a whole chunk from one Gauss's-law pass, E and H from one
invert_rows call, the density from density_rows, and j_m from the rows curl
formula or from the stacked FD stencil of currents._fd_rows. This module
keeps the per-point evaluation those replaced, one point at a time:

* _gauss_law, D and the Hessian of one point from the radial parts, and
  the fourth-order finite differences of newton_potential for a source
  without them;
* the scalar inversion (scalar_inversions.dyonic_eh) and the scalar
  energy_density;
* the closed-form curl of E of an electric source, with the oracle's f'
  and f'', and fd_oracle's curl of the per-point E otherwise.

continuous_pointwise(src, params, x, quad) is the command's table row at x,
or raises the point's failure. Like scalar_inversions it shares no code with
the rows path it checks; test_oracle_independence enforces that.
"""

import numpy as np

from bifield.continuous import newton_potential
from fd_oracle import fd_curl
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


def potential_hessian(src, x, quad):
    """Hessian of u at x: Gauss's law, else second differences of u."""
    if src.radial_e:
        return _gauss_law(src.radial_e, x)[1]
    h = src.width / 10.0
    u0 = newton_potential(src, x, quad)
    hess = np.empty((3, 3))
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = h
        hess[i, i] = (newton_potential(src, x + ei, quad) - 2.0 * u0
                      + newton_potential(src, x - ei, quad)) / (h * h)
        for j in range(i + 1, 3):
            ej = np.zeros(3)
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                newton_potential(src, x + ei + ej, quad) - newton_potential(src, x + ei - ej, quad)
                - newton_potential(src, x - ei + ej, quad)
                + newton_potential(src, x - ei - ej, quad)) / (4.0 * h * h)
    return hess


class State:
    """D, B, E, H and s at one point."""

    def __init__(self, src, params, x, quad):
        self.d = potential_gradient(src, x, quad, "electric")
        self.b = potential_gradient(src, x, quad, "magnetic")
        self.e, self.h, aux = dyonic_eh(params, self.d, self.b)
        self.s = aux.s


def curl_formula(src, params, x, quad, g, e) -> np.ndarray:
    """curl E of an electric source at x, where grad u = g and E = e."""
    a = float(e @ e)
    fp = f_prime(params, 0.5 * a)
    fpp = f_double_prime(params, 0.5 * a)
    if fpp == 0.0:
        return np.zeros(3)
    hprime = 1.0 / (fp * (fpp * a + fp))
    return (fpp * hprime / fp**2) * np.cross(g, potential_hessian(src, x, quad) @ g)


def continuous_pointwise(src, params, x, quad=None) -> tuple:
    """The `continuous` table row at x: (*x, *E, *H, *j_m, density)."""
    x = np.asarray(x, dtype=float)
    st = State(src, params, x, quad)
    if src.rho_m is None:
        j_m = -curl_formula(src, params, x, quad, st.d, st.e)
    else:
        j_m = -fd_curl(lambda ys: np.array([State(src, params, y, quad).e for y in ys]), x,
                       step=src.width / 10.0, richardson=True)[0]
    return (*x, *st.e, *st.h, *j_m, energy_density(params, st))
