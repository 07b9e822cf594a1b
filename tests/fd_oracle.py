"""Central-difference curl and divergence of rows fields: the tests'
finite-difference oracle, in numpy alone and independent of bifield.

A rows field maps points of shape (N, 3) to values of shape (N, ..., 3).
Each point takes its own half-width h, 1e-4 max(1, |x|) unless a step (a
number, or one per point) is given. F is evaluated at x + h e_j and
x - h e_j, one axis at a time, and richardson=True extrapolates the
differences at h/2 and h as (4 c(h/2) - c(h)) / 3. The results have the
shape (N, ..., 3) of a curl, or (N, ...) of a divergence.
"""

import numpy as np


def fd_step(pts) -> np.ndarray:
    """The default half-width at each row of pts: 1e-4 * max(1, |x|)."""
    return 1e-4 * np.maximum(1.0, np.linalg.norm(np.reshape(pts, (-1, 3)), axis=1))


def fd_jacobian(field, pts, h) -> np.ndarray:
    """J[n, ..., i, j] = (F(x + h e_j) - F(x - h e_j))_i / 2h at the rows
    of pts, with half-widths h of shape (N,)."""
    cols = []
    for axis in range(3):
        step = np.zeros_like(pts)
        step[:, axis] = h
        diff = np.asarray(field(pts + step), dtype=float) - np.asarray(field(pts - step), dtype=float)
        cols.append(diff / (2.0 * h).reshape((-1,) + (1,) * (diff.ndim - 1)))
    return np.stack(cols, axis=-1)


def _curl(j: np.ndarray) -> np.ndarray:
    return np.stack([j[..., 2, 1] - j[..., 1, 2], j[..., 0, 2] - j[..., 2, 0],
                     j[..., 1, 0] - j[..., 0, 1]], axis=-1)


def _div(j: np.ndarray) -> np.ndarray:
    return np.trace(j, axis1=-2, axis2=-1)


def _difference(op, field, pts, step, richardson) -> np.ndarray:
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    h = fd_step(pts) if step is None else np.broadcast_to(np.asarray(step, dtype=float),
                                                          (len(pts),))
    if not np.all((h > 0.0) & np.isfinite(h)):
        raise ValueError(f"finite-difference step must be positive and finite, got {step!r}")
    if not richardson:
        return op(fd_jacobian(field, pts, h))
    return (4.0 * op(fd_jacobian(field, pts, 0.5 * h)) - op(fd_jacobian(field, pts, h))) / 3.0


def fd_curl(field, pts, step=None, richardson=False) -> np.ndarray:
    """The central-difference curl of a rows field at the rows of pts."""
    return _difference(_curl, field, pts, step, richardson)


def fd_div(field, pts, step=None, richardson=False) -> np.ndarray:
    """The central-difference divergence of a rows field at the rows of pts."""
    return _difference(_div, field, pts, step, richardson)
