"""The four workloads: inputs made from a seed, and independent oracles.

Every oracle recomputes the expected numbers with numpy/scipy code of its
own (Coulomb sums, a scalar constitutive inversion, a finite-difference
curl, radial quadratures) and never calls into bifield. Tolerances are the
ones bifield's own gates use. README.md gives the reason for each workload.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import quad

FOUR_PI = 4.0 * math.pi
CURL_GATE = 1e-5          # bifield verify: electrostatic/magnetostatic curl match
DYON_ROWS_CHECKED = 24


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple        # subcommand argv tails; --config/--out-dir/... are added
    make_config: Callable  # seed -> config dict
    oracle: Callable       # (config, out_dir, seed) -> list of checks
    grid: bool             # counts are grid points (else whole commands)


# -- inputs ------------------------------------------------------------------


def _multicentre_config(seed: int) -> dict:
    """Six electric charges at seeded places and strengths, 6^3 grid."""
    rng = np.random.default_rng(seed)
    pos = []
    while len(pos) < 6:
        p = rng.uniform(-1.6, 1.6, 3)
        if all(np.linalg.norm(p - o) >= 0.5 for o in pos):
            pos.append(p)
    mags = rng.uniform(0.5, 2.0, 6) * rng.choice([-1.0, 1.0], 6)
    return {
        "model": {"kind": "classical", "beta": 1.0, "kappa": 0.0},
        "charges": [{"pos": [float(v) for v in p], "q": float(q)} for p, q in zip(pos, mags)],
        "grid": {"lo": [-2.0] * 3, "hi": [2.0] * 3, "shape": [6, 6, 6]},
    }


def _dyon_config(seed: int) -> dict:
    """bifield verify's dyon pair, each centre moved 0.06-0.1 off its grid
    node and its strengths scaled by 0.9-1.1. Each centre then has one grid
    node inside the radius where |B|^2 >= 2p/beta, the fractional-power
    domain edge, so the inversion fails there."""
    rng = np.random.default_rng(seed)
    base = (((1.0, 0.0, 0.0), 1.0, 0.4), ((-1.0, 0.5, 0.0), -2.0, 1.0))
    charges = []
    for p, q, g in base:
        u = rng.standard_normal(3)
        off = rng.uniform(0.06, 0.1) * u / np.linalg.norm(u)
        scale = rng.uniform(0.9, 1.1)
        charges.append({"pos": [float(v) for v in np.add(p, off)],
                        "q": float(q * scale), "g": float(g * scale)})
    return {
        "model": {"kind": "fractional_power", "beta": 1.0, "p": 1.5, "kappa": 0.5},
        "charges": charges,
        "grid": {"lo": [-2.0] * 3, "hi": [2.0] * 3, "shape": [9, 9, 9]},
    }


def _energy_config(seed: int) -> dict:
    """Logarithmic unit charge at a seeded place, rel_tol 1e-5."""
    rng = np.random.default_rng(seed)
    return {
        "model": {"kind": "logarithmic", "beta": 1.0, "kappa": 0.0},
        "charges": [{"pos": [float(v) for v in rng.uniform(-1.0, 1.0, 3)], "q": 1.0}],
        "quadrature": {"rel_tol": 1e-5},
    }


def _bump_config(seed: int) -> dict:
    """Bump of seeded total 1.6-2.4, radius 1, centre moved at most 0.02
    per axis; 2 grid points inside the support and 4 outside."""
    rng = np.random.default_rng(seed)
    return {
        "model": {"kind": "classical", "beta": 1.0, "kappa": 0.0},
        "continuous": {"shape": "bump", "total": float(rng.uniform(1.6, 2.4)),
                       "radius": 1.0,
                       "center": [float(v) for v in rng.uniform(-0.02, 0.02, 3)]},
        "grid": {"lo": [-2.0, -0.5, -0.5], "hi": [2.0, 0.5, 0.5], "shape": [3, 2, 1]},
    }


def edge_config() -> dict:
    """One bump point between R and R + width (the slow near-support case)."""
    return {
        "model": {"kind": "classical", "beta": 1.0, "kappa": 0.0},
        "continuous": {"shape": "bump", "total": 2.0, "radius": 1.0},
        "grid": {"lo": [1.2, 0.3, 0.1], "hi": [1.2, 0.3, 0.1], "shape": [1, 1, 1]},
    }


# -- shared oracle pieces ----------------------------------------------------


def read_table(path: Path):
    """CSV table as (header, float array of the numeric columns, text columns)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    numeric = [i for i, h in enumerate(header) if h != "method"]
    arr = np.array([[float(r[i]) for i in numeric] for r in body]).reshape(-1, len(numeric))
    text = [r[header.index("method")] for r in body] if "method" in header else []
    return [header[i] for i in numeric], arr, text


def coulomb(pos: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_i w_i (x - p_i) / (4 pi |x - p_i|^3) for points x of shape (..., 3)."""
    r = x[..., None, :] - pos
    dist = np.linalg.norm(r, axis=-1)
    return np.sum(weights[:, None] * r / (FOUR_PI * dist[..., None] ** 3), axis=-2)


def fd_curl(field: Callable, x: np.ndarray) -> np.ndarray:
    """Richardson-extrapolated central-difference curl at points x (N, 3),
    half-width 1e-4 max(1, |x|) as in bifield's gates."""
    h0 = 1e-4 * np.maximum(1.0, np.linalg.norm(x, axis=1))

    def curl(h):
        jac = np.empty((len(x), 3, 3))
        for k in range(3):
            step = np.zeros_like(x)
            step[:, k] = h
            jac[:, :, k] = (field(x + step) - field(x - step)) / (2.0 * h[:, None])
        return np.stack([jac[:, 2, 1] - jac[:, 1, 2], jac[:, 0, 2] - jac[:, 2, 0],
                         jac[:, 1, 0] - jac[:, 0, 1]], axis=1)

    return (4.0 * curl(0.5 * h0) - curl(h0)) / 3.0


def curl_residual(curl: np.ndarray, j: np.ndarray) -> float:
    """Worst row of max|curl - j| / max(1, max|j|), the verify gate's form."""
    scale = np.maximum(1.0, np.max(np.abs(j), axis=1))
    return float(np.max(np.max(np.abs(curl - j), axis=1) / scale))


def _charges(cfg: dict):
    pos = np.array([c["pos"] for c in cfg["charges"]], dtype=float)
    qs = np.array([c.get("q", 0.0) for c in cfg["charges"]], dtype=float)
    gs = np.array([c.get("g", 0.0) for c in cfg["charges"]], dtype=float)
    return pos, qs, gs


def _check(name: str, value: float, tol: float) -> dict:
    return {"name": name, "value": value, "tol": tol, "ok": bool(value <= tol)}


# -- oracles -----------------------------------------------------------------


def _multicentre_oracle(cfg: dict, out: Path, seed: int) -> list:
    header, arr, _ = read_table(out / "sample.csv")
    col = {h: i for i, h in enumerate(header)}
    x = arr[:, 0:3]
    pos, qs, _ = _charges(cfg)
    beta = cfg["model"]["beta"]

    def e_field(y):
        d = coulomb(pos, qs, y)
        return d / np.sqrt(1.0 + beta * np.sum(d * d, axis=-1, keepdims=True))

    e_ref = e_field(x)
    e_tab = arr[:, col["Ex"]:col["Ez"] + 1]
    d2 = np.sum(coulomb(pos, qs, x) ** 2, axis=1)
    dens_ref = (np.sqrt(1.0 + beta * d2) - 1.0) / beta
    jm = arr[:, col["jm_x"]:col["jm_z"] + 1]
    return [
        _check("E_vs_coulomb_rel", float(np.max(np.abs(e_tab - e_ref))
                                         / max(1e-300, float(np.max(np.abs(e_ref))))), 1e-10),
        _check("H_zero", float(np.max(np.abs(arr[:, col["Hx"]:col["Hz"] + 1]))), 0.0),
        _check("energy_density_rel", float(np.max(np.abs(arr[:, col["energy_density"]] - dens_ref)
                                                  / np.maximum(1.0, dens_ref))), 1e-10),
        _check("jm_vs_fd_curl_E", curl_residual(-fd_curl(e_field, x), jm), CURL_GATE),
        _check("rows_present", float(len(x) != math.prod(cfg["grid"]["shape"])), 0.0),
    ]


def _fractional_eh(model: dict, d: np.ndarray, b: np.ndarray):
    """(D, B) -> (E, H) for the fractional-power model with kappa, by a
    scalar bisection in phi = f'(s).

    D = f'(s) (E + k^2 (E.B) B) gives E = P / phi with
    P = D - k^2 (B.D) B / (1 + k^2 B^2), and phi solves
    phi = f'(c / (2 phi^2) - B^2 / 2), c = |P|^2 + k^2 (P.B)^2, whose left
    side minus right side increases in phi.
    """
    beta, p, k2 = model["beta"], model["p"], model["kappa"] ** 2
    b2 = np.sum(b * b, axis=-1)
    bd = np.sum(b * d, axis=-1)
    P = d - (k2 * bd / (1.0 + k2 * b2))[:, None] * b
    c = np.sum(P * P, axis=-1) + k2 * np.sum(P * b, axis=-1) ** 2

    def gap(phi):
        base = 1.0 + beta * (c / (2.0 * phi * phi) - 0.5 * b2) / p
        return phi - np.power(np.maximum(base, 0.0), p - 1.0)

    edge = b2 - 2.0 * p / beta
    hi = np.where(edge > 0.0, np.sqrt(c / np.where(edge > 0.0, edge, 1.0)), 1.0)
    for _ in range(200):
        grow = gap(hi) < 0.0
        if not grow.any():
            break
        hi = np.where(grow, 2.0 * hi, hi)
    lo = np.zeros_like(hi)
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        neg = gap(mid) < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    phi = 0.5 * (lo + hi)
    e = P / phi[:, None]
    eb = np.sum(e * b, axis=-1)
    h = phi[:, None] * (b - k2 * eb[:, None] * e)
    return e, h


def _dyon_oracle(cfg: dict, out: Path, seed: int) -> list:
    header, arr, methods = read_table(out / "current.csv")
    col = {h: i for i, h in enumerate(header)}
    pos, qs, gs = _charges(cfg)
    model = cfg["model"]
    rng = np.random.default_rng(seed + 7919)
    pick = np.sort(rng.choice(len(arr), size=min(DYON_ROWS_CHECKED, len(arr)), replace=False))
    x = arr[pick, 0:3]

    def fields(y):
        return _fractional_eh(model, coulomb(pos, qs, y), coulomb(pos, gs, y))

    je = arr[pick, col["je_x"]:col["je_z"] + 1]
    jm = arr[pick, col["jm_x"]:col["jm_z"] + 1]
    checks = [
        _check("jm_vs_fd_curl_E", curl_residual(-fd_curl(lambda y: fields(y)[0], x), jm), CURL_GATE),
        _check("je_vs_fd_curl_H", curl_residual(fd_curl(lambda y: fields(y)[1], x), je), CURL_GATE),
        _check("all_rows_fd", float(any(m != "fd" for m in methods)), 0.0),
    ]
    errors = out / "current.errors.json"
    if errors.exists():
        kinds = {f["error"] for f in json.loads(errors.read_text())["failures"]}
        checks.append(_check("failures_are_inversion", float(kinds != {"InversionFailure"}), 0.0))
    return checks


def log_charge_energy(q: float, beta: float) -> float:
    """Field energy of one logarithmic-model charge, as a radial integral of
    H = 2 D^2 / (1 + R) - log1p((R - 1) / 2) / beta, R = sqrt(1 + 2 beta D^2)."""
    def integrand(r):
        d = q / (FOUR_PI * r * r)
        big_r = math.sqrt(1.0 + 2.0 * beta * d * d)
        r_minus_1 = 2.0 * beta * d * d / (1.0 + big_r)   # R - 1 without cancellation
        dens = 2.0 * d * d / (1.0 + big_r) - math.log1p(0.5 * r_minus_1) / beta
        return FOUR_PI * r * r * dens

    total = 0.0
    edges = [0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, math.inf]
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=400)
        total += val
    return total


def _energy_oracle(cfg: dict, out: Path, seed: int) -> list:
    energy = json.loads((out / "energy.json").read_text())
    charge = json.loads((out / "charge.report.json").read_text())
    q = cfg["charges"][0]["q"]
    ref = log_charge_energy(q, cfg["model"]["beta"])
    rel_tol = cfg["quadrature"]["rel_tol"]
    return [
        _check("energy_vs_radial_integral_rel", abs(energy["value"] - ref) / ref, 10.0 * rel_tol),
        _check("energy_converged", float(energy["converged"] is not True), 0.0),
        _check("q_free_abs", abs(charge["q_free"] - q), 1e-3),
    ]


def bump_enclosed(total: float, radius: float, r: np.ndarray) -> np.ndarray:
    """Charge of the bump inside radius r, from a 1-D quadrature of its profile."""
    def shape(t):
        return t * t * math.exp(-1.0 / (1.0 - t * t)) if t < 1.0 else 0.0

    full, _ = quad(shape, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return np.array([total * quad(shape, 0.0, min(1.0, ri / radius), epsabs=0.0,
                                  epsrel=1e-13, limit=200)[0] / full for ri in r])


def _bump_oracle(cfg: dict, out: Path, seed: int) -> list:
    header, arr, _ = read_table(out / "continuous.csv")
    col = {h: i for i, h in enumerate(header)}
    src = cfg["continuous"]
    rel = arr[:, 0:3] - np.array(src["center"])
    r = np.linalg.norm(rel, axis=1)
    d = (bump_enclosed(src["total"], src["radius"], r) / (FOUR_PI * r**3))[:, None] * rel
    beta = cfg["model"]["beta"]
    e_ref = d / np.sqrt(1.0 + beta * np.sum(d * d, axis=1, keepdims=True))
    e_tab = arr[:, col["Ex"]:col["Ez"] + 1]
    return [
        _check("E_vs_gauss_law", float(np.max(np.abs(e_tab - e_ref))), 1e-5),
        _check("H_zero", float(np.max(np.abs(arr[:, col["Hx"]:col["Hz"] + 1]))), 0.0),
        _check("rows_present", float(len(arr) != math.prod(cfg["grid"]["shape"])), 0.0),
    ]


def jm_max(out: Path) -> float:
    """Largest |j_m| component of a continuous table (exactly 0 for a radial source)."""
    header, arr, _ = read_table(out / "continuous.csv")
    i = header.index("jm_x")
    return float(np.max(np.abs(arr[:, i:i + 3]))) if len(arr) else 0.0


WORKLOADS = {
    w.name: w for w in (
        Workload("sample-multicentre", (("sample",),), _multicentre_config,
                 _multicentre_oracle, grid=True),
        Workload("current-dyon-fd", (("current",),), _dyon_config, _dyon_oracle, grid=True),
        Workload("energy-log", (("energy",), ("charge", "--R", "50")), _energy_config,
                 _energy_oracle, grid=False),
        Workload("continuous-bump", (("continuous",),), _bump_config, _bump_oracle, grid=True),
    )
}
