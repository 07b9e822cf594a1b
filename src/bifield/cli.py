"""Config-driven command line for the field engine.

One JSON config describes the model, the sources, the quadrature and the
probe grid; subcommands evaluate field tables, charges, energies, currents
and the built-in verification suites. Exit codes: 0 on success, 1 for a
malformed config, 2 when a numeric routine fails (failures on grid points
are aggregated with their locations instead of aborting at the first one).

    bifield sample --config run.json --out-dir out --format csv
    bifield charge --config run.json --R 50
    bifield verify --out-dir out
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .constitutive import (
    dyonic_eh,
    electrostatic_e,
    magnetostatic_h,
    round_trip_residual,
)
from .continuous import (
    ContinuousSource,
    bump_source,
    continuous_fields,
    curl_formula_continuous,
    gaussian_source,
    gridded_source,
    merge_sources,
    newton_potential,
    two_gaussian_source,
)
from .currents import (
    current_at,
    fd_curl,
    je_classical_magnetostatic,
    jm_classical_electrostatic,
    jm_classical_jacobi_term,
)
from .errors import ConfigError, DomainViolation, FieldError, SingularPoint
from .models import ModelParams
from .observables import (
    QuadratureSpec,
    energy_density,
    flux_charge,
    free_charge_with_inner_spheres,
    hamiltonian_at,
    total_energy,
)
from .sources import ChargeConfig, displacement_field, magnetic_field
from .specfn import lambert_w, smallest_positive_cubic_root

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

SAMPLE_COLUMNS = (
    "x", "y", "z",
    "Ex", "Ey", "Ez",
    "Hx", "Hy", "Hz",
    "jm_x", "jm_y", "jm_z",
    "energy_density",
)
CURRENT_COLUMNS = (
    "x", "y", "z",
    "je_x", "je_y", "je_z",
    "jm_x", "jm_y", "jm_z",
    "method",
)

# radial-quadrature reference for the total energy of a unit charge,
# classical model with beta = 1 (the verify command checks against it)
_UNIT_CHARGE_ENERGY = 0.34868320668436725

_MODEL_KEYS = {
    "classical": ("beta", "kappa"),
    "logarithmic": ("beta", "kappa"),
    "exponential": ("beta", "kappa"),
    "fractional_power": ("beta", "p", "kappa"),
    "quadratic": ("alpha", "kappa"),
}
_QUAD_KEYS = (
    "rel_tol", "abs_tol", "max_subdivisions",
    "ball_radius", "far_radius", "exclusion", "flux_radii",
)
_TOP_KEYS = ("model", "charges", "continuous", "quadrature", "grid", "output", "seed")


# -- config parsing ----------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Parsed and normalized run configuration.

    data holds the fully resolved dict (defaults filled in); serializing it
    and parsing the result reproduces the same structure, and its canonical
    JSON encoding is what the config hash covers.
    """

    model: ModelParams
    charges: Optional[ChargeConfig]
    source: Optional[ContinuousSource]
    quadrature: QuadratureSpec
    grid_lo: tuple
    grid_hi: tuple
    grid_shape: tuple
    out_format: str
    seed: int
    data: dict


def _require_mapping(obj, name: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} section must be a JSON object")
    return obj


def _reject_unknown(sec: dict, allowed, name: str) -> None:
    extra = sorted(set(sec) - set(allowed))
    if extra:
        raise ConfigError(f"unknown key(s) in {name} section: {', '.join(extra)}")


def _as_float(val, name: str) -> float:
    try:
        out = float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {val!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {val!r}")
    return out


def _as_vec3(val, name: str) -> list:
    if not isinstance(val, (list, tuple)) or len(val) != 3:
        raise ConfigError(f"{name} must be a list of three numbers")
    return [_as_float(v, name) for v in val]


def _model_from_section(sec: dict) -> tuple:
    sec = _require_mapping(sec, "model")
    kind = sec.get("kind")
    if kind not in _MODEL_KEYS:
        known = ", ".join(sorted(_MODEL_KEYS))
        raise ConfigError(f"model kind must be one of {known}, got {kind!r}")
    _reject_unknown(sec, ("kind",) + _MODEL_KEYS[kind], f"model ({kind})")
    kwargs = {k: _as_float(sec[k], f"model.{k}") for k in _MODEL_KEYS[kind] if k in sec}
    try:
        params = getattr(ModelParams, kind)(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from None
    norm = {"kind": kind}
    for key in _MODEL_KEYS[kind]:
        norm[key] = float(getattr(params, key))
    return params, norm


def _charges_from_section(sec) -> tuple:
    if not isinstance(sec, list) or not sec:
        raise ConfigError("charges section must be a non-empty list")
    entries = []
    norm = []
    for i, item in enumerate(sec):
        item = _require_mapping(item, f"charges[{i}]")
        _reject_unknown(item, ("pos", "q", "g"), f"charges[{i}]")
        if "pos" not in item:
            raise ConfigError(f"charges[{i}] needs a pos")
        pos = _as_vec3(item["pos"], f"charges[{i}].pos")
        q = _as_float(item.get("q", 0.0), f"charges[{i}].q")
        g = _as_float(item.get("g", 0.0), f"charges[{i}].g")
        entries.append((pos, q, g))
        norm.append({"pos": pos, "q": q, "g": g})
    try:
        cfg = ChargeConfig.build(entries)
    except ValueError as exc:
        raise ConfigError(f"invalid charges: {exc}") from None
    return cfg, norm


def _normalize_source_section(sec: dict, nested: bool = False) -> dict:
    sec = _require_mapping(sec, "continuous")
    shape = sec.get("shape")
    common = ("shape", "gamma") + (() if nested else ("magnetic",))
    if shape == "gaussian":
        _reject_unknown(sec, common + ("total", "sigma", "center"), "continuous (gaussian)")
        norm = {
            "shape": "gaussian",
            "total": _as_float(sec.get("total", 1.0), "total"),
            "sigma": _as_float(sec.get("sigma", 1.0), "sigma"),
            "center": _as_vec3(sec.get("center", [0.0, 0.0, 0.0]), "center"),
        }
    elif shape == "two_gaussian":
        _reject_unknown(
            sec,
            common + ("q1", "sigma1", "center1", "q2", "sigma2", "center2"),
            "continuous (two_gaussian)",
        )
        norm = {"shape": "two_gaussian"}
        for tag in ("1", "2"):
            norm["q" + tag] = _as_float(sec.get("q" + tag, 1.0), "q" + tag)
            norm["sigma" + tag] = _as_float(sec.get("sigma" + tag, 1.0), "sigma" + tag)
            norm["center" + tag] = _as_vec3(
                sec.get("center" + tag, [0.0, 0.0, 0.0]), "center" + tag
            )
    elif shape == "bump":
        _reject_unknown(sec, common + ("total", "radius", "center"), "continuous (bump)")
        norm = {
            "shape": "bump",
            "total": _as_float(sec.get("total", 1.0), "total"),
            "radius": _as_float(sec.get("radius", 1.0), "radius"),
            "center": _as_vec3(sec.get("center", [0.0, 0.0, 0.0]), "center"),
        }
    elif shape == "gridded":
        _reject_unknown(sec, common + ("lattice", "sidecar"), "continuous (gridded)")
        if "lattice" not in sec:
            raise ConfigError("gridded source needs a lattice path")
        norm = {
            "shape": "gridded",
            "lattice": str(sec["lattice"]),
            "sidecar": None if sec.get("sidecar") is None else str(sec["sidecar"]),
        }
    elif shape == "dyonic":
        if nested:
            raise ConfigError("dyonic sources cannot nest")
        _reject_unknown(sec, ("shape", "electric", "magnetic"), "continuous (dyonic)")
        if "electric" not in sec or "magnetic" not in sec:
            raise ConfigError("dyonic source needs electric and magnetic sections")
        return {
            "shape": "dyonic",
            "electric": _normalize_source_section(sec["electric"], nested=True),
            "magnetic": _normalize_source_section(sec["magnetic"], nested=True),
        }
    else:
        raise ConfigError(
            "continuous shape must be one of gaussian, two_gaussian, bump, "
            f"gridded, dyonic, got {shape!r}"
        )
    norm["gamma"] = _as_float(sec.get("gamma", 6.0), "gamma")
    if not nested:
        norm["magnetic"] = bool(sec.get("magnetic", False))
    return norm


def _source_from_norm(norm: dict, base_dir: Path, magnetic: bool = False) -> ContinuousSource:
    shape = norm["shape"]
    magnetic = norm.get("magnetic", magnetic)
    if shape == "gaussian":
        return gaussian_source(
            total=norm["total"], sigma=norm["sigma"], center=norm["center"],
            magnetic=magnetic, gamma=norm["gamma"],
        )
    if shape == "two_gaussian":
        return two_gaussian_source(
            q1=norm["q1"], sigma1=norm["sigma1"], center1=norm["center1"],
            q2=norm["q2"], sigma2=norm["sigma2"], center2=norm["center2"],
            magnetic=magnetic, gamma=norm["gamma"],
        )
    if shape == "bump":
        return bump_source(
            total=norm["total"], radius=norm["radius"], center=norm["center"],
            magnetic=magnetic, gamma=norm["gamma"],
        )
    if shape == "gridded":
        lattice = Path(norm["lattice"])
        if not lattice.is_absolute():
            lattice = base_dir / lattice
        sidecar = norm["sidecar"]
        if sidecar is not None:
            sidecar = Path(sidecar)
            if not sidecar.is_absolute():
                sidecar = base_dir / sidecar
        return gridded_source(lattice, sidecar, magnetic=magnetic, gamma=norm["gamma"])
    # dyonic: build both halves and merge
    return merge_sources(
        _source_from_norm(norm["electric"], base_dir, magnetic=False),
        _source_from_norm(norm["magnetic"], base_dir, magnetic=True),
    )


def _quad_from_section(sec, charges: Optional[ChargeConfig]) -> QuadratureSpec:
    base = QuadratureSpec.for_config(charges) if charges is not None else QuadratureSpec()
    if sec is None:
        return base
    sec = _require_mapping(sec, "quadrature")
    _reject_unknown(sec, _QUAD_KEYS, "quadrature")
    overrides = {}
    for key in _QUAD_KEYS:
        if key not in sec:
            continue
        if key == "flux_radii":
            if not isinstance(sec[key], (list, tuple)):
                raise ConfigError("quadrature.flux_radii must be a list")
            overrides[key] = tuple(_as_float(v, "flux_radii entry") for v in sec[key])
        elif key == "max_subdivisions":
            try:
                overrides[key] = int(sec[key])
            except (TypeError, ValueError):
                raise ConfigError("quadrature.max_subdivisions must be an integer") from None
        else:
            overrides[key] = _as_float(sec[key], f"quadrature.{key}")
    return dataclasses.replace(base, **overrides)


def _quad_section(quad: QuadratureSpec) -> dict:
    return {
        "rel_tol": quad.rel_tol,
        "abs_tol": quad.abs_tol,
        "max_subdivisions": quad.max_subdivisions,
        "ball_radius": quad.ball_radius,
        "far_radius": quad.far_radius,
        "exclusion": quad.exclusion,
        "flux_radii": [float(r) for r in quad.flux_radii],
    }


def _grid_from_section(sec) -> tuple:
    if sec is None:
        sec = {}
    sec = _require_mapping(sec, "grid")
    _reject_unknown(sec, ("lo", "hi", "shape"), "grid")
    lo = _as_vec3(sec.get("lo", [-2.0, -2.0, -2.0]), "grid.lo")
    hi = _as_vec3(sec.get("hi", [2.0, 2.0, 2.0]), "grid.hi")
    shape = sec.get("shape", [9, 9, 9])
    if not isinstance(shape, (list, tuple)) or len(shape) != 3:
        raise ConfigError("grid.shape must be a list of three integers")
    try:
        shape = [int(n) for n in shape]
    except (TypeError, ValueError):
        raise ConfigError("grid.shape must be a list of three integers") from None
    if any(n < 1 for n in shape):
        raise ConfigError("grid.shape entries must be at least 1")
    for i in range(3):
        if not lo[i] <= hi[i]:
            raise ConfigError("grid.lo must not exceed grid.hi")
    return tuple(lo), tuple(hi), tuple(shape), {"lo": lo, "hi": hi, "shape": shape}


def parse_config(data: dict, base_dir: Path = Path(".")) -> RunConfig:
    """Validate a config dict and resolve every default.

    The normalized structure is stored on the result; serializing it and
    parsing the output yields an identical structure.
    """
    data = _require_mapping(data, "config")
    _reject_unknown(data, _TOP_KEYS, "config")
    if "model" not in data:
        raise ConfigError("config needs a model section")
    params, model_norm = _model_from_section(data["model"])

    charges = None
    charges_norm = None
    if data.get("charges") is not None:
        charges, charges_norm = _charges_from_section(data["charges"])

    source = None
    source_norm = None
    if data.get("continuous") is not None:
        source_norm = _normalize_source_section(data["continuous"])
        source = _source_from_norm(source_norm, base_dir)

    if charges is None and source is None:
        raise ConfigError("config needs a charges section, a continuous section, or both")

    quad = _quad_from_section(data.get("quadrature"), charges)
    grid_lo, grid_hi, grid_shape, grid_norm = _grid_from_section(data.get("grid"))

    out_sec = _require_mapping(data.get("output", {}), "output")
    _reject_unknown(out_sec, ("format",), "output")
    out_format = out_sec.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {out_format!r}")

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")

    norm = {"model": model_norm}
    if charges_norm is not None:
        norm["charges"] = charges_norm
    if source_norm is not None:
        norm["continuous"] = source_norm
    norm["quadrature"] = _quad_section(quad)
    norm["grid"] = grid_norm
    norm["output"] = {"format": out_format}
    norm["seed"] = seed

    return RunConfig(
        model=params,
        charges=charges,
        source=source,
        quadrature=quad,
        grid_lo=grid_lo,
        grid_hi=grid_hi,
        grid_shape=grid_shape,
        out_format=out_format,
        seed=seed,
        data=norm,
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return parse_config(data, base_dir=path.parent)


def serialize_config(cfg: RunConfig) -> str:
    return json.dumps(cfg.data, indent=2, sort_keys=True) + "\n"


def config_digest(cfg: RunConfig) -> str:
    canon = json.dumps(cfg.data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- output helpers ----------------------------------------------------------


def grid_points(cfg: RunConfig) -> np.ndarray:
    """Probe grid as an (N, 3) array, row-major with z fastest."""
    axes = [
        np.linspace(cfg.grid_lo[i], cfg.grid_hi[i], cfg.grid_shape[i])
        for i in range(3)
    ]
    xs, ys, zs = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])


def _report_head(cfg: Optional[RunConfig], seed: int) -> dict:
    return {
        "version": __version__,
        "config_sha256": None if cfg is None else config_digest(cfg),
        "seed": seed,
    }


def _fmt_cell(v) -> str:
    if isinstance(v, str):
        return v
    return format(float(v), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    # '.' decimal separator and '\n' line endings regardless of platform
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _emit_table(out_dir: Path, name: str, fmt: str, header, rows,
                head: dict, extra: dict) -> list:
    """Write a field table plus its JSON report, return written paths."""
    written = []
    report = dict(head)
    report.update(extra)
    report["columns"] = list(header)
    report["n_rows"] = len(rows)
    if fmt == "csv":
        table = out_dir / f"{name}.csv"
        _write_csv(table, header, rows)
        written.append(table)
        report["table"] = table.name
        report_path = out_dir / f"{name}.report.json"
    else:
        report["rows"] = [
            [v if isinstance(v, str) else float(v) for v in row] for row in rows
        ]
        report_path = out_dir / f"{name}.json"
    _write_json(report_path, report)
    written.append(report_path)
    return written


def _emit_failures(out_dir: Path, name: str, head: dict, failures: list) -> Optional[Path]:
    """Write <name>.errors.json, or remove it when there are no failures so
    that a clean rerun leaves no errors file from an earlier run behind."""
    path = out_dir / f"{name}.errors.json"
    if not failures:
        path.unlink(missing_ok=True)
        return None
    payload = dict(head)
    payload["command"] = name
    payload["n_failures"] = len(failures)
    payload["failures"] = failures
    _write_json(path, payload)
    return path


def _grid_command(cfg: RunConfig, args, name: str, columns, row_at) -> int:
    """Evaluate row_at on every grid point and write the table, its report
    and the errors file.

    A SingularPoint skips the point; any other FieldError is recorded with
    its location and type, and the command exits 2 after writing the rows
    that did evaluate.
    """
    rows, skipped, failures = [], 0, []
    for x in grid_points(cfg):
        try:
            rows.append(row_at(x))
        except SingularPoint:
            skipped += 1
        except FieldError as exc:
            failures.append({"at": [float(v) for v in x],
                             "error": type(exc).__name__, "detail": str(exc)})
    head = _report_head(cfg, args.effective_seed)
    extra = {"command": name, "n_skipped": skipped}
    written = _emit_table(args.out_dir, name, args.effective_format,
                          columns, rows, head, extra)
    for path in written:
        print(f"wrote {path}")
    path = _emit_failures(args.out_dir, name, head, failures)
    if failures:
        print(f"{len(failures)} grid point(s) failed, see {path}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# -- subcommands -------------------------------------------------------------


def _cmd_sample(cfg: RunConfig, args) -> int:
    if cfg.charges is None:
        raise ConfigError("sample requires a charges section")
    params, charges = cfg.model, cfg.charges

    def row_at(x):
        e, h, _ = dyonic_eh(
            params, displacement_field(charges, x), magnetic_field(charges, x)
        )
        j_m = current_at(params, charges, x).j_m
        dens = hamiltonian_at(params, charges, x)
        return (*x, *e, *h, *j_m, dens)

    return _grid_command(cfg, args, "sample", SAMPLE_COLUMNS, row_at)


def _cmd_current(cfg: RunConfig, args) -> int:
    if cfg.charges is None:
        raise ConfigError("current requires a charges section")
    params, charges = cfg.model, cfg.charges

    def row_at(x):
        sample = current_at(params, charges, x)
        return (*x, *sample.j_e, *sample.j_m, sample.method)

    return _grid_command(cfg, args, "current", CURRENT_COLUMNS, row_at)


def _cmd_continuous(cfg: RunConfig, args) -> int:
    if cfg.source is None:
        raise ConfigError("continuous requires a continuous section")
    params, src, quad = cfg.model, cfg.source, cfg.quadrature
    electric_only = src.rho_m is None

    def row_at(x):
        st = continuous_fields(src, params, x, quad)
        if electric_only:
            j_m = -curl_formula_continuous(src, params, x, quad)
        else:
            j_m = -fd_curl(
                lambda y: continuous_fields(src, params, y, quad).e,
                x, step=src.width / 10.0, richardson=True,
            )
        dens = energy_density(params, st)
        return (*x, *st.e, *st.h, *j_m, dens)

    return _grid_command(cfg, args, "continuous", SAMPLE_COLUMNS, row_at)


def _cmd_charge(cfg: RunConfig, args) -> int:
    if cfg.charges is None:
        raise ConfigError("charge requires a charges section")
    params, charges, quad = cfg.model, cfg.charges, cfg.quadrature
    if args.R is not None:
        if not (args.R > 0.0 and math.isfinite(args.R)):
            raise ConfigError(f"--R must be a positive radius, got {args.R!r}")
        radii = [args.R * 2.0**k for k in range(4)]
    elif quad.flux_radii:
        radii = [float(r) for r in quad.flux_radii]
    else:
        radii = [quad.far_radius * 2.0**k for k in range(4)]

    center = charges.centroid

    def e_field(y):
        return dyonic_eh(params, displacement_field(charges, y),
                         magnetic_field(charges, y))[0]

    def h_field(y):
        return dyonic_eh(params, displacement_field(charges, y),
                         magnetic_field(charges, y))[1]

    head = _report_head(cfg, args.effective_seed)
    try:
        free = free_charge_with_inner_spheres(charges, params, quad)
        ladder = [
            {
                "radius": float(r),
                "e_flux": flux_charge(e_field, r, quad, center=center),
                "h_flux": flux_charge(h_field, r, quad, center=center),
            }
            for r in radii
        ]
    except FieldError as exc:
        path = _emit_failures(args.out_dir, "charge", head,
                              [{"error": type(exc).__name__, "detail": str(exc)}])
        print(f"charge computation failed, see {path}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit_failures(args.out_dir, "charge", head, [])

    payload = dict(head)
    payload.update({
        "command": "charge",
        "q_free": free["q_free"],
        "g_free": free["g_free"],
        "flux_ladder": ladder,
    })
    if args.effective_format == "csv":
        table = args.out_dir / "flux_ladder.csv"
        _write_csv(table, ("radius", "e_flux", "h_flux"),
                   [(e["radius"], e["e_flux"], e["h_flux"]) for e in ladder])
        print(f"wrote {table}")
        report = args.out_dir / "charge.report.json"
    else:
        report = args.out_dir / "charge.json"
    _write_json(report, payload)
    print(f"wrote {report}")
    print(f"q_free = {free['q_free']:.6g}, g_free = {free['g_free']:.6g}")
    return EXIT_OK


def _cmd_energy(cfg: RunConfig, args) -> int:
    if cfg.charges is None:
        raise ConfigError("energy requires a charges section")
    head = _report_head(cfg, args.effective_seed)
    try:
        report = total_energy(cfg.charges, cfg.model, cfg.quadrature)
    except FieldError as exc:
        path = _emit_failures(args.out_dir, "energy", head,
                              [{"error": type(exc).__name__, "detail": str(exc)}])
        print(f"energy integration failed, see {path}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit_failures(args.out_dir, "energy", head, [])
    payload = dict(head)
    payload.update({
        "command": "energy",
        "value": report.value,
        "converged": report.converged,
        "near_charge_exponents": [
            None if e is None else float(e) for e in report.near_charge_exponents
        ],
        "parts": {
            k: [float(x) for x in v] if isinstance(v, (list, tuple)) else float(v)
            for k, v in report.parts.items()
        },
    })
    path = args.out_dir / "energy.json"
    _write_json(path, payload)
    print(f"wrote {path}")
    print(f"energy = {report.value:.10g} (converged: {report.converged})")
    return EXIT_OK


# -- verify suites -----------------------------------------------------------


def _suite(name: str, tol: float, residuals) -> dict:
    worst = max(float(r) for r in residuals)
    return {
        "name": name,
        "max_residual": worst,
        "tolerance": tol,
        "passed": bool(worst <= tol),
        "n_checks": len(residuals),
    }


def _verify_lambert(rng) -> dict:
    xs = np.concatenate([
        np.logspace(-12, 12, 200),
        rng.uniform(1e-6, 1e6, 200),
    ])
    res = [abs(lambert_w(x) * math.exp(lambert_w(x)) - x) / x for x in xs]
    return _suite("lambert_identity", 1e-13, res)


def _verify_cubic(rng) -> dict:
    res = []
    for _ in range(400):
        gamma = rng.uniform(-20.0, 20.0)
        sigma2 = rng.uniform(0.0, 50.0)
        a = smallest_positive_cubic_root(gamma, sigma2)
        res.append(abs((gamma + a) ** 2 * a - sigma2) / max(1.0, sigma2))
    return _suite("cubic_residual", 1e-10, res)


def _dyon_pair() -> ChargeConfig:
    return ChargeConfig.build([
        ((1.0, 0.0, 0.0), 1.0, 0.4),
        ((-1.0, 0.5, 0.0), -2.0, 1.0),
    ])


def _verify_round_trip(rng) -> dict:
    cfg = _dyon_pair()
    kinds = [
        ModelParams.classical(beta=1.3),
        ModelParams.logarithmic(beta=0.8),
        ModelParams.exponential(beta=0.5),
        ModelParams.fractional_power(beta=1.1, p=1.7),
        ModelParams.quadratic(alpha=0.05),
    ]
    res = []
    pts = rng.uniform(-3.0, 3.0, size=(40, 3))
    for base in kinds:
        for kappa in (0.0, 0.5, 1.0):
            params = dataclasses.replace(base, kappa=kappa)
            for x in pts:
                if cfg.min_distance(x) < 0.3:
                    continue
                d = displacement_field(cfg, x)
                b = magnetic_field(cfg, x)
                try:
                    res.append(round_trip_residual(params, d, b))
                except DomainViolation:
                    continue  # quadratic domain holes are legitimate
    return _suite("constitutive_round_trip", 1e-7, res)


def _verify_jacobi(rng) -> dict:
    res = []
    for _ in range(20):
        n = int(rng.integers(2, 5))
        cfg = ChargeConfig.build([
            (rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0), 0.0)
            for _ in range(n)
        ])
        for _ in range(5):
            x = rng.uniform(-4.0, 4.0, 3)
            if cfg.min_distance(x) < 0.3:
                continue
            res.append(float(np.max(np.abs(
                jm_classical_jacobi_term(cfg, 1.0, x)
            ))))
    return _suite("jacobi_partial_sum", 1e-12, res)


def _electric_pair() -> ChargeConfig:
    return ChargeConfig.build([
        ((1.0, 0.0, 0.0), 1.0, 0.0),
        ((-1.0, 0.0, 0.0), 2.0, 0.0),
    ])


def _verify_curl(rng, name: str, cfg: ChargeConfig, field, current, sign: float) -> dict:
    """FD curl of a classical (beta = 1) field against sign * its closed-form
    current at 12 random points clear of the charges."""
    res = []
    k = 0
    while len(res) < 12 and k < 200:
        k += 1
        x = rng.uniform(-2.0, 2.0, 3)
        if cfg.min_distance(x) < 0.4:
            continue
        j = current(cfg, 1.0, x)
        curl = fd_curl(field, x, richardson=True)
        res.append(float(np.max(np.abs(curl - sign * j)))
                   / max(1.0, float(np.max(np.abs(j)))))
    return _suite(name, 1e-5, res)


def _verify_curl_electric(rng) -> dict:
    cfg = _electric_pair()
    params = ModelParams.classical(beta=1.0)
    return _verify_curl(rng, "electrostatic_curl_match", cfg,
                        lambda y: electrostatic_e(params, displacement_field(cfg, y)),
                        jm_classical_electrostatic, -1.0)


def _verify_curl_magnetic(rng) -> dict:
    cfg = ChargeConfig.build([
        ((1.0, 0.0, 0.0), 0.0, 1.0),
        ((-1.0, 0.0, 0.0), 0.0, 2.0),
    ])
    params = ModelParams.classical(beta=1.0)
    return _verify_curl(rng, "magnetostatic_curl_match", cfg,
                        lambda y: magnetostatic_h(params, magnetic_field(cfg, y)),
                        je_classical_magnetostatic, 1.0)


def _verify_single_null(rng) -> dict:
    cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 1.5, 0.0)])
    res = []
    for _ in range(5):
        x = rng.uniform(0.5, 2.0, 3)
        res.append(float(np.max(np.abs(jm_classical_electrostatic(cfg, 1.0, x)))))
    return _suite("single_charge_null_current", 1e-12, res)


def _verify_flux(rng) -> dict:
    q, beta, R = 2.0, 1.0, 10.0
    cfg = ChargeConfig.build([((0.0, 0.0, 0.0), q, 0.0)])
    params = ModelParams.classical(beta=beta)
    quad = QuadratureSpec.for_config(cfg)

    def e_field(y):
        return electrostatic_e(params, displacement_field(cfg, y))

    flux = flux_charge(e_field, R, quad)
    exact = q / math.sqrt(1.0 + beta * q**2 / (16.0 * math.pi**2 * R**4))
    return _suite("flux_closed_form", 1e-10, [abs(flux - exact) / abs(exact)])


def _verify_free_charge(rng) -> dict:
    cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 2.0, 1.0)])
    params = ModelParams.classical(beta=1.0)
    free = free_charge_with_inner_spheres(cfg, params, QuadratureSpec.for_config(cfg))
    return _suite("dyon_free_charge", 1e-3,
                  [abs(free["q_free"] - 1.0), abs(free["g_free"] + 1.0)])


def _verify_energy(rng) -> dict:
    cfg = ChargeConfig.build([((0.0, 0.0, 0.0), 1.0, 0.0)])
    params = ModelParams.classical(beta=1.0)
    quad = QuadratureSpec.for_config(cfg, rel_tol=1e-5)
    report = total_energy(cfg, params, quad)
    rel = abs(report.value - _UNIT_CHARGE_ENERGY) / _UNIT_CHARGE_ENERGY
    if not report.converged:
        rel = math.inf
    return _suite("total_energy_reference", 1e-4, [rel])


def _verify_saturation(rng) -> dict:
    res = []
    dirs = rng.standard_normal((5, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for beta in (0.5, 2.0):
        for params, bound in (
            (ModelParams.classical(beta=beta), 1.0 / math.sqrt(beta)),
            (ModelParams.logarithmic(beta=beta), math.sqrt(2.0 / beta)),
        ):
            for mag in np.logspace(0.0, 8.0, 15):
                for u in dirs:
                    e = electrostatic_e(params, mag * u)
                    # float saturation may round onto the bound itself
                    res.append((float(np.linalg.norm(e)) - bound) / bound)
    return _suite("saturation_bounds", 1e-15, res)


def _verify_maxwell_fields(rng) -> dict:
    params = ModelParams.fractional_power(beta=3.0, p=1.0)
    res = []
    for _ in range(30):
        d = rng.uniform(-5.0, 5.0, 3)
        b = rng.uniform(-5.0, 5.0, 3)
        e, h, _ = dyonic_eh(params, d, b)
        res.append(float(max(np.max(np.abs(e - d)), np.max(np.abs(h - b)))))
    return _suite("maxwell_limit_fields", 0.0, res)


def _verify_maxwell_currents(rng) -> dict:
    params = ModelParams.fractional_power(beta=2.0, p=1.0)
    cfg = _electric_pair()
    res = []
    for _ in range(5):
        x = rng.uniform(-2.0, 2.0, 3)
        if cfg.min_distance(x) < 0.4:
            continue
        sample = current_at(params, cfg, x)
        res.append(float(max(np.max(np.abs(sample.j_e)), np.max(np.abs(sample.j_m)))))
    return _suite("maxwell_limit_currents", 1e-12, res)


def _verify_newton(rng) -> dict:
    from scipy.special import erf

    total, sigma = 2.0, 0.8
    src = gaussian_source(total=total, sigma=sigma)
    res = []
    for r in (0.5, 1.0, 2.0, 4.0):
        u = newton_potential(src, (r, 0.0, 0.0))
        exact = -total * float(erf(r / (math.sqrt(2.0) * sigma))) / (4.0 * math.pi * r)
        res.append(abs(u - exact) / abs(exact))
    return _suite("newton_potential_reference", 1e-5, res)


def _verify_radial_curl(rng) -> dict:
    src = gaussian_source(total=2.0, sigma=0.8)
    params = ModelParams.classical(beta=1.5)
    res = []
    for x in ((0.7, 0.2, -0.4), (1.5, -1.0, 0.3)):
        res.append(float(np.max(np.abs(
            curl_formula_continuous(src, params, np.array(x))
        ))))
    return _suite("radial_curl_free", 1e-6, res)


_VERIFY_SUITES = (
    _verify_lambert,
    _verify_cubic,
    _verify_round_trip,
    _verify_jacobi,
    _verify_curl_electric,
    _verify_curl_magnetic,
    _verify_single_null,
    _verify_flux,
    _verify_free_charge,
    _verify_energy,
    _verify_saturation,
    _verify_maxwell_fields,
    _verify_maxwell_currents,
    _verify_newton,
    _verify_radial_curl,
)


def _cmd_verify(cfg: Optional[RunConfig], args) -> int:
    rng = np.random.default_rng(args.effective_seed)
    suites = []
    for fn in _VERIFY_SUITES:
        suite = fn(rng)
        suites.append(suite)
        status = "ok  " if suite["passed"] else "FAIL"
        print(f"{status} {suite['name']:<28} max {suite['max_residual']:.3e} "
              f"tol {suite['tolerance']:.1e} ({suite['n_checks']} checks)")
    all_passed = all(s["passed"] for s in suites)
    payload = _report_head(cfg, args.effective_seed)
    payload.update({
        "command": "verify",
        "all_passed": all_passed,
        "suites": suites,
    })
    path = args.out_dir / "verify.json"
    _write_json(path, payload)
    print(f"wrote {path}")
    print("all suites passed" if all_passed else "some suites FAILED",
          file=sys.stdout if all_passed else sys.stderr)
    return EXIT_OK if all_passed else EXIT_NUMERIC


# -- entry point -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code 2 on usage errors; route them through
    # the config-error path instead so exit codes keep their meaning
    def error(self, message):
        raise ConfigError(message)


_COMMANDS = {
    "sample": _cmd_sample,
    "charge": _cmd_charge,
    "energy": _cmd_energy,
    "current": _cmd_current,
    "continuous": _cmd_continuous,
    "verify": _cmd_verify,
}

_HELP = {
    "sample": "evaluate E, H, j_m and energy density on the probe grid",
    "charge": "free charges and a flux ladder through concentric spheres",
    "energy": "total field energy with near-charge divergence probes",
    "current": "induced currents j_e, j_m on the probe grid",
    "continuous": "fields of a smooth source distribution on the probe grid",
    "verify": "run the built-in numeric verification suites",
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bifield", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON run configuration")
    common.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for outputs (created if missing)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; grids are evaluated "
                             "in one thread")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="override the config output format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, parents=[common], help=_HELP[name])
        if name == "charge":
            cmd.add_argument("--R", type=float, default=None,
                             help="base radius of the flux ladder (R, 2R, 4R, 8R)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = None
        if args.config is not None:
            cfg = load_config(args.config)
        elif args.command != "verify":
            raise ConfigError(f"{args.command} requires --config")
        args.effective_seed = args.seed if args.seed is not None else (
            cfg.seed if cfg is not None else 0
        )
        args.effective_format = args.format if args.format is not None else (
            cfg.out_format if cfg is not None else "csv"
        )
        args.out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FieldError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
