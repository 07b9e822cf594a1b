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

import dataclasses
import hashlib
import json
import math
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import __version__
from .continuous import (
    ContinuousSource,
    bump_source,
    gaussian_source,
    gridded_source,
    jm_rows,
    merge_sources,
    state_rows,
    two_gaussian_source,
)
from .currents import current_method, current_rows, eh_rows
from .errors import ConfigError, FieldError, SingularPoint, merge_failures
from .models import ModelParams
from .observables import (QuadratureSpec, _far_radius, density_rows,
                          free_charge_with_inner_spheres, total_energy)
from .sources import ChargeConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

# grid points per rows_at call; bounds the memory of a grid command
GRID_CHUNK = 4096

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

_MODEL_KEYS = {
    "classical": ("beta", "kappa"),
    "logarithmic": ("beta", "kappa"),
    "exponential": ("beta", "kappa"),
    "fractional_power": ("beta", "p", "kappa"),
    "quadratic": ("alpha", "kappa"),
}
_QUAD_KEYS = tuple(f.name for f in dataclasses.fields(QuadratureSpec))
# radial source shapes: constructor and the keys it takes, with their
# defaults in a config (a list default is a 3-vector)
_SHAPES = {
    "gaussian": (gaussian_source, {"total": 1.0, "sigma": 1.0, "center": [0.0, 0.0, 0.0]}),
    "two_gaussian": (two_gaussian_source, {
        "q1": 1.0, "sigma1": 1.0, "center1": [0.0, 0.0, 0.0],
        "q2": 1.0, "sigma2": 1.0, "center2": [0.0, 0.0, 0.0]}),
    "bump": (bump_source, {"total": 1.0, "radius": 1.0, "center": [0.0, 0.0, 0.0]}),
}
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
    """A finite JSON number (int or float) as a float; a bool, a string or
    any other type is a ConfigError."""
    if isinstance(val, bool) or not isinstance(val, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number, got {val!r}")
    out = float(val)
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {val!r}")
    return out


def _as_int(val, name: str) -> int:
    """An int, or a float with an integral value (JSON 2.0) as an int; a
    bool, a string or a fractional number is a ConfigError."""
    if isinstance(val, bool) or not (isinstance(val, (int, np.integer))
                                     or isinstance(val, float) and val.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {val!r}")
    return int(val)


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
    if isinstance(shape, str) and shape in _SHAPES:
        defaults = _SHAPES[shape][1]
        _reject_unknown(sec, common + tuple(defaults), f"continuous ({shape})")
        norm = {"shape": shape}
        for key, default in defaults.items():
            parse = _as_vec3 if isinstance(default, list) else _as_float
            norm[key] = parse(sec.get(key, default), key)
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
        magnetic = sec.get("magnetic", False)
        if not isinstance(magnetic, bool):
            raise ConfigError(f"continuous.magnetic must be true or false, got {magnetic!r}")
        norm["magnetic"] = magnetic
    return norm


def _source_from_norm(norm: dict, base_dir: Path, magnetic: bool = False) -> ContinuousSource:
    shape = norm["shape"]
    magnetic = norm.get("magnetic", magnetic)
    if shape in _SHAPES:
        make, defaults = _SHAPES[shape]
        return make(**{key: norm[key] for key in defaults}, magnetic=magnetic,
                    gamma=norm["gamma"])
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


def _quad_from_section(sec) -> QuadratureSpec:
    sec = _require_mapping({} if sec is None else sec, "quadrature")
    _reject_unknown(sec, _QUAD_KEYS, "quadrature")
    return QuadratureSpec(**{
        key: (_as_int if key == "max_subdivisions" else _as_float)(sec[key], f"quadrature.{key}")
        for key in _QUAD_KEYS if key in sec})


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
    shape = [_as_int(n, "grid.shape entry") for n in shape]
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

    quad = _quad_from_section(data.get("quadrature"))
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
    norm["quadrature"] = dataclasses.asdict(quad)
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


def grid_points(cfg: RunConfig, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """Rows start to stop (default: all) of the probe grid as an (M, 3)
    array, row-major with z fastest, built from their flat indices."""
    shape = cfg.grid_shape
    idx = np.unravel_index(np.arange(start, math.prod(shape) if stop is None else stop), shape)
    return np.column_stack([np.linspace(cfg.grid_lo[i], cfg.grid_hi[i], shape[i])[idx[i]]
                            for i in range(3)])


def _report_head(cfg: Optional[RunConfig], seed: int) -> dict:
    return {
        "version": __version__,
        "config_sha256": None if cfg is None else config_digest(cfg),
        "seed": seed,
    }


def _write_csv(path: Path, header, blocks, text=()) -> None:
    """Write a table as its float blocks of shape (M, k) are drawn, each row
    ending in the constant text cells; numbers are '%.17g' (the bytes of
    format(float(v), '.17g')), one '%' per block."""
    # '.' decimal separator and '\n' line endings regardless of platform
    line = ",".join(["%.17g"] * (len(header) - len(text)) + list(text))

    def parts():
        yield ",".join(header) + "\n"
        for block in blocks:
            yield ((line + "\n") * len(block)) % tuple(block.ravel().tolist())

    _write_text(path, parts())


def _finite_or_none(v) -> Optional[float]:
    """A float for JSON, or None (null) when it is NaN or infinite."""
    v = float(v)
    return v if math.isfinite(v) else None


def _write_json(path: Path, payload: dict) -> None:
    # a non-finite number fails loudly instead of writing invalid JSON
    _write_text(path, [json.dumps(payload, indent=2, allow_nan=False) + "\n"])


def _write_text(path: Path, parts) -> None:
    """Write the strings of parts as they are drawn, opening the file before
    the first; a write stopped by any exception removes the file."""
    fh = None
    try:
        fh = open(path, "w", newline="")
        with fh:
            for part in parts:
                fh.write(part)
    except BaseException as exc:
        if fh is not None:
            path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise _cannot_write(path, exc) from None
        raise


def _cannot_write(path: Path, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _remove_outputs(out_dir: Path, name: str, files) -> None:
    """Remove the files a command writes and <name>.errors.json before it
    computes, those one listing finds, so that a failed run leaves no
    output of an earlier run and a fresh --out-dir costs no failed unlink."""
    present = set(os.listdir(out_dir))
    for path in (out_dir / f for f in (*files, f"{name}.errors.json") if f in present):
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise _cannot_write(path, exc) from None


def _emit_failures(out_dir: Path, name: str, head: dict, failures: list) -> Path:
    """Write <name>.errors.json; the command removed any earlier one before
    it computed (_remove_outputs)."""
    path = out_dir / f"{name}.errors.json"
    _write_json(path, dict(head, command=name, n_failures=len(failures), failures=failures))
    return path


def _grid_command(cfg: RunConfig, args, name: str, columns, rows_at, text=()) -> int:
    """Evaluate the grid in chunks of GRID_CHUNK points, then write the
    report and the errors file.

    rows_at(pts) returns its points' float cells as an (M, k) array, a
    failure code per point and the exceptions the codes index (see
    errors.fail_rows); text holds the constant text cells that end every
    row. A SingularPoint skips the point; any other failure is recorded with
    its location and type, and the command exits 2 after writing the rows
    that did evaluate. The report counts both, failures by error type. A
    csv table is opened before the first chunk and takes each chunk's rows
    as they are evaluated, so memory stays flat in the grid size (the json
    document holds every row); a run stopped by any exception leaves none,
    and no report or errors file of an earlier run either.
    """
    n_points, counts, failures = math.prod(cfg.grid_shape), Counter(), []
    csv = args.effective_format == "csv"
    report_path = args.out_dir / (f"{name}.report.json" if csv else f"{name}.json")
    _remove_outputs(args.out_dir, name, (report_path.name,))

    def blocks():
        for start in range(0, n_points, GRID_CHUNK):
            pts = grid_points(cfg, start, min(start + GRID_CHUNK, n_points))
            cells, code, errors = rows_at(pts)
            ok = code == 0
            skip = np.array([False] + [isinstance(exc, SingularPoint) for exc in errors])[code]
            bad = ~ok & ~skip
            failures.extend({"at": x, "error": type(errors[k - 1]).__name__,
                             "detail": str(errors[k - 1])}
                            for x, k in zip(pts[bad].tolist(), code[bad].tolist()))
            counts.update(rows=int(ok.sum()), skipped=int(skip.sum()))
            yield cells[ok]

    if csv:
        table = args.out_dir / f"{name}.csv"
        _write_csv(table, columns, blocks(), text)
        print(f"wrote {table}")
        out = {"table": table.name}
    else:
        out = {"rows": [row + list(text) for block in blocks() for row in block.tolist()]}
    head = _report_head(cfg, args.effective_seed)
    by_error = Counter(f["error"] for f in failures)
    _write_json(report_path, dict(
        head, command=name, n_skipped=counts["skipped"], n_failed=len(failures),
        failures_by_error=dict(sorted(by_error.items())), columns=list(columns),
        n_rows=counts["rows"], **out))
    print(f"wrote {report_path}")
    if failures:
        path = _emit_failures(args.out_dir, name, head, failures)
        print(f"{len(failures)} grid point(s) failed, see {path}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# -- subcommands -------------------------------------------------------------


def _cmd_sample(cfg: RunConfig, args) -> int:
    if cfg.charges is None:
        raise ConfigError("sample requires a charges section")
    params, charges = cfg.model, cfg.charges

    def rows_at(pts):
        # a point fails with its first failure: fields, current, density
        d, b, e, h, s, code, errors = eh_rows(params, charges, pts)
        cur = current_rows(params, charges, pts, e)
        merge_failures(code, errors, np.arange(len(pts)), cur.code, cur.errors)
        dens = density_rows(params, d, b, e, s, code, errors)
        return np.column_stack((pts, e, h, cur.j_m, dens)), code, errors

    return _grid_command(cfg, args, "sample", SAMPLE_COLUMNS, rows_at)


def _cmd_current(cfg: RunConfig, args) -> int:
    if cfg.charges is None:
        raise ConfigError("current requires a charges section")
    params, charges = cfg.model, cfg.charges

    def rows_at(pts):
        cur = current_rows(params, charges, pts)
        return np.column_stack((pts, cur.j_e, cur.j_m)), cur.code, cur.errors

    return _grid_command(cfg, args, "current", CURRENT_COLUMNS, rows_at,
                         (current_method(params, charges),))


def _cmd_continuous(cfg: RunConfig, args) -> int:
    if cfg.source is None:
        raise ConfigError("continuous requires a continuous section")
    params, src, quad = cfg.model, cfg.source, cfg.quadrature

    def rows_at(pts):
        # a point fails with its first failure: fields, current, density
        d, b, e, h, s, hess, code, errors = state_rows(src, params, pts, quad)
        j_m = jm_rows(src, params, pts, quad, d, e, hess, code, errors)
        dens = density_rows(params, d, b, e, s, code, errors)
        return np.column_stack((pts, e, h, j_m, dens)), code, errors

    return _grid_command(cfg, args, "continuous", SAMPLE_COLUMNS, rows_at)


def _cmd_charge(cfg: RunConfig, args) -> int:
    if cfg.charges is None:
        raise ConfigError("charge requires a charges section")
    params, charges, quad = cfg.model, cfg.charges, cfg.quadrature
    if args.R is not None and not (args.R > 0.0 and math.isfinite(args.R)):
        raise ConfigError(f"--R must be a positive radius, got {args.R!r}")
    base = _far_radius(charges) if args.R is None else args.R
    radii = [base * 2.0**k for k in range(4)]
    csv = args.effective_format == "csv"
    outputs = ("charge.report.json", "flux_ladder.csv") if csv else ("charge.json",)
    _remove_outputs(args.out_dir, "charge", outputs)

    head = _report_head(cfg, args.effective_seed)
    try:
        free = free_charge_with_inner_spheres(charges, params, quad, radii)
    except FieldError as exc:
        path = _emit_failures(args.out_dir, "charge", head,
                              [{"error": type(exc).__name__, "detail": str(exc)}])
        print(f"charge computation failed, see {path}", file=sys.stderr)
        return EXIT_NUMERIC
    ladder = [{"radius": float(r), "e_flux": e, "h_flux": h}
              for r, (e, h) in zip(radii, free["ladder"])]

    payload = dict(head)
    payload.update({
        "command": "charge",
        "q_free": free["q_free"],
        "g_free": free["g_free"],
        "flux_ladder": ladder,
    })
    if csv:
        table = args.out_dir / "flux_ladder.csv"
        _write_csv(table, ("radius", "e_flux", "h_flux"),
                   [np.array([[e["radius"], e["e_flux"], e["h_flux"]] for e in ladder])])
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
    _remove_outputs(args.out_dir, "energy", ("energy.json",))
    head = _report_head(cfg, args.effective_seed)
    try:
        report = total_energy(cfg.charges, cfg.model, cfg.quadrature)
    except FieldError as exc:
        path = _emit_failures(args.out_dir, "energy", head,
                              [{"error": type(exc).__name__, "detail": str(exc)}])
        print(f"energy integration failed, see {path}", file=sys.stderr)
        return EXIT_NUMERIC
    payload = dict(head)
    payload.update({
        "command": "energy",
        "value": report.value,
        "converged": report.converged,
        "near_charge_exponents": [_finite_or_none(e) for e in report.near_charge_exponents],
        "parts": report.parts,
    })
    path = args.out_dir / "energy.json"
    _write_json(path, payload)
    print(f"wrote {path}")
    print(f"energy = {report.value:.10g} (converged: {report.converged})")
    return EXIT_OK


def _cmd_verify(cfg: Optional[RunConfig], args) -> int:
    from .verify import run_suites  # the suites load only when verify runs

    suites = run_suites(np.random.default_rng(args.effective_seed))
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


def _output_format(value: str) -> str:
    if value not in ("csv", "json"):
        raise ValueError("expected csv or json")
    return value


# the flags of a command: converter, default and help; the namespace field
# is the flag without its dashes, '-' read as '_'. --R is charge's alone.
_OPTIONS = {
    "--config": (Path, None, "JSON run configuration"),
    "--out-dir": (Path, Path("."), "directory for outputs (created if missing)"),
    "--seed": (int, None, "override the config seed"),
    "--threads": (int, 1, "ignored; bifield starts no threads, but numpy's OpenBLAS "
                          "does: set OPENBLAS_NUM_THREADS"),
    "--format": (_output_format, None, "override the config output format: csv or json"),
    "--R": (float, None, "base radius of the flux ladder (R, 2R, 4R, 8R)"),
}
_HELP_FLAGS = ("-h", "--help")
_TOP_FLAGS = _HELP_FLAGS + ("--version",)
# a dash token that names no flag is still a value when it reads as a
# negative number or holds a space
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _field(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _command_flags(command: str) -> tuple:
    return _HELP_FLAGS + tuple(f for f in _OPTIONS if f != "--R" or command == "charge")


def _read_flag(token: str, flags) -> Optional[tuple]:
    """(flag, value) when token is a flag, None when it is a value. flag is
    the one of flags that token names whole or by a unique prefix, "" when
    it names none; value is the text after its '=', or None."""
    if not token.startswith("-") or token == "-":
        return None
    name, eq, value = token.partition("=")
    value = value if eq else None
    if name in flags:
        return name, value
    if token.startswith("--") and len(name) > 2:
        hits = [f for f in flags if f.startswith(name)]
        if len(hits) > 1:
            raise ConfigError(f"ambiguous flag {name}: {', '.join(hits)}")
        if hits:
            return hits[0], value
    if _NEGATIVE.fullmatch(token) or " " in token:
        return None
    return "", None


def _usage(command: Optional[str]) -> str:
    """The help text of the command line, or of one command."""
    rows = [("-h, --help", "show this help and exit")]
    if command is None:
        usage, about = "bifield [-h] [--version] COMMAND [FLAGS]", __doc__.splitlines()[0]
        rows = [*_HELP.items(), *rows, ("--version", "show the version and exit")]
        tail = ["", "`bifield COMMAND -h` lists the flags of a command."]
    else:
        flags = [f"{f} {_field(f).upper()}" for f in _command_flags(command)[len(_HELP_FLAGS):]]
        usage = f"bifield {command} [-h] " + " ".join(f"[{f}]" for f in flags)
        about, tail = _HELP[command], []
        rows += [(f, _OPTIONS[f.split()[0]][2]) for f in flags]
    return "\n".join([f"usage: {usage}", "", about, ""] + [f"  {a:<20}{b}" for a, b in rows] + tail)


def parse_args(argv) -> SimpleNamespace | str:
    """The namespace of a command line (command, config, out_dir, seed,
    threads, format, R), or the help or version text to print instead.

    argv[0] is a command, or -h/--help, or --version; the command's flags
    follow it. A flag is given whole or by a unique prefix, with its value
    as the next token or after '='; a repeated flag keeps its last value.
    Help and version and a bad value act where they stand, tokens that are
    no flag of the command fail at the end. Every rejection is a
    ConfigError.
    """
    args = SimpleNamespace(command=None, **{_field(f): spec[1] for f, spec in _OPTIONS.items()})
    flags, stray = _TOP_FLAGS, []
    tokens = iter(argv)
    for token in tokens:
        flag, value = _read_flag(token, flags) or (None, None)
        if flag is None and args.command is None:
            if token not in _COMMANDS:
                raise ConfigError(f"unknown command {token!r}, expected one of {', '.join(_COMMANDS)}")
            args.command, flags = token, _command_flags(token)
        elif not flag:
            stray.append(token)
        elif flag in _TOP_FLAGS:
            if value is not None:
                raise ConfigError(f"{flag} takes no value")
            return f"bifield {__version__}" if flag == "--version" else _usage(args.command)
        else:
            if value is None:
                value = next(tokens, None)
                if value is None or _read_flag(value, flags) is not None:
                    raise ConfigError(f"{flag} needs a value")
            try:
                setattr(args, _field(flag), _OPTIONS[flag][0](value))
            except ValueError as exc:
                raise ConfigError(f"{flag} {value!r}: {exc}") from None
    if args.command is None:
        raise ConfigError(f"no command given, expected one of {', '.join(_COMMANDS)}")
    if stray:
        raise ConfigError(f"unrecognized arguments: {' '.join(stray)}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            print(args)
            return EXIT_OK
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
        try:
            args.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out-dir {args.out_dir}: {exc.strerror or exc}") from None
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FieldError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
