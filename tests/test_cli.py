"""End-to-end checks of the command line.

Covers config parsing and the serialize/parse round trip, the field table
layout, exit code semantics (0 success, 1 config error, 2 numeric failure),
determinism across reruns and thread counts, and the verify command.
"""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bifield
from bifield import (
    ModelParams,
    ChargeConfig,
    StateRows,
    currents,
    flux_charge,
)
from bifield import cli, continuous, observables, verify
from bifield.constitutive import invert_rows
from bifield.observables import _far_radius, density_rows, hamiltonian_on_points
from bifield.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    config_digest,
    grid_points,
    load_config,
    main,
    parse_config,
    serialize_config,
)
from bifield.errors import ConfigError, DomainViolation, SingularPoint

from argparse_cli import build_parser
from continuous_pointwise import State, continuous_pointwise
from triple_sums import coulomb_rows

SAMPLE_HEADER = "x,y,z,Ex,Ey,Ez,Hx,Hy,Hz,jm_x,jm_y,jm_z,energy_density"
CURRENT_HEADER = "x,y,z,je_x,je_y,je_z,jm_x,jm_y,jm_z"


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def read_report(path: Path) -> dict:
    """A JSON report, parsed strictly: NaN or Infinity fails the test."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def pair_config(shape=(5, 5, 5)):
    return {
        "model": {"kind": "classical", "beta": 1.0, "kappa": 0.0},
        "charges": [
            {"pos": [1.0, 0.0, 0.0], "q": 1.0},
            {"pos": [-1.0, 0.0, 0.0], "q": 2.0},
        ],
        "grid": {"lo": [-2, -2, -2], "hi": [2, 2, 2], "shape": list(shape)},
        "seed": 7,
    }


def failing_config():
    # quadratic model with |B| = 1.025 > 1/sqrt(alpha) at the single probe
    # point: the cubic's root there has f' = 1 + 2 alpha s < 0, and the
    # inversion fails its direction check
    return {
        "model": {"kind": "quadratic", "alpha": 1.0},
        "charges": [{"pos": [0.0, 0.0, 0.0], "q": 1e-5, "g": 4.1 * math.pi}],
        "grid": {"lo": [1.0, 0.0, 0.0], "hi": [1.0, 0.0, 0.0], "shape": [1, 1, 1]},
    }


def fd_dyon_config(shape=(5, 5, 5)):
    # quadratic-model dyons 0.07 off two grid nodes, where |B|^2 > 1/alpha:
    # there the cubic's smallest positive root has f' = 1 + 2 alpha s < 0
    # and the inversions fail their direction check; a third centre sits on
    # a node, which is skipped
    return {
        "model": {"kind": "quadratic", "alpha": 1.0, "kappa": 0.5},
        "charges": [
            {"pos": [1.07, 0.03, -0.02], "q": 1.0, "g": 0.4},
            {"pos": [-0.95, 0.04, 0.02], "q": -2.0, "g": 1.0},
            {"pos": [0.0, 2.0, 0.0], "q": 0.5, "g": 0.2},
        ],
        "grid": {"lo": [-2, -2, -2], "hi": [2, 2, 2], "shape": list(shape)},
    }


def write_lattice(tmp_path, n=9, lo=-2.0, sp=0.5):
    """A unit Gaussian sampled on an n^3 lattice, as rho.dat and its sidecar."""
    ax = lo + sp * np.arange(n)
    pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
    bifield.gaussian_source().rho_e(pts).astype("<f8").tofile(tmp_path / "rho.dat")
    (tmp_path / "rho.dat.json").write_text(json.dumps(
        {"dims": [n] * 3, "spacing": [sp] * 3, "origin": [lo] * 3}))


def gridded_config(rel_tol=0.05, lo=(0.5, -0.3, 0.1), hi=(1.5, 0.2, 0.1), shape=(2, 1, 1)):
    # the lattice of write_lattice; a loose rel_tol keeps the quadrature cheap
    return {"model": {"kind": "classical"},
            "continuous": {"shape": "gridded", "lattice": "rho.dat"},
            "quadrature": {"rel_tol": rel_tol, "max_subdivisions": 1},
            "grid": {"lo": list(lo), "hi": list(hi), "shape": list(shape)}}


def dyonic_source_config(shape=(3, 3, 2)):
    return {
        "model": {"kind": "logarithmic", "beta": 0.8, "kappa": 0.5},
        "continuous": {
            "shape": "dyonic",
            "electric": {"shape": "gaussian", "total": 2.0, "sigma": 0.7,
                         "center": [0.3, 0.0, 0.0]},
            "magnetic": {"shape": "gaussian", "total": 1.5, "sigma": 0.9,
                         "center": [-0.2, 0.1, 0.0]},
        },
        "grid": {"lo": [-0.5, -0.5, -0.2], "hi": [0.5, 0.5, 0.2], "shape": list(shape)},
    }


def continuous_config(shape, model=None, grid=((-2, -0.5, -0.5), (2, 0.5, 0.5), (3, 2, 2)),
                      **section):
    return {"model": model or {"kind": "classical", "beta": 1.0},
            "continuous": dict(shape=shape, **section),
            "grid": {"lo": list(grid[0]), "hi": list(grid[1]), "shape": list(grid[2])}}


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestConfigParsing:
    def test_round_trip_identity(self):
        cfg = parse_config(pair_config())
        again = parse_config(json.loads(serialize_config(cfg)))
        assert again.data == cfg.data
        assert config_digest(again) == config_digest(cfg)

    def test_defaults_filled(self):
        data = {
            "model": {"kind": "classical"},
            "charges": [{"pos": [1.0, 0.0, 0.0], "q": 1.0},
                        {"pos": [-1.0, 0.0, 0.0], "q": 2.0}],
        }
        cfg = parse_config(data)
        assert cfg.data["model"] == {"kind": "classical", "beta": 1.0, "kappa": 0.0}
        assert cfg.data["charges"][0]["g"] == 0.0
        assert cfg.data["output"] == {"format": "csv"}
        assert cfg.data["seed"] == 0
        assert cfg.data["grid"]["shape"] == [9, 9, 9]
        assert cfg.data["quadrature"] == {"rel_tol": 1e-6, "abs_tol": 1e-6, "max_subdivisions": 8}
        # the quadrature geometry comes from the charge layout: min separation 2
        assert cfg.charges.cell_scale == pytest.approx(0.9)
        assert cfg.charges.exclusion_radius == pytest.approx(9e-9)

    def test_quadrature_overrides_keep_geometry(self, tmp_path):
        # the geometry is the charge configuration's: a config that still
        # sets one of the former quadrature radii is an unknown-key error
        data = pair_config()
        data["quadrature"] = {"rel_tol": 1e-4}
        assert parse_config(data).quadrature.rel_tol == 1e-4
        for key in ("ball_radius", "far_radius", "exclusion", "flux_radii"):
            data["quadrature"] = {"rel_tol": 1e-4, key: [50.0] if key == "flux_radii" else 0.5}
            with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
                parse_config(data)
            path = write_config(tmp_path, data)
            assert main(["energy", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    def test_round_trip_with_all_sections(self, tmp_path):
        data = pair_config()
        data["continuous"] = {"shape": "gaussian", "total": 2.0, "sigma": 0.5}
        data["quadrature"] = {"rel_tol": 1e-4}
        data["output"] = {"format": "json"}
        path = write_config(tmp_path, data)
        cfg = load_config(path)
        again = parse_config(json.loads(serialize_config(cfg)))
        assert again.data == cfg.data

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(extra=1),
        lambda d: d["model"].update(kind="cubic"),
        lambda d: d["model"].update(alpha=2.0),  # not a classical parameter
        lambda d: d["model"].update(beta=-1.0),
        lambda d: d.pop("model"),
        lambda d: d.update(charges=[]),
        lambda d: d.update(charges=[{"q": 1.0}]),  # missing pos
        lambda d: d.update(charges=[{"pos": [0, 0, 0], "q": 1},
                                    {"pos": [0, 0, 0], "q": 2}]),
        lambda d: d.update(seed="zero"),
        lambda d: d.update(seed=True),
        lambda d: d.update(output={"format": "xml"}),
        lambda d: d.update(grid={"lo": [1, 0, 0], "hi": [0, 1, 1]}),
        lambda d: d.update(grid={"shape": [0, 3, 3]}),
        lambda d: d.update(quadrature={"rel_tol": -1.0}),
        lambda d: d.update(quadrature={"cutoff": 1.0}),
        lambda d: d.update(grid={"shape": [2.5, 2, 2]}),
        lambda d: d.update(grid={"shape": [True, 2, 2]}),
        lambda d: d.update(grid={"shape": ["3", 2, 2]}),
        lambda d: d.update(quadrature={"max_subdivisions": 2.5}),
        lambda d: d.update(quadrature={"max_subdivisions": True}),
        lambda d: d.update(continuous={"shape": "gaussian", "magnetic": "false"}),
        lambda d: d.update(quadrature={"flux_radii": [-20.0]}),
        lambda d: d.update(quadrature={"flux_radii": [0.0]}),
        lambda d: d["model"].update(beta="2", kappa=True),
        lambda d: d.update(charges=[{"pos": ["1", 0, False], "q": True}]),
        lambda d: d["model"].update(beta="2"),
        lambda d: d.update(charges=[{"pos": [1, 0, 0], "q": True}]),
    ])
    def test_invalid_configs_rejected(self, mutate):
        data = pair_config()
        mutate(data)
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_integral_floats_read_as_integers(self):
        cfg = parse_config(pair_config(shape=(2.0, 3, 3)))
        assert cfg.grid_shape == (2, 3, 3)
        assert config_digest(cfg) == config_digest(parse_config(pair_config(shape=(2, 3, 3))))

    def test_charges_or_continuous_required(self):
        with pytest.raises(ConfigError):
            parse_config({"model": {"kind": "classical"}})

    def test_source_defaults_filled(self):
        data = {
            "model": {"kind": "classical"},
            "continuous": {"shape": "gaussian", "total": 2.0},
        }
        cfg = parse_config(data)
        sec = cfg.data["continuous"]
        assert sec == {
            "shape": "gaussian", "total": 2.0, "sigma": 1.0,
            "center": [0.0, 0.0, 0.0], "gamma": 6.0, "magnetic": False,
        }
        assert cfg.source.rho_e is not None
        assert cfg.source.rho_m is None

    def test_dyonic_source_section(self):
        data = {
            "model": {"kind": "logarithmic", "beta": 0.8, "kappa": 0.5},
            "continuous": {
                "shape": "dyonic",
                "electric": {"shape": "gaussian", "total": 2.0},
                "magnetic": {"shape": "gaussian", "total": 1.5, "sigma": 0.9},
            },
        }
        cfg = parse_config(data)
        assert cfg.source.rho_e is not None and cfg.source.rho_m is not None
        assert cfg.source.total_q == pytest.approx(2.0)
        assert cfg.source.total_g == pytest.approx(1.5)
        # the halves carry no magnetic flag of their own
        assert "magnetic" not in cfg.data["continuous"]["electric"]
        again = parse_config(json.loads(serialize_config(cfg)))
        assert again.data == cfg.data

    @pytest.mark.parametrize("section", [
        {"shape": "blob"},
        {"shape": "gaussian", "sigma": -1.0},
        {"shape": "gridded"},  # missing lattice
        {"shape": "dyonic", "electric": {"shape": "gaussian"}},
        {"shape": "dyonic",
         "electric": {"shape": "gaussian", "magnetic": True},
         "magnetic": {"shape": "gaussian"}},
        {"shape": "dyonic",
         "electric": {"shape": "dyonic"},
         "magnetic": {"shape": "gaussian"}},
    ])
    def test_bad_source_sections(self, section):
        data = {"model": {"kind": "classical"}, "continuous": section}
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_gridded_source_resolves_relative_paths(self, tmp_path):
        n, lo, sp = 21, -3.0, 0.3
        ax = lo + sp * np.arange(n)
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        vals = np.exp(-(X**2 + Y**2 + Z**2) / 2.0) / (2.0 * np.pi) ** 1.5
        vals.astype("<f8").tofile(tmp_path / "rho.bin")
        (tmp_path / "rho.bin.json").write_text(json.dumps({
            "dims": [n, n, n], "spacing": [sp, sp, sp],
            "origin": [lo, lo, lo], "format": "binary",
        }))
        data = {
            "model": {"kind": "classical"},
            "continuous": {"shape": "gridded", "lattice": "rho.bin"},
        }
        cfg = load_config(write_config(tmp_path, data))
        assert cfg.source.total_q == pytest.approx(1.0, rel=0.05)
        assert cfg.source.rho_m is None

    def test_grid_points_z_fastest(self):
        data = pair_config(shape=(2, 2, 3))
        data["grid"]["lo"] = [0, 0, 0]
        data["grid"]["hi"] = [1, 1, 2]
        pts = grid_points(parse_config(data))
        assert pts.shape == (12, 3)
        assert np.allclose(pts[0], [0, 0, 0])
        assert np.allclose(pts[1], [0, 0, 1])  # z advances first
        assert np.allclose(pts[3], [0, 1, 0])
        assert np.allclose(pts[-1], [1, 1, 2])


class TestSampleCommand:
    def test_csv_layout_and_values(self, tmp_path):
        path = write_config(tmp_path, pair_config())
        rc = main(["sample", "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        raw = (tmp_path / "sample.csv").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == SAMPLE_HEADER
        # 5^3 grid, two points land exactly on charges and are skipped
        assert len(lines) == 1 + 123
        report = read_report(tmp_path / "sample.report.json")
        assert report["n_rows"] == 123
        assert report["n_skipped"] == 2
        assert report["seed"] == 7
        assert report["version"]
        assert report["config_sha256"] == config_digest(load_config(path))

        # spot-check the origin row against the library
        params = ModelParams.classical(beta=1.0)
        charges = ChargeConfig.build([
            ((1.0, 0.0, 0.0), 1.0, 0.0), ((-1.0, 0.0, 0.0), 2.0, 0.0),
        ])
        row = next(l for l in lines[1:] if l.startswith("0,0,0,"))
        cells = [float(v) for v in row.split(",")]
        d = coulomb_rows(charges, charges.qs, np.zeros((1, 3)))[0]
        assert np.allclose(cells[3:6], d / math.sqrt(1.0 + float(d @ d)), atol=1e-15)
        assert cells[12] == pytest.approx(
            hamiltonian_on_points(params, charges, np.zeros(3))[0], rel=1e-12)

    def test_json_format(self, tmp_path):
        path = write_config(tmp_path, pair_config(shape=(3, 3, 3)))
        rc = main(["sample", "--config", str(path), "--out-dir", str(tmp_path),
                   "--format", "json"])
        assert rc == EXIT_OK
        report = read_report(tmp_path / "sample.json")
        assert report["columns"] == SAMPLE_HEADER.split(",")
        assert report["n_rows"] == len(report["rows"])
        assert all(len(row) == 13 for row in report["rows"])

    def test_deterministic_across_runs_and_threads(self, tmp_path):
        path = write_config(tmp_path, pair_config())
        for d, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            rc = main(["sample", "--config", str(path),
                       "--out-dir", str(tmp_path / d), "--threads", threads])
            assert rc == EXIT_OK
        first = (tmp_path / "a" / "sample.csv").read_bytes()
        assert (tmp_path / "b" / "sample.csv").read_bytes() == first
        assert (tmp_path / "c" / "sample.csv").read_bytes() == first

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, pair_config(shape=(2, 2, 2)))
        rc = main(["sample", "--config", str(path), "--out-dir", str(tmp_path),
                   "--seed", "99"])
        assert rc == EXIT_OK
        report = read_report(tmp_path / "sample.report.json")
        assert report["seed"] == 99

    @pytest.mark.parametrize("command", ["sample", "current"])
    def test_numeric_failure_aggregates_locations(self, tmp_path, command):
        path = write_config(tmp_path, failing_config())
        rc = main([command, "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        errors = read_report(tmp_path / f"{command}.errors.json")
        assert errors["n_failures"] == 1
        assert errors["failures"][0]["at"] == [1.0, 0.0, 0.0]
        assert errors["failures"][0]["error"] in ("InversionFailure", "DomainViolation")

    def test_clean_rerun_removes_stale_errors_file(self, tmp_path):
        out = tmp_path / "out"
        failing = write_config(tmp_path, failing_config(), name="fail.json")
        clean = write_config(tmp_path, pair_config(shape=(2, 2, 2)), name="clean.json")
        assert main(["sample", "--config", str(failing), "--out-dir", str(out)]) == EXIT_NUMERIC
        assert (out / "sample.errors.json").exists()
        assert main(["sample", "--config", str(clean), "--out-dir", str(out)]) == EXIT_OK
        assert not (out / "sample.errors.json").exists()
        report = read_report(out / "sample.report.json")
        assert report["config_sha256"] == config_digest(load_config(clean))

    def test_energy_and_charge_report_a_failure_alike(self, tmp_path):
        # both commands meet the same inversion failure, each at its own
        # first failing point, and write that row's own exception: the same
        # type and message, the number quoted after " = " aside
        path = write_config(tmp_path, failing_config())
        got = []
        for command in ("energy", "charge"):
            assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_NUMERIC
            (failure,) = read_report(tmp_path / f"{command}.errors.json")["failures"]
            message, _, number = failure["detail"].rpartition(" = ")
            assert float(number) < 0.0, command
            got.append((failure["error"], message))
        assert got == [("InversionFailure",
                        "direction match violated: E.(D - k^2 (B.D) B/(1+k^2 B^2))")] * 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_energy_and_charge_leave_no_earlier_outputs(self, tmp_path, fmt):
        # a failed rerun leaves its errors file and nothing of the run before
        # it that a reader could take for its result
        out = tmp_path / "out"
        unit = write_config(tmp_path, {"model": {"kind": "classical"},
                                       "charges": [{"pos": [0.0, 0.0, 0.0], "q": 1.0}]},
                            name="unit.json")
        failing = write_config(tmp_path, failing_config(), name="fail.json")
        for command in ("energy", "charge"):
            argv = [command, "--out-dir", str(out), "--format", fmt, "--config"]
            assert main(argv + [str(unit)]) == EXIT_OK
            assert main(argv + [str(failing)]) == EXIT_NUMERIC
            assert sorted(p.name for p in out.iterdir()) == [f"{command}.errors.json"]
            (out / f"{command}.errors.json").unlink()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["sample", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        assert main(["sample"]) == EXIT_CONFIG

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["sample", "--config", str(path)]) == EXIT_CONFIG

    def test_continuous_only_config_rejected(self, tmp_path):
        data = {"model": {"kind": "classical"},
                "continuous": {"shape": "gaussian"}}
        path = write_config(tmp_path, data)
        assert main(["sample", "--config", str(path)]) == EXIT_CONFIG

    def test_out_dir_naming_a_file_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, pair_config(shape=(2, 2, 2)))
        afile = tmp_path / "afile"
        afile.write_text("")
        for out_dir in (afile, afile / "sub"):
            rc = main(["sample", "--config", str(path), "--out-dir", str(out_dir)])
            assert rc == EXIT_CONFIG
            assert f"config error: cannot create --out-dir {out_dir}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["sample.csv", "sample.report.json", "sample.errors.json"])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, name):
        # an output path that is a directory can be neither written nor removed
        path = write_config(tmp_path, pair_config(shape=(2, 2, 2)))
        out = tmp_path / "od"
        (out / name).mkdir(parents=True)
        rc = main(["sample", "--config", str(path), "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / name}: ")
        assert err.count("\n") == 1


# every form of the grammar, accepted and rejected; paths are never opened
ARGV_CORPUS = [
    [], ["bogus"], ["-3"], ["--config", "c", "sample"], ["--bogus", "sample"],
    ["--version"], ["--vers"], ["--version=1"], ["-h"], ["--help"], ["--he"], ["-h=1"],
    ["-h", "bogus"], ["bogus", "-h"], ["--bogus", "-h"],
    ["sample", "-h"], ["charge", "--help"], ["energy", "--h"], ["sample", "--help=x"],
    ["sample", "-h", "--seed", "x"], ["sample", "--seed", "x", "-h"],
    ["sample", "--bogus", "-h"], ["sample", "--version"],
    ["sample"], ["verify"], ["sample", "--config", "c.json"],
    ["sample", "--config=c.json", "--out-dir=o"], ["current", "--conf", "c.json", "--out", "o"],
    ["current", "--conf=c.json", "--o=o"], ["continuous", "--out-dir", "a b"],
    ["sample", "--config", "-"], ["sample", "--config", "-3"], ["sample", "--config", "-x y"],
    ["sample", "--config", "-x"], ["sample", "--config="], ["sample", "--config", "a=b"],
    ["sample", "--config=a=b"], ["sample", "--config"], ["sample", "--config", "--seed", "3"],
    ["energy", "--seed", "3", "--seed", "4"], ["energy", "--seed", "-3"], ["energy", "--seed=-3"],
    ["energy", "--seed", " 7 "], ["energy", "--seed", "x"], ["energy", "--seed", "1.5"],
    ["energy", "--seed", "-0.5"], ["energy", "--seed"], ["energy", "--seed="],
    ["sample", "--threads", "4", "--format", "json"], ["sample", "--t", "2", "--f", "csv"],
    ["sample", "--threads", "-2"], ["sample", "--format", "xml"], ["sample", "--format", "JSON"],
    ["sample", "--format="], ["sample", "--format", "json", "--format", "csv"],
    ["charge", "--R", "50"], ["charge", "--R=2.5e1"], ["charge", "--R", "-1.5"],
    ["charge", "--R", "-.5"], ["charge", "--R", "-1e3"], ["charge", "--R", "x"],
    ["charge", "--R", "inf"], ["charge", "--R", "1", "--R", "2"], ["charge", "--R"],
    ["sample", "--R", "5"], ["verify", "--R=5"], ["energy", "--r", "5"],
    ["sample", "stray"], ["sample", "--config", "c", "extra"], ["sample", "sample"],
    ["sample", "--bogus"], ["sample", "-x"], ["sample", "-c", "c"], ["sample", "--=x"],
    ["sample", "--"], ["sample", "--config", "c", "--"],
]
ARGS_FIELDS = ("command", "config", "out_dir", "seed", "threads", "format", "R")


def _parse_outcome(argv):
    """parse_args's outcome: the fields, "rejected", or the text it prints."""
    try:
        args = cli.parse_args(argv)
    except ConfigError:
        return "rejected"
    if isinstance(args, str):
        return args + "\n" if args.startswith("bifield ") else "help"
    return tuple(getattr(args, f) for f in ARGS_FIELDS)


def _oracle_outcome(argv, capsys):
    """The same outcome from the argparse parser parse_args replaced."""
    try:
        args = build_parser().parse_args(argv)
    except ConfigError:
        return "rejected"
    except SystemExit as exc:
        assert exc.code == 0
        out = capsys.readouterr().out
        return out if out.startswith("bifield ") else "help"
    return tuple(getattr(args, f, None) for f in ARGS_FIELDS)


class TestCommandLine:
    @pytest.mark.parametrize("argv", ARGV_CORPUS, ids=" ".join)
    def test_matches_argparse(self, argv, capsys):
        assert _parse_outcome(argv) == _oracle_outcome(argv, capsys)

    def test_defaults(self):
        args = cli.parse_args(["sample"])
        assert tuple(getattr(args, f) for f in ARGS_FIELDS) == (
            "sample", None, Path("."), None, 1, None, None)

    def test_ambiguous_prefix_rejected(self):
        assert cli._read_flag("--seed", ("--seed", "--seeds")) == ("--seed", None)
        with pytest.raises(ConfigError, match="ambiguous flag --se"):
            cli._read_flag("--se=1", ("--seed", "--seeds"))

    def test_help_and_version_return(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert capsys.readouterr().out == f"bifield {bifield.__version__}\n"
        assert main(["-h"]) == EXIT_OK
        top = capsys.readouterr().out
        assert all(name in top for name in cli._HELP)
        for name in cli._HELP:
            assert main([name, "-h"]) == EXIT_OK
            text = capsys.readouterr().out
            assert text.startswith(f"usage: bifield {name} ")
            for flag in ("-h", "--help", "--config", "--out-dir", "--seed", "--threads",
                         "--format"):
                assert flag in text
            assert ("--R" in text) == (name == "charge")


class TestGridChunks:
    """_grid_command evaluates the grid in chunks of cli.GRID_CHUNK points."""

    @pytest.mark.parametrize("command, data", [
        ("sample", fd_dyon_config()),
        ("current", fd_dyon_config()),
        ("sample", pair_config()),
        ("current", pair_config()),
        ("continuous", continuous_config("bump", total=2.0, radius=1.0)),
        ("continuous", dyonic_source_config()),
        ("continuous", gridded_config()),
    ], ids=["sample-fd", "current-fd", "sample-analytic", "current-analytic", "continuous",
            "continuous-dyonic", "continuous-gridded"])
    def test_chunk_size_leaves_outputs_unchanged(self, tmp_path, monkeypatch, command, data):
        write_lattice(tmp_path)
        path = write_config(tmp_path, data)
        default = cli.GRID_CHUNK
        runs = {}
        for chunk in (default, 7, 1):
            monkeypatch.setattr(cli, "GRID_CHUNK", chunk)
            for fmt in ("csv", "json"):
                out = tmp_path / f"{chunk}-{fmt}"
                main([command, "--config", str(path), "--out-dir", str(out), "--format", fmt])
            runs[chunk] = {f"{p.parent.name.split('-')[1]}/{p.name}": p.read_bytes()
                           for p in tmp_path.glob(f"{chunk}-*/*")}
        assert runs[1] == runs[7] == runs[default]
        assert f"csv/{command}.csv" in runs[1]
        if data["model"]["kind"] == "quadratic":
            assert f"csv/{command}.errors.json" in runs[1]

    def test_electric_sample_inverts_once(self, tmp_path, monkeypatch):
        # eh_rows inverts every point of a logarithmic pair once, and the
        # magnetic current reuses its E instead of inverting D again at the
        # 727 regular points
        data = pair_config(shape=(9, 9, 9))
        data["model"] = {"kind": "logarithmic", "beta": 1.0}
        calls = []
        invert_rows = currents.invert_rows

        def counting_rows(params, d, b):
            calls.append(len(d))
            return invert_rows(params, d, b)

        monkeypatch.setattr(currents, "invert_rows", counting_rows)
        path = write_config(tmp_path, data)
        assert main(["sample", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_OK
        assert calls == [729]
        assert read_report(tmp_path / "sample.report.json")["n_rows"] == 727

    def test_dyon_current_makes_one_rows_call_per_chunk(self, tmp_path, monkeypatch):
        # kappa > 0: the regular points of a chunk invert in one call, the
        # point on a centre is skipped before it
        path = write_config(tmp_path, fd_dyon_config(shape=(9, 9, 9)))
        calls = []
        invert_rows = currents.invert_rows

        def counting_rows(params, d, b):
            calls.append(len(d))
            return invert_rows(params, d, b)

        monkeypatch.setattr(currents, "invert_rows", counting_rows)
        assert main(["current", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_NUMERIC
        report = read_report(tmp_path / "current.report.json")
        assert calls == [report["n_rows"] + report["n_failed"]] == [729 - report["n_skipped"]]
        calls.clear()
        monkeypatch.setattr(cli, "GRID_CHUNK", 100)
        assert main(["current", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_NUMERIC
        assert len(calls) == 8  # ceil(729 / 100)

    def test_report_counts_failures_by_error(self, tmp_path):
        path = write_config(tmp_path, fd_dyon_config())
        for command in ("sample", "current"):
            assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_NUMERIC
            report = read_report(tmp_path / f"{command}.report.json")
            errors = read_report(tmp_path / f"{command}.errors.json")
            assert (report["n_rows"], report["n_skipped"], report["n_failed"]) == (122, 1, 2)
            assert report["failures_by_error"] == {"InversionFailure": 2}
            assert errors["n_failures"] == 2
        path = write_config(tmp_path, pair_config(shape=(2, 2, 2)), name="clean.json")
        assert main(["sample", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_OK
        report = read_report(tmp_path / "sample.report.json")
        assert (report["n_failed"], report["failures_by_error"]) == (0, {})


class TestTableStream:
    """A csv table is opened before the first chunk and written chunk by chunk."""

    def test_csv_peak_memory_is_flat_in_the_grid_size(self, tmp_path, monkeypatch):
        # a grid of 4913 points peaks where one of 512 does, at one chunk's
        # memory; the first run fills the caches a command keeps
        monkeypatch.setattr(cli, "GRID_CHUNK", 256)
        peaks = []
        for n in (8, 8, 17):
            path = write_config(tmp_path, pair_config(shape=(n, n, n)), name=f"{n}.json")
            tracemalloc.start()
            try:
                assert main(["sample", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] <= 1.25 * peaks[1]

    @pytest.mark.parametrize("stop", [KeyboardInterrupt, RuntimeError])
    def test_interrupted_run_leaves_no_table(self, tmp_path, monkeypatch, stop):
        monkeypatch.setattr(cli, "GRID_CHUNK", 16)
        calls = []

        def second_chunk_stops(*args):
            calls.append(len(args[2]))
            if len(calls) == 2:
                raise stop("stopped")
            return currents.eh_rows(*args)

        monkeypatch.setattr(cli, "eh_rows", second_chunk_stops)
        path = write_config(tmp_path, pair_config())
        with pytest.raises(stop):
            main(["sample", "--config", str(path), "--out-dir", str(tmp_path)])
        assert calls == [16, 16]
        assert not (tmp_path / "sample.csv").exists()
        assert not (tmp_path / "sample.report.json").exists()

    @pytest.mark.parametrize("fmt, report", [("csv", "sample.report.json"), ("json", "sample.json")])
    def test_interrupted_rerun_leaves_no_earlier_report(self, tmp_path, monkeypatch, fmt, report):
        # the first run writes its report and errors file; a rerun stopped
        # in its first chunk leaves neither behind to name a missing table
        path = write_config(tmp_path, failing_config())
        argv = ["sample", "--config", str(path), "--out-dir", str(tmp_path), "--format", fmt]
        assert main(argv) == EXIT_NUMERIC
        assert (tmp_path / report).exists() and (tmp_path / "sample.errors.json").exists()

        def stop(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "eh_rows", stop)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_unwritable_table_fails_before_evaluation(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "eh_rows", lambda *args: calls.append(args))
        path = write_config(tmp_path, pair_config(shape=(2, 2, 2)))
        (tmp_path / "sample.csv").mkdir()
        assert main(["sample", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot write {tmp_path / 'sample.csv'}: ")
        assert calls == []


class TestFieldRows:
    """sample and continuous take their densities and the density's
    failures from one rows kernel, observables.density_rows, and so does
    the energy density of the quadratures, hamiltonian_on_points."""

    @pytest.mark.parametrize("command, data", [
        ("sample", pair_config(shape=(2, 2, 2))),
        ("continuous", continuous_config("bump", total=2.0, radius=1.0,
                                         grid=((-2, -2, -2), (2, 2, 2), (2, 2, 2)))),
        ("hamiltonian_on_points", pair_config(shape=(2, 2, 2))),
    ])
    def test_one_density_failure_rule(self, tmp_path, monkeypatch, command, data):
        # the formula gives inf on the first row of every call: a grid
        # command's errors file and the energy density's exception carry the
        # same DomainViolation for it
        formula = observables.classical_energy_density

        def first_row_infinite(*args):
            out = formula(*args)
            out[0] = np.inf
            return out

        monkeypatch.setattr(observables, "classical_energy_density", first_row_infinite)
        path = write_config(tmp_path, data)
        if command == "hamiltonian_on_points":
            cfg = load_config(path)
            with pytest.raises(DomainViolation) as info:
                hamiltonian_on_points(cfg.model, cfg.charges, grid_points(cfg))
            got = [(type(info.value).__name__, str(info.value))]
        else:
            assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_NUMERIC
            failures = read_report(tmp_path / f"{command}.errors.json")["failures"]
            assert [f["at"] for f in failures] == [[-2.0, -2.0, -2.0]]
            got = [(f["error"], f["detail"]) for f in failures]
        assert got == [("DomainViolation", "non-finite energy density")]

    @pytest.mark.parametrize("model", [
        {"kind": "classical", "beta": 1.0, "kappa": 0.6},
        {"kind": "logarithmic", "beta": 1.0, "kappa": 0.5},
    ], ids=["classical", "logarithmic"])
    def test_pointwise_density_is_the_sample_column(self, tmp_path, model):
        # both read the state of an eh_rows call through density_rows, so
        # they agree bit for bit at the same grid points
        data = {"model": model, "charges": [{"pos": [0.3, 0.1, -0.2], "q": 1.0, "g": 0.6}],
                "grid": {"lo": [-2, -2, -2], "hi": [2, 2, 2], "shape": [4, 4, 4]}}
        path = write_config(tmp_path, data)
        assert main(["sample", "--config", str(path), "--out-dir", str(tmp_path),
                     "--format", "json"]) == EXIT_OK
        rows = np.array(read_report(tmp_path / "sample.json")["rows"])
        cfg = load_config(path)
        pts = grid_points(cfg)
        np.testing.assert_array_equal(rows[:, :3], pts)
        dens = hamiltonian_on_points(cfg.model, cfg.charges, pts)
        assert dens.tobytes() == rows[:, 12].tobytes()

    def test_classical_density_next_to_a_centre(self, tmp_path):
        # 2 beta s rounds onto 1 here, so a domain test on s would fail the
        # point; the classical closed form in D gives its density
        data = pair_config(shape=(1, 1, 1))
        data["grid"].update(lo=[1.0 + 1e-5, 0.0, 0.0], hi=[1.0 + 1e-5, 0.0, 0.0])
        path = write_config(tmp_path, data)
        assert main(["sample", "--config", str(path), "--out-dir", str(tmp_path),
                     "--format", "json"]) == EXIT_OK
        row = read_report(tmp_path / "sample.json")["rows"][0]
        cfg = load_config(path)
        d = coulomb_rows(cfg.charges, cfg.charges.qs, np.array([row[:3]]))[0]
        d2 = float(d @ d)
        assert abs(row[12] / (d2 / (1.0 + math.sqrt(1.0 + d2))) - 1.0) <= 4e-16


class TestCurrentCommand:
    def test_csv_layout(self, tmp_path):
        path = write_config(tmp_path, pair_config(shape=(3, 3, 3)))
        rc = main(["current", "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        lines = (tmp_path / "current.csv").read_text().splitlines()
        assert lines[0] == CURRENT_HEADER
        # electrostatic classical: j_e vanishes, j_m does not
        cells = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert cells.shape == (27, 9)
        assert np.max(np.abs(cells[:, 3:6])) == 0.0
        assert np.max(np.abs(cells[:, 6:9])) > 1e-6


class TestChargeCommand:
    def test_json_payload(self, tmp_path):
        path = write_config(tmp_path, pair_config())
        rc = main(["charge", "--config", str(path), "--out-dir", str(tmp_path),
                   "--R", "20", "--format", "json"])
        assert rc == EXIT_OK
        report = read_report(tmp_path / "charge.json")
        assert report["q_free"] == pytest.approx(3.0, abs=1e-4)
        assert report["g_free"] == pytest.approx(0.0, abs=1e-6)
        radii = [entry["radius"] for entry in report["flux_ladder"]]
        assert radii == [20.0, 40.0, 80.0, 160.0]
        for entry in report["flux_ladder"]:
            assert entry["e_flux"] == pytest.approx(3.0, rel=1e-5)
            assert entry["h_flux"] == pytest.approx(0.0, abs=1e-9)
        assert report["config_sha256"] and report["seed"] == 7

    def test_csv_ladder(self, tmp_path):
        path = write_config(tmp_path, pair_config())
        rc = main(["charge", "--config", str(path), "--out-dir", str(tmp_path),
                   "--R", "15"])
        assert rc == EXIT_OK
        lines = (tmp_path / "flux_ladder.csv").read_text().splitlines()
        assert lines[0] == "radius,e_flux,h_flux"
        assert len(lines) == 5
        report = read_report(tmp_path / "charge.report.json")
        assert report["q_free"] == pytest.approx(3.0, abs=1e-4)

    def test_sphere_nodes_invert_once(self, tmp_path, monkeypatch):
        # logarithmic unit charge off the origin, rel_tol 1e-5, --R 50: six
        # spheres (outer, inner, four ladder radii), each stopping at its
        # 16x32 level, share one inversion call per level: 6 x 128 nodes,
        # then 6 x 512
        data = {
            "model": {"kind": "logarithmic", "beta": 1.0, "kappa": 0.0},
            "charges": [{"pos": [0.023643249400513433, 0.9009273926518706,
                                 -0.7116807745607325], "q": 1.0}],
            "quadrature": {"rel_tol": 1e-5},
        }
        path = write_config(tmp_path, data)
        calls = []

        def counting_rows(params, d, b):
            calls.append(len(d))
            return invert_rows(params, d, b)

        monkeypatch.setattr(currents, "invert_rows", counting_rows)
        rc = main(["charge", "--config", str(path), "--out-dir", str(tmp_path),
                   "--R", "50", "--format", "json"])
        monkeypatch.undo()
        assert rc == EXIT_OK and calls == [768, 3072]

        # reference: separate quadratures of E-only and H-only fields, one
        # sphere at a time
        cfg = parse_config(data)
        eh = currents.eh_field(cfg.model, cfg.charges)
        report = read_report(tmp_path / "charge.json")
        for rung in report["flux_ladder"]:
            r, center = rung["radius"], cfg.charges.centroid
            for k, key in enumerate(("e_flux", "h_flux")):
                assert rung[key] == flux_charge(lambda pts: eh(pts)[:, k], r, cfg.quadrature,
                                                center=center)

    def test_bad_radius_rejected(self, tmp_path):
        path = write_config(tmp_path, pair_config())
        assert main(["charge", "--config", str(path), "--out-dir",
                     str(tmp_path), "--R", "-5"]) == EXIT_CONFIG


class TestEnergyCommand:
    def test_single_charge_reference(self, tmp_path):
        data = {
            "model": {"kind": "classical", "beta": 1.0},
            "charges": [{"pos": [0.0, 0.0, 0.0], "q": 1.0}],
            "quadrature": {"rel_tol": 1e-5},
        }
        path = write_config(tmp_path, data)
        rc = main(["energy", "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        report = read_report(tmp_path / "energy.json")
        assert report["converged"] is True
        assert report["value"] == pytest.approx(0.34868320668436725, rel=1e-4)
        assert report["near_charge_exponents"][0] == pytest.approx(-2.0, abs=0.05)
        assert set(report["parts"]) == {"cells", "levels", "nodes"}
        assert report["value"] == sum(report["parts"]["cells"])

    def test_failed_probe_writes_null(self, tmp_path, monkeypatch):
        # a probe that fails gives a NaN exponent, which decides nothing; the
        # report must stay valid JSON, with the single charge's energy
        def probe_in_the_ball(*args):
            raise SingularPoint("probe radius inside the exclusion ball")

        monkeypatch.setattr(observables, "divergence_exponent_probe", probe_in_the_ball)
        data = {
            "model": {"kind": "classical", "beta": 1.0},
            "charges": [{"pos": [0.0, 0.0, 0.0], "q": 1.0}],
            "quadrature": {"rel_tol": 1e-4},
        }
        path = write_config(tmp_path, data)
        rc = main(["energy", "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        report = read_report(tmp_path / "energy.json")
        assert report["near_charge_exponents"] == [None]
        assert report["converged"] is True
        # the scipy radial integral of the unit classical charge's energy
        assert abs(report["value"] - 0.34868320668436725) <= 1e-4 * 0.34868320668436725


# diameter / min separation either side of 4.5, and min separation either
# side of 2/9: where a charge ball of 1e-9 max(diameter, 1) and a quadrature
# ball of 1e-8 (0.45 min separation) once disagreed, and energy or charge
# raised SingularPoint
@pytest.mark.parametrize("xs", [
    (0.0, 1.0, 4.4), (0.0, 1.0, 4.6), (0.0, 1.0, 10.0), (0.0, 0.3), (0.0, 0.2), (0.0, 0.1),
], ids=lambda xs: "x=" + ",".join(map(str, xs)))
def test_energy_and_charge_either_side_of_the_ball_edges(tmp_path, xs):
    data = {"model": {"kind": "classical"},
            "charges": [{"pos": [x, 0.0, 0.0], "q": (-1.0) ** k} for k, x in enumerate(xs)]}
    path = write_config(tmp_path, data)
    argv = ["--config", str(path), "--out-dir", str(tmp_path)]
    assert main(["energy", *argv]) == EXIT_OK
    assert main(["charge", *argv]) == EXIT_OK
    energy = read_report(tmp_path / "energy.json")
    assert energy["converged"] is True and energy["value"] > 0.0
    charge = read_report(tmp_path / "charge.report.json")
    charges = parse_config(data).charges
    assert charge["q_free"] == pytest.approx(math.fsum(charges.qs), abs=1e-6)
    assert charge["g_free"] == 0.0
    assert [rung["radius"] for rung in charge["flux_ladder"]] == [
        _far_radius(charges) * 2.0**k for k in range(4)]
    assert not any(tmp_path.glob("*.errors.json"))


# energy.json of two runs, pinned byte for byte: any change to the
# arithmetic of the energy integrand or of its Gauss-Legendre rules shows
# here, not only in the benchmark
GOLDEN_ENERGY = [
    pytest.param({  # perfbench's energy-log input for seed 21
        "model": {"kind": "logarithmic", "beta": 1.0, "kappa": 0.0},
        "charges": [{"pos": [0.5622351776349419, 0.21169405914193606, 0.4196023808168503],
                     "q": 1.0}],
        "quadrature": {"rel_tol": 1e-05},
    }, "0671d7d0b8e6d57f586a4a2dfdf5f1ecdac1079c2b85b83e8805c676b4aa9eb2", id="energy-log-seed21"),
    pytest.param({
        "model": {"kind": "classical", "beta": 1.0, "kappa": 0.6},
        "charges": [{"pos": [1.0, 0.0, 0.0], "q": 1.0, "g": 0.5},
                    {"pos": [-1.0, 0.5, 0.0], "q": -2.0, "g": 1.0},
                    {"pos": [0.0, -1.0, 0.3], "q": 0.5, "g": -0.7}],
        "quadrature": {"rel_tol": 1e-2, "max_subdivisions": 3},
    }, "ab7905a07b94ce66dc82947785eccde9b0d5a2c5346b975fe7a123e55ebe9b05",
        id="three-centre-classical-dyon-k0.6"),
]


@pytest.mark.parametrize("data, sha256", GOLDEN_ENERGY)
def test_energy_json_bytes_are_pinned(tmp_path, data, sha256):
    path = write_config(tmp_path, data)
    assert main(["energy", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_OK
    assert hashlib.sha256((tmp_path / "energy.json").read_bytes()).hexdigest() == sha256


# the grid commands' tables and reports of four small runs, pinned byte for
# byte as {command: (sha256 of <command>.csv, of <command>.report.json)}:
# any change to the arithmetic or the order of a grid command's fields,
# currents, densities or failure records shows here
GOLDEN_GRID = [
    pytest.param({  # one charge on a grid node, which is skipped
        "model": {"kind": "classical", "beta": 1.0, "kappa": 0.0},
        "charges": [{"pos": [1.0, 0.0, 0.0], "q": 1.0},
                    {"pos": [-0.9, 0.3, 0.1], "q": -1.5},
                    {"pos": [0.2, -1.1, 0.4], "q": 0.7},
                    {"pos": [0.4, 0.8, -0.7], "q": -0.6}],
        "grid": {"lo": [-2, -2, -2], "hi": [2, 2, 2], "shape": [5, 5, 5]},
    }, {"sample": ("3023dd986aa3e9c68c4d4519868f67a3d967b87e3fa2f2b95b764f3da135e61c",
                   "a7467adb08f7c52202137e7a0d6eea77977ce11cb6dbdd054338aa386ee89591"),
        "current": ("438f7589876c57862abab6a74ae3c247ee914cc8079fcf664e0afb57aeb421bc",
                    "00cdd2afa08e293aa8004623ce992a8a6fce254849702a8c1b0abd9f950af787")},
        id="classical-multicentre"),
    pytest.param({
        "model": {"kind": "fractional_power", "beta": 1.0, "p": 1.5, "kappa": 0.5},
        "charges": [{"pos": [1.07, 0.03, -0.02], "q": 1.0, "g": 0.4},
                    {"pos": [-0.95, 0.04, 0.02], "q": -2.0, "g": 1.0}],
        "grid": {"lo": [-2, -2, -2], "hi": [2, 2, 2], "shape": [5, 5, 5]},
    }, {"sample": ("6d217c26f7aba5fb1f153c1b10068ef3e1295a99a8b1efff641fcf8712000da8",
                   "d664dfb6c80c364cde7ba94d2dc5fdc502c7b4cc043c1c0afc5cecdb36909af3"),
        "current": ("be58182f66bd92753931168adc9e40e2613e31ac2891df243476028a24769a23",
                    "5365a10d653ab37421fd42d5da9385ab51505f5aa4522289a44ada1c128af692")},
        id="fractional-dyon-pair-k0.5"),
    pytest.param(continuous_config("bump", total=2.0, radius=1.0), {
        "continuous": ("9287a6b8d16591e11fa245ffe9979dcc2f33e69736e6490b429961b18df3bf73",
                       "628265052644001d940651ab9f8096a70a2c9a8f8d7035041d58d755b06318e7")},
        id="radial-bump"),
    pytest.param(dyonic_source_config(), {
        "continuous": ("73c99996f71e5127169341f19c997a23cb7b671c8aee6e2d076982141692eb85",
                       "41db03ccc03d0d8d6c330b491b8caae7ded9089fdceb0e0081112c7f9056553d")},
        id="log-dyonic-source-k0.5"),
]


@pytest.mark.parametrize("data, pinned", GOLDEN_GRID)
def test_grid_outputs_are_pinned(tmp_path, data, pinned):
    path = write_config(tmp_path, data)
    got = {}
    for command in pinned:
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_OK
        got[command] = tuple(hashlib.sha256((tmp_path / f"{command}{ext}").read_bytes()).hexdigest()
                             for ext in (".csv", ".report.json"))
    assert got == pinned


def log_charge_energy(q: float, beta: float) -> float:
    """1-D radial integral of the logarithmic density of one charge,
    H = 2 D^2 / (1 + R) - log1p((R - 1) / 2) / beta, R = sqrt(1 + 2 beta D^2)."""
    from scipy.integrate import quad

    def integrand(r):
        d = q / (4.0 * math.pi * r * r)
        big_r = math.sqrt(1.0 + 2.0 * beta * d * d)
        r_minus_1 = 2.0 * beta * d * d / (1.0 + big_r)   # R - 1 without cancellation
        return 4.0 * math.pi * r * r * (2.0 * d * d / (1.0 + big_r) - math.log1p(0.5 * r_minus_1) / beta)

    edges = [0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, math.inf]
    return sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]
               for a, b in zip(edges[:-1], edges[1:]))


def test_energy_log_converges_at_level_one(tmp_path):
    # r^2 H of one logarithmic charge is smooth in the mapped radial
    # variable, so levels 0 and 1 (24 and 36 radial nodes on 4x8 and 6x12
    # directions) already agree within rel_tol; level 1 misses the radial
    # integral, which starts at r = 0, by the exclusion ball's 1.4e-8
    data = GOLDEN_ENERGY[0].values[0]
    path = write_config(tmp_path, data)
    assert main(["energy", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_OK
    report = read_report(tmp_path / "energy.json")
    assert report["converged"] is True
    assert report["parts"]["levels"] == 2
    assert report["parts"]["nodes"] == 24 * 32 + 36 * 72
    ref = log_charge_energy(data["charges"][0]["q"], data["model"]["beta"])
    assert abs(report["value"] - ref) <= 1e-7 * ref


class TestStrictJson:
    def test_non_finite_value_is_not_written(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_json(tmp_path / "bad.json", {"x": float("nan")})

    def test_non_finite_suite_residual_is_null(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(verify, "SUITES", (
            lambda rng: verify._suite("diverged", 1e-4, [0.5, math.inf]),
            lambda rng: verify._suite("nan_last", 1e-4, [1e-5, math.nan]),
            lambda rng: verify._suite("no_checks", 1e-4, []),
        ))
        rc = main(["verify", "--out-dir", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        suites = read_report(tmp_path / "verify.json")["suites"]
        assert [s["n_checks"] for s in suites] == [2, 2, 0]
        for suite in suites:
            assert suite["max_residual"] is None and suite["passed"] is False
        out = capsys.readouterr().out
        assert "FAIL diverged" in out and "FAIL nan_last" in out and "FAIL no_checks" in out


class TestCsvCells:
    def test_bytes_match_per_cell_format(self, tmp_path):
        cells = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
                 0.1, -1.0 / 3.0, 2.0**53 + 2.0, 1e-310, 123456789.0]
        rows = [[v, cells[-1 - k], np.float64(v), k] for k, v in enumerate(cells)]
        header = ("a", "b", "c", "n")
        block = np.array(rows)
        cli._write_csv(tmp_path / "t.csv", header, [block[:5], block[5:5], block[5:]])
        reference = ",".join(header) + "\n" + "".join(
            ",".join([format(float(v), ".17g") for v in row]) + "\n" for row in rows)
        assert (tmp_path / "t.csv").read_bytes() == reference.encode()

    def test_header_only_table(self, tmp_path):
        cli._write_csv(tmp_path / "t.csv", ("x", "y"), [])
        assert (tmp_path / "t.csv").read_bytes() == b"x,y\n"


class TestContinuousCommand:
    def test_gaussian_matches_library(self, tmp_path):
        data = {
            "model": {"kind": "classical", "beta": 1.5},
            "continuous": {"shape": "gaussian", "total": 2.0, "sigma": 0.8},
            "grid": {"lo": [0.9, 0.0, 0.0], "hi": [0.9, 0.0, 0.0],
                     "shape": [1, 1, 1]},
        }
        path = write_config(tmp_path, data)
        rc = main(["continuous", "--config", str(path), "--out-dir",
                   str(tmp_path), "--format", "json"])
        assert rc == EXIT_OK
        report = read_report(tmp_path / "continuous.json")
        assert report["columns"] == SAMPLE_HEADER.split(",")
        row = report["rows"][0]
        from bifield import gaussian_source
        src = gaussian_source(total=2.0, sigma=0.8)
        state = continuous.state_rows(
            src, ModelParams.classical(beta=1.5), np.array([[0.9, 0.0, 0.0]]))
        assert state.code.tolist() == [0]
        assert row[3:6] == pytest.approx(list(state.e[0]), rel=1e-12)
        # radial gaussian: the induced magnetic current vanishes
        assert max(abs(v) for v in row[9:12]) < 1e-9

    def test_dyonic_pair_runs(self, tmp_path):
        data = {
            "model": {"kind": "logarithmic", "beta": 0.8, "kappa": 0.5},
            "continuous": {
                "shape": "dyonic",
                "electric": {"shape": "gaussian", "total": 2.0, "sigma": 0.7,
                             "center": [0.3, 0.0, 0.0]},
                "magnetic": {"shape": "gaussian", "total": 1.5, "sigma": 0.9,
                             "center": [-0.2, 0.1, 0.0]},
            },
            "grid": {"lo": [-0.5, -0.5, 0.0], "hi": [0.5, 0.5, 0.0],
                     "shape": [2, 2, 1]},
        }
        path = write_config(tmp_path, data)
        rc = main(["continuous", "--config", str(path), "--out-dir",
                   str(tmp_path)])
        assert rc == EXIT_OK
        lines = (tmp_path / "continuous.csv").read_text().splitlines()
        assert lines[0] == SAMPLE_HEADER
        assert len(lines) == 5

    def test_charges_only_config_rejected(self, tmp_path):
        path = write_config(tmp_path, pair_config())
        assert main(["continuous", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("data", [
        continuous_config("gaussian", model={"kind": "classical", "beta": 1.5}, total=2.0,
                          sigma=0.8, grid=((-1, -1, -1), (1, 1, 1), (3, 3, 3))),
        continuous_config("two_gaussian", q1=8.0, sigma1=0.6, center1=[-1.0, 0.0, 0.0],
                          q2=6.0, sigma2=0.8, center2=[1.2, 0.4, 0.0],
                          grid=((-1.5, -0.5, -0.8), (1.5, 0.8, 0.3), (4, 3, 3))),
        continuous_config("bump", total=2.0, radius=1.0),
        dyonic_source_config(),
        gridded_config(),
    ], ids=["gaussian", "two-gaussian", "bump", "log-dyonic-pair", "gridded"])
    def test_rows_match_pointwise_reference(self, tmp_path, data):
        # E and H bit for bit; an electric source's j_m to the last bit of
        # f'' (Python's pow against numpy's), a kappa > 0 dyonic source's
        # against the oracle's 3 x 3 implicit derivative
        write_lattice(tmp_path)
        path = write_config(tmp_path, data)
        assert main(["continuous", "--config", str(path), "--out-dir", str(tmp_path),
                     "--format", "json"]) == EXIT_OK
        got = np.array(read_report(tmp_path / "continuous.json")["rows"])
        cfg = load_config(path)
        src, params, quad = cfg.source, cfg.model, cfg.quadrature
        want = np.array([continuous_pointwise(src, params, x, quad) for x in grid_points(cfg)])
        assert np.array_equal(got[:, :9], want[:, :9])
        jm_got, jm_want = got[:, 9:12], want[:, 9:12]
        tol = 1e-15 if src.rho_m is None else 1e-12
        assert np.max(np.abs(jm_got - jm_want)) <= tol * np.max(np.abs(jm_want))
        states = [State(src, params, x, quad) for x in grid_points(cfg)]
        state = StateRows(*(np.array([getattr(st, k) for st in states]) for k in "dbehs"),
                          code=np.zeros(len(states), dtype=np.int64), errors=[])
        assert np.array_equal(got[:, 12], density_rows(params, state))
        assert not state.code.any()
        assert np.max(np.abs(got[:, 12] - want[:, 12])) <= 1e-12 * np.max(np.abs(want[:, 12]))

    def test_failing_points_are_recorded(self, tmp_path):
        # the quadrature cannot reach rel_tol 5e-3 in two levels near the
        # lattice: three points fail, the far one evaluates
        write_lattice(tmp_path)
        data = gridded_config(rel_tol=5e-3, lo=(0.0, 0.2, 0.1), hi=(6.0, 0.2, 0.1),
                              shape=(4, 1, 1))
        path = write_config(tmp_path, data)
        assert main(["continuous", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_NUMERIC
        report = read_report(tmp_path / "continuous.report.json")
        assert (report["n_rows"], report["n_failed"]) == (1, 3)
        assert report["failures_by_error"] == {"QuadratureError": 3}
        failures = read_report(tmp_path / "continuous.errors.json")["failures"]
        cfg = load_config(path)
        for f, x in zip(failures, grid_points(cfg)[:3]):
            assert f["at"] == x.tolist() and f["error"] == "QuadratureError"
            with pytest.raises(bifield.errors.QuadratureError) as exc:
                continuous_pointwise(cfg.source, cfg.model, x, cfg.quadrature)
            assert f["detail"] == str(exc.value)
        rows = (tmp_path / "continuous.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("6,0.20000000000000001,0.10000000000000001,")

    @pytest.mark.parametrize("data", [
        continuous_config("two_gaussian", q1=8.0, center1=[-1.0, 0.0, 0.0],
                          grid=((-1, -1, -1), (1, 1, 1), (3, 3, 2))),
        dyonic_source_config(),
    ], ids=["electric", "dyonic"])
    def test_one_inversion_per_chunk(self, tmp_path, monkeypatch, data):
        # the points of a chunk invert in one state_rows call, a kappa > 0
        # dyonic source's included: j_m has no inversion of its own
        calls = {continuous: [], currents: []}
        for module in calls:
            def counting(params, d, b, module=module, rows=module.invert_rows):
                calls[module].append(len(d))
                return rows(params, d, b)

            monkeypatch.setattr(module, "invert_rows", counting)
        monkeypatch.setattr(cli, "GRID_CHUNK", 7)
        path = write_config(tmp_path, data)
        assert main(["continuous", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_OK
        assert calls[continuous] == [7, 7, 4]
        assert calls[currents] == []


class TestVerifyCommand:
    def test_all_suites_pass(self, tmp_path):
        rc = main(["verify", "--out-dir", str(tmp_path), "--seed", "11"])
        assert rc == EXIT_OK
        report = read_report(tmp_path / "verify.json")
        assert report["all_passed"] is True
        assert len(report["suites"]) == len(verify.SUITES) == 18
        for suite in report["suites"]:
            assert suite["passed"] is True
            assert suite["max_residual"] <= suite["tolerance"]
            assert suite["n_checks"] >= 1
        names = {s["name"] for s in report["suites"]}
        assert {"lambert_identity", "constitutive_round_trip",
                "jacobi_partial_sum", "saturation_bounds",
                "maxwell_limit_fields", "k0_dyon_curl_match", "dyon_curl_match"} <= names

    def test_verify_needs_no_config(self, tmp_path):
        # smoke: seed comes from the flag, hash is null without a config
        rc = main(["verify", "--out-dir", str(tmp_path), "--seed", "3"])
        assert rc == EXIT_OK
        report = read_report(tmp_path / "verify.json")
        assert report["config_sha256"] is None
        assert report["seed"] == 3


class TestExampleGrid:
    def test_two_charge_sample_on_21_cubed(self, tmp_path):
        # the canonical field table: 21^3 probe grid over a two-charge layout
        path = write_config(tmp_path, pair_config(shape=(21, 21, 21)))
        rc = main(["sample", "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        lines = (tmp_path / "sample.csv").read_text().splitlines()
        assert lines[0] == SAMPLE_HEADER
        # two grid nodes coincide with the charges
        assert len(lines) == 1 + 21**3 - 2
