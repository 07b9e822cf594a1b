"""End-to-end checks of the command line.

Covers config parsing and the serialize/parse round trip, the field table
layout, exit code semantics (0 success, 1 config error, 2 numeric failure),
determinism across reruns and thread counts, and the verify command.
"""

import json
import math

import numpy as np
import pytest

from bifield import (
    ModelParams,
    ChargeConfig,
    displacement_field,
    electrostatic_e,
    hamiltonian_at,
)
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
from bifield.errors import ConfigError

SAMPLE_HEADER = "x,y,z,Ex,Ey,Ez,Hx,Hy,Hz,jm_x,jm_y,jm_z,energy_density"
CURRENT_HEADER = "x,y,z,je_x,je_y,je_z,jm_x,jm_y,jm_z,method"


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
    # quadratic model with |B| = 1 = 1/sqrt(alpha) at the single probe point:
    # f' vanishes there and the inversion gives up
    return {
        "model": {"kind": "quadratic", "alpha": 1.0},
        "charges": [{"pos": [0.0, 0.0, 0.0], "q": 1e-5, "g": 4.0 * math.pi}],
        "grid": {"lo": [1.0, 0.0, 0.0], "hi": [1.0, 0.0, 0.0], "shape": [1, 1, 1]},
    }


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
        # quadrature geometry comes from the charge layout: min separation 2
        quad = cfg.data["quadrature"]
        assert quad["ball_radius"] == pytest.approx(0.9)
        assert quad["far_radius"] == pytest.approx(11.6)
        assert len(quad["flux_radii"]) == 4

    def test_quadrature_overrides_keep_geometry(self):
        data = pair_config()
        data["quadrature"] = {"rel_tol": 1e-4, "far_radius": 50.0}
        cfg = parse_config(data)
        assert cfg.quadrature.rel_tol == 1e-4
        assert cfg.quadrature.far_radius == 50.0
        assert cfg.quadrature.ball_radius == pytest.approx(0.9)

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
    ])
    def test_invalid_configs_rejected(self, mutate):
        data = pair_config()
        mutate(data)
        with pytest.raises(ConfigError):
            parse_config(data)

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
        report = json.loads((tmp_path / "sample.report.json").read_text())
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
        e = electrostatic_e(params, displacement_field(charges, np.zeros(3)))
        assert np.allclose(cells[3:6], e, atol=1e-15)
        assert cells[12] == pytest.approx(
            hamiltonian_at(params, charges, np.zeros(3)), rel=1e-12)

    def test_json_format(self, tmp_path):
        path = write_config(tmp_path, pair_config(shape=(3, 3, 3)))
        rc = main(["sample", "--config", str(path), "--out-dir", str(tmp_path),
                   "--format", "json"])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "sample.json").read_text())
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
        report = json.loads((tmp_path / "sample.report.json").read_text())
        assert report["seed"] == 99

    @pytest.mark.parametrize("command", ["sample", "current"])
    def test_numeric_failure_aggregates_locations(self, tmp_path, command):
        path = write_config(tmp_path, failing_config())
        rc = main([command, "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        errors = json.loads((tmp_path / f"{command}.errors.json").read_text())
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
        report = json.loads((out / "sample.report.json").read_text())
        assert report["config_sha256"] == config_digest(load_config(clean))

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


class TestCurrentCommand:
    def test_csv_layout(self, tmp_path):
        path = write_config(tmp_path, pair_config(shape=(3, 3, 3)))
        rc = main(["current", "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        lines = (tmp_path / "current.csv").read_text().splitlines()
        assert lines[0] == CURRENT_HEADER
        assert all(line.endswith("analytic") for line in lines[1:])
        # electrostatic classical: j_e vanishes, j_m does not
        cells = np.array([[float(v) for v in line.split(",")[:9]]
                          for line in lines[1:]])
        assert np.max(np.abs(cells[:, 3:6])) == 0.0
        assert np.max(np.abs(cells[:, 6:9])) > 1e-6


class TestChargeCommand:
    def test_json_payload(self, tmp_path):
        path = write_config(tmp_path, pair_config())
        rc = main(["charge", "--config", str(path), "--out-dir", str(tmp_path),
                   "--R", "20", "--format", "json"])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "charge.json").read_text())
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
        report = json.loads((tmp_path / "charge.report.json").read_text())
        assert report["q_free"] == pytest.approx(3.0, abs=1e-4)

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
        report = json.loads((tmp_path / "energy.json").read_text())
        assert report["converged"] is True
        assert report["value"] == pytest.approx(0.34868320668436725, rel=1e-4)
        assert report["near_charge_exponents"][0] == pytest.approx(-2.0, abs=0.05)
        assert set(report["parts"]) == {"balls", "shell", "tail", "far_radius_used"}


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
        report = json.loads((tmp_path / "continuous.json").read_text())
        assert report["columns"] == SAMPLE_HEADER.split(",")
        row = report["rows"][0]
        from bifield import continuous_fields, gaussian_source
        src = gaussian_source(total=2.0, sigma=0.8)
        st = continuous_fields(src, ModelParams.classical(beta=1.5),
                               np.array([0.9, 0.0, 0.0]))
        assert row[3:6] == pytest.approx(list(st.e), rel=1e-12)
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


class TestVerifyCommand:
    def test_all_suites_pass(self, tmp_path):
        rc = main(["verify", "--out-dir", str(tmp_path), "--seed", "11"])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_passed"] is True
        assert len(report["suites"]) == 15
        for suite in report["suites"]:
            assert suite["passed"] is True
            assert suite["max_residual"] <= suite["tolerance"]
            assert suite["n_checks"] >= 1
        names = {s["name"] for s in report["suites"]}
        assert {"lambert_identity", "constitutive_round_trip",
                "jacobi_partial_sum", "saturation_bounds",
                "maxwell_limit_fields"} <= names

    def test_verify_needs_no_config(self, tmp_path):
        # smoke: seed comes from the flag, hash is null without a config
        rc = main(["verify", "--out-dir", str(tmp_path), "--seed", "3"])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "verify.json").read_text())
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
