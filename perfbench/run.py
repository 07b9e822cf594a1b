"""bifield benchmark: four CLI workloads, oracle-checked, optionally traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

`--workload all` runs every workload untraced and then traced, whatever
--trace says, and so prints every end-to-end and every per-layer metric.

Run from the root of a bifield checkout; the package is imported from its
src/ directory and nowhere else. Every workload command runs in a fresh
process with --threads 1. With --trace 0 the run repeats the workload for
S seconds and reports the end-to-end metrics (medians over repeats). With
--trace 1 it alternates untraced and traced repeats for S seconds, then
runs the workload once at --threads nproc and times one slow bump point,
and reports the per-layer metrics. Each run first passes `bifield verify`
(untimed), checks the outputs of its first repeat against independent
oracles and requires every repeat to write byte-identical files. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Exit code 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from workloads import WORKLOADS, edge_config, jm_max

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RUN_LIMIT_S = 170   # a run must end within 180 s
MIN_SETUPS = 5

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
PER_LAYER_UNITS = {
    "sources.calls": "count", "sources.self_s": "s",
    "constitutive.calls": "count", "constitutive.rows": "count",
    "constitutive.self_s": "s", "constitutive.fail": "count",
    "specfn.calls": "count", "specfn.self_s": "s",
    "models.calls": "count",
    "currents.calls": "count", "currents.self_s": "s", "currents.fd_frac": "frac",
    "currents.point_p50_us": "us", "currents.point_p99_us": "us",
    "observables.calls": "count", "observables.self_s": "s", "observables.points": "count",
    "continuous.calls": "count", "continuous.self_s": "s",
    "continuous.newton_unique_frac": "frac", "continuous.point_p50_ms": "ms",
    "continuous.jm_max": "a.u.", "continuous.edge_point_s": "s",
    "cli.import_s": "s", "cli.parse_s": "s", "cli.self_s": "s",
    "cli.rows": "count", "cli.skipped": "count", "cli.failed": "count",
    "cli.fail_frac": "frac", "cli.out_bytes": "bytes", "cli.cpu_per_wall": "ratio",
    "cli.threads_ratio": "ratio",
    "trace.overhead_frac": "frac",
}
LAYER_COUNTERS = ("sources.calls", "constitutive.calls", "constitutive.rows",
                  "constitutive.fail", "specfn.calls", "models.calls", "currents.calls",
                  "currents.fd_frac", "observables.calls", "observables.points",
                  "continuous.calls", "continuous.newton_unique_frac")
LAYER_TIMES = ("sources.self_s", "constitutive.self_s", "specfn.self_s", "currents.self_s",
               "observables.self_s", "continuous.self_s", "cli.self_s")


class BenchError(Exception):
    """A check failed or a child process misbehaved."""


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


class Runner:
    """Runs the child processes of one workload run, within the run's time limit."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def child(self, config, commands, setup_only=False, trace=False):
        """Run child.py once; return (result dict, out_dir)."""
        self.count += 1
        tag = f"c{self.count:03d}"
        out_dir = self.work / tag
        out_dir.mkdir(parents=True)
        argvs = [list(cmd) + ["--out-dir", str(out_dir)] for cmd in commands]
        if config is not None:
            argvs = [a + ["--config", str(config)] for a in argvs]
        spec = {
            "src": str(SRC), "config": None if config is None else str(config),
            "commands": argvs, "setup_only": setup_only, "trace": trace,
            "spans": str(self.work / f"{tag}.spans.npy") if trace else None,
            "result": str(self.work / f"{tag}.result.json"),
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {tag} ran past the run's {RUN_LIMIT_S} s limit") from None
        if proc.returncode != 0:
            raise BenchError(f"child {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(Path(spec["result"]).read_text())
        result["stderr"] = proc.stderr
        return result, out_dir


def file_digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def grid_counts(out_dir: Path) -> dict:
    """rows, skipped and failed grid points of the one table in out_dir."""
    report = next(out_dir.glob("*.report.json"))
    data = json.loads(report.read_text())
    errors = out_dir / report.name.replace(".report.json", ".errors.json")
    failed = json.loads(errors.read_text())["n_failures"] if errors.exists() else 0
    return {"rows": data["n_rows"], "skipped": data["n_skipped"], "failed": failed}


def command_counts(out_dir: Path, n_commands: int) -> dict:
    """energy-log: the energy command counts as failed when it does not converge
    (a command that exits non-zero has already stopped the run)."""
    failed = int(json.loads((out_dir / "energy.json").read_text())["converged"] is not True)
    rows = len((out_dir / "flux_ladder.csv").read_text().splitlines()) - 1
    return {"rows": rows, "skipped": 0, "failed": failed, "commands": n_commands}


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    wl = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    cfg_data = wl.make_config(seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg_data, indent=2) + "\n")

    def commands(threads: int):
        return [list(c) + ["--threads", str(threads), "--format", "csv"] for c in wl.commands]

    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "config": cfg_data}

    # gate: the package's own verification suites (untimed)
    verify, _ = runner.child(None, [["verify"]])
    if verify["exit_codes"] != [0]:
        raise BenchError(f"bifield verify failed:\n{verify['stdout']}")

    untraced, traced = [], []
    digests = None
    first_out = None

    def one(traced_rep: bool, threads: int = 1):
        """One repeat; checks exit codes and byte equality with the first repeat.
        Grid commands exit 2 exactly when they wrote an errors file."""
        nonlocal digests, first_out
        res, out_dir = runner.child(cfg_path, commands(threads), trace=traced_rep)
        if wl.grid:
            expected = [2 if any(out_dir.glob("*.errors.json")) else 0]
        else:
            expected = [0] * len(wl.commands)
        if res["exit_codes"] != expected:
            raise BenchError(f"{name}: exit codes {res['exit_codes']}, expected {expected}: "
                             f"{res['stderr'][-2000:]}")
        dig = file_digests(out_dir)
        if digests is None:
            digests, first_out = dig, out_dir
        elif dig != digests:
            raise BenchError(f"{name}: output files differ between repeats: {dig} vs {digests}")
        return res

    t_start = time.perf_counter()
    while True:
        untraced.append(one(False))
        if trace:
            traced.append(one(True))
        if time.perf_counter() - t_start >= seconds:
            break
    setup_children = list(untraced)
    while len(setup_children) < MIN_SETUPS:
        setup_children.append(runner.child(cfg_path, [], setup_only=True)[0])
    setups = [r["setup_s"] for r in setup_children]

    checks = wl.oracle(cfg_data, first_out, seed)
    report["checks"] = checks
    report["sha256"] = digests
    correct = all(c["ok"] for c in checks)

    counts = (grid_counts(first_out) if wl.grid
              else command_counts(first_out, len(wl.commands)))
    attempted_units = counts["rows"] + counts["failed"] if wl.grid else counts["commands"]
    fail_frac = counts["failed"] / attempted_units
    run_times = [r["run_s"] for r in untraced]
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(run_times),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "ok_frac": 1.0 - fail_frac,
        }
    else:
        threads_rep = one(False, threads=len(os.sched_getaffinity(0)))
        edge_dir = work / "edge"
        edge_dir.mkdir()
        (edge_dir / "config.json").write_text(json.dumps(edge_config(), indent=2) + "\n")
        edge, edge_out = runner.child(edge_dir / "config.json",
                                      [["continuous", "--threads", "1", "--format", "csv"]])
        if edge["exit_codes"] != [0]:
            raise BenchError(f"edge point failed: {edge['stderr'][-2000:]}")
        jm = max(jm_max(t) for t in (first_out, edge_out) if (t / "continuous.csv").exists())
        summaries = [r["trace"] for r in traced]
        first = summaries[0]
        points_us = [v for s in summaries for v in s["currents.point_us"]]
        points_ms = [v for s in summaries for v in s["continuous.point_ms"]]
        out_bytes = sum(p.stat().st_size for p in first_out.iterdir() if p.is_file())
        base_run = statistics.median(run_times)
        metrics = {k: first[k] for k in LAYER_COUNTERS}
        metrics.update({k: statistics.median(s[k] for s in summaries) for k in LAYER_TIMES})
        metrics.update({
            "currents.point_p50_us": quantile(points_us, 0.5),
            "currents.point_p99_us": quantile(points_us, 0.99),
            "continuous.point_p50_ms": quantile(points_ms, 0.5),
            "continuous.jm_max": jm,
            "continuous.edge_point_s": edge["run_s"],
            "cli.import_s": statistics.median(r["import_s"] for r in untraced),
            "cli.parse_s": statistics.median(r["parse_s"] for r in untraced),
            "cli.rows": counts["rows"],
            "cli.skipped": counts["skipped"],
            "cli.failed": counts["failed"],
            "cli.fail_frac": fail_frac,
            "cli.out_bytes": out_bytes,
            "cli.cpu_per_wall": statistics.median(r["cpu_s"] / r["run_s"] for r in untraced),
            "cli.threads_ratio": threads_rep["run_s"] / base_run,
            "trace.overhead_frac": statistics.median(r["run_s"] for r in traced) / base_run - 1.0,
        })
        report["samples"] = {"currents.point_us": len(points_us),
                             "continuous.point_ms": len(points_ms),
                             "spans": [s["spans"] for s in summaries],
                             "newton_calls": first["continuous.newton_calls"]}

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    report["metrics"] = {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}
    report["repeats"] = [{k: r[k] for k in ("setup_s", "import_s", "parse_s", "run_s", "cpu_s",
                                            "peak_rss_mb", "exit_codes")}
                         for r in untraced + traced]
    report["setups_s"] = setups
    report["counts"] = counts
    report["correct"] = correct
    report["attempted"] = sum(len(r["exit_codes"]) for r in untraced + traced)
    report["failed"] = 0

    print(f"== {name} seed={seed} trace={int(trace)}  repeats={len(untraced)}"
        f"{'+' + str(len(traced)) + ' traced' if trace else ''}  setups={len(setups)}")
    for c in checks:
        print(f"   check {c['name']:<32} {c['value']:.3e} <= {c['tol']:.1e}  "
            f"{'ok' if c['ok'] else 'FAIL'}")
    print(f"   sha256 {json.dumps(digests, sort_keys=True)}")
    for k, m in report["metrics"].items():
        print(f"   {k:<32} {m['value']:.6g} {m['unit']}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bifield" / "cli.py").is_file():
        print(f"no bifield sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    WORK.mkdir(exist_ok=True)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    reports = []
    try:
        for name, trace in runs:
            rep = run_workload(name, args.seed, args.seconds, trace, env)
            path = WORK / f"report-{name}-seed{args.seed}-trace{int(trace)}.json"
            path.write_text(json.dumps(rep, indent=2) + "\n")
            print(f"   report {path.relative_to(ROOT)}")
            reports.append(rep)
    except BenchError as exc:
        print(f"benchmark check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, len(reports)), "failed": 1,
                          "metrics": {}}))
        return 1

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
