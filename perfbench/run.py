"""The repository benchmark: shockline's CLI end to end on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ./src;
nothing is installed and nothing outside the checkout is written.

--trace 0 measures the end-to-end metrics: set-up time (median of
fresh interpreters importing the package and building the workload's
first scenario), the median wall time of one pass with tracing off,
grid updates per second, peak RSS of the pass process and its pool
children, and the share of CLI invocations that succeeded.
--trace 1 runs traced passes in one process and prints the per-layer
metrics, plus a grid-size ladder on the long_run physics.

Every output of every pass is checked: exit codes, pass-to-pass byte
identity, row counts, the grid-update count, the trace tolerance, and
at seed 0 agreement with the references recorded in
perfbench/reference.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.

Workloads (see workloads.py for why each exists): scenarios,
sweep_alpha_lambda, long_run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import verify
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

SETUP_PROBES = 5
DEADLINE_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("grid_updates_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
]

# spans and counts recorded by the traced passes (runner.install_tracer)
SPAN_METRICS = [
    "cli.build_scenario", "cli.emit", "criteria.evaluate", "solver.run",
    "solver.step", "solver.trace_characteristic",
    "solver.cross_validate_riccati", "riccati.integrate",
    "solver.write_snapshots",
]
COUNT_METRICS = [
    "bounds.density_floor.calls",
    "core.riccati_coefficients.calls", "solver.trace_characteristic.frames",
    "solver.write_snapshots.bytes",
]


def per_layer_metrics() -> list:
    out = [("setup.import_s", "s")]
    for name in SPAN_METRICS:
        out += [(f"{name}.s", "s"), (f"{name}.calls", "count")]
    out += [("solver.run.self_s", "s"), ("cli.sweep_cell.calls", "count")]
    out += [(name, "bytes" if name.endswith(".bytes") else "count") for name in COUNT_METRICS]
    out += [("cli.sweep.parallel_efficiency", "ratio"), ("trace.overhead_ratio", "ratio")]
    for n in (128, 1024, 4096):
        out += [(f"fields.{f}.n{n}.us", "us") for f in ("ddx2", "ddx4", "diff4")]
        out += [
            (f"solver.step.n{n}.us", "us"),
            (f"solver.monitors.n{n}.us_per_step", "us/step"),
            (f"criteria.evaluate.n{n}.us", "us"),
            (f"solver.trace_characteristic.n{n}.ms", "ms"),
            (f"solver.cross_validate_riccati.n{n}.ms", "ms"),
        ]
    out += [("riccati.integrate.oracle.us", "us")]
    return out


# ---------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "shockline").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": _git_commit(),
        "src_sha256": src_digest.hexdigest()[:16],
        "jobs": workloads.JOBS,
    }


# ---------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------

def _remaining(start: float) -> float:
    return DEADLINE_S - (time.monotonic() - start)


def setup_probes(config: Path, count: int, start: float) -> list:
    """Fresh interpreters timing import plus config build."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC), str(config)],
            capture_output=True, text=True, timeout=_remaining(start), cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def run_passes(args, configs: Path, work: Path, start: float) -> dict:
    result_path = work / "runner.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "runner.py"), "--src", str(SRC),
        "--workload", args.workload, "--configs", str(configs),
        "--work", str(work), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--result", str(result_path),
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=_remaining(start), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"pass runner failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


# ---------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------

def expected_files(verb: str, cfg: dict) -> set:
    if verb == "check":
        return {"verdict.json"}
    if verb == "sweep":
        return {"sweep.csv"}
    outputs = cfg.get("outputs", {})
    wanted = {
        "verdict.json": outputs.get("verdict", True),
        "monitors.csv": outputs.get("monitors", True),
        "summary.txt": outputs.get("summary", True),
        "snapshots.bin": outputs.get("snapshots", False),
        "trace.csv": bool(outputs.get("trace")),
    }
    return {name for name, on in wanted.items() if on}


class Checker:
    """Checks every operation of every pass.  At seed 0 of the full size
    the outputs are compared with the references; otherwise with the
    first pass only (plus the checks that need no reference)."""

    def __init__(self, workload: str, configs: Path, use_reference: bool):
        self.ops = workloads.WORKLOADS[workload]
        self.cfgs = {name: yaml.safe_load((configs / f"{name}.yaml").read_text())
                     for _verb, name in self.ops}
        self.ref_dir = REFERENCE_DIR / workload
        self.manifest = (json.loads((self.ref_dir / "manifest.json").read_text())
                         if use_reference else None)
        self.first = {}
        self.attempted = self.failed = 0
        self.identical = self.compared = 0
        self.problems = []

    def check_op(self, verb: str, config: str, rec: dict, out_dir: Path) -> list:
        if rec["exit"] != 0:
            return [f"exit code {rec['exit']}"]
        cfg = self.cfgs[config]
        files = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
        want = expected_files(verb, cfg)
        if set(files) != want:
            return [f"wrote {files}, expected {sorted(want)}"]
        problems = []
        shas = {name: verify.sha256(out_dir / name) for name in files}
        seen = self.first.setdefault(rec["op"], (shas, rec["grid_updates"]))
        if seen[1] != rec["grid_updates"]:
            problems.append(f"grid updates {rec['grid_updates']} != first pass {seen[1]}")
        for name in files:
            if shas[name] != seen[0][name]:
                problems.append(f"{name} not byte-identical to the first pass")
        n = int(cfg["grid"]["n"])
        if "monitors.csv" in want:
            steps = verify.csv_rows(out_dir / "monitors.csv") - 1
            if n * steps != rec["grid_updates"]:
                problems.append(f"monitors.csv has {steps} steps, counted "
                                f"{rec['grid_updates'] / n:g}")
        if "sweep.csv" in want:
            cells = math.prod(int(ax["count"]) for ax in cfg["sweep"]["axes"])
            rows = verify.csv_rows(out_dir / "sweep.csv")
            if rows != cells:
                problems.append(f"sweep.csv has {rows} rows for {cells} cells")
        if "trace.csv" in want:
            tol = float(cfg.get("run", {}).get("tolerances", {}).get("trace", 0.01))
            dev = verify.max_trace_deviation(out_dir / "trace.csv")
            if not dev <= tol:
                problems.append(f"trace deviation {dev} exceeds tolerance {tol}")
        if self.manifest is not None:
            ref = self.manifest["ops"][rec["op"]]
            if rec["grid_updates"] != ref["grid_updates"]:
                problems.append(f"grid updates {rec['grid_updates']} != reference "
                                f"{ref['grid_updates']}")
            if sorted(ref["files"]) != files:
                problems.append("file set differs from the reference")
            else:
                for name in files:
                    self.compared += 1
                    if shas[name] == ref["files"][name]["sha256"]:
                        self.identical += 1
                    else:
                        problems += [f"{name}: {p}" for p in verify.compare_file(
                            out_dir / name, self.ref_dir / rec["op"])]
        elif seen[0] is not shas:
            self.compared += len(files)
            self.identical += sum(shas[k] == seen[0][k] for k in files)
        return problems

    def check_pass(self, pass_rec: dict, work: Path) -> None:
        for (verb, config), rec in zip(self.ops, pass_rec["ops"]):
            self.attempted += 1
            problems = self.check_op(verb, config, rec, work / pass_rec["dir"] / rec["op"])
            if problems:
                self.failed += 1
                self.problems += [f"{pass_rec['dir']}/{rec['op']}: {p}" for p in problems]


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------

def tail_percentile(values: list):
    """Highest of the usual percentiles with at least ten samples above
    it, as (percentile, value), or None when there are too few."""
    ordered = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = len(ordered) - math.ceil(len(ordered) * pct / 100.0)
        if beyond >= 10:
            return pct, ordered[len(ordered) - beyond - 1]
    return None


def end_to_end(passes: list, probes: list, peak_rss_kb: int, checker: Checker) -> dict:
    walls = [p["wall_s"] for p in passes]
    updates = [sum(op["grid_updates"] for op in p["ops"]) for p in passes]
    return {
        "setup_s": statistics.median(p["import_s"] + p["build_s"] for p in probes),
        "wall_s": statistics.median(walls),
        "grid_updates_per_s": statistics.median(u / w for u, w in zip(updates, walls)),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "success_ratio": 1.0 - checker.failed / checker.attempted,
    }


def per_layer(result: dict, probes: list, workload: str) -> tuple:
    """Per-layer metrics from the traced run, and any count that did not
    repeat exactly between traced passes."""
    passes = result["passes"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"] and p["jobs"] == 1]
    pool = [p for p in passes if p["jobs"] == workloads.JOBS]
    metrics = {"setup.import_s": statistics.median(p["import_s"] for p in probes)}
    problems = []

    def repeat(name, values):
        if len(set(values)) != 1:
            problems.append(f"{name} differs between traced passes: {values}")
        return values[0]

    for name in SPAN_METRICS:
        aggs = [p["trace"]["spans"].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                for p in traced]
        metrics[f"{name}.s"] = statistics.median(a["s"] for a in aggs)
        metrics[f"{name}.calls"] = repeat(f"{name}.calls", [a["calls"] for a in aggs])
        if name == "solver.run":
            metrics["solver.run.self_s"] = statistics.median(a["self_s"] for a in aggs)
    cells = [p["trace"]["spans"].get("cli.sweep_cell", {"calls": 0})["calls"] for p in traced]
    metrics["cli.sweep_cell.calls"] = repeat("cli.sweep_cell.calls", cells)
    for name in COUNT_METRICS:
        metrics[name] = repeat(name, [p["trace"]["counts"][name] for p in traced])

    sweep_ops = [i for i, (verb, _c) in enumerate(workloads.WORKLOADS[workload])
                 if verb == "sweep"]
    metrics["cli.sweep.parallel_efficiency"] = 0.0
    if sweep_ops:
        serial_s = statistics.median(sum(p["ops"][i]["s"] for i in sweep_ops) for p in plain)
        pool_s = sum(pool[0]["ops"][i]["s"] for i in sweep_ops)
        metrics["cli.sweep.parallel_efficiency"] = serial_s / (workloads.JOBS * pool_s)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain))
    metrics.update(result["ladder"])
    return metrics, problems


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every config and the ladder (smoke test only)")
    return ap.parse_args()


def measure(args, work: Path, start: float) -> dict:
    configs = work / "configs"
    paths = workloads.generate(args.workload, args.seed, configs, tiny=args.tiny)
    probes = setup_probes(paths[workloads.first_config(args.workload)],
                          1 if args.tiny else SETUP_PROBES, start)
    result = run_passes(args, configs, work, start)
    checker = Checker(args.workload, configs, args.seed == 0 and not args.tiny)
    for pass_rec in result["passes"]:
        checker.check_pass(pass_rec, work)
    problems = checker.problems + result["failures"]

    against = "reference" if checker.manifest is not None else "first pass"
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(result['passes'])}")
    if args.trace == 0:
        walls = [p["wall_s"] for p in result["passes"]]
        tail = tail_percentile(walls)
        print(f"wall_s: median {statistics.median(walls):.4f} s over n={len(walls)} "
              + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
                 "(no percentile has ten samples beyond it)"))
    print(f"byte-identical to {against}: {checker.identical} of {checker.compared} files")
    print(f"failed_ratio: {checker.failed}/{checker.attempted} "
          f"= {checker.failed / checker.attempted:g}")

    if args.trace == 0:
        metrics = end_to_end(result["passes"], probes, result["peak_rss_kb"], checker)
        units = END_TO_END
    else:
        metrics, repeat_problems = per_layer(result, probes, args.workload)
        problems += repeat_problems
        units = per_layer_metrics()
    for p in problems[:20]:
        print(f"problem: {p}")
    for name, unit in units:
        value = metrics[name]
        print(f"{name}: {value:.6g} {unit}" if isinstance(value, float) else f"{name}: {value} {unit}")
    return {
        "correct": not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


def main() -> int:
    start = time.monotonic()
    if not (SRC / "shockline" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC / 'shockline'}; "
                         "run from the root of a full checkout\n")
        return 2
    args = parse_args()
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        out = measure(args, work, start)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
