"""Pass runner: the one process that puts load on the program.

run.py starts this in a fresh interpreter so that its peak RSS, and that
of the sweep's pool children, belongs to the passes alone.  Every
operation goes through the public entry point ``shockline.cli.main``.

Untraced mode repeats whole passes until --seconds have elapsed.  Traced
mode runs one untraced pass with the workload's pool size (when the
workload sweeps), then alternates untraced and traced passes with
sweeps serial, so that every span lands in this process, and finally
the grid-size ladder.  Results go to --result as JSON; the
outputs of each pass stay in --work for run.py to check.

    python3 perfbench/runner.py --src DIR --workload NAME --configs DIR \
        --work DIR --seconds S --trace 0|1 --result FILE [--tiny]
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

MIN_PASSES = 2
LADDER_SIZES = (128, 1024, 4096)


# ---------------------------------------------------------------------
# grid-update counter (active in every pass)
# ---------------------------------------------------------------------

def install_counter(solver):
    """Rebind solver.run to add n * accepted steps of each run to a
    shared counter.  Sweep workers are forked from this process, so they
    inherit the rebinding and add to the same counter.  One locked add
    per run is the whole cost."""
    counter = multiprocessing.Value("q", 0)
    original = solver.run

    def counted_run(field, *args, **kwargs):
        result = original(field, *args, **kwargs)
        # monitors hold the initial row plus one row per accepted step
        with counter.get_lock():
            counter.value += field.grid.n * (len(result.monitors.ts) - 1)
        return result

    solver.run = counted_run
    return counter, original


# ---------------------------------------------------------------------
# tracing by rebinding module attributes
# ---------------------------------------------------------------------

class Tracer:
    """Spans and counts recorded around calls into the package's modules.

    A span is (name, start, end, parent index); spans stay in memory and
    are aggregated once the pass ends.  Self time is a span's duration
    minus that of its direct children, which run one after another.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.saved = []

    def _rebind(self, module, attr, wrapper):
        self.saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def span(self, module, attr, name, extra=None):
        fn = getattr(module, attr)
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if extra is not None:
                key, amount = extra(args, out)
                counts[key] = counts.get(key, 0) + amount
            return out

        self._rebind(module, attr, wrapper)

    def count(self, module, attr, name):
        fn = getattr(module, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._rebind(module, attr, wrapper)

    def restore(self) -> bool:
        """Undo every rebinding; True when each attribute is back to the
        object it held before."""
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        return all(getattr(m, a) is o for m, a, o in self.saved)

    def aggregate(self) -> dict:
        out = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _parent), ch in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - ch
        return {"spans": out, "counts": dict(self.counts)}


def install_tracer(cli, criteria, solver, riccati, bounds, core) -> Tracer:
    tr = Tracer()
    for attr in ("verdict_json", "monitors_csv", "trace_csv", "summary_text"):
        tr.span(cli, attr, "cli.emit")
    tr.span(cli, "build_scenario", "cli.build_scenario")
    tr.span(cli, "_sweep_cell", "cli.sweep_cell")
    tr.span(criteria, "evaluate", "criteria.evaluate")
    tr.span(solver, "run", "solver.run")
    tr.span(solver, "step", "solver.step")
    tr.span(
        solver, "trace_characteristic", "solver.trace_characteristic",
        extra=lambda args, out: ("solver.trace_characteristic.frames", len(out.times)),
    )
    tr.span(solver, "cross_validate_riccati", "solver.cross_validate_riccati")
    tr.span(riccati, "integrate", "riccati.integrate")
    tr.span(
        solver, "write_snapshots", "solver.write_snapshots",
        extra=lambda args, out: ("solver.write_snapshots.bytes", os.path.getsize(args[0])),
    )
    tr.count(bounds, "density_floor", "bounds.density_floor.calls")
    tr.count(core, "riccati_coefficients", "core.riccati_coefficients.calls")
    # frame and byte totals read 0, not missing, when nothing is traced
    tr.counts.setdefault("solver.trace_characteristic.frames", 0)
    tr.counts.setdefault("solver.write_snapshots.bytes", 0)
    return tr


# ---------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------

def _cpu_s() -> float:
    """CPU seconds of this process and of its reaped children (the
    sweep's pool workers are reaped when each sweep ends)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(cli, ops, configs, pass_dir: Path, jobs: int, counter, tracer=None) -> dict:
    """One pass: every operation of the workload once, through cli.main."""
    records = []
    t_pass = time.perf_counter()
    cpu_pass = _cpu_s()
    for verb, config in ops:
        name = workloads.op_name(verb, config)
        argv = [verb, "--config", str(configs / f"{config}.yaml"),
                "--out", str(pass_dir / name)]
        if verb == "sweep":
            argv += ["--jobs", str(jobs)]
        before = counter.value
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(["cli.main", t0, None, -1])
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:  # the CLI promises no traceback; record a breach
            code = "exception: " + traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.spans[tracer.stack.pop()][2] = t1
        records.append({
            "op": name, "exit": code, "s": t1 - t0,
            "grid_updates": counter.value - before,
        })
    return {
        "dir": pass_dir.name, "jobs": jobs, "traced": tracer is not None,
        "wall_s": time.perf_counter() - t_pass, "cpu_s": _cpu_s() - cpu_pass,
        "ops": records,
    }


def _repeat_passes(make_pass, seconds: float) -> list:
    """Run passes until the next one would end past `seconds`, keeping at
    least MIN_PASSES so that pass-to-pass identity is always checked."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(make_pass(len(passes)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes


# ---------------------------------------------------------------------
# grid-size ladder (traced mode only)
# ---------------------------------------------------------------------

def _per_call_s(fn, min_s: float, repeats: int = 5) -> float:
    """Median over repeats of the mean per-call time of a loop of fn
    that lasts at least min_s."""
    loops, t = 1, 0.0
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        t = time.perf_counter() - t0
        if t >= min_s:
            break
        loops *= 2
    samples = [t / loops]
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / loops)
    return statistics.median(samples)


def run_ladder(tiny: bool) -> tuple:
    """Per-layer timings at several grid sizes on the long_run physics.
    Returns (metrics, failures)."""
    from shockline import cli, criteria, fields, riccati, solver

    base = workloads.load("long_run")
    t_mon = 0.05 if tiny else 0.5
    repeats = 1 if tiny else 3
    min_s = 0.002 if tiny else 0.02
    metrics, failures = {}, []
    for n in LADDER_SIZES:
        cfg = copy.deepcopy(base)
        cfg["grid"]["n"] = n
        scn = cli.build_scenario(cfg)
        field, gm, dl = scn["field"], scn["gas"], scn["damping"]
        dx = field.grid.dx
        u = field.u
        metrics[f"fields.ddx2.n{n}.us"] = 1e6 * _per_call_s(lambda: fields.ddx2(u, dx), min_s)
        metrics[f"fields.ddx4.n{n}.us"] = 1e6 * _per_call_s(lambda: fields.ddx4(u, dx), min_s)
        metrics[f"fields.diff4.n{n}.us"] = 1e6 * _per_call_s(lambda: fields.diff4(u), min_s)
        dt = scn["cfl"] * dx / float(field.sound().max())
        metrics[f"solver.step.n{n}.us"] = 1e6 * _per_call_s(lambda: solver.step(field, dt), min_s)
        metrics[f"criteria.evaluate.n{n}.us"] = 1e6 * _per_call_s(
            lambda: criteria.evaluate(field, gm, dl), min_s)

        on, off = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            res_on = solver.run(field, t_mon, monitors_requested=True, cfl=scn["cfl"])
            on.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            solver.run(field, t_mon, monitors_requested=False, cfl=scn["cfl"])
            off.append(time.perf_counter() - t0)
        steps = len(res_on.monitors.ts) - 1
        metrics[f"solver.monitors.n{n}.us_per_step"] = (
            1e6 * (statistics.median(on) - statistics.median(off)) / steps)

        trace = solver.trace_characteristic(res_on, 2.5, solver.Direction.FORWARD)
        metrics[f"solver.trace_characteristic.n{n}.ms"] = 1e3 * _per_call_s(
            lambda: solver.trace_characteristic(res_on, 2.5, solver.Direction.FORWARD),
            min_s, repeats)
        report = solver.cross_validate_riccati(trace, gm, dl, scn["trace_tol"])
        if not report.within_tol:
            failures.append(f"ladder n={n}: Riccati cross-check deviation {report.deviation}")
        metrics[f"solver.cross_validate_riccati.n{n}.ms"] = 1e3 * _per_call_s(
            lambda: solver.cross_validate_riccati(trace, gm, dl, scn["trace_tol"]),
            min_s, repeats)

    # constant coefficients: y' = 1 - y**2 from y0 = -2 has an exact pole
    c0, c2, y0 = 1.0, 1.0, -2.0
    pole = riccati.oracle_pole_time(c0, c2, y0)
    prob = riccati.RiccatiProblem(coeff_source=lambda t: (c0, c2), y0=y0)
    out = riccati.integrate(prob, 2.0 * pole)
    if not (out.kind is riccati.OutcomeKind.BLOWUP and out.t_star_lo <= pole <= out.t_star_hi):
        failures.append(f"oracle: pole {pole} outside bracket [{out.t_star_lo}, {out.t_star_hi}]")
    metrics["riccati.integrate.oracle.us"] = 1e6 * _per_call_s(
        lambda: riccati.integrate(prob, 2.0 * pole), min_s)
    return metrics, failures


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--configs", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from shockline import bounds, cli, core, criteria, riccati, solver

    ops = workloads.WORKLOADS[args.workload]
    sweeps = any(verb == "sweep" for verb, _ in ops)
    counter, run_original = install_counter(solver)
    result = {"failures": []}

    def untraced(tag, jobs):
        return lambda k: run_pass(cli, ops, args.configs, args.work / f"{tag}{k}", jobs, counter)

    if args.trace == 0:
        result["passes"] = _repeat_passes(untraced("pass", workloads.JOBS), args.seconds)
    else:
        # Untraced passes with sweeps serial alternate with traced ones so
        # that slow drift on the machine hits both sides of the overhead
        # ratio; the pool pass gives the sweep's parallel efficiency.
        start = time.perf_counter()
        passes = [untraced("pool", workloads.JOBS)(0)] if sweeps else []

        def traced(k):
            tracer = install_tracer(cli, criteria, solver, riccati, bounds, core)
            try:
                rec = run_pass(cli, ops, args.configs, args.work / f"traced{k}", 1,
                               counter, tracer)
            finally:
                restored = tracer.restore()
            if not restored:
                result["failures"].append("a rebound module attribute was not restored")
            rec["trace"] = tracer.aggregate()
            return rec

        def pair(k):
            passes.append(untraced("plain", 1)(k))
            rec = traced(k)
            passes.append(rec)
            return {"wall_s": passes[-2]["wall_s"] + rec["wall_s"]}

        _repeat_passes(pair, args.seconds - (time.perf_counter() - start))
        result["passes"] = passes

    solver.run = run_original
    if args.trace == 1:
        result["ladder"], failures = run_ladder(args.tiny)
        result["failures"] += failures
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_kb"] = max(usage_self, usage_children)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
