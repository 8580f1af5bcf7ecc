"""Batch front-end: scenario configs, theorem evaluation, simulation,
parameter sweeps, and deterministic CSV/JSON emission.

Verbs: check (criteria only), simulate (full run), sweep, validate
(config lint).  Config files are YAML with sections gas, damping,
profile, grid, run, outputs (see README for the schema).  All floats
are serialized with 17 significant digits so identical configs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import itertools
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import criteria, solver
from .core import DampingLaw, GasModel, classify_regime
from .errors import ConfigError, DomainError, RegimeError, ShocklineError
from .fields import Grid, init_field

log = logging.getLogger("shockline")

TRACE_HEADER = "t,x,phi,y_or_q,riccati_y,deviation"
MONITOR_HEADER = "t,max_abs_ux,min_rho,y_max,q_max,flags"
SWEEP_BUDGET_DEFAULT = 4096

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _fmt(x) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------
# config loading and validation
# ---------------------------------------------------------------------

def _need(cfg: dict, key: str, section: str):
    if key not in cfg:
        raise ConfigError(f"missing key {key!r} in section {section!r}")
    return cfg[key]


def _mapping(value, where: str) -> dict:
    """A copy of the config section value, which must be a mapping."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {value!r}")
    return dict(value)


# libyaml's loader where PyYAML was built with it, else PyYAML's own
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# libyaml composes nested nodes by C recursion, which crashes the
# interpreter some 20 000 levels deep where PyYAML's own loader raises
# RecursionError.  Every level needs an indicator of its own, one of
# _NESTING_MARKS, so a text with fewer than _MAX_LIBYAML_MARKS of them
# cannot nest that deep; a longer one goes to PyYAML's own loader.
_NESTING_MARKS = "[{-?:"
_MAX_LIBYAML_MARKS = 1000


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
        marks = sum(map(text.count, _NESTING_MARKS))
        cfg = yaml.load(text, Loader=_LOADER if marks < _MAX_LIBYAML_MARKS
                        else yaml.SafeLoader)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except (yaml.YAMLError, ValueError) as e:  # ValueError: an unreadable scalar
        raise ConfigError(f"config is not valid YAML: {e}") from e
    except RecursionError:
        raise ConfigError("config nests too deeply to read") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def _integer(value, where: str) -> int:
    """int(value), refusing a float with a fractional part, which int
    would truncate (128.0 passes)."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _require_finite(node, where: str) -> None:
    """Reject inf and nan anywhere in the config, including numbers
    written as strings and integers that no float can hold, since every
    number feeds the model.  A config too deep to walk, as one holding
    an alias to itself is, is rejected too."""
    def walk(node, where):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{where}.{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{where}[{i}]")
        elif isinstance(node, (int, float, str)):
            try:
                value = float(node)
            except ValueError:
                return
            except OverflowError:  # an int beyond double range
                value = math.inf
            if not math.isfinite(value):
                raise ConfigError(f"{where} must be finite, got {node!r}")

    try:
        walk(node, where)
    except RecursionError:
        raise ConfigError(
            f"{where} nests too deeply or refers to itself") from None


def build_scenario(cfg: dict) -> dict:
    """Validate a scenario config and construct all domain objects.

    Every downstream precondition is checked here so that invalid
    configs never reach compute.
    """
    _require_finite(cfg, "config")
    try:
        gas_cfg = _mapping(_need(cfg, "gas", "scenario"), "gas")
        gm = GasModel(
            gamma=float(_need(gas_cfg, "gamma", "gas")),
            big_k=float(_need(gas_cfg, "big_k", "gas")),
        )
        damp_cfg = _mapping(_need(cfg, "damping", "scenario"), "damping")
        dl = DampingLaw(
            alpha=float(_need(damp_cfg, "alpha", "damping")),
            lam=float(_need(damp_cfg, "lambda", "damping")),
        )
        grid_cfg = _mapping(_need(cfg, "grid", "scenario"), "grid")
        if "x0" in grid_cfg:  # the domain starts at 0; x0 only relabelled it
            raise ConfigError(
                "grid.x0 is no longer supported: the domain is [0, L); "
                "subtract x0 from profile.center and outputs.trace.x_start")
        grid = Grid(
            n=_integer(_need(grid_cfg, "n", "grid"), "grid.n"),
            length=float(_need(grid_cfg, "L", "grid")),
        )
        profile = _mapping(_need(cfg, "profile", "scenario"), "profile")
        if "periods" in profile:
            profile["periods"] = _integer(profile["periods"], "profile.periods")
        field = init_field(profile, grid, gm, dl)
        run_cfg = _mapping(cfg.get("run", {}), "run")
        t_end = float(run_cfg.get("t_end", 0.0))
        cfl = float(run_cfg.get("cfl", solver.DEFAULT_CFL))
        if t_end < 0.0:
            raise ConfigError(f"run.t_end must be nonnegative, got {t_end}")
        if t_end > 0.0 and not (0.0 < cfl <= solver.DEFAULT_CFL):
            raise ConfigError(
                f"run.cfl must lie in (0, {solver.DEFAULT_CFL}], got {cfl}"
            )
        tolerances = _mapping(run_cfg.get("tolerances", {}), "run.tolerances")
        trace_tol = float(tolerances.get("trace", 0.01))
        if not (0.0 < trace_tol < 1.0):
            raise ConfigError(f"run.tolerances.trace must be in (0,1), got {trace_tol}")
        outputs = _mapping(cfg.get("outputs", {}), "outputs")
        trace_req = outputs.get("trace")
        if trace_req is not None:
            trace_req = _mapping(trace_req, "outputs.trace")
            direction = str(trace_req.get("direction", "forward")).lower()
            if direction not in ("forward", "backward"):
                raise ConfigError(
                    f"outputs.trace.direction must be forward|backward, "
                    f"got {direction!r}"
                )
            outputs["trace"] = {
                "x_start": float(trace_req.get("x_start", 0.0)),
                "direction": solver.Direction(direction),
            }
    except DomainError as e:
        raise ConfigError(str(e)) from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"malformed numeric field: {e}") from e
    return {
        "gas": gm, "damping": dl, "field": field, "t_end": t_end, "cfl": cfl,
        "trace_tol": trace_tol, "outputs": outputs,
    }


# ---------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------

def verdict_json(verdict: criteria.Verdict) -> str:
    return json.dumps(verdict.to_dict(), sort_keys=True, indent=2) + "\n"


def monitors_csv(mon: solver.Monitors) -> str:
    """Flags column: three characters (invariant region, ceiling,
    floor); uppercase = holding, lowercase = violated by this time,
    '-' = audit off (see solver.Audit)."""
    audits = (("R", mon.invariant), ("C", mon.ceiling), ("F", mon.floor))
    lines = [MONITOR_HEADER]
    for row in zip(mon.ts, mon.max_abs_ux, mon.min_rho, mon.y_max, mon.q_max):
        flags = "".join([
            "-" if audit.ok is None else letter.lower() if audit.violated_by(row[0])
            else letter
            for letter, audit in audits
        ])
        lines.append(",".join(map(_fmt, row)) + "," + flags)
    return "\n".join(lines) + "\n"


def trace_csv(trace: solver.CharTrace, report: solver.CrossValidationReport) -> str:
    lines = [TRACE_HEADER]
    for row in zip(trace.times, trace.xs, trace.phi, trace.y_or_q,
                   report.y_integrated, report.deviations):
        lines.append(",".join(map(_fmt, row)))
    return "\n".join(lines) + "\n"


def summary_text(scn: dict, verdict: criteria.Verdict, result: solver.RunResult) -> str:
    gm, dl = scn["gas"], scn["damping"]
    regime = classify_regime(gm, dl)
    lines = [
        "scenario summary",
        f"gamma={_fmt(gm.gamma)} big_k={_fmt(gm.big_k)} "
        f"alpha={_fmt(dl.alpha)} lambda={_fmt(dl.lam)}",
        f"regime: {regime.label} theorem={regime.applicable_theorem.value}",
        f"verdict: fired={str(verdict.fired).lower()} "
        f"theorem={verdict.theorem.value}",
    ]
    mon = result.monitors
    if result.broke_down:
        rep = result.outcome
        lines.append(
            f"breakdown: t in [{_fmt(rep.t_prev)}, {_fmt(rep.t)}] "
            f"max_abs_ux={_fmt(rep.max_abs_ux)}"
        )
    else:
        lines.append(f"completed: t={_fmt(result.outcome.t)}")
    lines.append(_audit("invariant region", mon.invariant))
    if mon.ceiling.ok is not None:
        lines.append(_audit("ceiling", mon.ceiling))
    if regime.has_density_floor:
        lines.append(_floor_audit(mon))
    return "\n".join(lines) + "\n"


def _audit(name: str, audit: solver.Audit) -> str:
    return f"{name} audit: " + (
        f"violated at t={_fmt(audit.violation_t)}" if audit.violated_by() else "ok")


def _floor_audit(mon: solver.Monitors) -> str:
    """The density floor line: whether the floor existed, was reached
    and stayed in double range, then the audit itself."""
    if mon.floor_t_min is None:
        return ("density floor audit: not computed (floor constants outside "
                "double range)")
    if mon.floor.ok is None:
        if mon.floor_range_t is None:
            return "density floor audit: not exercised (run ended before t_min)"
        return ("density floor audit: not computed (floor outside double range "
                "at every step past t_min)")
    line = _audit("density floor", mon.floor)
    if mon.floor_range_t is not None:
        line += (" (floor outside double range at some steps from "
                 f"t={_fmt(mon.floor_range_t)})")
    return line


def _write(out_dir: Path, name: str, text: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


# ---------------------------------------------------------------------
# verb implementations
# ---------------------------------------------------------------------

def _evaluate(scn: dict) -> criteria.Verdict:
    return criteria.evaluate(scn["field"], scn["gas"], scn["damping"])


def cmd_validate(args) -> int:
    build_scenario(load_config(args.config))
    print("config ok")
    return EXIT_OK


def cmd_check(args) -> int:
    scn = build_scenario(load_config(args.config))
    verdict = _evaluate(scn)
    text = verdict_json(verdict)
    sys.stdout.write(text)
    if args.out:
        _write(Path(args.out), "verdict.json", text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    clock = [time.perf_counter()]
    phases = dict.fromkeys(("build", "criteria", "run", "trace", "write"), 0.0)

    def lap(phase):  # charge the wall time since the previous lap to phase
        clock.append(time.perf_counter())
        phases[phase] += clock[-1] - clock[-2]

    scn = build_scenario(load_config(args.config))
    if scn["t_end"] <= 0.0:
        raise ConfigError("simulate requires run.t_end > 0")
    lap("build")
    verdict = _evaluate(scn)
    lap("criteria")
    outputs = scn["outputs"]
    out_dir = Path(args.out) if args.out else Path(".")
    field, trace_req = scn["field"], outputs.get("trace")
    # only the trace reads the whole history: without one, snapshots.bin
    # is written as the run goes, or no record is kept at all
    want_snaps = outputs.get("snapshots", False)
    stream = want_snaps and not trace_req
    if stream:
        out_dir.mkdir(parents=True, exist_ok=True)
        sink = solver.SnapshotWriter(
            out_dir / "snapshots.bin", field.grid, field.gas, field.damping)
    else:
        sink = contextlib.nullcontext(None if trace_req else solver.DiscardSnapshots())
    with sink as snapshots:
        result = solver.run(field, scn["t_end"], cfl=scn["cfl"], snapshots=snapshots)
    lap("run")
    written = result.snapshots.bytes if stream else None
    if outputs.get("verdict", True):
        _write(out_dir, "verdict.json", verdict_json(verdict))
    if outputs.get("monitors", True):
        _write(out_dir, "monitors.csv", monitors_csv(result.monitors))
    if want_snaps and trace_req:
        out_dir.mkdir(parents=True, exist_ok=True)
        written = solver.write_snapshots(out_dir / "snapshots.bin", result.snapshots)
    # the run's own outputs are on disk before the trace, which can fail
    summary = summary_text(scn, verdict, result)
    if outputs.get("summary", True):
        _write(out_dir, "summary.txt", summary)
    lap("write")
    trace_note = ""
    if trace_req:
        trace = solver.trace_characteristic(
            result, trace_req["x_start"], trace_req["direction"])
        report = solver.cross_validate_riccati(
            trace, scn["gas"], scn["damping"], scn["trace_tol"]
        )
        lap("trace")
        _write(out_dir, "trace.csv", trace_csv(trace, report))
        trace_note = (f", trace deviation {report.deviation:.3g} "
                      f"{'within' if report.within_tol else 'over'} "
                      f"tolerance {scn['trace_tol']:g}")
    sys.stdout.write(summary)
    lap("write")
    dts = np.diff(result.monitors.ts)
    snap_note = (f", {result.snapshots.records} snapshot records"
                 f"{' kept in memory for the trace' if trace_req else ''}, "
                 + (f"{written} bytes written" if written is not None else "none written"))
    log.info(
        "simulate: %d steps, dt %s, %s at t=%.6g, %.3f s (%s)%s", dts.size,
        f"{dts.min():.6g}..{dts.max():.6g}" if dts.size else "-",
        "breakdown" if result.broke_down else "completed", result.outcome.t,
        clock[-1] - clock[0], ", ".join(f"{k} {s:.3f}" for k, s in phases.items()),
        trace_note + snap_note)
    return EXIT_OK


# ---------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------

_AXIS_NAMES = ("alpha", "lambda", "gamma", "steepness")

SWEEP_HEADER = (
    "regime,theorem,fired,breakdown_observed,breakdown_time_bracket,"
    "floor_violations,error"
)


def _apply_axis(cfg: dict, name: str, value: float) -> None:
    """Set the config key the axis is named after; steepness instead
    scales the profile amplitudes (steepness 1 is the template), so it
    needs at least one to scale."""
    if name == "steepness":
        amps = [key for key in ("u_amp", "tau_amp") if key in cfg["profile"]]
        if not amps:
            raise ConfigError(
                "a steepness axis needs profile.u_amp or profile.tau_amp to scale")
        for key in amps:
            cfg["profile"][key] = cfg["profile"][key] * value
    else:
        cfg["gas" if name == "gamma" else "damping"][name] = value


def _sweep_cell(payload) -> tuple:
    """(row, accepted steps) of one sweep cell; never raises, failures
    land in the error column.  The row reads no gradient variable and no
    snapshot, so the run skips the y/q record and keeps no snapshots."""
    cfg, axes, values = payload
    cell_cfg = copy.deepcopy(cfg)
    for name, v in zip(axes, values):
        _apply_axis(cell_cfg, name, v)
    prefix = ",".join(_fmt(v) for v in values)
    steps = 0
    try:
        scn = build_scenario(cell_cfg)
        regime = classify_regime(scn["gas"], scn["damping"])
        verdict = _evaluate(scn)
        broke, bracket, floor_violations = "false", "", 0
        if scn["t_end"] > 0.0:
            result = solver.run(scn["field"], scn["t_end"], monitors_requested=False,
                                cfl=scn["cfl"], snapshots=solver.DiscardSnapshots())
            steps = len(result.monitors.ts) - 1
            if result.broke_down:
                rep = result.outcome
                broke = "true"
                bracket = f"{_fmt(rep.t_prev)}..{_fmt(rep.t)}"
            mon = result.monitors
            floor_violations = sum(map(mon.floor.violated_by, mon.ts))
        row = ",".join(
            (
                regime.label,
                verdict.theorem.value,
                str(verdict.fired).lower(),
                broke,
                bracket,
                str(floor_violations),
                "",
            )
        )
    except ShocklineError as e:
        # commas and line breaks would split the row
        error = f"{type(e).__name__}: {e}".replace(",", ";")
        error = " ".join(error.splitlines())
        row = ",".join(("", "NONE", "false", "false", "", "0", error))
    return f"{prefix},{row}", steps


def _steps_solver(cfg: dict) -> bool:
    """Whether the sweep's cells run the solver: the template's run.t_end,
    read as build_scenario reads it (no axis sets it), is positive and
    finite.  Otherwise every cell only evaluates the criteria or is an
    error row."""
    try:
        return 0.0 < float(dict(cfg.get("run", {})).get("t_end", 0.0)) < math.inf
    except (TypeError, ValueError, OverflowError):
        return False


def cmd_sweep(args) -> int:
    start = time.perf_counter()
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = load_config(args.config)
    sweep_cfg = cfg.pop("sweep", None)
    if not (sweep_cfg and isinstance(sweep_cfg, dict)):
        raise ConfigError("sweep config needs a 'sweep' section (a mapping)")
    _require_finite(sweep_cfg, "sweep")
    axes_cfg = sweep_cfg.get("axes", [])
    if not (isinstance(axes_cfg, list) and 1 <= len(axes_cfg) <= 2):
        raise ConfigError("sweep needs one or two axes")
    axes, spans, probe = [], [], copy.deepcopy(cfg)
    try:
        for i, ax in enumerate(axes_cfg):
            where = f"sweep.axes[{i}]"
            ax = _mapping(ax, where)
            name = ax.get("name")
            if name not in _AXIS_NAMES:
                raise ConfigError(
                    f"axis name must be one of {_AXIS_NAMES}, got {name!r}")
            count = _integer(ax.get("count", 0), f"{where}.count")
            if count < 1:
                raise ConfigError("axis count must be at least 1")
            lo, hi = (float(_need(ax, key, where)) for key in ("start", "stop"))
            if not math.isfinite(hi - lo):
                raise ConfigError(f"{where} spans more than double range")
            _apply_axis(probe, name, 1.0)  # the template has what the axis sets
            axes.append(name)
            spans.append((lo, hi, count))
        budget = _integer(sweep_cfg.get("budget", SWEEP_BUDGET_DEFAULT), "sweep.budget")
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        # OverflowError: a steepness axis scaling an integer no double holds
        raise ConfigError(f"malformed sweep: {type(e).__name__}: {e}") from e
    n_cells = math.prod(count for _, _, count in spans)
    if n_cells > budget:
        raise ConfigError(f"sweep has {n_cells} cells, budget is {budget}")
    grids = [np.linspace(*span) for span in spans]

    # the first axis varies slowest
    cells = [
        (cfg, tuple(axes), tuple(float(v) for v in values))
        for values in itertools.product(*grids)
    ]

    # a pool only for cells that step the solver: a criteria-only cell
    # costs less than the hand-off to a worker, let alone its start-up;
    # the pool forks every worker at once, so no more than there are cells
    jobs = 1
    if _steps_solver(cfg):
        jobs = min(args.jobs or os.cpu_count() or 1, len(cells))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # on use: only sweeps fork
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_sweep_cell, cells))
    else:
        done = [_sweep_cell(c) for c in cells]
    rows, steps = zip(*done)
    log.info(
        "sweep: %d cells, %d steps, %d error rows, %d jobs, %.3f s", len(rows),
        sum(steps), sum(not row.endswith(",") for row in rows), jobs,
        time.perf_counter() - start)

    header = ",".join(axes) + "," + SWEEP_HEADER
    text = header + "\n" + "\n".join(rows) + "\n"
    if args.out:
        _write(Path(args.out), "sweep.csv", text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

def _error_json(exc: Exception) -> str:
    return json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
    ) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shockline",
        description="Blow-up analysis toolkit for damped Lagrangian gas dynamics",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, fn in (
        ("check", cmd_check),
        ("simulate", cmd_simulate),
        ("sweep", cmd_sweep),
        ("validate", cmd_validate),
    ):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if verb == "sweep":
            p.add_argument("--jobs", type=int, default=None)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    level = os.environ.get("SHOCKLINE_LOG", "WARNING").upper()
    # the package logger alone; an unknown level name falls back to WARNING
    log.setLevel(level if isinstance(logging.getLevelName(level), int) else "WARNING")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, RegimeError) as e:
        sys.stderr.write(_error_json(e))
        return EXIT_CONFIG
    except (ShocklineError, OSError, MemoryError) as e:
        sys.stderr.write(_error_json(e))
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
