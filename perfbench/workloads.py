"""Workload definitions and seeded config generation.

Each workload is a fixed list of CLI operations over configs kept in
``perfbench/configs``; the four bundled scenarios there are copies of
``scripts/configs``, kept so that editing those examples does not move
the yardstick.  Seed 0 reproduces those configs exactly, and its
outputs are checked against the recorded references.  Any other seed
jitters the profile amplitudes and the sweep axis endpoints by a small
amount drawn from ``numpy.random.default_rng(seed)``, so that the program
sees inputs it was not tuned on while doing nearly the same work.

Lambda axes are not jittered.  The damping branch is chosen by exact
equality lambda == 1, and both sweeps are laid out to hit 1.0 exactly so
that the critical regime is covered; moving the endpoints would replace
that cell row by lambda within about 0.005 of 1.  Such near-critical
lambda currently makes check_theorem_31 raise an uncaught OverflowError
or ZeroDivisionError, a defect of the program that this benchmark, as a
performance yardstick, does not set out to probe.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# The pool size of every sweep.  Fixed rather than taken from the
# machine so that the work done does not depend on where it runs.
JOBS = 2

# Relative jitter of profile amplitudes and absolute jitter of sweep
# axis endpoints for seeds other than 0.  Small enough that the regime
# of every config and the step counts barely move.
AMP_JITTER = 0.005
AXIS_JITTER = 0.005

# (verb, config) per operation; an operation is one CLI invocation.
WORKLOADS = {
    # The configs users run: three scenarios through simulate (the only
    # workload with characteristic tracing and the Riccati cross-check)
    # and check, plus the lambda sweep across the gamma > 3 gap.
    "scenarios": [
        ("simulate", "demo_t32"),
        ("simulate", "demo_t41"),
        ("simulate", "gentle_audit"),
        ("check", "demo_t32"),
        ("check", "demo_t41"),
        ("check", "gentle_audit"),
        ("sweep", "sweep_gap"),
    ],
    # Many short n=128 runs where per-call overhead of step and the
    # monitors dominates; exercises the process pool.
    "sweep_alpha_lambda": [("sweep", "sweep_alpha_lambda")],
    # One large-array run where stencil throughput, the per-step audits
    # and output IO dominate.
    "long_run": [("simulate", "long_run")],
}


def op_name(verb: str, config: str) -> str:
    return f"{verb}-{config}"


def load(name: str) -> dict:
    """A bundled config as it is kept, before any jitter."""
    with open(CONFIG_DIR / f"{name}.yaml") as fh:
        return yaml.safe_load(fh)


def _jitter(cfg: dict, rng: np.random.Generator) -> None:
    profile = cfg["profile"]
    for key in ("u_amp", "tau_amp"):
        if key in profile:
            profile[key] = float(profile[key]) * (1.0 + rng.uniform(-AMP_JITTER, AMP_JITTER))
    for axis in cfg.get("sweep", {}).get("axes", []):
        if axis["name"] == "lambda":
            continue  # keeps lambda = 1.0, the critical branch, on the grid
        # the start only moves up so that the axis value stays >= 0
        axis["start"] = float(axis["start"]) + rng.uniform(0.0, AXIS_JITTER)
        axis["stop"] = float(axis["stop"]) + rng.uniform(-AXIS_JITTER, AXIS_JITTER)


def _shrink(cfg: dict) -> None:
    """Tiny size for the smoke test: same structure, far less work."""
    cfg["grid"]["n"] = min(int(cfg["grid"]["n"]), 64)
    run = cfg.setdefault("run", {})
    if float(run.get("t_end", 0.0)) > 0.0:
        run["t_end"] = min(float(run["t_end"]), 0.2)
    for axis in cfg.get("sweep", {}).get("axes", []):
        axis["count"] = min(int(axis["count"]), 3)


def generate(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> dict:
    """Write the workload's configs for this seed into out_dir.

    Returns {config name: path}.  Configs are jittered in a fixed order,
    so one seed always yields the same files.
    """
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for _verb, name in WORKLOADS[workload]:
        if name in paths:
            continue
        cfg = load(name)
        if seed != 0:
            _jitter(cfg, rng)
        if tiny:
            _shrink(cfg)
        path = out_dir / f"{name}.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=True)
        paths[name] = path
    return paths


def first_config(workload: str) -> str:
    return WORKLOADS[workload][0][1]
