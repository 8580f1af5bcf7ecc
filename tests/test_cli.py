"""CLI verbs, config validation, emission formats, sweeps."""

import contextlib
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shockline
from shockline import Verdict, solver
from shockline.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    MONITOR_HEADER,
    TRACE_HEADER,
    main,
)

BASE = {
    "gas": {"gamma": 2.0, "big_k": 1.0},
    "damping": {"alpha": 1.0, "lambda": 0.0},
    "grid": {"n": 64, "L": 10.0},
    "profile": {"preset": "sine", "tau0": 1.0, "u_amp": -0.2},
    "run": {"t_end": 0.3},
    "outputs": {
        "verdict": True, "monitors": True, "summary": True,
        "snapshots": True, "trace": {"x_start": 2.5, "direction": "forward"},
    },
}


# damping decay underflows to 0 in the first step (RangeError)
DECAY_UNDERFLOWS = {
    "gas": {"gamma": 3.0000001, "big_k": 11381.77},
    "damping": {"alpha": 7.69e22, "lambda": 1.0},
    "grid": {"n": 32, "L": 5.0},
    "profile": {"preset": "sine", "tau0": 1.0, "u_amp": -2.6},
    "run": {"t_end": 0.1},
}
# completes, then the Riccati cross-check overflows and ends in
# ToleranceError
GAP_TRACE_FAILS = {
    "gas": {"gamma": 2.55, "big_k": 1.0},
    "damping": {"alpha": 1.0, "lambda": -3.48},
    "grid": {"n": 64, "L": 5.0},
    "profile": {"preset": "gaussian", "tau0": 1.0, "u_amp": -2.37, "tau_amp": 0.1},
    "run": {"t_end": 1.86},
    "outputs": {"trace": {"x_start": 1.0, "direction": "forward"}},
}
# the T4_2 threshold curve overflows to -inf (RangeError before the scan)
THRESHOLD_OVERFLOWS = {
    "gas": {"gamma": 2.9999999, "big_k": 25684.57},
    "damping": {"alpha": 1e300, "lambda": 1.0},
    "grid": {"n": 32, "L": 5.0},
    "profile": {"preset": "sine", "tau0": 1.0, "u_amp": 0.0},
    "run": {"t_end": 0.1},
}
SMALL_GRID = {"n": 32, "L": 5.0}


def _range_cfg(alpha, lam, profile, t_end):
    return {
        "gas": {"gamma": 2.0, "big_k": 1.0},
        "damping": {"alpha": alpha, "lambda": lam},
        "grid": {"n": 32, "L": 10.0},
        "profile": profile,
        "run": {"t_end": t_end},
    }


GENTLE_SINE = {"preset": "sine", "tau0": 1.0, "u_amp": -0.01, "tau_amp": 0.01}
# (1+t)**(1-lam) overflows Python float range near t = 10: in the
# damping decay (RangeError), with alpha = 0 in log_time_factor alone,
# and (1+t)**lam in y's shift for lambda = 300 (y and q read nan)
DECAY_OVERFLOWS = _range_cfg(1e-306, -300.0, GENTLE_SINE, 20.0)
TIME_FACTOR_OVERFLOWS = _range_cfg(0.0, -300.0, GENTLE_SINE, 20.0)
SHIFT_OVERFLOWS = _range_cfg(0.0, 300.0, GENTLE_SINE, 20.0)
# the bump's derivative divides by width**2 = 0
NARROW_GAUSSIAN = _range_cfg(
    1.0, 0.0, {"preset": "gaussian", "tau0": 1.0, "u_amp": -0.5, "width": 1e-200}, 0.1)
DECAY_OVERFLOWS_SWEEP = dict(DECAY_OVERFLOWS, sweep={
    "axes": [{"name": "lambda", "start": -300.0, "stop": -1.0, "count": 2}]})


def write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE)
        assert main(["validate", "--config", cfg]) == EXIT_OK
        assert "config ok" in capsys.readouterr().out

    def test_gamma3_rejected(self, tmp_path, capsys):
        bad = json.loads(json.dumps(BASE))
        bad["gas"]["gamma"] = 3.0
        cfg = write_cfg(tmp_path, bad)
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "gamma" in err["message"]

    @pytest.mark.parametrize("mutate", [
        lambda c: c["grid"].update(n=4),
        lambda c: c["profile"].update(preset="square"),
        lambda c: c["damping"].update(alpha=-1.0),
        lambda c: c["run"].update(cfl=0.9),
        lambda c: c.pop("gas"),
        lambda c: c["damping"].update(alpha=float("inf")),
        lambda c: c["profile"].update(u_amp=float("nan")),
        lambda c: c["gas"].update(gamma=1.001),
        lambda c: c["outputs"].update(trace=True),
        lambda c: c["outputs"].update(trace=[1]),
        lambda c: c["grid"].update(n=32.9),
        lambda c: c["profile"].update(periods=1.5),
        lambda c: c["gas"].update(gamma=10**401),  # ints past double range
        lambda c: c["profile"].update(periods=10**310),
    ])
    def test_fuzzed_invalid_configs(self, tmp_path, capsys, mutate):
        bad = json.loads(json.dumps(BASE))
        mutate(bad)
        cfg = write_cfg(tmp_path, bad)
        assert main(["validate", "--config", cfg]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_unreadable_integer_rejected(self, tmp_path, capsys):
        # past 4300 digits Python refuses to read the int at all
        text = yaml.safe_dump(BASE).replace("gamma: 2.0", "gamma: " + "1" * 5000)
        assert "1" * 5000 in text
        (tmp_path / "cfg.yaml").write_text(text)
        assert main(["validate", "--config", str(tmp_path / "cfg.yaml")]) \
            == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_integral_floats_accepted(self, tmp_path, capsys):
        ok = json.loads(json.dumps(BASE))
        ok["grid"]["n"] = 64.0
        ok["profile"]["periods"] = 2.0
        assert main(["validate", "--config", write_cfg(tmp_path, ok)]) == EXIT_OK

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.yaml")]) \
            == EXIT_CONFIG


class TestCheck:
    def test_verdict_roundtrip(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        text = (out / "verdict.json").read_text()
        assert text == capsys.readouterr().out
        v = Verdict.from_dict(json.loads(text))
        assert v.theorem.value == "T3_2"
        assert v.fired is False

    @pytest.mark.parametrize("lam", [0.999, 1.001])
    def test_near_critical_lambda_is_range_error(self, tmp_path, capsys, lam):
        # the threshold exponent a(3g-1)/(2(g-3)(1-lam)) is +-1750 here:
        # exp underflows in K2 below 1 and overflows in Kt2 above 1
        cfg_d = json.loads(json.dumps(BASE))
        cfg_d["gas"]["gamma"] = 5.0
        cfg_d["damping"] = {"alpha": 0.5, "lambda": lam}
        cfg = write_cfg(tmp_path, cfg_d)
        assert main(["check", "--config", cfg]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "RangeError"

    def test_sub_gamma_verdict_needs_no_time_factor(self, tmp_path, capsys):
        # T3_2 compares slopes with a curve free of the time factor, whose
        # log a(3g-1)/(2(g-3)(1-lam)) is 2.5e9 at t = 0 here; simulate's
        # ceiling audit needs y and q, which carry it, and exits 3
        cfg_d = json.loads(json.dumps(BASE))
        cfg_d["damping"]["lambda"] = 1.0 + 1e-9
        cfg = write_cfg(tmp_path, cfg_d)
        assert main(["check", "--config", cfg]) == EXIT_OK
        v = Verdict.from_dict(json.loads(capsys.readouterr().out))
        assert (v.theorem.value, v.fired) == ("T3_2", False)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_RUNTIME
        assert json.loads(capsys.readouterr().err)["error"] == "RangeError"


class TestSimulate:
    def test_artifacts_and_headers(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        mon = (out / "monitors.csv").read_text().splitlines()
        assert mon[0] == MONITOR_HEADER
        assert mon[1].split(",")[0] == "0"
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == TRACE_HEADER
        assert len(trace) > 2
        assert (out / "snapshots.bin").exists()
        summary = (out / "summary.txt").read_text()
        assert "density floor audit" in summary  # 1 < gamma < 3 only
        assert "fired=false" in summary

    def test_no_floor_line_for_large_gamma(self, tmp_path):
        cfg_d = json.loads(json.dumps(BASE))
        cfg_d["gas"]["gamma"] = 5.0
        cfg_d["grid"]["L"] = 5.0
        cfg = write_cfg(tmp_path, cfg_d)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert "density floor" not in (out / "summary.txt").read_text()

    def test_no_floor_line_in_sub_gamma_gap(self, tmp_path):
        # lambda = -2 < alpha(g-1)/(g-3) = -1: the floor hypothesis fails,
        # so there is no t_min and no floor audit to report
        cfg_d = json.loads(json.dumps(BASE))
        cfg_d["damping"]["lambda"] = -2.0
        cfg = write_cfg(tmp_path, cfg_d)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.txt").read_text()
        assert "regime: sub/generic_gap theorem=NONE" in summary
        assert "density floor" not in summary

    @pytest.mark.parametrize("gas,damping,grid,profile,t_end,line,flag", [
        # the floor constants overflow: _prepare_audits drops the floor
        ({"gamma": 2.9999999, "big_k": 1e8}, {"alpha": 1e-300, "lambda": 1.000001},
         SMALL_GRID, {"preset": "sine", "tau0": 1.0, "u_amp": -0.2}, 0.0005,
         "density floor audit: not computed (floor constants outside double range)",
         "-"),
        # the floor exists but overflows at every step past t_min
        ({"gamma": 2.9999999, "big_k": 1e-8}, {"alpha": 4.0, "lambda": 1.0},
         SMALL_GRID, {"preset": "sine", "tau0": 1.0, "u_amp": -0.05}, 0.5,
         "density floor audit: not computed (floor outside double range at "
         "every step past t_min)", "-"),
        # the run ends before t_min
        (BASE["gas"], BASE["damping"], SMALL_GRID, BASE["profile"], 0.05,
         "density floor audit: not exercised (run ended before t_min)", "-"),
        # critical branch: the decay leaves double range from some step on,
        # which is reported, not audited as a floor of 0
        ({"gamma": 2.894510980553233, "big_k": 4.853445236789598},
         {"alpha": 2.331347427159546, "lambda": 1.0},
         {"n": 64, "L": 7.4886037742687055},
         {"preset": "sine", "tau0": 1.0, "tau_amp": 0.22784833958424175,
          "u_amp": -2.2622174302136844}, 3.1519173258143605,
         "density floor audit: ok (floor outside double range at some steps "
         "from t=0.24542100066680472)", "F"),
        # the floor decays below the smallest normal double, then to 0,
        # which is reported, not audited as a floor of 0
        ({"gamma": 2.931, "big_k": 9.27}, {"alpha": 0.153, "lambda": 1.74},
         {"n": 32, "L": 10.0},
         {"preset": "sine", "tau0": 1.0, "u_amp": -0.05, "tau_amp": 0.02}, 25.4,
         "density floor audit: ok (floor outside double range at some steps "
         "from t=20.934491847692339)", "F"),
    ], ids=["constants_overflow", "floor_overflows", "before_t_min", "critical_decay",
            "floor_underflows"])
    def test_floor_line_says_why(self, tmp_path, gas, damping, grid, profile, t_end,
                                 line, flag):
        cfg = write_cfg(tmp_path, {
            "gas": gas, "damping": damping, "grid": grid,
            "profile": profile, "run": {"t_end": t_end},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.txt").read_text().splitlines()
        assert [s for s in summary if s.startswith("density floor")] == [line]
        flags = [row.split(",")[-1] for row in
                 (out / "monitors.csv").read_text().splitlines()[1:]]
        assert {f[2] for f in flags} == {flag}  # "-": never audited, never "ok"

    @pytest.mark.parametrize("cfg", [TIME_FACTOR_OVERFLOWS, SHIFT_OVERFLOWS],
                             ids=["time_factor", "shift"])
    def test_y_out_of_range_reads_nan(self, tmp_path, cfg):
        # from the step where y and q leave double range on, their
        # columns read nan and the ceiling audit counts a violation
        out = tmp_path / "out"
        code, err = _run_verb(["simulate", "--config", write_cfg(tmp_path, cfg),
                               "--out", str(out)])
        assert (code, err) == (EXIT_OK, "")
        rows = [row.split(",") for row in
                (out / "monitors.csv").read_text().splitlines()[1:]]
        first = next(i for i, row in enumerate(rows) if row[3] == "nan")
        assert 0 < first and rows[-1][3:5] == ["nan", "nan"]
        assert [row[5][1] for row in rows[first - 1:first + 1]] == ["C", "c"]
        summary = (out / "summary.txt").read_text()
        assert f"ceiling audit: violated at t={rows[first][0]}\n" in summary

    def test_summary_written_before_trace(self, tmp_path):
        # the sub-gamma gap config whose cross-check fails after the run
        cfg = write_cfg(tmp_path, GAP_TRACE_FAILS)
        out = tmp_path / "out"
        code, err = _run_verb(["simulate", "--config", cfg, "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert json.loads(err)["error"] == "ToleranceError"
        assert (out / "summary.txt").read_text().startswith("scenario summary\n")
        assert not (out / "trace.csv").exists()

    def test_breakdown_is_success(self, tmp_path):
        cfg_d = json.loads(json.dumps(BASE))
        cfg_d["grid"]["n"] = 256
        cfg_d["profile"] = {"preset": "gaussian", "tau0": 1.0, "u_amp": -6.0,
                            "width": 0.5}
        cfg_d["run"]["t_end"] = 2.0
        cfg_d["outputs"].pop("trace")
        cfg = write_cfg(tmp_path, cfg_d)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.txt").read_text()
        assert "breakdown: t in [" in summary
        v = Verdict.from_dict(json.loads((out / "verdict.json").read_text()))
        assert v.fired is True

    def test_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        for name in ("verdict.json", "monitors.csv", "trace.csv",
                     "snapshots.bin", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestSweep:
    def sweep_cfg(self, axes, t_end=0.0, budget=None):
        cfg = json.loads(json.dumps(BASE))
        cfg["gas"]["gamma"] = 5.0
        cfg["grid"] = {"n": 64, "L": 5.0}
        cfg["run"] = {"t_end": t_end}
        cfg.pop("outputs")
        cfg["sweep"] = {"axes": axes}
        if budget is not None:
            cfg["sweep"]["budget"] = budget
        return cfg

    def test_unread_ceilings_give_result_rows(self, tmp_path):
        # gamma 4 at lambda just above 1 audits neither ceiling nor floor,
        # though its y/q time factor leaves double range: the cells break
        # down instead of ending in RangeError rows, and simulate records
        # nan y/q maxima with exit 0
        cfg = self.sweep_cfg(
            [{"name": "lambda", "start": 1.0025, "stop": 1.005, "count": 2}],
            t_end=1.0)
        cfg["gas"]["gamma"] = 4.0
        cfg["profile"] = {"preset": "gaussian", "tau0": 1.0, "u_amp": -1.5,
                          "tau_amp": 0.1, "width": 0.3}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out),
                     "--jobs", "1"]) == EXIT_OK
        for row in (out / "sweep.csv").read_text().splitlines()[1:]:
            cells = row.split(",")
            assert cells[1] == "super/generic_gap" and cells[4] == "true"
            assert cells[-1] == ""
        cfg.pop("sweep")
        cfg["damping"]["lambda"] = 1.0025
        cfg["outputs"] = {"monitors": True}
        path = write_cfg(tmp_path, cfg, name="sim.yaml")
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "s")]) \
            == EXIT_OK
        rows = (tmp_path / "s" / "monitors.csv").read_text().splitlines()[1:]
        assert rows and all(r.endswith(",nan,nan,R--") for r in rows)

    def test_lambda_axis_regime_flip(self, tmp_path):
        cfg = write_cfg(tmp_path, self.sweep_cfg(
            [{"name": "lambda", "start": 0.5, "stop": 2.5, "count": 9}]
        ))
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--jobs", "1"]) == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("lambda,")
        regimes = [r.split(",")[1] for r in rows[1:]]
        assert regimes[0] == "super/generic_low"
        assert "super/generic_gap" in regimes
        assert regimes[-1] == "super/generic_high"

    def test_budget_enforced(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.sweep_cfg(
            [{"name": "alpha", "start": 0.0, "stop": 1.0, "count": 10},
             {"name": "lambda", "start": 0.0, "stop": 1.0, "count": 10}],
            budget=50,
        ))
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("mutate", [
        lambda c: c.update(sweep=[1]),
        lambda c: c["sweep"].update(axes=5),
        lambda c: c["sweep"].update(axes=[5]),
        lambda c: c["sweep"]["axes"][0].pop("start"),
        lambda c: c["sweep"]["axes"][0].update(start="a"),
        lambda c: c["sweep"]["axes"][0].update(start=float("inf")),
        lambda c: c["sweep"]["axes"][0].update(count="x"),
        lambda c: c["sweep"]["axes"][0].update(count=2.5),
        lambda c: c["sweep"].update(budget="x"),
        lambda c: c["sweep"].update(budget=10.5),
        lambda c: c.pop("damping"),  # the lambda axis has nothing to set
        lambda c: c["sweep"]["axes"][0].update(stop=10**400),
        lambda c: c.update(jobs="0"),  # "jobs" is taken as the --jobs option
        lambda c: c.update(jobs="-1"),
    ])
    def test_malformed_sweep_is_config_error(self, tmp_path, mutate):
        cfg = self.sweep_cfg([{"name": "lambda", "start": 0.5, "stop": 2.5, "count": 3}])
        mutate(cfg)
        jobs = cfg.pop("jobs", "1")
        code, err = _run_verb(["sweep", "--config", write_cfg(tmp_path, cfg),
                               "--jobs", jobs])
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ConfigError"

    def test_cell_isolation(self, tmp_path):
        # the gamma axis crosses the excluded value 3: that cell fails,
        # the others must be intact
        cfg = write_cfg(tmp_path, self.sweep_cfg(
            [{"name": "gamma", "start": 2.0, "stop": 4.0, "count": 5}]
        ))
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--jobs", "1"]) == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 5
        errs = [r.split(",")[-1] for r in rows]
        assert errs[2].startswith("ConfigError: ")  # gamma = 3
        assert "gamma == 3" in errs[2]
        assert all(e == "" for i, e in enumerate(errs) if i != 2)

    def test_nonfinite_state_is_error_row(self, tmp_path, capsys, monkeypatch):
        # a run whose state stops being finite fails as a RangeError:
        # an error row in a sweep, exit 3 with one-line JSON in simulate
        real_step = solver.step

        def poisoned(field, dt):
            new = real_step(field, dt)
            return new.with_state(new.tau, new.u * np.nan, new.t)

        monkeypatch.setattr(solver, "step", poisoned)
        cfg = write_cfg(tmp_path, self.sweep_cfg(
            [{"name": "alpha", "start": 0.2, "stop": 1.0, "count": 2}], t_end=0.1,
        ))
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--jobs", "1"]) == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(r.split(",")[-1].startswith("RangeError: ") for r in rows)
        cfg = write_cfg(tmp_path, BASE, name="sim.yaml")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) \
            == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "RangeError"

    def test_workers_capped_at_cells(self, tmp_path, monkeypatch, caplog):
        # a recording stand-in for the pool maps in-process: no process
        # starts; t_end > 0, so the cells step the solver and get a pool
        workers = []

        class Pool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
        caplog.set_level(logging.DEBUG, logger="shockline")
        monkeypatch.setenv("SHOCKLINE_LOG", "INFO")
        cfg = write_cfg(tmp_path, self.sweep_cfg(
            [{"name": "alpha", "start": 0.2, "stop": 1.0, "count": 2}], t_end=0.05))
        out8, out1 = tmp_path / "o8", tmp_path / "o1"
        assert main(["sweep", "--config", cfg, "--out", str(out8), "--jobs", "8"]) \
            == EXIT_OK
        assert workers == [2]
        assert re.fullmatch(r"sweep: 2 cells, [1-9]\d* steps, 0 error rows, 2 jobs, \S+ s",
                            caplog.records[-1].getMessage())
        assert main(["sweep", "--config", cfg, "--out", str(out1), "--jobs", "1"]) \
            == EXIT_OK
        assert workers == [2]  # one job runs the cells without a pool
        assert (out8 / "sweep.csv").read_bytes() == (out1 / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("t_end", [0.0, None, -1.0, "x", 1e400])
    def test_criteria_only_cells_run_in_process(self, tmp_path, monkeypatch, caplog,
                                                t_end):
        # cells that run no solver (t_end 0 or absent) or are all error
        # rows (t_end negative, not a number, not finite) get no pool
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a criteria-only sweep started a pool")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", NoPool)
        caplog.set_level(logging.DEBUG, logger="shockline")
        monkeypatch.setenv("SHOCKLINE_LOG", "INFO")
        cfg = self.sweep_cfg([{"name": "lambda", "start": 0.5, "stop": 2.5, "count": 3}])
        if t_end is None:
            cfg.pop("run")
        else:
            cfg["run"]["t_end"] = t_end
        path = write_cfg(tmp_path, cfg)
        out2, out1 = tmp_path / "o2", tmp_path / "o1"
        assert main(["sweep", "--config", path, "--out", str(out2), "--jobs", "2"]) \
            == EXIT_OK
        assert re.fullmatch(r"sweep: 3 cells, 0 steps, \d error rows, 1 jobs, \S+ s",
                            caplog.records[-1].getMessage())
        assert main(["sweep", "--config", path, "--out", str(out1), "--jobs", "1"]) \
            == EXIT_OK
        assert (out2 / "sweep.csv").read_bytes() == (out1 / "sweep.csv").read_bytes()
        errors = [r.split(",")[-1] for r in
                  (out1 / "sweep.csv").read_text().splitlines()[1:]]
        assert all((e == "") == (t_end in (0.0, None)) for e in errors)

    def test_cli_import_loads_no_pool(self):
        # check and simulate never fork: the pool's modules load on use
        src = str(Path(shockline.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys, shockline.cli; "
                "sys.exit('concurrent.futures.process' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=60).returncode == 0

    def test_sweep_determinism_parallel(self, tmp_path):
        cfg = write_cfg(tmp_path, self.sweep_cfg(
            [{"name": "alpha", "start": 0.2, "stop": 1.0, "count": 4}],
            t_end=0.1,
        ))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["sweep", "--config", cfg, "--out", str(out1), "--jobs", "2"])
        main(["sweep", "--config", cfg, "--out", str(out2), "--jobs", "1"])
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


class TestLogging:
    def test_one_info_line_per_verb(self, tmp_path, monkeypatch, caplog):
        # the capture handler takes every level; main sets the package
        # logger's level from SHOCKLINE_LOG (set_level restores it later)
        caplog.set_level(logging.DEBUG, logger="shockline")
        monkeypatch.setenv("SHOCKLINE_LOG", "INFO")
        cfg = write_cfg(tmp_path, BASE)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) \
            == EXIT_OK
        sweep = write_cfg(tmp_path, TestSweep().sweep_cfg(
            [{"name": "gamma", "start": 2.0, "stop": 4.0, "count": 3}]
        ), name="sweep.yaml")
        assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "w"),
                     "--jobs", "1"]) == EXIT_OK
        lines = [r.getMessage() for r in caplog.records if r.name == "shockline"]
        assert len(lines) == 2
        assert re.fullmatch(
            r"simulate: \d+ steps, dt \S+\.\.\S+, completed at t=0\.3, \S+ s "
            r"\(build \S+, criteria \S+, run \S+, trace \S+, write \S+\), "
            r"trace deviation \S+ within tolerance 0\.01",
            lines[0],
        )
        # t_end 0: the cells evaluate the criteria and run no solver
        assert re.fullmatch(r"sweep: 3 cells, 0 steps, 1 error rows, 1 jobs, \S+ s",
                            lines[1])

    def test_sweep_line_counts_accepted_steps(self, tmp_path, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="shockline")
        monkeypatch.setenv("SHOCKLINE_LOG", "INFO")
        real_run, steps = solver.run, []

        def counted(*args, **kwargs):
            result = real_run(*args, **kwargs)
            steps.append(len(result.monitors.ts) - 1)
            return result

        monkeypatch.setattr(solver, "run", counted)
        sweep = write_cfg(tmp_path, TestSweep().sweep_cfg(
            [{"name": "gamma", "start": 2.0, "stop": 4.0, "count": 3}], t_end=0.1
        ), name="sweep.yaml")
        assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "w"),
                     "--jobs", "1"]) == EXIT_OK
        assert len(steps) == 2 and min(steps) > 0
        assert re.fullmatch(rf"sweep: 3 cells, {sum(steps)} steps, 1 error rows, "
                            r"1 jobs, \S+ s", caplog.records[-1].getMessage())

    def test_trace_over_tolerance_is_logged(self, tmp_path, monkeypatch, caplog):
        # a cross-check past run.tolerances.trace is still exit 0, and says so
        caplog.set_level(logging.DEBUG, logger="shockline")
        monkeypatch.setenv("SHOCKLINE_LOG", "INFO")
        cfg_d = json.loads(json.dumps(BASE))
        cfg_d["run"]["tolerances"] = {"trace": 1e-12}
        cfg = write_cfg(tmp_path, cfg_d)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) \
            == EXIT_OK
        [line] = [r.getMessage() for r in caplog.records if r.name == "shockline"]
        assert re.search(r", trace deviation \S+ over tolerance 1e-12$", line)

    def test_unknown_level_falls_back(self, tmp_path, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="shockline")
        monkeypatch.setenv("SHOCKLINE_LOG", "chatty")
        assert main(["validate", "--config", write_cfg(tmp_path, BASE)]) == EXIT_OK
        assert logging.getLogger("shockline").level == logging.WARNING


def _run_verb(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


class TestExitCodeContract:
    """Every input ends in exit 0, 2 or 3, and a failure writes exactly
    one JSON line to stderr: no traceback escapes `check` or `simulate`."""

    @settings(max_examples=40, deadline=None)
    @given(
        gamma=st.one_of(
            st.floats(1.01, 2.99), st.floats(3.01, 60.0),
            st.sampled_from([2.9999999, 3.0000001]),
        ),
        big_k=_log_uniform(-8.0, 8.0),
        alpha=st.one_of(st.just(0.0), _log_uniform(-300.0, 300.0)),
        lam=st.one_of(
            st.floats(-60.0, 60.0), st.sampled_from([1.0, 1.0 - 1e-6, 1.0 + 1e-6]),
        ),
        u_amp=st.floats(-4.0, 0.5),
    )
    # overflow and division by zero in the bounds arithmetic
    @example(gamma=50.0, big_k=1.0, alpha=1e300, lam=1.0, u_amp=-2.0)
    @example(gamma=50.0, big_k=1.0, alpha=1e-300, lam=50.0, u_amp=-4.0)
    @example(gamma=3.0000001, big_k=1e8, alpha=700.0, lam=-50.0, u_amp=0.0)
    @example(gamma=2.9999999, big_k=1e8, alpha=1e-300, lam=1.000001, u_amp=0.0)
    @example(gamma=2.9999999, big_k=1e-8, alpha=700.0, lam=1.0, u_amp=0.0)
    @example(gamma=2.9999999, big_k=1e-8, alpha=4.0, lam=1.0, u_amp=0.0)
    def test_check_and_simulate(self, tmp_path_factory, gamma, big_k, alpha, lam, u_amp):
        # t_end is cut to about 200 CFL steps at the sound speed of
        # tau = 1 so that stiff gases stay cheap; the audits are prepared
        # before the first step whatever t_end is
        t_end = min(0.05, 12.0 / math.sqrt(big_k * gamma))
        cfg = {
            "gas": {"gamma": gamma, "big_k": big_k},
            "damping": {"alpha": alpha, "lambda": lam},
            "grid": {"n": 32, "L": 5.0},
            "profile": {"preset": "sine", "tau0": 1.0, "u_amp": u_amp},
            "run": {"t_end": t_end},
        }
        tmp = tmp_path_factory.mktemp("contract")
        path = write_cfg(tmp, cfg)
        for argv in (["check", "--config", path],
                     ["simulate", "--config", path, "--out", str(tmp / "out")]):
            code, err = _run_verb(argv)
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)
            if code == EXIT_OK:
                assert err == ""
            else:
                assert err.count("\n") == 1 and err.endswith("\n")
                assert set(json.loads(err)) == {"error", "message"}


class TestStderrSubprocess:
    """The exit-code contract seen from outside: in a fresh interpreter
    with default warning filters, stderr of a failed run is exactly one
    JSON line and that of a successful one is empty (pytest's warning
    capture hides numpy warnings in process)."""

    @pytest.mark.parametrize("verb,cfg,code,error", [
        ("simulate", DECAY_UNDERFLOWS, EXIT_RUNTIME, "RangeError"),
        ("simulate", GAP_TRACE_FAILS, EXIT_RUNTIME, "ToleranceError"),
        ("check", THRESHOLD_OVERFLOWS, EXIT_RUNTIME, "RangeError"),
        ("simulate", THRESHOLD_OVERFLOWS, EXIT_RUNTIME, "RangeError"),
        ("simulate", DECAY_OVERFLOWS, EXIT_RUNTIME, "RangeError"),
        ("simulate", TIME_FACTOR_OVERFLOWS, EXIT_OK, None),
        ("simulate", SHIFT_OVERFLOWS, EXIT_OK, None),
        ("check", NARROW_GAUSSIAN, EXIT_OK, None),
        ("simulate", NARROW_GAUSSIAN, EXIT_OK, None),
        ("sweep", DECAY_OVERFLOWS_SWEEP, EXIT_OK, None),
    ], ids=["cfg0-RangeError", "cfg1-ToleranceError", "threshold_overflows-check",
            "threshold_overflows-simulate", "decay_overflows-simulate",
            "time_factor_overflows-simulate", "shift_overflows-simulate",
            "narrow_gaussian-check", "narrow_gaussian-simulate",
            "decay_overflows-sweep"])
    def test_one_json_line(self, tmp_path, verb, cfg, code, error):
        src = str(Path(shockline.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        env.pop("PYTHONWARNINGS", None)
        out = tmp_path / "out"
        jobs = ["--jobs", "1"] if verb == "sweep" else []
        proc = subprocess.run(
            [sys.executable, "-m", "shockline.cli", verb,
             "--config", write_cfg(tmp_path, cfg), "--out", str(out), *jobs],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        if code == EXIT_OK:
            assert proc.stderr == ""
        else:
            assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), \
                proc.stderr
            assert json.loads(proc.stderr)["error"] == error
        if verb == "sweep":  # the lambda = -300 cell fails alone
            rows = (out / "sweep.csv").read_text().splitlines()[1:]
            errors = [row.rsplit(",", 1)[1] for row in rows]
            assert errors[0].startswith("RangeError: damping_decay") and errors[1] == ""
