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
from shockline import Verdict, cli, solver
from shockline.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    MONITOR_HEADER,
    TRACE_HEADER,
    build_scenario,
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
# p = tau**-5 overflows at tau = 1e-70 while c = sqrt(5) tau**-3 does not
# (RangeError from the first step's fluxes)
PRESSURE_OVERFLOWS = {
    "gas": {"gamma": 5.0, "big_k": 1.0},
    "damping": {"alpha": 1.0, "lambda": 1.0},
    "grid": {"n": 32, "L": 5.0},
    "profile": {"preset": "sine", "tau0": 1e-70, "u_amp": -0.2},
    "run": {"t_end": 0.1},
}
PRESSURE_OVERFLOWS_SWEEP = dict(PRESSURE_OVERFLOWS, sweep={
    "axes": [{"name": "alpha", "start": 1.0, "stop": 2.0, "count": 2}]})
# c = tau**(-3/2) overflows at tau = 1e-300 (RangeError from the sound view)
SOUND_OVERFLOWS = _range_cfg(
    1.0, 0.0, {"preset": "sine", "tau0": 1e-300, "u_amp": -0.3, "tau_amp": 0.0}, 0.1)
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

    def test_failed_run_leaves_no_snapshots(self, tmp_path, capsys, monkeypatch):
        # streamed snapshots.bin: a run whose state stops being finite
        # after some records were written exits 3 and leaves no file
        real_step, calls = solver.step, []

        def poisoned(field, dt, **kwargs):
            calls.append(dt)
            new = real_step(field, dt, **kwargs)
            return new.with_state(new.tau, new.u * np.nan, new.t) if len(calls) > 2 else new

        monkeypatch.setattr(solver, "step", poisoned)
        cfg_d = json.loads(json.dumps(BASE))
        cfg_d["outputs"].pop("trace")
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg_d),
                     "--out", str(out)]) == EXIT_RUNTIME
        assert json.loads(capsys.readouterr().err)["error"] == "RangeError"
        assert len(calls) == 3 and list(out.iterdir()) == []

    @pytest.mark.parametrize("trace", [True, False], ids=["traced", "streamed"])
    def test_snapshots_match_the_run(self, tmp_path, trace):
        # streamed or dumped after a traced run, snapshots.bin holds the
        # records of the run's in-memory store, byte for byte
        cfg_d = json.loads(json.dumps(BASE))
        cfg_d["grid"]["n"] = 512
        if not trace:
            cfg_d["outputs"].pop("trace")
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg_d),
                     "--out", str(out)]) == EXIT_OK
        assert (out / "trace.csv").exists() == trace
        scn = build_scenario(cfg_d)
        store = solver.run(scn["field"], scn["t_end"], cfl=scn["cfl"]).snapshots
        solver.write_snapshots(tmp_path / "store.bin", store)
        assert (out / "snapshots.bin").read_bytes() == \
            (tmp_path / "store.bin").read_bytes()

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

    def test_steepness_axis_scales_both_amplitudes(self, tmp_path):
        # each cell's verdict is check's on the template with u_amp and
        # tau_amp both scaled by the axis value
        cfg = self.sweep_cfg(
            [{"name": "steepness", "start": 0.5, "stop": 8.0, "count": 4}])
        cfg["gas"]["gamma"] = 2.0
        cfg["profile"] = {"preset": "gaussian", "tau0": 1.0, "u_amp": -1.0,
                          "tau_amp": 0.1, "width": 0.5}
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out",
                     str(out), "--jobs", "1"]) == EXIT_OK
        rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [0.5, 3.0, 5.5, 8.0]
        cfg.pop("sweep")
        expected = []
        for k in (0.5, 3.0, 5.5, 8.0):
            cfg["profile"].update(u_amp=-1.0 * k, tau_amp=0.1 * k)
            path = write_cfg(tmp_path, cfg, name="check.yaml")
            check = tmp_path / f"check{k}"
            assert main(["check", "--config", path, "--out", str(check)]) == EXIT_OK
            verdict = json.loads((check / "verdict.json").read_text())
            expected.append(str(verdict["fired"]).lower())
        assert [r[3] for r in rows] == expected
        assert expected[0] == "false" and expected[-1] == "true"

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
        # a steepness axis over a profile with no amplitude to scale
        lambda c: c.update(sweep={"axes": [{"name": "steepness", "start": 0.5,
                                            "stop": 2.0, "count": 3}]},
                           profile={"preset": "constant", "tau": 1.0, "u": 0.0}),
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

        def poisoned(field, dt, **kwargs):
            new = real_step(field, dt, **kwargs)
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

    def test_cells_keep_no_snapshots(self, tmp_path, monkeypatch):
        # the row reads no snapshot: each cell's run discards them
        real_run, sinks = solver.run, []

        def spy(*args, **kwargs):
            sinks.append(kwargs.get("snapshots"))
            return real_run(*args, **kwargs)

        monkeypatch.setattr(solver, "run", spy)
        cfg = write_cfg(tmp_path, self.sweep_cfg(
            [{"name": "alpha", "start": 0.2, "stop": 1.0, "count": 3}], t_end=0.05))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--jobs", "1"]) == EXIT_OK
        assert len(sinks) == 3
        assert all(isinstance(sink, solver.DiscardSnapshots) and sink.records > 1
                   for sink in sinks)

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

    def test_traced_simulate_check_and_sweep_load_no_scipy(self, tmp_path):
        # scipy serves only the integral bounds: a traced simulate, check
        # and a criteria-only sweep at lambda = 0 never import it
        sweep = write_cfg(tmp_path, self.sweep_cfg(
            [{"name": "alpha", "start": 0.2, "stop": 1.0, "count": 3}]), "sweep.yaml")
        cfg = write_cfg(tmp_path, BASE)
        verbs = [["simulate", "--config", cfg, "--out", str(tmp_path / "sim")],
                 ["check", "--config", cfg],
                 ["sweep", "--config", sweep, "--out", str(tmp_path / "sw")]]
        src = str(Path(shockline.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import json, sys\n"
                "from shockline.cli import main\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    code = main(argv)\n"
                "    scipy = [m for m in sys.modules if m.startswith('scipy')]\n"
                "    print(json.dumps([argv[0], code, scipy[:3]]), file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(verbs)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        got = [json.loads(line) for line in proc.stderr.splitlines()]
        assert got == [[verb[0], EXIT_OK, []] for verb in verbs]

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
            r"trace deviation \S+ within tolerance 0\.01, "
            r"\d+ snapshot records kept in memory for the trace, \d+ bytes written",
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
        assert re.search(r", trace deviation \S+ over tolerance 1e-12, \d+ snapshot", line)

    @pytest.mark.parametrize("snapshots", [True, False])
    def test_untraced_line_ends_with_snapshots(self, tmp_path, monkeypatch, caplog,
                                               snapshots):
        caplog.set_level(logging.DEBUG, logger="shockline")
        monkeypatch.setenv("SHOCKLINE_LOG", "INFO")
        cfg_d = json.loads(json.dumps(BASE))
        cfg_d["outputs"].pop("trace")
        cfg_d["outputs"]["snapshots"] = snapshots
        out = tmp_path / "s"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg_d),
                     "--out", str(out)]) == EXIT_OK
        [line] = [r.getMessage() for r in caplog.records if r.name == "shockline"]
        records, written = re.search(
            r"write \S+\), (\d+) snapshot records, (\d+ bytes|none) written$",
            line).groups()
        if snapshots:
            size = (out / "snapshots.bin").stat().st_size
            assert written == f"{size} bytes"
            assert size == 56 + int(records) * 8 * (1 + 2 * BASE["grid"]["n"])
        else:
            assert written == "none" and not (out / "snapshots.bin").exists()

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


CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _small(cfg: dict) -> dict:
    """A bundled config cut to test size: n <= 64, t_end <= 0.5 and
    sweep axis counts <= 3."""
    cfg["grid"]["n"] = min(cfg["grid"]["n"], 64)
    run = cfg.setdefault("run", {})
    run["t_end"] = min(run.get("t_end", 0.0), 0.5)
    for axis in cfg.get("sweep", {}).get("axes", []):
        axis["count"] = min(axis["count"], 3)
    return cfg


def _leaves(node, path=()):
    """The path, as a tuple of keys and indexes, of every scalar in node."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


BUNDLED = {p.name: _small(yaml.safe_load(p.read_text()))
           for p in sorted(CONFIG_DIR.glob("*.yaml"))}
# zero and sign, both ends of double range, values a hair off the model's
# boundaries (gamma 3 and 1), a fraction where an integer belongs, and
# non-numbers
FUZZ_VALUES = (0, -1, 1e300, -1e300, 1e308, 5e-324, 2.9999999, 1.0000000001, 64.5,
               "x", None)
# a run's step count past which an edit has made it too stiff to finish
# at test cost (gamma 64.5 with big_k 1e300 takes steps near 1e-152)
STEP_BUDGET = 1000


class _TooStiff(Exception):
    """The run outgrew STEP_BUDGET; raised past the CLI's handlers."""


@st.composite
def bundled_edits(draw):
    """(config name, edits): one or two of its leaves set to FUZZ_VALUES."""
    name = draw(st.sampled_from(sorted(BUNDLED)))
    edits = draw(st.lists(
        st.tuples(st.sampled_from(list(_leaves(BUNDLED[name]))),
                  st.sampled_from(FUZZ_VALUES)),
        min_size=1, max_size=2, unique_by=lambda edit: edit[0]))
    return name, tuple(edits)


def _no_nonfinite(constant):
    raise AssertionError(f"JSON output holds {constant}")


class TestBundledConfigContract:
    """The exit-code contract on the bundled configs with one or two
    leaves set to edge values: every verb returns 0, 2 or 3 and never
    raises, stderr is one JSON line on failure and empty otherwise, and
    no JSON written holds NaN or Infinity.  In process, pytest turns any
    numpy warning into a raised exception, so a leaked warning fails.
    An edit that makes a run outgrow STEP_BUDGET ends that example."""

    @settings(max_examples=100, deadline=None)
    @given(case=bundled_edits())
    # the sound speed rounds to 0 in the CFL step
    @example(case=("demo_t32.yaml", ((("profile", "tau0"), 1e300),)))
    @example(case=("sweep_gap.yaml", ((("profile", "tau0"), 1e300),
                                      (("run", "t_end"), 0.5))))
    # the initial gradient, and the grid step, leave double range
    @example(case=("gentle_audit.yaml", ((("profile", "u_amp"), 1e308),)))
    @example(case=("gentle_audit.yaml", ((("grid", "L"), 5e-324),)))
    # 1 / tau0 overflows
    @example(case=("demo_t41.yaml", ((("profile", "tau0"), 5e-324),)))
    # the cross-check's first step, span / 10, underflows to 0
    @example(case=("gentle_audit.yaml", ((("run", "t_end"), 5e-324),)))
    # too stiff: ends at STEP_BUDGET
    @example(case=("demo_t32.yaml", ((("gas", "gamma"), 64.5),
                                     (("gas", "big_k"), 1e300))))
    # p = tau**-5 overflows where c = sqrt(5) tau**-3 does not
    @example(case=("demo_t41.yaml", ((("profile", "tau0"), 1e-70),)))
    # Python-float formulas whose overflow no trap sees, so they check
    # their own results
    @example(case=("sweep_gap.yaml", ((("gas", "gamma"), 1e300),)))
    @example(case=("demo_t32.yaml", ((("gas", "gamma"), 1e300),
                                     (("profile", "tau0"), 5e-324))))
    def test_edited_configs(self, tmp_path_factory, case):
        name, edits = case
        cfg = json.loads(json.dumps(BUNDLED[name]))
        for path, value in edits:
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        t_end = cfg["run"].get("t_end")
        if isinstance(t_end, float) and t_end > 0.5:  # the edit's, cut to size
            cfg["run"]["t_end"] = 0.5
        tmp = tmp_path_factory.mktemp("bundled")
        path = write_cfg(tmp, cfg)
        last = ["sweep", "--jobs", "1"] if "sweep" in cfg else ["simulate"]
        steps, real_step = [], solver.step

        def budgeted(field, dt, **kwargs):
            steps.append(dt)
            if len(steps) > STEP_BUDGET:
                raise _TooStiff
            return real_step(field, dt, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "step", budgeted)
            for verb in (["check"], last):
                out = tmp / verb[0]
                steps.clear()
                try:
                    code, err = _run_verb([verb[0], "--config", path, "--out", str(out),
                                           *verb[1:]])
                except _TooStiff:
                    return
                assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)
                if code == EXIT_OK:
                    assert err == ""
                else:
                    assert err.count("\n") == 1 and err.endswith("\n"), err
                    assert set(json.loads(err)) == {"error", "message"}
                for written in out.glob("*.json"):
                    json.loads(written.read_text(), parse_constant=_no_nonfinite)

    @pytest.mark.parametrize("name,edits,verb,code,error,words", [
        ("demo_t32.yaml", {("profile", "tau0"): 1e300}, "simulate", EXIT_RUNTIME,
         "RangeError", "sound speed rounds to 0"),
        ("demo_t41.yaml", {("profile", "tau0"): 1e300, ("damping", "alpha"): 0.0},
         "simulate", EXIT_RUNTIME, "RangeError", "phi rounds to 0"),
        ("gentle_audit.yaml", {("profile", "u_amp"): 1e308}, "check", EXIT_RUNTIME,
         "RangeError", "u_x"),
        ("gentle_audit.yaml", {("profile", "u_amp"): 1e308}, "simulate",
         EXIT_RUNTIME, "RangeError", "u_x"),
        ("gentle_audit.yaml", {("grid", "L"): 5e-324}, "check", EXIT_CONFIG,
         "ConfigError", "grid step"),
        ("demo_t41.yaml", {("profile", "tau0"): 5e-324}, "check", EXIT_RUNTIME,
         "RangeError", "_c0_tilde"),
    ], ids=["sound-rounds-to-0", "phi-rounds-to-0", "gradient-overflows-check",
            "gradient-overflows-simulate", "grid-step-underflows", "tau0-subnormal"])
    def test_out_of_range_edit(self, tmp_path, name, edits, verb, code, error, words):
        cfg = json.loads(json.dumps(BUNDLED[name]))
        for (section, key), value in edits.items():
            cfg[section][key] = value
        out = tmp_path / "out"
        got, err = _run_verb([verb, "--config", write_cfg(tmp_path, cfg),
                              "--out", str(out)])
        assert got == code and err.count("\n") == 1, err
        assert json.loads(err)["error"] == error and words in err
        assert not (out / "verdict.json").exists()

    def test_sound_rounding_to_0_is_an_error_row(self, tmp_path):
        # every cell of a pooled sweep fails alone, none takes the sweep down
        cfg = json.loads(json.dumps(BUNDLED["sweep_gap.yaml"]))
        cfg["profile"]["tau0"], cfg["run"]["t_end"] = 1e300, 0.5
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out),
                     "--jobs", "2"]) == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        errors = {row.rsplit(",", 1)[1].split(":")[0] for row in rows}
        assert errors == {"RangeError"}


class TestStderrSubprocess:
    """The exit-code contract seen from outside: in a fresh interpreter
    with default warning filters, stderr of a failed run is exactly one
    JSON line and that of a successful one is empty (pytest's warning
    capture hides numpy warnings in process)."""

    def run_fresh(self, verb, config, out, timeout=60):
        """The CLI's exit code and stderr in a fresh interpreter, after
        checking that stderr is one JSON line on failure, empty otherwise."""
        src = str(Path(shockline.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        env.pop("PYTHONWARNINGS", None)
        jobs = ["--jobs", "1"] if verb == "sweep" else []
        proc = subprocess.run(
            [sys.executable, "-m", "shockline.cli", verb,
             "--config", config, "--out", str(out), *jobs],
            capture_output=True, text=True, env=env, timeout=timeout,
        )
        if proc.returncode == EXIT_OK:
            assert proc.stderr == ""
            return proc.returncode, None
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), \
            proc.stderr
        return proc.returncode, json.loads(proc.stderr)

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
        ("check", SOUND_OVERFLOWS, EXIT_RUNTIME, "RangeError"),
        ("simulate", SOUND_OVERFLOWS, EXIT_RUNTIME, "RangeError"),
        ("simulate", PRESSURE_OVERFLOWS, EXIT_RUNTIME, "RangeError"),
        ("sweep", PRESSURE_OVERFLOWS_SWEEP, EXIT_OK, None),
    ], ids=["cfg0-RangeError", "cfg1-ToleranceError", "threshold_overflows-check",
            "threshold_overflows-simulate", "decay_overflows-simulate",
            "time_factor_overflows-simulate", "shift_overflows-simulate",
            "narrow_gaussian-check", "narrow_gaussian-simulate",
            "decay_overflows-sweep", "sound_overflows-check",
            "sound_overflows-simulate", "pressure_overflows-simulate",
            "pressure_overflows-sweep"])
    def test_one_json_line(self, tmp_path, verb, cfg, code, error):
        out = tmp_path / "out"
        got, err = self.run_fresh(verb, write_cfg(tmp_path, cfg), out)
        assert got == code, err
        assert (err or {}).get("error") == error
        if cfg is SOUND_OVERFLOWS:  # no verdict with an infinite lhs is left
            assert "sound" in err["message"]
            assert not (out / "verdict.json").exists()
        if cfg is PRESSURE_OVERFLOWS:
            assert "pressure" in err["message"]
        rows = (out / "sweep.csv").read_text().splitlines()[1:] if verb == "sweep" else []
        errors = [row.rsplit(",", 1)[1] for row in rows]
        if cfg is DECAY_OVERFLOWS_SWEEP:  # the lambda = -300 cell fails alone
            assert errors[0].startswith("RangeError: damping_decay") and errors[1] == ""
        if cfg is PRESSURE_OVERFLOWS_SWEEP:
            assert len(errors) == 2
            assert all(e.startswith("RangeError") and "pressure" in e for e in errors)

    @pytest.mark.parametrize("section,key", [("grid", "L"), ("run", "cfl")])
    def test_step_budget_ends_an_endless_run(self, tmp_path, section, key):
        # a first CFL step near 1e-303: t + dt rounds to t long before
        # t_end, and the run once went on for ever (the config as
        # shipped, since at BUNDLED's 64 cells the first step breaks down)
        cfg = yaml.safe_load((CONFIG_DIR / "demo_t41.yaml").read_text())
        cfg[section][key] = 1e-300
        got, err = self.run_fresh("simulate", write_cfg(tmp_path, cfg), tmp_path / "out",
                                  timeout=20)
        assert (got, err["error"]) == (EXIT_CONFIG, "DomainError")
        assert "STEP_BUDGET" in err["message"]

    @pytest.mark.parametrize("verb,text,code,error,words", [
        ("validate", "gas: " + "[" * 2000 + "]" * 2000 + "\n",
         EXIT_CONFIG, "ConfigError", "nests too deeply"),
        # deep past the C stack of libyaml's recursive composer
        ("validate", "gas: " + "[" * 100_000 + "]" * 100_000 + "\n",
         EXIT_CONFIG, "ConfigError", "nests too deeply"),
        ("validate", "gas: &x [*x]\n", EXIT_CONFIG, "ConfigError", "refers to itself"),
        ("sweep", "sweep: &s\n  axes: [{name: lambda, start: 0.5, stop: 1.5, count: 2}]"
                  "\n  again: *s\n", EXIT_CONFIG, "ConfigError", "refers to itself"),
        # 2**57 eight-byte nodes: beyond any x86-64 address space, refused at once
        ("validate", "grid: {n: 144115188075855872, L: 10.0}\n",
         EXIT_RUNTIME, "MemoryError", "allocate"),
        # a steepness axis scaling an integer amplitude no double holds
        ("sweep", "profile: {preset: sine, tau0: 1.0, u_amp: -1" + "0" * 400 + "}\n"
                  "sweep:\n  axes: [{name: steepness, start: 0.5, stop: 1.5, count: 3}]\n",
         EXIT_CONFIG, "ConfigError", "int too large"),
    ], ids=["deep-nesting", "deep-nesting-100k", "self-alias", "self-alias-sweep",
            "grid-too-large", "huge-int-steepness"])
    def test_config_past_the_interpreter(self, tmp_path, verb, text, code, error,
                                         words):
        # the YAML text above replaces or adds its section of BASE
        cfg = {k: v for k, v in BASE.items() if not text.startswith(k + ":")}
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg) + text)
        got, err = self.run_fresh(verb, str(path), tmp_path / "out")
        assert (got, err["error"]) == (code, error)
        assert words in err["message"]


def test_grid_x0_is_config_error(tmp_path):
    cfg = json.loads(json.dumps(BASE))
    cfg["grid"]["x0"] = 5.0
    code, err = _run_verb(["validate", "--config", write_cfg(tmp_path, cfg)])
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1
    err = json.loads(err)
    assert err["error"] == "ConfigError"
    assert "grid.x0" in err["message"] and "profile.center" in err["message"]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config_blocks():
    """The YAML blocks of the README's `### Scenario config (YAML)`
    section: the scenario, then the sweep section."""
    section = README.read_text().split("### Scenario config (YAML)\n", 1)[1]
    return re.findall(r"```yaml\n(.*?)```", section.split("\n### ", 1)[0], re.S)


def test_readme_scenario_block_validates(tmp_path, capsys):
    scenario, _ = readme_config_blocks()
    (tmp_path / "cfg.yaml").write_text(scenario)
    assert main(["validate", "--config", str(tmp_path / "cfg.yaml")]) == EXIT_OK


def test_readme_sweep_block_runs(tmp_path):
    scenario, sweep = readme_config_blocks()
    cfg = yaml.safe_load(scenario + sweep)
    cfg["run"]["t_end"] = 0
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) \
        == EXIT_OK
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 21


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_pure_python_loader_reads_configs_alike(tmp_path, monkeypatch):
    # load_config falls back to PyYAML's own loader without libyaml, and
    # for a text with many nesting marks; either way it reads the same
    texts = [p.read_text() for p in sorted(CONFIG_DIR.glob("*.yaml"))]
    texts += [p.read_text() for p in sorted(
        (CONFIG_DIR.parents[1] / "perfbench" / "configs").glob("*.yaml"))]
    scenario, sweep = readme_config_blocks()
    texts += [scenario, scenario + sweep]
    texts.append(texts[0] + "# " + "-" * cli._MAX_LIBYAML_MARKS + "\n")
    path = tmp_path / "cfg.yaml"
    for text in texts:
        path.write_text(text)
        expected = yaml.load(text, Loader=yaml.CSafeLoader)
        assert repr(cli.load_config(path)) == repr(expected)
        with monkeypatch.context() as mp:
            mp.setattr(cli, "_LOADER", yaml.SafeLoader)
            assert repr(cli.load_config(path)) == repr(expected)


def test_trace_shorter_than_the_step_floor(tmp_path):
    # every trace interval, and so every span of the Riccati cross-check,
    # is shorter than the integrator's step floor of 1e-14
    cfg = yaml.safe_load((CONFIG_DIR / "gentle_audit.yaml").read_text())
    cfg["run"]["t_end"] = 1.0e-15
    out = tmp_path / "out"
    code, err = _run_verb(["simulate", "--config", write_cfg(tmp_path, cfg),
                           "--out", str(out)])
    assert (code, err) == (EXIT_OK, "")
    rows = (out / "trace.csv").read_text().splitlines()
    assert rows[0] == TRACE_HEADER and len(rows) == 3
