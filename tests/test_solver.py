"""Simulator: scheme fidelity, monitors, tracing, cross-validation,
snapshot IO."""

import dataclasses
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shockline import DampingLaw, DomainError, GasModel, Grid, RangeError, TraceError
from shockline import VacuumError, bounds, cli, core, fields, riccati, solver
from shockline.fields import ddx4, init_field
from shockline.solver import (
    BreakdownReport,
    Direction,
    DiscardSnapshots,
    SnapshotWriter,
    cross_validate_riccati,
    damping_decay,
    read_snapshots,
    run,
    step,
    trace_characteristic,
    write_snapshots,
)


def make_field(gm, dl, spec, n=128, length=10.0):
    return init_field(spec, Grid(n=n, length=length), gm, dl)


class TestDampingDecay:
    def test_generic(self):
        dl = DampingLaw(2.0, 0.0)
        assert math.isclose(damping_decay(dl, 0.0, 1.5), math.exp(-3.0))

    def test_critical(self):
        dl = DampingLaw(2.0, 1.0)
        assert math.isclose(damping_decay(dl, 0.0, 1.0), 0.25)

    def test_undamped(self):
        assert damping_decay(DampingLaw(0.0, 0.7), 0.0, 5.0) == 1.0

    def test_composition(self):
        dl = DampingLaw(1.0, 0.5)
        whole = damping_decay(dl, 0.0, 2.0)
        split = damping_decay(dl, 0.0, 0.7) * damping_decay(dl, 0.7, 2.0)
        assert math.isclose(whole, split, rel_tol=1e-14)


class TestStep:
    def test_constant_state_fixed_point(self, gm2, dl_const):
        f = make_field(gm2, dl_const, {"preset": "constant", "tau": 1.0, "u": 0.0})
        f2 = step(f, 0.01)
        assert np.max(np.abs(f2.tau - 1.0)) < 1e-13
        assert np.max(np.abs(f2.u)) < 1e-13

    def test_x_independent_damping_exact(self, gm2, dl_const):
        f = make_field(gm2, dl_const, {"preset": "constant", "tau": 1.0, "u": 0.5})
        t = 0.0
        for _ in range(20):
            f = step(f, 0.05)
            t += 0.05
        assert np.max(np.abs(f.u - 0.5 * math.exp(-t))) < 1e-12
        assert np.max(np.abs(f.tau - 1.0)) < 1e-13

    def test_rejects_bad_dt(self, sine_field):
        with pytest.raises(DomainError):
            step(sine_field, 0.0)

    # alpha * dt: exp(-alpha * dt) is 0, then subnormal (about 3e-313,
    # so u_t / g1 overflows for |u_t| above about 5e-5)
    @pytest.mark.parametrize("alpha_dt", [1e297, 720.0])
    def test_decay_underflow_is_range_error(self, gm2, alpha_dt):
        # w = u / g1 leaves double range, and no numpy warning may print
        # on the way to the error
        f = make_field(gm2, DampingLaw(alpha_dt * 1e3, 0.0),
                       {"preset": "sine", "tau0": 1.0, "u_amp": -0.2})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="damping decay"):
                step(f, 1e-3)

    @pytest.mark.filterwarnings("error")
    def test_pressure_overflow_is_range_error(self, gm5, dl_const):
        # p = tau**-5 overflows at tau = 1e-70 where c = sqrt(5) tau**-3
        # does not: the trap names the path down to the pressure law
        f = make_field(gm5, dl_const, {"preset": "sine", "tau0": 1e-70, "u_amp": -0.2})
        with pytest.raises(RangeError, match=r"^step > _fluxes > pressure leaves double-"
                                             r"precision range \(FloatingPointError: "
                                             r"overflow encountered in power\)$") as exc:
            step(f, 1e-213)
        assert isinstance(exc.value.__cause__, FloatingPointError)

    def test_tiny_normal_decay_steps(self, gm2):
        # exp(-690) is about 1e-300: u_t / g1 stays in range, so the step
        # completes, quietly; only the corrector's dt * u_t / 2 is left of u
        f = make_field(gm2, DampingLaw(690e3, 0.0),
                       {"preset": "sine", "tau0": 1.0, "u_amp": -0.2})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = step(f, 1e-3)
        assert np.all(np.isfinite(new.u)) and np.max(np.abs(new.u)) < 1e-6

    def test_vacuum_error(self, gm2, dl_const):
        # thin gas with a long-wave compression: one oversized step
        # drives tau through zero before any gradient steepening
        grid = Grid(n=64, length=100.0)
        f = init_field(
            {"preset": "sine", "tau0": 0.05, "u_amp": 1.6}, grid, gm2, dl_const
        )
        with pytest.raises(VacuumError):
            step(f, 1.0)

    def test_vacuum_in_the_corrector(self, gm2):
        # u = 0 and one thin cell: the predictor moves tau by the
        # stabilization alone and keeps it positive; the thin cell's
        # pressure then pushes the gas two cells away from it past tau = 0
        tau = np.ones(32)
        tau[16] = 0.1
        f = fields.FieldState(grid=Grid(n=32, length=1.0), t=0.0, tau=tau,
                              u=np.zeros(32), gas=gm2, damping=DampingLaw(0.0, 0.0))
        with pytest.raises(VacuumError, match=r"^tau reached zero at t=0\.01$"):
            step(f, 0.01)


class TestRun:
    def test_completes_and_unpacks(self, sine_field):
        res = run(sine_field, 0.5)
        assert res.outcome.t == 0.5
        assert len(res.monitors.ts) > 2
        assert res.monitors.ts[0] == 0.0

    def test_constant_state_no_violations(self, gm2, dl_const):
        f = make_field(gm2, dl_const, {"preset": "constant", "tau": 1.0, "u": 0.0},
                       n=64)
        res = run(f, 10.0)
        assert not res.broke_down
        assert res.monitors.invariant.ok
        assert res.monitors.ceiling.ok
        assert res.monitors.floor.ok in (True, None)

    def test_breakdown_is_recorded_not_raised(self, gm2, dl_const):
        f = make_field(
            gm2, dl_const,
            {"preset": "gaussian", "tau0": 1.0, "u_amp": -6.0, "width": 0.5},
            n=256,
        )
        res = run(f, 2.0)
        assert res.broke_down
        rep = res.outcome
        assert isinstance(rep, BreakdownReport)
        assert rep.t_prev < rep.t
        assert rep.max_abs_ux * f.grid.dx > 0.5
        assert rep.last_field.t == rep.t_prev

    def test_strong_damping_decays_gradient(self, gm2):
        dl = DampingLaw(50.0, 0.0)
        f = make_field(
            gm2, dl, {"preset": "sine", "tau0": 1.0, "u_amp": -0.3}, n=64
        )
        res = run(f, 1.0)
        assert not res.broke_down
        assert res.monitors.max_abs_ux[-1] < 0.1 * res.monitors.max_abs_ux[0]

    def test_monitor_flags_monotone(self, sine_field):
        res = run(sine_field, 1.0)
        m = res.monitors
        # no violations in this gentle scenario
        assert m.invariant.ok and m.invariant.violation_t is None

    def test_snapshot_cadence(self, gm2, dl_const):
        f = make_field(gm2, dl_const, {"preset": "sine", "tau0": 1.0,
                                       "u_amp": -0.1}, n=512)
        res = run(f, 0.1, monitors_requested=False)
        snaps = res.snapshots
        assert snaps.times[0] == 0.0
        # the last accepted state closes the store, once
        assert snaps.times[-1] == res.outcome.t
        assert len(set(snaps.times)) == len(snaps.times)
        assert len(snaps.times) >= 3

    def test_two_derivative_passes_per_step(self, sine_field, monkeypatch):
        # with monitors on, each accepted state's u and tau are
        # differentiated once: u as a row, shared by the breakdown test,
        # the y/q record and dt, tau as a row of its y/q block (the
        # initial state's by the ceilings, whose y/q its record reuses).
        # Rows are counted: a block is f.shape[0]
        rows, calls = [], []

        def counted(f, dx):
            rows.append(f.shape[0] if f.ndim == 2 else 1)
            calls.append(1)
            return ddx4(f, dx)

        monkeypatch.setattr(fields, "ddx4", counted)
        res = run(sine_field, 0.5)
        assert not res.broke_down
        assert sum(rows) == 2 * len(res.monitors.ts)
        # with monitors off, u alone: tau_x is read once more, of the
        # initial state, by the ceilings the density floor is built on
        # (a fresh copy of that state, whose views are not cached yet)
        calls.clear()
        res = run(dataclasses.replace(sine_field), 0.5, monitors_requested=False)
        assert len(calls) == len(res.monitors.ts) + 1

    @pytest.mark.parametrize("gamma,alpha,lam,spec,n,length,t_end,broke", [
        # gentle_audit physics: the density floor is audited past t_min
        (2.0, 1.0, 0.0, {"preset": "sine", "tau0": 1.0, "u_amp": -0.3,
                         "tau_amp": 0.1}, 64, 10.0, 3.0, False),
        # the T4_1 sweep cell of sweep_alpha_lambda, run on to breakdown
        (5.0, 1.0909090909090908, 1.0, {"preset": "gaussian", "tau0": 1.0,
                                        "u_amp": -1.5, "width": 0.3},
         128, 5.0, 1.5, True),
    ])
    def test_record_without_gradient_matches_full(self, gamma, alpha, lam, spec,
                                                  n, length, t_end, broke):
        f = make_field(GasModel(gamma, 1.0), DampingLaw(alpha, lam), spec,
                       n=n, length=length)
        full = run(f, t_end)
        cheap = run(f, t_end, monitors_requested=False)
        assert full.broke_down is cheap.broke_down is broke
        if broke:
            a, b = full.outcome, cheap.outcome
            assert (a.t, a.t_prev, a.max_abs_ux) == (b.t, b.t_prev, b.max_abs_ux)
            a, b = a.last_field, b.last_field
        else:
            a, b = full.outcome, cheap.outcome
        assert a.t == b.t
        assert np.array_equal(a.tau, b.tau) and np.array_equal(a.u, b.u)
        m, c = full.monitors, cheap.monitors
        for name in ("ts", "max_abs_ux", "min_rho", "invariant", "floor",
                     "floor_t_min", "floor_range_t"):
            assert getattr(m, name) == getattr(c, name), name
        if not broke:
            assert m.floor.ok is True and m.floor_t_min < t_end
        assert len(m.y_max) == len(m.ts) and m.ceiling.ok is not None
        assert c.y_max == [] and c.q_max == [] and c.ceiling.ok is None

    @pytest.mark.parametrize("name", ["u", "tau"])
    def test_nonfinite_initial_state(self, sine_field, name):
        # monitors off: the finiteness check does not depend on them
        arr = getattr(sine_field, name).copy()
        arr[7] = np.nan
        bad = dataclasses.replace(sine_field, **{name: arr})
        with pytest.raises(RangeError, match=r"not finite at t=0$"):
            run(bad, 0.5, monitors_requested=False)

    @pytest.mark.parametrize("name", ["u", "tau"])
    def test_nonfinite_state_mid_run(self, sine_field, monkeypatch, name):
        real_step = solver.step

        def poisoned(field, dt, **kwargs):
            new = real_step(field, dt, **kwargs)
            if new.t < 0.1:
                return new
            arr = {"u": new.u.copy(), "tau": new.tau.copy()}
            arr[name][3] = np.inf if name == "u" else np.nan
            return new.with_state(arr["tau"], arr["u"], new.t)

        monkeypatch.setattr(solver, "step", poisoned)
        with pytest.raises(RangeError, match="not finite at t=") as exc:
            run(sine_field, 0.5, monitors_requested=False)
        t_bad = float(str(exc.value).rsplit("t=", 1)[1])
        assert 0.1 <= t_bad < 0.2

    def test_validates_inputs(self, sine_field):
        with pytest.raises(DomainError):
            run(sine_field, -1.0)
        with pytest.raises(DomainError):
            run(sine_field, 1.0, cfl=0.9)

    def test_step_budget(self, sine_field, monkeypatch):
        # a first step that leaves t_end more than STEP_BUDGET such steps
        # away ends the run; one step fewer runs to t_end
        dt0 = solver.DEFAULT_CFL * sine_field.grid.dx / float(sine_field.sound().max())
        monkeypatch.setattr(solver, "STEP_BUDGET", 10)
        with pytest.raises(DomainError, match="STEP_BUDGET = 1e[+]01 steps"):
            run(sine_field, 11.5 * dt0, monitors_requested=False)
        assert run(sine_field, 10.5 * dt0, monitors_requested=False).outcome.t == 10.5 * dt0

    def test_step_budget_refuses_a_step_that_rounds_away(self, gm5, dl_const):
        # from t = 1, a step of 1e-17 leaves t as it is, and t_end only
        # 1e-12 away is well within the budget's 1e7 steps
        f = make_field(gm5, dl_const, {"preset": "sine", "tau0": 1.0, "u_amp": -0.01})
        f = f.with_state(f.tau, f.u, 1.0)
        cfl = 1e-17 * float(f.sound().max()) / f.grid.dx
        with pytest.raises(DomainError, match="STEP_BUDGET"):
            run(f, 1.0 + 1e-12, monitors_requested=False, cfl=cfl)

    def test_step_budget_spares_a_first_step_breakdown(self, gm2, dl_const):
        # initial data already past the breakdown gradient ends in
        # breakdown at the first step, however small that step is
        f = make_field(gm2, dl_const, {"preset": "sine", "tau0": 1.0, "u_amp": -100.0},
                       n=32)
        assert run(f, 1e300 * solver.STEP_BUDGET, cfl=1e-300).broke_down


CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"
GENTLE_SINE = {"preset": "sine", "tau0": 1.0, "u_amp": -0.01, "tau_amp": 0.01}


def config_run(name):
    sc = cli.build_scenario(cli.load_config(CONFIGS / f"{name}.yaml"))
    return sc["field"], sc["t_end"]


def physics_run(gas, damping, spec, n, length, t_end):
    return make_field(GasModel(*gas), DampingLaw(*damping), spec, n, length), t_end


# the runs the block record is checked on, and which state index falls
# strictly inside a block (the initial state is a block of its own, the
# next blocks start at index 1): the end of the run, complete or at
# breakdown (it stops mid-block), the first NaN row (NaN next to finite
# rows) or the ceiling violation
BLOCK_RUNS = {
    "gentle_audit": (lambda: config_run("gentle_audit"), "end"),
    "demo_t32": (lambda: config_run("demo_t32"), "breakdown"),
    "demo_t41": (lambda: config_run("demo_t41"), None),  # breaks down as block 7 fills
    # the T4_1 cell of sweep_alpha_lambda, with the y/q record on
    "sweep_t41_cell": (lambda: physics_run(
        (5.0, 1.0), (1.0909090909090908, 1.0),
        {"preset": "gaussian", "tau0": 1.0, "u_amp": -1.5, "width": 0.3}, 128, 5.0, 1.5),
        "breakdown"),
    # the time factor, then the shift, of y leave double range mid-run
    "time_factor_overflows": (lambda: physics_run(
        (2.0, 1.0), (0.0, -300.0), GENTLE_SINE, 32, 10.0, 20.0), "nan"),
    "shift_overflows": (lambda: physics_run(
        (2.0, 1.0), (0.0, 300.0), GENTLE_SINE, 32, 10.0, 20.0), "nan"),
    # grid-scale oscillation violates the ceiling with no breakdown
    "ceiling_violated": (lambda: physics_run(
        (4.843629143650211, 0.6454772203868708), (4.042796423437301, 1.0),
        {"preset": "gaussian", "tau0": 1.0, "tau_amp": 0.15961730657022016,
         "u_amp": -2.2457084132503136}, 64, 3.2413018306177896, 0.795), "violation"),
    # one state per block
    "n4096": (lambda: physics_run(
        (2.0, 1.0), (1.0, 0.0), {"preset": "sine", "tau0": 1.0, "u_amp": -0.2},
        4096, 10.0, 0.01), None),
}


def run_with_states(monkeypatch, field, t_end, monitors_requested=True):
    """run(field, t_end, monitors_requested), and its accepted states."""
    states, record = [], solver._record

    def spy(mon, block, *args):
        states.extend(block)
        record(mon, block, *args)

    with monkeypatch.context() as m:
        m.setattr(solver, "_record", spy)
        return run(field, t_end, monitors_requested), states


def state_by_state(states, without_yq: solver.Monitors) -> solver.Monitors:
    """The monitors of a run recorded one state at a time: the rows and
    audits of the same run without the y/q record, plus each state's y/q
    maxima from its FieldState.yq (NaN where that leaves double range)
    and the ceiling audit checked on them."""
    mon = dataclasses.replace(without_yq, ceiling=solver.Audit())
    initial = states[0]
    if core.classify_regime(initial.gas, initial.damping).has_ceiling:
        mon.ceiling.ok = True
        caps = bounds.riccati_ceilings(initial)
    for s in states:
        try:
            y_max, q_max = (float(v) for v in s.yq().max(axis=1))
        except RangeError:
            y_max = q_max = math.nan
        mon.y_max.append(y_max)
        mon.q_max.append(q_max)
        if mon.ceiling.ok is not None:
            mon.ceiling.record((not math.isnan(y_max)) and y_max <= caps.y_cap * 1.02
                               and q_max <= caps.q_cap * 1.02, s.t)
    return mon


def scalar_record(states) -> solver.Monitors:
    """The monitors of a run without the y/q record, each state recorded
    alone with the expressions of a per-state record: 1/max tau, the
    invariant region on 1/min tau and max|u|, the floor from
    bounds.density_floor."""
    mon = solver.Monitors()
    floor = solver._prepare_audits(states[0], mon, False)[2]
    c0_tilde = bounds.certified_initial_bound(states[0]).c0_tilde
    for s in states:
        t, rho_min = s.t, 1.0 / float(s.tau.max())
        mon.ts.append(t)
        mon.max_abs_ux.append(float(np.abs(s.u_x()).max()))
        mon.min_rho.append(rho_min)
        rho_max, u_max = 1.0 / float(s.tau.min()), float(np.abs(s.u).max())
        mon.invariant.record(rho_max <= c0_tilde * 1.02 and u_max <= c0_tilde * 1.02, t)
        if floor is not None and t > floor.t_min:
            try:
                floor_val = bounds.density_floor(s.gas, s.damping, floor, t)
            except RangeError:
                if mon.floor_range_t is None:
                    mon.floor_range_t = t
            else:
                mon.floor.record(rho_min >= 0.95 * floor_val, t)
    return mon


def invariant_flips(c0_tilde, make):
    """make's run, with c0_tilde patched to lie between the first and the
    last state's max(1/min tau, max|u|)."""
    def patched(monkeypatch):
        bound = bounds.certified_initial_bound
        monkeypatch.setattr(bounds, "certified_initial_bound",
                            lambda field: dataclasses.replace(bound(field), c0_tilde=c0_tilde))
        return make()
    return patched


# the runs the record without y/q is checked on: those of BLOCK_RUNS, and
# three whose floor, then invariant-region, latch changes inside a block
SCALAR_RUNS = {
    **{name: (lambda monkeypatch, make=make: make(), None)
       for name, (make, _) in BLOCK_RUNS.items()},
    # test_cli's floor_underflows: the floor falls below the smallest
    # normal double
    "floor_underflows": (lambda monkeypatch: physics_run(
        (2.931, 9.27), (0.153, 1.74),
        {"preset": "sine", "tau0": 1.0, "u_amp": -0.05, "tau_amp": 0.02}, 32, 10.0, 25.4),
        "floor"),
    # the invariant region's cap is crossed by 1/min tau, which rises
    # from 1.0 to 1.05, then by max|u|, which rises from 0 to 0.83 while
    # 1/min tau falls from 0.5
    "invariant_flips_on_rho": (invariant_flips(1.025, lambda: physics_run(
        (2.0, 1.0), (1.0, 0.0), {"preset": "sine", "tau0": 1.0, "u_amp": -0.2}, 128, 10.0, 0.5)),
        "invariant"),
    "invariant_flips_on_u": (invariant_flips(0.6, lambda: physics_run(
        (2.0, 10.0), (0.0, 0.0), {"preset": "sine", "tau0": 4.0, "u_amp": 0.0, "tau_amp": 2.0},
        128, 10.0, 1.0)), "invariant"),
}


class TestBlockRecord:
    @pytest.mark.parametrize("name", BLOCK_RUNS)
    def test_matches_state_by_state(self, monkeypatch, name):
        make, inside = BLOCK_RUNS[name]
        field, t_end = make()
        res, states = run_with_states(monkeypatch, field, t_end)
        reference = state_by_state(states, run(field, t_end, monitors_requested=False).monitors)
        # repr spells every float exactly, NaN included, and every audit
        assert repr(res.monitors) == repr(reference)
        mon, size = res.monitors, max(1, solver.BLOCK_CELLS // field.grid.n)
        if inside is None:
            return
        if inside in ("end", "breakdown"):
            assert res.broke_down is (inside == "breakdown")
            index = len(mon.ts)
        elif inside == "nan":
            index = next(i for i, v in enumerate(mon.y_max) if math.isnan(v))
        else:
            index = mon.ts.index(mon.ceiling.violation_t)
        assert (index - 1) % size != 0

    @pytest.mark.parametrize("name", SCALAR_RUNS)
    def test_record_without_yq_matches_state_by_state(self, monkeypatch, name):
        # the path sweep cells take: the invariant region and the floor
        # checked over blocks, against each state recorded alone
        make, inside = SCALAR_RUNS[name]
        field, t_end = make(monkeypatch)
        res, states = run_with_states(monkeypatch, field, t_end, monitors_requested=False)
        # repr spells every float exactly, and every audit
        assert repr(res.monitors) == repr(scalar_record(states))
        if inside is None:
            return
        mon = res.monitors
        if inside == "floor":
            index = mon.ts.index(mon.floor_range_t)
            assert mon.floor.ok is True
        else:
            index = mon.ts.index(mon.invariant.violation_t)
            assert mon.invariant.ok is False
        assert (index - 1) % max(1, solver.BLOCK_CELLS // field.grid.n) != 0

    @pytest.mark.parametrize("n,t_end,size", [
        (128, 1.0, 32), (512, 0.3, 8), (4096, 0.01, 1), (8192, 0.005, 1)])
    def test_blocks_hold_at_most_block_cells(self, monkeypatch, n, t_end, size):
        # the initial state is recorded alone, then a block is flushed as
        # soon as it holds BLOCK_CELLS // n states (at least one), and the
        # remainder when the run returns
        field = make_field(GasModel(2.0, 1.0), DampingLaw(1.0, 0.0),
                           {"preset": "sine", "tau0": 1.0, "u_amp": -0.2}, n=n)
        sizes, record = [], solver._record

        def spy(mon, block, *args):
            sizes.append(len(block))
            record(mon, block, *args)

        monkeypatch.setattr(solver, "_record", spy)
        later = len(run(field, t_end).monitors.ts) - 1
        assert later > size
        assert sizes == [1] + [size] * (later // size) + [later % size] * (later % size > 0)

    def test_block_error_falls_back_state_by_state(self, sine_field, monkeypatch):
        # a block that raises one of y_variable's range errors is recorded
        # again a state at a time: the state whose own record raises
        # RangeError reads NaN, its block neighbours keep their values
        clean = run(sine_field, 0.5).monitors
        bad_t, y_variable = clean.ts[5], core.y_variable

        def flaky(gm, dl, phi, grad, t):  # t: a block's list of times, or a state's
            if bad_t in (t if isinstance(t, list) else [t]):
                raise (OverflowError if isinstance(t, list) else RangeError)("out of range")
            return y_variable(gm, dl, phi, grad, t)

        monkeypatch.setattr(core, "y_variable", flaky)
        mon = run(sine_field, 0.5).monitors
        nan_at = [i for i, v in enumerate(mon.y_max) if math.isnan(v)]
        assert nan_at == [i for i, v in enumerate(mon.q_max) if math.isnan(v)] == [5]
        assert mon.y_max[:5] + mon.y_max[6:] == clean.y_max[:5] + clean.y_max[6:]
        assert mon.ceiling.violation_t == bad_t

    def test_state_error_outside_y_variable_ends_the_run(self, sine_field, monkeypatch):
        # a state's own record that overflows outside y_variable (its
        # slopes) ends the run, as it did when each state was recorded
        # alone: before a later step's error, which its block outlives
        _, states = run_with_states(monkeypatch, sine_field, 0.5)
        bad_t, bad_ux = states[5].t, states[5].u_x()
        slopes, real_step = core.riemann_slopes, solver.step

        def flaky(c, u_x, tau_x):  # u_x: a block's rows, or a state's row
            if any(np.array_equal(row, bad_ux) for row in np.reshape(u_x, (-1, len(bad_ux)))):
                raise FloatingPointError("overflow encountered in multiply")
            return slopes(c, u_x, tau_x)

        def failing_step(field, dt, **kw):
            if field.t > bad_t:
                raise VacuumError("tau reached zero")
            return real_step(field, dt, **kw)

        monkeypatch.setattr(core, "riemann_slopes", flaky)
        monkeypatch.setattr(solver, "step", failing_step)
        with pytest.raises(RangeError, match="FloatingPointError"):
            run(sine_field, 0.5)


def reference_fluxes(gm, tau, u, dx):
    """The stabilized fluxes as plain expressions on padded copies: the
    oracle of the bits that step computes in its workspace."""
    tau_g, u_g = fields.pad(tau), fields.pad(u)
    p_g = core.pressure(gm, tau_g)

    def ddx2(g):
        return (g[3:-1] - g[1:-3]) / (2.0 * dx)

    def diff4(g):
        return g[:-4] - 4.0 * g[1:-3] + 6.0 * g[2:-2] - 4.0 * g[3:-1] + g[4:]

    return (ddx2(u_g) - solver.STAB_COEF * diff4(tau_g) / dx,
            -ddx2(p_g) - solver.STAB_COEF * diff4(u_g) / dx)


@core.in_double_range
def reference_step(field, dt):
    """One Heun step in expression form (the oracle of solver.step)."""
    gm, dl, dx = field.gas, field.damping, field.grid.dx
    t1 = field.t + dt
    g1 = damping_decay(dl, field.t, t1)
    k1_tau, k1_w = reference_fluxes(gm, field.tau, field.u, dx)
    tau_p = field.tau + dt * k1_tau
    u_p = g1 * (field.u + dt * k1_w)
    k2_tau, k2_u = reference_fluxes(gm, tau_p, u_p, dx)
    k2_w = k2_u / g1
    tau_n = field.tau + 0.5 * dt * (k1_tau + k2_tau)
    u_n = g1 * (field.u + 0.5 * dt * (k1_w + k2_w))
    return tau_n, u_n


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros too


class TestWorkspaceStep:
    """step on a per-run workspace against the expression form, and the
    arrays that the states it returns own."""

    @pytest.mark.parametrize("gamma,alpha,lam,spec,n,length,t_end,broke", [
        # gentle_audit physics, every audit active
        (2.0, 1.0, 0.0, {"preset": "sine", "tau0": 1.0, "u_amp": -0.3,
                         "tau_amp": 0.1}, 128, 10.0, 3.0, False),
        # the T4_1 cell of sweep_alpha_lambda, run on to breakdown
        (5.0, 1.0909090909090908, 1.0, {"preset": "gaussian", "tau0": 1.0,
                                        "u_amp": -1.5, "width": 0.3},
         128, 5.0, 1.5, True),
        # demo_t32, which ends in breakdown
        (2.0, 1.0, 0.0, {"preset": "gaussian", "tau0": 1.0, "u_amp": -6.0,
                         "width": 0.5}, 256, 10.0, 2.0, True),
    ], ids=["gentle_audit", "T4_1_cell", "demo_t32"])
    def test_run_matches_expression_form(self, monkeypatch, gamma, alpha, lam, spec,
                                         n, length, t_end, broke):
        steps, real_step = [], solver.step

        def recorded(field, dt, **kwargs):
            new = real_step(field, dt, **kwargs)
            steps.append((field, dt, new))
            return new

        monkeypatch.setattr(solver, "step", recorded)
        f = make_field(GasModel(gamma, 1.0), DampingLaw(alpha, lam), spec,
                       n=n, length=length)
        assert run(f, t_end).broke_down is broke
        assert len(steps) > 20
        for field, dt, new in steps:
            tau, u = reference_step(field, dt)
            assert_same_bits(new.tau, tau)
            assert_same_bits(new.u, u)

    def test_large_grid_matches_expression_form(self, gm2, dl_const):
        # long_run physics: 20 steps at n = 4096 on one workspace
        f = make_field(gm2, dl_const, {"preset": "sine", "tau0": 1.0, "u_amp": -0.3,
                                       "tau_amp": 0.1}, n=4096)
        ws = solver.Workspace(f.grid)
        dt = solver.DEFAULT_CFL * f.grid.dx / float(f.sound().max())
        for _ in range(20):
            new = step(f, dt, workspace=ws)
            tau, u = reference_step(f, dt)
            assert_same_bits(new.tau, tau)
            assert_same_bits(new.u, u)
            f = new

    def test_state_owns_its_arrays(self, sine_field):
        ws = solver.Workspace(sine_field.grid)
        block = ws.stab.base  # the one allocation every buffer is a view of
        assert all(np.shares_memory(b, block) for s in ws.stages
                   for b in (s.state, s.flux, *s.taps))
        new = step(sine_field, 1e-3, workspace=ws)
        assert new.tau.base is new.u.base and new.tau.base.shape == (2, 128)
        assert not np.shares_memory(new.tau.base, block)
        tau, u = new.tau.copy(), new.u.copy()
        step(new, 1e-3, workspace=ws)
        step(sine_field, 2e-3, workspace=ws)
        assert_same_bits(new.tau, tau)
        assert_same_bits(new.u, u)

    def test_strided_input(self, sine_field):
        wide = np.repeat(np.stack([sine_field.tau, sine_field.u]), 2, axis=1)
        strided = dataclasses.replace(sine_field, tau=wide[0, ::2], u=wide[1, ::2])
        assert not strided.tau.flags.contiguous
        want, got = step(sine_field, 1e-3), step(strided, 1e-3)
        assert_same_bits(got.tau, want.tau)
        assert_same_bits(got.u, want.u)

    @pytest.mark.filterwarnings("error")
    def test_uniform_flow_near_double_range(self, gm2, dl_const):
        # u = 1e306 everywhere on a fine grid: no stencil of either row
        # sees more than a round-off, but a window that straddles the two
        # rows does, and its scaling by 0.02 / dx would overflow
        f = init_field({"preset": "constant", "tau": 1.0, "u": 1e306},
                       Grid(n=16, length=1.6e-3), gm2, dl_const)
        new = step(f, 1e-6)
        tau, u = reference_step(f, 1e-6)
        assert_same_bits(new.tau, tau)
        assert_same_bits(new.u, u)

    def test_runs_leave_earlier_outcomes_alone(self, gm2, dl_const, sine_field):
        res1 = run(sine_field, 0.5)
        kept = res1.outcome.tau.copy(), res1.outcome.u.copy()
        run(sine_field, 0.5)
        assert_same_bits(res1.outcome.tau, kept[0])
        assert_same_bits(res1.outcome.u, kept[1])
        f = make_field(gm2, dl_const, {"preset": "gaussian", "tau0": 1.0,
                                       "u_amp": -6.0, "width": 0.5}, n=256)
        res1 = run(f, 2.0)
        last = res1.outcome.last_field
        kept = last.tau.copy(), last.u.copy()
        assert run(f, 2.0).broke_down
        assert_same_bits(last.tau, kept[0])
        assert_same_bits(last.u, kept[1])


class TestCeilingRegime:
    @staticmethod
    def has_ceiling(gm, dl):
        return core.classify_regime(gm, dl).has_ceiling

    def test_sub_gamma_always_holds_for_nonneg_lambda(self, gm2):
        for lam in (0.0, 0.5, 1.0, 2.0):
            assert self.has_ceiling(gm2, DampingLaw(1.0, lam))

    def test_super_gamma_needs_strong_damping(self, gm5):
        assert self.has_ceiling(gm5, DampingLaw(1.0, 0.5))
        assert not self.has_ceiling(gm5, DampingLaw(0.1, 0.5))
        assert not self.has_ceiling(gm5, DampingLaw(1.0, 2.0))
        assert self.has_ceiling(gm5, DampingLaw(1.0, 1.0))
        assert not self.has_ceiling(gm5, DampingLaw(0.3, 1.0))
        for lam in (0.5, 1.0, 2.0):  # no damping: c0 = 0 at every t
            assert self.has_ceiling(gm5, DampingLaw(0.0, lam))

    def test_super_gamma_gap_boundary(self, gm5):
        # lambda = alpha(g-1)/(g-3) < 1: c0 is 0 at t = 0, negative after
        assert self.has_ceiling(gm5, DampingLaw(0.25, 0.5))
        # lambda = alpha(g-1)/(g-3) > 1: c0 is 0 at t = 0, positive after
        assert not self.has_ceiling(gm5, DampingLaw(1.0, 2.0))

    def test_floor_audited_with_ceiling_audit_on(self):
        # lambda at alpha(g-1)/(g-3): the regime map that admits the floor
        # also grants the ceilings the floor is built on, so both are
        # audited
        gm = GasModel(1.4958575692561122, 1.0)
        dl = DampingLaw(0.47263534777696115, -0.1558095895062919)
        assert core.classify_regime(gm, dl).has_density_floor
        assert self.has_ceiling(gm, dl)
        f = make_field(gm, dl, {"preset": "sine", "tau0": 1.0, "u_amp": -0.2},
                       n=32, length=5.0)
        mon = run(f, 3.0).monitors
        assert mon.ceiling.ok is not None
        assert mon.floor_t_min < 3.0 and mon.floor.ok is True


class TestTrace:
    def test_constant_state_slope(self, gm2, dl_const):
        f = make_field(gm2, dl_const, {"preset": "constant", "tau": 1.0, "u": 0.0},
                       n=64)
        res = run(f, 0.5, monitors_requested=False)
        tr = trace_characteristic(res, 2.0, Direction.FORWARD)
        c = math.sqrt(2.0)
        expected = np.mod(2.0 + c * tr.times, 10.0)
        assert np.max(np.abs(tr.xs - expected)) < 1e-6
        tr_b = trace_characteristic(res, 2.0, Direction.BACKWARD)
        assert np.max(np.abs(tr_b.xs - np.mod(2.0 - c * tr_b.times, 10.0))) < 1e-6

    def test_traces_coincide_at_start(self, sine_field):
        res = run(sine_field, 0.3, monitors_requested=False)
        tf = trace_characteristic(res, 4.0, Direction.FORWARD)
        tb = trace_characteristic(res, 4.0, Direction.BACKWARD)
        assert tf.xs[0] == tb.xs[0] == 4.0
        assert math.isclose(tf.phi[0], tb.phi[0], rel_tol=1e-12)

    def test_undamped_w_conserved_along_forward(self, gm2):
        dl = DampingLaw(0.0, 0.0)
        f = make_field(gm2, dl, {"preset": "sine", "tau0": 1.0, "u_amp": -0.2},
                       n=256)
        res = run(f, 0.6, monitors_requested=False)
        tr = trace_characteristic(res, 2.5, Direction.FORWARD)
        # reconstruct w = u + phi along the path from snapshots
        snaps = res.snapshots
        ws = []
        for t, x in zip(tr.times, tr.xs):
            k = int(np.searchsorted(snaps.times, t, side="right")) - 1
            k = min(max(k, 0), len(snaps.times) - 2)
            wgt = (t - snaps.times[k]) / (snaps.times[k + 1] - snaps.times[k])
            tau = (1 - wgt) * np.interp(x, snaps.grid.xs, snaps.taus[k]) \
                + wgt * np.interp(x, snaps.grid.xs, snaps.taus[k + 1])
            u = (1 - wgt) * np.interp(x, snaps.grid.xs, snaps.us[k]) \
                + wgt * np.interp(x, snaps.grid.xs, snaps.us[k + 1])
            ws.append(u + float(gm2.phi_coef * tau ** -0.5))
        ws = np.array(ws)
        assert np.max(np.abs(ws - ws[0])) < 5e-4  # O(dx^2) scale

    def test_cross_validation_constant_state(self, gm2, dl_const):
        f = make_field(gm2, dl_const, {"preset": "constant", "tau": 1.0, "u": 0.0},
                       n=64)
        res = run(f, 0.5, monitors_requested=False)
        tr = trace_characteristic(res, 2.0, Direction.FORWARD)
        rep = cross_validate_riccati(tr, gm2, dl_const, 0.01)
        assert rep.deviation < 1e-6
        assert rep.within_tol

    @pytest.mark.parametrize("x_start", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_refused(self, sine_field, x_start):
        res = run(sine_field, 0.1, monitors_requested=False)
        for direction in Direction:
            with pytest.raises(TraceError):
                trace_characteristic(res, x_start, direction)

    @pytest.mark.parametrize("where,value", [("us", math.nan), ("taus", math.inf)])
    def test_non_finite_snapshot_refused(self, sine_field, where, value):
        # a hand-built store: run itself never keeps a non-finite state
        res = run(sine_field, 0.1, monitors_requested=False)
        getattr(res.snapshots, where)[1][7] = value
        for direction in Direction:
            with pytest.raises(TraceError, match="non-finite"):
                trace_characteristic(res, 2.5, direction)

    def test_spline_out_of_range_refused(self, sine_field):
        # finite knot values whose knot slopes overflow: y[i+1] - y[i-1]
        # does where the column changes sign
        res = run(sine_field, 0.1, monitors_requested=False)
        half = sine_field.grid.n // 2
        res.snapshots.us[1][:half], res.snapshots.us[1][half:] = 1.7e308, -1.7e308
        with pytest.raises(RangeError, match="_periodic_slopes"):
            trace_characteristic(res, 2.5, Direction.FORWARD)

    def test_secant_out_of_range_refused(self, sine_field):
        # finite knot values and knot slopes whose secants overflow:
        # y[i+1] - y[i-1] stays finite with every other knot at 1.7e308
        res = run(sine_field, 0.1, monitors_requested=False)
        res.snapshots.us[1][::2] = 1.7e308
        with pytest.raises(RangeError, match="coefficients"):
            trace_characteristic(res, 2.5, Direction.FORWARD)

    def test_cross_validation_needs_two_rows(self, gm2, dl_const):
        one = np.array([0.0])
        tr = solver.CharTrace(times=one, xs=one, phi=one + 1.0, y_or_q=one - 1.0)
        with pytest.raises(TraceError, match="too short"):
            cross_validate_riccati(tr, gm2, dl_const, 0.01)

    def test_cross_validation_pole_inside_window(self, gm2, dl_const):
        # y' = c0 - c2 y**2 with c0 < 0 and y0 = -1e3 reaches its pole
        # near t = 1/(c2 * 1e3), well before the second row at t = 1
        c0, c2 = core.riccati_coefficients(gm2, dl_const, 1.0, 0.0)
        assert c0 < 0.0 and 1.0 / (c2 * 1e3) < 0.1
        tr = solver.CharTrace(times=np.array([0.0, 1.0]), xs=np.zeros(2),
                              phi=np.ones(2), y_or_q=np.array([-1e3, -1e3]))
        with pytest.raises(TraceError, match="blew up inside the trace window"):
            cross_validate_riccati(tr, gm2, dl_const, 0.01)

    def test_cross_validation_nontrivial(self, gm2, dl_const, sine_field):
        res = run(sine_field, 0.8, monitors_requested=False)
        tr = trace_characteristic(res, 2.5, Direction.FORWARD)
        rep = cross_validate_riccati(tr, gm2, dl_const, 0.01)
        assert rep.deviation <= 0.01
        # per row and overall, both normalized by the largest |y|
        diff = np.abs(rep.y_integrated - tr.y_or_q)
        scale = np.max(np.abs(tr.y_or_q))
        assert np.array_equal(rep.deviations, diff / scale)
        assert rep.deviation == np.max(diff) / scale


# (gamma, alpha, lambda, profile, L, t_end), each traced forward from
# x = 2.5 at n = 128, 256 and 512
CONVERGENCE_SETUPS = {
    "criterion_9": (2.0, 1.0, 0.0, {"preset": "sine", "tau0": 1.0, "u_amp": -0.2},
                    10.0, 0.8),
    "gentle_audit": (2.0, 1.0, 0.0, {"preset": "sine", "tau0": 1.0, "u_amp": -0.3,
                                     "tau_amp": 0.1}, 10.0, 3.0),
    "T4_1": (5.0, 1.0909090909090908, 1.0, {"preset": "sine", "tau0": 1.0,
                                            "u_amp": -0.2}, 10.0, 0.8),
}


@pytest.fixture(scope="module", params=sorted(CONVERGENCE_SETUPS))
def refined_traces(request):
    """(gas, damping, the traces at n = 128, 256, 512) of one set-up."""
    gamma, alpha, lam, spec, length, t_end = CONVERGENCE_SETUPS[request.param]
    gm, dl = GasModel(gamma, 1.0), DampingLaw(alpha, lam)
    traces = []
    for n in (128, 256, 512):
        res = run(make_field(gm, dl, spec, n=n, length=length), t_end,
                  monitors_requested=False)
        assert not res.broke_down
        traces.append(trace_characteristic(res, 2.5, Direction.FORWARD))
    return gm, dl, traces


def observed_orders(gm, dl, traces):
    """log2 of the Riccati cross-check's deviation ratio over each grid
    doubling."""
    devs = [cross_validate_riccati(tr, gm, dl, 0.01).deviation for tr in traces]
    return [math.log2(a / b) for a, b in zip(devs, devs[1:])]


class TestRiccatiConvergence:
    """The Riccati cross-check as a test that can fail: with the right
    coefficients its deviation falls at second order as the grid is
    refined; a kernel off by 0.1% plateaus, though the frozen tolerance
    of criterion 9 (0.01) passes it."""

    def test_deviation_converges(self, refined_traces):
        assert min(observed_orders(*refined_traces)) >= 1.5

    @pytest.mark.parametrize("which", [0, 1], ids=["c0", "c2"])
    @pytest.mark.parametrize("scale", [1.001, 0.999])
    def test_perturbed_kernel_stalls(self, refined_traces, monkeypatch, which, scale):
        built = core.riccati_kernel

        def perturbed(gm, dl):
            kernel = built(gm, dl)

            def coefficients(phi, t):
                cs = list(kernel(phi, t))
                cs[which] *= scale
                return tuple(cs)

            return coefficients

        monkeypatch.setattr(core, "riccati_kernel", perturbed)
        assert max(observed_orders(*refined_traces)) < 0.5


def frame_trace(run_output, x_start, direction):
    """Per-snapshot trace: two scipy periodic CubicSplines per snapshot,
    each evaluated one scalar at a time; the oracle of the stacked
    splines."""
    from scipy.interpolate import CubicSpline

    snaps = run_output.snapshots
    if len(snaps.times) < 2:
        raise TraceError("need at least two snapshots to trace")
    grid, gm, dl = snaps.grid, snaps.gas, snaps.damping
    knots = np.append(grid.xs, grid.length)

    def spline(f):
        return CubicSpline(knots, np.append(f, f[0]), bc_type="periodic")

    frames = [(spline(tau), spline(u)) for tau, u in zip(snaps.taus, snaps.us)]
    times = snaps.times
    sign = 1.0 if direction is Direction.FORWARD else -1.0

    def bracket(t):
        k = int(np.searchsorted(times, t, side="right")) - 1
        k = min(max(k, 0), len(times) - 2)
        return k, (t - times[k]) / (times[k + 1] - times[k])

    def speed(t, x):
        k, w = bracket(t)
        xw = float(grid.wrap(x))
        tau = (1.0 - w) * float(frames[k][0](xw)) + w * float(frames[k + 1][0](xw))
        if not tau > 0.0:
            raise TraceError("interpolated tau became nonpositive or NaN on the path")
        return sign * float(core.sound_speed(gm, tau))

    def sample(t, x):
        k, w = bracket(t)
        xw = float(grid.wrap(x))
        va, vb = (np.array([float(s(xw)) for s in frames[j]]
                           + [float(s(xw, 1)) for s in frames[j]]) for j in (k, k + 1))
        tau, u, taux, ux = (1.0 - w) * va + w * vb
        if not tau > 0.0:
            raise TraceError("interpolated tau became nonpositive or NaN on the path")
        phi = float(core.phi_of_tau(gm, tau))
        a_w, b_z = core.riemann_slopes(float(core.sound_speed(gm, tau)), ux, taux)
        grad = a_w if direction is Direction.FORWARD else b_z
        return phi, float(core.y_variable(gm, dl, phi, grad, t))

    x = float(grid.wrap(x_start))
    out = []
    for k in range(len(times)):
        out.append((times[k], float(grid.wrap(x)), *sample(times[k], x)))
        if k == len(times) - 1:
            break
        t_b = times[k + 1]
        h = (t_b - times[k]) / 4
        t = times[k]
        for _ in range(4):
            k1 = speed(t, x)
            k2 = speed(t + 0.5 * h, x + 0.5 * h * k1)
            k3 = speed(t + 0.5 * h, x + 0.5 * h * k2)
            k4 = speed(min(t + h, t_b), x + h * k3)
            x += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
    return np.array(out).T


def knot_to_knot_riccati(trace, gm, dl):
    """cross_validate_riccati's knot-to-knot integration, written out
    independently as the reference it is compared against."""
    def coeff_source(t):
        c0, c2 = core.riccati_coefficients(
            gm, dl, float(np.interp(t, trace.times, trace.phi)), t)
        return float(c0), float(c2)

    y = [float(trace.y_or_q[0])]
    for t_a, t_b in zip(trace.times[:-1], trace.times[1:]):
        prob = riccati.RiccatiProblem(coeff_source, y[-1], float(t_a))
        out = riccati.integrate(prob, float(t_b), tol=1e-10)
        if out.kind is riccati.OutcomeKind.BLOWUP:
            raise TraceError("blow-up inside the trace window")
        y.append(out.y_end)
    return np.array(y)


# scipy solves the spline on the knots i * dx as rounded, whose spacing
# varies by ulps of x, where _periodic_slopes takes the grid's one step;
# that difference, about n ulps relative to the slopes, dominates.  The
# largest differences measured over the domains below, relative to the
# largest magnitude of their column: 5.8e-13 in a spline's slope read at
# a point (300 random spline sets); 1.8e-16 in a trace's x, 7.4e-15 in
# its phi and 4.5e-14 in its y_or_q, that one relative to the largest
# |y| or |q| of the first and last state (200 random runs)
SPLINE_VS_SCIPY = 1e-11
TRACE_VS_SCIPY = 5e-13


def assert_close(got, want, bound, axis=None):
    """|got - want| within bound times the largest |want| along axis
    (all of want by default)."""
    scale = np.abs(want).max(axis=axis, keepdims=True)
    assert np.all(np.abs(got - want) <= bound * scale), \
        float(np.max(np.abs(got - want) / scale))


class TestStackedTrace:
    @given(
        n=st.integers(16, 600),
        gamma=st.sampled_from([1.4, 2.0, 5.0]),
        alpha=st.floats(0.0, 2.0),
        lam=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        u_amp=st.floats(-6.0, 0.5),
        t_end=st.floats(0.05, 0.4),
        x_start=st.floats(-15.0, 25.0),
    )
    # cadence 2, ends in breakdown at t = 0.166
    @example(n=520, gamma=2.0, alpha=1.0, lam=0.0, u_amp=-6.0,
             t_end=0.4, x_start=4.5)
    # one accepted step, two snapshots: one interval, its end at weight 1
    @example(n=16, gamma=2.0, alpha=1.0, lam=0.0, u_amp=-0.5,
             t_end=0.05, x_start=3.0)
    @settings(max_examples=12, deadline=None)
    def test_matches_per_frame_splines(self, n, gamma, alpha, lam, u_amp,
                                       t_end, x_start):
        gm, dl = GasModel(gamma, 1.0), DampingLaw(alpha, lam)
        f = init_field({"preset": "gaussian", "tau0": 1.0, "u_amp": u_amp,
                        "width": 0.5}, Grid(n=n, length=10.0), gm, dl)
        try:
            res = run(f, t_end, monitors_requested=False)
        except (VacuumError, RangeError):
            return
        for direction in Direction:
            try:
                expected = frame_trace(res, x_start, direction)
            except TraceError:
                with pytest.raises(TraceError):
                    trace_characteristic(res, x_start, direction)
                continue
            tr = trace_characteristic(res, x_start, direction)
            assert np.array_equal(tr.times, expected[0])
            for got, want in zip((tr.xs, tr.phi), expected[1:3]):
                assert_close(got, want, TRACE_VS_SCIPY)
            # a y or q error follows the slopes of the whole field, not of
            # the path, which may keep to where they are nearly 0
            last = res.outcome.last_field if res.broke_down else res.outcome
            y_scale = max(float(np.abs(g.yq()).max()) for g in (f, last))
            assert np.all(np.abs(tr.y_or_q - expected[3]) <= TRACE_VS_SCIPY * y_scale)
            try:
                y_knots = knot_to_knot_riccati(tr, gm, dl)
            except TraceError:
                with pytest.raises(TraceError):
                    cross_validate_riccati(tr, gm, dl, 0.01)
                continue
            assert np.array_equal(cross_validate_riccati(tr, gm, dl, 0.01).y_integrated,
                                  y_knots)


def scipy_periodic_spline(grid, ys):
    """scipy's periodic CubicSpline in x through each row of ys, row k
    as column k: the oracle of _periodic_slopes and
    _SnapshotSplines.coeffs."""
    from scipy.interpolate import CubicSpline

    return CubicSpline(np.append(grid.xs, grid.length),
                       np.concatenate((ys, ys[:, :1]), axis=1).T, bc_type="periodic")


def spline_store(grid, ys):
    """A SnapshotStore holding the rows of ys, the first half as tau and
    the rest as u, and the (which, k) reader keys of the first and last
    column of each field."""
    frames = (len(ys) + 1) // 2
    snaps = solver.SnapshotStore(
        grid=grid, gas=GasModel(2.0, 1.0), damping=DampingLaw(1.0, 0.0),
        times=list(range(frames)), taus=list(ys[:frames]), us=list(ys[frames:]),
    )
    ends = {(which, k) for which, count in enumerate((frames, len(ys) - frames))
            if count for k in (0, count - 1)}
    return snaps, sorted(ends)


def spline_domain(test):
    """The spline tests' data: n knots, lengths 10.0 (knots i * dx exact
    where n is a power of two) and 7.3, 1 to 200 columns of normal noise."""
    return given(
        n=st.integers(16, 1100),
        length=st.sampled_from([10.0, 7.3]),
        cols=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )(test)


# Largest measured over 300 random spline sets of the domain above, each
# relative to its column's largest |y| or |secant|: 1.5e-15 for the
# value and 2.5e-15 for the slope at an interval's right end, 1.1e-14
# (times the secant scale over dx) for the jump in the second derivative
CONTINUITY_BOUND = 2e-14
CURVATURE_JUMP_BOUND = 2e-13


class TestSnapshotSplines:
    """The in-house splines: their slopes and coefficients against
    scipy's CubicSpline and the column reader against PPoly.__call__,
    all within SPLINE_VS_SCIPY; then against the conditions that define
    a periodic cubic spline, with no reference implementation."""

    @spline_domain
    @example(n=129, length=10.0, cols=159, seed=0)
    @example(n=65, length=7.3, cols=7, seed=1)
    @example(n=1025, length=10.0, cols=40, seed=2)
    @settings(max_examples=25, deadline=None)
    def test_matches_ppoly(self, n, length, cols, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(n=n, length=length)
        ys = rng.normal(0.0, 1.0, (cols, n))
        spl = scipy_periodic_spline(grid, ys)
        snaps, picked = spline_store(grid, ys)
        splines = solver._SnapshotSplines(grid, snaps)
        assert splines.knots == spl.x.tolist()
        # every column's knot slopes
        assert splines.slopes.shape == (cols, n)
        assert_close(splines.slopes, spl.c[2].T, SPLINE_VS_SCIPY, axis=1)

        # the coefficients, per power, and the reader on the first and
        # last column of each field
        idx = [k + which * splines.frames for which, k in picked]
        c = np.array([[splines.coeffs(which, i, k) for i in range(n)]
                      for which, k in picked]).transpose(2, 1, 0)
        assert_close(c, spl.c[:, :, idx], SPLINE_VS_SCIPY, axis=1)

        # every knot, L included, just either side of the period and
        # points over several periods
        xs = np.concatenate((splines.knots, [-1e-12, length + 1e-12],
                             rng.uniform(-40.0, 50.0, 8)))
        for nu in (0, 1):
            want = spl(xs, nu)[:, idx]
            got = np.array([[solver._cubic(splines.coeffs(which, i, k), offset, nu)
                             for which, k in picked]
                            for i, offset in map(splines.locate, xs)])
            assert_close(got, want, SPLINE_VS_SCIPY, axis=0)

    @spline_domain
    @example(n=16, length=7.3, cols=1, seed=3)
    @settings(max_examples=25, deadline=None)
    def test_defining_conditions(self, n, length, cols, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(n=n, length=length)
        ys = rng.normal(0.0, 1.0, (cols, n))
        snaps, picked = spline_store(grid, ys)
        splines = solver._SnapshotSplines(grid, snaps)
        h = grid.dx
        # periodic: the knot after the last is the first, at x = L = 0
        s, s_next = splines.slopes, np.roll(splines.slopes, -1, axis=1)
        y_next = np.roll(ys, -1, axis=1)
        m = (y_next - ys) / h  # the secant slope of each interval
        y_scale = np.abs(ys).max(axis=1, keepdims=True)
        m_scale = np.abs(m).max(axis=1, keepdims=True)

        # every column: the Hermite cubic on [x_i, x_i + h] with end
        # slopes s_i, s_i+1 has second derivative (6 m - 4 s_i - 2 s_i+1) / h
        # at its left end and (-6 m + 2 s_i + 4 s_i+1) / h at its right;
        # they meet at every knot, the one at L = 0 included
        left = (6 * m - 4 * s - 2 * s_next) / h
        right = (-6 * m + 2 * s + 4 * s_next) / h
        jump = right - np.roll(left, -1, axis=1)
        assert np.all(np.abs(jump) <= CURVATURE_JUMP_BOUND * m_scale / h)

        # the reader's cubics of the first and last column of each field
        for which, k in picked:
            col = k + which * splines.frames
            a, b, c, d = np.array([splines.coeffs(which, i, k) for i in range(n)]).T
            # interpolates every knot exactly, each read at its knot
            at_knots = [solver._cubic(splines.coeffs(which, i, k), offset)
                        for i, offset in map(splines.locate, splines.knots[:-1])]
            assert at_knots == ys[col].tolist()
            # value, slope and second derivative continuous into the
            # next interval, the last one's end meeting the first knot
            value = d + h * (c + h * (b + h * a))
            slope = c + h * (2 * b + h * 3 * a)
            assert np.all(np.abs(value - y_next[col]) <= CONTINUITY_BOUND * y_scale[col])
            assert np.all(np.abs(slope - s_next[col]) <= CONTINUITY_BOUND * m_scale[col])
            curv_jump = 6 * a * h + 2 * b - np.roll(2 * b, -1)
            assert np.all(np.abs(curv_jump) <= CURVATURE_JUMP_BOUND * m_scale[col] / h)

    def test_nan_point(self, sine_field):
        res = run(sine_field, 0.05, monitors_requested=False)
        splines = solver._SnapshotSplines(sine_field.grid, res.snapshots)
        i, s = splines.locate(math.nan)
        assert math.isnan(solver._cubic(splines.coeffs(0, i, 0), s))
        spl = scipy_periodic_spline(sine_field.grid, np.array(res.snapshots.taus))
        assert np.isnan(spl(math.nan)).all()

    def test_coefficient_out_of_range_refused(self):
        # knot values alternating in sign: the knot and secant slopes are
        # finite, the leading coefficient of every interval is not
        grid = Grid(n=64, length=10.0)
        ys = np.where(np.arange(64) % 2, 1e306, -1e306)
        gm, dl = GasModel(2.0, 1.0), DampingLaw(1.0, 0.0)
        snaps = solver.SnapshotStore(grid=grid, gas=gm, damping=dl, times=[0.0],
                                     taus=[ys], us=[ys])
        splines = solver._SnapshotSplines(grid, snaps)
        for which in (0, 1):
            with pytest.raises(RangeError, match="coefficients"):
                splines.coeffs(which, 5, 0)


class TestSnapshotIO:
    @pytest.mark.parametrize("spec,n,t_end,records", [
        # cadence 2; completes, the last record at t_end
        ({"preset": "sine", "tau0": 1.0, "u_amp": -0.1}, 512, 0.1, None),
        # cadence 3; breaks down after 169 steps, closed out by the last
        # resolved state, which the cadence skipped
        ({"preset": "gaussian", "tau0": 1.0, "u_amp": -6.0, "width": 0.5},
         768, 0.4, 58),
        # breaks down on the first step: the initial record only
        ({"preset": "gaussian", "tau0": 1.0, "u_amp": -6.0, "width": 0.2},
         64, 0.4, 1),
    ], ids=["completed", "breakdown", "first_step_breakdown"])
    def test_streamed_equals_dumped(self, gm2, dl_const, tmp_path, spec, n, t_end,
                                    records):
        f = make_field(gm2, dl_const, spec, n=n)
        store = run(f, t_end).snapshots
        if records is None:
            assert store.times[-1] == t_end and store.records > 2
        else:
            assert store.records == records
        dumped, streamed = tmp_path / "dumped.bin", tmp_path / "streamed.bin"
        assert write_snapshots(dumped, store) == dumped.stat().st_size
        with SnapshotWriter(streamed, f.grid, f.gas, f.damping) as writer:
            res = run(f, t_end, snapshots=writer)
        assert res.snapshots is writer and writer.records == store.records
        assert writer.bytes == streamed.stat().st_size
        assert streamed.read_bytes() == dumped.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dumped.bin",
                                                              "streamed.bin"]

    def test_discarded_records_are_counted(self, sine_field):
        store = run(sine_field, 0.3).snapshots
        res = run(sine_field, 0.3, snapshots=DiscardSnapshots())
        assert res.snapshots.records == store.records

    def test_failed_run_leaves_no_file(self, sine_field, tmp_path, monkeypatch):
        # a run that raises after some records were written: the partial
        # file is removed and an earlier snapshots.bin is left as it was
        path = tmp_path / "snapshots.bin"
        path.write_bytes(b"earlier")
        real_step, calls = solver.step, []

        def failing(field, dt, **kwargs):
            calls.append(dt)
            if len(calls) == 4:
                raise VacuumError("tau reached zero")
            return real_step(field, dt, **kwargs)

        monkeypatch.setattr(solver, "step", failing)
        with pytest.raises(VacuumError):
            with SnapshotWriter(path, sine_field.grid, sine_field.gas,
                                sine_field.damping) as writer:
                run(sine_field, 0.3, snapshots=writer)
        assert writer.records == 4
        assert [p.name for p in tmp_path.iterdir()] == ["snapshots.bin"]
        assert path.read_bytes() == b"earlier"

    def test_roundtrip(self, sine_field, tmp_path):
        res = run(sine_field, 0.3, monitors_requested=False)
        path = tmp_path / "snaps.bin"
        write_snapshots(path, res.snapshots)
        back = read_snapshots(path)
        assert back.times == res.snapshots.times
        assert back.grid.n == sine_field.grid.n
        assert math.isclose(back.gas.gamma, 2.0)
        for a, b in zip(back.taus, res.snapshots.taus):
            assert np.array_equal(a, b)
        for a, b in zip(back.us, res.snapshots.us):
            assert np.array_equal(a, b)

    def test_header_layout(self, sine_field, tmp_path):
        res = run(sine_field, 0.1, monitors_requested=False)
        path = tmp_path / "snaps.bin"
        write_snapshots(path, res.snapshots)
        raw = path.read_bytes()
        assert raw[:8] == b"SHKL1\x00\x00\x00"
        n = sine_field.grid.n
        assert (len(raw) - 56) % (8 * (1 + 2 * n)) == 0

    @pytest.mark.parametrize("size", [0, 5, 8, 40, 60, "n=2**62"])
    def test_truncated_file(self, sine_field, tmp_path, size):
        res = run(sine_field, 0.1, monitors_requested=False)
        path = tmp_path / "snaps.bin"
        write_snapshots(path, res.snapshots)
        raw = path.read_bytes()
        if size == "n=2**62":  # records too long for any file to hold
            raw = raw[:8] + struct.pack("<q", 2**62) + raw[16:]
        else:
            raw = raw[:size]
        path.write_bytes(raw)
        with pytest.raises(DomainError):
            read_snapshots(path)

    @pytest.mark.parametrize("where", ["time", "tau", "u"])
    def test_non_finite_record_refused(self, sine_field, tmp_path, where):
        snaps = run(sine_field, 0.1, monitors_requested=False).snapshots
        if where == "time":
            snaps.times[-1] = math.inf
        else:
            getattr(snaps, where + "s")[1][3] = math.nan
        path = tmp_path / "snaps.bin"
        write_snapshots(path, snaps)
        with pytest.raises(DomainError, match="non-finite"):
            read_snapshots(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 48)
        with pytest.raises(DomainError):
            read_snapshots(path)

    def test_shkl2_header_refused(self, sine_field, tmp_path):
        # the retired 64-byte header that carried a grid offset x0
        res = run(sine_field, 0.1, monitors_requested=False)
        path = tmp_path / "snaps.bin"
        write_snapshots(path, res.snapshots)
        raw = path.read_bytes()
        path.write_bytes(b"SHKL2\x00\x00\x00" + raw[8:56] + struct.pack("<d", 5.0)
                         + raw[56:])
        with pytest.raises(DomainError, match="bad snapshot magic"):
            read_snapshots(path)
