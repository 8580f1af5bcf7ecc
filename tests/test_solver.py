"""Simulator: scheme fidelity, monitors, tracing, cross-validation,
snapshot IO."""

import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shockline import DampingLaw, DomainError, GasModel, Grid, RangeError, TraceError
from shockline import VacuumError, core, fields, riccati, solver
from shockline.fields import ddx4, init_field
from shockline.solver import (
    BreakdownReport,
    _interp,
    Direction,
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
        assert math.isclose(snaps.times[-1], 0.1)
        assert len(snaps.times) >= 3

    def test_two_derivative_passes_per_step(self, sine_field, monkeypatch):
        # with monitors on, each accepted state differentiates u and tau
        # once; the breakdown test, monitors, audits and dt share them
        calls = []

        def counted(f, dx):
            calls.append(1)
            return ddx4(f, dx)

        monkeypatch.setattr(fields, "ddx4", counted)
        res = run(sine_field, 0.5)
        assert not res.broke_down
        assert len(calls) == 2 * len(res.monitors.ts)
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

        def poisoned(field, dt):
            new = real_step(field, dt)
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


def frame_trace(run_output, x_start, direction):
    """Per-snapshot trace: two periodic CubicSplines per snapshot, each
    evaluated one scalar at a time; the oracle of the stacked splines."""
    from scipy.interpolate import CubicSpline

    snaps = run_output.snapshots
    if len(snaps.times) < 2:
        raise TraceError("need at least two snapshots to trace")
    grid, gm, dl = snaps.grid, snaps.gas, snaps.damping
    knots = np.append(grid.xs, grid.x0 + grid.length)

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
        if tau <= 0.0:
            raise TraceError("interpolated tau became nonpositive on the path")
        return sign * float(core.sound_speed(gm, tau))

    def sample(t, x):
        k, w = bracket(t)
        xw = float(grid.wrap(x))
        va, vb = (np.array([float(s(xw)) for s in frames[j]]
                           + [float(s(xw, 1)) for s in frames[j]]) for j in (k, k + 1))
        tau, u, taux, ux = (1.0 - w) * va + w * vb
        if tau <= 0.0:
            raise TraceError("interpolated tau became nonpositive on the path")
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


@st.composite
def knots_and_values(draw):
    """Strictly increasing knots and a value at each."""
    xs = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=12,
                              unique=True)))
    return xs, draw(st.lists(st.floats(-1e6, 1e6), min_size=len(xs),
                             max_size=len(xs)))


class TestInterp:
    """The cross-check's phi lookup on floats against np.interp, bit for
    bit (the sign of a zero too)."""

    @given(knots=knots_and_values(),
           weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    @example(knots=([0.0, 0.1, 0.30000000000000004, 1.0], [0.5, -0.0, 3.0, 3.0]),
             weights=[0.5, 1e-3, 1.0 - 1e-3])
    @settings(max_examples=200, deadline=None)
    def test_matches_np_interp(self, knots, weights):
        xs, fs = knots
        # past both ends, inside every interval, on every knot and one
        # ulp either side of it
        points = [xs[0] - 1.0, xs[-1] + 1.0]
        for a, b in zip(xs[:-1], xs[1:]):
            points += [a + w * (b - a) for w in weights]
        for x in xs:
            points += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
        for t in points:
            want = float(np.interp(t, np.array(xs), np.array(fs)))
            assert _interp(t, xs, fs).hex() == want.hex(), t


class TestStackedTrace:
    @given(
        n=st.integers(16, 600),
        x0=st.sampled_from([0.0, 5.0, -2.5]),
        gamma=st.sampled_from([1.4, 2.0, 5.0]),
        alpha=st.floats(0.0, 2.0),
        lam=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        u_amp=st.floats(-6.0, 0.5),
        t_end=st.floats(0.05, 0.4),
        x_start=st.floats(-15.0, 25.0),
    )
    # cadence 2, x0 != 0, ends in breakdown at t = 0.166
    @example(n=520, x0=5.0, gamma=2.0, alpha=1.0, lam=0.0, u_amp=-6.0,
             t_end=0.4, x_start=9.5)
    # one accepted step, two snapshots: one interval, its end at weight 1
    @example(n=16, x0=0.0, gamma=2.0, alpha=1.0, lam=0.0, u_amp=-0.5,
             t_end=0.05, x_start=3.0)
    @settings(max_examples=12, deadline=None)
    def test_matches_per_frame_splines(self, n, x0, gamma, alpha, lam, u_amp,
                                       t_end, x_start):
        gm, dl = GasModel(gamma, 1.0), DampingLaw(alpha, lam)
        f = init_field({"preset": "gaussian", "tau0": 1.0, "u_amp": u_amp,
                        "width": 0.5}, Grid(n=n, length=10.0, x0=x0), gm, dl)
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
            for got, want in zip((tr.times, tr.xs, tr.phi, tr.y_or_q), expected):
                assert np.array_equal(got, want)
            try:
                y_knots = knot_to_knot_riccati(tr, gm, dl)
            except TraceError:
                with pytest.raises(TraceError):
                    cross_validate_riccati(tr, gm, dl, 0.01)
                continue
            assert np.array_equal(cross_validate_riccati(tr, gm, dl, 0.01).y_integrated,
                                  y_knots)


class TestSnapshotSplines:
    """The column reader of the stacked splines against PPoly.__call__,
    value and slope, compared bit for bit (the sign of a zero too)."""

    @given(
        n=st.integers(16, 64),
        x0=st.sampled_from([0.0, 5.0, -2.5]),
        length=st.sampled_from([10.0, 7.3]),
        frames=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        offsets=st.lists(st.floats(1e-12, 40.0), min_size=1, max_size=4),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_ppoly(self, n, x0, length, frames, seed, offsets, fractions):
        rng = np.random.default_rng(seed)
        grid = Grid(n=n, length=length, x0=x0)
        gm, dl = GasModel(2.0, 1.0), DampingLaw(1.0, 0.0)
        us = rng.normal(0.0, 1.0, (frames, n))
        us[:, ::5] = -0.0  # scipy's sum starts at +0.0: a knot value -0.0 reads +0.0
        snaps = solver.SnapshotStore(
            grid=grid, gas=gm, damping=dl, times=list(range(frames)),
            taus=list(rng.uniform(0.5, 1.5, (frames, n))), us=list(us),
        )
        splines = solver._SnapshotSplines(grid, snaps)
        knots = splines.knots
        xs = (knots  # every breakpoint, x0 + L included
              + [x0 - d for d in offsets] + [x0 + length + d for d in offsets]
              + [x0 + f * length for f in fractions])
        for which, spl in enumerate(splines.splines):
            for nu in (0, 1):
                want = spl(np.array(xs), nu)
                for x, row in zip(xs, want):
                    i, s = splines.locate(x)
                    got = np.array([solver._cubic(splines.coeffs(which, i, k), s, nu)
                                    for k in range(frames)])
                    assert got.tobytes() == row.tobytes(), (x, which, nu, got, row)

    def test_nan_point(self, sine_field):
        res = run(sine_field, 0.05, monitors_requested=False)
        splines = solver._SnapshotSplines(sine_field.grid, res.snapshots)
        i, s = splines.locate(math.nan)
        assert math.isnan(solver._cubic(splines.coeffs(0, i, 0), s))
        assert np.isnan(splines.splines[0](math.nan)).all()


class TestSnapshotIO:
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

    def test_roundtrip_x0(self, gm2, dl_const, tmp_path):
        grid = Grid(n=64, length=10.0, x0=5.0)
        f = init_field({"preset": "sine", "tau0": 1.0, "u_amp": -0.2}, grid, gm2,
                       dl_const)
        res = run(f, 0.2, monitors_requested=False)
        path = tmp_path / "snaps.bin"
        write_snapshots(path, res.snapshots)
        raw = path.read_bytes()
        assert raw[:8] == b"SHKL2\x00\x00\x00"
        assert (len(raw) - 64) % (8 * (1 + 2 * 64)) == 0
        back = read_snapshots(path)
        assert back.grid == grid
        assert back.times == res.snapshots.times
        for a, b in zip(back.taus + back.us, res.snapshots.taus + res.snapshots.us):
            assert np.array_equal(a, b)
        # a trace from the reloaded store starts where the original does
        reloaded = solver.RunResult(res.outcome, res.monitors, back)
        for d in Direction:
            assert np.array_equal(trace_characteristic(reloaded, 7.0, d).xs,
                                  trace_characteristic(res, 7.0, d).xs)

    @pytest.mark.parametrize("size", [0, 5, 8, 40, 60, "n=2**62"])
    def test_truncated_file(self, sine_field, tmp_path, size):
        res = run(sine_field, 0.1, monitors_requested=False)
        for x0 in (0.0, 5.0):
            res.snapshots.grid = Grid(n=128, length=10.0, x0=x0)
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

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 48)
        with pytest.raises(DomainError):
            read_snapshots(path)
