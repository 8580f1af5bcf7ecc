"""Finite-difference simulator of the damped p-system on a periodic
domain, with breakdown monitors, characteristic tracing, and a Riccati
cross-validation of the traced gradient variable.

Scheme: second-order central differences in space, two-stage
strong-stability-preserving time stepping, with the linear damping term
integrated exactly per step through its integrating factor.  A small
fourth-difference stabilization (coefficient 0.02 in undivided form,
i.e. 0.02*dx**3 per unit time on the continuum term) keeps the central
scheme stable at CFL 0.4 without affecting the measured order.  A run
steps on one Workspace: each stage loads tau and u, ghost cells
included, into its padded buffer once and reads both stencils through
views of it made with the workspace; every operation writes into the
workspace, and each new state is copied out into an array of its own.
run checks every accepted state for finiteness.

Each audit of an a-priori bound (invariant region, y/q ceilings,
density floor) is one Audit value in Monitors: a latch whose "violated
by t" reading gives the monitors.csv flag letter, the summary line and
the sweep's floor_violations count.  run appends each accepted state's
time, max|u_x| and min rho at once, and checks every audit over blocks
of up to BLOCK_CELLS // n accepted states (at least one): when a block
fills, before run returns, and before an error from a later step
propagates.  The y/q maxima and the ceiling audit that reads them are
recorded only on request (simulate asks, a sweep cell does not).  The
tau and u rows of a block of K > 1 states are stacked as (K, n) arrays
and reduced row by row, and for the y/q its tau, c and u_x rows pass
through one ddx4, one riemann_slopes and one y_variable, whose time
terms are formed from each row's own time.  A min or max is exact, an
elementwise op gives the same bits on a block as on its rows one at a
time, and 1/min tau and the floor stay Python-float operations per
state, so no recorded bit moves.  A block whose y/q leaves double range
is read again a state at a time, so NaN lands on exactly the states
whose y or q leaves it.  The initial state is a block of its own, which
reads the y/q its ceilings computed.

run hands each snapshot record (one every max(1, n // 256) steps, plus
the first and last state) to the sink named by its snapshots argument:
an in-memory SnapshotStore by default, which the trace reads; a
SnapshotWriter, which streams snapshots.bin as the run goes; or
DiscardSnapshots, which keeps none.

Tracing reads the snapshots through two periodic cubic splines in x,
one for tau and one for u, each with every snapshot stacked as a
column, and walks the snapshot intervals in order, linear in t inside
each.  The knot slopes of both fields come from one circulant solve
(_periodic_slopes), an FFT along x for every column at once; the
cubic of an interval is formed from them on first use, and the trace
evaluates only the interval's two columns at each point.  The Riccati
cross-check restarts at every trace row, so each comparison point is
hit exactly, and reads phi linearly in t between that row and the next;
it builds the Riccati coefficient kernel of its gas and damping once
per trace.
"""

from __future__ import annotations

import bisect
import enum
import math
import os
import struct
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import bounds, core, fields, riccati
from .core import Branch, DampingLaw, GasModel
from .errors import DomainError, RangeError, TraceError, VacuumError
from .fields import FieldState, Grid

DEFAULT_CFL = 0.4
BREAKDOWN_CELL_GRADIENT = 0.5  # breakdown when max|u_x| * dx exceeds this
STAB_COEF = 0.02
STEP_BUDGET = 10**7  # run refuses a t_end more first steps away than this


@core.in_float_range
def damping_decay(dl: DampingLaw, t1: float, t2: float) -> float:
    """exp(-alpha * int_{t1}^{t2} (1+s)**(-lam) ds), the exact decay of
    the linear-in-u damping over [t1, t2], on Python floats; RangeError
    where the integral leaves double range (an underflow to 0 is left to
    step)."""
    if dl.alpha == 0.0:
        return 1.0
    if dl.branch is Branch.CRITICAL:
        return ((1.0 + t2) / (1.0 + t1)) ** (-dl.alpha)
    lam = dl.lam
    integral = ((1.0 + t2) ** (1.0 - lam) - (1.0 + t1) ** (1.0 - lam)) / (1.0 - lam)
    return math.exp(-dl.alpha * integral)


class _Stage:
    """The buffers of one Heun stage: the padded tau and u rows, end to
    end in one array, whose interiors hold the stage's state; their
    stencil taps; and the stage's flux rows (tau_t, u_t).

    The taps run along both rows at once, so one ufunc call applies a
    stencil operation to both: entries 0..n-1 of its output are tau's and
    entries n+4.. are u's.  The four between read windows that straddle
    the rows; no result reads them."""

    def __init__(self, padded: np.ndarray, flux: np.ndarray):
        n = len(padded) // 2 - 4
        rows = padded.reshape(2, n + 4)
        self.padded_tau = rows[0]
        self.state, self.tau, self.u = rows[:, 2:-2], rows[0, 2:-2], rows[1, 2:-2]
        self.taps = fields.taps(padded)
        self.u_ahead, self.u_behind = rows[1, 3:-1], rows[1, 1:-3]
        self.flux = k = flux[:2 * n].reshape(2, n)
        self.tau_t, self.u_t = k[0], k[1]
        # each ghost block and the interior cells it wraps round to
        self.ghosts = rows[:, :2], rows[:, -4:-2], rows[:, -2:], rows[:, 2:4]

    def wrap(self):
        """Fill the ghost cells from the interior."""
        lo, lo_src, hi, hi_src = self.ghosts
        np.copyto(lo, lo_src)
        np.copyto(hi, hi_src)


_STAB_COEF = np.array(STAB_COEF)  # 0-d: see fields on Python float operands
_STAB_COEF.flags.writeable = False


class Workspace:
    """The buffers of every step of one run on one grid: both Heun stages,
    the stabilization term of both rows with its scratch, and the grid's
    constants.  step writes each intermediate into them, in the order and
    with the operations of the expressions it stands for, and copies the
    new state out, so no state shares a buffer.  run makes one per run; a
    workspace shared between concurrent steps would corrupt them without
    an error."""

    def __init__(self, grid: Grid):
        n, dx = grid.n, grid.dx
        # one block, a row of 2(n + 4) doubles per buffer: a one-off step
        # frees its workspace at once, and the C allocator gives freed
        # separate blocks of this size back to the system, to fault them
        # in again at the next call
        rows = np.empty((6, 2 * (n + 4)))
        self.stages = _Stage(rows[0], rows[2]), _Stage(rows[1], rows[3])
        self.stab, self.scratch = rows[4, :2 * n + 4], rows[5, :2 * n + 4]
        self.stab_tau, self.stab_u = self.stab[:n], self.stab[n + 4:]
        self.seam = self.stab[n:n + 4]
        self.dx, self.h, self.minus_h = np.array(dx), np.array(2.0 * dx), np.array(-(2.0 * dx))


def _fluxes(gm: GasModel, stage: _Stage, ws: Workspace):
    """Stabilized (tau_t, u_t) = (u_x, -p_x) of the undamped system at
    the stage's state, into its flux rows: ddx2(u) - STAB_COEF *
    diff4(tau) / dx and -ddx2(p) - STAB_COEF * diff4(u) / dx, with p
    taken over the padded tau."""
    p = core.pressure(gm, stage.padded_tau)
    stab = fields.diff4_taps(stage.taps, ws.stab, ws.scratch)
    # a seam entry mixes tau and u, so it can be far larger than a diff4
    # of either row: cleared, it cannot overflow the scaling where the
    # rows do not
    ws.seam.fill(0.0)
    np.divide(np.multiply(stab, _STAB_COEF, out=stab), ws.dx, out=stab)
    tau_t, u_t = stage.tau_t, stage.u_t
    np.subtract(fields.ddx2_taps(stage.u_ahead, stage.u_behind, ws.h, tau_t),
                ws.stab_tau, out=tau_t)
    np.subtract(fields.ddx2_taps(p[3:-1], p[1:-3], ws.minus_h, u_t), ws.stab_u, out=u_t)


@core.in_double_range
def step(field: FieldState, dt: float, *, workspace: Optional[Workspace] = None
         ) -> FieldState:
    """Advance one time step of size dt (caller enforces the CFL limit).

    Heun stages on (tau, w) with w = u divided by the exact in-step
    damping decay; for x-independent data the damping is thereby exact.
    RangeError where u_t divided by that decay leaves double range (the
    decay can underflow to 0 or to a subnormal), naming the decay.
    The breakdown test on the new state is left to the caller (run).

    The stages run in workspace, one made for field's grid (a fresh one
    when omitted); the new state's tau and u are the rows of a new
    (2, n) array.
    """
    if not (dt > 0.0):
        raise DomainError(f"dt must be positive, got {dt}")
    ws = Workspace(field.grid) if workspace is None else workspace
    gm, dl = field.gas, field.damping
    t0, t1 = field.t, field.t + dt
    g1 = damping_decay(dl, t0, t1)
    s1, s2 = ws.stages

    np.copyto(s1.tau, field.tau)
    np.copyto(s1.u, field.u)
    s1.wrap()
    _fluxes(gm, s1, ws)
    # the predictor: tau + dt * tau_t, checked before g1 * (u + dt * w_t)
    np.add(s1.tau, np.multiply(s1.tau_t, dt, out=s2.tau), out=s2.tau)
    if s2.tau.min() <= 0.0:
        raise VacuumError(f"tau reached zero in the predictor stage at t={t1:.6g}")
    np.add(s1.u, np.multiply(s1.u_t, dt, out=s2.u), out=s2.u)
    np.multiply(s2.u, g1, out=s2.u)
    s2.wrap()

    _fluxes(gm, s2, ws)
    try:  # u_t is finite under the trap, so only the decay can fail here
        np.divide(s2.u_t, g1, out=s2.u_t)
    except FloatingPointError as e:
        raise RangeError(
            f"u_t / damping decay ({g1:.3g} over [{t0:.6g}, {t1:.6g}]) is not finite"
        ) from e
    # the corrector: (tau, u) + 0.5 * dt * (k1 + k2), u's row times g1
    new = np.add(s1.flux, s2.flux)
    np.add(s1.state, np.multiply(new, 0.5 * dt, out=new), out=new)
    np.multiply(new[1], g1, out=new[1])

    # the only validation of the new state: with_state skips __post_init__
    if new[0].min() <= 0.0:
        raise VacuumError(f"tau reached zero at t={t1:.6g}")
    return field.with_state(tau=new[0], u=new[1], t=t1)


# ---------------------------------------------------------------------
# monitors and audits
# ---------------------------------------------------------------------

CAP_SLACK = 1.02  # the invariant region and the y/q ceilings hold to this times their cap
FLOOR_SLACK = 0.95  # min rho holds to this times the density floor


@dataclass
class Audit:
    """One a-priori bound checked at every step, latched: ok is None
    while the audit is off (regime hypotheses not met; for the floor
    also before t_min, and at steps whose floor is outside double
    range), True while the bound holds, then False for good from the
    first violation, whose time is violation_t."""

    ok: Optional[bool] = None
    violation_t: Optional[float] = None

    def record(self, ok: bool, t: float) -> None:
        if self.ok is not False:
            self.ok = ok
            if not ok:
                self.violation_t = t

    def violated_by(self, t: float = math.inf) -> bool:
        """Whether the bound had failed at or before t (by the end of
        the run when t is omitted)."""
        return self.violation_t is not None and self.violation_t <= t


@dataclass
class Monitors:
    """Per-step time series plus the three audits."""

    ts: list = dc_field(default_factory=list)
    max_abs_ux: list = dc_field(default_factory=list)
    min_rho: list = dc_field(default_factory=list)
    y_max: list = dc_field(default_factory=list)
    q_max: list = dc_field(default_factory=list)
    invariant: Audit = dc_field(default_factory=Audit)
    ceiling: Audit = dc_field(default_factory=Audit)
    floor: Audit = dc_field(default_factory=Audit)
    floor_t_min: Optional[float] = None  # onset of the floor; None if there is none
    floor_range_t: Optional[float] = None  # first t whose floor left double range


def _prepare_audits(field: FieldState, mon: Monitors, gradient: bool) -> tuple:
    """The constants of the audits: (region cap, (Y cap, Q cap) or None,
    floor or None), each cap times CAP_SLACK once per run.  With the
    gradient record on, switches mon's ceiling audit on where the regime
    map grants its hypothesis (an audit left at None is off); notes the
    floor's onset in mon, the floor audit coming on at its first check
    past t_min.  The ceilings are computed only for the ceiling audit or
    for a regime with a density floor, which is built on them unslacked,
    so a RangeError in a ceiling nothing reads ends no run."""
    gm, dl = field.gas, field.damping
    region_cap = bounds.certified_initial_bound(field).c0_tilde * CAP_SLACK
    regime = core.classify_regime(gm, dl)
    if gradient and regime.has_ceiling:
        mon.ceiling.ok = True
    ceilings = caps = floor = None
    if mon.ceiling.ok or regime.has_density_floor:
        ceilings = bounds.riccati_ceilings(field)
        caps = ceilings.y_cap * CAP_SLACK, ceilings.q_cap * CAP_SLACK
    if regime.has_density_floor:
        try:
            floor = bounds.make_density_floor(
                gm, dl, ceilings, bounds.initial_phi_term_sup(field)
            )
            mon.floor_t_min = floor.t_min
        except RangeError:
            pass
    return region_cap, caps, floor


# the record takes accepted states in blocks of up to this many cells:
# 32 states at n = 128, 8 at n = 512, 1 from n = 4096 on
BLOCK_CELLS = 4096


def _yq_maxima(block: list, tau: Optional[np.ndarray]) -> list:
    """[y_max, q_max] of each state of block.  One state, as every block
    is from n = BLOCK_CELLS on, reads its FieldState.yq, which the
    ceilings have already computed for the initial state.  More are one
    array program over their (K, n) rows, tau stacked by the caller,
    reading each state's cached c and u_x; where it leaves double range,
    the block is read again a state at a time.  A state's RangeError
    (from phi or y_variable) then reads NaN, and its other range errors
    (from its slopes) end the run."""
    try:
        if len(block) == 1:
            return [block[0].yq().max(axis=-1).tolist()]
        first = block[0]
        slopes = core.riemann_slopes(np.array([s.sound() for s in block]),
                                     np.array([s.u_x() for s in block]),
                                     fields.ddx4(tau, first.grid.dx))
        yq = core.y_variable(first.gas, first.damping, core.phi_of_tau(first.gas, tau),
                             np.stack(slopes), [s.t for s in block])
        return yq.max(axis=-1).T.tolist()
    except (RangeError, *core.RANGE_ERRORS) as e:
        if len(block) > 1:
            return [_yq_maxima([s], None)[0] for s in block]
        if isinstance(e, RangeError):
            return [[math.nan, math.nan]]
        raise


def _record(mon: Monitors, block: list, audits: tuple, gradient: bool):
    """Check each audit that is on over a block of accepted states, in
    time order, and with gradient append their y/q maxima to mon, which
    holds their other rows (its last len(block)).  A min or max over a
    (K, n) row is exact; 1/min tau and the floor stay Python-float
    operations per state, since numpy's exp need not give libm's bits."""
    region_cap, caps, floor = audits
    if len(block) == 1:  # every block from n = BLOCK_CELLS on: no copies
        tau = None
        tau_mins, u_maxes = [float(block[0].tau.min())], [float(np.abs(block[0].u).max())]
    else:
        tau = np.array([s.tau for s in block])
        tau_mins = tau.min(axis=-1).tolist()
        u_maxes = np.abs(np.array([s.u for s in block])).max(axis=-1).tolist()
    rows = zip(mon.ts[-len(block):], tau_mins, u_maxes, mon.min_rho[-len(block):],
               _yq_maxima(block, tau) if gradient else [(None, None)] * len(block))
    for t, tau_min, u_max, rho_min, (y_max, q_max) in rows:
        mon.invariant.record(1.0 / tau_min <= region_cap and u_max <= region_cap, t)
        if floor is not None and t > floor.t_min:
            try:
                floor_val = bounds.density_floor(block[0].gas, block[0].damping, floor, t)
            except RangeError:  # no floor to audit against at this state
                if mon.floor_range_t is None:
                    mon.floor_range_t = t
            else:
                mon.floor.record(rho_min >= FLOOR_SLACK * floor_val, t)
        if gradient:
            mon.y_max.append(y_max)
            mon.q_max.append(q_max)
            if mon.ceiling.ok is not None:  # a NaN maximum compares False
                mon.ceiling.record(y_max <= caps[0] and q_max <= caps[1], t)


# ---------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------

def _extremes(field: FieldState):
    """(max|u_x|, max tau), checked finite: a NaN or inf in u reaches u_x
    through the stencil, one in tau (> 0) reaches max tau."""
    max_ux = float(np.abs(field.u_x()).max())
    tau_max = float(field.tau.max())
    if not (math.isfinite(max_ux) and math.isfinite(tau_max)):
        raise RangeError(f"tau, u or u_x is not finite at t={field.t:.6g}")
    return max_ux, tau_max


@dataclass
class BreakdownReport:
    """Outcome of a run that ended in gradient breakdown."""

    t: float
    t_prev: float
    max_abs_ux: float
    last_field: FieldState


@dataclass
class SnapshotStore:
    """Snapshot sink that keeps every (t, tau, u) record in memory, for
    a reader that needs the whole history (the trace)."""

    grid: Grid
    gas: GasModel
    damping: DampingLaw
    times: list = dc_field(default_factory=list)
    taus: list = dc_field(default_factory=list)
    us: list = dc_field(default_factory=list)

    @property
    def records(self) -> int:
        return len(self.times)

    def append(self, f: FieldState):
        self.times.append(f.t)
        self.taus.append(f.tau.copy())
        self.us.append(f.u.copy())


class DiscardSnapshots:
    """Snapshot sink that keeps nothing but the count of records, for a
    run whose snapshots nothing reads."""

    def __init__(self):
        self.records = 0

    def append(self, f: FieldState):
        self.records += 1


@dataclass
class RunResult:
    outcome: Union[FieldState, BreakdownReport]
    monitors: Monitors
    snapshots: Union[SnapshotStore, SnapshotWriter, DiscardSnapshots]

    @property
    def broke_down(self) -> bool:
        return isinstance(self.outcome, BreakdownReport)


@core.in_double_range
def run(
    field: FieldState,
    t_end: float,
    monitors_requested: bool = True,
    cfl: float = DEFAULT_CFL,
    snapshots=None,
) -> RunResult:
    """Advance until t_end or breakdown, recording monitors and
    snapshots.  Breakdown is a recorded outcome, not an exception;
    VacuumError, and RangeError for a state that is not finite,
    propagate, and DomainError where the first step leaves t_end more
    than STEP_BUDGET such steps away or a step rounds away against t.

    snapshots is the sink of the snapshot records, one every
    max(1, n // 256) steps plus the first and last state: a new
    SnapshotStore when omitted, a SnapshotWriter to stream them to a
    file, or DiscardSnapshots when nothing reads them.  It is the
    result's snapshots.

    Every run records ts, max_abs_ux and min_rho and checks the
    invariant-region and density-floor audits, over blocks of accepted
    states.  monitors_requested adds the gradient-variable record: y_max,
    q_max and the ceiling audit that reads them (left off, ceiling.ok
    stays None and y_max, q_max stay empty)."""
    if not (t_end > field.t):
        raise DomainError("t_end must exceed the field time")
    if not (0.0 < cfl <= DEFAULT_CFL):
        raise DomainError(f"cfl must lie in (0, {DEFAULT_CFL}], got {cfl}")
    max_ux, tau_max = _extremes(field)
    mon = Monitors()
    audits = _prepare_audits(field, mon, monitors_requested)
    if snapshots is None:
        snapshots = SnapshotStore(grid=field.grid, gas=field.gas, damping=field.damping)
    cadence = max(1, field.grid.n // 256)
    snapshots.append(field)
    snap_t = field.t  # the time of the last record appended
    block, block_size = [], max(1, BLOCK_CELLS // field.grid.n)

    def record(state: FieldState, max_ux, tau_max):
        mon.ts.append(state.t)
        mon.max_abs_ux.append(max_ux)
        # 1/x is monotone and correctly rounded: min(1/tau) is 1/max(tau) exactly
        mon.min_rho.append(1.0 / tau_max)
        block.append(state)
        if len(block) >= block_size:
            flush()

    def flush():  # cleared first: a record that raises is not made again
        pending = block.copy()
        block.clear()
        if pending:
            _record(mon, pending, audits, monitors_requested)

    record(field, max_ux, tau_max)
    flush()  # the initial state alone, whose y/q the ceilings may have cached
    # each state's derived views (c, u_x) are computed once and shared by
    # the finiteness and breakdown tests, the y/q record and the next CFL dt
    n_step = 0
    workspace = Workspace(field.grid)
    try:
        while field.t < t_end:
            c_max = float(field.sound().max())
            if not c_max > 0.0:
                raise RangeError(f"the sound speed rounds to 0 at t={field.t:.6g}")
            dt = cfl * field.grid.dx / c_max
            dt = min(dt, t_end - field.t)
            new = step(field, dt, workspace=workspace)
            max_ux, tau_max = _extremes(new)
            if max_ux * new.grid.dx > BREAKDOWN_CELL_GRADIENT:
                # the last resolved state closes out the snapshot records
                if snap_t != field.t:
                    snapshots.append(field)
                return RunResult(
                    outcome=BreakdownReport(
                        t=new.t, t_prev=field.t, max_abs_ux=max_ux, last_field=field,
                    ),
                    monitors=mon,
                    snapshots=snapshots,
                )
            n_step += 1
            if (n_step == 1 and t_end - new.t > STEP_BUDGET * dt) or new.t == field.t:
                raise DomainError(
                    f"the run needs more than STEP_BUDGET = {STEP_BUDGET:.0e} steps: "
                    f"t_end - t = {t_end - new.t:.6g} after a step of {dt:.6g}")
            field = new
            if n_step % cadence == 0 or field.t >= t_end:
                snapshots.append(field)
                snap_t = field.t
            record(field, max_ux, tau_max)
    finally:  # also before an error propagates: the pending records came first
        flush()
    return RunResult(outcome=field, monitors=mon, snapshots=snapshots)


# ---------------------------------------------------------------------
# characteristic tracing
# ---------------------------------------------------------------------

class Direction(enum.Enum):
    FORWARD = "forward"    # dx/dt = +c, carries y
    BACKWARD = "backward"  # dx/dt = -c, carries q


@dataclass
class CharTrace:
    times: np.ndarray
    xs: np.ndarray
    phi: np.ndarray
    y_or_q: np.ndarray


def _periodic_slopes(grid: Grid, ys: np.ndarray) -> np.ndarray:
    """The (S, n) knot slopes of the periodic cubic splines in x through
    the S rows of ys (row k is column k).  _SnapshotSplines.coeffs forms
    the cubic of one interval from them and the knot values.

    A continuous second derivative at every knot of the uniform grid is
    s[i-1] + 4 s[i] + s[i+1] = 3 (y[i+1] - y[i-1]) / dx, indices mod n
    (de Boor, A Practical Guide to Splines, ch. IV).  The matrix is
    circulant, so the discrete Fourier transform along x diagonalises it
    (P. J. Davis, Circulant Matrices): mode k of the right-hand side is
    divided by 4 + 2 cos(2 pi k / n), which is at least 2, for every row
    at once.
    """
    n = grid.n
    rhs = 3.0 * (np.roll(ys, -1, axis=1) - np.roll(ys, 1, axis=1)) / grid.dx
    symbol = 4.0 + 2.0 * np.cos(2.0 * np.pi / n * np.arange(n // 2 + 1))
    return np.fft.irfft(np.fft.rfft(rhs, axis=1) / symbol, n, axis=1)


class _SnapshotSplines:
    """Periodic cubic splines in x of tau and u, snapshot k as column k,
    their knot slopes solved for both fields in one _periodic_slopes
    call and read one column at one point.

    A point maps into one period by x % L and falls in the half-open
    interval [x_i, x_{i+1}) that contains it, the last interval closed
    and a NaN point read as NaN.  The cubic of one column on one
    interval is formed from its Hermite data on first use, so a trace
    pays only for the intervals along its path.  A snapshot holding NaN
    or inf is refused with TraceError, as no spline through it exists.
    """

    def __init__(self, grid: Grid, snaps: SnapshotStore):
        ys = np.array(snaps.taus + snaps.us)
        if not np.isfinite(ys).all():
            raise TraceError("a stored snapshot holds a non-finite tau or u")
        self.frames = len(snaps.taus)
        self.ys = ys
        self.slopes = _periodic_slopes(grid, ys)
        self.knots = np.append(grid.xs, grid.length).tolist()
        self.n, self.dx = grid.n, grid.dx
        self._coeffs = {}

    def locate(self, x: float):
        """(interval i, offset x - x_i) of x under the periodic map."""
        knots = self.knots
        xp = x % knots[-1]
        if xp < knots[-1]:
            i = bisect.bisect_right(knots, xp) - 1
            return i, xp - knots[i]
        i = len(knots) - 2
        return i, (xp - knots[i] if xp == knots[-1] else math.nan)

    def coeffs(self, which: int, i: int, k: int):
        """Cubic coefficients, highest power first, of spline `which`
        (0 tau, 1 u), column k, on interval i; RangeError where one
        leaves double range."""
        key = (which, i, k)
        cf = self._coeffs.get(key)
        if cf is None:
            col, j, h = k + which * self.frames, (i + 1) % self.n, self.dx
            y0, s0 = self.ys.item(col, i), self.slopes.item(col, i)
            m = (self.ys.item(col, j) - y0) / h  # the secant slope
            # the Hermite cubic t / h, (m - s) / h - t, s, y with
            # t = (s + s_next - 2 m) / h
            t = (s0 + self.slopes.item(col, j) - 2 * m) / h
            cf = [t / h, (m - s0) / h - t, s0, y0]
            if not (math.isfinite(cf[0]) and math.isfinite(cf[1])):
                raise RangeError("spline coefficients leave double-precision range")
            self._coeffs[key] = cf
        return cf


def _cubic(cf, s: float, nu: int = 0) -> float:
    """The value (nu 0) or slope (nu 1) of the cubic with coefficients
    cf at offset s, terms summed from the lowest power up, starting from
    +0.0 (so a -0.0 sum reads +0.0)."""
    a, b, c, d = cf
    if nu == 0:
        ss = s * s
        return 0.0 + d + c * s + b * ss + a * (ss * s)
    return 0.0 + c + b * s * 2.0 + a * (s * s) * 3.0


@core.in_double_range
def trace_characteristic(
    run_output: RunResult, x_start: float, direction: Direction
) -> CharTrace:
    """Integrate dx/dt = +-c through the stored snapshots (cubic in x,
    linear in t) and sample phi and the matching gradient variable."""
    snaps = run_output.snapshots
    if len(snaps.times) < 2:
        raise TraceError("need at least two snapshots to trace")
    grid, gm, dl = snaps.grid, snaps.gas, snaps.damping
    splines = _SnapshotSplines(grid, snaps)
    locate, coeffs = splines.locate, splines.coeffs
    times = snaps.times
    sign = 1.0 if direction is Direction.FORWARD else -1.0
    wrap = grid.wrap

    def blend(which: int, i: int, s: float, k: int, w: float, nu: int = 0):
        """Spline `which` at offset s in interval i, linear in t between
        snapshots k and k + 1 with weight w on k + 1."""
        return ((1.0 - w) * _cubic(coeffs(which, i, k), s, nu)
                + w * _cubic(coeffs(which, i, k + 1), s, nu))

    def tau_at(k: int, w: float, x: float):
        """(interval i, offset s, tau) at x, weight w in interval k."""
        i, s = locate(wrap(x))
        tau = blend(0, i, s, k, w)
        if not tau > 0.0:  # a non-finite start point reads a NaN tau
            raise TraceError("interpolated tau became nonpositive or NaN on the path")
        return i, s, tau

    def speed(k: int, t: float, x: float) -> float:
        w = (t - times[k]) / (times[k + 1] - times[k])
        return sign * core.sound_speed(gm, tau_at(k, w, x)[2])

    def sample(t: float, k: int, w: float, x: float):
        i, s, tau = tau_at(k, w, x)
        taux, ux = blend(0, i, s, k, w, 1), blend(1, i, s, k, w, 1)
        phi = core.phi_of_tau(gm, tau)
        a_w, b_z = core.riemann_slopes(core.sound_speed(gm, tau), ux, taux)
        grad = a_w if direction is Direction.FORWARD else b_z
        return phi, float(core.y_variable(gm, dl, phi, grad, t))

    x = wrap(float(x_start))
    # (t, x, phi, y or q) at each snapshot time, past the first read at
    # the end (weight 1) of the interval before it
    rows = [(times[0], wrap(x), *sample(times[0], 0, 0.0, x))]
    substeps = 4
    for k in range(len(times) - 1):
        t_a, t_b = times[k], times[k + 1]
        h = (t_b - t_a) / substeps
        t = t_a
        for _ in range(substeps):
            k1 = speed(k, t, x)
            k2 = speed(k, t + 0.5 * h, x + 0.5 * h * k1)
            k3 = speed(k, t + 0.5 * h, x + 0.5 * h * k2)
            k4 = speed(k, min(t + h, t_b), x + h * k3)
            x += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        rows.append((t_b, wrap(x), *sample(t_b, k, 1.0, x)))
    return CharTrace(*(np.array(col) for col in zip(*rows)))


# ---------------------------------------------------------------------
# Riccati cross-validation along a trace
# ---------------------------------------------------------------------

@dataclass
class CrossValidationReport:
    deviation: float
    within_tol: bool
    y_integrated: np.ndarray
    deviations: np.ndarray  # per row, normalized as deviation


@core.in_double_range
def cross_validate_riccati(
    trace: CharTrace, gm: GasModel, dl: DampingLaw, tol: float
) -> CrossValidationReport:
    """Integrate the Riccati equation with coefficients interpolated
    along the trace and compare against the field-sampled values.

    Each restart runs from one trace row to the next and reads phi from
    those two rows alone: each row's phi at its own time, and in between
    the line through them, with np.interp's arithmetic on that interval
    (slope times offset plus the left value).

    Each row's deviation is the absolute difference over the max
    absolute field-sampled value (1 if that is 0); deviation is their max.
    """
    if len(trace.times) < 2:
        raise TraceError("trace too short to cross-validate")
    times, phis = trace.times.tolist(), trace.phi.tolist()
    coefficients = core.riccati_kernel(gm, dl)
    # integrate knot to knot so comparison points are hit exactly,
    # never interpolated off the adaptive trajectory
    y_int = np.empty(len(times))
    y_int[0] = float(trace.y_or_q[0])
    for k, (t0, t1, phi0, phi1) in enumerate(zip(times, times[1:], phis, phis[1:])):
        slope = (phi1 - phi0) / (t1 - t0)

        def coeff_source(t: float):  # read only by this iteration's integrate
            phi = phi0 if t == t0 else phi1 if t >= t1 else slope * (t - t0) + phi0
            return coefficients(phi, t)

        out = riccati.integrate(
            riccati.RiccatiProblem(coeff_source=coeff_source, y0=float(y_int[k]), t0=t0),
            t1, tol=1e-10)
        if out.kind is riccati.OutcomeKind.BLOWUP:
            raise TraceError(
                "integrated gradient variable blew up inside the trace window"
            )
        y_int[k + 1] = out.y_end
    scale = float(np.max(np.abs(trace.y_or_q)))
    deviations = np.abs(y_int - trace.y_or_q) / (scale if scale > 0.0 else 1.0)
    deviation = float(deviations.max())
    return CrossValidationReport(
        deviation=deviation, within_tol=deviation <= tol, y_integrated=y_int,
        deviations=deviations,
    )


# ---------------------------------------------------------------------
# snapshot binary dump
# ---------------------------------------------------------------------

# magic + int64 n + five float64 parameters (L, gamma, K, alpha, lam)
_MAGIC = b"SHKL1\x00\x00\x00"
_HEADER = struct.Struct("<8sq5d")


class SnapshotWriter:
    """Snapshot sink that writes snapshots.bin as the records arrive: a
    56-byte header (magic, int64 n, float64 L, gamma, K, alpha, lambda),
    then one record per snapshot, a float64 time followed by interleaved
    per-cell (tau, u) float64, all little-endian.

    The bytes go to path + ".part" beside path, which replaces path when
    the writer is closed with no exception pending and is removed when
    one is, so a failed run leaves no file.  Use it as a context manager
    around the run; records counts the records, bytes the bytes written.
    """

    def __init__(self, path, grid: Grid, gas: GasModel, damping: DampingLaw):
        self.path = Path(path)
        self._part = self.path.with_name(self.path.name + ".part")
        self._fh = open(self._part, "wb")
        self.records = 0
        self.bytes = self._fh.write(_HEADER.pack(
            _MAGIC, grid.n, grid.length, gas.gamma, gas.big_k,
            damping.alpha, damping.lam))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        try:
            self._fh.close()
            if exc_type is None:
                os.replace(self._part, self.path)
        finally:
            self._part.unlink(missing_ok=True)

    def record(self, t: float, tau: np.ndarray, u: np.ndarray):
        rec = np.empty(1 + 2 * tau.size)
        rec[0] = t
        rec[1::2] = tau
        rec[2::2] = u
        self.bytes += self._fh.write(rec.astype("<f8", copy=False))
        self.records += 1

    def append(self, f: FieldState):
        self.record(f.t, f.tau, f.u)


def write_snapshots(path, snaps: SnapshotStore) -> int:
    """Write a store in SnapshotWriter's format; returns the bytes written."""
    with SnapshotWriter(path, snaps.grid, snaps.gas, snaps.damping) as writer:
        for t, tau, u in zip(snaps.times, snaps.taus, snaps.us):
            writer.record(t, tau, u)
    return writer.bytes


def read_snapshots(path) -> SnapshotStore:
    """Inverse of SnapshotWriter: an in-memory SnapshotStore."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[:len(_MAGIC)] != _MAGIC:
            raise DomainError("bad snapshot magic")
        if len(head) != _HEADER.size:
            raise DomainError("snapshot file truncated in header")
        _, n, length, gamma, big_k, alpha, lam = _HEADER.unpack(head)
        grid = Grid(n=int(n), length=length)
        gm = GasModel(gamma=gamma, big_k=big_k)
        dl = DampingLaw(alpha=alpha, lam=lam)
        body = fh.read()
    # checked before any allocation sized by the header's n
    rec_len = 1 + 2 * int(n)
    if len(body) % (8 * rec_len):
        raise DomainError("snapshot file truncated mid-record")
    recs = np.frombuffer(body, dtype="<f8").reshape(-1, rec_len)
    if not np.isfinite(recs).all():
        raise DomainError("snapshot file holds a non-finite value")
    # one writable copy per field, each record one of its rows
    return SnapshotStore(grid=grid, gas=gm, damping=dl, times=recs[:, 0].tolist(),
                         taus=list(recs[:, 1::2].copy()), us=list(recs[:, 2::2].copy()))
