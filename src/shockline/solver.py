"""Finite-difference simulator of the damped p-system on a periodic
domain, with breakdown monitors, characteristic tracing, and a Riccati
cross-validation of the traced gradient variable.

Scheme: second-order central differences in space, two-stage
strong-stability-preserving time stepping, with the linear damping term
integrated exactly per step through its integrating factor.  A small
fourth-difference stabilization (coefficient 0.02 in undivided form,
i.e. 0.02*dx**3 per unit time on the continuum term) keeps the central
scheme stable at CFL 0.4 without affecting the measured order.  Each
stage pads tau, u and p once (fields.pad) and reads both stencils from
those copies; run checks every accepted state for finiteness.

Each audit of an a-priori bound (invariant region, y/q ceilings,
density floor) is one Audit value in Monitors: a latch that run records
at every step and whose "violated by t" reading gives the monitors.csv
flag letter, the summary line and the sweep's floor_violations count.
Every run records the step times, max|u_x|, min rho and the invariant
and floor audits; the y/q maxima and the ceiling audit that reads them
only on request (simulate asks for them, a sweep cell does not).

Tracing reads the snapshots through two periodic cubic splines in x,
one for tau and one for u, each with every snapshot stacked as a
column, and walks the snapshot intervals in order, linear in t inside
each.  It evaluates only the interval's two columns, from scipy's
spline coefficients and in scipy's evaluation order (periodic map,
half-open interval search, evaluate_poly1's power sum), so each value
is the one PPoly.__call__ gives, bit for bit.  The Riccati cross-check
restarts at every trace row, so each comparison point is hit exactly.
"""

from __future__ import annotations

import bisect
import enum
import math
import struct
from dataclasses import dataclass, field as dc_field
from typing import Optional, Union

import numpy as np

from . import bounds, core, riccati
from .core import Branch, DampingLaw, GasModel
from .errors import DomainError, RangeError, TraceError, VacuumError
from .fields import FieldState, Grid, pad, padded_ddx2, padded_diff4

DEFAULT_CFL = 0.4
BREAKDOWN_CELL_GRADIENT = 0.5  # breakdown when max|u_x| * dx exceeds this
STAB_COEF = 0.02


@core.in_double_range
def damping_decay(dl: DampingLaw, t1: float, t2: float) -> float:
    """exp(-alpha * int_{t1}^{t2} (1+s)**(-lam) ds), the exact decay of
    the linear-in-u damping over [t1, t2]; RangeError where the integral
    leaves double range (an underflow to 0 is left to step)."""
    if dl.alpha == 0.0:
        return 1.0
    if dl.branch is Branch.CRITICAL:
        return ((1.0 + t2) / (1.0 + t1)) ** (-dl.alpha)
    lam = dl.lam
    integral = ((1.0 + t2) ** (1.0 - lam) - (1.0 + t1) ** (1.0 - lam)) / (1.0 - lam)
    return math.exp(-dl.alpha * integral)


def _fluxes(gm: GasModel, tau: np.ndarray, u: np.ndarray, dx: float):
    """Stabilized (tau_t, u_t) = (u_x, -p_x) of the undamped system."""
    tau_g, u_g = pad(tau), pad(u)
    p_g = core.pressure(gm, tau_g)
    return (
        padded_ddx2(u_g, dx) - STAB_COEF * padded_diff4(tau_g) / dx,
        -padded_ddx2(p_g, dx) - STAB_COEF * padded_diff4(u_g) / dx,
    )


def step(field: FieldState, dt: float) -> FieldState:
    """Advance one time step of size dt (caller enforces the CFL limit).

    Heun stages on (tau, w) with w = u divided by the exact in-step
    damping decay; for x-independent data the damping is thereby exact.
    RangeError where u_t divided by that decay is not finite (the decay
    can underflow to 0 or to a subnormal), raised before numpy divides.
    The breakdown test on the new state is left to the caller (run).
    """
    if not (dt > 0.0):
        raise DomainError(f"dt must be positive, got {dt}")
    gm, dl, dx = field.gas, field.damping, field.grid.dx
    t0, t1 = field.t, field.t + dt
    g1 = damping_decay(dl, t0, t1)

    k1_tau, k1_w = _fluxes(gm, field.tau, field.u, dx)
    tau_p = field.tau + dt * k1_tau
    if tau_p.min() <= 0.0:
        raise VacuumError(f"tau reached zero in the predictor stage at t={t1:.6g}")
    u_p = g1 * (field.u + dt * k1_w)

    k2_tau, k2_u = _fluxes(gm, tau_p, u_p, dx)
    # the largest |k2_u| / g1 bounds every quotient, rounding included
    if g1 == 0.0 or not math.isfinite(float(np.abs(k2_u).max()) / g1):
        raise RangeError(
            f"u_t / damping decay ({g1:.3g} over [{t0:.6g}, {t1:.6g}]) is not finite"
        )
    k2_w = k2_u / g1
    tau_n = field.tau + 0.5 * dt * (k1_tau + k2_tau)
    u_n = g1 * (field.u + 0.5 * dt * (k1_w + k2_w))

    # the only validation of the new state: with_state skips __post_init__
    if tau_n.min() <= 0.0:
        raise VacuumError(f"tau reached zero at t={t1:.6g}")
    return field.with_state(tau=tau_n, u=u_n, t=t1)


# ---------------------------------------------------------------------
# monitors and audits
# ---------------------------------------------------------------------

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
    """The constants of the audits: (c0_tilde, ceilings or None, floor or
    None).  With the gradient record on, switches mon's ceiling audit on
    where the regime map grants its hypothesis (an audit left at None is
    off); notes the floor's onset in mon, the floor audit coming on at
    its first check past t_min.  The ceilings are computed only for the
    ceiling audit or for a regime with a density floor, which is built
    on them, so a RangeError in a ceiling nothing reads ends no run."""
    gm, dl = field.gas, field.damping
    c0_tilde = bounds.certified_initial_bound(field).c0_tilde
    regime = core.classify_regime(gm, dl)
    if gradient and regime.has_ceiling:
        mon.ceiling.ok = True
    ceilings = floor = None
    if mon.ceiling.ok or regime.has_density_floor:
        ceilings = bounds.riccati_ceilings(field)
    if regime.has_density_floor:
        try:
            floor = bounds.make_density_floor(
                gm, dl, ceilings, bounds.initial_phi_term_sup(field)
            )
            mon.floor_t_min = floor.t_min
        except RangeError:
            pass
    return c0_tilde, ceilings, floor


def _record(mon: Monitors, field: FieldState, max_ux, tau_max, audits: tuple,
            gradient: bool):
    """One monitors row and one check of each audit that is on; the y/q
    maxima and the ceiling audit only with the gradient record on."""
    t = field.t
    # 1/x is monotone and correctly rounded: min(1/tau) is 1/max(tau) exactly
    rho_min = 1.0 / tau_max
    mon.ts.append(t)
    mon.max_abs_ux.append(max_ux)
    mon.min_rho.append(rho_min)

    rho_max = 1.0 / float(field.tau.min())
    u_max = float(np.abs(field.u).max())
    c0_tilde, caps, floor = audits
    region_cap = c0_tilde * 1.02
    mon.invariant.record(rho_max <= region_cap and u_max <= region_cap, t)

    if gradient:
        try:
            y_max, q_max = (float(v) for v in field.yq().max(axis=1))
        except RangeError:
            y_max = q_max = math.nan
        mon.y_max.append(y_max)
        mon.q_max.append(q_max)
        if mon.ceiling.ok is not None:
            mon.ceiling.record((not math.isnan(y_max)) and y_max <= caps.y_cap * 1.02
                               and q_max <= caps.q_cap * 1.02, t)

    if floor is not None and t > floor.t_min:
        try:
            floor_val = bounds.density_floor(field.gas, field.damping, floor, t)
        except RangeError:  # no floor to audit against at this step
            if mon.floor_range_t is None:
                mon.floor_range_t = t
        else:
            mon.floor.record(rho_min >= 0.95 * floor_val, t)


# ---------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------

def _extremes(field: FieldState):
    """(max|u_x|, max tau), checked finite: a NaN or inf in u reaches u_x
    through the stencil, one in tau (> 0) reaches max tau."""
    max_ux = float(np.abs(field.u_x()).max())
    tau_max = float(field.tau.max())
    if not (math.isfinite(max_ux) and math.isfinite(tau_max)):
        raise RangeError(f"tau or u is not finite at t={field.t:.6g}")
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
    """Append-only (t, tau, u) record at the snapshot cadence."""

    grid: Grid
    gas: GasModel
    damping: DampingLaw
    times: list = dc_field(default_factory=list)
    taus: list = dc_field(default_factory=list)
    us: list = dc_field(default_factory=list)

    def append(self, f: FieldState):
        self.times.append(f.t)
        self.taus.append(f.tau.copy())
        self.us.append(f.u.copy())


@dataclass
class RunResult:
    outcome: Union[FieldState, BreakdownReport]
    monitors: Monitors
    snapshots: SnapshotStore

    @property
    def broke_down(self) -> bool:
        return isinstance(self.outcome, BreakdownReport)


def run(
    field: FieldState,
    t_end: float,
    monitors_requested: bool = True,
    cfl: float = DEFAULT_CFL,
) -> RunResult:
    """Advance until t_end or breakdown, recording monitors and
    snapshots.  Breakdown is a recorded outcome, not an exception;
    VacuumError, and RangeError for a state that is not finite,
    propagate.

    Every run records, per accepted state, ts, max_abs_ux and min_rho
    and checks the invariant-region and density-floor audits.
    monitors_requested adds the gradient-variable record: y_max, q_max
    and the ceiling audit that reads them (left off, ceiling.ok stays
    None and y_max, q_max stay empty)."""
    if not (t_end > field.t):
        raise DomainError("t_end must exceed the field time")
    if not (0.0 < cfl <= DEFAULT_CFL):
        raise DomainError(f"cfl must lie in (0, {DEFAULT_CFL}], got {cfl}")
    max_ux, tau_max = _extremes(field)
    mon = Monitors()
    audits = _prepare_audits(field, mon, monitors_requested)
    snaps = SnapshotStore(grid=field.grid, gas=field.gas, damping=field.damping)
    cadence = max(1, field.grid.n // 256)
    snaps.append(field)
    _record(mon, field, max_ux, tau_max, audits, monitors_requested)

    # each state's derived views (c, u_x, and with the gradient record
    # tau_x, slopes, y, q) are computed once and shared by the finiteness
    # and breakdown tests, the monitors and the next CFL dt
    n_step = 0
    while field.t < t_end:
        dt = cfl * field.grid.dx / float(field.sound().max())
        dt = min(dt, t_end - field.t)
        new = step(field, dt)
        max_ux, tau_max = _extremes(new)
        if max_ux * new.grid.dx > BREAKDOWN_CELL_GRADIENT:
            # the last resolved state closes out the snapshot store
            if snaps.times[-1] != field.t:
                snaps.append(field)
            return RunResult(
                outcome=BreakdownReport(
                    t=new.t, t_prev=field.t, max_abs_ux=max_ux, last_field=field,
                ),
                monitors=mon,
                snapshots=snaps,
            )
        field = new
        n_step += 1
        if n_step % cadence == 0 or field.t >= t_end:
            snaps.append(field)
        _record(mon, field, max_ux, tau_max, audits, monitors_requested)
    if snaps.times[-1] != field.t:
        snaps.append(field)
    return RunResult(outcome=field, monitors=mon, snapshots=snaps)


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


def _periodic_spline(grid: Grid, rows: list):
    """Periodic CubicSpline in x with snapshot row k as column k of y;
    each column is solved on its own, as a spline of that row alone."""
    from scipy.interpolate import CubicSpline  # on use, as quad in bounds
    ys = np.array(rows)
    return CubicSpline(
        np.append(grid.xs, grid.x0 + grid.length),
        np.concatenate((ys, ys[:, :1]), axis=1).T,
        bc_type="periodic",
    )


class _SnapshotSplines:
    """Periodic cubic splines in x of tau and u, snapshot k as column k
    (_periodic_spline), read one column at one point.

    Reading the coefficients here gives PPoly.__call__'s numbers bit for
    bit without its per-call array set-up: the same periodic map
    x0 + (x - x0) % (x_n - x0), the same half-open interval search (the
    last interval closed, a point past it NaN) and evaluate_poly1's
    power sum.  The coefficients of one column on one interval are
    extracted on first use.
    """

    def __init__(self, grid: Grid, snaps: SnapshotStore):
        tau_spl = _periodic_spline(grid, snaps.taus)
        self.splines = (tau_spl, _periodic_spline(grid, snaps.us))
        self.knots = tau_spl.x.tolist()
        self.period = self.knots[-1] - self.knots[0]
        self._coeffs = {}

    def locate(self, x: float):
        """(interval i, offset x - x_i) of x under the periodic map."""
        knots = self.knots
        xp = knots[0] + (x - knots[0]) % self.period
        if xp < knots[-1]:
            i = bisect.bisect_right(knots, xp) - 1
            return i, xp - knots[i]
        i = len(knots) - 2
        return i, (xp - knots[i] if xp == knots[-1] else math.nan)

    def coeffs(self, which: int, i: int, k: int):
        """Cubic coefficients, highest power first, of spline `which`
        (0 tau, 1 u), column k, on interval i."""
        key = (which, i, k)
        cf = self._coeffs.get(key)
        if cf is None:
            cf = self._coeffs[key] = self.splines[which].c[:, i, k].tolist()
        return cf


def _cubic(cf, s: float, nu: int = 0) -> float:
    """evaluate_poly1 of scipy's _ppoly: the value (nu 0) or slope (nu 1)
    of the cubic with coefficients cf at offset s, terms summed from the
    lowest power up in its order of operations, starting from +0.0 (so
    a -0.0 sum reads +0.0, as in scipy)."""
    a, b, c, d = cf
    if nu == 0:
        ss = s * s
        return 0.0 + d + c * s + b * ss + a * (ss * s)
    return 0.0 + c + b * s * 2.0 + a * (s * s) * 3.0


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
        if tau <= 0.0:
            raise TraceError("interpolated tau became nonpositive on the path")
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

def _interp(t: float, xs: list, fs: list) -> float:
    """np.interp(t, xs, fs) for one float t and float lists, by its
    scalar rule: the interval from a right bisection; a knot's value on
    a knot hit, and the end knot's past either end; otherwise the slope
    times the offset plus the left value, in that order of operations."""
    j = bisect.bisect_right(xs, t) - 1
    if j < 0:
        return fs[0]
    if j == len(xs) - 1 or xs[j] == t:
        return fs[j]
    return (fs[j + 1] - fs[j]) / (xs[j + 1] - xs[j]) * (t - xs[j]) + fs[j]


@dataclass
class CrossValidationReport:
    deviation: float
    within_tol: bool
    y_integrated: np.ndarray
    deviations: np.ndarray  # per row, normalized as deviation


def cross_validate_riccati(
    trace: CharTrace, gm: GasModel, dl: DampingLaw, tol: float
) -> CrossValidationReport:
    """Integrate the Riccati equation with coefficients interpolated
    along the trace and compare against the field-sampled values.

    phi between trace rows is linear in t, read on Python floats by
    np.interp's scalar rule (_interp), so each value is np.interp's bit
    for bit without a numpy call per Dormand-Prince stage.

    Each row's deviation is the absolute difference over the max
    absolute field-sampled value (1 if that is 0); deviation is their max.
    """
    if len(trace.times) < 2:
        raise TraceError("trace too short to cross-validate")
    t_knots, phi_knots = trace.times.tolist(), trace.phi.tolist()

    def coeff_source(t: float):
        return core.riccati_coefficients(gm, dl, _interp(t, t_knots, phi_knots), t)

    # integrate knot to knot so comparison points are hit exactly,
    # never interpolated off the adaptive trajectory
    y_int = np.empty(len(t_knots))
    y_int[0] = float(trace.y_or_q[0])
    for k in range(len(t_knots) - 1):
        prob = riccati.RiccatiProblem(
            coeff_source=coeff_source, y0=float(y_int[k]), t0=t_knots[k]
        )
        out = riccati.integrate(prob, t_knots[k + 1], tol=1e-10)
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

# magic + int64 n + five float64 parameters (L, gamma, K, alpha, lam);
# SHKL2 appends a float64 x0 and is written only for a grid with x0 != 0
_SHKL1, _SHKL2 = b"SHKL1\x00\x00\x00", b"SHKL2\x00\x00\x00"
_HEADERS = {_SHKL1: struct.Struct("<8sq5d"), _SHKL2: struct.Struct("<8sq6d")}
_MAGIC_LEN = 8


def write_snapshots(path, snaps: SnapshotStore) -> None:
    """Binary dump: 56-byte SHKL1 header (64-byte SHKL2 with x0 when
    x0 != 0) then one record per snapshot, each a float64 time followed
    by interleaved per-cell (tau, u) float64."""
    grid, gm, dl = snaps.grid, snaps.gas, snaps.damping
    head = [grid.n, grid.length, gm.gamma, gm.big_k, dl.alpha, dl.lam]
    magic = _SHKL1
    if grid.x0 != 0.0:
        magic = _SHKL2
        head.append(grid.x0)
    with open(path, "wb") as fh:
        fh.write(_HEADERS[magic].pack(magic, *head))
        for t, tau, u in zip(snaps.times, snaps.taus, snaps.us):
            rec = np.empty(1 + 2 * grid.n)
            rec[0] = t
            rec[1::2] = tau
            rec[2::2] = u
            fh.write(rec.astype("<f8").tobytes())


def read_snapshots(path) -> SnapshotStore:
    """Inverse of write_snapshots; reads both header versions."""
    with open(path, "rb") as fh:
        magic = fh.read(_MAGIC_LEN)
        header = _HEADERS.get(magic)
        if header is None:
            raise DomainError("bad snapshot magic")
        head = magic + fh.read(header.size - _MAGIC_LEN)
        if len(head) != header.size:
            raise DomainError("snapshot file truncated in header")
        _, n, length, gamma, big_k, alpha, lam, *x0 = header.unpack(head)
        grid = Grid(n=int(n), length=length, x0=x0[0] if x0 else 0.0)
        gm = GasModel(gamma=gamma, big_k=big_k)
        dl = DampingLaw(alpha=alpha, lam=lam)
        snaps = SnapshotStore(grid=grid, gas=gm, damping=dl)
        body = fh.read()
    # checked before any allocation sized by the header's n
    rec_len = 1 + 2 * int(n)
    if len(body) % (8 * rec_len):
        raise DomainError("snapshot file truncated mid-record")
    for rec in np.frombuffer(body, dtype="<f8").reshape(-1, rec_len) if body else ():
        snaps.times.append(float(rec[0]))
        snaps.taus.append(rec[1::2].copy())
        snaps.us.append(rec[2::2].copy())
    return snaps
