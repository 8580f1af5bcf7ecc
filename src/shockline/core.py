"""Pointwise algebra of the damped p-system.

Pressure law, the integrated sound-speed variable phi, derived gas
constants, Riemann invariants, the gradient variables y/q that decouple
the characteristic ODEs, and the Riccati coefficients for both damping
branches (decay exponent != 1 and == 1); also the regime map over
(alpha, lambda, gamma), the hypothesis of every blow-up criterion,
threshold and density floor.

Each constant of the model is defined once: the exponents of phi are
GasModel fields (theta, p_hi, p_lo), y's shift is _shift, which the
criteria read at t = 0 as their Kt1, and the time factor's body is
_log_time_body, shared by log_time_factor and the Riccati kernel.

All functions accept scalars or numpy arrays in the field slots, except
the Riccati coefficients, which take Python floats, and are pure; every
type here is an immutable value.  in_double_range sets numpy's
floating-point traps at the package's entry points, in_float_range
checks a formula on Python floats, which no trap sees, and
narrow_bracket is the one bisection for a first crossing time (the
Riccati pole bracket, the integral bounds and the density-floor onset).
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import traceback
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeError, RegimeError

# Largest |log| we are willing to exponentiate before declaring overflow.
_LOG_CAP = 700.0


# op -> the NaN-ignoring reduction to the entry that decides op(entry,
# bound), and the value, false under op, that an empty or all-NaN x gives
_DECIDER = {operator.le: (np.fmin, math.inf), operator.lt: (np.fmin, math.inf),
            operator.gt: (np.fmax, -math.inf)}


def _any(op, x, bound) -> bool:
    """Whether op(entry, bound) holds for any entry of x, a float or an
    array (a NaN entry compares false, so it never does), for op le, lt
    or gt and a finite bound.  On an array, one reduction in double finds
    the least (le, lt) or greatest (gt) entry, and op decides that one."""
    if isinstance(x, float):  # scalars, np.float64 too, skip numpy
        return op(x, bound)
    reduce, initial = _DECIDER[op]
    return op(reduce.reduce(x, axis=None, initial=initial, dtype=float), bound)


RANGE_ERRORS = (FloatingPointError, OverflowError, ZeroDivisionError)


def _out_of_range(what: str, e: Exception) -> RangeError:
    why = f": {e}" if isinstance(e, FloatingPointError) else ""
    return RangeError(f"{what} leaves double-precision range ({type(e).__name__}{why})")


def in_double_range(fn):
    """fn under numpy's floating-point traps: what leaves double range
    beneath fn (RANGE_ERRORS) is one RangeError caused by it, never a
    warning, naming the package's functions from fn down to where it
    happened.  A trap sees operations, not values: NaN or inf inputs pass."""
    fn_trapped = np.errstate(over="raise", divide="raise", invalid="raise")(fn)
    modules = (__package__ + ".", fn.__module__)

    @functools.wraps(fn)
    def trapped(*args, **kwargs):
        try:
            return fn_trapped(*args, **kwargs)
        except RANGE_ERRORS as e:  # the path skips traps and per-state caches
            path = " > ".join(
                f.f_code.co_name for f, _ in traceback.walk_tb(e.__traceback__)
                if f.f_globals.get("__name__", "").startswith(modules)
                and f.f_code.co_name not in ("trapped", "cached"))
            raise _out_of_range(path, e) from e

    return trapped


def in_float_range(fn):
    """fn on Python floats, RangeError where it raises RANGE_ERRORS or a
    result (or tuple member) is not finite, as a float * or + can be."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            val = fn(*args, **kwargs)
        except RANGE_ERRORS as e:
            raise _out_of_range(fn.__name__, e) from e
        for v in val if isinstance(val, tuple) else (val,):
            if not math.isfinite(v):
                raise RangeError(f"{fn.__name__} leaves double-precision range")
        return val

    return checked


def narrow_bracket(pred, lo, hi, atol, rtol=0.0):
    """Halve [lo, hi] around the first crossing of a monotone pred,
    false at lo and true at hi, while hi - lo > max(atol, rtol * hi) and
    lo, hi are not adjacent doubles; returns (lo, hi).  pred is only
    called strictly inside the bracket."""
    while hi - lo > max(atol, rtol * hi):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent doubles
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


class Branch(enum.Enum):
    GENERIC = "generic"    # decay exponent != 1
    CRITICAL = "critical"  # decay exponent == 1


@dataclass(frozen=True)
class GasModel:
    """Adiabatic exponent, pressure constant, and the derived constants.

    p = big_k * tau**(-gamma).  The derived constants satisfy
    k_p = (gamma-1)/(2*gamma) * k_c and k_tau * k_c = (gamma-1)/2.
    gamma == 3 is rejected: every coefficient formula downstream divides
    by gamma - 3.

    theta, p_hi = (gamma+1)/(2(gamma-1)) and p_lo = (gamma-3)/(2(gamma-1))
    are the exponents of phi; every other one is an exact multiple of one
    of them (-1/theta, 2 p_hi, -0.5 p_lo), with the bits of its form in gamma.
    """

    gamma: float
    big_k: float
    theta: float = field(init=False)
    k_tau: float = field(init=False)
    k_p: float = field(init=False)
    k_c: float = field(init=False)
    phi_coef: float = field(init=False)  # 2*sqrt(K*gamma)/(gamma-1)
    p_hi: float = field(init=False)
    p_lo: float = field(init=False)

    def __post_init__(self):
        g, k = self.gamma, self.big_k
        if not (g > 1.0):
            raise DomainError(f"gamma must exceed 1, got {g}")
        if g == 3.0:
            raise DomainError("gamma == 3 is outside the model (division by gamma-3)")
        if not (k > 0.0):
            raise DomainError(f"big_k must be positive, got {k}")
        try:  # k_tau = inf gives k_p = 0; k_tau = 0 raises ZeroDivisionError
            phi_coef = 2.0 * math.sqrt(k * g) / (g - 1.0)
            k_tau = phi_coef ** (2.0 / (g - 1.0))
            k_p = k * k_tau ** (-g)
            k_c = math.sqrt(k * g) * k_tau ** (-(g + 1.0) / 2.0)
        except (OverflowError, ZeroDivisionError):
            k_p = k_c = math.inf
        if not (0.0 < k_p < math.inf and 0.0 < k_c < math.inf):
            raise DomainError(f"gamma = {g!r} with big_k = {k!r} puts the derived "
                              "gas constants outside double range")
        object.__setattr__(self, "theta", (g - 1.0) / 2.0)
        object.__setattr__(self, "phi_coef", phi_coef)
        object.__setattr__(self, "k_tau", k_tau)
        object.__setattr__(self, "k_p", k_p)
        object.__setattr__(self, "k_c", k_c)
        object.__setattr__(self, "p_hi", (g + 1.0) / (2.0 * (g - 1.0)))
        object.__setattr__(self, "p_lo", (g - 3.0) / (2.0 * (g - 1.0)))


@dataclass(frozen=True)
class DampingLaw:
    """Damping magnitude alpha >= 0 and decay exponent lam.

    The branch flag is decided by exact equality lam == 1; callers who
    want near-critical behaviour pass lam = 1 +- eps explicitly.
    """

    alpha: float
    lam: float
    branch: Branch = field(init=False)

    def __post_init__(self):
        if not (self.alpha >= 0.0):
            raise DomainError(f"alpha must be nonnegative, got {self.alpha}")
        if not math.isfinite(self.lam):
            raise DomainError(f"lambda must be finite, got {self.lam}")
        branch = Branch.CRITICAL if self.lam == 1.0 else Branch.GENERIC
        object.__setattr__(self, "branch", branch)


class GammaSide(enum.Enum):
    SUB = "sub"      # 1 < gamma < 3
    SUPER = "super"  # gamma > 3


class LambdaSide(enum.Enum):
    GENERIC_LOW = "generic_low"
    GENERIC_HIGH = "generic_high"
    GENERIC_GAP = "generic_gap"
    CRITICAL = "critical"


class Theorem(enum.Enum):
    T3_1 = "T3_1"
    T3_2 = "T3_2"
    T4_1 = "T4_1"
    T4_2 = "T4_2"
    NONE = "NONE"


@dataclass(frozen=True)
class Regime:
    """A cell of the regime map.  has_ceiling is the hypothesis of the
    y/q ceilings: c0 <= 0 for all t >= 0."""

    gamma_side: GammaSide
    lambda_side: LambdaSide
    applicable_theorem: Theorem
    has_ceiling: bool

    @property
    def label(self) -> str:
        """The regime as the reports print it: gamma_side/lambda_side."""
        return f"{self.gamma_side.value}/{self.lambda_side.value}"

    @property
    def has_density_floor(self) -> bool:
        """The density floor shares the hypothesis of the sub-gamma
        criteria: 1 < gamma < 3, off the lambda gap (where has_ceiling
        holds too, as the floor is built on the ceilings)."""
        return self.applicable_theorem in (Theorem.T3_2, Theorem.T4_2)


def classify_regime(gm: GasModel, dl: DampingLaw) -> Regime:
    """Deterministic partition of the (alpha, lambda, gamma) space.

    For gamma > 3 the open interval between 1 and alpha(g-1)/(g-3)
    (boundaries included, except lambda = 1 itself) has no applicable
    theorem; for 1 < gamma < 3 the same holds for
    lambda < alpha(g-1)/(g-3).  Constant damping (lambda = 0) rides the
    generic machinery.

    The sign of c0 is that of lam(g-3)(1+t)**(lam-1) - alpha(g-1), so the
    ceilings hold for lambda <= min{1, alpha(g-1)/(g-3)} when gamma > 3,
    off the gap when 1 < gamma < 3, and for alpha = 0 (c0 = 0).
    """
    g = gm.gamma
    ratio = dl.alpha * (g - 1.0) / (g - 3.0)
    undamped = dl.alpha == 0.0
    if g > 3.0:
        if dl.branch is Branch.CRITICAL:
            theorem = Theorem.T4_1 if ratio >= 1.0 else Theorem.NONE
            return Regime(GammaSide.SUPER, LambdaSide.CRITICAL, theorem,
                          ratio >= 1.0 or undamped)
        lo, hi = min(1.0, ratio), max(1.0, ratio)
        if dl.lam < lo:
            return Regime(GammaSide.SUPER, LambdaSide.GENERIC_LOW, Theorem.T3_1, True)
        if dl.lam > hi:
            return Regime(GammaSide.SUPER, LambdaSide.GENERIC_HIGH, Theorem.T3_1,
                          undamped)
        return Regime(GammaSide.SUPER, LambdaSide.GENERIC_GAP, Theorem.NONE,
                      dl.lam == lo or undamped)
    # 1 < gamma < 3 (gamma == 3 cannot construct a GasModel)
    if dl.branch is Branch.CRITICAL:
        return Regime(GammaSide.SUB, LambdaSide.CRITICAL, Theorem.T4_2, True)
    if dl.lam < ratio:
        return Regime(GammaSide.SUB, LambdaSide.GENERIC_GAP, Theorem.NONE, undamped)
    side = LambdaSide.GENERIC_HIGH if dl.lam > 1.0 else LambdaSide.GENERIC_LOW
    return Regime(GammaSide.SUB, side, Theorem.T3_2, True)


def require_theorem(gm: GasModel, dl: DampingLaw, theorem: Theorem, what: str) -> Regime:
    """The regime of (gm, dl); RegimeError naming `what` unless its
    applicable theorem is `theorem`."""
    regime = classify_regime(gm, dl)
    if regime.applicable_theorem is not theorem:
        raise RegimeError(
            f"{what} requires the {theorem.value} regime, got {regime.label}"
        )
    return regime


@dataclass(frozen=True)
class PointState:
    """Specific volume, velocity and time at one Lagrangian point."""

    tau: float
    u: float
    t: float = 0.0

    def __post_init__(self):
        if not (self.tau > 0.0):
            raise DomainError(f"tau must be positive (no vacuum), got {self.tau}")
        if not (self.t >= 0.0):
            raise DomainError(f"t must be nonnegative, got {self.t}")


def _require_positive(name: str, x) -> None:
    """DomainError if any entry is nonpositive (a NaN entry is not)."""
    if _any(operator.le, x, 0.0):
        raise DomainError(f"{name} must be positive")


def phi_of_tau(gm: GasModel, tau):
    """phi = 2 sqrt(K gamma)/(gamma-1) * tau**(-(gamma-1)/2), monotone
    decreasing in tau; RangeError where a phi rounds to 0."""
    _require_positive("tau", tau)
    phi = gm.phi_coef * tau ** (-gm.theta)
    if _any(operator.le, phi, 0.0):  # positive for every tau > 0
        raise RangeError("phi rounds to 0: tau is too large for double range")
    return phi


def tau_of_phi(gm: GasModel, phi):
    """Inverse of phi_of_tau: tau = k_tau * phi**(-1/theta)."""
    _require_positive("phi", phi)
    return gm.k_tau * phi ** (-1.0 / gm.theta)


def pressure(gm: GasModel, tau):
    """p = K * tau**(-gamma)."""
    _require_positive("tau", tau)
    return gm.big_k * tau ** (-gm.gamma)


def sound_speed(gm: GasModel, tau):
    """Lagrangian sound speed c = sqrt(K gamma) * tau**(-(gamma+1)/2)."""
    _require_positive("tau", tau)
    return math.sqrt(gm.big_k * gm.gamma) * tau ** (-(gm.gamma + 1.0) / 2.0)


def sound_speed_of_phi(gm: GasModel, phi):
    """Same speed through the phi route: c = k_c * phi**(2 p_hi)."""
    _require_positive("phi", phi)
    return gm.k_c * phi ** (2.0 * gm.p_hi)


def riemann_invariants(gm: GasModel, p: PointState):
    """(w, z) = (u + phi, u - phi)."""
    phi = phi_of_tau(gm, p.tau)
    return p.u + phi, p.u - phi


def riemann_slopes(c, u_x, tau_x):
    """Riemann-invariant slopes A = w_x = u_x - c*tau_x and
    B = z_x = u_x + c*tau_x (phi_x = -c * tau_x by the chain rule), with
    c = sound_speed(gm, tau) at the same points."""
    c_taux = c * tau_x
    return u_x - c_taux, u_x + c_taux


def _log_prefix(gm: GasModel, dl: DampingLaw) -> float:
    """The t-independent factor of log_time_factor."""
    g, a = gm.gamma, dl.alpha
    if dl.branch is Branch.CRITICAL:
        return a * (3.0 * g - 1.0) / (2.0 * (g - 3.0))
    return a * (3.0 * g - 1.0) / (2.0 * (g - 3.0) * (1.0 - dl.lam))


def _log_time_body(log_pre: float, dl: DampingLaw, t):
    """log_pre, the _log_prefix of dl, times the t-dependent factor of
    log_time_factor: the one body of the time factor, which the Riccati
    kernel shares with a prefix formed once per kernel."""
    if dl.branch is Branch.CRITICAL:
        return log_pre * np.log1p(t)
    return log_pre * (1.0 + t) ** (1.0 - dl.lam)


def log_time_factor(gm: GasModel, dl: DampingLaw, t):
    """Log of the integrating-factor multiplier in y, q, and the Riccati
    coefficients.

    Generic branch: alpha(3g-1)/(2(g-3)(1-lam)) * (1+t)**(1-lam).
    Critical branch: alpha(3g-1)/(2(g-3)) * log(1+t).
    """
    if _any(operator.lt, t, 0.0):
        raise DomainError("t must be nonnegative")
    return _log_time_body(_log_prefix(gm, dl), dl, t)


def checked_log(log_val):
    """log_val unchanged, after checking that its exponential stays in
    double-precision range; RangeError if any entry is over the cap (a
    NaN entry is not, and passes).  The cap is two-sided: a time factor
    that underflows to 0 is refused as well."""
    if _any(operator.gt, abs(log_val), _LOG_CAP):
        magnitude = float(np.nanmax(np.abs(log_val)))
        raise RangeError(
            f"exponent of magnitude {magnitude:.6g} exceeds double-precision "
            f"range (|log| > {_LOG_CAP:g})"
        )
    return log_val


def checked_exp(log_val):
    return np.exp(checked_log(log_val))


def initial_decay(gm: GasModel, dl: DampingLaw) -> float:
    """exp(-log_time_factor(0)), the scalar decay in K2 and in the
    gamma > 3 thresholds (1 on the critical branch)."""
    return math.exp(-checked_log(log_time_factor(gm, dl, 0.0)))


@in_double_range
def y_variable(gm: GasModel, dl: DampingLaw, phi, grad, t):
    """Decoupled gradient variable: y along forward characteristics with
    grad = A = w_x, and q along backward ones with grad = B = z_x.  With
    grad = the stacked rows (A, B), one call gives (y, q) as rows and
    shares the phi powers and the time factor.

    y = (phi**p_hi * A - _shift(t) * phi**p_lo) * exp(log_time_factor),
    with y's shift _shift(t) = alpha(g-1)/(K_c (g-3) (1+t)**lam).

    t is one time, or a list of the K row times of a (K, n) block of
    phi, whose grad is then (K, n) or (2, K, n).  Each row's shift and
    time factor are formed as for its time alone, on Python floats and
    numpy scalars, and broadcast as a (K, 1) column: an elementwise op
    gives the same bits on a block as on its rows one at a time, but
    numpy's power kernel on a column of times need not give those of
    the scalar power.
    """
    _require_positive("phi", phi)
    tilde = phi ** gm.p_hi * grad - _per_time(_shift, gm, dl, t) * phi ** gm.p_lo
    return tilde * _per_time(_time_factor, gm, dl, t)


def _per_time(fn, gm: GasModel, dl: DampingLaw, t):
    """fn at time t, or the (K, 1) column of fn at each time of a list t."""
    if isinstance(t, list):
        return np.array([fn(gm, dl, s) for s in t])[:, None]
    return fn(gm, dl, t)


def _shift(gm: GasModel, dl: DampingLaw, t):
    """alpha(g-1)/(K_c (g-3) (1+t)**lam), y's shift: a numpy scalar from
    the start, so the trap sees it overflow.  At t = 0, (1+t)**lam is
    exactly 1, so _shift(0) is alpha(g-1)/(K_c (g-3)) to the bit: the
    criteria's Kt1."""
    g = gm.gamma
    return np.float64(dl.alpha) * (g - 1.0) / (gm.k_c * (g - 3.0) * (1.0 + t) ** dl.lam)


def _time_factor(gm: GasModel, dl: DampingLaw, t):
    return checked_exp(log_time_factor(gm, dl, t))


# q has the same body as y, with B = z_x in the gradient slot
q_variable = y_variable


def riccati_kernel(gm: GasModel, dl: DampingLaw):
    """(phi, t) -> (c0, c2), the coefficients of the Riccati equation
    y' = c0 - c2*y**2 along a characteristic, for Python floats phi > 0
    and t >= 0.  c2 > 0 always; the sign of c0 encodes the regime.

    Numerator of c0:
      lam*alpha*(g-1)*(g-3)*(1+t)**(lam-1) - alpha**2*(g-1)**2,
    divided by K_c*(g-3)**2*(1+t)**(2 lam), times phi**p_lo and the
    time factor; c2 = K_c*(g+1)/(2(g-1)) * phi**(-p_lo) over the time
    factor.  The critical branch is the lam = 1 specialisation with a
    power-law time factor.

    The factors free of phi and t are formed once, here, the time
    factor's prefix included; the time factor itself is
    _log_time_body's, as in log_time_factor, through checked_exp.
    Python multiplies left to right, so each is a prefix of the product
    it stood in, and c0 and c2 keep their bits.  A call is guarded by
    in_float_range; a factor that itself leaves double range is NaN
    here, so every call raises RangeError, as every call did before.
    """
    g, a, lam = gm.gamma, dl.alpha, dl.lam
    lo = gm.p_lo
    try:
        log_pre = _log_prefix(gm, dl)
        num_t, num_0 = lam * a * (g - 1.0) * (g - 3.0), a * a * (g - 1.0) ** 2
        den_0 = gm.k_c * (g - 3.0) ** 2
        c2_0 = gm.k_c * (g + 1.0) / (2.0 * (g - 1.0))
    except (OverflowError, ZeroDivisionError):
        log_pre = num_t = num_0 = den_0 = c2_0 = math.nan

    @in_float_range
    def riccati_coefficients(phi: float, t: float):
        if phi <= 0.0:
            raise DomainError("phi must be positive")
        if t < 0.0:
            raise DomainError("t must be nonnegative")
        mu = float(checked_exp(_log_time_body(log_pre, dl, t)))
        c0 = ((num_t * (1.0 + t) ** (lam - 1.0) - num_0)
              / (den_0 * (1.0 + t) ** (2.0 * lam)) * phi ** lo * mu)
        return c0, c2_0 * phi ** -lo / mu

    return riccati_coefficients


def riccati_coefficients(gm: GasModel, dl: DampingLaw, phi: float, t: float):
    """(c0, c2) of riccati_kernel(gm, dl) at one scalar (phi, t), for
    one-off callers: it builds the kernel at every call.  Nothing in the
    package calls it; the cross-check builds its kernel once per trace."""
    return riccati_kernel(gm, dl)(float(phi), float(t))
