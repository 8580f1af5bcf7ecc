"""Blow-up-robust integration of scalar Riccati equations.

The equation y' = c0(t) - c2(t) * y**2 with c2 > 0 can only escape to
-infinity.  The integrator therefore follows y with an embedded
Dormand-Prince 4(5) pair while y >= -1 and switches to the inverse
chart v = 1/y (which obeys the regular equation v' = c2 - c0 * v**2)
once y < -1.  A pole of y is a regular upcrossing of v through zero and
is reported as a tight time bracket, never as a point; the crossing
step is bisected with the same Dormand-Prince step from the same start.
The step runs on plain Python floats and reads the coefficients once
per distinct stage time, handing those at t + h on to the next step.
Every crossing time here (the pole bracket and the integral bounds) is
narrowed by core.narrow_bracket.
Known miss: the pad of about 1e-8 * t does not cover the error in v over
a small c2 (y' = -2000 - 1e-3 * y**2, y0 = -1 is bracketed past its pole).

Also provided: the integral upper bounds on the blow-up time (with and
without the (1 - 1/(1+eps)**2) deflation) and an exact constant
coefficient oracle used by the test suite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .core import narrow_bracket
from .errors import (
    CoefficientError,
    DomainError,
    HypothesisError,
    NoBoundError,
    ToleranceError,
)

# Sentinel returned by the closed-form oracle past the pole.
BLOWN_UP = float("-inf")

# Dormand-Prince 5(4) tableau.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


@dataclass
class RiccatiProblem:
    """Coefficient source t -> (c0(t), c2(t)) with c2 > 0, plus the
    initial value.  The callable must be pure."""

    coeff_source: Callable[[float], tuple]
    y0: float
    t0: float = 0.0

    def coeffs(self, t: float):
        c0, c2 = self.coeff_source(t)
        if not (c2 > 0.0):
            raise CoefficientError(f"c2(t={t:.6g}) = {c2:.6g} is not positive")
        return float(c0), float(c2)


class OutcomeKind(enum.Enum):
    GLOBAL = "global"
    BLOWUP = "blowup"


@dataclass
class RiccatiOutcome:
    kind: OutcomeKind
    y_end: Optional[float] = None
    t_star_lo: Optional[float] = None
    t_star_hi: Optional[float] = None


def _rhs(chart: str, coeffs: tuple, val: float) -> float:
    c0, c2 = coeffs
    if chart == "y":
        return c0 - c2 * val * val
    return c2 - c0 * val * val


def _dp_step(prob, chart, t, val, h, cf):
    """One Dormand-Prince step from t, with cf the coefficients at t;
    returns (val5, err_estimate, coefficients at t + h).

    Each stage time is read once: stage 7 reuses stage 6's coefficients
    at t + 1.0 * h, which is the next step's t.  Every sum runs on Python
    floats in tableau order, so an overflowed or NaN stage raises no
    warning; the step-size control catches it.
    """
    k = [_rhs(chart, cf, val)]
    c_prev = 0.0
    for c, row in zip(_DP_C[1:], _DP_A[1:]):
        if c != c_prev:
            cf, c_prev = prob.coeffs(t + c * h), c
        acc = 0.0
        for a, kj in zip(row, k):
            acc += a * kj
        k.append(_rhs(chart, cf, val + h * acc))
    b5 = b4 = 0.0
    for w5, w4, kj in zip(_DP_B5, _DP_B4, k):
        b5 += w5 * kj
        b4 += w4 * kj
    val5 = val + h * b5
    return val5, abs(val5 - (val + h * b4)), cf


def integrate(prob: RiccatiProblem, t_end: float, tol: float = 1e-9) -> RiccatiOutcome:
    """Adaptive integration over [t0, t_end] with blow-up detection.

    Local error per step is kept at or below tol (mixed absolute and
    relative).  Blow-up is reported as a bracket [t_star_lo, t_star_hi]
    containing the pole.  tol is capped at 1e-9: the bracket's pad is
    fixed near 1e-8 * t, which a looser integration can miss.
    """
    if not (1e-12 < tol <= 1e-9):
        raise DomainError(f"tol must lie in (1e-12, 1e-9], got {tol}")
    if not (t_end > prob.t0):
        raise DomainError("t_end must exceed t0")

    t, chart, val = prob.t0, "y", float(prob.y0)
    cf = prob.coeffs(t)  # at t; a rejected step and a chart switch keep it
    span = t_end - prob.t0
    h = min(1e-2, span / 10.0)
    err_prev = 1.0
    safety, min_h_factor = 0.9, 1e-14
    while t < t_end:
        if chart == "y" and val < -1.0:
            chart, val = "v", 1.0 / val
        elif chart == "v" and val <= -1.0:
            chart, val = "y", 1.0 / val
        # no step is shorter than the floor 1e-14 * max(1, |t|), some 45
        # ulps of t where |t| >= 1, but one that ends the span: a rest
        # below the floor is one step of t_end - t
        floor = min_h_factor * max(1.0, abs(t))
        h = min(max(h, floor), t_end - t)
        val_new, err, cf_new = _dp_step(prob, chart, t, val, h, cf)
        # error-per-unit-step control: accumulated error over the whole
        # span stays at the order of tol
        scale = tol * (1.0 + max(abs(val), abs(val_new))) * (h / span)
        # a scale that underflows to 0 rejects the step
        ratio = err / scale if scale > 0.0 else math.inf
        if ratio <= 1.0:
            if chart == "v" and val_new >= 0.0:
                # bisect on the sign of the same step from (t, val); the
                # upcrossing is transversal, since v' = c2 > 0 at any zero
                width = max(5e-14, 1e-8 * max(t + h, 1e-3))
                lo, hi = narrow_bracket(
                    lambda mid: _dp_step(prob, "v", t, val, mid - t, cf)[0] >= 0.0,
                    t, t + h, 0.25 * width)
                # pad by the target width so the bisection's own
                # integration error cannot push the pole outside
                return RiccatiOutcome(
                    kind=OutcomeKind.BLOWUP,
                    t_star_lo=max(t, lo - 0.5 * width),
                    t_star_hi=hi + 0.5 * width,
                )
            t, val, cf = t + h, val_new, cf_new
            # PI step-size controller (fourth-order in h under
            # per-unit-step scaling)
            grow = safety * ratio ** -0.25 * err_prev**0.04 if ratio > 0 else 5.0
            h *= min(5.0, max(0.2, grow))
            err_prev = max(ratio, 1e-10)
        else:
            h *= max(0.2, safety * ratio**-0.25)
            if h < floor:
                raise ToleranceError(
                    f"step size underflow at t={t:.6g} without a pole crossing"
                )
    return RiccatiOutcome(OutcomeKind.GLOBAL, y_end=val if chart == "y" else 1.0 / val)


# ---------------------------------------------------------------------
# integral upper bounds on the blow-up time
# ---------------------------------------------------------------------

def _crossing_time(
    prob: RiccatiProblem,
    target: float,
    t_max: float,
    hypothesis: Callable[[float, float, float], None],
) -> float:
    """First t with int_{t0}^{t} c2 ds >= target, by windowed quadrature
    and bisection inside the crossing window.  hypothesis(t, c0, c2) is
    called at both ends of every window and raises HypothesisError where
    the bound's hypothesis fails."""
    from scipy.integrate import quad  # imported on use: scipy dominates import time
    t, acc = prob.t0, 0.0
    while t < t_max:
        dt = min(max(0.05, 0.05 * max(t, 1.0)), t_max - t)
        for probe in (t, t + dt):
            hypothesis(probe, *prob.coeffs(probe))
        inc, _ = quad(lambda s: prob.coeffs(s)[1], t, t + dt, epsrel=1e-11, limit=200)
        if acc + inc >= target:
            def reached(mid):
                part, _ = quad(
                    lambda s: prob.coeffs(s)[1], t, mid, epsrel=1e-11, limit=200
                )
                return acc + part >= target

            # atol = rtol = 1e-12 stops at 1e-12 * max(1, hi)
            return narrow_bracket(reached, t, t + dt, 1e-12, 1e-12)[1]
        acc += inc
        t += dt
    raise NoBoundError(
        f"integral of c2 reached only {acc:.6g} < {target:.6g} by t={t_max:.6g}"
    )


def blowup_time_upper_bound_case1(prob: RiccatiProblem, t_max: float = 1e4) -> float:
    """Upper bound on the blow-up time when c0 <= 0 and y0 < 0: the
    first t with int c2 >= -1/y0, the integral computed by quadrature.

    The sign of c0 is checked along the quadrature windows; a positive
    c0 raises HypothesisError.  Raises NoBoundError if the threshold is
    never reached before t_max.
    """
    if not (prob.y0 < 0.0):
        raise HypothesisError(f"case-1 bound needs y0 < 0, got {prob.y0}")

    def c0_nonpositive(t, c0, c2):
        if c0 > 0.0:
            raise HypothesisError(f"c0(t={t:.6g}) = {c0:.6g} is positive")

    return _crossing_time(prob, -1.0 / prob.y0, t_max, c0_nonpositive)


def blowup_time_upper_bound_case2(
    prob: RiccatiProblem, eps: float, t_max: float = 1e4
) -> float:
    """Upper bound allowing c0 > 0, for y0 < -(1+eps)*sup sqrt(c0/c2):
    the first t with (1 - 1/(1+eps)**2) * int c2 >= -1/y0.

    sqrt(c0/c2) is sampled along the quadrature windows; a violation of
    the hypothesis raises HypothesisError.
    """
    if not (eps > 0.0):
        raise DomainError(f"eps must be positive, got {eps}")
    if not (prob.y0 < 0.0):
        raise HypothesisError(f"case-2 bound needs y0 < 0, got {prob.y0}")
    deflation = 1.0 - 1.0 / (1.0 + eps) ** 2

    def clears_ratio(t, c0, c2):
        if prob.y0 >= -(1.0 + eps) * math.sqrt(max(c0, 0.0) / c2):
            raise HypothesisError(
                "initial value does not clear -(1+eps)*sup sqrt(c0/c2)"
            )

    return _crossing_time(prob, (-1.0 / prob.y0) / deflation, t_max, clears_ratio)


# ---------------------------------------------------------------------
# constant-coefficient oracle
# ---------------------------------------------------------------------

def oracle_pole_time(c0_const: float, c2_const: float, y0: float) -> Optional[float]:
    """Exact blow-up time of y' = c0 - c2*y**2, or None if global."""
    if not (c2_const > 0.0):
        raise CoefficientError("oracle requires c2 > 0")
    if c0_const == 0.0:
        return -1.0 / (c2_const * y0) if y0 < 0.0 else None
    if c0_const > 0.0:
        m = math.sqrt(c0_const / c2_const)
        if y0 >= -m:
            return None
        k = math.sqrt(c0_const * c2_const)
        shift = math.atanh(m / y0)  # in (-inf, 0)
        return -shift / k
    m = math.sqrt(-c0_const / c2_const)
    k = math.sqrt(-c0_const * c2_const)
    if y0 < 0.0:  # pi/2 - atan(-y0/m) without the cancellation for -y0 >> m
        return math.atan(m / -y0) / k
    return (0.5 * math.pi - math.atan(-y0 / m)) / k


def closed_form_oracle(c0_const: float, c2_const: float, y0: float, t: float):
    """Exact solution of y' = c0 - c2*y**2 at time t (constant
    coefficients); returns the BLOWN_UP sentinel at or past the pole."""
    pole = oracle_pole_time(c0_const, c2_const, y0)
    if pole is not None and t >= pole:
        return BLOWN_UP
    if c0_const == 0.0:
        return y0 / (1.0 + c2_const * y0 * t)
    if c0_const > 0.0:
        m = math.sqrt(c0_const / c2_const)
        k = math.sqrt(c0_const * c2_const)
        if y0 == m or y0 == -m:
            return y0
        if abs(y0) < m:
            return m * math.tanh(k * t + math.atanh(y0 / m))
        return m / math.tanh(k * t + math.atanh(m / y0))
    m = math.sqrt(-c0_const / c2_const)
    k = math.sqrt(-c0_const * c2_const)
    delta = math.atan(-y0 / m)
    return -m * math.tan(k * t + delta)
