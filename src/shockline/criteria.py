"""Blow-up criteria: pointwise hypothesis checks on sampled initial
data, routed by the regime map of core, producing an auditable Verdict.

Four sufficient conditions are implemented, split by adiabatic exponent
(gamma above or below 3) and by damping branch (decay exponent equal to
1 or not).  Each check scans the grid for a point where the slope of a
Riemann invariant falls below an explicit threshold; for 1 < gamma < 3
that threshold fires exactly where y or q is negative at t = 0, since
its Kt1 is y's shift at t = 0 (core._shift).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bounds, core
from .core import DampingLaw, GasModel, Theorem
from .errors import DomainError
from .fields import FieldState

# strict-inequality margin: floating-point ties must not flip verdicts
_MARGIN = 1e-12


@dataclass(frozen=True)
class Verdict:
    fired: bool
    theorem: Theorem
    witness_x: Optional[float]
    lhs: Optional[float]
    rhs: Optional[float]
    threshold: float

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem.value,
            "fired": self.fired,
            "witness_x": self.witness_x,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "threshold": self.threshold,
        }

    @staticmethod
    def from_dict(d: dict) -> "Verdict":
        return Verdict(
            fired=bool(d["fired"]),
            theorem=Theorem(d["theorem"]),
            witness_x=d["witness_x"],
            lhs=d["lhs"],
            rhs=d["rhs"],
            threshold=float(d["threshold"]),
        )


def _scan(field: FieldState, rhs, theorem: Theorem, threshold: float):
    """Fire if either slope undercuts rhs anywhere, with the strict
    margin; witness is the argmin of lhs - rhs, ties to smallest x."""
    lhs_a, lhs_b = field.slopes()
    gap = np.minimum(lhs_a - rhs, lhs_b - rhs)
    idx = int(np.argmin(gap))
    lhs = float(min(lhs_a[idx], lhs_b[idx]))
    rhs_at = float(rhs[idx])
    fired = lhs < rhs_at - _MARGIN * abs(rhs_at)
    return Verdict(
        fired=bool(fired),
        theorem=theorem,
        witness_x=float(field.grid.xs[idx]) if fired else None,
        lhs=lhs,
        rhs=rhs_at,
        threshold=threshold,
    )


# The blow-up threshold constant of each super-gamma theorem (see evaluate).
_THRESHOLDS = {Theorem.T3_1: bounds.threshold_N, Theorem.T4_1: bounds.threshold_N1}


@core.in_double_range
def evaluate(field: FieldState, gm: GasModel, dl: DampingLaw) -> Verdict:
    """Check the criterion of the theorem the regime map assigns to
    (gm, dl) on initial data; regimes with no applicable theorem yield a
    non-firing NONE verdict.  Fires where a Riemann-invariant slope is
    below the theorem's threshold curve:

    T3_1 (gamma > 3, generic branch outside the lambda gap) and T4_1
    (gamma > 3, lambda = 1, alpha >= (g-3)/(g-1)):
        Kt1 * phi**(-1/theta) - Kt2 * phi**(-p_hi), with
        Kt1 = alpha(g-1)/(K_c(g-3)) and Kt2 the threshold N (T3_1) or
        N1 (T4_1) times exp(-log_time_factor(0)), both at the bound
        bounds.certified_initial_bound derives from the field;
    T3_2 (1 < gamma < 3, lambda >= alpha(g-1)/(g-3), generic branch)
    and T4_2 (1 < gamma < 3, lambda = 1):
        Kt1 * phi**(-1/theta) = -alpha(g-1)/(K_c(3-g)) * phi**(-2/(g-1)).
    Kt1 is y's shift at t = 0 (core._shift) and -1/theta = p_lo - p_hi,
    so y = phi**p_hi * (A - Kt1 * phi**(-1/theta)) times a positive
    factor at t = 0, and q the same with B: the sub-gamma curve fires
    exactly where y or q is negative at t = 0.
    """
    if field.t != 0.0:
        raise DomainError("criteria evaluate initial data only (t = 0)")
    theorem = core.classify_regime(gm, dl).applicable_theorem
    if theorem is Theorem.NONE:
        return Verdict(
            fired=False, theorem=Theorem.NONE, witness_x=None, lhs=None, rhs=None,
            threshold=0.0,
        )
    threshold_fn = _THRESHOLDS.get(theorem)
    threshold = 0.0
    if threshold_fn is not None:
        threshold = threshold_fn(gm, dl, bounds.certified_initial_bound(field))
    rhs = _threshold_curve(gm, dl, field.phi(), threshold_fn is not None, threshold)
    return _scan(field, rhs, theorem, threshold)


def _threshold_curve(gm: GasModel, dl: DampingLaw, phi, time_factor: bool, threshold):
    """The curve of evaluate; the Kt2 term only with time_factor.  Kt1
    is core._shift at t = 0, and the exponents are the GasModel's."""
    # Kt1 and Kt2 start as numpy scalars: the trap sees them
    rhs = core._shift(gm, dl, 0.0) * phi ** (-1.0 / gm.theta)
    if time_factor:
        kt2 = np.float64(threshold) * core.initial_decay(gm, dl)
        rhs = rhs - kt2 * phi ** (-gm.p_hi)
    return rhs
