"""Blow-up criteria: pointwise hypothesis checks on sampled initial
data, routed by the regime map of core, producing an auditable Verdict.

Four sufficient conditions are implemented, split by adiabatic exponent
(gamma above or below 3) and by damping branch (decay exponent equal to
1 or not).  Each check scans the grid for a point where the slope of a
Riemann invariant falls below an explicit threshold; the firing form is
kept consistent with the sign of the decoupled gradient variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bounds, core
from .bounds import InitialBound
# the regime map lives in core (bounds needs it too) and is re-exported here
from .core import (
    DampingLaw,
    GammaSide,
    GasModel,
    LambdaSide,
    Regime,
    Theorem,
    classify_regime,
)
from .errors import DomainError, RangeError
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
    rhs_at = float(rhs[idx]) if np.ndim(rhs) else float(rhs)
    fired = lhs < rhs_at - _MARGIN * abs(rhs_at)
    return Verdict(
        fired=bool(fired),
        theorem=theorem,
        witness_x=float(field.grid.xs[idx]) if fired else None,
        lhs=lhs,
        rhs=rhs_at,
        threshold=threshold,
    )


def _require_t0(field: FieldState):
    if field.t != 0.0:
        raise DomainError("criteria evaluate initial data only (t = 0)")


def _require_certified(field: FieldState, ib: InitialBound):
    sup = bounds.certified_initial_bound(field).c0
    if sup > ib.c0 * (1.0 + 1e-12):
        raise DomainError(
            f"c0 = {ib.c0:.6g} does not certify the field (needs >= {sup:.6g})"
        )


def _assert_sign_consistency(field: FieldState, rhs: np.ndarray):
    """The slope inequality must agree with the sign of y (and q) at
    every grid point; this ties the theorem form to the decoupled
    gradient variables."""
    lhs_a, lhs_b = field.slopes()
    factor = field.phi() ** core.p_hi(field.gas) * core.checked_exp(
        core.log_time_factor(field.gas, field.damping, field.t)
    )
    for lhs, grad_val in ((lhs_a, field.y()), (lhs_b, field.q())):
        recon = factor * (lhs - rhs)
        scale = np.maximum(np.abs(grad_val), 1.0)
        if np.any(np.abs(recon - grad_val) > 1e-9 * scale):
            raise DomainError("slope form and y/q sign form disagree")


# Each theorem's blow-up threshold constant.  The gamma > 3 criteria
# (threshold N or N1) compare the slopes with
#   Kt1 * phi**(-2/(g-1)) - N * exp(-log_time_factor(0)) * phi**(-(g+1)/(2(g-1)))
# on certified data; the 1 < gamma < 3 criteria (no threshold) drop the
# second term, which makes them sign conditions on y and q.
_CRITERIA = {
    Theorem.T3_1: bounds.threshold_N,
    Theorem.T3_2: None,
    Theorem.T4_1: bounds.threshold_N1,
    Theorem.T4_2: None,
}


def _check(
    theorem: Theorem, field: FieldState, gm: GasModel, dl: DampingLaw,
    ib: Optional[InitialBound] = None,
) -> Verdict:
    """The one checker body behind the four check_theorem_* entry points."""
    threshold_fn = _CRITERIA[theorem]
    _require_t0(field)
    core.require_theorem(gm, dl, theorem, f"criterion {theorem.value}")
    g = gm.gamma
    phi = field.phi()
    kt1 = dl.alpha * (g - 1.0) / (gm.k_c * (g - 3.0))
    threshold = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        rhs = kt1 * phi ** (-2.0 / (g - 1.0))
        if threshold_fn is not None:
            _require_certified(field, ib)
            threshold = threshold_fn(gm, dl, ib)
            kt2 = threshold * core.initial_decay(gm, dl)
            rhs = rhs - kt2 * phi ** (-(g + 1.0) / (2.0 * (g - 1.0)))
    if not np.isfinite(rhs).all():
        raise RangeError(f"threshold curve of {theorem.value} leaves double range")
    if threshold_fn is None:
        _assert_sign_consistency(field, rhs)
    return _scan(field, rhs, theorem, threshold)


def check_theorem_31(
    field: FieldState, gm: GasModel, dl: DampingLaw, ib: InitialBound
) -> Verdict:
    """gamma > 3, generic branch outside the lambda gap: fires where a
    Riemann-invariant slope is below
    Kt1 * phi**(-2/(g-1)) - Kt2 * phi**(-(g+1)/(2(g-1)))."""
    return _check(Theorem.T3_1, field, gm, dl, ib)


def check_theorem_32(field: FieldState, gm: GasModel, dl: DampingLaw) -> Verdict:
    """1 < gamma < 3, lambda >= alpha(g-1)/(g-3), generic branch: fires
    where a slope is below -alpha(g-1)/(K_c(3-g)) * phi**(-2/(g-1)),
    equivalently where y or q is negative at t = 0."""
    return _check(Theorem.T3_2, field, gm, dl)


def check_theorem_41(
    field: FieldState, gm: GasModel, dl: DampingLaw, ib: InitialBound
) -> Verdict:
    """gamma > 3, lambda = 1, alpha >= (g-3)/(g-1): as the generic
    gamma > 3 check with the critical threshold N1."""
    return _check(Theorem.T4_1, field, gm, dl, ib)


def check_theorem_42(field: FieldState, gm: GasModel, dl: DampingLaw) -> Verdict:
    """1 < gamma < 3, lambda = 1: same inequality shape as the generic
    sub-gamma check."""
    return _check(Theorem.T4_2, field, gm, dl)


def evaluate(
    field: FieldState,
    gm: GasModel,
    dl: DampingLaw,
    ib: Optional[InitialBound] = None,
) -> Verdict:
    """Route the field through the applicable theorem checker.

    Regimes with no applicable theorem yield a non-firing NONE verdict.
    When ib is omitted a certified bound is derived from the field
    itself.
    """
    _require_t0(field)
    theorem = classify_regime(gm, dl).applicable_theorem
    if ib is None:
        ib = bounds.certified_initial_bound(field)
    if theorem in _CRITERIA:
        return _check(theorem, field, gm, dl, ib)
    return Verdict(
        fired=False, theorem=Theorem.NONE, witness_x=None, lhs=None, rhs=None,
        threshold=0.0,
    )
