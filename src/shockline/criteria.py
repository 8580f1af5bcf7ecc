"""Blow-up criteria: regime classification and pointwise hypothesis
checks on sampled initial data, producing an auditable Verdict.

Four sufficient conditions are implemented, split by adiabatic exponent
(gamma above or below 3) and by damping branch (decay exponent equal to
1 or not).  Each check scans the grid for a point where the slope of a
Riemann invariant falls below an explicit threshold; the firing form is
kept consistent with the sign of the decoupled gradient variables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bounds, core
from .bounds import InitialBound
from .core import Branch, DampingLaw, GasModel
from .errors import DomainError, RegimeError
from .fields import FieldState

# strict-inequality margin: floating-point ties must not flip verdicts
_MARGIN = 1e-12


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
    gamma_side: GammaSide
    lambda_side: LambdaSide
    applicable_theorem: Theorem


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


def classify_regime(gm: GasModel, dl: DampingLaw) -> Regime:
    """Deterministic partition of the (alpha, lambda, gamma) space.

    For gamma > 3 the open interval between 1 and alpha(g-1)/(g-3)
    (boundaries included, except lambda = 1 itself) has no applicable
    theorem; for 1 < gamma < 3 the same holds for
    lambda < alpha(g-1)/(g-3).  Constant damping (lambda = 0) rides the
    generic machinery.
    """
    g = gm.gamma
    ratio = dl.alpha * (g - 1.0) / (g - 3.0)
    if g > 3.0:
        if dl.branch is Branch.CRITICAL:
            theorem = Theorem.T4_1 if ratio >= 1.0 else Theorem.NONE
            return Regime(GammaSide.SUPER, LambdaSide.CRITICAL, theorem)
        lo, hi = min(1.0, ratio), max(1.0, ratio)
        if dl.lam < lo:
            return Regime(GammaSide.SUPER, LambdaSide.GENERIC_LOW, Theorem.T3_1)
        if dl.lam > hi:
            return Regime(GammaSide.SUPER, LambdaSide.GENERIC_HIGH, Theorem.T3_1)
        return Regime(GammaSide.SUPER, LambdaSide.GENERIC_GAP, Theorem.NONE)
    # 1 < gamma < 3 (gamma == 3 cannot construct a GasModel)
    if dl.branch is Branch.CRITICAL:
        return Regime(GammaSide.SUB, LambdaSide.CRITICAL, Theorem.T4_2)
    if dl.lam < ratio:
        return Regime(GammaSide.SUB, LambdaSide.GENERIC_GAP, Theorem.NONE)
    side = LambdaSide.GENERIC_HIGH if dl.lam > 1.0 else LambdaSide.GENERIC_LOW
    return Regime(GammaSide.SUB, side, Theorem.T3_2)


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
    sup = max(float(np.max(np.abs(field.u))), float(np.max(1.0 / field.tau)))
    if sup > ib.c0 * (1.0 + 1e-12):
        raise DomainError(
            f"c0 = {ib.c0:.6g} does not certify the field (needs >= {sup:.6g})"
        )


def _assert_sign_consistency(field: FieldState, rhs: np.ndarray):
    """The slope inequality must agree with the sign of y (and q) at
    every grid point; this ties the theorem form to the decoupled
    gradient variables."""
    lhs_a, lhs_b = field.slopes()
    factor = field.phi() ** core.p_hi(field.gas) * np.exp(
        core.log_time_factor(field.gas, field.damping, field.t)
    )
    for lhs, grad_val in ((lhs_a, field.y()), (lhs_b, field.q())):
        recon = factor * (lhs - rhs)
        scale = np.maximum(np.abs(grad_val), 1.0)
        if np.any(np.abs(recon - grad_val) > 1e-9 * scale):
            raise DomainError("slope form and y/q sign form disagree")


# Each theorem: its regime hypothesis and its blow-up threshold constant.
# The gamma > 3 criteria (threshold N or N1) compare the slopes with
#   Kt1 * phi**(-2/(g-1)) - N * exp(-log_time_factor(0)) * phi**(-(g+1)/(2(g-1)))
# on certified data; the 1 < gamma < 3 criteria (no threshold) drop the
# second term, which makes them sign conditions on y and q.
_CRITERIA = {
    Theorem.T3_1: ("gamma > 3, lambda != 1, outside the gap", bounds.threshold_N),
    Theorem.T3_2: ("1 < gamma < 3, lambda != 1, above the gap", None),
    Theorem.T4_1: ("gamma > 3, lambda = 1, alpha >= (g-3)/(g-1)", bounds.threshold_N1),
    Theorem.T4_2: ("1 < gamma < 3, lambda = 1", None),
}


def _check(
    theorem: Theorem, field: FieldState, gm: GasModel, dl: DampingLaw,
    ib: Optional[InitialBound] = None,
) -> Verdict:
    """The one checker body behind the four check_theorem_* entry points."""
    hypothesis, threshold_fn = _CRITERIA[theorem]
    _require_t0(field)
    if classify_regime(gm, dl).applicable_theorem is not theorem:
        raise RegimeError(f"theorem for {hypothesis}")
    g = gm.gamma
    phi = field.phi()
    kt1 = dl.alpha * (g - 1.0) / (gm.k_c * (g - 3.0))
    rhs = kt1 * phi ** (-2.0 / (g - 1.0))
    if threshold_fn is None:
        threshold = 0.0
        _assert_sign_consistency(field, rhs)
    else:
        _require_certified(field, ib)
        threshold = threshold_fn(gm, dl, ib)
        kt2 = threshold * core.initial_decay(gm, dl)
        rhs = rhs - kt2 * phi ** (-(g + 1.0) / (2.0 * (g - 1.0)))
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

    Regimes with no applicable theorem (and RegimeError from threshold
    computation) yield a non-firing NONE verdict.  When ib is omitted a
    certified bound is derived from the field itself.
    """
    _require_t0(field)
    regime = classify_regime(gm, dl)
    if ib is None:
        ib = bounds.certified_initial_bound(field)
    if regime.applicable_theorem in _CRITERIA:
        try:
            return _check(regime.applicable_theorem, field, gm, dl, ib)
        except RegimeError:
            pass
    return Verdict(
        fired=False, theorem=Theorem.NONE, witness_x=None, lhs=None, rhs=None,
        threshold=0.0,
    )
