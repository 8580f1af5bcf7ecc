"""A-priori bound calculators.

Invariant-region constant for certified initial data, the Y/Q ceilings
on the decoupled gradient variables, the time-dependent density floor
for 1 < gamma < 3 off the lambda gap, and the blow-up threshold
constants N and N1 for gamma > 3.  Regime hypotheses are decided by
core.classify_regime; every damping time factor is a power of
exp(core.log_time_factor), so no formula here forks on the branch.
Python-float formulas that can leave double range run in core.in_float_range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import core
from .core import DampingLaw, GasModel, LambdaSide, Theorem
from .errors import DomainError, RangeError
from .fields import FieldState


@dataclass(frozen=True)
class InitialBound:
    """Uniform bound c0 on |u0| and 1/tau0, with the derived
    invariant-region bound c0_tilde = max{c0 + c0**theta,
    (c0 + c0**theta)**(1/theta)}."""

    c0: float
    c0_tilde: float


@dataclass(frozen=True)
class RiccatiCeilings:
    """Y = max{1, sup_x y(x,0)} and Q = max{1, sup_x q(x,0)}."""

    y_cap: float
    q_cap: float

    def __post_init__(self):
        if self.y_cap < 1.0 or self.q_cap < 1.0:
            raise DomainError("ceilings are floored at 1 by definition")


@dataclass(frozen=True)
class DensityFloor:
    """Amplitude constant and validity onset of the density lower bound."""

    k0: float
    t_min: float


@core.in_float_range
def _c0_tilde(gm: GasModel, c0: float) -> float:
    base = c0 + c0**gm.theta
    return max(base, base ** (1.0 / gm.theta))


def invariant_region_bound(gm: GasModel, c0: float) -> InitialBound:
    """Invariant-region constant for data with |u0| <= c0, 1/tau0 <= c0;
    RangeError where c0_tilde leaves double range."""
    if not (c0 > 0.0):
        raise DomainError(f"c0 must be positive, got {c0}")
    return InitialBound(c0=c0, c0_tilde=_c0_tilde(gm, c0))


def certified_initial_bound(field: FieldState) -> InitialBound:
    """Tightest certified c0 for a sampled field: max of sup|u0| and
    sup 1/tau0 over the grid, the latter 1 / min tau0 (division is
    monotone and correctly rounded), which overflows with no warning."""
    c0 = max(float(np.max(np.abs(field.u))), 1.0 / float(np.min(field.tau)))
    return invariant_region_bound(field.gas, c0)


def riccati_ceilings(field: FieldState) -> RiccatiCeilings:
    """Grid suprema of y(x,0) and q(x,0), floored at 1."""
    if field.t != 0.0:
        raise DomainError("ceilings are defined from the initial field (t = 0)")
    y_cap = max(1.0, float(np.max(field.y())))
    q_cap = max(1.0, float(np.max(field.q())))
    return RiccatiCeilings(y_cap=y_cap, q_cap=q_cap)


def _require_floor_regime(gm: GasModel, dl: DampingLaw):
    if not core.classify_regime(gm, dl).has_density_floor:
        raise DomainError("density floor requires the T3_2 or T4_2 regime "
                          "(1 < gamma < 3, off the lambda gap)")


def _floor_coef(gm: GasModel, ceilings: RiccatiCeilings) -> float:
    """(3-g)/(4(g-1)) * K_c * (Y+Q), the coefficient of the onset term,
    with (3-g)/(4(g-1)) = -p_lo/2; K0's bracket is 2 * phi_coef**(-p_lo)
    times it."""
    return -0.5 * gm.p_lo * gm.k_c * (ceilings.y_cap + ceilings.q_cap)


@core.in_float_range
def density_floor_constant(
    gm: GasModel, dl: DampingLaw, ceilings: RiccatiCeilings
) -> float:
    """K0 of the density lower bound."""
    _require_floor_regime(gm, dl)
    bracket = 2.0 * gm.phi_coef ** (-gm.p_lo) * _floor_coef(gm, ceilings)
    return bracket ** (-4.0 / (3.0 - gm.gamma))


@core.in_float_range
def density_floor(gm: GasModel, dl: DampingLaw, floor: DensityFloor, t: float) -> float:
    """Time-dependent lower bound on density, valid for t > floor.t_min:
    K0 * t**(-4/(3-g)) * exp(4/(3-g) * log_time_factor(t)), with K0 =
    floor.k0 (see make_density_floor); RangeError where the decay or
    the floor itself leaves double range, a floor below the smallest
    normal double included."""
    if not (t > floor.t_min):
        raise RangeError(f"floor is only valid for t > t_min = {floor.t_min:.6g}")
    g = gm.gamma
    log_decay = 4.0 / (3.0 - g) * core.log_time_factor(gm, dl, t)
    val = floor.k0 * t ** (-4.0 / (3.0 - g)) * math.exp(core.checked_log(log_decay))
    if val < sys.float_info.min:
        raise RangeError(f"density floor {val:.6g} at t={t:.6g} is below the "
                         "smallest normal double")
    return val


def _onset_lhs(gm: GasModel, dl: DampingLaw, ceilings: RiccatiCeilings, t: float):
    """Dominating term _floor_coef * t * exp(-log_time_factor(t)) of the
    phi estimate, whose crossing defines t_min; inf past exponent range."""
    log_f = -core.log_time_factor(gm, dl, t)
    if log_f > core._LOG_CAP:
        return math.inf
    return _floor_coef(gm, ceilings) * t * math.exp(log_f)


def initial_phi_term_sup(field: FieldState) -> float:
    """sup_x of phi(x,0)**p_lo, the term the onset must dominate."""
    return float(np.max(field.phi() ** field.gas.p_lo))


@core.in_float_range
def density_floor_onset(
    gm: GasModel,
    dl: DampingLaw,
    ceilings: RiccatiCeilings,
    phi0_sup: float,
) -> float:
    """Constructive validity onset T of the density floor.

    phi0_sup is the supremum over the initial data of
    phi(x,0)**((g-3)/(2(g-1))) (see initial_phi_term_sup).  Returns the
    first time at which the growing term of the phi estimate reaches
    phi0_sup, after which doubling its coefficient absorbs the initial
    term.  Solved by monotone bisection to absolute 1e-9, or to adjacent
    doubles where those lie further apart (an onset beyond 2**23).
    """
    _require_floor_regime(gm, dl)
    if not (phi0_sup > 0.0):
        raise DomainError("phi0_sup must be positive")
    # bracket the crossing by doubling; lhs is continuous, increasing,
    # 0 at t=0 and unbounded
    hi = 1e-6
    while _onset_lhs(gm, dl, ceilings, hi) < phi0_sup:
        hi *= 2.0
        if hi > 1e18:
            raise RangeError("density-floor onset did not bracket")
    return core.narrow_bracket(
        lambda t: _onset_lhs(gm, dl, ceilings, t) >= phi0_sup, 0.0, hi, 1e-9)[1]


def make_density_floor(
    gm: GasModel, dl: DampingLaw, ceilings: RiccatiCeilings, phi0_sup: float
) -> DensityFloor:
    """Bundle the floor constant with its validity onset."""
    return DensityFloor(
        k0=density_floor_constant(gm, dl, ceilings),
        t_min=density_floor_onset(gm, dl, ceilings, phi0_sup),
    )


# ---------------------------------------------------------------------
# blow-up threshold constants for gamma > 3
# ---------------------------------------------------------------------

def k1_constant(gm: GasModel, ib: InitialBound) -> float:
    """K1 = K_c(g+1)/(2(g-1)) * phi_coef**(-(g-3)/(2(g-1)))
    * c0_tilde**((3-g)/4)."""
    g = gm.gamma
    return (
        gm.k_c * (g + 1.0) / (2.0 * (g - 1.0))
        * gm.phi_coef ** (-gm.p_lo)
        * ib.c0_tilde ** ((3.0 - g) / 4.0)
    )


def k2_closed_form(gm: GasModel, dl: DampingLaw) -> float:
    """Closed-form K2 for 0 <= lambda < 1 (valid down to lambda = 0)."""
    g, a = gm.gamma, dl.alpha
    if a == 0.0:
        return math.inf
    return 2.0 * (g - 3.0) / (a * (3.0 * g - 1.0)) * core.initial_decay(gm, dl)


def k2_integral(gm: GasModel, dl: DampingLaw) -> float:
    """K2 for lambda <= 0: int_0^inf exp(-log_time_factor(s)) ds, in
    closed form (1/b) * C**(-1/b) * Gamma(1/b, C), where b = 1 - lambda,
    C = log_time_factor(0) > 0 for gamma > 3, and Gamma(a, x) is the
    upper incomplete gamma function."""
    # imported on use: scipy dominates import time
    from scipy.special import gamma, gammaincc
    if dl.alpha == 0.0:
        return math.inf
    a = 1.0 / (1.0 - dl.lam)
    c = core.log_time_factor(gm, dl, 0.0)
    return a * c ** -a * float(gammaincc(a, c)) * float(gamma(a))


def k3_constant(gm: GasModel, dl: DampingLaw) -> float:
    """K3 of the a0/a2 ratio bound, with phi_coef**((g-3)/(g-1)) =
    phi_coef**(2 p_lo)."""
    g, a = gm.gamma, dl.alpha
    return (
        2.0 * a * (g - 1.0) ** 2
        / (gm.k_c**2 * (g - 3.0) ** 2 * (g + 1.0))
        * gm.phi_coef ** (2.0 * gm.p_lo)
    )


@core.in_float_range
def threshold_N(gm: GasModel, dl: DampingLaw, ib: InitialBound) -> float:
    """Blow-up threshold N for gamma > 3 and lambda outside the gap
    between 1 and alpha(g-1)/(g-3) (the T3_1 regime).

    lambda < min{1, a(g-1)/(g-3)}:  N = 1/(K1*K2).
    lambda > max{1, a(g-1)/(g-3)}:  N = K4 = sqrt(K3 * c0_tilde**((g-3)/2)
                                                  * lambda * (g-3)).
    Raises RegimeError outside the T3_1 regime.
    """
    regime = core.require_theorem(gm, dl, Theorem.T3_1, "threshold N")
    g, a, lam = gm.gamma, dl.alpha, dl.lam
    if regime.lambda_side is LambdaSide.GENERIC_LOW:
        if a == 0.0:
            return 0.0
        k1 = k1_constant(gm, ib)
        k2 = k2_closed_form(gm, dl) if lam >= 0.0 else k2_integral(gm, dl)
        return 1.0 / (k1 * k2)
    k3 = k3_constant(gm, dl)
    return math.sqrt(k3 * ib.c0_tilde ** ((g - 3.0) / 2.0) * lam * (g - 3.0))


@core.in_float_range
def threshold_N1(gm: GasModel, dl: DampingLaw, ib: InitialBound) -> float:
    """Blow-up threshold N1 for the critical branch (the T4_1 regime:
    lambda = 1, gamma > 3, alpha >= (g-3)/(g-1)): N1 = 1/(K1*K5) with
    K5 = 2(g-3)/(a(3g-1) - 2(g-3)), whose denominator is positive
    there.  Raises RegimeError outside the T4_1 regime."""
    core.require_theorem(gm, dl, Theorem.T4_1, "threshold N1")
    g, a = gm.gamma, dl.alpha
    k5 = 2.0 * (g - 3.0) / (a * (3.0 * g - 1.0) - 2.0 * (g - 3.0))
    return 1.0 / (k1_constant(gm, ib) * k5)
