"""Regime classification and the four blow-up criteria."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shockline import (
    DampingLaw,
    DomainError,
    GasModel,
    GammaSide,
    Grid,
    LambdaSide,
    RangeError,
    Theorem,
    Verdict,
    classify_regime,
    evaluate,
)
from shockline.fields import init_field


def steep_field(gm, dl, u_amp, n=256, length=10.0, width=0.5):
    grid = Grid(n=n, length=length)
    return init_field(
        {"preset": "gaussian", "tau0": 1.0, "u_amp": u_amp, "width": width},
        grid, gm, dl,
    )


class TestClassifyRegime:
    @pytest.mark.parametrize("lam,side,thm", [
        (0.0, LambdaSide.GENERIC_LOW, Theorem.T3_1),
        (0.5, LambdaSide.GENERIC_LOW, Theorem.T3_1),
        (1.0, LambdaSide.CRITICAL, Theorem.T4_1),
        (1.5, LambdaSide.GENERIC_GAP, Theorem.NONE),
        (2.0, LambdaSide.GENERIC_GAP, Theorem.NONE),  # boundary -> gap
        (2.5, LambdaSide.GENERIC_HIGH, Theorem.T3_1),
    ])
    def test_gamma5_alpha1(self, gm5, lam, side, thm):
        r = classify_regime(gm5, DampingLaw(1.0, lam))
        assert r.gamma_side is GammaSide.SUPER
        assert r.lambda_side is side
        assert r.applicable_theorem is thm

    def test_critical_needs_strong_damping(self, gm5):
        # alpha(g-1)/(g-3) < 1, i.e. alpha < 1/2 for gamma=5
        r = classify_regime(gm5, DampingLaw(0.3, 1.0))
        assert r.lambda_side is LambdaSide.CRITICAL
        assert r.applicable_theorem is Theorem.NONE

    @pytest.mark.parametrize("lam,side,thm", [
        (0.0, LambdaSide.GENERIC_LOW, Theorem.T3_2),
        (2.0, LambdaSide.GENERIC_HIGH, Theorem.T3_2),
        (1.0, LambdaSide.CRITICAL, Theorem.T4_2),
        (-2.0, LambdaSide.GENERIC_GAP, Theorem.NONE),  # below alpha(g-1)/(g-3)=-1
    ])
    def test_gamma2_alpha1(self, gm2, lam, side, thm):
        r = classify_regime(gm2, DampingLaw(1.0, lam))
        assert r.gamma_side is GammaSide.SUB
        assert r.lambda_side is side
        assert r.applicable_theorem is thm


class TestTheorem32:
    def test_fires_on_steep_data(self, gm2, dl_const):
        f = steep_field(gm2, dl_const, u_amp=-6.0)
        v = evaluate(f, gm2, dl_const)
        assert v.fired and v.theorem is Theorem.T3_2
        assert v.witness_x is not None
        # rhs at tau ~ 1 is -alpha(g-1)/(K_c(3-g)) * phi**(-2) = -2
        assert -2.1 < v.rhs < -1.9

    def test_quiet_on_gentle_data(self, gm2, dl_const):
        f = steep_field(gm2, dl_const, u_amp=-0.5)
        v = evaluate(f, gm2, dl_const)
        assert v.theorem is Theorem.T3_2
        assert not v.fired and v.witness_x is None

    def test_equivalence_with_y_sign(self, gm2, dl_const):
        # fired iff min(y0, q0) < 0, across a ramp of amplitudes
        for amp in (-0.5, -1.5, -2.5, -4.0, -8.0):
            f = steep_field(gm2, dl_const, u_amp=amp)
            v = evaluate(f, gm2, dl_const)
            assert v.theorem is Theorem.T3_2
            neg = min(float(np.min(f.y())), float(np.min(f.q()))) < 0.0
            assert v.fired == neg, f"amp={amp}"

    def test_requires_initial_time(self, gm2, dl_const):
        f = steep_field(gm2, dl_const, -1.0)
        later = f.with_state(f.tau, f.u, t=0.1)
        with pytest.raises(DomainError):
            evaluate(later, gm2, dl_const)


@st.composite
def sub_gamma_cases(draw):
    """(gm, dl, field) in the T3_2 or T4_2 regime: 1 < gamma < 3 with
    lambda = 1 or lambda >= alpha(g-1)/(g-3), on gaussian or sine data."""
    g, a = draw(st.floats(1.1, 2.9)), draw(st.floats(0.0, 3.0))
    ratio = a * (g - 1.0) / (g - 3.0)
    lam = draw(st.one_of(st.just(1.0), st.just(ratio), st.floats(ratio, 4.0)))
    gm, dl = GasModel(g, 1.0), DampingLaw(a, lam)
    spec = {"preset": draw(st.sampled_from(["gaussian", "sine"])),
            "tau0": 1.0, "tau_amp": draw(st.floats(-0.5, 0.5)),
            "u_amp": draw(st.floats(-8.0, 8.0)),
            "width": draw(st.floats(0.2, 2.0))}
    return gm, dl, init_field(spec, Grid(n=64, length=10.0), gm, dl)


class TestSubGammaSignCriterion:
    """T3_2 and T4_2 fire exactly when y or q is negative at t = 0, as
    evaluate's docstring states; samples whose min(y, q) lies within
    roundoff (1e-9 of max |y|, |q|) of zero are not decided."""

    @given(case=sub_gamma_cases())
    @settings(max_examples=200, deadline=None)
    def test_fires_iff_y_or_q_negative(self, case):
        gm, dl, f = case
        try:
            y, q = f.y(), f.q()
        except RangeError:  # the time factor at t = 0 leaves double range
            assume(False)
        lowest = min(float(np.min(y)), float(np.min(q)))
        margin = 1e-9 * max(float(np.max(np.abs(y))), float(np.max(np.abs(q))))
        assume(abs(lowest) > margin)
        theorem = classify_regime(gm, dl).applicable_theorem
        assert theorem in (Theorem.T3_2, Theorem.T4_2)
        v = evaluate(f, gm, dl)
        assert v.theorem is theorem
        assert v.fired == (lowest < 0.0)
        if v.fired:  # and y or q is negative at the witness
            i = int(np.argmin(np.abs(f.grid.xs - v.witness_x)))
            assert min(y[i], q[i]) < margin


class TestTheorem42:
    def test_fires_on_steep_data(self, gm2, dl_crit):
        f = steep_field(gm2, dl_crit, u_amp=-6.0)
        v = evaluate(f, gm2, dl_crit)
        assert v.fired and v.theorem is Theorem.T4_2


class TestTheorem31:
    def test_fires_on_steep_data(self, gm5, dl_const):
        f = steep_field(gm5, dl_const, u_amp=-3.0, n=512, length=5.0, width=0.1)
        v = evaluate(f, gm5, dl_const)
        assert v.fired and v.theorem is Theorem.T3_1
        assert v.threshold > 0.0

    def test_quiet_on_gentle_data(self, gm5, dl_const):
        f = steep_field(gm5, dl_const, u_amp=-0.1, n=512, length=5.0, width=0.5)
        v = evaluate(f, gm5, dl_const)
        assert not v.fired and v.theorem is Theorem.T3_1


class TestTheorem41:
    def test_fires_on_steep_data(self, gm5, dl_crit):
        f = steep_field(gm5, dl_crit, u_amp=-3.0, n=512, length=5.0, width=0.1)
        v = evaluate(f, gm5, dl_crit)
        assert v.fired and v.theorem is Theorem.T4_1


class TestEvaluate:
    def test_dispatch_matches_direct_calls(self, gm2, gm5, dl_const, dl_crit):
        f = steep_field(gm2, dl_const, u_amp=-6.0)
        assert evaluate(f, gm2, dl_const).theorem is Theorem.T3_2
        f = steep_field(gm2, dl_crit, u_amp=-6.0)
        assert evaluate(f, gm2, dl_crit).theorem is Theorem.T4_2
        f = steep_field(gm5, dl_const, u_amp=-3.0, n=512, length=5.0, width=0.1)
        assert evaluate(f, gm5, dl_const).theorem is Theorem.T3_1
        f = steep_field(gm5, dl_crit, u_amp=-3.0, n=512, length=5.0, width=0.1)
        assert evaluate(f, gm5, dl_crit).theorem is Theorem.T4_1

    def test_gap_yields_none(self, gm5):
        dl = DampingLaw(1.0, 1.5)
        f = steep_field(gm5, dl, u_amp=-3.0, n=512, length=5.0, width=0.1)
        v = evaluate(f, gm5, dl)
        assert v.theorem is Theorem.NONE and not v.fired

    def test_weak_critical_yields_none(self, gm5):
        dl = DampingLaw(0.3, 1.0)
        f = steep_field(gm5, dl, u_amp=-3.0, n=512, length=5.0, width=0.1)
        v = evaluate(f, gm5, dl)
        assert v.theorem is Theorem.NONE and not v.fired


class TestVerdictSerialization:
    def test_roundtrip(self):
        v = Verdict(fired=True, theorem=Theorem.T3_2, witness_x=1.5,
                    lhs=-7.3, rhs=-2.0, threshold=0.0)
        assert Verdict.from_dict(v.to_dict()) == v

    def test_roundtrip_none_fields(self):
        v = Verdict(fired=False, theorem=Theorem.NONE, witness_x=None,
                    lhs=None, rhs=None, threshold=0.0)
        assert Verdict.from_dict(v.to_dict()) == v
