"""Riccati integrator vs closed-form oracles, blow-up brackets, and
integral upper bounds."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from shockline import (
    BLOWN_UP,
    CoefficientError,
    DomainError,
    HypothesisError,
    NoBoundError,
    OutcomeKind,
    RiccatiProblem,
    ToleranceError,
    blowup_time_upper_bound_case1,
    blowup_time_upper_bound_case2,
    closed_form_oracle,
    integrate,
    oracle_pole_time,
)


def const_problem(c0, c2, y0):
    return RiccatiProblem(coeff_source=lambda t: (c0, c2), y0=y0)


class TestOracle:
    def test_hyperbola_family(self):
        # y' = -y^2, y0 = -1: y = -1/(1-t), pole at t=1
        assert math.isclose(oracle_pole_time(0.0, 1.0, -1.0), 1.0)
        assert math.isclose(closed_form_oracle(0.0, 1.0, -1.0, 0.5), -2.0)
        assert closed_form_oracle(0.0, 1.0, -1.0, 1.5) == BLOWN_UP

    def test_tangent_family(self):
        # y' = -1 - y^2, y0 = 0: y = -tan(t), pole at pi/2
        assert math.isclose(oracle_pole_time(-1.0, 1.0, 0.0), math.pi / 2.0)
        assert math.isclose(closed_form_oracle(-1.0, 1.0, 0.0, 1.0), -math.tan(1.0),
                            rel_tol=1e-14)

    def test_tangent_pole_far_below(self):
        # -y0 >> m: pi/2 - atan(-y0/m) would cancel to 1.4e-7 relative;
        # the pole is atan(m/-y0)/k with m = k = 1e-3
        assert math.isclose(oracle_pole_time(-1e-6, 1.0, -1e6),
                            math.atan(1e-9) / 1e-3, rel_tol=1e-15)

    def test_tanh_family_global(self):
        # c0 = c2 = 1, |y0| < 1: y -> 1, never blows up
        assert oracle_pole_time(1.0, 1.0, 0.5) is None
        assert math.isclose(
            closed_form_oracle(1.0, 1.0, 0.0, 2.0), math.tanh(2.0), rel_tol=1e-14
        )

    def test_coth_branch(self):
        # y0 > m: decays toward the stable root from above
        val = closed_form_oracle(1.0, 1.0, 3.0, 1.0)
        assert 1.0 < val < 3.0

    def test_equilibria(self):
        assert closed_form_oracle(1.0, 1.0, 1.0, 5.0) == 1.0
        assert closed_form_oracle(1.0, 1.0, -1.0, 5.0) == -1.0

    def test_subcritical_pole(self):
        # c0 = c2 = 1, y0 = -2: pole at artanh(1/2)
        assert math.isclose(oracle_pole_time(1.0, 1.0, -2.0), math.atanh(0.5),
                            rel_tol=1e-14)

    def test_requires_positive_c2(self):
        with pytest.raises(CoefficientError):
            oracle_pole_time(1.0, 0.0, 1.0)


class TestIntegrate:
    def test_tol_domain(self):
        prob = const_problem(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            integrate(prob, 1.0, tol=1e-13)
        with pytest.raises(DomainError):
            integrate(prob, 1.0, tol=0.5)
        with pytest.raises(DomainError):  # the pole bracket's pad needs tol <= 1e-9
            integrate(prob, 1.0, tol=1e-8)
        with pytest.raises(DomainError):
            integrate(prob, -1.0)

    def test_global_matches_oracle(self):
        prob = const_problem(1.0, 1.0, 0.0)
        out = integrate(prob, 2.0, tol=1e-9)
        assert out.kind is OutcomeKind.GLOBAL
        assert math.isclose(out.y_end, math.tanh(2.0), rel_tol=1e-8)

    def test_hyperbola_bracket(self):
        prob = const_problem(0.0, 1.0, -1.0)
        out = integrate(prob, 5.0, tol=1e-9)
        assert out.kind is OutcomeKind.BLOWUP
        assert out.t_star_lo <= 1.0 <= out.t_star_hi
        assert out.t_star_hi - out.t_star_lo <= 1e-6 * 1.0

    def test_tangent_bracket(self):
        prob = const_problem(-1.0, 1.0, 0.0)
        out = integrate(prob, 5.0, tol=1e-9)
        assert out.kind is OutcomeKind.BLOWUP
        pole = math.pi / 2.0
        assert out.t_star_lo <= pole <= out.t_star_hi
        assert out.t_star_hi - out.t_star_lo <= 1e-6 * pole

    def test_starts_below_chart_switch(self):
        # y0 = -5 starts in the inverse chart directly
        prob = const_problem(0.0, 1.0, -5.0)
        out = integrate(prob, 5.0, tol=1e-9)
        assert out.kind is OutcomeKind.BLOWUP
        assert out.t_star_lo <= 0.2 <= out.t_star_hi

    def test_time_dependent_coefficients(self):
        # y' = -(1+t)*y^2, y0=-1: 1/y = -(1 + t + t^2/2), no pole for
        # y0=-1? 1/y(t) = 1/y0 + int c2 = -1 + t + t^2/2 -> crosses 0
        prob = RiccatiProblem(coeff_source=lambda t: (0.0, 1.0 + t), y0=-1.0)
        out = integrate(prob, 5.0, tol=1e-9)
        pole = math.sqrt(3.0) - 1.0  # root of t^2/2 + t - 1
        assert out.kind is OutcomeKind.BLOWUP
        assert out.t_star_lo <= pole <= out.t_star_hi

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the bracket's 1e-8*t pad does not cover the error "
        "accumulated in v = 1/y, divided by a small c2; this bracket "
        "[1.1102207438471139, 1.1102207576280405] misses the pole"))
    def test_stiff_bracket_holds_the_pole(self):
        pole = oracle_pole_time(-2000.0, 1e-3, -1.0)  # 1.1102207346229247
        out = integrate(const_problem(-2000.0, 1e-3, -1.0), 2.0, tol=1e-9)
        assert out.kind is OutcomeKind.BLOWUP
        assert out.t_star_lo <= pole <= out.t_star_hi

    def test_rejects_nonpositive_c2(self):
        prob = const_problem(0.0, -1.0, 1.0)
        with pytest.raises(CoefficientError):
            integrate(prob, 1.0)

    @pytest.mark.parametrize("c0,c2,y0,t_end", [
        (1.0, 1.0, 0.5, 5.0),    # stays in the y chart
        (-1.0, 1.0, 0.0, 1.0),   # y = -tan(t) passes -1: switches to v
        (4.0, 1.0, -1.5, 3.0),   # starts in v, switches back to y
    ])
    def test_reads_each_coefficient_time_once(self, c0, c2, y0, t_end):
        # the step's last two stages and the next step's first share a
        # time; the coefficients there are read once and passed on
        seen = []

        def source(t):
            seen.append(t)
            return c0, c2

        out = integrate(RiccatiProblem(source, y0), t_end)
        assert out.kind is OutcomeKind.GLOBAL
        assert len(seen) > 100 and len(seen) == len(set(seen))

    def test_overflowing_stages_are_silent(self):
        # c2 * y**2 overflows at every stage: each step is rejected until
        # the step size underflows, and numpy must not warn on the way
        prob = const_problem(1.0, 1e300, 1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceError, match="underflow"):
                integrate(prob, 1.0)


class TestUpperBounds:
    def test_case1_exact_for_constant(self):
        # c0=0, c2=1, y0=-2: bound = first t with t >= 1/2, equals pole
        prob = const_problem(0.0, 1.0, -2.0)
        bound = blowup_time_upper_bound_case1(prob)
        assert math.isclose(bound, 0.5, rel_tol=1e-9)
        out = integrate(prob, 2.0)
        assert out.t_star_lo <= bound * (1.0 + 1e-9)

    def test_case1_requires_negative_y0(self):
        with pytest.raises(HypothesisError):
            blowup_time_upper_bound_case1(const_problem(0.0, 1.0, 0.5))

    def test_case1_rejects_positive_c0(self):
        with pytest.raises(HypothesisError):
            blowup_time_upper_bound_case1(const_problem(1.0, 1.0, -2.0))

    def test_case1_no_bound_when_c2_decays(self):
        prob = RiccatiProblem(
            coeff_source=lambda t: (0.0, math.exp(-5.0 * t)), y0=-0.1
        )
        with pytest.raises(NoBoundError):
            blowup_time_upper_bound_case1(prob, t_max=50.0)

    def test_case1_supplied_integral(self):
        prob = const_problem(0.0, 2.0, -1.0)
        # int_0^t c2 = 2t reaches -1/y0 = 1 at t = 0.5, found by quadrature
        bound = blowup_time_upper_bound_case1(prob)
        assert math.isclose(bound, 0.5, rel_tol=1e-9)

    def test_case2_frozen_example(self):
        # c0=c2=1, y0=-2, eps=0.5: deflation 5/9, bound 0.9; the true
        # pole artanh(1/2) = 0.549 clears it
        prob = const_problem(1.0, 1.0, -2.0)
        bound = blowup_time_upper_bound_case2(prob, eps=0.5)
        assert math.isclose(bound, 0.9, rel_tol=1e-9)
        out = integrate(prob, 2.0)
        assert out.kind is OutcomeKind.BLOWUP
        assert out.t_star_hi <= bound

    def test_case2_hypothesis_guard(self):
        # y0=-1.2 does not clear -(1+eps)*sup sqrt(c0/c2) = -1.5
        prob = const_problem(1.0, 1.0, -1.2)
        with pytest.raises(HypothesisError):
            blowup_time_upper_bound_case2(prob, eps=0.5)

    def test_case2_rejects_bad_eps(self):
        with pytest.raises(DomainError):
            blowup_time_upper_bound_case2(const_problem(1.0, 1.0, -2.0), eps=0.0)


class TestRandomizedOracleAgreement:
    def test_constant_coefficient_sweep(self):
        rng = np.random.default_rng(42)
        n_blowup = n_global = 0
        for _ in range(60):
            c0 = rng.uniform(-3.0, 3.0)
            c2 = rng.uniform(0.1, 3.0)
            y0 = rng.uniform(-3.0, 3.0)
            pole = oracle_pole_time(c0, c2, y0)
            prob = const_problem(c0, c2, y0)
            out = integrate(prob, 2.0, tol=1e-9)
            if pole is not None and pole < 2.0:
                assert out.kind is OutcomeKind.BLOWUP
                assert out.t_star_lo <= pole <= out.t_star_hi
                n_blowup += 1
            elif pole is None or pole > 2.0 + 1e-6:
                assert out.kind is OutcomeKind.GLOBAL
                exact = closed_form_oracle(c0, c2, y0, 2.0)
                scale = max(1.0, abs(exact))
                assert abs(out.y_end - exact) / scale <= 1e-7
                n_global += 1
        assert n_blowup > 5 and n_global > 5


def outcome_problems():
    """A fixed-seed problem set for the outcome digest: constant and
    (1+t)**p coefficients, y0 of both signs (below -1 it starts in the
    inverse chart), t_end from 0.01 to 30 and three tolerances, then one
    problem whose step size underflows."""
    rng = np.random.default_rng(20201)
    for i in range(240):
        c0, c2, y0 = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0), rng.uniform(-4.0, 4.0)
        p0, p2 = rng.uniform(-1.5, 1.5, size=2) if i % 2 else (0.0, 0.0)
        t_end = 10.0 ** rng.uniform(-2.0, math.log10(30.0))
        tol = (1e-9, 1e-10, 1e-11)[i % 3]

        def source(t, c0=float(c0), c2=float(c2), p0=float(p0), p2=float(p2)):
            return c0 * (1.0 + t) ** p0, c2 * (1.0 + t) ** p2

        yield RiccatiProblem(source, float(y0)), float(t_end), tol
    yield const_problem(1.0, 1e300, 1e10), 1.0, 1e-9


def outcome_line(prob, t_end, tol):
    try:
        out = integrate(prob, t_end, tol=tol)
    except ToleranceError as e:
        return f"ToleranceError: {e}"
    return f"{out.kind.value} {out.y_end!r} {out.t_star_lo!r} {out.t_star_hi!r}"


# sha256 of the outcome lines of outcome_problems, recorded on x86-64
# Linux with Python 3.11; a change to the stepper that moves any kind,
# end value, bracket or error message moves it
OUTCOME_DIGEST = "9e3e2d113376dc71489907818c2932ad31bdfa652be295a42dfe89f21dbf8c29"


class TestOutcomeDigest:
    def test_outcomes_pinned(self):
        lines = [outcome_line(*p) for p in outcome_problems()]
        kinds = [line.split()[0] for line in lines]
        assert kinds.count("global") > 50 and kinds.count("blowup") > 50
        assert kinds[-1] == "ToleranceError:"
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == OUTCOME_DIGEST
