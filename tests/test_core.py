"""Pointwise algebra: derived constants, transforms, gradient
variables, Riccati coefficients."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shockline import (
    Branch,
    DampingLaw,
    DomainError,
    GasModel,
    PointState,
    RangeError,
    classify_regime,
    phi_of_tau,
    pressure,
    q_variable,
    riccati_coefficients,
    riemann_invariants,
    sound_speed,
    tau_of_phi,
    y_variable,
)
from shockline.core import (
    _require_positive,
    checked_log,
    log_time_factor,
    sound_speed_of_phi,
)

# gammas clear of the excluded value 3 and of the gamma -> 1 blow-up
gammas = st.floats(1.05, 6.0).filter(lambda g: abs(g - 3.0) > 0.05)
ks = st.floats(0.1, 10.0)


class TestDerivedConstants:
    def test_frozen_gamma2(self, gm2):
        assert math.isclose(gm2.theta, 0.5)
        assert math.isclose(gm2.phi_coef, 2.0 * math.sqrt(2.0))
        assert math.isclose(gm2.k_tau, 8.0)
        assert math.isclose(gm2.k_p, 1.0 / 64.0)
        assert math.isclose(gm2.k_c, 1.0 / 16.0)

    def test_frozen_gamma5(self, gm5):
        assert math.isclose(gm5.k_tau, (math.sqrt(5.0) / 2.0) ** 0.5, rel_tol=1e-12)
        assert math.isclose(gm5.k_tau * gm5.k_c, 2.0, rel_tol=1e-12)

    @given(g=gammas, k=ks)
    @settings(max_examples=200, deadline=None)
    def test_identities(self, g, k):
        gm = GasModel(g, k)
        assert math.isclose(gm.k_p, (g - 1.0) / (2.0 * g) * gm.k_c, rel_tol=1e-12)
        assert math.isclose(gm.k_tau * gm.k_c, (g - 1.0) / 2.0, rel_tol=1e-12)

    @pytest.mark.parametrize("g,k", [(1.0, 1.0), (0.5, 1.0), (3.0, 1.0), (2.0, 0.0),
                                     (2.0, -1.0)])
    def test_rejects_bad_parameters(self, g, k):
        with pytest.raises(DomainError):
            GasModel(gamma=g, big_k=k)


class TestTransforms:
    @given(g=gammas, k=ks, tau=st.floats(0.05, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_phi_tau_roundtrip(self, g, k, tau):
        gm = GasModel(g, k)
        assert math.isclose(tau_of_phi(gm, phi_of_tau(gm, tau)), tau, rel_tol=1e-10)

    @given(g=gammas, k=ks, tau=st.floats(0.05, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_sound_speed_routes_agree(self, g, k, tau):
        gm = GasModel(g, k)
        c_tau = sound_speed(gm, tau)
        c_phi = sound_speed_of_phi(gm, phi_of_tau(gm, tau))
        assert math.isclose(c_tau, c_phi, rel_tol=1e-10)

    def test_pressure_and_speed_values(self, gm2):
        assert math.isclose(pressure(gm2, 1.0), 1.0)
        assert math.isclose(sound_speed(gm2, 1.0), math.sqrt(2.0))

    def test_riemann_invariants(self, gm2):
        w, z = riemann_invariants(gm2, PointState(tau=1.0, u=0.5))
        phi = 2.0 * math.sqrt(2.0)
        assert math.isclose(w, 0.5 + phi)
        assert math.isclose(z, 0.5 - phi)

    def test_domain_rejection(self, gm2):
        with pytest.raises(DomainError):
            phi_of_tau(gm2, 0.0)
        with pytest.raises(DomainError):
            tau_of_phi(gm2, -1.0)
        with pytest.raises(DomainError):
            sound_speed(gm2, np.array([1.0, -1.0]))


class TestGradientVariables:
    def test_frozen_y_value(self, gm2, dl_const):
        # gamma=2, K=1, alpha=1, lambda=0, tau=1 (phi=2*sqrt(2)), A=0, t=0:
        # y = 16*phi**(-1/2) * exp(-5/2)
        phi = 2.0 * math.sqrt(2.0)
        expected = 16.0 / math.sqrt(phi) * math.exp(-2.5)
        assert math.isclose(y_variable(gm2, dl_const, phi, 0.0, 0.0), expected,
                            rel_tol=1e-13)
        assert math.isclose(expected, 0.7809285151882325, rel_tol=1e-12)

    def test_q_mirrors_y(self, gm2, dl_const):
        phi = 1.7
        assert math.isclose(
            y_variable(gm2, dl_const, phi, 0.3, 0.2),
            q_variable(gm2, dl_const, phi, 0.3, 0.2),
            rel_tol=1e-14,
        )

    def test_critical_time_factor_is_power_law(self, gm2):
        dl = DampingLaw(alpha=1.0, lam=1.0)
        assert dl.branch is Branch.CRITICAL
        t = 3.0
        # exponent alpha(3g-1)/(2(g-3)) = -5/2 for gamma=2, alpha=1
        assert math.isclose(
            log_time_factor(gm2, dl, t), -2.5 * math.log1p(t), rel_tol=1e-14
        )

    def test_branch_continuity_near_critical(self, gm2):
        # generic factor converges to the critical one as lam -> 1 in
        # the time-dependent part (constant offsets aside)
        t = 0.5
        dl_c = DampingLaw(1.0, 1.0)
        dl_g = DampingLaw(1.0, 1.0 - 1e-9)
        diff_g = log_time_factor(gm2, dl_g, t) - log_time_factor(gm2, dl_g, 0.0)
        diff_c = log_time_factor(gm2, dl_c, t) - log_time_factor(gm2, dl_c, 0.0)
        assert math.isclose(diff_g, diff_c, rel_tol=1e-6)

    def test_overflow_guard(self, gm2):
        dl = DampingLaw(alpha=600.0, lam=0.0)
        with pytest.raises(RangeError):
            y_variable(gm2, dl, 1.0, 0.0, 0.0)

    def test_array_broadcasting(self, gm2, dl_const):
        phi = np.array([1.0, 2.0, 3.0])
        grad = np.array([0.1, -0.1, 0.0])
        out = y_variable(gm2, dl_const, phi, grad, 0.0)
        assert out.shape == (3,)
        for i in range(3):
            assert math.isclose(
                out[i], y_variable(gm2, dl_const, phi[i], grad[i], 0.0)
            )


class TestRiccatiCoefficients:
    def test_frozen_values(self, gm2, dl_const):
        phi = 2.0 * math.sqrt(2.0)
        c0, c2 = riccati_coefficients(gm2, dl_const, phi, 0.0)
        # independent arithmetic: mu = e^{-5/2},
        # c0 = -1/k_c * phi**(-1/2) * mu, c2 = k_c*1.5*phi**(1/2)/mu
        mu = math.exp(-2.5)
        assert math.isclose(c0, -16.0 / math.sqrt(phi) * mu, rel_tol=1e-13)
        assert math.isclose(c2, 0.0625 * 1.5 * math.sqrt(phi) / mu, rel_tol=1e-13)
        assert math.isclose(c0, -0.7809285151882325, rel_tol=1e-12)
        assert math.isclose(c2, 1.9207904063260453, rel_tol=1e-12)

    @given(
        g=gammas,
        a=st.floats(0.0, 5.0),
        lam=st.floats(-2.0, 3.0),
        phi=st.floats(0.1, 10.0),
        t=st.floats(0.0, 5.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_sign_law(self, g, a, lam, phi, t):
        gm = GasModel(g, 1.0)
        dl = DampingLaw(alpha=a, lam=lam)
        try:
            c0, c2 = riccati_coefficients(gm, dl, phi, t)
        except RangeError:
            return
        assert c2 > 0.0
        lhs = lam * (g - 3.0) * (1.0 + t) ** (lam - 1.0)
        rhs = a * (g - 1.0)
        if lhs < rhs - 1e-9 * max(1.0, abs(rhs)):
            assert c0 <= 1e-12
        elif lhs > rhs + 1e-9 * max(1.0, abs(rhs)):
            assert c0 >= -1e-12

    @pytest.mark.parametrize("g, a, lam, phi, t", [
        (4.0, 3.734375, -2.314453125, 1.0, 3.1623),  # log time factor 699.71
        (1.5, 0.5, 0.0, 1e-300, 0.0),  # phi**p_lo leaves Python float range
        (2.0, 0.0, -200.0, 1.0, 40.0),  # the time factor's power overflows
        (2.0, 0.0, -60.0, 1.0, 1000.0),  # (1+t)**(2 lam) underflows to 0
    ])
    def test_overflow_raises_range_error(self, g, a, lam, phi, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError):
                riccati_coefficients(GasModel(g, 1.0), DampingLaw(a, lam), phi, t)

    def test_alpha_zero_kills_c0(self, gm2):
        dl = DampingLaw(alpha=0.0, lam=0.0)
        c0, c2 = riccati_coefficients(gm2, dl, 1.3, 0.7)
        assert c0 == 0.0
        assert c2 > 0.0


@st.composite
def ceiling_cases(draw):
    """(gamma, alpha, lambda), lambda drawn freely, at 1, or at
    alpha(g-1)/(g-3) or one of its two neighbouring doubles."""
    g, a = draw(gammas), draw(st.floats(0.0, 5.0))
    ratio = a * (g - 1.0) / (g - 3.0)
    boundary = [math.nextafter(ratio, -math.inf), ratio,
                math.nextafter(ratio, math.inf)]
    return g, a, draw(st.one_of(st.floats(-3.0, 4.0), st.just(1.0),
                                st.sampled_from(boundary)))


class TestCeilingHypothesis:
    """The regime map's ceiling hypothesis is the theory's, c0 <= 0 at
    every t >= 0, read off riccati_coefficients on a log-spaced t grid."""

    T_GRID = [0.0, *np.logspace(-3.0, 12.0, 31).tolist()]

    @staticmethod
    def c0_signs(gm, dl, ts):
        """{t: sign of c0 at phi = 1} where c0 is in double range; 0 where
        the two terms of its numerator cancel to within their roundoff
        (1e-12 of their size, and the smallest normal double, below which
        a difference has no reliable sign)."""
        g, a, lam = gm.gamma, dl.alpha, dl.lam
        signs = {}
        for t in ts:
            try:
                c0, _ = riccati_coefficients(gm, dl, 1.0, t)
                terms = a * (g - 1.0) * (
                    abs(lam * (g - 3.0)) * (1.0 + t) ** (lam - 1.0) + a * (g - 1.0))
                den = gm.k_c * (g - 3.0) ** 2 * (1.0 + t) ** (2.0 * lam)
                margin = ((1e-12 * terms + sys.float_info.min) / den
                          * math.exp(log_time_factor(gm, dl, t)))
            except RangeError:
                continue
            signs[t] = 0 if abs(c0) <= margin else (1 if c0 > 0.0 else -1)
        return signs

    @given(case=ceiling_cases())
    @example(case=(1.4958575692561122, 0.47263534777696115, -0.1558095895062919))
    @example(case=(1.4958575692561122, 0.47263534777696115,
                   math.nextafter(-0.1558095895062919, -math.inf)))
    @example(case=(5.0, 0.25, 0.5))  # gamma > 3 at lambda = ratio < 1
    @example(case=(5.0, 1.0, 2.0))   # gamma > 3 at lambda = ratio > 1
    @example(case=(5.0, 0.5, 1.0))   # critical at ratio = 1
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_sign_of_c0(self, case):
        g, a, lam = case
        gm, dl = GasModel(g, 1.0), DampingLaw(a, lam)
        regime = classify_regime(gm, dl)
        assert regime.has_ceiling or not regime.has_density_floor
        ts = list(self.T_GRID)
        witness = 0.0  # where c0 > 0 shows, for no ceiling
        ratio = a * (g - 1.0) / (g - 3.0)
        if 1.0 < lam < ratio:
            # gamma > 3: c0 is negative at t = 0 and turns positive at
            # (ratio/lam)**(1/(lam-1)) - 1, perhaps far past the grid
            try:
                witness = 2.0 * (ratio / lam) ** (1.0 / (lam - 1.0))
            except OverflowError:
                return
            ts.append(witness)
        signs = self.c0_signs(gm, dl, ts)
        if regime.has_ceiling:
            assert max(signs.values(), default=-1) <= 0, signs
        elif witness in signs:
            assert max(signs.values()) >= 0, signs


class TestGuards:
    """The scalar guards keep one meaning on floats, 0-d arrays and
    arrays: NaN is neither nonpositive, negative nor over the cap."""

    shapes = [lambda v: v, np.float64, np.array, lambda v: np.array([v, 1.0])]

    @pytest.mark.parametrize("shape", shapes)
    def test_require_positive(self, shape):
        _require_positive("x", shape(2.0))
        _require_positive("x", shape(math.nan))
        for bad in (0.0, -1.0, -math.inf):
            with pytest.raises(DomainError):
                _require_positive("x", shape(bad))

    def test_require_positive_nan_mixed(self):
        with pytest.raises(DomainError):
            _require_positive("x", np.array([math.nan, -1.0]))
        _require_positive("x", np.array([math.nan]))

    @pytest.mark.parametrize("shape", shapes)
    def test_require_positive_edges(self, shape):
        _require_positive("x", shape(math.inf))
        _require_positive("x", shape(5e-324))
        with pytest.raises(DomainError):
            _require_positive("x", shape(-0.0))

    @pytest.mark.parametrize("shape", shapes)
    def test_log_time_factor_rejects_negative_t(self, gm2, dl_const, dl_crit, shape):
        for dl in (dl_const, dl_crit):
            log_time_factor(gm2, dl, shape(0.0))
            log_time_factor(gm2, dl, shape(-0.0))
            with pytest.raises(DomainError):
                log_time_factor(gm2, dl, shape(-1e-300))
            with pytest.raises(DomainError):
                log_time_factor(gm2, dl, shape(-math.inf))

    @pytest.mark.parametrize("shape", shapes)
    def test_log_time_factor_passes_nan(self, gm2, dl_const, dl_crit, shape):
        for dl in (dl_const, dl_crit):
            assert np.isnan(np.ravel(log_time_factor(gm2, dl, shape(math.nan)))[0])

    @pytest.mark.parametrize("shape", shapes)
    def test_checked_log(self, shape):
        for ok in (0.0, 700.0, -700.0, math.nan):
            v = shape(ok)
            assert checked_log(v) is v
        for bad in (700.5, -701.0, math.inf):
            with pytest.raises(RangeError):
                checked_log(shape(bad))
        # a NaN entry must not hide an over-cap entry next to it
        with pytest.raises(RangeError, match="800"):
            checked_log(np.array([math.nan, 800.0]))
