"""A-priori bounds: invariant region, ceilings, density floor,
blow-up thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockline import (
    DampingLaw,
    DomainError,
    GasModel,
    Grid,
    RangeError,
    RegimeError,
    certified_initial_bound,
    density_floor,
    density_floor_constant,
    density_floor_onset,
    invariant_region_bound,
    make_density_floor,
    riccati_ceilings,
    threshold_N,
    threshold_N1,
)
from shockline.bounds import (
    DensityFloor,
    _onset_lhs,
    initial_phi_term_sup,
    k1_constant,
    k2_closed_form,
    k2_integral,
    k3_constant,
)
from shockline.fields import init_field


class TestInvariantRegion:
    def test_frozen_example(self, gm2):
        # c0=1, theta=1/2: base = 2, tilde = max(2, 4) = 4
        ib = invariant_region_bound(gm2, 1.0)
        assert math.isclose(ib.c0_tilde, 4.0)

    @given(g=st.floats(1.1, 6.0).filter(lambda g: abs(g - 3.0) > 0.05),
           c0=st.floats(0.05, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_dominates_c0(self, g, c0):
        gm = GasModel(gamma=g, big_k=1.0)
        ib = invariant_region_bound(gm, c0)
        assert ib.c0_tilde >= c0

    def test_rejects_nonpositive(self, gm2):
        with pytest.raises(DomainError):
            invariant_region_bound(gm2, 0.0)

    def test_out_of_range_raises(self, gm2, gm5):
        # c0**2 overflows for gamma 5; base**2 overflows for gamma 2
        for gm in (gm5, gm2):
            with pytest.raises(RangeError):
                invariant_region_bound(gm, 1e200)

    def test_certified_bound_covers_field(self, sine_field):
        ib = certified_initial_bound(sine_field)
        assert np.max(np.abs(sine_field.u)) <= ib.c0
        assert np.max(1.0 / sine_field.tau) <= ib.c0


class TestCeilings:
    def test_floored_at_one(self, gm2, dl_const, grid128):
        f = init_field({"preset": "constant", "tau": 1.0, "u": 0.0},
                       grid128, gm2, dl_const)
        ceil = riccati_ceilings(f)
        # constant tau=1 data has y(x,0) = 0.78... < 1 everywhere
        assert ceil.y_cap == 1.0
        assert ceil.q_cap == 1.0

    def test_requires_initial_time(self, sine_field):
        later = sine_field.with_state(sine_field.tau, sine_field.u, t=0.5)
        with pytest.raises(DomainError):
            riccati_ceilings(later)


class TestDensityFloor:
    def test_frozen_constant(self):
        # gamma=2, K=1, Y=Q=1, bracket = phi_coef**(1/2)*2*(1/2)*k_c
        gm = GasModel(2.0, 1.0)
        dl = DampingLaw(0.0, 0.0)
        from shockline.bounds import RiccatiCeilings

        ceilings = RiccatiCeilings(1.0, 1.0)
        bracket = math.sqrt(2.0 * math.sqrt(2.0)) * 2.0 * 0.5 * (1.0 / 16.0)
        assert math.isclose(bracket, 0.105112, rel_tol=1e-4)
        k0 = density_floor_constant(gm, dl, ceilings)
        assert math.isclose(k0, bracket ** (-4.0), rel_tol=1e-12)

    def test_rejects_gamma_above_3(self, gm5, dl_const):
        from shockline.bounds import RiccatiCeilings

        with pytest.raises(DomainError):
            density_floor_constant(gm5, dl_const, RiccatiCeilings(1.0, 1.0))

    def test_validity_window(self, gm2, dl_const):
        from shockline.bounds import RiccatiCeilings

        ceilings = RiccatiCeilings(1.0, 1.0)
        floor = DensityFloor(density_floor_constant(gm2, dl_const, ceilings), 1.0)
        with pytest.raises(RangeError):
            density_floor(gm2, dl_const, floor, t=0.5)
        val = density_floor(gm2, dl_const, floor, t=2.0)
        assert val > 0.0

    def test_evaluates_the_floor_it_is_given(self, gm2, dl_const, monkeypatch):
        # K0 and t_min come from the DensityFloor alone: neither K0 nor
        # the regime is worked out again per call
        from shockline import bounds, core

        def forbidden(*args):
            raise AssertionError("recomputed per call")

        val = density_floor(gm2, dl_const, DensityFloor(1.0, 0.0), 2.0)
        monkeypatch.setattr(bounds, "density_floor_constant", forbidden)
        monkeypatch.setattr(core, "classify_regime", forbidden)
        assert density_floor(gm2, dl_const, DensityFloor(3.0, 0.0), 2.0) == 3.0 * val

    def test_subnormal_floor_leaves_double_range(self, gm2, dl_const):
        # a floor below the smallest normal double is reported, not
        # audited as a vanishing bound
        one = density_floor(gm2, dl_const, DensityFloor(1.0, 0.0), 2.0)
        assert density_floor(gm2, dl_const, DensityFloor(1e-300 / one, 0.0), 2.0) > 0.0
        for k0 in (1e-310 / one, 1e-320 / one, 5e-324):
            with pytest.raises(RangeError, match="smallest normal double"):
                density_floor(gm2, dl_const, DensityFloor(k0, 0.0), 2.0)

    def test_branches_agree_at_lambda_limits(self, gm2):
        # generic formula at lam slightly below 1 approaches the
        # critical formula in the time-dependent part
        from shockline.bounds import RiccatiCeilings

        ceilings = RiccatiCeilings(1.0, 1.0)
        dl_crit = DampingLaw(1.0, 1.0)
        k0_crit = density_floor_constant(gm2, dl_crit, ceilings)
        f_crit = density_floor(gm2, dl_crit, DensityFloor(k0_crit, 0.0), 2.0)
        dl_near = DampingLaw(1.0, 1.0 - 1e-9)
        g, a, t = 2.0, 1.0, 2.0
        # strip the constant e^{-2a(3g-1)/(3-g)^2 / (1-lam)} offset that
        # the generic branch carries
        offset = math.exp(
            -2.0 * a * (3.0 * g - 1.0) / ((3.0 - g) ** 2 * (1e-9))
            * ((1.0 + t) ** 1e-9 - 1.0)
        )
        k0 = density_floor_constant(gm2, dl_near, ceilings)
        f_generic_normalized = k0 * t ** (-4.0) * offset
        assert math.isclose(f_crit, f_generic_normalized, rel_tol=1e-5)

    def test_onset_crossing(self, gm2, dl_const, sine_field):
        ceilings = riccati_ceilings(sine_field)
        phi0_sup = initial_phi_term_sup(sine_field)
        t_min = density_floor_onset(gm2, dl_const, ceilings, phi0_sup)
        assert _onset_lhs(gm2, dl_const, ceilings, t_min) >= phi0_sup
        assert _onset_lhs(gm2, dl_const, ceilings, t_min - 1e-6) < phi0_sup

    def test_onset_beyond_1e9_spacing_terminates(self):
        # gamma near 1 makes k_c about 1e-20, so the onset is about 2.4e10,
        # where adjacent doubles lie 3.8e-6 apart: an absolute 1e-9
        # bracket is never reached there
        gm = GasModel(gamma=1.1288769550073998, big_k=1.0)
        dl = DampingLaw(0.0, 0.999999)
        f = init_field({"preset": "sine", "tau0": 1.0, "u_amp": 0.0},
                       Grid(n=32, length=5.0), gm, dl)
        ceilings = riccati_ceilings(f)
        phi0_sup = initial_phi_term_sup(f)
        t_min = density_floor_onset(gm, dl, ceilings, phi0_sup)
        assert t_min > 1e10
        assert _onset_lhs(gm, dl, ceilings, t_min) >= phi0_sup
        assert _onset_lhs(gm, dl, ceilings, t_min - math.ulp(t_min)) < phi0_sup

    def test_make_density_floor_bundles(self, gm2, dl_const, sine_field):
        ceilings = riccati_ceilings(sine_field)
        df = make_density_floor(
            gm2, dl_const, ceilings, initial_phi_term_sup(sine_field)
        )
        assert df.k0 > 0.0 and df.t_min > 0.0


class TestThresholds:
    def test_k2_routes_agree_at_lambda_zero(self, gm5):
        dl = DampingLaw(1.0, 0.0)
        assert math.isclose(
            k2_closed_form(gm5, dl), k2_integral(gm5, dl), rel_tol=1e-8
        )

    def test_k2_closed_form_value(self, gm5):
        # gamma=5, alpha=1, lam=0: (2*2/14) * exp(-14/4)
        dl = DampingLaw(1.0, 0.0)
        assert math.isclose(
            k2_closed_form(gm5, dl), (2.0 / 7.0) * math.exp(-3.5), rel_tol=1e-12
        )

    def test_threshold_N_low_branch(self, gm5):
        dl = DampingLaw(1.0, 0.0)
        ib = invariant_region_bound(gm5, 1.0)
        n = threshold_N(gm5, dl, ib)
        assert math.isclose(
            n, 1.0 / (k1_constant(gm5, ib) * k2_closed_form(gm5, dl)), rel_tol=1e-12
        )

    def test_threshold_N_negative_lambda_uses_quadrature(self, gm5):
        dl = DampingLaw(1.0, -1.0)
        ib = invariant_region_bound(gm5, 1.0)
        n = threshold_N(gm5, dl, ib)
        assert math.isclose(
            n, 1.0 / (k1_constant(gm5, ib) * k2_integral(gm5, dl)), rel_tol=1e-10
        )

    def test_threshold_N_high_branch(self, gm5):
        # ratio = alpha(g-1)/(g-3) = 2 for alpha=1; lam=2.5 is above
        dl = DampingLaw(1.0, 2.5)
        ib = invariant_region_bound(gm5, 1.0)
        n = threshold_N(gm5, dl, ib)
        expected = math.sqrt(
            k3_constant(gm5, dl) * ib.c0_tilde * 2.5 * 2.0
        )
        assert math.isclose(n, expected, rel_tol=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0])
    def test_threshold_N_gap_and_boundary(self, gm5, lam):
        ib = invariant_region_bound(gm5, 1.0)
        with pytest.raises(RegimeError):
            threshold_N(gm5, DampingLaw(1.0, lam), ib)

    def test_threshold_N_alpha_zero(self, gm5):
        ib = invariant_region_bound(gm5, 1.0)
        assert threshold_N(gm5, DampingLaw(0.0, -0.5), ib) == 0.0

    def test_threshold_N_rejects_sub_gamma(self, gm2):
        ib = invariant_region_bound(gm2, 1.0)
        with pytest.raises(RegimeError):
            threshold_N(gm2, DampingLaw(1.0, 0.0), ib)

    def test_threshold_N1_value(self, gm5, dl_crit):
        # K5 = 2(g-3)/(a(3g-1)-2(g-3)) = 4/10 = 0.4 for gamma=5, alpha=1
        ib = invariant_region_bound(gm5, 1.0)
        n1 = threshold_N1(gm5, dl_crit, ib)
        assert math.isclose(n1, 1.0 / (k1_constant(gm5, ib) * 0.4), rel_tol=1e-12)

    def test_threshold_N1_regime_checks(self, gm5, gm2):
        ib = invariant_region_bound(gm5, 1.0)
        with pytest.raises(RegimeError):
            threshold_N1(gm5, DampingLaw(1.0, 0.5), ib)
        with pytest.raises(RegimeError):
            threshold_N1(gm5, DampingLaw(0.3, 1.0), ib)  # below (g-3)/(g-1)=0.5
        with pytest.raises(RegimeError):
            threshold_N1(gm2, DampingLaw(1.0, 1.0), invariant_region_bound(gm2, 1.0))
