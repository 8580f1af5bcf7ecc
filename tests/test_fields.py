"""Grids, stencils, presets, and derived field views."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shockline import DomainError, Grid
from shockline.core import phi_of_tau, q_variable, y_variable
from shockline.fields import (
    FieldState,
    ddx2,
    ddx4,
    diff4,
    init_field,
    profile_arrays,
    profile_derivatives,
)


class TestGrid:
    def test_basic(self):
        g = Grid(n=32, length=8.0)
        assert math.isclose(g.dx, 0.25)
        assert g.xs.shape == (32,)
        assert math.isclose(g.xs[1] - g.xs[0], g.dx)

    def test_wrap(self):
        g = Grid(n=32, length=8.0)
        assert math.isclose(g.wrap(9.5), 1.5)
        assert math.isclose(g.wrap(-0.5), 7.5)

    @pytest.mark.parametrize("start,length,x", [
        (0.0, 10.0, -1e-17), (0.0, 10.0, -4.013384886133855e-74), (0.0, 10.0, 10.0),
    ])
    def test_wrap_onto_period_end_is_x0(self, start, length, x):
        # x rounds onto the period's end: its start, as wrap(length)
        assert Grid(n=16, length=length).wrap(x) == start

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_wrap_non_finite_is_nan(self, x):
        assert math.isnan(Grid(n=16, length=10.0).wrap(x))

    @given(x=st.floats(-1e6, 1e6), length=st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_wrap_in_period(self, x, length):
        g = Grid(n=16, length=length)
        assert 0.0 <= g.wrap(x) < length
        # wrap(x) is the remainder itself, so wrap is idempotent
        assert g.wrap(g.wrap(x)) == g.wrap(x)

    @pytest.mark.parametrize("n,L", [(8, 1.0), (16, 0.0), (16, -1.0)])
    def test_validation(self, n, L):
        with pytest.raises(DomainError):
            Grid(n=n, length=L)

    @pytest.mark.parametrize("n,L", [(128, 5e-324), (16, 3e-307)])
    def test_step_must_be_normal(self, n, L):
        # L / n rounds to 0 or to a subnormal
        with pytest.raises(DomainError, match="normal double"):
            Grid(n=n, length=L)
        assert Grid(n=16, length=16 * sys.float_info.min).dx == sys.float_info.min


class TestStencils:
    def test_ddx4_order(self):
        errs = []
        for n in (64, 128):
            g = Grid(n=n, length=2.0 * math.pi)
            f = np.sin(g.xs)
            errs.append(np.max(np.abs(ddx4(f, g.dx) - np.cos(g.xs))))
        assert errs[0] / errs[1] > 12.0  # fourth order: ratio ~16

    def test_ddx2_order(self):
        errs = []
        for n in (64, 128):
            g = Grid(n=n, length=2.0 * math.pi)
            f = np.sin(g.xs)
            errs.append(np.max(np.abs(ddx2(f, g.dx) - np.cos(g.xs))))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_diff4_symbol(self):
        g = Grid(n=32, length=1.0)
        assert np.max(np.abs(diff4(np.ones(32)))) == 0.0
        # on the Fourier mode e^{ikx} the undivided fourth difference
        # acts as (2 sin(k dx / 2))**4
        k = 2.0 * math.pi / g.length
        f = np.sin(k * g.xs)
        sym = (2.0 * math.sin(0.5 * k * g.dx)) ** 4
        assert np.allclose(diff4(f), sym * f, atol=1e-12)


# np.roll forms of the stencils: the reference the ghost-padded ones must
# match bit for bit
def roll_ddx4(f, dx):
    return (
        -np.roll(f, -2) + 8.0 * np.roll(f, -1) - 8.0 * np.roll(f, 1) + np.roll(f, 2)
    ) / (12.0 * dx)


def roll_ddx2(f, dx):
    return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * dx)


def roll_diff4(f):
    return (
        np.roll(f, 2) - 4.0 * np.roll(f, 1) + 6.0 * f
        - 4.0 * np.roll(f, -1) + np.roll(f, -2)
    )


class TestStencilOracle:
    @given(
        f=st.integers(16, 300).flatmap(lambda n: arrays(
            np.float64, n, elements=st.floats(-1e6, 1e6, allow_nan=False)
        )),
        dx=st.floats(1e-4, 10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_padded_stencils_match_roll(self, f, dx):
        assert np.array_equal(ddx4(f, dx), roll_ddx4(f, dx))
        assert np.array_equal(ddx2(f, dx), roll_ddx2(f, dx))
        assert np.array_equal(diff4(f), roll_diff4(f))


class TestPresets:
    def test_constant(self, gm2, dl_const):
        g = Grid(n=32, length=4.0)
        tau, u = profile_arrays({"preset": "constant", "tau": 2.0, "u": -1.0}, g)
        assert np.all(tau == 2.0) and np.all(u == -1.0)

    def test_unknown_preset(self):
        g = Grid(n=32, length=4.0)
        with pytest.raises(DomainError):
            profile_arrays({"preset": "square"}, g)

    @pytest.mark.parametrize("spec", [
        {"preset": "gaussian", "u_amp": -2.0, "width": 0.3, "tau_amp": 0.2},
        {"preset": "sine", "u_amp": 0.5, "tau_amp": 0.1, "periods": 2},
    ])
    def test_analytic_derivatives(self, spec):
        g = Grid(n=1024, length=10.0)
        tau, u = profile_arrays(spec, g)
        dtau, du = profile_derivatives(spec, g)
        assert np.max(np.abs(ddx4(tau, g.dx) - dtau)) < 1e-5
        assert np.max(np.abs(ddx4(u, g.dx) - du)) < 1e-5

    def test_gaussian_peak_slope(self):
        # max |u_x| of an amplitude-a bump is a/(width*sqrt(e))
        a, w = 3.0, 0.4
        g = Grid(n=2048, length=10.0)
        _, du = profile_derivatives({"preset": "gaussian", "u_amp": -a, "width": w}, g)
        assert math.isclose(np.max(np.abs(du)), a / (w * math.sqrt(math.e)),
                            rel_tol=1e-5)

    def test_sine_periodicity(self):
        g = Grid(n=64, length=5.0)
        tau, u = profile_arrays({"preset": "sine", "u_amp": 1.0, "periods": 3}, g)
        # one full set of periods across the domain: value repeats at wrap
        assert math.isclose(u[0], 0.0, abs_tol=1e-12)

    def test_vacuum_rejected(self, gm2, dl_const):
        g = Grid(n=32, length=4.0)
        with pytest.raises(DomainError):
            init_field({"preset": "constant", "tau": -1.0}, g, gm2, dl_const)
        with pytest.raises(DomainError):
            init_field(
                {"preset": "sine", "tau0": 0.5, "tau_amp": 1.0}, g, gm2, dl_const
            )


class TestFieldState:
    def test_shape_validation(self, gm2, dl_const):
        g = Grid(n=32, length=4.0)
        with pytest.raises(DomainError):
            FieldState(grid=g, t=0.0, tau=np.ones(31), u=np.zeros(32),
                       gas=gm2, damping=dl_const)

    def test_derived_views_match_core(self, sine_field):
        f = sine_field
        a_grad, b_grad = f.slopes()
        y_direct = y_variable(f.gas, f.damping, f.phi(), a_grad, f.t)
        q_direct = q_variable(f.gas, f.damping, f.phi(), b_grad, f.t)
        assert np.allclose(f.y(), y_direct, rtol=1e-14)
        assert np.allclose(f.q(), q_direct, rtol=1e-14)

    def test_phi_x_chain_rule(self, sine_field):
        f = sine_field
        # phi_x = (A - B)/2 = -c * tau_x by the chain rule; check against
        # direct differentiation of the phi samples (both fourth order)
        direct = ddx4(f.phi(), f.grid.dx)
        a_grad, b_grad = f.slopes()
        assert np.max(np.abs(0.5 * (a_grad - b_grad) - direct)) < 1e-5

    def test_with_state(self, sine_field):
        phi_before = sine_field.phi()  # cached views must not carry over
        f2 = sine_field.with_state(sine_field.tau * 2.0, sine_field.u, t=1.0)
        assert f2.t == 1.0
        assert np.all(f2.tau == sine_field.tau * 2.0)
        assert f2.gas is sine_field.gas
        assert np.array_equal(f2.phi(), phi_of_tau(f2.gas, f2.tau))
        assert not np.array_equal(f2.phi(), phi_before)
