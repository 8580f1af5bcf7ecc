"""Pointwise algebra: derived constants, transforms, gradient
variables, Riccati coefficients."""

import functools
import math
import operator
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shockline import core
from shockline import (
    Branch,
    DampingLaw,
    DomainError,
    GasModel,
    PointState,
    RangeError,
    classify_regime,
    evaluate,
    init_field,
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
    in_double_range,
    in_float_range,
    log_time_factor,
    narrow_bracket,
    riccati_kernel,
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

    @given(g=st.floats(1.0, 20.0, exclude_min=True).filter(lambda g: g != 3.0),
           a=st.floats(0.0, 10.0), lam=st.floats(-5.0, 5.0))
    @example(g=1.0 + 2.0**-52, a=1.0, lam=0.0)
    @example(g=1.0 + 1e-9, a=2.5, lam=1.0)
    @example(g=math.nextafter(3.0, 0.0), a=1.0, lam=1.0)
    @example(g=math.nextafter(3.0, 4.0), a=1.0, lam=-2.0)
    @example(g=2.999, a=0.3, lam=0.5)
    @example(g=3.001, a=7.0, lam=2.0)
    @settings(max_examples=300, deadline=None)
    def test_exponents_and_shift_match_the_written_out_forms(self, g, a, lam):
        """Every exponent of phi that the package writes as a multiple of
        theta, p_hi or p_lo, and the criteria's Kt1 read as y's shift at
        t = 0, have the bits of the same constant written out in gamma.
        big_k = (g-1)**2/(4g) makes phi_coef 1, so that the derived
        constants stay in double range down to gamma = 1 + 2**-52."""
        gm = GasModel(g, (g - 1.0) ** 2 / (4.0 * g))
        assert 2.0 * gm.p_hi == (g + 1.0) / (g - 1.0)
        assert 2.0 * gm.p_lo == (g - 3.0) / (g - 1.0)
        assert -1.0 / gm.theta == -2.0 / (g - 1.0)
        assert -gm.p_hi == -(g + 1.0) / (2.0 * (g - 1.0))
        assert -0.5 * gm.p_lo == (3.0 - g) / (4.0 * (g - 1.0))
        dl = DampingLaw(a, lam)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            kt1 = np.float64(a) * (g - 1.0) / (gm.k_c * (g - 3.0))
            assert core._shift(gm, dl, 0.0).tobytes() == kt1.tobytes()

    @pytest.mark.parametrize("g,k", [(1.0, 1.0), (0.5, 1.0), (3.0, 1.0), (2.0, 0.0),
                                     (2.0, -1.0)])
    def test_rejects_bad_parameters(self, g, k):
        with pytest.raises(DomainError):
            GasModel(gamma=g, big_k=k)

    @pytest.mark.parametrize("make, message", [
        (lambda: DampingLaw(1.0, math.inf), "lambda must be finite, got inf"),
        (lambda: DampingLaw(1.0, math.nan), "lambda must be finite, got nan"),
        (lambda: PointState(tau=0.0, u=0.0), "tau must be positive (no vacuum), got 0.0"),
        (lambda: PointState(tau=1.0, u=0.0, t=-1.0), "t must be nonnegative, got -1.0"),
    ])
    def test_value_types_reject_bad_fields(self, make, message):
        with pytest.raises(DomainError) as exc:
            make()
        assert str(exc.value) == message


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


def after_the_fact(fn):
    """The range check that the kernel's float-only form replaced, kept
    here as it was: fn with numpy's warnings off, RangeError where a
    Python float power or division raises or a result is not finite."""

    @functools.wraps(fn)
    def checked(*args):
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                val = fn(*args)
        except (OverflowError, ZeroDivisionError) as e:
            raise RangeError(f"{fn.__name__} ({type(e).__name__})") from e
        if not all(math.isfinite(v) for v in val):
            raise RangeError(f"{fn.__name__} is not finite")
        return val

    return checked


@after_the_fact
def unfactored_coefficients(gm, dl, phi, t):
    """riccati_coefficients as one expression per coefficient, on numpy
    scalars for the time factor: the reference that the kernel's
    factored form must match bit for bit."""
    _require_positive("phi", phi)
    g, a, lam = gm.gamma, dl.alpha, dl.lam
    p_lo = (g - 3.0) / (2.0 * (g - 1.0))  # written out: the oracle reads no GasModel exponent
    if dl.branch is Branch.CRITICAL:
        log_mu = a * (3.0 * g - 1.0) / (2.0 * (g - 3.0)) * np.log1p(t)
    else:
        log_mu = (a * (3.0 * g - 1.0) / (2.0 * (g - 3.0) * (1.0 - lam))
                  * (1.0 + t) ** (1.0 - lam))
    mu = np.exp(checked_log(log_mu))
    num0 = (
        lam * a * (g - 1.0) * (g - 3.0) * (1.0 + t) ** (lam - 1.0)
        - a * a * (g - 1.0) ** 2
    )
    c0 = (
        num0 / (gm.k_c * (g - 3.0) ** 2 * (1.0 + t) ** (2.0 * lam))
        * phi ** p_lo * mu
    )
    c2 = (
        gm.k_c * (g + 1.0) / (2.0 * (g - 1.0))
        * phi ** (-p_lo) / mu
    )
    return c0, c2


def outcome(fn, *args):
    """The bits of fn's float results, or the type of what it raised,
    with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            val = fn(*args)
        except Exception as e:  # the type is the outcome
            return type(e)
    vals = val if isinstance(val, tuple) else (val,)
    return struct.pack(f"<{len(vals)}d", *(float(v) for v in vals))


def gas_model(g):
    """GasModel(g, 1.0), or the example dropped where its derived
    constants leave double range (gamma near 1)."""
    try:
        return GasModel(g, 1.0)
    except DomainError:
        assume(False)


class TestRiccatiKernel:
    """The float-only Riccati kernel holds the expression it replaces
    bit for bit, and fails where that fails, with the same error."""

    @given(
        g=st.floats(1.01, 20.0).filter(lambda g: g != 3.0),
        a=st.floats(0.0, 10.0),
        lam=st.one_of(st.just(1.0), st.floats(-5.0, 5.0)),
        phi=st.floats(1e-300, 1e300),
        t=st.floats(0.0, 1e6),
    )
    @example(g=4.0, a=3.734375, lam=-2.314453125, phi=1.0, t=3.1623)
    @example(g=1.5, a=0.5, lam=0.0, phi=1e-300, t=0.0)
    @example(g=2.0, a=0.0, lam=-200.0, phi=1.0, t=40.0)
    @example(g=2.0, a=0.0, lam=-60.0, phi=1.0, t=1000.0)
    @example(g=5.0, a=1.0, lam=1.0, phi=1e300, t=1e6)
    @settings(max_examples=500, deadline=None)
    def test_riccati_kernel_matches_unfactored(self, g, a, lam, phi, t):
        gm, dl = gas_model(g), DampingLaw(a, lam)
        kernel = riccati_kernel(gm, dl)
        old = outcome(unfactored_coefficients, gm, dl, phi, t)
        assert outcome(kernel, phi, t) == old
        assert outcome(riccati_coefficients, gm, dl, phi, t) == old
        assert old is RangeError or isinstance(old, bytes)

    def test_riccati_kernel_constant_out_of_range(self):
        # (g - 1)**2 raises OverflowError: every call is refused
        gm, dl = GasModel(1e200, 1.0), DampingLaw(1.0, 0.5)
        kernel = riccati_kernel(gm, dl)
        assert outcome(unfactored_coefficients, gm, dl, 1.0, 1.0) is RangeError
        assert outcome(kernel, 1.0, 1.0) is RangeError

    def test_riccati_kernel_domain(self, gm2, dl_const):
        kernel = riccati_kernel(gm2, dl_const)
        with pytest.raises(DomainError, match="phi"):
            kernel(0.0, 1.0)
        with pytest.raises(DomainError, match="t must"):
            kernel(1.0, -1e-300)
        with pytest.raises(RangeError):
            kernel(math.nan, 1.0)


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

    # _any reduces an array to its least or greatest entry; the test
    # below holds it to the elementwise form it replaced
    any_cases = [
        [math.nan], [math.nan, math.nan], [math.nan, -1.0], [1.0, math.nan, 0.0],
        [], [0.0], [-0.0], [-0.0, 5.0], [math.inf], [-math.inf], [5e-324],
        [[1.0, 2.0], [0.0, math.nan]], [[800.0, 1.0]], np.empty((0, 3)),
        np.array([3, 0, 7]), np.array([-2, 900]), np.array([], dtype=int),
        np.array([True, False]), np.array(-1.0), np.array(701),
        [700.0, -700.0], [-800.0], [1e308, -1e308],
    ]

    @pytest.mark.parametrize("x", any_cases, ids=repr)
    @pytest.mark.parametrize("op,bound", [
        (operator.le, 0.0), (operator.lt, 0.0), (operator.gt, 0.0),
        (operator.gt, 700.0), (operator.le, -1.0),
    ], ids=["le0", "lt0", "gt0", "gt700", "le-1"])
    def test_any_matches_elementwise(self, op, bound, x):
        assert core._any(op, x, bound) == op(np.asarray(x), bound).any()
        if np.ndim(x) == 0:  # the float fast path
            assert core._any(op, float(x), bound) == op(float(x), bound)

    @pytest.mark.parametrize("shape", shapes)
    def test_phi_rounding_to_0_is_range_error(self, gm5, shape):
        # a positive tau whose tau**(-2) underflows: out of range, not a
        # nonpositive phi refused later as a domain error
        with pytest.raises(RangeError, match="phi rounds to 0"):
            phi_of_tau(gm5, shape(1e300))

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

    @pytest.mark.filterwarnings("error")
    def test_in_double_range(self):
        # finite results pass as they are; a numpy overflow beneath the
        # trap, in the trapped function or in a package function it
        # calls, and a Python float power that raises, are one
        # RangeError each, caused by what trapped, with no warning
        @in_double_range
        def scale(x, by):
            return x * by

        @in_double_range
        def scaled_pressure(tau, by):
            return by * pressure(GasModel(5.0, 1.0), tau)

        @in_double_range
        def power(x, p):
            return x**p

        arr = np.array([1.0, 1e10])
        assert scale(arr, 1e200) == pytest.approx(arr * 1e200)
        assert power(10.0, 300.0) == 1e300
        with pytest.raises(RangeError) as exc:
            scale(arr, 1e300)
        assert str(exc.value) == ("scale leaves double-precision range "
                                  "(FloatingPointError: overflow encountered in multiply)")
        assert isinstance(exc.value.__cause__, FloatingPointError)
        with pytest.raises(RangeError, match=r"^scaled_pressure > pressure leaves .*"
                                             r"overflow encountered in power\)$") as exc:
            scaled_pressure(np.array([1.0, 1e-70]), 1.0)
        assert isinstance(exc.value.__cause__, FloatingPointError)
        with pytest.raises(RangeError, match="invalid value"):
            scale(np.array([0.0]), math.inf)  # 0 * inf is nan
        with pytest.raises(RangeError, match=r"^power leaves .*\(OverflowError\)$") as exc:
            power(10.0, 400.0)
        assert isinstance(exc.value.__cause__, OverflowError)

    @pytest.mark.filterwarnings("error")
    def test_in_double_range_path_skips_wrappers(self, gm2, dl_const, grid128):
        # the path runs from the trapped function down, past the
        # per-state cache of a FieldState view
        field = init_field({"preset": "sine", "tau0": 1.0, "u_amp": 1e308},
                           grid128, gm2, dl_const)

        @in_double_range
        def steepest(f):
            return np.abs(f.u_x()).max()

        with pytest.raises(RangeError, match=r"^steepest > u_x > ddx4 leaves "):
            steepest(field)
        with pytest.raises(RangeError, match=r"^evaluate > _scan > slopes > u_x > ddx4 "):
            evaluate(field, gm2, dl_const)

    @pytest.mark.filterwarnings("error")
    def test_in_float_range(self):
        # a Python float formula checks its own result, since no trap
        # sees a float * overflow to inf or a NaN argument
        @in_float_range
        def ratio(x, y):
            return x / y, x * y

        assert ratio(1.0, 2.0) == (0.5, 2.0)
        with pytest.raises(RangeError, match="ZeroDivisionError") as exc:
            ratio(1.0, 0.0)
        assert isinstance(exc.value.__cause__, ZeroDivisionError)
        with pytest.raises(RangeError, match="ratio leaves"):
            ratio(1e300, 1e300)
        with pytest.raises(RangeError, match="ratio leaves"):
            ratio(math.nan, 1.0)
        # under a trap, a numpy scalar in the formula is its own error
        trapped_ratio = in_double_range(ratio)
        with pytest.raises(RangeError, match=r"^ratio leaves .*FloatingPointError: overflow"):
            trapped_ratio(np.float64(1e300), 1e-300)

    @pytest.mark.filterwarnings("error")
    def test_in_double_range_overflowing_sum(self):
        # finite entries whose sum overflows pass, with no warning, and
        # so does an input that is already inf: a trap sees operations,
        # not values (run's _extremes, the trace's _SnapshotSplines,
        # read_snapshots and cli._require_finite refuse such inputs)
        @in_double_range
        def same(x):
            return x

        big = np.full(4, 1e308)
        assert same(big) is big
        given = np.append(big, math.inf)
        assert same(given) is given


class TestNarrowBracket:
    @staticmethod
    def recording(pred, lo, hi):
        """pred, asserting that every call lies strictly inside the
        bracket that the calls so far have left."""
        bracket = [lo, hi]

        def checked(x):
            assert bracket[0] < x < bracket[1]
            val = pred(x)
            bracket[val] = x  # true moves hi, false moves lo
            return val

        return checked

    def test_stops_at_adjacent_doubles(self):
        # past 2**40 adjacent doubles lie 2**-12 apart, far over atol
        def crossed(t):
            return t > 2.0**40

        lo, hi = narrow_bracket(self.recording(crossed, 0.0, 2.0**41),
                                0.0, 2.0**41, atol=1e-9)
        assert lo < hi == math.nextafter(lo, math.inf)
        assert not crossed(lo) and crossed(hi)

    def test_rtol_stops_at_rtol_times_hi(self):
        pred = self.recording(lambda t: t >= 1000.3, 0.0, 2000.0)
        lo, hi = narrow_bracket(pred, 0.0, 2000.0, atol=0.0, rtol=1e-6)
        assert lo < 1000.3 <= hi
        # stopped at the first halving under rtol * hi, not before or after
        assert hi - lo <= 1e-6 * hi < 2.0 * (hi - lo)

    def test_atol_stops_at_atol(self):
        pred = self.recording(lambda t: t >= 0.3, 0.0, 1.0)
        lo, hi = narrow_bracket(pred, 0.0, 1.0, atol=1e-3)
        assert lo < 0.3 <= hi
        assert hi - lo <= 1e-3 < 2.0 * (hi - lo)
        # a bracket already within atol is returned without a call
        assert narrow_bracket(pytest.fail, 0.0, 1.0, atol=1.0) == (0.0, 1.0)
