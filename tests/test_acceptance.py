"""Acceptance suite: eleven end-to-end criteria at pinned tolerances.

Each test prints a single pass/fail line; run with `pytest -v -s` to
see them.  Tolerances are frozen here and must not be loosened to make
a failing build green.
"""

import math

import numpy as np
import pytest

from shockline import (
    DampingLaw,
    GasModel,
    Grid,
    blowup_time_upper_bound_case1,
    closed_form_oracle,
    evaluate,
    integrate,
    oracle_pole_time,
    riccati_ceilings,
)
from shockline.bounds import density_floor, initial_phi_term_sup, make_density_floor
from shockline.cli import main as cli_main
from shockline.core import classify_regime
from shockline.fields import init_field
from shockline.riccati import OutcomeKind, RiccatiProblem
from shockline.solver import Direction, cross_validate_riccati, run, trace_characteristic


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


def field_for(gamma, lam, spec, n, length, alpha=1.0, big_k=1.0):
    gm = GasModel(gamma, big_k)
    dl = DampingLaw(alpha, lam)
    f = init_field(spec, Grid(n=n, length=length), gm, dl)
    return f, gm, dl


class TestAcceptance:
    def test_01_algebraic_identities(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            g = rng.uniform(1.05, 6.0)
            if abs(g - 3.0) < 0.02:
                continue
            k = rng.uniform(0.1, 10.0)
            gm = GasModel(g, k)
            e1 = abs(gm.k_p - (g - 1.0) / (2.0 * g) * gm.k_c) / gm.k_p
            e2 = abs(gm.k_tau * gm.k_c - (g - 1.0) / 2.0) / ((g - 1.0) / 2.0)
            worst = max(worst, e1, e2)
        report(1, "algebraic identities over 1000 random (gamma, K)",
               worst <= 1e-12, f"worst rel err {worst:.3g}")

    def test_02_riccati_oracle_equivalence(self):
        rng = np.random.default_rng(2)
        tol = 1e-9
        worst = 0.0
        for _ in range(200):
            c0 = rng.uniform(-3.0, 3.0)
            c2 = rng.uniform(0.1, 3.0)
            y0 = rng.uniform(-3.0, 3.0)
            pole = oracle_pole_time(c0, c2, y0)
            prob = RiccatiProblem(coeff_source=lambda t, a=c0, b=c2: (a, b), y0=y0)
            out = integrate(prob, 2.0, tol=tol)
            if pole is not None and pole <= 2.0 - 1e-9:
                assert out.kind is OutcomeKind.BLOWUP
                assert out.t_star_lo <= pole <= out.t_star_hi
                assert out.t_star_hi - out.t_star_lo <= 1e-6 * pole
            elif pole is None or pole > 2.0 + 1e-9:
                assert out.kind is OutcomeKind.GLOBAL
                exact = closed_form_oracle(c0, c2, y0, 2.0)
                worst = max(worst, abs(out.y_end - exact) / max(1.0, abs(exact)))
        # the named blow-up families with tight bracket requirements
        for c0, c2, y0, pole in ((0.0, 1.0, -1.0, 1.0),
                                 (-1.0, 1.0, 0.0, math.pi / 2.0)):
            prob = RiccatiProblem(coeff_source=lambda t, a=c0, b=c2: (a, b), y0=y0)
            out = integrate(prob, 5.0, tol=tol)
            assert out.kind is OutcomeKind.BLOWUP
            assert out.t_star_lo <= pole <= out.t_star_hi
            assert out.t_star_hi - out.t_star_lo <= 1e-6 * pole
        report(2, "oracle equivalence on 200 random problems",
               worst <= 10.0 * tol, f"worst rel err {worst:.3g}")

    def test_03_blowup_bound_soundness(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(100):
            a = rng.uniform(0.0, 2.0)     # c0 = -a * (1+t)^p <= 0
            p = rng.uniform(-1.0, 1.0)
            b = rng.uniform(0.2, 3.0)     # c2 = b * (1+t)^q > 0
            q = rng.uniform(-0.5, 1.0)
            y0 = rng.uniform(-5.0, -0.1)

            def coeffs(t, a=a, p=p, b=b, q=q):
                return (-a * (1.0 + t) ** p, b * (1.0 + t) ** q)

            prob = RiccatiProblem(coeff_source=coeffs, y0=y0)
            bound = blowup_time_upper_bound_case1(prob, t_max=1e4)
            out = integrate(prob, bound * (1.0 + 1e-6) + 1e-9, tol=1e-9)
            assert out.kind is OutcomeKind.BLOWUP, (a, p, b, q, y0)
            assert out.t_star_lo <= bound * (1.0 + 1e-6) + 1e-9
            checked += 1
        report(3, "case-1 blow-up bound sound on random problems",
               checked == 100, f"{checked} instances")

    def test_04_scheme_order(self):
        # (a) undamped advection, self-convergence on n in {128,256,512}
        gm = GasModel(2.0, 1.0)
        dl0 = DampingLaw(0.0, 0.0)
        sols = {}
        for n in (128, 256, 512):
            f = init_field({"preset": "sine", "tau0": 1.0, "u_amp": -0.1},
                           Grid(n=n, length=10.0), gm, dl0)
            sols[n] = run(f, 0.5, monitors_requested=False).outcome
        d1 = float(np.max(np.abs(sols[256].u[::2] - sols[128].u)))
        d2 = float(np.max(np.abs(sols[512].u[::2] - sols[256].u)))
        order_a = math.log2(d1 / d2)
        # (b) x-independent damping decay: the integrating factor makes
        # the scheme exact, so errors sit at roundoff; order is reported
        # as inf when the finest-grid error is below 1e-12
        dl1 = DampingLaw(1.0, 0.0)
        errs = []
        for n in (128, 256, 512):
            f = init_field({"preset": "constant", "tau": 1.0, "u": 0.5},
                           Grid(n=n, length=10.0), gm, dl1)
            res = run(f, 1.0, monitors_requested=False)
            errs.append(float(np.max(np.abs(res.outcome.u - 0.5 * math.exp(-1.0)))))
        order_b = math.inf if errs[-1] < 1e-12 else math.log2(errs[-2] / errs[-1])
        ok = order_a >= 1.9 and order_b >= 1.9
        report(4, "scheme order on advection and exact damping", ok,
               f"order_a {order_a:.3f}, order_b {order_b}")

    def test_05_invariant_region(self):
        scenarios = [
            (1.4, 0.0), (2.0, 0.0), (2.0, 1.0), (2.5, 0.5), (5.0, 0.0),
        ]
        all_ok = True
        for gamma, lam in scenarios:
            f, gm, dl = field_for(
                gamma, lam,
                {"preset": "sine", "tau0": 1.0, "u_amp": -0.3, "tau_amp": 0.1},
                n=128, length=10.0,
            )
            res = run(f, 2.0)
            all_ok = all_ok and bool(res.monitors.invariant.ok)
        report(5, "invariant region holds within 2% on 5 presets", all_ok)

    def _ceiling_floor_runs(self):
        if not hasattr(self, "_cf_cache"):
            cache = []
            for gamma in (1.4, 2.0):
                for lam in (0.0, 1.0):
                    f, gm, dl = field_for(
                        gamma, lam,
                        {"preset": "sine", "tau0": 1.0, "u_amp": -0.3,
                         "tau_amp": 0.1},
                        n=128, length=10.0,
                    )
                    res = run(f, 3.0)
                    ceilings = riccati_ceilings(f)
                    floor = make_density_floor(
                        gm, dl, ceilings, initial_phi_term_sup(f)
                    )
                    cache.append((gamma, lam, gm, dl, res, ceilings, floor))
            type(self)._cf_cache = cache
        return type(self)._cf_cache

    def test_06_ceiling_property(self):
        all_ok = True
        detail = []
        for gamma, lam, gm, dl, res, _, _ in self._ceiling_floor_runs():
            ok = bool(res.monitors.ceiling.ok)
            all_ok = all_ok and ok
            detail.append(f"g={gamma},lam={lam}:{'ok' if ok else 'VIOLATED'}")
        report(6, "y/q ceilings hold within 2% on 4 scenarios", all_ok,
               "; ".join(detail))

    def test_07_density_floor(self):
        all_ok = True
        exercised = 0
        for gamma, lam, gm, dl, res, _, floor in self._ceiling_floor_runs():
            mon = res.monitors
            ok = mon.floor.ok is True
            # recheck directly from the recorded series
            for t, rho in zip(mon.ts, mon.min_rho):
                if t > floor.t_min:
                    exercised += 1
                    ok = ok and rho >= 0.95 * density_floor(gm, dl, floor, t)
            all_ok = all_ok and ok
        report(7, "density floor holds at 0.95x on 4 scenarios",
               all_ok and exercised > 0, f"{exercised} samples past t_min")

    @pytest.mark.parametrize("label,gamma,lam,spec,n,length", [
        ("T3_2", 2.0, 0.0,
         {"preset": "gaussian", "tau0": 1.0, "u_amp": -6.0, "width": 0.5},
         256, 10.0),
        ("T4_2", 2.0, 1.0,
         {"preset": "gaussian", "tau0": 1.0, "u_amp": -6.0, "width": 0.5},
         256, 10.0),
        ("T3_1", 5.0, 0.0,
         {"preset": "gaussian", "tau0": 1.0, "u_amp": -3.0, "width": 0.1},
         512, 5.0),
        ("T4_1", 5.0, 1.0,
         {"preset": "gaussian", "tau0": 1.0, "u_amp": -3.0, "width": 0.1},
         512, 5.0),
    ])
    def test_08_theorem_blowup_cross_validation(self, label, gamma, lam, spec,
                                                n, length):
        grads = []
        for nn in (n, 2 * n):
            f, gm, dl = field_for(gamma, lam, spec, n=nn, length=length)
            verdict = evaluate(f, gm, dl)
            assert verdict.fired and verdict.theorem.value == label
            res = run(f, 2.0, monitors_requested=False)
            assert res.broke_down, f"{label} n={nn} did not break down"
            grads.append(res.outcome.max_abs_ux)
        ratio = grads[1] / grads[0]
        report(8, f"{label} fires and refinement sharpens breakdown",
               ratio >= 1.8, f"gradient ratio {ratio:.2f}")

    def test_09_characteristic_cross_validation(self):
        gm = GasModel(2.0, 1.0)
        dl = DampingLaw(1.0, 0.0)
        devs = []
        for n in (256, 512):
            f = init_field({"preset": "sine", "tau0": 1.0, "u_amp": -0.2},
                           Grid(n=n, length=10.0), gm, dl)
            res = run(f, 0.8, monitors_requested=False)
            trace = trace_characteristic(res, 2.5, Direction.FORWARD)
            rep = cross_validate_riccati(trace, gm, dl, 0.01)
            devs.append(rep.deviation)
        ok = devs[0] <= 0.01 and devs[1] < devs[0]
        report(9, "traced y matches integrated Riccati y", ok,
               f"deviations {devs[0]:.3g} -> {devs[1]:.3g}")

    def test_10_regime_map(self):
        def reference(gamma, alpha, lam):
            # independent re-derivation of the classification
            ratio = alpha * (gamma - 1.0) / (gamma - 3.0)
            if gamma > 3.0:
                if lam == 1.0:
                    thm = "T4_1" if alpha >= (gamma - 3.0) / (gamma - 1.0) \
                        else "NONE"
                    return ("super", "critical", thm)
                if lam < 1.0 and lam < ratio:
                    return ("super", "generic_low", "T3_1")
                if lam > 1.0 and lam > ratio:
                    return ("super", "generic_high", "T3_1")
                return ("super", "generic_gap", "NONE")
            if lam == 1.0:
                return ("sub", "critical", "T4_2")
            if lam < ratio:
                return ("sub", "generic_gap", "NONE")
            return ("sub", "generic_high" if lam > 1.0 else "generic_low", "T3_2")

        mismatches = 0
        for gamma in (2.0, 5.0):
            gm = GasModel(gamma, 1.0)
            for alpha in np.linspace(0.0, 3.0, 200):
                for lam in np.linspace(-1.0, 3.0, 200):
                    r = classify_regime(gm, DampingLaw(float(alpha), float(lam)))
                    got = (r.gamma_side.value, r.lambda_side.value,
                           r.applicable_theorem.value)
                    if got != reference(gamma, float(alpha), float(lam)):
                        mismatches += 1
        report(10, "regime map matches reference on 2x200x200 lattice",
               mismatches == 0, f"{mismatches} mismatches")

    def test_11_sweep_determinism(self, tmp_path):
        import yaml

        cfg = {
            "gas": {"gamma": 5.0, "big_k": 1.0},
            "damping": {"alpha": 1.0, "lambda": 0.0},
            "grid": {"n": 64, "L": 5.0},
            "profile": {"preset": "sine", "tau0": 1.0, "u_amp": -0.2},
            "run": {"t_end": 0.2},
            "sweep": {"axes": [
                {"name": "alpha", "start": 0.0, "stop": 2.0, "count": 3},
                {"name": "lambda", "start": 0.0, "stop": 2.0, "count": 3},
            ]},
        }
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli_main(["sweep", "--config", str(path), "--out", str(out1),
                         "--jobs", "2"]) == 0
        assert cli_main(["sweep", "--config", str(path), "--out", str(out2),
                         "--jobs", "2"]) == 0
        same = (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        report(11, "sweep outputs are byte-identical across runs", same)
