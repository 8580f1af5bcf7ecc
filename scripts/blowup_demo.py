#!/usr/bin/env python3
"""Gradient-blow-up demonstration: evaluate the applicable criterion on
steep initial data, simulate to breakdown, and compare the observed
breakdown time against the Riccati upper bound computed along the
traced forward characteristic.

Usage: python scripts/blowup_demo.py [--gamma 2.0] [--lam 0.0] [--n 256]

Exits 1 when the grid is too coarse to trace (breakdown on the first
step).  When the criterion does not fire, the trace starts where the
initial y is most negative.  The demo prints where that characteristic
is at the last resolved time next to where breakdown happens (argmax
|u_x|).  It then integrates the Riccati equation along it with the
traced coefficients, unclipped, up to the last traced time (past it phi
would be held constant), and prints the pole bracket `t* in [lo, hi]`
or that there is no pole by that time.  On some data the integral of
the Riccati coefficient along the traced characteristic never reaches
the blow-up threshold; the demo then says that no finite bound exists
by the search horizon.
"""

import argparse
import sys

import numpy as np

from shockline import (
    DampingLaw,
    GasModel,
    Grid,
    NoBoundError,
    OutcomeKind,
    RiccatiProblem,
    ShocklineError,
    blowup_time_upper_bound_case1,
    evaluate,
    integrate,
)
from shockline.fields import init_field
from shockline.core import riccati_coefficients
from shockline.solver import Direction, run, trace_characteristic

T_MAX = 100.0  # horizon of the Riccati bound search


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--gamma", type=float, default=2.0)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--lam", type=float, default=0.0)
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--u-amp", type=float, default=-6.0)
    args = ap.parse_args()

    gm = GasModel(args.gamma, 1.0)
    dl = DampingLaw(args.alpha, args.lam)
    grid = Grid(n=args.n, length=10.0)
    field = init_field(
        {"preset": "gaussian", "tau0": 1.0, "u_amp": args.u_amp, "width": 0.5},
        grid, gm, dl,
    )

    verdict = evaluate(field, gm, dl)
    print(f"criterion {verdict.theorem.value}: fired={verdict.fired}")
    if verdict.fired:
        print(f"  witness x={verdict.witness_x:.4f}  "
              f"lhs={verdict.lhs:.4f} < rhs={verdict.rhs:.4f}")

    result = run(field, 5.0)
    if not result.broke_down:
        print(f"no breakdown before t={result.outcome.t}")
        return
    rep = result.outcome
    print(f"breakdown observed: t in [{rep.t_prev:.6f}, {rep.t:.6f}], "
          f"max|u_x| = {rep.max_abs_ux:.2f}")
    if len(result.snapshots.times) < 2:  # broke down on the first step
        print(f"the data are under-resolved at n={args.n}: breakdown on the "
              "first step leaves nothing to trace")
        return 1

    # Riccati upper bound along the characteristic through the witness,
    # or else through the most negative initial y
    x0 = verdict.witness_x
    if x0 is None:
        x0 = float(grid.xs[np.argmin(field.y())])
    trace = trace_characteristic(result, x0, Direction.FORWARD)
    x_break = grid.xs[np.argmax(np.abs(rep.last_field.u_x()))]
    print(f"forward characteristic from x={x0:.4f} is at x={trace.xs[-1]:.4f} "
          f"at t_prev={trace.times[-1]:.6f}; breakdown x={x_break:.4f} "
          f"(argmax |u_x|)")
    t_knots, phi_knots = trace.times, trace.phi

    def traced(t):  # past the last knot np.interp would hold phi constant
        phi = float(np.interp(t, t_knots, phi_knots))
        return riccati_coefficients(gm, dl, phi, t)

    def coeffs(t):
        c0, c2 = traced(t)
        return min(c0, 0.0), c2  # clip roundoff-positive c0

    y0 = float(trace.y_or_q[0])
    t_last = float(t_knots[-1])
    try:
        pole = integrate(RiccatiProblem(traced, y0, float(t_knots[0])), t_last)
    except ShocklineError as e:
        print(f"Riccati pole along the trace: {type(e).__name__}: {e}")
    else:
        if pole.kind is OutcomeKind.BLOWUP:
            print(f"Riccati pole along the trace: t* in [{pole.t_star_lo:.9f}, "
                  f"{pole.t_star_hi:.9f}]")
        else:
            print(f"Riccati pole along the trace: none by t={t_last:.6f}")
    if y0 < 0.0:
        prob = RiccatiProblem(coeff_source=coeffs, y0=y0)
        try:
            bound = blowup_time_upper_bound_case1(prob, t_max=T_MAX)
        except NoBoundError as e:
            print(f"traced y(0)={y0:.3f}: no finite Riccati bound exists by "
                  f"t_max={T_MAX:g} on this characteristic ({e})")
            return
        print(f"Riccati upper bound from traced y(0)={y0:.3f}: "
              f"t* <= {bound:.6f}")
        print(f"observed breakdown precedes the bound: {rep.t <= bound}")
    else:
        print(f"traced y(0)={y0:.3f} >= 0; case-1 bound not applicable here")


if __name__ == "__main__":
    sys.exit(main())
