#!/usr/bin/env python3
"""Emit the (alpha, lambda) regime map as CSV for external plotting.

One row per lattice cell: alpha, lambda, gamma_side, lambda_side,
theorem.  Usage: python scripts/regime_map.py --gamma 5 --out map.csv
"""

import argparse
import sys

import numpy as np

from shockline import DampingLaw, GasModel
from shockline.core import classify_regime


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--gamma", type=float, default=5.0)
    ap.add_argument("--alpha-max", type=float, default=3.0)
    ap.add_argument("--lam-min", type=float, default=-1.0)
    ap.add_argument("--lam-max", type=float, default=3.0)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    gm = GasModel(args.gamma, 1.0)
    lines = ["alpha,lambda,gamma_side,lambda_side,theorem"]
    for alpha in np.linspace(0.0, args.alpha_max, args.n):
        for lam in np.linspace(args.lam_min, args.lam_max, args.n):
            r = classify_regime(gm, DampingLaw(float(alpha), float(lam)))
            lines.append(
                f"{alpha:.17g},{lam:.17g},{r.gamma_side.value},"
                f"{r.lambda_side.value},{r.applicable_theorem.value}"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
