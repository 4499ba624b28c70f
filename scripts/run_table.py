#!/usr/bin/env python3
"""Reproduce the 3D accuracy table for the manufactured ground state.

Runs FD2, SEM(2) and COMPACT4 on a pair of refinement levels each and
prints eigenvalue/energy errors with observed orders.  The full-size
levels (39^3 / 79^3 for the finite-difference schemes) take about ten
seconds on a 2-core machine; pass --small for a quick smoke run.
"""

import argparse
import sys

from gpflow.analysis import convergence_study
from gpflow.grids import Scheme


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--small", action="store_true",
                    help="use coarse levels for a fast smoke test")
    ap.add_argument("--initial", choices=["constant", "linear"], default="linear")
    args = ap.parse_args()

    jobs = [
        ((Scheme.FD2, 1), [10, 20] if args.small else [40, 80]),
        ((Scheme.SEM, 2), [3, 6] if args.small else [5, 10]),
        ((Scheme.COMPACT4, 1), [10, 20] if args.small else [40, 80]),
    ]
    print(f"{'scheme':<10}{'grid':<8}{'lam_err':>12}{'order':>8}"
          f"{'E_err':>12}{'order':>8}{'iters':>7}")
    for scheme, levels in jobs:
        table = convergence_study([scheme], levels, args.d, args.beta,
                                  initial=args.initial)
        for name, rows in table.items():
            for r in rows:
                order = "" if r.lambda_order != r.lambda_order else f"{r.lambda_order:.3f}"
                eorder = "" if r.energy_order != r.energy_order else f"{r.energy_order:.3f}"
                print(f"{name:<10}{r.label:<8}{r.lambda_err:>12.3e}{order:>8}"
                      f"{r.energy_err:>12.3e}{eorder:>8}{r.iterations:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
