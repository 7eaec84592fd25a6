#!/usr/bin/env python3
"""Print the threshold-comparison tables for the built-in models.

Reproduces the headline numbers: the eps-optimization (0.607 / 0.117), the
spin-1/2 Heisenberg ratio ~0.412, the spin-1/2 staggered-Ising ratio ~0.027,
and the classical comparator ratio approaching 9/e^6 ~ 0.0223.
"""

import argparse
import math

from kmsbounds.bounds import (
    fv_beta,
    heisenberg_report,
    ising_report,
    classical_report,
    optimize_eps,
    uniqueness_objective,
)
from kmsbounds.ti import SpinRep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-two-j", type=int, default=6)
    args = parser.parse_args()

    opt = optimize_eps(uniqueness_objective)
    print(f"eps* = {opt.eps_star:.4f}   peak eps e^-eps/(1+e^eps) = {opt.beta:.4f}")
    print()

    print("anisotropic Heisenberg (nu=1, J=1, delta=1): ratio vs dimension-dependent bound")
    print(f"{'2j':>4s} {'beta_u':>12s} {'comparator':>12s} {'eps*_comp':>10s} {'ratio':>8s}")
    for two_j in range(1, args.max_two_j + 1):
        report = heisenberg_report(SpinRep(two_j), 1, 1.0, 1.0)
        comp = report.comparators["bratteli_robinson_645"]
        print(
            f"{two_j:>4d} {report.beta_u:>12.6f} {comp.beta:>12.6f} "
            f"{comp.eps_star:>10.4f} {report.ratios['bratteli_robinson_645']:>8.4f}"
        )
    print()

    print("staggered-field Ising (nu=1, J=1): field-independent thresholds")
    print(f"{'2j':>4s} {'beta_u':>12s} {'comparator':>12s} {'ratio':>10s}")
    for two_j in range(1, args.max_two_j + 1):
        report = ising_report(SpinRep(two_j), 1, 1.0)
        comp = report.comparators["bratteli_robinson_646"]
        print(
            f"{two_j:>4d} {report.beta_u:>12.6f} {comp.beta:>12.6e} "
            f"{report.ratios['bratteli_robinson_646']:>10.6f}"
        )
    print()

    print("classical Heisenberg (J=1, delta=1): cluster-expansion comparator ratio")
    print(f"{'nu':>6s} {'beta_tilde':>12s} {'comparator':>12s} {'ratio':>10s}")
    for nu in (1, 2, 3, 10, 100):
        report = classical_report(nu, 1.0, 1.0)
        comp = fv_beta(1.0, 1.0, nu)
        print(
            f"{nu:>6d} {report.beta_u:>12.6f} {comp.beta:>12.6e} {comp.ratio:>10.6f}"
        )
    print(f"{'limit':>6s} {'':>12s} {'':>12s} {9 / math.e ** 6:>10.6f}")


if __name__ == "__main__":
    main()
