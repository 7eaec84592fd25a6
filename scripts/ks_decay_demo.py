#!/usr/bin/env python3
"""Residual decay of the truncated linear equation on a two-site benchmark.

For a centered test element the Gibbs expectation should be reproduced by the
alternating chain sum; the table shows the truncation residual per order at a
range of temperatures.  Decay is fast deep in the subcritical regime and
degrades as beta grows past the threshold.
"""

import argparse

import numpy as np

from kmsbounds.bounds import beta_u_optimized
from kmsbounds.centering import decompose_recursive
from kmsbounds.lattice import LocalOperator, build_heisenberg, operator_norm
from kmsbounds.quantum import FiniteSystem, SimplexQuadrature, ks_residual
from kmsbounds.ti import SpinRep, box_window, heisenberg_ti


def centered_element(system, seed):
    rng = np.random.default_rng(seed)
    dim = 2 ** len(system.gamma)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = (m + m.conj().T) / 2
    a = LocalOperator(system.gamma, m, system.site_dim)
    return decompose_recursive(a, system.reference_states).components[system.gamma]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=3)
    parser.add_argument("--points", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rep = SpinRep(1)
    window = box_window([2])
    fam = build_heisenberg(1.0, 1.0, rep, window)
    threshold = beta_u_optimized(heisenberg_ti(1, 1.0, 1.0, rep)).beta
    print(f"subcritical threshold beta_u = {threshold:.6f}")
    print(f"{'beta/beta_u':>12s} " + " ".join(f"{'N=%d' % n:>12s}" for n in range(1, args.order + 1)))
    quad = SimplexQuadrature(args.points)
    for factor in (0.1, 0.5, 1.0, 2.0, 5.0):
        beta = factor * threshold
        system = FiniteSystem(window, fam, beta)
        elem = centered_element(system, args.seed)
        report = ks_residual(system, elem, order=args.order, quad=quad)
        scale = operator_norm(elem)
        row = " ".join(
            f"{report.residuals[n] / scale:>12.3e}" for n in range(1, args.order + 1)
        )
        print(f"{factor:>12.2f} {row}")


if __name__ == "__main__":
    main()
