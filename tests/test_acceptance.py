"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criteria 5-10 run the verification suites at the sizes
that ``kmsbounds.verify`` fixes (``DECOMPOSE_DRAWS``, ``KS_MC_SAMPLES`` and
the rest), the sizes the CLI runs; the criteria's lines print the draw counts.
"""

import math
import time

import numpy as np

from kmsbounds import verify
from kmsbounds.bounds import (
    beta_u_classical,
    beta_u_commuting,
    fv_beta,
    heisenberg_report,
    ising_report,
    optimize_eps,
    uniqueness_objective,
)
from kmsbounds.norms import NormParams, norm_eps_zeta
from kmsbounds.ti import SpinRep, classical_heisenberg_ti, ising_staggered_ti
from kmsbounds.verify import (
    run_classical_suite,
    run_decompose_suite,
    run_dyson_suite,
    run_kms_suite,
    run_ks_suite,
    run_lemma_suite,
)

LOG3 = math.log(3.0)


def _report(number: int, name: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(
        f"ACCEPTANCE {number:2d} {name:<38s} {status}  "
        f"({elapsed:.2f}s / limit {limit:.0f}s)"
    )
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def test_criterion_01_eps_optimization():
    start = time.perf_counter()
    opt = optimize_eps(uniqueness_objective)
    # the search over grid indices needs a log-concave objective
    grid = np.arange(1e-2, 10.0 + 5e-3, 1e-2)
    log_f = np.log([uniqueness_objective(eps) for eps in grid])
    ok = (
        np.diff(log_f, 2).max() <= 1e-12
        and abs(opt.eps_star - 0.607) <= 0.002
        and abs(opt.beta - 0.117) <= 0.001
    )
    _report(1, "eps optimization 0.607 / 0.117", ok, time.perf_counter() - start, 1.0)


def test_criterion_02_heisenberg_comparison():
    start = time.perf_counter()
    report = heisenberg_report(SpinRep(1), 1, 1.0, 1.0)
    ratio = report.ratios["bratteli_robinson_645"]
    eps_br = report.comparators["bratteli_robinson_645"].eps_star
    ok = abs(ratio - 0.412) <= 0.005 and abs(eps_br - 0.518) <= 0.002
    _report(2, "Heisenberg ratio 0.412 @ 0.518", ok, time.perf_counter() - start, 1.0)


def test_criterion_03_ising_comparison():
    start = time.perf_counter()
    ratios = set()
    betas = set()
    br_betas = set()
    commuting = set()
    psi_norms = set()
    eps_br = None
    for field in (0.0, 1.0, 10.0):
        # the staggered field commutes with the bonds and is subtracted, so
        # neither threshold depends on it; the reports take no field argument,
        # and the commuting threshold of the spec built with the field shows
        # the invariance
        report = ising_report(SpinRep(1), 1, 1.0)
        ratios.add(round(report.ratios["bratteli_robinson_646"], 15))
        betas.add(round(report.beta_u, 15))
        br_betas.add(round(report.comparators["bratteli_robinson_646"].beta, 15))
        eps_br = report.comparators["bratteli_robinson_646"].eps_star
        spec = ising_staggered_ti(1, 1.0, field, SpinRep(1))
        psi_norms.add(spec.psi_site_norm)
        commuting.add(beta_u_commuting(spec, report.eps_star))
    ratio = next(iter(ratios))
    ok = (
        abs(ratio - 0.027) <= 0.003
        and abs(eps_br - 0.505) <= 0.002
        and len(betas) == 1
        and len(br_betas) == 1
        and len(psi_norms) == 3
        and len(commuting) == 1
    )
    _report(3, "Ising ratio 0.027 @ 0.505, B-free", ok, time.perf_counter() - start, 1.0)


def test_criterion_04_classical_bounds():
    start = time.perf_counter()
    ok = True
    for nu in (1, 2, 3):
        for coupling in (0.5, 1.0, 2.0):
            for delta in (0.3, 1.0, 2.5):
                norm = norm_eps_zeta(
                    classical_heisenberg_ti(nu, coupling, delta), NormParams(LOG3)
                )
                expected = 1.0 / (18 * coupling * nu * max(abs(delta), 1.0))
                ok = ok and math.isclose(
                    beta_u_classical(norm), expected, rel_tol=1e-12
                )
    previous = 0.0
    for nu in (1, 2, 4, 8, 64, 1024):
        ratio = fv_beta(1.0, 1.0, nu).ratio
        ok = ok and ratio > previous
        previous = ratio
    ok = ok and abs(9 / math.e ** 6 - 0.0223) <= 5e-4
    ok = ok and abs(previous - 9 / math.e ** 6) < 5e-5
    _report(4, "classical 1/(18 J nu max), FV sup", ok, time.perf_counter() - start, 1.0)


def test_criterion_05_decomposition_suite():
    start = time.perf_counter()
    checks = run_decompose_suite(seed=0)
    ok = all(c.passed for c in checks)
    name = f"centered decomposition ({verify.DECOMPOSE_DRAWS} draws)"
    _report(5, name, ok, time.perf_counter() - start, 10.0)


def test_criterion_06_kms_suite():
    start = time.perf_counter()
    checks = run_kms_suite(seed=0)
    ok = all(c.passed for c in checks)
    name = f"finite-volume KMS ({verify.KMS_DRAWS} draws)"
    _report(6, name, ok, time.perf_counter() - start, 30.0)


def test_criterion_07_dyson_truncation():
    start = time.perf_counter()
    checks = run_dyson_suite(seed=0, order=3)
    ok = all(c.passed for c in checks)
    _report(7, "Dyson order-4 error scaling", ok, time.perf_counter() - start, 30.0)


def test_criterion_08_lemma_suite():
    start = time.perf_counter()
    checks = run_lemma_suite(seed=0)
    ok = all(c.passed for c in checks)
    name = f"chain-sum bound ({verify.LEMMA_DRAWS} draws)"
    _report(8, name, ok, time.perf_counter() - start, 30.0)


def test_criterion_09_ks_suite():
    start = time.perf_counter()
    checks = run_ks_suite(seed=0, order=3, quad_points=8)
    ok = all(c.passed for c in checks)
    _report(9, "kernel MC, bound, residual decay", ok, time.perf_counter() - start, 300.0)


def test_criterion_10_classical_invariance():
    start = time.perf_counter()
    checks = run_classical_suite(seed=0)
    by_name = {c.name: c for c in checks}
    ok = all(c.passed for c in checks)
    # quadrature exactness thresholds restated explicitly
    ok = ok and by_name["quadrature_square"].value <= 1e-10
    ok = ok and by_name["invariance_residual"].value < 1e-6
    name = f"classical invariance ({verify.CLASSICAL_DRAWS} draws)"
    _report(10, name, ok, time.perf_counter() - start, 120.0)
