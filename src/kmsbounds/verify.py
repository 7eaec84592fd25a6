"""Randomized finite-volume verification suites.

Each runner draws its inputs from an explicit seed, exercises one algebraic
ingredient (decomposition, KMS condition, interaction-picture truncation,
chain-sum bound, the order-expanded linear equation, classical invariance),
and reports named residuals with the thresholds they were held to.  The CLI
``verify`` subcommand and the acceptance suite both call these runners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .bounds import beta_u_optimized
from .centering import (
    ReferenceStates,
    decompose_moebius,
    decompose_recursive,
    gibbs_single_site,
)
from .lattice import (
    InteractionFamily,
    LocalOperator,
    Region,
    SpinRep,
    box_window,
    build_heisenberg,
    heisenberg_ti,
    operator_norm,
    operator_norms,
    spin_matrices,
)
from .quantum import (
    FiniteSystem,
    SimplexQuadrature,
    dyson_truncated,
    kms_residual,
    ks_kernel,
    ks_kernel_haar_mc,
    ks_kernel_norm_bound,
    ks_residual,
    lemma_sum_check,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": float(self.value),
            "threshold": float(self.threshold),
        }


def _rand_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = (m + m.conj().T) / 2.0
    return m / np.abs(np.linalg.eigvalsh(m)).max()


def _le(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name, value <= threshold, value, threshold)


def _ge(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name, value >= threshold, value, threshold)


def run_decompose_suite(seed: int = 0, draws: int = 100,
                        betas: Sequence[float] = (0.3, 1.0)) -> list:
    """Random Hermitian observables on one to three spin-1/2 sites with random
    single-site potentials: reconstruction, centering, cross-method agreement
    and the 2^|X| norm bound."""
    rng = np.random.default_rng(seed)
    worst_recon = worst_center = worst_cross = 0.0
    bound_ok = True
    for i in range(draws):
        nsites = 1 + (i % 3)
        window = box_window([nsites])
        beta = betas[i % len(betas)]
        rho = {
            x: gibbs_single_site(_rand_hermitian(2, rng), beta) for x in window
        }
        eta = ReferenceStates(beta=beta, site_dim=2, rho=rho)
        a = LocalOperator(window, _rand_hermitian(2 ** nsites, rng), 2)
        rec = decompose_recursive(a, eta)
        moe = decompose_moebius(a, eta)
        a_norm = operator_norm(a)
        worst_recon = max(worst_recon, rec.reconstruction_residual(a) / a_norm)
        worst_center = max(worst_center, rec.centering_residual(eta))
        # both list their components in the order of Region.subsets
        worst_cross = max(worst_cross, float(operator_norms(rec.stack - moe.stack).max()))
        bound_ok = bound_ok and rec.norm_bound_ok(a_norm)
    return [
        _le("reconstruction_residual_rel", worst_recon, 1e-10),
        _le("centering_residual", worst_center, 1e-10),
        _le("recursive_vs_moebius", worst_cross, 1e-11),
        CheckResult("component_norm_bound", bound_ok, 0.0 if bound_ok else 1.0, 0.0),
    ]


def run_kms_suite(seed: int = 0, draws: int = 50,
                  betas: Sequence[float] = (0.5, 1.0, 2.0)) -> list:
    """Gibbs states satisfy the analytic-continuation identity to roundoff;
    the maximally mixed state (at beta > 0 with nontrivial dynamics) visibly
    violates it on at least 90 percent of random observables."""
    rng = np.random.default_rng(seed)
    rep = SpinRep(1)
    worst_rel = 0.0
    mismatch_hits = 0
    systems = {}  # (nsites, beta) -> (system, ||H||), built on first use
    for i in range(draws):
        nsites = 2 + (i % 2)
        beta = betas[i % len(betas)]
        if (nsites, beta) not in systems:
            window = box_window([nsites])
            system = FiniteSystem(window, build_heisenberg(1.0, 1.0, rep, window), beta)
            systems[nsites, beta] = system, operator_norm(system.h)
        system, h_norm = systems[nsites, beta]
        window = system.gamma
        dim = 2 ** nsites
        a = LocalOperator(window, _rand_hermitian(dim, rng), 2)
        b = LocalOperator(window, _rand_hermitian(dim, rng), 2)
        tolerance = (
            1e-9
            * operator_norm(a)
            * operator_norm(b)
            * math.exp(2 * beta * h_norm)
        )
        worst_rel = max(worst_rel, kms_residual(system, a, b) / tolerance)
        maximally_mixed = (np.eye(dim, dtype=complex), np.full(dim, 1.0 / dim))
        mismatch_hits += kms_residual(system, a, b, maximally_mixed) > 1e-3
    return [
        _le("gibbs_residual_vs_tolerance", worst_rel, 1.0),
        _ge("mismatched_state_detection_rate", mismatch_hits / draws, 0.9),
    ]


def run_dyson_suite(seed: int = 0, order: int = 3,
                    times: Sequence[float] = (0.1, 0.05)) -> list:
    """Truncation error against exact evolution on the three-site spin-1/2
    chain is of order t^{N+1}: halving the time shrinks it by 2^{N+1}.  The
    check asks for 11/16 of that rate (11 at the default order 3)."""
    min_ratio = 11.0 / 16.0 * 2.0 ** (order + 1)
    rep = SpinRep(1)
    window = box_window([3])
    fam = build_heisenberg(1.0, 1.0, rep, window)
    system = FiniteSystem(window, fam, beta=1.0)
    _, _, s3 = spin_matrices(rep, at=(0,))
    quad = SimplexQuadrature(8)
    errors = []
    for t in times:
        approx = dyson_truncated(s3, system, t, order, quad)
        errors.append(operator_norm(approx - system.evolve(s3, t)))
    ratio = errors[0] / errors[1] if errors[1] else math.inf
    return [_ge(f"halving_ratio_order_{order}", ratio, min_ratio)]


def run_lemma_suite(seed: int = 0, draws: int = 500,
                    eps_values: Sequence[float] = (0.3, 0.7, 1.5)) -> list:
    """Constrained chain sums never exceed the combinatorial bound on
    randomized weight families over a four-site lattice."""
    rng = np.random.default_rng(seed)
    window = box_window([4])
    sites = list(window)
    all_regions = []
    for size in (1, 2, 3):
        for combo in combinations(sites, size):
            all_regions.append(Region.of(combo))
    violations = 0
    worst_margin = 0.0
    for i in range(draws):
        count = rng.integers(2, 7)
        chosen = rng.choice(len(all_regions), size=count, replace=False)
        alpha = {all_regions[k]: float(rng.uniform(0.05, 1.0)) for k in chosen}
        lam_size = int(rng.integers(1, 4))
        lam = Region.of(
            sites[k] for k in rng.choice(len(sites), size=lam_size, replace=False)
        )
        n = int(rng.integers(1, 4))
        eps = eps_values[i % len(eps_values)]
        lhs, rhs = lemma_sum_check(alpha, lam, n, eps)
        if lhs > rhs * (1 + 1e-12):
            violations += 1
        if rhs > 0:
            worst_margin = max(worst_margin, lhs / rhs)
    return [
        _le("chain_sum_violations", float(violations), 0.0),
        _le("worst_lhs_over_rhs", worst_margin, 1.0),
    ]


def _two_site_benchmark(beta: float):
    rep = SpinRep(1)
    window = box_window([2])
    fam = build_heisenberg(1.0, 1.0, rep, window)
    return FiniteSystem(window, fam, beta)


def _centered_test_element(system: FiniteSystem, rng: np.random.Generator) -> LocalOperator:
    a = LocalOperator(
        system.gamma, _rand_hermitian(2 ** len(system.gamma), rng), system.site_dim
    )
    elem = decompose_recursive(a, system.reference_states).components[system.gamma]
    if operator_norm(elem) < 1e-6:
        raise RuntimeError("degenerate draw")
    return elem


def run_ks_suite(seed: int = 0, mc_samples: int = 10000, order: int = 3,
                 quad_points: int = 8) -> list:
    """Order-expanded linear equation on the two-site benchmark.

    The order-one kernel matches a Haar Monte-Carlo average to a few standard
    errors, the kernel norm bound holds on sampled chains, the per-order
    residuals of the linear equation decrease monotonically at a tenth of the
    subcritical threshold, and component sums telescope back exactly.
    """
    rng = np.random.default_rng(seed)
    rep = SpinRep(1)
    checks = []

    # Monte-Carlo cross-check on a system with a genuine single-site part
    window = box_window([2])
    bond_fam = build_heisenberg(1.0, 1.0, rep, window)
    s1, _, _ = spin_matrices(rep)
    terms = dict(bond_fam.terms)
    for x in window:
        reg = Region((x,))
        terms[reg] = LocalOperator(reg, 0.6 * s1.matrix, 2)
    mixed_fam = InteractionFamily(terms, 2)
    mc_system = FiniteSystem(window, mixed_fam, beta=0.5)
    bond_region = next(iter(mixed_fam.multilocal()))
    s_time = 0.3 * mc_system.beta
    exact = ks_kernel(mc_system, (0,), [bond_region], [s_time])
    mean, sigma = ks_kernel_haar_mc(
        mc_system, (0,), bond_region, s_time, samples=mc_samples, seed=seed + 1
    )
    deviation = float(np.linalg.norm(mean - exact.matrix))
    checks.append(_le("order_one_kernel_mc_deviation", deviation, 3.0 * sigma))

    # kernel norm bound on sampled chains of both lengths
    bound_ok = True
    margin = 0.0
    for n in (1, 2):
        for _ in range(10):
            chain = [bond_region] * n
            times = sorted(
                (mc_system.beta * rng.uniform(size=n)).tolist(), reverse=True
            )
            kernel = ks_kernel(mc_system, (0,), chain, times)
            bound = ks_kernel_norm_bound(mc_system, chain)
            margin = max(margin, operator_norm(kernel) / bound)
            bound_ok = bound_ok and operator_norm(kernel) <= bound * (1 + 1e-9)
    checks.append(CheckResult("kernel_norm_bound", bound_ok, margin, 1.0))

    # geometric decay of the residual at a tenth of the threshold
    threshold = beta_u_optimized(heisenberg_ti(1, 1.0, 1.0, rep)).beta
    system = _two_site_benchmark(threshold / 10.0)
    elem = _centered_test_element(system, rng)
    reports = ks_residual(
        system, [elem], order=order, quad=SimplexQuadrature(quad_points)
    )
    report = reports[0]
    scale = operator_norm(elem)
    monotone = all(
        report.residuals[n + 1] < report.residuals[n]
        for n in range(1, order)
    )
    checks.append(
        CheckResult(
            "residual_monotone_decay",
            monotone,
            report.residuals[order] / report.residuals[1],
            1.0,
        )
    )
    checks.append(
        _le("residual_final_rel", report.residuals[order] / scale, 1e-4)
    )
    checks.append(_le("telescoping_error", report.telescoping_error, 1e-10))
    return checks


def run_classical_suite(seed: int = 0, draws: int = 20, grid_order: int = 16) -> list:
    """Sphere quadrature exactness and the rotation-invariance identity of the
    finite classical Gibbs state on two-site systems."""
    # the one suite that needs the classical layer loads it
    from .classical import (
        SphereGrid,
        classical_kernel_bound_check,
        heisenberg_bond_potential,
        invariance_residual,
        random_rotation,
    )

    grid = SphereGrid(grid_order)
    ones = float(abs(grid.integrate(np.ones(len(grid.weights))) - 1.0))
    linear = float(abs(grid.integrate(grid.vectors[:, 2])))
    square = float(abs(grid.integrate(grid.vectors[:, 2] ** 2) - 1.0 / 3.0))
    checks = [
        _le("quadrature_constant", ones, 1e-12),
        _le("quadrature_linear", linear, 1e-12),
        _le("quadrature_square", square, 1e-10),
    ]
    rng = np.random.default_rng(seed)
    window = box_window([2])
    worst = 0.0
    for _ in range(draws):
        delta = float(rng.uniform(-2.0, 2.0))
        coupling = float(rng.uniform(0.2, 1.5))
        bond = heisenberg_bond_potential((0,), (1,), coupling, delta)
        beta = float(rng.uniform(0.05, 1.0))
        rotation = random_rotation(rng)
        c = rng.normal(size=6)

        def observable(cfg, c=c):
            return (
                c[0] * cfg[:, 0, 2]
                + c[1] * cfg[:, 1, 0]
                + c[2] * np.sin(cfg[:, 0, 0] + c[3] * cfg[:, 1, 2])
                + c[4] * cfg[:, 0, 1] * cfg[:, 1, 1]
                + c[5]
            )

        worst = max(
            worst,
            invariance_residual(
                window, [bond], beta, observable, (0,), rotation, grid
            ),
        )
    checks.append(_le("invariance_residual", worst, 1e-6))
    bonds = [
        heisenberg_bond_potential((0,), (1,), 1.0, 1.0),
        heisenberg_bond_potential((-1,), (0,), 0.7, 2.0),
    ]
    lhs, rhs = classical_kernel_bound_check(bonds, 0.5, 100, seed + 2)
    checks.append(_le("rotation_product_bound", lhs, rhs))
    return checks


SUITES = {
    "decompose": run_decompose_suite,
    "kms": run_kms_suite,
    "dyson": run_dyson_suite,
    "lemma1": run_lemma_suite,
    "ks": run_ks_suite,
    "classical-invariance": run_classical_suite,
}
