"""Randomized finite-volume verification suites.

Each runner draws its inputs from an explicit seed, exercises one algebraic
ingredient (decomposition, KMS condition, interaction-picture truncation,
chain-sum bound, the order-expanded linear equation, classical invariance),
and reports named residuals with the thresholds they were held to.  The CLI
``verify`` subcommand and the acceptance suite both call these runners.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    build_heisenberg,
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
)
from .ti import Region, SpinRep, box_window, heisenberg_ti


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
    """A random Hermitian matrix, unscaled; ``_unit_norm`` scales it."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def _unit_norm(mats: np.ndarray) -> np.ndarray:
    """Each matrix of a stack (..., D, D) over its operator norm."""
    return mats / operator_norms(mats)[..., None, None]


@functools.cache
def _heisenberg_chain(nsites: int, beta: float) -> FiniteSystem:
    """The spin-1/2 Heisenberg chain (J = delta = 1) on ``nsites`` sites in a
    row, at inverse temperature ``beta``, built once per process: every suite
    run shares the system and its cached facts, whose arrays are read-only.
    The suites pass both arguments by position, as the cache keys them."""
    window = box_window([nsites])
    return FiniteSystem(window, build_heisenberg(1.0, 1.0, SpinRep(1), window), beta)


def _le(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name, value <= threshold, value, threshold)


def _ge(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name, value >= threshold, value, threshold)


# Suite sizes: the CLI, kmsbench, CI and the acceptance tests all run the suites at these
DECOMPOSE_DRAWS, DECOMPOSE_BETAS = 100, (0.3, 1.0)
KMS_DRAWS, KMS_BETAS = 50, (0.5, 1.0, 2.0)
DYSON_TIMES = (0.1, 0.05)
LEMMA_DRAWS, LEMMA_EPS = 500, (0.3, 0.7, 1.5)
KS_MC_SAMPLES = 10000
CLASSICAL_DRAWS, CLASSICAL_GRID_ORDER = 20, 16


def run_decompose_suite(seed: int = 0) -> list:
    """``DECOMPOSE_DRAWS`` random Hermitian observables on one to three
    spin-1/2 sites with random single-site potentials, beta cycling through
    ``DECOMPOSE_BETAS``: reconstruction, centering, cross-method agreement
    and the 2^|X| norm bound.

    The inputs are drawn one draw at a time; the draws of each (number of
    sites, beta) system then run as one stack, each draw with its own
    densities, and each check reads a stack in one norm call."""
    rng = np.random.default_rng(seed)
    by_system = {}  # (nsites, beta) -> [(potentials, observable)], in draw order
    for i in range(DECOMPOSE_DRAWS):
        nsites = 1 + (i % 3)
        psi = [_rand_hermitian(2, rng) for _ in range(nsites)]
        pair = (psi, _rand_hermitian(2 ** nsites, rng))
        by_system.setdefault((nsites, DECOMPOSE_BETAS[i % len(DECOMPOSE_BETAS)]), []).append(pair)
    worst_recon = worst_center = worst_cross = 0.0
    bound_ok = True
    for (nsites, beta), group in by_system.items():
        window = box_window([nsites])
        psi, mats = (_unit_norm(np.array(col)) for col in zip(*group))
        rho = {x: gibbs_single_site(psi[:, k], beta) for k, x in enumerate(window)}
        eta = ReferenceStates(site_dim=2, rho=rho)
        a = LocalOperator._raw(window, mats, 2)
        rec = decompose_recursive(a, eta)
        moe = decompose_moebius(a, eta)
        a_norms = operator_norms(mats)
        worst_recon = max(worst_recon, float((rec.reconstruction_residual(a) / a_norms).max()))
        worst_center = max(worst_center, rec.centering_residual(eta))
        # both list their components in the order of Region.subsets
        cross = operator_norms(rec.stack - moe.stack)
        worst_cross = max(worst_cross, float(cross.max()))
        bound_ok = bound_ok and rec.norm_bound_ok(a_norms)
    return [
        _le("reconstruction_residual_rel", worst_recon, 1e-10),
        _le("centering_residual", worst_center, 1e-10),
        _le("recursive_vs_moebius", worst_cross, 1e-11),
        CheckResult("component_norm_bound", bound_ok, 0.0 if bound_ok else 1.0, 0.0),
    ]


def run_kms_suite(seed: int = 0) -> list:
    """Gibbs states satisfy the analytic-continuation identity to roundoff;
    the maximally mixed state (at beta > 0 with nontrivial dynamics) visibly
    violates it on at least 90 percent of ``KMS_DRAWS`` random observable
    pairs, beta cycling through ``KMS_BETAS``, one stack per system."""
    rng = np.random.default_rng(seed)
    by_system = {}  # (nsites, beta) -> [(a, b)], in draw order
    for i in range(KMS_DRAWS):
        nsites = 2 + (i % 2)
        pair = tuple(_rand_hermitian(2 ** nsites, rng) for _ in range(2))
        by_system.setdefault((nsites, KMS_BETAS[i % len(KMS_BETAS)]), []).append(pair)
    worst_rel = 0.0
    mismatch_hits = 0
    for (nsites, beta), pairs in by_system.items():
        system = _heisenberg_chain(nsites, beta)
        a_mats, b_mats = (_unit_norm(np.array(col)) for col in zip(*pairs))
        a, b = (LocalOperator._raw(system.gamma, mats, 2) for mats in (a_mats, b_mats))
        tolerance = (
            1e-9
            * operator_norms(a_mats)
            * operator_norms(b_mats)
            * math.exp(2 * beta * operator_norm(system.h))
        )
        worst_rel = max(worst_rel, float((kms_residual(system, a, b) / tolerance).max()))
        dim = 2 ** nsites
        maximally_mixed = (np.eye(dim, dtype=complex), np.full(dim, 1.0 / dim))
        mismatch_hits += int(np.count_nonzero(kms_residual(system, a, b, maximally_mixed) > 1e-3))
    return [
        _le("gibbs_residual_vs_tolerance", worst_rel, 1.0),
        _ge("mismatched_state_detection_rate", mismatch_hits / KMS_DRAWS, 0.9),
    ]


def run_dyson_suite(seed: int = 0, order: int = 3) -> list:
    """Truncation error against exact evolution on the three-site spin-1/2
    chain is of order t^{N+1}: halving the time (``DYSON_TIMES``) shrinks it
    by 2^{N+1}.  The check asks for 11/16 of that rate (11 at order 3)."""
    min_ratio = 11.0 / 16.0 * 2.0 ** (order + 1)
    system = _heisenberg_chain(3, 1.0)
    _, _, s3 = spin_matrices(SpinRep(1), at=(0,))
    quad = SimplexQuadrature(8)
    errors = []
    for t in DYSON_TIMES:
        approx = dyson_truncated(s3, system, t, order, quad)
        errors.append(operator_norm(approx - system.evolve(s3, t)))
    ratio = errors[0] / errors[1] if errors[1] else math.inf
    return [_ge(f"halving_ratio_order_{order}", ratio, min_ratio)]


#: the lemma suite's window, four sites in a row, as the bits of a site bitmask
LEMMA_SITES = 4
#: (site bitmask, site) table, 1 where the bitmask holds the site
_SITE_BITS = (np.arange(1 << LEMMA_SITES)[:, None] >> np.arange(LEMMA_SITES)) & 1
#: the window's regions of one to three sites, as site bitmasks
LEMMA_REGIONS = np.flatnonzero(np.isin(_SITE_BITS.sum(axis=1), (1, 2, 3)))


def _lemma_draws(rng: np.random.Generator, draws: int) -> tuple:
    """The lemma suite's families, drawn as ``run_lemma_suite`` states, one
    row per draw: (weights (draws, regions) on ``LEMMA_REGIONS``, zero off the
    family; lam as a site bitmask; n; eps, cycling through ``LEMMA_EPS``).
    A row's subset of regions (or sites) is where a random permutation, the
    argsort of uniforms, is below the subset's size."""
    count = rng.integers(2, 7, size=draws)
    chosen = rng.random((draws, len(LEMMA_REGIONS))).argsort(axis=1) < count[:, None]
    weights = np.where(chosen, rng.uniform(0.05, 1.0, size=chosen.shape), 0.0)
    lam_size = rng.integers(1, 4, size=draws)
    lam_sites = rng.random((draws, LEMMA_SITES)).argsort(axis=1) < lam_size[:, None]
    lam = lam_sites @ (1 << np.arange(LEMMA_SITES))
    n = rng.integers(1, 4, size=draws)
    eps = np.resize(np.asarray(LEMMA_EPS, dtype=float), draws)
    return weights, lam, n, eps


def _lemma_sides(weights: np.ndarray, lam: np.ndarray, n: np.ndarray,
                 eps: np.ndarray) -> tuple:
    """Per draw, the constrained chain sum and its combinatorial bound
    (lhs, rhs) of ``_lemma_draws``' families:

      lhs = sum over constrained chains of prod alpha_{X_j} = f_n(lam),
      rhs = n! eps^{-n} e^{eps |lam|} (sup_x sum_{X : x} e^{eps(|X|-1)} alpha_X)^n,

    with f_k(S) = sum over X meeting S of alpha_X f_{k-1}(S u X), f_0 = 1, on
    every site bitmask S: one (draws, 16) gather-and-add per region and order.
    """
    subsets = np.arange(1 << LEMMA_SITES)
    rows = np.arange(len(lam))
    f = np.ones((len(lam), len(subsets)))
    lhs = np.zeros(len(lam))
    for k in range(1, n.max() + 1):
        grown = np.zeros_like(f)
        for r, mask in enumerate(LEMMA_REGIONS):
            meets = subsets[subsets & mask != 0]
            grown[:, meets] += weights[:, r, None] * f[:, meets | mask]
        f = grown
        lhs = np.where(n == k, f[rows, lam], lhs)
    incidence = _SITE_BITS[LEMMA_REGIONS]
    scaled = weights * np.exp(eps[:, None] * (incidence.sum(axis=1) - 1))
    site_sup = (scaled @ incidence).max(axis=1)
    factorial = np.array([math.factorial(k) for k in range(n.max() + 1)], dtype=float)
    rhs = factorial[n] * eps ** (-n) * np.exp(eps * _SITE_BITS[lam].sum(axis=1)) * site_sup ** n
    return lhs, rhs


def run_lemma_suite(seed: int = 0) -> list:
    """Constrained chain sums never exceed the combinatorial bound on
    randomized weight families over a four-site lattice.

    Each of ``LEMMA_DRAWS`` draws is a family of 2 to 6 distinct regions of
    one to three of the four sites, with weights uniform on [0.05, 1), a start
    lam of 1 to 3 distinct sites and a chain length n of 1 to 3 (each count
    uniform); eps cycles through ``LEMMA_EPS`` by draw index.  All draws are
    drawn and summed as arrays (``_lemma_draws``, ``_lemma_sides``)."""
    lhs, rhs = _lemma_sides(*_lemma_draws(np.random.default_rng(seed), LEMMA_DRAWS))
    return [
        _le("chain_sum_violations", float(np.count_nonzero(lhs > rhs * (1 + 1e-12))), 0.0),
        _le("worst_lhs_over_rhs", float((lhs / rhs).max()), 1.0),
    ]


def _centered_test_element(system: FiniteSystem, rng: np.random.Generator) -> tuple:
    """A centered element on the whole lattice and its operator norm."""
    a = LocalOperator(
        system.gamma, _unit_norm(_rand_hermitian(2 ** len(system.gamma), rng)), system.site_dim
    )
    elem = decompose_recursive(a, system.reference_states).components[system.gamma]
    norm = operator_norm(elem)
    if norm < 1e-6:
        raise RuntimeError("degenerate draw")
    return elem, norm


def run_ks_suite(seed: int = 0, order: int = 3, quad_points: int = 8) -> list:
    """Order-expanded linear equation on the two-site benchmark.

    The order-one kernel matches a Haar Monte-Carlo average of
    ``KS_MC_SAMPLES`` unitaries to a few standard errors; the kernel norm
    bound holds on ten sampled chains of each length one and two, whose
    kernels are one ``ks_kernel`` stack per length, normed once (a violation
    fails the check); the per-order residuals of the linear equation decrease
    monotonically at a tenth of the subcritical threshold; and component sums
    telescope back exactly.
    """
    rng = np.random.default_rng(seed)
    rep = SpinRep(1)
    checks = []

    # Monte-Carlo cross-check on a system with a genuine single-site part
    bonds = _heisenberg_chain(2, 0.5)
    s1, _, _ = spin_matrices(rep)
    terms = dict(bonds.fam.terms)
    for x in bonds.gamma:
        reg = Region((x,))
        terms[reg] = LocalOperator(reg, 0.6 * s1.matrix, 2)
    mixed_fam = InteractionFamily(terms, 2)
    mc_system = FiniteSystem(bonds.gamma, mixed_fam, bonds.beta)
    bond_region = next(iter(mixed_fam.multilocal()))
    s_time = 0.3 * mc_system.beta
    (exact,) = ks_kernel(mc_system, (0,), [bond_region], [[s_time]]).matrix
    mean, sigma = ks_kernel_haar_mc(
        mc_system, (0,), bond_region, s_time, samples=KS_MC_SAMPLES, seed=seed + 1
    )
    deviation = float(np.linalg.norm(mean - exact))
    checks.append(_le("order_one_kernel_mc_deviation", deviation, 3.0 * sigma))

    # kernel norm bound on ten sampled chains of each length, each row of
    # times in descending order.  Python's ``sorted`` orders the rows:
    # ``np.sort`` runs nowhere else in the package, and paging in its code
    # adds ~0.26 MB of resident memory (numpy 2.4, x86-64)
    bound_ok = True
    margin = 0.0
    for n in (1, 2):
        chain = [bond_region] * n
        draws = mc_system.beta * rng.uniform(size=(10, n))
        times = np.array([sorted(row, reverse=True) for row in draws])
        norms = operator_norms(ks_kernel(mc_system, (0,), chain, times).matrix)
        bound = ks_kernel_norm_bound(mc_system, chain)
        margin = max(margin, float((norms / bound).max()))
        bound_ok = bound_ok and bool(np.all(norms <= bound * (1 + 1e-9)))
    checks.append(CheckResult("kernel_norm_bound", bound_ok, margin, 1.0))

    # geometric decay of the residual at a tenth of the threshold
    threshold = beta_u_optimized(heisenberg_ti(1, 1.0, 1.0, rep)).beta
    system = _heisenberg_chain(2, threshold / 10.0)
    elem, scale = _centered_test_element(system, rng)
    report = ks_residual(system, elem, order=order, quad=SimplexQuadrature(quad_points))
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


def run_classical_suite(seed: int = 0) -> list:
    """Sphere quadrature exactness on the order-``CLASSICAL_GRID_ORDER`` grid,
    the rotation-invariance identity of the finite classical Gibbs state on
    ``CLASSICAL_DRAWS`` two-site systems, and the rotation-difference product
    bound."""
    # the one suite that needs the classical layer loads it
    from .classical import (
        SphereGrid,
        classical_kernel_bound_check,
        heisenberg_bond_potential,
        invariance_residual,
        random_rotation,
    )

    grid = SphereGrid(CLASSICAL_GRID_ORDER)
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
    for _ in range(CLASSICAL_DRAWS):
        delta = float(rng.uniform(-2.0, 2.0))
        coupling = float(rng.uniform(0.2, 1.5))
        bond = heisenberg_bond_potential((0,), (1,), coupling, delta)
        beta = float(rng.uniform(0.05, 1.0))
        rotation = random_rotation(rng)
        c = rng.normal(size=6)

        def observable(u, w, c=c):
            # c0 u_z + c1 w_x + c2 sin(u_x + c3 w_z) + c4 u_y w_y + c5 as a
            # sum of five products of one-site functions, by
            # sin(a + b) = sin a cos b + cos a sin b
            return (
                np.stack([c[0] * u[:, 2] + c[5], np.ones(len(u)), c[2] * np.sin(u[:, 0]),
                          c[2] * np.cos(u[:, 0]), c[4] * u[:, 1]], axis=-1),
                np.stack([np.ones(len(w)), c[1] * w[:, 0], np.cos(c[3] * w[:, 2]),
                          np.sin(c[3] * w[:, 2]), w[:, 1]], axis=-1),
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
