import math
import tracemalloc
from functools import lru_cache
from itertools import combinations, product as iterproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmsbounds.centering import NotCenteredError, decompose_recursive, partial_expectation
from kmsbounds.lattice import (
    InteractionFamily,
    LocalOperator,
    build_heisenberg,
    embed,
    operator_norm,
    operator_norms,
    spin_matrices,
)
from kmsbounds.norms import NormParams, norm_eps_zeta, psi_norm_sum
from kmsbounds.quantum import (
    ConvergenceWarning,
    FiniteSystem,
    SimplexQuadrature,
    _chains,
    _conjugate,
    constrained_chains,
    dyson_truncated,
    gibbs_expectation,
    hamiltonian,
    kms_residual,
    ks_kernel,
    ks_kernel_haar_mc,
    ks_kernel_norm_bound,
    ks_residual,
    tau_psi,
)
from kmsbounds.ti import Region, SpinRep, box_window

from ising_staggered import build_ising_staggered

REP = SpinRep(1)
RNG = np.random.default_rng(77)


def rand_hermitian(dim, rng=RNG):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = (m + m.conj().T) / 2
    return m / np.abs(np.linalg.eigvalsh(m)).max()


def heisenberg_system(nsites, beta, coupling=1.0, delta=1.0):
    window = box_window([nsites])
    return FiniteSystem(window, build_heisenberg(coupling, delta, REP, window), beta)


def transverse_system(nsites, beta, field=0.6):
    """Heisenberg bonds plus an S1 field: single-site part that does not
    commute with the bonds."""
    window = box_window([nsites])
    fam = build_heisenberg(1.0, 1.0, REP, window)
    s1, _, _ = spin_matrices(REP)
    terms = dict(fam.terms)
    for x in window:
        reg = Region((x,))
        terms[reg] = LocalOperator(reg, field * s1.matrix, 2)
    return FiniteSystem(window, InteractionFamily(terms, 2), beta)


def evolve(a, h, t):
    """e^{itH} A e^{-itH} for Hermitian H and complex time t, on the union of
    the two regions: a fresh eigendecomposition of H per call.  Real t is a
    unitary conjugation; t = i sigma is the similarity by e^{-sigma H} and
    e^{sigma H} used for imaginary-time continuation."""
    target = a.region.union(h.region)
    eig = np.linalg.eigh(embed(h, target).matrix)
    return LocalOperator._raw(target, _conjugate(embed(a, target).matrix, eig, t), a.site_dim)


def generator_delta(a, fam):
    """i sum over X meeting the support of a of [Phi_X, A]."""
    touching = [op for region, op in fam.terms.items() if len(region.intersection(a.region))]
    out_region = a.region
    for op in touching:
        out_region = out_region.union(op.region)
    acc = LocalOperator.zero(out_region, a.site_dim)
    a_e = embed(a, out_region)
    for op in touching:
        op_e = embed(op, out_region)
        acc = acc + 1j * (op_e @ a_e - a_e @ op_e)
    return acc


def delta_power_bound(fam, lam, a_norm, n, eps, zeta):
    """Norm bound on the n-th power of the generator applied to an observable
    on ``lam``:

        ||A|| e^{zeta ||Psi||_lam} e^{eps |lam|} n! 2^n zeta^{-n}
            sum_{k=0}^{n} ((zeta/eps) ||Phi_bar||_{eps, zeta})^k
    """
    q = (zeta / eps) * norm_eps_zeta(fam, NormParams(eps, zeta))
    geom = sum(q ** k for k in range(n + 1))
    return (
        a_norm
        * math.exp(zeta * psi_norm_sum(fam, lam))
        * math.exp(eps * len(lam))
        * math.factorial(n)
        * 2.0 ** n
        * zeta ** (-n)
        * geom
    )


class TestHamiltonian:
    def test_empty_family(self):
        window = box_window([2])
        system = FiniteSystem(window, InteractionFamily({}, 2), 1.0)
        assert not np.any(hamiltonian(system).matrix)

    def test_two_site_heisenberg_spectrum(self):
        # Phi_{x,y} = -J (S.S) at J = delta = 1: one triplet-shifted singlet
        system = heisenberg_system(2, 1.0)
        eigs = np.sort(np.linalg.eigvalsh(hamiltonian(system).matrix))
        assert np.allclose(eigs, [-0.25, -0.25, -0.25, 0.75], atol=1e-12)
        # the bond operator S.S itself carries the mirrored spectrum
        flipped = heisenberg_system(2, 1.0, coupling=-1.0)
        eigs = np.sort(np.linalg.eigvalsh(hamiltonian(flipped).matrix))
        assert np.allclose(eigs, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_staggered_two_site_matrix(self):
        window = box_window([2])
        fam = build_ising_staggered(1.0, 0.8, REP, window)
        system = FiniteSystem(window, fam, 1.0)
        _, _, s3 = spin_matrices(REP)
        expected = (
            np.kron(s3.matrix, s3.matrix)
            + 0.8 * np.kron(s3.matrix, np.eye(2))
            - 0.8 * np.kron(np.eye(2), s3.matrix)
        )
        assert np.allclose(hamiltonian(system).matrix, expected)


class TestGibbsExpectation:
    def test_identity(self):
        system = heisenberg_system(2, 1.3)
        ident = LocalOperator.identity(system.gamma, 2)
        assert gibbs_expectation(system, ident) == pytest.approx(1.0)

    def test_infinite_temperature(self):
        system = heisenberg_system(2, 0.0)
        a = LocalOperator(system.gamma, rand_hermitian(4), 2)
        assert gibbs_expectation(system, a).real == pytest.approx(
            np.trace(a.matrix).real / 4, rel=1e-12, abs=1e-12
        )

    def test_single_site_field(self):
        window = Region(((0,),))
        _, _, s3 = spin_matrices(REP)
        fam = InteractionFamily({window: s3}, 2)
        system = FiniteSystem(window, fam, 2.0)
        assert gibbs_expectation(system, s3).real == pytest.approx(
            -math.tanh(1.0) / 2, rel=1e-12
        )


class TestEvolve:
    def test_time_zero(self):
        h = hamiltonian(heisenberg_system(2, 1.0))
        a = LocalOperator(box_window([2]), rand_hermitian(4), 2)
        assert np.allclose(evolve(a, h, 0.0).matrix, a.matrix)

    def test_commuting_invariant(self):
        _, _, s3 = spin_matrices(REP)
        h = LocalOperator(s3.region, 2.0 * s3.matrix, 2)
        for t in (0.3, 1j * 0.4):
            assert np.allclose(evolve(s3, h, t).matrix, s3.matrix)

    def test_group_law(self):
        rng = np.random.default_rng(3)
        h = hamiltonian(heisenberg_system(2, 1.0))
        for _ in range(5):
            a = LocalOperator(box_window([2]), rand_hermitian(4, rng), 2)
            t, s = rng.uniform(-1, 1, size=2)
            once = evolve(evolve(a, h, t), h, s)
            direct = evolve(a, h, t + s)
            assert operator_norm(once - direct) <= 1e-9

    def test_real_time_preserves_norm(self):
        h = hamiltonian(heisenberg_system(3, 1.0))
        a = LocalOperator(box_window([3]), rand_hermitian(8), 2)
        assert operator_norm(evolve(a, h, 0.7)) == pytest.approx(
            operator_norm(a), abs=1e-10
        )

    def test_imaginary_time_similarity(self):
        _, _, s3 = spin_matrices(REP)
        sp = np.array([[0, 1], [0, 0]], dtype=complex)
        a = LocalOperator(s3.region, sp, 2)
        out = evolve(a, s3, 1j * 2.0)  # e^{-2 S3} S+ e^{2 S3} = e^{-2} S+
        assert np.allclose(out.matrix, math.exp(-2.0) * sp)


class TestGenerator:
    def test_identity_annihilated(self):
        system = heisenberg_system(3, 1.0)
        ident = LocalOperator.identity(box_window([2]), 2)
        assert operator_norm(generator_delta(ident, system.fam)) < 1e-14

    def test_finite_difference(self):
        system = transverse_system(3, 1.0)
        h = hamiltonian(system)
        a = LocalOperator(box_window([2]), rand_hermitian(4), 2)
        step = 1e-4
        fd = (evolve(a, h, step) - embed(a, system.gamma)) * (1.0 / step)
        gen = generator_delta(a, system.fam)
        bound = 2 * operator_norm(h) ** 2 * operator_norm(a) * step
        assert operator_norm(fd - embed(gen, system.gamma)) <= bound

    def test_dagger_identity(self):
        system = transverse_system(2, 1.0)
        m = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        a = LocalOperator(box_window([2]), m, 2)
        lhs = generator_delta(a.dagger(), system.fam)
        rhs = generator_delta(a, system.fam).dagger()
        assert operator_norm(lhs - rhs) < 1e-12
        # the sign-flipped identity is false for generic non-Hermitian input
        wrong = generator_delta(a, system.fam).dagger() + generator_delta(
            a.dagger(), system.fam
        )
        assert operator_norm(wrong) > 1e-3

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_power_growth_bound(self, n):
        system = transverse_system(3, 1.0)
        a = LocalOperator(box_window([2]), rand_hermitian(4), 2)
        current = a
        for _ in range(n):
            current = generator_delta(current, system.fam)
        bound = delta_power_bound(
            system.fam, a.region, operator_norm(a), n, eps=0.5, zeta=0.5
        )
        assert operator_norm(current) <= bound


def rule_loop(points, order, upper):
    """``SimplexQuadrature.rule`` as a loop over index tuples with sequential
    products: the reference the vectorized rule equals bit for bit."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(points)
    u, wu = (x + 1.0) / 2.0, w / 2.0
    nodes = np.empty((points ** order, order))
    weights = np.empty(points ** order)
    for row, combo in enumerate(iterproduct(range(points), repeat=order)):
        s_prev, wgt = upper, 1.0
        for axis, idx in enumerate(combo):
            s = s_prev * u[idx]
            wgt *= wu[idx] * s_prev
            nodes[row, axis] = s
            s_prev = s
        weights[row] = wgt
    return nodes, weights


def dyson_per_node(a, system, t, order, quad, imaginary=False):
    """``dyson_truncated`` one quadrature node at a time, each factor pictured
    and embedded afresh: the reference for the node stacks.  ``t`` is the
    upper limit, a real time or, with ``imaginary``, sigma of the time
    i sigma."""
    fam = system.fam

    def picture(op, s):
        return embed(tau_psi(op, fam, 1j * s if imaginary else s), system.gamma).matrix

    free = picture(a, t)
    total = free
    for n in range(1, order + 1):
        chains = constrained_chains(fam, n, a.region)
        if not chains:
            break
        nodes, weights = quad.rule(n, t)
        acc = np.zeros_like(free)
        for chain in chains:
            for s_row, wgt in zip(nodes, weights):
                current = free
                for ell in range(n):
                    b = picture(fam.terms[chain[ell]], s_row[ell])
                    current = b @ current - current @ b
                acc = acc + current * complex(wgt)
        total = total + ((-1.0 if imaginary else 1j) ** n) * acc
    return total


def ks_kernel_per_node(system, x, chain, times):
    """``ks_kernel`` at one node from 2^n ``LocalOperator`` products with one
    partial expectation each: the reference for the stacked kernels."""
    eta = system.reference_states
    grown = Region.of([x, *(site for region in chain for site in region)])
    factors = [
        embed(tau_psi(system.fam.terms[region], system.fam, 1j * s), grown)
        for region, s in zip(chain, times)
    ]
    identity = LocalOperator.identity(grown, system.site_dim)
    acc = LocalOperator.zero(grown, system.site_dim)
    n = len(chain)
    for mask in iterproduct((0, 1), repeat=n):
        left = identity
        for ell in reversed(range(n)):
            if mask[ell]:
                left = left @ factors[ell]
        averaged = embed(partial_expectation(left, Region((x,)), eta), grown)
        right = identity
        for ell in range(n):
            if not mask[ell]:
                right = right @ factors[ell]
        sign = -1.0 if (n - sum(mask)) % 2 else 1.0
        acc = acc + sign * (averaged @ right)
    return acc


def inclusion_exclusion(product, active, eta):
    """Refined components by the O(3^|active|) inclusion-exclusion sum over
    partial expectations: the reference for the subset transform."""
    region = product.region
    base = region.difference(active)
    active = region.intersection(active)
    tables = {
        X: embed(partial_expectation(product, region.difference(X.union(base)), eta), region)
        for X in active.subsets()
    }
    comps = {}
    for X in active.subsets():
        acc = LocalOperator.zero(region, product.site_dim)
        for Y in X.subsets():
            acc = acc + (-1.0 if (len(X) - len(Y)) % 2 else 1.0) * tables[Y]
        comps[X.union(base)] = acc
    return comps


def ks_residuals_per_node(system, elem, order, quad):
    """``ks_residual``'s target and residuals one node at a time: the
    reference for the node stacks."""
    eta = system.reference_states
    x = elem.region.min_site()
    target = gibbs_expectation(system, elem)
    partial = 0.0 + 0.0j
    residuals = {}
    for n in range(1, order + 1):
        total = 0.0 + 0.0j
        nodes, wgts = quad.rule(n, system.beta)
        for chain in constrained_chains(system.fam, n, Region((x,))):
            active = Region.of(site for region in chain for site in region)
            for s_row, wgt in zip(nodes, wgts):
                dressed = elem @ ks_kernel_per_node(system, x, chain, s_row)
                comps = inclusion_exclusion(dressed, active, eta)
                total += wgt * sum(gibbs_expectation(system, op) for op in comps.values())
        partial += (-1.0) ** (n + 1) * total
        residuals[n] = abs(target - partial)
    return target, residuals


class TestSimplexQuadrature:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_rule_equals_sequential_loop(self, order):
        """The cumulative products repeat the loop's arithmetic bit for bit,
        for every accepted point count (order 4 up to 12 points)."""
        for points in range(2, 33 if order < 4 else 13):
            for upper in (0.7, 0.05):
                nodes, weights = SimplexQuadrature(points).rule(order, upper)
                loop_nodes, loop_weights = rule_loop(points, order, upper)
                assert np.array_equal(nodes, loop_nodes)
                assert np.array_equal(weights, loop_weights)


    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_weights_sum_to_simplex_volume(self, order):
        quad = SimplexQuadrature(8)
        beta = 0.7
        nodes, weights = quad.rule(order, beta)
        assert np.all(weights > 0)
        assert weights.sum() == pytest.approx(
            beta ** order / math.factorial(order), rel=1e-12
        )
        # ordering 0 <= s_n <= ... <= s_1 <= beta
        assert np.all(nodes[:, 0] <= beta + 1e-15)
        for k in range(order - 1):
            assert np.all(nodes[:, k + 1] <= nodes[:, k] + 1e-15)

    def test_polynomial_exactness(self):
        # int over {0 <= s2 <= s1 <= 1} of s1 s2^2 = int s1^4/3 = 1/15
        quad = SimplexQuadrature(8)
        nodes, weights = quad.rule(2, 1.0)
        value = float((weights * nodes[:, 0] * nodes[:, 1] ** 2).sum())
        assert value == pytest.approx(1.0 / 15.0, rel=1e-12)

    def test_doubling_convergence(self):
        # smooth integrand: doubling the points changes the result negligibly
        f = lambda s: math.exp(s[0] - 2 * s[1] + 0.5 * s[2])
        results = []
        for pts in (8, 16):
            nodes, weights = SimplexQuadrature(pts).rule(3, 1.0)
            results.append(sum(w * f(s) for s, w in zip(nodes, weights)))
        assert abs(results[0] - results[1]) <= 1e-8 * abs(results[1])


class TestDyson:
    def test_order_zero_is_free_evolution(self):
        system = transverse_system(2, 1.0)
        a = LocalOperator(Region(((0,),)), rand_hermitian(2), 2)
        out = dyson_truncated(a, system, 0.1, 0)
        free = embed(tau_psi(a, system.fam, 0.1), system.gamma)
        assert operator_norm(out - free) < 1e-12

    def test_pure_single_site_exact_at_any_order(self):
        window = box_window([2])
        _, _, s3 = spin_matrices(REP)
        terms = {
            Region((x,)): LocalOperator(Region((x,)), 0.9 * s3.matrix, 2)
            for x in window
        }
        fam = InteractionFamily(terms, 2)
        system = FiniteSystem(window, fam, 1.0)
        a = LocalOperator(window, rand_hermitian(4), 2)
        h = hamiltonian(system)
        for order in (0, 2):
            out = dyson_truncated(a, system, 0.4, order)
            assert operator_norm(out - evolve(a, h, 0.4)) < 1e-12

    @pytest.mark.parametrize("order,factor", [(1, 2.8), (2, 5.6), (3, 11.2)])
    def test_halving_ratio(self, order, factor):
        system = heisenberg_system(3, 1.0)
        h = hamiltonian(system)
        _, _, s3 = spin_matrices(REP, at=(0,))
        errors = []
        for t in (0.1, 0.05):
            out = dyson_truncated(s3, system, t, order)
            errors.append(operator_norm(out - evolve(s3, h, t)))
        assert errors[0] / errors[1] >= factor

    @pytest.mark.parametrize("order,factor", [(1, 2.8), (2, 5.6)])
    def test_halving_ratio_noncommuting_system(self, order, factor):
        system = transverse_system(2, 1.0)
        h = hamiltonian(system)
        _, _, s3 = spin_matrices(REP, at=(0,))
        errors = []
        for t in (0.1, 0.05):
            out = dyson_truncated(s3, system, t, order)
            errors.append(operator_norm(out - evolve(s3, h, t)))
        assert errors[0] / errors[1] >= factor

    def test_imaginary_time_against_exact(self):
        system = transverse_system(2, 1.0)
        h = hamiltonian(system)
        a = LocalOperator(Region(((0,),)), rand_hermitian(2), 2)
        sigma = 0.05
        out = dyson_truncated(a, system, 1j * sigma, 3)
        exact = evolve(a, h, 1j * sigma)
        assert operator_norm(out - exact) <= 1e-6 * operator_norm(exact)

    def test_tau_psi_without_single_site_part_returns_argument(self):
        system = heisenberg_system(3, 1.0)
        a = LocalOperator(box_window([2]), rand_hermitian(4), 2)
        assert tau_psi(a, system.fam, 0.3) is a
        assert tau_psi(a, system.fam, 0.3j) is a

    def test_one_eigendecomposition_per_site(self, monkeypatch):
        system = transverse_system(3, 1.0)
        _, _, s3 = spin_matrices(REP, at=(0,))
        shapes = []
        eigh = np.linalg.eigh

        def counting_eigh(m):
            shapes.append(np.shape(m))
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        dyson_truncated(s3, system, 0.1, 3)
        assert shapes == [(2, 2)] * len(system.gamma)

    def test_bond_terms_embedded_once_without_field(self, monkeypatch):
        """Without a single-site part every pictured bond term is the bond
        term itself, whatever the node time: one embedding per bond."""
        from kmsbounds import quantum

        system = heisenberg_system(3, 1.0)
        bonds = system.fam.multilocal()
        embedded = []
        embed_fn = quantum.embed

        def counting_embed(op, target):
            embedded.append(op.region)
            return embed_fn(op, target)

        monkeypatch.setattr(quantum, "embed", counting_embed)
        _, _, s3 = spin_matrices(REP, at=(0,))
        dyson_truncated(s3, system, 0.1, 3)
        assert sorted(r.sites for r in embedded if r in bonds) == sorted(
            r.sites for r in bonds
        )

    @pytest.mark.parametrize("nsites", [2, 3])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_node_stack_matches_per_node_loop(self, nsites, order):
        """With a single-site part every factor depends on its node; without
        one every chain broadcasts as one node.  Both agree with the loop
        over nodes to 1e-12 relative, in real and imaginary time."""
        quad = SimplexQuadrature(5)
        a = LocalOperator(Region(((0,),)), rand_hermitian(2, np.random.default_rng(nsites)), 2)
        for system in (transverse_system(nsites, 1.0), heisenberg_system(nsites, 1.0)):
            for t, imaginary in ((0.1, False), (0.05j, True)):
                stacked = dyson_truncated(a, system, t, order, quad).matrix
                loop = dyson_per_node(a, system, abs(t), order, quad, imaginary)
                assert np.linalg.norm(stacked - loop, 2) <= 1e-12 * np.linalg.norm(loop, 2)

    def test_convergence_warning(self):
        system = heisenberg_system(2, 1.0)
        a = LocalOperator(Region(((0,),)), rand_hermitian(2), 2)
        with pytest.warns(ConvergenceWarning):
            dyson_truncated(a, system, 50.0, 1)

    def test_mixed_complex_time_rejected(self):
        system = heisenberg_system(2, 1.0)
        a = LocalOperator(Region(((0,),)), rand_hermitian(2), 2)
        with pytest.raises(ValueError):
            dyson_truncated(a, system, 0.1 + 0.1j, 1)


class TestKMS:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_gibbs_residual(self, beta):
        rng = np.random.default_rng(int(beta * 10))
        for nsites in (2, 3):
            system = heisenberg_system(nsites, beta)
            dim = 2 ** nsites
            a = LocalOperator(system.gamma, rand_hermitian(dim, rng), 2)
            b = LocalOperator(system.gamma, rand_hermitian(dim, rng), 2)
            tol = (
                1e-9
                * operator_norm(a)
                * operator_norm(b)
                * math.exp(2 * beta * operator_norm(hamiltonian(system)))
            )
            assert kms_residual(system, a, b) <= tol

    def test_identity_argument(self):
        system = heisenberg_system(2, 1.0)
        a = LocalOperator(system.gamma, rand_hermitian(4), 2)
        ident = LocalOperator.identity(system.gamma, 2)
        assert kms_residual(system, a, ident) < 1e-12

    def test_maximally_mixed_fails(self):
        system = heisenberg_system(2, 1.0)
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(10):
            a = LocalOperator(system.gamma, rand_hermitian(4, rng), 2)
            b = LocalOperator(system.gamma, rand_hermitian(4, rng), 2)
            r = kms_residual(
                system, a, b, (np.eye(4, dtype=complex), np.full(4, 0.25))
            )
            hits += r > 1e-3
        assert hits >= 9

    def test_stack_matches_one_at_a_time(self):
        """Residuals of a stack of draws, in the Gibbs and in a mismatched
        state, are bit for bit those of each draw alone."""
        rng = np.random.default_rng(8)
        system = heisenberg_system(3, 1.0)
        a_mats, b_mats = (np.array([rand_hermitian(8, rng) for _ in range(5)]) for _ in "ab")
        a, b = (LocalOperator._raw(system.gamma, m, 2) for m in (a_mats, b_mats))
        for state in (None, (np.eye(8, dtype=complex), np.full(8, 1 / 8))):
            stacked = kms_residual(system, a, b, state)
            assert stacked.shape == (5,)
            for k in range(5):
                single = kms_residual(
                    system, LocalOperator(system.gamma, a_mats[k], 2),
                    LocalOperator(system.gamma, b_mats[k], 2), state,
                )
                assert stacked[k] == single


@pytest.fixture
def cold_chains():
    """The suites' cached Heisenberg chains cleared, so that work counts do
    not depend on the tests that ran before in this process."""
    from kmsbounds import verify

    verify._heisenberg_family.cache_clear()


@pytest.mark.usefixtures("cold_chains")
class TestGibbsState:
    """Each system builds its reference states once, and each family builds
    the Hamiltonian of a lattice and diagonalizes it once, however many
    systems, expectations, residuals and kernels read them."""

    @staticmethod
    def counting(monkeypatch, owner, name, calls):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def test_kms_suite_work(self, monkeypatch):
        from kmsbounds import quantum
        from kmsbounds.verify import run_kms_suite

        calls = []
        self.counting(monkeypatch, quantum, "hamiltonian", calls)
        self.counting(monkeypatch, np.linalg, "eigh", calls)
        checks = run_kms_suite(0)
        assert all(c.passed for c in checks)
        # one system per (number of sites, beta), 2 x 3, on one chain family
        # per number of sites
        assert calls.count("hamiltonian") == 2
        assert calls.count("eigh") == 2
        # a second run builds no chain
        calls.clear()
        run_kms_suite(1)
        assert calls == []

    def test_ks_suite_reference_states_once_per_system(self, monkeypatch):
        from kmsbounds.centering import ReferenceStates
        from kmsbounds.verify import run_ks_suite

        calls = []
        from_interaction = ReferenceStates.from_interaction.__func__
        monkeypatch.setattr(
            ReferenceStates,
            "from_interaction",
            classmethod(lambda cls, *a: calls.append(a) or from_interaction(cls, *a)),
        )
        run_ks_suite(0, order=2)
        assert len(calls) <= 2

    def test_dyson_suite_diagonalizes_once(self, monkeypatch):
        """The exact evolution at each time reads the system's cached
        eigendecomposition."""
        from kmsbounds.verify import run_dyson_suite

        calls = []
        self.counting(monkeypatch, np.linalg, "eigh", calls)
        assert all(c.passed for c in run_dyson_suite(0))
        assert len(calls) == 1

    def test_ks_suite_eigendecompositions(self, monkeypatch):
        """The Haar Monte-Carlo kernel reads the family's cached single-site
        eigendecomposition instead of diagonalizing the site term again."""
        from kmsbounds.verify import run_ks_suite

        calls = []
        self.counting(monkeypatch, np.linalg, "eigh", calls)
        # two single-site terms of the Monte-Carlo family, their two
        # reference densities and the chain of the residual check
        assert all(c.passed for c in run_ks_suite(0, order=2))
        assert len(calls) == 5

    def test_system_evolve_matches_evolve(self):
        system = transverse_system(2, 0.8)
        a = LocalOperator(Region(((0,),)), rand_hermitian(2), 2)
        for t in (0.3, 0.5j):
            expected = evolve(a, system.h, t)
            assert np.array_equal(system.evolve(a, t).matrix, expected.matrix)

    def test_cached_facts_match_fresh_computation(self):
        system = transverse_system(2, 0.8)
        w, v = np.linalg.eigh(hamiltonian(system).matrix)
        assert np.array_equal(system.eigh[0], w)
        assert system.eigh is system.eigh
        basis, weights = system.gibbs
        assert weights.sum() == pytest.approx(1.0, rel=1e-14)
        assert system.reference_states is system.reference_states

    def test_system_is_frozen(self):
        import dataclasses

        system = heisenberg_system(2, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.beta = 2.0


@pytest.mark.usefixtures("cold_chains")
class TestSharedChain:
    """The suites' chains of one site count share one family, Hamiltonian
    and eigendecomposition across beta, and compute what a system built
    afresh computes, bit for bit."""

    @pytest.mark.parametrize("nsites", [2, 3])
    def test_betas_share_hamiltonian_and_eigh(self, nsites):
        from kmsbounds.verify import _heisenberg_chain

        cold, hot = _heisenberg_chain(nsites, 2.0), _heisenberg_chain(nsites, 0.5)
        assert cold.fam is hot.fam
        assert cold.h is hot.h
        assert cold.eigh is hot.eigh
        assert cold.gibbs is not hot.gibbs

    @pytest.mark.parametrize("nsites", [2, 3])
    def test_shared_system_matches_fresh_system(self, nsites):
        from kmsbounds.verify import _heisenberg_chain

        rng = np.random.default_rng(nsites)
        dim = 2 ** nsites
        a, b = (LocalOperator(box_window([nsites]), rand_hermitian(dim, rng), 2)
                for _ in range(2))
        _heisenberg_chain(nsites, 0.5).eigh  # warm the shared cache at another beta
        for beta in (0.5, 1.0, 2.0):
            shared = _heisenberg_chain(nsites, beta)
            fresh = heisenberg_system(nsites, beta)
            for got, want in zip(shared.gibbs, fresh.gibbs):
                assert np.array_equal(got, want)
            for t in (0.3, 0.5j):
                assert np.array_equal(shared.evolve(a, t).matrix, fresh.evolve(a, t).matrix)
            assert np.array_equal(kms_residual(shared, a, b), kms_residual(fresh, a, b))

    def test_shared_arrays_are_read_only(self):
        from kmsbounds.verify import _heisenberg_chain

        system = _heisenberg_chain(2, 1.0)
        w, v = system.eigh
        term = next(iter(system.fam.terms.values()))
        for arr in (term.matrix, system.h.matrix, v, w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_suite_order_does_not_matter(self):
        """kms, dyson and ks at seeds 0-2 from cold chains, then in the
        reverse order on the warm chains: the same checks."""
        from kmsbounds.verify import SUITES

        runs = [(name, seed) for name in ("kms", "dyson", "ks") for seed in range(3)]

        def checks(order):
            return {run: [c.to_dict() for c in SUITES[run[0]](seed=run[1])] for run in order}

        assert checks(runs) == checks(runs[::-1])


def lemma_sum_check(alpha, lam, n, eps):
    """Exact constrained chain sum against its combinatorial bound, one
    family at a time: the oracle of the lemma suite's array program.

    Returns (lhs, rhs) with
      lhs = sum over constrained chains of prod alpha_{X_j},
      rhs = n! eps^{-n} e^{eps |lam|} (sup_x sum_{X : x} e^{eps(|X|-1)} alpha_X)^n.

    lhs is f_n(lam) for the recursion f_k(S) = sum over X meeting S of
    alpha_X f_{k-1}(S u X), f_0 = 1, memoized on (k, S) with S a site
    bitmask: one term per region and grown set instead of one per chain.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    support = {r: w for r, w in alpha.items() if w != 0.0}
    bits = {}  # site -> its bit
    for site in (*lam, *(site for region in support for site in region)):
        bits.setdefault(site, 1 << len(bits))
    weights = [(sum(bits[x] for x in r), w) for r, w in support.items()]

    @lru_cache(maxsize=None)
    def chain_sum(k, grown):
        if k == 0:
            return 1.0
        total = 0.0
        for mask, w in weights:
            if mask & grown:
                total += w * chain_sum(k - 1, grown | mask)
        return total

    lhs = chain_sum(n, sum(bits[x] for x in lam))
    site_sup = 0.0
    for x in bits:
        s = sum(math.exp(eps * (len(r) - 1)) * w for r, w in support.items() if x in r)
        site_sup = max(site_sup, s)
    rhs = (
        math.factorial(n)
        * eps ** (-n)
        * math.exp(eps * len(lam))
        * site_sup ** n
    )
    return lhs, rhs


class TestLemma:
    def test_single_region_order_one(self):
        region = Region.of([(0,), (1,)])
        lhs, rhs = lemma_sum_check({region: 1.0}, Region(((0,),)), 1, 0.5)
        assert lhs == 1.0
        assert lhs <= rhs

    def test_random_families(self):
        rng = np.random.default_rng(11)
        window = list(box_window([4]))
        from itertools import combinations

        regions = [
            Region.of(c) for size in (1, 2, 3) for c in combinations(window, size)
        ]
        for _ in range(50):
            chosen = rng.choice(len(regions), size=4, replace=False)
            alpha = {regions[k]: float(rng.uniform(0.1, 1)) for k in chosen}
            lam = Region.of([window[k] for k in rng.choice(4, size=2, replace=False)])
            for n in (1, 2, 3):
                lhs, rhs = lemma_sum_check(alpha, lam, n, 0.7)
                assert lhs <= rhs * (1 + 1e-12)

    @given(st.floats(0.01, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, c):
        regions = [Region.of([(0,), (1,)]), Region.of([(1,), (2,)])]
        alpha = {regions[0]: 0.4, regions[1]: 0.9}
        scaled = {r: c * w for r, w in alpha.items()}
        lam = Region(((0,),))
        for n in (1, 2):
            lhs, rhs = lemma_sum_check(alpha, lam, n, 0.5)
            lhs_c, rhs_c = lemma_sum_check(scaled, lam, n, 0.5)
            assert lhs_c == pytest.approx(c ** n * lhs, rel=1e-12)
            assert rhs_c == pytest.approx(c ** n * rhs, rel=1e-12)


def enumerated_chain_sum(alpha, lam, n):
    """The chain sum by enumeration: every constrained chain over all regions
    of ``alpha``, zero weights included, contributes its weight product."""
    return sum(math.prod(alpha[r] for r in chain) for chain in _chains(list(alpha), n, lam))


def random_family(window, rng, zero_share=0.0):
    """2 to 6 regions of one to three sites of ``window`` with uniform
    weights, each set to zero with probability ``zero_share``."""
    sites = list(window)
    regions = [Region.of(c) for size in (1, 2, 3) for c in combinations(sites, size)]
    chosen = rng.choice(len(regions), size=int(rng.integers(2, 7)), replace=False)
    return {
        regions[k]: 0.0 if rng.uniform() < zero_share else float(rng.uniform(0.05, 1.0))
        for k in chosen
    }


class TestLemmaChainSum:
    """The memoized recursion of ``lemma_sum_check`` against the enumeration
    of every constrained chain (``quantum._chains``)."""

    @pytest.mark.parametrize("extents", [[4], [5], [2, 2], [3, 2]])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_enumeration(self, extents, n):
        window = box_window(extents)
        sites = list(window)
        rng = np.random.default_rng(len(sites) + 10 * n)
        for _ in range(8):
            alpha = random_family(window, rng)
            # a start that meets the family's first region
            picked = rng.choice(len(sites), size=int(rng.integers(0, 3)), replace=False)
            lam = Region.of([next(iter(alpha)).sites[0], *(sites[k] for k in picked)])
            lhs, _ = lemma_sum_check(alpha, lam, n, 0.7)
            oracle = enumerated_chain_sum(alpha, lam, n)
            assert oracle > 0
            assert lhs == pytest.approx(oracle, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_zero_weights(self, n):
        """Zero weights contribute nothing, and a family of only zero weights
        sums to zero with a zero bound."""
        window = box_window([3, 2])
        rng = np.random.default_rng(40 + n)
        lam = Region.of([(0, 0), (1, 1)])
        for _ in range(8):
            alpha = random_family(window, rng, zero_share=0.4)
            lhs, _ = lemma_sum_check(alpha, lam, n, 0.7)
            assert lhs == pytest.approx(enumerated_chain_sum(alpha, lam, n), rel=1e-13, abs=0.0)
        zeros = dict.fromkeys(alpha, 0.0)
        assert lemma_sum_check(zeros, lam, n, 0.7) == (0.0, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_start_disjoint_from_every_region(self, n):
        """A start outside every region of the family (on sites 0-2 of a
        five-site chain): no chain starts, so the sum is exactly zero, while
        the bound is not."""
        rng = np.random.default_rng(50 + n)
        for _ in range(5):
            alpha = random_family(box_window([3]), rng)
            lam = Region.of([(4,)]) if n % 2 else Region.of([(3,), (4,)])
            lhs, rhs = lemma_sum_check(alpha, lam, n, 0.7)
            assert enumerated_chain_sum(alpha, lam, n) == 0
            assert lhs == 0.0
            assert rhs > 0.0


def lemma_family(weights, lam):
    """One row of the lemma suite's draws as ``lemma_sum_check``'s family
    and start: regions and sites by their bitmasks on the four-site window."""
    from kmsbounds.verify import LEMMA_REGIONS, LEMMA_SITES

    def region(mask):
        return Region.of([(k,) for k in range(LEMMA_SITES) if mask >> k & 1])

    alpha = {region(m): float(w) for m, w in zip(LEMMA_REGIONS, weights) if w != 0.0}
    return alpha, region(int(lam))


class TestLemmaSuite:
    """The lemma suite's array program: its draws follow the stated
    distributions, and each draw's sides are the oracle's."""

    EPS = (0.3, 0.7, 1.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_sides_match_oracle(self, seed):
        from kmsbounds.verify import _lemma_draws, _lemma_sides, run_lemma_suite

        weights, lam, n, eps = _lemma_draws(np.random.default_rng(seed), 500, self.EPS)
        lhs, rhs = _lemma_sides(weights, lam, n, eps)
        ratios = []
        for row in range(500):
            alpha, start = lemma_family(weights[row], lam[row])
            lhs_o, rhs_o = lemma_sum_check(alpha, start, int(n[row]), float(eps[row]))
            assert lhs[row] == pytest.approx(lhs_o, rel=1e-12, abs=0.0)
            assert rhs[row] == pytest.approx(rhs_o, rel=1e-12, abs=0.0)
            ratios.append(lhs_o / rhs_o)
        checks = {c.name: c for c in run_lemma_suite(seed, 500, self.EPS)}
        assert checks["worst_lhs_over_rhs"].value == pytest.approx(max(ratios), rel=1e-12)
        assert checks["chain_sum_violations"].value == 0.0

    def test_draw_distributions(self):
        """2-6 distinct regions of 1-3 of the four sites, weights U(0.05, 1),
        lam of 1-3 distinct sites and n of 1-3 (each count uniform, each
        region and site equally likely), eps cycling by draw index."""
        from kmsbounds.verify import LEMMA_REGIONS, _lemma_draws

        sizes = [bin(m).count("1") for m in LEMMA_REGIONS]
        assert sorted(LEMMA_REGIONS) == [m for m in range(16) if 1 <= bin(m).count("1") <= 3]
        assert len(set(LEMMA_REGIONS)) == len(LEMMA_REGIONS) == 14 and max(sizes) == 3
        draws = 3000
        weights, lam, n, eps = _lemma_draws(np.random.default_rng(5), draws, self.EPS)
        assert weights.shape == (draws, len(LEMMA_REGIONS))
        chosen = weights != 0.0
        count = chosen.sum(axis=1)
        lam_size = np.array([bin(m).count("1") for m in lam])
        assert 0 <= lam.min() and lam.max() < 16
        for values, support in ((count, range(2, 7)), (lam_size, range(1, 4)), (n, range(1, 4))):
            assert set(values.tolist()) == set(support)
            shares = np.bincount(values, minlength=support.stop)[support.start:] / draws
            assert np.abs(shares - 1 / len(support)).max() < 0.04
        # each region and each site is equally likely to be picked
        assert np.abs(chosen.mean(axis=0) - count.mean() / 14).max() < 0.04
        lam_sites = (lam[:, None] >> np.arange(4)) & 1
        assert np.abs(lam_sites.mean(axis=0) - lam_size.mean() / 4).max() < 0.04
        picked = weights[chosen]
        assert 0.05 <= picked.min() and picked.max() < 1.0
        assert picked.mean() == pytest.approx(0.525, abs=0.01)
        assert np.abs(np.histogram(picked, bins=5, range=(0.05, 1.0))[0] / len(picked) - 0.2).max() < 0.03
        assert eps.tolist() == [self.EPS[i % 3] for i in range(draws)]


class TestKSKernel:
    def test_order_one_without_single_site(self):
        system = heisenberg_system(2, 0.8)
        bond_region = next(iter(system.fam.multilocal()))
        kernel = ks_kernel(system, (0,), [bond_region], [[0.1]])
        eta = system.reference_states
        phib = system.fam.terms[bond_region]
        expected = embed(
            partial_expectation(phib, Region(((0,),)), eta), bond_region
        ) - embed(phib, bond_region)
        assert kernel.region == bond_region
        assert operator_norms(kernel.matrix[0] - expected.matrix) < 1e-12

    def test_norm_bound_on_random_chains(self):
        system = transverse_system(2, 0.7)
        bond_region = next(iter(system.fam.multilocal()))
        rng = np.random.default_rng(19)
        for n in (1, 2, 3):
            chain = [bond_region] * n
            times = np.sort(rng.uniform(0, system.beta, size=(1, n)), axis=1)[:, ::-1]
            kernel = ks_kernel(system, (0,), chain, times)
            bound = ks_kernel_norm_bound(system, chain)
            assert operator_norms(kernel.matrix) < bound

    def test_monte_carlo_cross_check(self):
        system = transverse_system(2, 0.5)
        bond_region = next(iter(system.fam.multilocal()))
        (exact,) = ks_kernel(system, (0,), [bond_region], [[0.15]]).matrix
        mean, sigma = ks_kernel_haar_mc(
            system, (0,), bond_region, 0.15, samples=10000, seed=13
        )
        assert np.linalg.norm(mean - exact) <= 3 * sigma

    @pytest.mark.parametrize("samples", [1, 255, 256, 257, 10000])
    def test_monte_carlo_matches_per_sample_loop(self, samples):
        system = transverse_system(2, 0.5)
        bond_region = next(iter(system.fam.multilocal()))
        x, s, seed = (0,), 0.15, 13
        mean, sigma = ks_kernel_haar_mc(system, x, bond_region, s, samples=samples, seed=seed)
        # reference: one Haar draw at a time, embedded at the first site by kron
        d = system.site_dim
        rng = np.random.default_rng(seed)
        w, v = np.linalg.eigh(system.fam.psi(x).matrix)
        damp = (v * np.exp(-system.beta * w)) @ v.conj().T
        normalizer = np.trace(damp).real / d
        b = tau_psi(system.fam.terms[bond_region], system.fam, 1j * s).matrix
        dressed = np.kron(damp, np.eye(d))
        draws = np.empty((samples, d * d, d * d), dtype=complex)
        for i in range(samples):
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, r = np.linalg.qr(z)
            phases = np.diagonal(r).copy()
            phases /= np.abs(phases)
            u = np.kron(q * phases, np.eye(d))
            m = b @ dressed @ u - dressed @ u @ b
            draws[i] = (u.conj().T @ m) / normalizer
        assert np.array_equal(mean, draws.mean(axis=0))
        if samples > 1:
            var = draws.var(axis=0, ddof=1) / samples
            assert sigma == math.sqrt(float(np.abs(var).sum()))
        else:
            assert sigma == math.inf

    def test_chain_must_start_at_site(self):
        system = heisenberg_system(3, 0.5)
        regions = sorted(system.fam.multilocal(), key=lambda r: r.sites)
        far_bond = regions[1]  # {(1,),(2,)} does not contain (0,)
        with pytest.raises(ValueError, match="must contain the site"):
            ks_kernel(system, (0,), [far_bond], [[0.1]])

    @pytest.mark.parametrize("nbonds, times, match", [
        (0, np.zeros((1, 0)), "chain length"),
        (4, np.full((1, 4), 0.1), "chain length"),
        (2, [0.2, 0.1], r"\(N, n\) array"),
        (2, [[0.2, 0.1, 0.05]], r"\(N, n\) array"),
        (2, [[0.2], [0.1]], r"\(N, n\) array"),
        (2, [[0.2, 0.1], [0.2, -1e-3]], r"\[0, beta\]"),
        (2, [[0.5 * (1 + 1e-9), 0.1]], r"\[0, beta\]"),
        (2, [[0.2, np.nan]], r"\[0, beta\]"),
        (1, [[np.nan]], r"\[0, beta\]"),
    ])
    def test_rejects_chain_length_and_times(self, nbonds, times, match):
        """Each input is valid but for the one thing named by ``match``:
        the chain repeats the bond at the site, and times lie in [0, beta]
        unless that is the fault."""
        system = heisenberg_system(3, 0.5)
        bond = Region(((0,), (1,)))
        with pytest.raises(ValueError, match=match):
            ks_kernel(system, (0,), [bond] * nbonds, times)

    def test_accepts_times_at_the_ends(self):
        system = transverse_system(2, 0.5)
        bond = Region(((0,), (1,)))
        kernel = ks_kernel(system, (0,), [bond, bond], [[0.5, 0.0], [0.5 * (1 + 1e-13), 0.25]])
        assert kernel.matrix.shape == (2, 4, 4)

    def test_rejects_chain_breaking_the_overlap_rule(self):
        system = heisenberg_system(4, 0.5)
        near, far = Region(((0,), (1,))), Region(((2,), (3,)))
        ks_kernel(system, (0,), [near, Region(((1,), (2,))), far], [[0.3, 0.2, 0.1]])
        with pytest.raises(ValueError, match="overlap constraint"):
            ks_kernel(system, (0,), [near, far], [[0.2, 0.1]])

    def test_stack_equals_rows_one_at_a_time(self):
        """The kernels of N rows of times in one call are the kernels of
        each row alone, bit for bit: the identity the suite's stacks use."""
        system = transverse_system(3, 0.4)
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            for chain in constrained_chains(system.fam, n, Region(((0,),))):
                times = np.sort(system.beta * rng.uniform(size=(6, n)), axis=1)[:, ::-1]
                stacked = ks_kernel(system, (0,), chain, times)
                dim = 2 ** len(stacked.region)
                assert stacked.matrix.shape == (6, dim, dim)
                for row, kernel in zip(times, stacked.matrix):
                    alone = ks_kernel(system, (0,), chain, row[None])
                    assert alone.region == stacked.region
                    assert np.array_equal(alone.matrix[0], kernel)

    def test_chain_without_single_site_term_is_one_row(self):
        system = heisenberg_system(3, 0.5)
        chain = [Region(((0,), (1,))), Region(((1,), (2,)))]
        times = np.sort(system.beta * np.random.default_rng(2).uniform(size=(5, 2)), axis=1)
        kernel = ks_kernel(system, (0,), chain, times[:, ::-1])
        assert kernel.region == box_window([3])
        assert kernel.matrix.shape == (1, 8, 8)


def tenth_of_bound_with_single_site(monkeypatch):
    """Replace ``ks_kernel_norm_bound`` in ``quantum`` and ``verify`` by a
    tenth of the bound for systems with a single-site part, the true bound
    otherwise: the ``ks`` suite's Monte-Carlo system breaks it, and the
    bond-only chain of its residual check does not."""
    from kmsbounds import quantum, verify

    def bound(system, chain):
        single_site = any(system.fam.psi_eigh(x) is not None for x in system.gamma)
        return ks_kernel_norm_bound(system, chain) / (10.0 if single_site else 1.0)

    for module in (quantum, verify):
        monkeypatch.setattr(module, "ks_kernel_norm_bound", bound)


class TestKernelBoundChecks:
    def test_suite_check_fails_on_a_broken_bound(self, monkeypatch):
        from kmsbounds.verify import run_ks_suite

        tenth_of_bound_with_single_site(monkeypatch)
        checks = {c.name: c for c in run_ks_suite(seed=0, mc_samples=100, order=2)}
        assert not checks["kernel_norm_bound"].passed
        assert checks["kernel_norm_bound"].value > 1.0
        assert checks["telescoping_error"].passed

    def test_cli_reports_a_broken_bound(self, monkeypatch, tmp_path, capsys):
        import json

        from kmsbounds.cli import main

        tenth_of_bound_with_single_site(monkeypatch)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": "heisenberg"}))
        assert main(["verify", "--suite", "ks", "--config", str(config)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        (check,) = [c for c in doc["suites"]["ks"] if c["name"] == "kernel_norm_bound"]
        assert check["passed"] is False

    def test_residual_raises_on_a_broken_bound(self, monkeypatch):
        from kmsbounds import quantum

        monkeypatch.setattr(quantum, "ks_kernel_norm_bound",
                            lambda system, chain: ks_kernel_norm_bound(system, chain) / 10.0)
        system = heisenberg_system(2, 0.1)
        elem = decompose_recursive(
            LocalOperator(system.gamma, rand_hermitian(4, np.random.default_rng(3)), 2),
            system.reference_states,
        ).components[system.gamma]
        with pytest.raises(AssertionError, match="kernel norm bound violated"):
            ks_residual(system, elem, order=2)


def test_ks_suite_memory_peak():
    # the Haar kernel holds its 10,000 two-site samples (2.56 MB) and sums
    # their squared deviations a chunk at a time; np.var's two more arrays of
    # that size would not fit under the bound
    from kmsbounds.verify import run_ks_suite

    tracemalloc.start()
    try:
        run_ks_suite(seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6


class TestKSResidual:
    def centered_element(self, system, seed=3):
        rng = np.random.default_rng(seed)
        eta = system.reference_states
        a = LocalOperator(system.gamma, rand_hermitian(2 ** len(system.gamma), rng), 2)
        return decompose_recursive(a, eta).components[system.gamma]

    def test_no_multilocal_part_vanishes(self):
        window = box_window([2])
        _, _, s3 = spin_matrices(REP)
        terms = {
            Region((x,)): LocalOperator(Region((x,)), 0.7 * s3.matrix, 2)
            for x in window
        }
        system = FiniteSystem(window, InteractionFamily(terms, 2), 1.1)
        elem = self.centered_element(system)
        report = ks_residual(system, elem, order=2)
        # the Gibbs state factorizes over sites, so the centered expectation
        # vanishes and no chains contribute
        assert abs(report.omega) < 1e-12
        assert all(r < 1e-12 for r in report.residuals.values())

    def test_two_site_benchmark_decay(self):
        from kmsbounds.bounds import beta_u_optimized
        from kmsbounds.ti import heisenberg_ti

        threshold = beta_u_optimized(heisenberg_ti(1, 1.0, 1.0, REP)).beta
        system = heisenberg_system(2, threshold / 10)
        elem = self.centered_element(system, seed=9)
        report = ks_residual(system, elem, order=3)
        res = report.residuals
        scale = operator_norm(elem)
        assert res[2] < res[1] and res[3] < res[2]
        assert res[3] < 1e-4 * scale
        assert report.telescoping_error <= 1e-10

    def test_decay_with_noncommuting_single_site(self):
        system = transverse_system(2, 0.01)
        elem = self.centered_element(system, seed=4)
        res = ks_residual(system, elem, order=3).residuals
        assert res[2] < res[1] and res[3] < res[2]

    @pytest.mark.parametrize("nsites", [2, 3])
    def test_node_stack_matches_per_node_loop(self, nsites):
        """On a system whose single-site part makes every kernel depend on its
        node, the stacked kernels, subset transform and expectations give the
        per-node loop's residuals to 1e-12 relative."""
        system = transverse_system(nsites, 0.2)
        elem = self.centered_element(system, seed=nsites)
        quad = SimplexQuadrature(4)
        report = ks_residual(system, elem, order=3, quad=quad)
        target, residuals = ks_residuals_per_node(system, elem, 3, quad)
        assert report.omega == pytest.approx(target.real, rel=1e-12)
        for n, value in residuals.items():
            assert report.residuals[n] == pytest.approx(value, rel=1e-12, abs=1e-12 * abs(target))

    def test_kernel_matches_per_node_kernel(self):
        system = transverse_system(3, 0.4)
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            for chain in constrained_chains(system.fam, n, Region(((0,),))):
                times = np.sort(system.beta * rng.uniform(size=n))[::-1]
                stacked = ks_kernel(system, (0,), chain, times[None])
                loop = ks_kernel_per_node(system, (0,), chain, times)
                assert stacked.region == loop.region
                error = operator_norms(stacked.matrix[0] - loop.matrix)
                assert error <= 1e-12 * operator_norm(loop)

    def test_rejects_uncentered_element(self):
        system = heisenberg_system(2, 0.1)
        bad = LocalOperator(system.gamma, rand_hermitian(4), 2)
        with pytest.raises(NotCenteredError):
            ks_residual(system, bad, order=1)


class TestChains:
    def test_growth_constraint(self):
        system = heisenberg_system(3, 1.0)
        start = Region(((0,),))
        chains1 = constrained_chains(system.fam, 1, start)
        assert len(chains1) == 1  # only the (0,1) bond touches site 0
        chains2 = constrained_chains(system.fam, 2, start)
        assert len(chains2) == 2  # second factor may be either bond
        chains3 = constrained_chains(system.fam, 3, start)
        assert len(chains3) == 4


class TestDeterminism:
    def test_seeded_suites_are_reproducible(self):
        from kmsbounds.verify import run_dyson_suite, run_ks_suite

        first = [c.to_dict() for c in run_ks_suite(seed=0, mc_samples=2000, order=2)]
        second = [c.to_dict() for c in run_ks_suite(seed=0, mc_samples=2000, order=2)]
        assert first == second
        assert [c.to_dict() for c in run_dyson_suite(seed=0)] == [
            c.to_dict() for c in run_dyson_suite(seed=0)
        ]

    def test_dimension_cap_on_system(self):
        from kmsbounds.lattice import InteractionFamily
        from kmsbounds.ti import DimensionCapError

        with pytest.raises(DimensionCapError):
            FiniteSystem(box_window([13]), InteractionFamily({}, 2), 1.0)


class TestDysonSuite:
    """The halving check asks for 11/16 of the claimed t^{N+1} rate 2^{N+1}:
    2.75, 5.5, 11 and 22 for orders 1 to 4."""

    @pytest.mark.parametrize("order, threshold", [(1, 2.75), (2, 5.5), (3, 11.0), (4, 22.0)])
    def test_threshold_by_order(self, monkeypatch, order, threshold):
        """An error shrinking exactly like t^{N+1} passes, and one shrinking
        like t^N fails; the truncated series is replaced by exact evolution
        plus that error so that order 4 (a minute of quadrature) stays cheap."""
        from kmsbounds import verify

        for power, passes in ((order + 1, True), (order, False)):
            def truncated(a, system, t, n, quad, power=power):
                return evolve(a, hamiltonian(system), t) + a * t ** power

            monkeypatch.setattr(verify, "dyson_truncated", truncated)
            (check,) = verify.run_dyson_suite(order=order)
            assert check.threshold == threshold
            assert bool(check.passed) == passes
