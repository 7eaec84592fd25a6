import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmsbounds.centering import (
    Decomposition,
    ReferenceStates,
    SubsetCapError,
    butterfly,
    decompose_moebius,
    decompose_recursive,
    gibbs_single_site,
    haar_random_unitaries,
    partial_expectation,
)
from kmsbounds.lattice import (
    LocalOperator,
    Region,
    SpinRep,
    box_window,
    embed,
    operator_norm,
    operator_norms,
    spin_matrices,
)
from kmsbounds.verify import run_decompose_suite

RNG = np.random.default_rng(12)


def rand_hermitian(dim, rng=RNG):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_eta(window, beta, rng=RNG):
    rho = {x: gibbs_single_site(rand_hermitian(2, rng), beta) for x in window}
    return ReferenceStates(site_dim=2, rho=rho)


def unit_observable(region, rng):
    """Random Hermitian observable of operator norm one."""
    m = rand_hermitian(2 ** len(region), rng)
    return LocalOperator(region, m / np.abs(np.linalg.eigvalsh(m)).max(), 2)


def forge(region, components):
    """A Decomposition of arbitrary components, e.g. tampered ones."""
    return Decomposition(region, components, np.stack([op.matrix for op in components.values()]))


def residual_at(op, sites, eta):
    """max over x in ``sites`` of ||eta_x(op)||; 0 for no site."""
    return max(
        (operator_norm(partial_expectation(op, Region((x,)), eta)) for x in sites), default=0.0
    )


def refined(product, active, eta):
    """(index, component) rows of ``butterfly`` over the ``active`` sites of
    the product's region, as ``ks_residual`` runs it: row j has the index
    X ∪ base, with X the active sites whose bits are set in j and base the
    region's other sites.  Checks that there are 2^|active| rows."""
    region = product.region
    base = region.difference(active)
    rows = butterfly(product.matrix, region, active, eta)
    assert len(rows) == 2 ** len(active)
    return [
        (base.union(Region.of(x for k, x in enumerate(active) if j >> k & 1)),
         LocalOperator(region, row, 2))
        for j, row in enumerate(rows)
    ]


class TestGibbsSingleSite:
    def test_zero_potential_maximally_mixed(self):
        rho = gibbs_single_site(np.zeros((3, 3)), 1.0)
        assert np.allclose(rho, np.eye(3) / 3)

    def test_s3_spin_half(self):
        _, _, s3 = spin_matrices(SpinRep(1))
        rho = gibbs_single_site(s3.matrix, 1.0)
        z = math.exp(-0.5) + math.exp(0.5)
        assert np.allclose(rho, np.diag([math.exp(-0.5), math.exp(0.5)]) / z)

    def test_high_temperature_limit(self):
        rho = gibbs_single_site(rand_hermitian(4), 1e-8)
        assert np.linalg.norm(rho - np.eye(4) / 4) < 1e-7

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            gibbs_single_site(np.array([[0, 1], [0, 0]]), 1.0)

    def test_trace_one(self):
        rho = gibbs_single_site(rand_hermitian(5), 2.3)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-14


class TestPartialExpectation:
    def setup_method(self):
        self.window = box_window([3])
        self.eta = random_eta(self.window, 0.8, np.random.default_rng(5))

    def test_empty_is_identity(self):
        a = LocalOperator(self.window, rand_hermitian(8), 2)
        out = partial_expectation(a, Region(()), self.eta)
        assert np.allclose(out.matrix, a.matrix)

    def test_full_contraction_is_scalar(self):
        a = LocalOperator(self.window, rand_hermitian(8), 2)
        out = partial_expectation(a, self.window, self.eta)
        assert out.region == Region(())
        assert out.matrix.shape == (1, 1)

    def test_unitality(self):
        ident = LocalOperator.identity(self.window, 2)
        out = partial_expectation(ident, Region(((1,),)), self.eta)
        assert np.allclose(out.matrix, np.eye(4))

    def test_product_factorization(self):
        b = rand_hermitian(2)
        c = rand_hermitian(4)
        a = LocalOperator(self.window, np.kron(b, c), 2)
        out = partial_expectation(a, Region(((0,),)), self.eta)
        expected = np.trace(self.eta.density((0,)) @ b) * c
        assert np.allclose(out.matrix, expected)

    def test_composition_disjoint(self):
        a = LocalOperator(self.window, rand_hermitian(8), 2)
        oneshot = partial_expectation(a, Region.of([(0,), (2,)]), self.eta)
        staged = partial_expectation(
            partial_expectation(a, Region(((0,),)), self.eta),
            Region(((2,),)),
            self.eta,
        )
        assert np.allclose(oneshot.matrix, staged.matrix)

    def test_norm_nonincreasing(self):
        for _ in range(20):
            a = LocalOperator(self.window, rand_hermitian(8), 2)
            out = partial_expectation(a, Region(((1,),)), self.eta)
            assert operator_norm(out) <= operator_norm(a) * (1 + 1e-12)

    def test_site_not_in_region(self):
        a = LocalOperator(Region(((0,),)), rand_hermitian(2), 2)
        with pytest.raises(ValueError):
            partial_expectation(a, Region(((5,),)), self.eta)


class TestDecomposition:
    def setup_method(self):
        self.window = box_window([3])
        self.eta = random_eta(self.window, 0.5, np.random.default_rng(9))

    def test_scalar_multiple_of_identity(self):
        a = 2.5 * LocalOperator.identity(self.window, 2)
        dec = decompose_recursive(a, self.eta)
        for index, comp in dec.components.items():
            if len(index) == 0:
                assert np.allclose(comp.matrix, a.matrix)
            else:
                assert operator_norm(comp) < 1e-12

    def test_single_site_case(self):
        reg = Region(((0,),))
        a = LocalOperator(reg, rand_hermitian(2), 2)
        dec = decompose_recursive(a, self.eta)
        eta_a = partial_expectation(a, reg, self.eta).matrix[0, 0]
        assert np.allclose(dec.components[Region(())].matrix, eta_a * np.eye(2))
        assert np.allclose(dec.components[reg].matrix, a.matrix - eta_a * np.eye(2))

    def test_random_three_sites(self):
        for _ in range(10):
            a = LocalOperator(self.window, rand_hermitian(8), 2)
            dec = decompose_recursive(a, self.eta)
            assert dec.reconstruction_residual(a) <= 1e-10 * operator_norm(a)
            assert dec.centering_residual(self.eta) <= 1e-10
            assert dec.norm_bound_ok(operator_norm(a))

    def test_moebius_agrees_with_recursive(self):
        rng = np.random.default_rng(21)
        for i in range(100):
            nsites = 1 + (i % 3)
            window = box_window([nsites])
            eta = random_eta(window, 0.4, rng)
            a = LocalOperator(window, rand_hermitian(2 ** nsites, rng), 2)
            rec = decompose_recursive(a, eta)
            moe = decompose_moebius(a, eta)
            for key in rec.components:
                assert (
                    operator_norm(rec.components[key] - moe.components[key]) <= 1e-11
                )

    def test_pair_alternating_signs(self):
        # |X| = 2 component: eta_{L\X}(A) - eta_{L\{x1}}(A) - eta_{L\{x2}}(A)
        # + eta_L(A), everything re-embedded
        window = box_window([2])
        eta = random_eta(window, 0.7, np.random.default_rng(3))
        a = LocalOperator(window, rand_hermitian(4), 2)
        dec = decompose_moebius(a, eta)
        x1 = Region(((0,),))
        x2 = Region(((1,),))
        manual = (
            a.matrix
            - embed(partial_expectation(a, x2, eta), window).matrix
            - embed(partial_expectation(a, x1, eta), window).matrix
            + embed(partial_expectation(a, window, eta), window).matrix
        )
        assert np.allclose(dec.components[window].matrix, manual)

    @given(st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, alpha, beta):
        window = box_window([2])
        eta = random_eta(window, 0.6, np.random.default_rng(17))
        rng = np.random.default_rng(23)
        a = LocalOperator(window, rand_hermitian(4, rng), 2)
        b = LocalOperator(window, rand_hermitian(4, rng), 2)
        combo = alpha * a + beta * b
        dec_combo = decompose_recursive(combo, eta)
        dec_a = decompose_recursive(a, eta)
        dec_b = decompose_recursive(b, eta)
        for key in dec_combo.components:
            merged = alpha * dec_a.components[key] + beta * dec_b.components[key]
            assert operator_norm(dec_combo.components[key] - merged) <= 1e-10 * (
                1 + abs(alpha) + abs(beta)
            )

    def test_idempotence_on_centered_input(self):
        a = LocalOperator(self.window, rand_hermitian(8), 2)
        centered = decompose_recursive(a, self.eta).components[self.window]
        dec = decompose_recursive(centered, self.eta)
        for index, comp in dec.components.items():
            if index == self.window:
                assert operator_norm(comp - centered) <= 1e-11
            else:
                assert operator_norm(comp) <= 1e-11

    def test_uniqueness_perturbation_breaks_centering(self):
        # moving mass between components keeps the sum but the perturbed
        # family is no longer centered, so both properties cannot hold
        a = LocalOperator(self.window, rand_hermitian(8), 2)
        dec = decompose_recursive(a, self.eta)
        x0 = Region(((0,),))
        perturb = decompose_recursive(
            LocalOperator(self.window, rand_hermitian(8), 2), self.eta
        ).components[x0]
        assert operator_norm(perturb) > 1e-6
        tampered = dict(dec.components)
        tampered[x0] = tampered[x0] + perturb
        tampered[self.window] = tampered[self.window] - perturb
        forged = forge(self.window, tampered)
        assert forged.reconstruction_residual(a) <= 1e-10 * operator_norm(a)
        assert forged.centering_residual(self.eta) > 1e-6

    @pytest.mark.parametrize("nsites", [1, 2, 3, 4, 5, 6])
    def test_butterfly_against_recursive(self, nsites):
        """The subset transform lists the recursion's components in the same
        order and agrees with them to the decompose suite's 1e-11."""
        rng = np.random.default_rng(100 + nsites)
        window = box_window([nsites])
        eta = random_eta(window, 0.8, rng)
        a = unit_observable(window, rng)
        rec = decompose_recursive(a, eta)
        moe = decompose_moebius(a, eta)
        assert list(moe.components) == list(rec.components)
        assert len(moe.stack) == 2 ** nsites
        assert operator_norms(rec.stack - moe.stack).max() <= 1e-11

    def test_stacked_checks_match_per_component_loop(self):
        """One contraction per site over the component stack gives the
        per-component residuals; one stacked norm call gives the per-component
        bound checks.  The forged family has residuals of order one."""
        rng = np.random.default_rng(5)
        a = unit_observable(self.window, rng)
        dec = decompose_recursive(a, self.eta)
        forged = forge(self.window, {
            k: op + LocalOperator(self.window, 0.1 * rand_hermitian(8, rng), 2)
            for k, op in dec.components.items()
        })
        for d in (dec, forged):
            per_component = max(
                residual_at(op, index, self.eta) for index, op in d.components.items()
            )
            assert d.centering_residual(self.eta) == pytest.approx(
                per_component, rel=1e-12, abs=1e-15
            )
            # the smallest reference norm that passes, and one just below it
            ratios = [
                operator_norm(op) / 2.0 ** len(k) for k, op in d.components.items()
            ]
            assert d.norm_bound_ok(max(ratios), slack=0.0)
            assert not d.norm_bound_ok(max(ratios) * (1 - 1e-9), slack=0.0)

    def test_subset_cap(self):
        window = box_window([13])
        eta = ReferenceStates(site_dim=2, rho={})
        a = LocalOperator.zero(window, 2)
        with pytest.raises(SubsetCapError):
            decompose_recursive(a, eta)


class TestStackedDraws:
    """B draws, each with its own densities, decomposed as one stack: every
    slice is the decomposition of that draw alone."""

    def draws(self, nsites, count, rng):
        """Per-draw densities as (B, d, d) stacks and observables (B, D, D)."""
        window = box_window([nsites])
        psi = np.array([[rand_hermitian(2, rng) for _ in window] for _ in range(count)])
        betas = rng.uniform(0.1, 2.0, size=count)
        rho = {x: gibbs_single_site(psi[:, k], betas) for k, x in enumerate(window)}
        mats = np.array([rand_hermitian(2 ** nsites, rng) for _ in range(count)])
        return window, ReferenceStates(2, rho), mats

    @pytest.mark.parametrize("nsites", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 5])
    def test_slices_match_single_draws(self, nsites, count):
        rng = np.random.default_rng(60 + 10 * nsites + count)
        window, eta, mats = self.draws(nsites, count, rng)
        a = LocalOperator._raw(window, mats, 2)
        stacked = [decompose_recursive(a, eta), decompose_moebius(a, eta)]
        norms = operator_norms(mats)
        for k in range(count):
            alone = ReferenceStates(2, {x: r[k] for x, r in eta.rho.items()})
            single = LocalOperator(window, mats[k], 2)
            for dec, method in zip(stacked, (decompose_recursive, decompose_moebius)):
                ref = method(single, alone)
                assert list(dec.components) == list(ref.components)
                assert dec.stack.shape == (2 ** nsites, count) + mats.shape[1:]
                assert np.abs(dec.stack[:, k] - ref.stack).max() <= 1e-14
                assert dec.reconstruction_residual(a)[k] == pytest.approx(
                    ref.reconstruction_residual(single), abs=1e-14
                )
        for dec in stacked:
            assert dec.centering_residual(eta) <= 1e-14
            assert dec.norm_bound_ok(norms)

    def test_density_stack_matches_single_densities(self):
        rng = np.random.default_rng(3)
        psi = np.array([rand_hermitian(3, rng) for _ in range(4)])
        betas = np.array([0.2, 0.7, 1.0, 3.0])
        stacked = gibbs_single_site(psi, betas)
        for k in range(4):
            assert np.array_equal(stacked[k], gibbs_single_site(psi[k], betas[k]))
        # one beta for the whole stack
        assert np.array_equal(gibbs_single_site(psi, 0.7)[1], stacked[1])

    @pytest.mark.parametrize("fault", ["non-hermitian", "trace", "negative"])
    def test_one_bad_density_in_a_stack(self, fault):
        """Each density of a stack passes the checks one density would."""
        rng = np.random.default_rng(4)
        rho = gibbs_single_site(np.array([rand_hermitian(2, rng) for _ in range(5)]), 1.0)
        ReferenceStates(2, {(0,): rho})
        bad = rho.copy()
        if fault == "non-hermitian":
            bad[2, 0, 1] += 1e-6
        elif fault == "trace":
            bad[2] *= 1.0 + 1e-9
        else:
            bad[2] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError):
            ReferenceStates(2, {(0,): bad})

    def test_one_non_hermitian_potential_in_a_stack(self):
        psi = np.array([rand_hermitian(2) for _ in range(3)])
        psi[1, 0, 1] += 0.5
        with pytest.raises(ValueError):
            gibbs_single_site(psi, 1.0)

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (1, 2, 2, 2)])
    def test_density_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            ReferenceStates(2, {(0,): np.zeros(shape)})

    @pytest.mark.parametrize("draws", [1, 2, 3, 4, 100])
    def test_suite_at_few_draws(self, draws):
        """At few draws some (number of sites, beta) systems get no draw and
        others a one-draw stack; every check holds at every count."""
        checks = run_decompose_suite(seed=7, draws=draws)
        assert [c.name for c in checks] == [
            "reconstruction_residual_rel", "centering_residual",
            "recursive_vs_moebius", "component_norm_bound",
        ]
        assert all(c.passed for c in checks)


class TestDecomposeSuite:
    """``run_decompose_suite`` against every draw decomposed alone."""

    @staticmethod
    def per_draw_values(seed, draws):
        """The suite's four values, its draws taken from the stream in the
        suite's order and each decomposed alone: its own densities, one
        (D, D) matrix, both methods; the worst value of each check."""
        rng = np.random.default_rng(seed)
        recon = center = cross = 0.0
        bound_ok = True
        for i in range(draws):
            window = box_window([1 + i % 3])
            psi = [rand_hermitian(2, rng) for _ in window]
            m = rand_hermitian(2 ** len(window), rng)
            rho = {
                x: gibbs_single_site(p / operator_norms(p), (0.3, 1.0)[i % 2])
                for x, p in zip(window, psi)
            }
            eta = ReferenceStates(2, rho)
            a = LocalOperator(window, m / operator_norms(m), 2)
            a_norm = operator_norms(a.matrix)
            rec, moe = decompose_recursive(a, eta), decompose_moebius(a, eta)
            recon = max(recon, float(rec.reconstruction_residual(a) / a_norm))
            center = max(center, rec.centering_residual(eta))
            cross = max(cross, float(operator_norms(rec.stack - moe.stack).max()))
            bound_ok = bound_ok and rec.norm_bound_ok(a_norm)
        return [recon, center, cross, 0.0 if bound_ok else 1.0]

    @pytest.mark.parametrize("draws", [4, 100])
    @pytest.mark.parametrize("seed", range(10))
    def test_values_match_draws_alone(self, seed, draws):
        checks = run_decompose_suite(seed=seed, draws=draws)
        assert [c.value for c in checks] == self.per_draw_values(seed, draws)

    def test_one_stack_per_system(self, monkeypatch):
        """Each (number of sites, beta) system runs as one stack: 3 x 2."""
        from kmsbounds import verify

        calls = []
        for name in ("decompose_recursive", "decompose_moebius"):
            method = getattr(verify, name)
            monkeypatch.setattr(
                verify, name, lambda a, eta, name=name, method=method:
                calls.append(name) or method(a, eta)
            )
        assert all(c.passed for c in verify.run_decompose_suite(seed=0))
        assert calls.count("decompose_recursive") == 6
        assert calls.count("decompose_moebius") == 6


class TestRefined:
    """The subset transform over the support of a prefactor, on its product
    with an element centered on its own region: the components
    ``ks_residual`` takes of each dressed element."""

    def setup_method(self):
        self.window = box_window([4])
        self.eta = random_eta(self.window, 0.6, np.random.default_rng(31))

    def centered_on(self, region, rng):
        a = LocalOperator(region, rand_hermitian(2 ** len(region), rng), 2)
        return decompose_recursive(a, self.eta).components[region]

    def test_no_prefactors(self):
        rng = np.random.default_rng(1)
        lam = box_window([2])
        elem = self.centered_on(lam, rng)
        ((index, comp),) = refined(elem, Region(()), self.eta)
        assert index == lam
        assert np.array_equal(comp.matrix, elem.matrix)

    def test_disjoint_prefactor_component_count(self):
        """2^|active| rows, each indexed over the whole centered region, that
        sum to the product and obey ||A_X|| <= 2^{|X ∩ active|} ||A||."""
        rng = np.random.default_rng(2)
        lam = Region.of([(0,), (1,)])
        elem = self.centered_on(lam, rng)
        pref = LocalOperator(Region.of([(2,), (3,)]), rand_hermitian(4, rng), 2)
        product = pref @ elem
        rows = refined(product, pref.region, self.eta)
        assert len(rows) == 4
        norm = operator_norm(product)
        total = LocalOperator(product.region, sum(comp.matrix for _, comp in rows), 2)
        assert operator_norm(total - product) <= 1e-10 * norm
        for index, comp in rows:
            assert lam.issubset(index)
            active = len(index.intersection(pref.region))
            assert operator_norm(comp) <= 2.0 ** active * norm * (1 + 1e-9)

    def test_matches_full_decomposition(self):
        rng = np.random.default_rng(4)
        lam = Region.of([(0,), (1,), (2,)])
        elem = self.centered_on(lam, rng)
        x1 = Region.of([(1,), (2,), (3,)])
        pref = LocalOperator(x1, rand_hermitian(8, rng), 2)
        product = pref @ elem
        rows = dict(refined(product, x1, self.eta))
        full = decompose_recursive(product, self.eta)
        lam_n = lam.difference(x1)
        for index, comp in full.components.items():
            if index in rows:
                assert operator_norm(comp - rows[index]) <= 1e-10
            else:
                # all components outside the refined index set vanish
                assert operator_norm(comp) <= 1e-10
        for index in rows:
            assert lam_n.issubset(index)

    @pytest.mark.parametrize(
        "lam_sites, pref_sites",
        [
            ([(0,), (1,)], [(1,), (2,)]),
            ([(0,), (1,), (2,)], [(2,), (3,)]),
            ([(0,), (1,), (2,)], [(1,)]),
            ([(0,), (1,)], [(2,), (3,)]),
        ],
    )
    def test_refined_butterfly_against_recursive(self, lam_sites, pref_sites):
        """With a base (sites of the centered element outside the prefactor),
        every refined component is the full recursion's component on the same
        index, to 1e-11 of the product's norm."""
        rng = np.random.default_rng(len(lam_sites) + 10 * len(pref_sites))
        lam = Region.of(lam_sites)
        elem = self.centered_on(lam, rng)
        pref = unit_observable(Region.of(pref_sites), rng)
        product = pref @ elem
        assert len(lam.difference(pref.region)) > 0
        full = decompose_recursive(product, self.eta)
        for index, comp in refined(product, pref.region, self.eta):
            assert operator_norm(comp - full.components[index]) <= 1e-11 * operator_norm(product)

    def test_refined_centering(self):
        """Each row is centered on every site of its index: the active sites
        by the transform, the base because the element is centered there."""
        rng = np.random.default_rng(6)
        lam = Region.of([(0,), (1,)])
        elem = self.centered_on(lam, rng)
        pref = LocalOperator(Region.of([(1,), (2,)]), rand_hermitian(4, rng), 2)
        for index, comp in refined(pref @ elem, pref.region, self.eta):
            assert residual_at(comp, index, self.eta) <= 1e-10


def haar_trace_identity_check(a, samples, seed):
    """Operator-norm deviation of the average of U A U* over ``samples`` Haar
    unitaries from (tr A / d) I; O(samples^{-1/2})."""
    d = a.site_dim
    u = haar_random_unitaries(samples, d, np.random.default_rng(seed))
    mean = (u @ a.matrix @ u.conj().transpose(0, 2, 1)).mean(axis=0)
    return float(np.linalg.norm(mean - np.trace(a.matrix) / d * np.eye(d), 2))


class TestHaar:
    def test_unitary(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 5):
            for u in haar_random_unitaries(4, d, rng):
                assert np.linalg.norm(u @ u.conj().T - np.eye(d)) < 1e-12

    def test_identity_exact(self):
        ident = LocalOperator.identity(Region(((0,),)), 2)
        assert haar_trace_identity_check(ident, 50, seed=0) < 1e-13

    def test_s3_average_concentrates(self):
        _, _, s3 = spin_matrices(SpinRep(1))
        assert haar_trace_identity_check(s3, 10000, seed=1) < 0.05

    def test_projector_average(self):
        proj = LocalOperator(
            Region(((0,),)), np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex), 2
        )
        # mean converges to (tr P / 2) I = I/2
        assert haar_trace_identity_check(proj, 10000, seed=2) < 0.05
