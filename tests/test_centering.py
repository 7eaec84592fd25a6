import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmsbounds.centering import (
    Decomposition,
    NotCenteredError,
    ReferenceStates,
    SubsetCapError,
    centering_residual,
    decompose_known_free,
    decompose_moebius,
    decompose_recursive,
    decompose_refined,
    gibbs_single_site,
    haar_random_unitary,
    haar_trace_identity_check,
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

RNG = np.random.default_rng(12)


def rand_hermitian(dim, rng=RNG):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_eta(window, beta, rng=RNG):
    rho = {x: gibbs_single_site(rand_hermitian(2, rng), beta) for x in window}
    return ReferenceStates(beta=beta, site_dim=2, rho=rho)


def unit_observable(region, rng):
    """Random Hermitian observable of operator norm one."""
    m = rand_hermitian(2 ** len(region), rng)
    return LocalOperator(region, m / np.abs(np.linalg.eigvalsh(m)).max(), 2)


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
        forged = Decomposition(self.window, tampered, "tampered")
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
        forged = Decomposition(self.window, {
            k: op + LocalOperator(self.window, 0.1 * rand_hermitian(8, rng), 2)
            for k, op in dec.components.items()
        })
        for d in (dec, forged):
            per_component = max(
                centering_residual(op, self.eta, index) for index, op in d.components.items()
            )
            assert d.centering_residual(self.eta) == pytest.approx(
                per_component, rel=1e-12, abs=1e-15
            )
            # the smallest reference norm that passes, and one just below it
            ratios = [
                operator_norm(op) / 2.0 ** d.bound_exponent(k) for k, op in d.components.items()
            ]
            assert d.norm_bound_ok(max(ratios), slack=0.0)
            assert not d.norm_bound_ok(max(ratios) * (1 - 1e-9), slack=0.0)

    def test_subset_cap(self):
        window = box_window([13])
        eta = ReferenceStates(beta=1.0, site_dim=2, rho={})
        a = LocalOperator.zero(window, 2)
        with pytest.raises(SubsetCapError):
            decompose_recursive(a, eta)


class TestRefined:
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
        dec = decompose_refined([], elem, self.eta)
        assert set(dec.components) == {lam}
        assert operator_norm(dec.components[lam] - elem) <= 1e-12

    def test_disjoint_prefactor_component_count(self):
        rng = np.random.default_rng(2)
        lam = Region.of([(0,), (1,)])
        elem = self.centered_on(lam, rng)
        x1 = Region.of([(2,), (3,)])
        pref = LocalOperator(x1, rand_hermitian(4, rng), 2)
        dec = decompose_refined([pref], elem, self.eta)
        # indices are subsets of the prefactor support only: 2^2 components
        assert len(dec.components) == 4
        for index in dec.components:
            assert lam.issubset(index)  # lam = lam_n here (disjoint)
        product = pref @ elem
        assert dec.reconstruction_residual(product) <= 1e-10 * operator_norm(product)
        assert dec.norm_bound_ok(operator_norm(product))

    def test_matches_full_decomposition(self):
        rng = np.random.default_rng(4)
        lam = Region.of([(0,), (1,), (2,)])
        elem = self.centered_on(lam, rng)
        x1 = Region.of([(1,), (2,), (3,)])
        pref = LocalOperator(x1, rand_hermitian(8, rng), 2)
        refined = decompose_refined([pref], elem, self.eta)
        product = pref @ elem
        full = decompose_recursive(product, self.eta)
        lam_n = lam.difference(x1)
        for index, comp in full.components.items():
            if index in refined.components:
                assert operator_norm(comp - refined.components[index]) <= 1e-10
            else:
                # all components outside the refined index set vanish
                assert operator_norm(comp) <= 1e-10
        for index in refined.components:
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
        refined = decompose_known_free(product, pref.region, self.eta)
        assert len(refined.base) > 0
        full = decompose_recursive(product, self.eta)
        for index, comp in refined.components.items():
            assert operator_norm(comp - full.components[index]) <= 1e-11 * operator_norm(product)

    def test_refined_centering(self):
        rng = np.random.default_rng(6)
        lam = Region.of([(0,), (1,)])
        elem = self.centered_on(lam, rng)
        pref = LocalOperator(Region.of([(1,), (2,)]), rand_hermitian(4, rng), 2)
        dec = decompose_refined([pref], elem, self.eta)
        assert dec.centering_residual(self.eta) <= 1e-10

    def test_rejects_uncentered_tail(self):
        rng = np.random.default_rng(8)
        lam = Region.of([(0,), (1,)])
        not_centered = LocalOperator(lam, rand_hermitian(4, rng), 2)
        pref = LocalOperator(Region.of([(1,), (2,)]), rand_hermitian(4, rng), 2)
        with pytest.raises(NotCenteredError):
            decompose_refined([pref], not_centered, self.eta)


class TestHaar:
    def test_unitary(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 5):
            u = haar_random_unitary(d, rng)
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
