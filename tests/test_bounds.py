import functools
import math
import random

import numpy as np
import pytest

from kmsbounds import bounds, lattice, norms
from kmsbounds.bounds import (
    LOG3,
    CommutationError,
    beta_u_classical,
    beta_u_commuting,
    beta_u_general,
    beta_u_general_optimized,
    beta_u_optimized,
    br_645_beta,
    br_646_beta,
    classical_report,
    combined_report,
    fv_beta,
    heisenberg_report,
    ising_beta_operator_norm,
    ising_beta_symbolic,
    ising_report,
    optimize_eps,
    target_fn,
    uniqueness_objective,
)
from kmsbounds.lattice import (
    InteractionFamily,
    SpinRep,
    box_window,
    build_heisenberg,
    build_ising_staggered,
    classical_heisenberg_ti,
    heisenberg_ti,
    ising_staggered_ti,
    spin_matrices,
)
from kmsbounds.norms import NormParams, norm_eps_zeta, norm_function, zeta_free

REP = SpinRep(1)


class TestTarget:
    def test_vanishes_at_zero(self):
        assert target_fn(1e-12) < 1e-12

    def test_value_at_one(self):
        assert target_fn(1.0) == pytest.approx(1.0 / (6 * (1 + math.e)), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            target_fn(0.0)
        with pytest.raises(ValueError):
            target_fn(-1.0)


class TestOptimizeEps:
    def test_uniqueness_objective_peak(self):
        opt = optimize_eps(uniqueness_objective)
        assert opt.unimodal
        assert opt.eps_star == pytest.approx(0.607, abs=2e-3)
        assert opt.value == pytest.approx(0.117, abs=1e-3)

    def test_tolerance(self):
        opt = optimize_eps(uniqueness_objective)
        dense = np.linspace(0.55, 0.65, 200001)
        vals = dense * np.exp(-dense) / (1 + np.exp(dense))
        assert abs(opt.eps_star - dense[np.argmax(vals)]) < 1e-4

    def test_non_unimodal_flagged(self):
        opt = optimize_eps(lambda e: math.sin(3 * e))
        assert not opt.unimodal
        # global grid max still returned
        assert math.sin(3 * opt.eps_star) == pytest.approx(1.0, abs=1e-3)


class TestBetaUGeneral:
    def test_no_multilocal_infinite(self):
        assert beta_u_general(InteractionFamily({}, 2), 0.6) == math.inf

    def test_matches_closed_form_without_single_site(self):
        spec = heisenberg_ti(1, 1.0, 1.0, REP)
        for eps in (0.3, 0.607, 1.1):
            closed = target_fn(eps) / norm_eps_zeta(spec, NormParams(eps + LOG3))
            assert beta_u_general(spec, eps) == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("coupling", [1e-9, 1e-25])
    def test_small_coupling_scales_inversely(self, coupling):
        """At J = 1e-9 adjacent floats near the root lie wider apart than
        the tolerance; at J = 1e-25 the root lies past 2^60."""
        unit = beta_u_general(classical_heisenberg_ti(1, 1.0, 1.0), 0.6, tol=1e-12)
        small = beta_u_general(classical_heisenberg_ti(1, coupling, 1.0), 0.6, tol=1e-12)
        assert small * coupling == pytest.approx(unit, rel=1e-9)

    def test_root_past_float_range_infinite(self):
        spec = classical_heisenberg_ti(1, 1e-320, 1.0)
        assert beta_u_general(spec, 0.6) == math.inf

    def test_root_property_and_monotonicity(self):
        spec = ising_staggered_ti(1, 1.0, 2.0, REP)
        eps = 0.6
        root = beta_u_general(spec, eps)

        def g(beta):
            return beta * norm_eps_zeta(spec, NormParams(eps + LOG3, 2 * beta)) - target_fn(eps)

        assert abs(g(root)) < 1e-8
        grid = np.linspace(root / 10, root * 0.99, 7)
        assert all(g(b) < 0 for b in grid)
        assert g(root * 1.01) > 0

    def test_field_lowers_general_threshold(self):
        eps = 0.6
        commuting = beta_u_commuting(ising_staggered_ti(1, 1.0, 0.0, REP), eps)
        previous = commuting
        for field in (0.5, 1.0, 4.0):
            spec = ising_staggered_ti(1, 1.0, field, REP)
            value = beta_u_general(spec, eps)
            assert value < previous
            previous = value


class TestBetaUCommuting:
    def test_heisenberg_closed_form(self):
        spec = heisenberg_ti(1, 1.0, 1.0, REP)
        for eps in (0.4, 0.607, 1.0):
            expected = eps * math.exp(-eps) / (27 * (1 + math.exp(eps)))
            assert beta_u_commuting(spec, eps) == pytest.approx(expected, rel=1e-12)

    def test_matches_general_when_psi_absent(self):
        spec = heisenberg_ti(2, 0.7, 1.4, REP)
        for eps in (0.3, 0.8):
            assert beta_u_general(spec, eps) == pytest.approx(
                beta_u_commuting(spec, eps), abs=1e-10
            )

    def test_field_drops_out(self):
        fams = [
            build_ising_staggered(1.0, field, REP, box_window([4]))
            for field in (0.0, 1.0, 10.0)
        ]
        values = {beta_u_commuting(fam, 0.55) for fam in fams}
        assert len({round(v, 14) for v in values}) == 1

    def test_commutation_verified(self):
        fam = build_ising_staggered(1.0, 1.0, REP, box_window([3]))
        beta_u_commuting(fam, 0.5)  # passes: S3-only terms commute

    def test_noncommuting_rejected(self):
        window = box_window([2])
        fam = build_heisenberg(1.0, 1.0, REP, window)
        s1, _, _ = spin_matrices(REP, at=(0,))
        terms = dict(fam.terms)
        terms[s1.region] = s1
        mixed = InteractionFamily(terms, 2)
        with pytest.raises(CommutationError):
            beta_u_commuting(mixed, 0.5)

    def test_empty_infinite(self):
        assert beta_u_commuting(InteractionFamily({}, 2), 0.5) == math.inf


class TestComparators:
    def test_br_645_ratio_spin_half(self):
        report = heisenberg_report(REP, 1, 1.0, 1.0)
        assert report.ratios["bratteli_robinson_645"] == pytest.approx(0.412, abs=5e-3)
        assert report.comparators["bratteli_robinson_645"].eps_star == pytest.approx(
            0.518, abs=2e-3
        )

    def test_br_645_eps_approaches_half_from_above(self):
        previous = None
        for two_j in (1, 2, 4, 8, 16):
            eps_star = br_645_beta(SpinRep(two_j), 1.0).eps_star
            assert eps_star > 0.5
            if previous is not None:
                assert eps_star < previous
            previous = eps_star
        assert 0.5 < br_645_beta(SpinRep(16), 1.0).eps_star < 0.518

    def test_br_645_displayed_ratio_formula(self):
        # the bond strength cancels in the ratio, leaving
        # 9/(2j+1)^2 * obj_j(e_j) / obj(e) with the respective optimizers
        rep = SpinRep(3)
        report = heisenberg_report(rep, 1, 1.0, 1.0)
        d = rep.two_j + 1
        ebar_j = report.comparators["bratteli_robinson_645"].eps_star
        ebar = report.eps_star
        formula = (
            9
            / d ** 2
            * (ebar_j * math.exp(-ebar_j) / (1 + math.exp(ebar_j) * d ** 3 / rep.two_j))
            * (1 + math.exp(ebar))
            / (ebar * math.exp(-ebar))
        )
        assert report.ratios["bratteli_robinson_645"] == pytest.approx(formula, rel=1e-9)

    def test_br_646_ratio_spin_half(self):
        report = ising_report(REP, 1, 1.0)
        assert report.ratios["bratteli_robinson_646"] == pytest.approx(0.027, abs=3e-3)
        assert report.comparators["bratteli_robinson_646"].eps_star == pytest.approx(
            0.505, abs=2e-3
        )

    def test_ising_field_independent(self):
        betas = {
            round(ising_report(REP, 1, 1.0).beta_u, 15) for _ in ("B0", "B1", "B10")
        }
        assert len(betas) == 1

    def test_nu_scaling_halves(self):
        b1 = ising_beta_symbolic(1, 1.0).beta
        b2 = ising_beta_symbolic(2, 1.0).beta
        assert b2 == pytest.approx(b1 / 2, rel=1e-12)
        c1 = br_646_beta(REP, 1, 1.0).beta
        c2 = br_646_beta(REP, 2, 1.0).beta
        assert c2 == pytest.approx(c1 / 2, rel=1e-12)

    def test_ising_operator_norm_variant(self):
        symbolic = ising_beta_symbolic(1, 1.0).beta
        opnorm = ising_beta_operator_norm(1, 1.0, REP).beta
        assert opnorm == pytest.approx(symbolic / REP.j ** 2, rel=1e-12)


class TestClassical:
    def test_threshold_formula(self):
        for nu, coupling, delta in ((1, 1.0, 1.0), (2, 0.5, 2.0), (3, 1.3, 0.2)):
            norm = 6 * coupling * nu * max(abs(delta), 1.0)
            assert beta_u_classical(norm) == pytest.approx(
                1.0 / (18 * coupling * nu * max(abs(delta), 1.0)), rel=1e-14
            )

    def test_unit_case(self):
        assert beta_u_classical(6.0) == pytest.approx(1.0 / 18.0, rel=1e-14)

    def test_zero_norm_infinite(self):
        assert beta_u_classical(0.0) == math.inf

    def test_fv_ratio_nu_one(self):
        result = fv_beta(1.0, 1.0, 1)
        assert result.ratio == pytest.approx(18 * math.log1p(1 / (2 * math.e ** 6)), rel=1e-12)
        assert result.ratio == pytest.approx(0.0223, abs=5e-4)

    def test_fv_ratio_increasing_bounded(self):
        previous = 0.0
        for nu in (1, 2, 3, 5, 10, 100, 10000):
            ratio = fv_beta(1.0, 1.0, nu).ratio
            assert ratio > previous
            assert ratio <= 9 * math.exp(-6.0)
            previous = ratio
        assert previous == pytest.approx(9 * math.exp(-6.0), rel=1e-3)

    def test_fv_eps_bound(self):
        for eps in (0.0, 0.5, 1.0):
            for nu in (1, 4):
                assert fv_beta(1.0, 1.0, nu, eps).ratio <= 9 * math.exp(-(6 + 2 * eps))

    def test_combined_closed_form(self):
        # psi = 0: beta_hat = max over eps of target(eps)/(3 e^eps 2 nu J max)
        #        = f(eps*) / (18 * 2 nu J max(|delta|,1))
        spec = classical_heisenberg_ti(1, 1.0, 1.0)
        combined = combined_report(spec)
        opt = optimize_eps(uniqueness_objective)
        assert combined.beta_hat == pytest.approx(opt.value / 36.0, rel=1e-6)
        assert combined.chain_ok

    def test_combined_ordering_on_grid(self):
        for coupling in (0.5, 1.0):
            for delta in (0.4, 1.0, 2.5):
                for nu in (1, 2):
                    combined = combined_report(
                        classical_heisenberg_ti(nu, coupling, delta)
                    )
                    assert combined.beta_hat <= combined.beta_tilde
                    assert combined.chain_ok

    def test_degenerate_coupling(self):
        combined = combined_report(classical_heisenberg_ti(1, 0.0, 1.0))
        assert combined.beta_hat == math.inf
        assert combined.beta_tilde == math.inf


class TestReports:
    def test_ratio_consistency(self):
        for report in (
            heisenberg_report(REP, 2, 0.8, 1.3),
            ising_report(SpinRep(2), 1, 1.0),
            classical_report(2, 1.0, 1.5),
        ):
            for name, comp in report.comparators.items():
                assert report.ratios[name] == pytest.approx(
                    comp.beta / report.beta_u, rel=1e-12
                )

    def test_infinity_serialized_as_token(self):
        report = ising_report(REP, 1, 0.0)
        doc = report.to_dict()
        assert doc["beta_u"] == "+inf"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", [
    lambda coupling: heisenberg_ti(2, coupling, 0.5, REP),
    lambda coupling: build_heisenberg(coupling, 0.5, REP, box_window([3])),
])
def test_optimized_subnormal_coupling(build):
    """A subnormal coupling keeps the eps* of J = 1 and overflows beta_u to
    +inf, without a numpy warning."""
    unit = beta_u_optimized(build(1.0))
    tiny = beta_u_optimized(build(1e-320))
    assert tiny.eps_star == pytest.approx(unit.eps_star, abs=1e-9)
    assert tiny.beta == math.inf


def test_optimized_small_coupling_scales_inversely():
    unit = beta_u_optimized(heisenberg_ti(1, 1.0, 1.0, REP))
    small = beta_u_optimized(heisenberg_ti(1, 1e-300, 1.0, REP))
    assert small.eps_star == unit.eps_star
    assert small.beta * 1e-300 == pytest.approx(unit.beta, rel=1e-12)


def test_one_eigendecomposition_per_motif(monkeypatch):
    """Motif norms are computed when the spec is built; the eps scan of the
    threshold reads them and diagonalizes nothing."""
    calls = []
    eigvalsh = lattice.np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(lattice.np.linalg, "eigvalsh", counting)
    beta_u_optimized(heisenberg_ti(3, 1.0, 0.5, SpinRep(16)))
    assert calls == [(289, 289)] * 3


def _per_step_beta_u_general(interaction, eps, tol=1e-10):
    """``beta_u_general`` as it was before the norm was evaluated once per
    eps: a fresh weighted norm at every bracketing and bisection step."""
    tgt = target_fn(eps)
    if norm_eps_zeta(interaction, NormParams(eps + LOG3)) == 0.0:
        return math.inf
    norm_at = norm_function(interaction)

    def g(beta):
        return beta * norm_at(eps + LOG3, 2.0 * beta) - tgt

    hi = 1.0
    while hi < math.inf and not g(hi) > 0.0:
        hi *= 2.0
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _oracle_cases():
    """(interaction, eps): random TI specs with and without a single-site
    part, the couplings 0, 1e-320 and 1e300, finite families, and classical
    roots from 2^8 to 2^18, across the size where floats near the root
    become coarser than either tolerance (2^11 at 1e-12, 2^17 at 1e-10)."""
    rng = random.Random(9)
    cases = []
    for _ in range(120):
        nu = rng.randint(1, 3)
        coupling = rng.choice([0.0, 1e-320, 1e300, rng.uniform(-4, 4), 10 ** rng.uniform(-40, 40)])
        delta = rng.choice([0.0, 1.0, rng.uniform(-3, 3), 10 ** rng.uniform(-5, 5)])
        eps = rng.uniform(0.01, 10.0)
        cases.append((classical_heisenberg_ti(nu, coupling, delta), eps))
        field = rng.choice([0.0, rng.uniform(0.0, 3.0)])
        cases.append((ising_staggered_ti(nu, rng.uniform(-4, 4), field, REP), eps))
    unit = norm_eps_zeta(classical_heisenberg_ti(1, 1.0, 1.0), NormParams(0.607 + LOG3))
    for _ in range(60):
        root = 2.0 ** rng.uniform(8.0, 18.0)
        coupling = target_fn(0.607) / (unit * root)
        cases.append((classical_heisenberg_ti(1, coupling, 1.0), 0.607))
    window = box_window([3])
    for eps in (0.05, 0.607, 2.5):
        cases.append((build_heisenberg(0.8, 1.3, REP, window), eps))
        cases.append((build_ising_staggered(1.0, 0.7, REP, window), eps))
    return cases


def _count_products(monkeypatch, spec, eps, tol):
    """``beta_u_general(spec, eps, tol)`` and how many products beta * norm
    it forms, counted on a float subclass returned by the closed-form norm."""
    products = []

    class Counted(float):
        def __rmul__(self, beta):
            products.append(beta)
            return beta * float(self)

    norm_ti = norms._norm_ti
    monkeypatch.setattr(norms, "_norm_ti", lambda *args: Counted(norm_ti(*args)))
    return beta_u_general(spec, eps, tol=tol), len(products)


class TestNormOncePerEps:
    def test_bit_identical_to_per_step_norms(self):
        """The per-step reference bisects an infinite norm down to ~tol / 2;
        the root of beta * inf = target is 0."""
        for interaction, eps in _oracle_cases():
            infinite = norm_function(interaction)(eps + LOG3, 0.0) == math.inf
            for tol in (1e-10, 1e-12):
                got = beta_u_general(interaction, eps, tol=tol)
                if infinite:
                    assert got == 0.0
                else:
                    assert got == _per_step_beta_u_general(interaction, eps, tol=tol)

    def test_bisection_starts_near_the_root(self, monkeypatch):
        """One product to bracket, two to check the node of width ~16 tol and
        four halvings to tol; the search from [0, 1] formed 41."""
        spec = classical_heisenberg_ti(3, 1.0, 1.0)
        got, products = _count_products(monkeypatch, spec, 0.607, 1e-12)
        assert products <= 12
        assert got == _per_step_beta_u_general(spec, 0.607, tol=1e-12)

    @pytest.mark.parametrize("spec, eps", [
        # target / norm rounds one float below a multiple of the node width,
        # so the node below it is checked and rejected
        (classical_heisenberg_ti(3, float.fromhex("0x1.79c58fea4aabep-4"), 1.0), 0.649),
        # the root ~2^14 lies where floats are coarser than tol
        (classical_heisenberg_ti(1, 2e-7, 1.0), 0.607),
        # a single-site part, however small, keeps the norm at each step
        (ising_staggered_ti(1, 1.0, 1e-20, REP), 0.607),
    ])
    def test_full_search_when_the_node_is_not_taken(self, monkeypatch, spec, eps):
        got, products = _count_products(monkeypatch, spec, eps, 1e-12)
        assert products > 40
        assert got == _per_step_beta_u_general(spec, eps, tol=1e-12)

    @pytest.mark.parametrize("spec", [
        classical_heisenberg_ti(2, 1e-320, 1.0),
        classical_heisenberg_ti(3, 1.0, 1.0),
        classical_heisenberg_ti(1, -1e300, 2.0),
        ising_staggered_ti(1, 1.0, 0.5, REP),
    ])
    def test_optimized_scan_bit_identical(self, spec):
        """Same eps* and threshold as a scan of the per-step root, through
        the 2^512 scaled path at J = 1e-320."""
        per_step = bounds._optimized_scan(
            spec, functools.partial(_per_step_beta_u_general, tol=1e-12)
        )
        assert beta_u_general_optimized(spec) == per_step

    def test_zeta_free(self):
        window = box_window([3])
        assert zeta_free(classical_heisenberg_ti(2, 1.0, 1.0))
        assert zeta_free(ising_staggered_ti(1, 1.0, 0.0, REP))
        assert not zeta_free(ising_staggered_ti(1, 1.0, 0.5, REP))
        assert zeta_free(build_heisenberg(1.0, 1.0, REP, window))
        assert zeta_free(build_ising_staggered(1.0, 0.0, REP, window))
        assert not zeta_free(build_ising_staggered(1.0, 0.5, REP, window))

    def test_classical_report_sums_one_norm_per_eps(self, monkeypatch):
        """About one closed-form norm per scanned eps (~1,030 of them); a
        norm per bisection step made 43,010."""
        calls = []
        norm_ti = norms._norm_ti

        def counting(*args):
            calls.append(args[1:])
            return norm_ti(*args)

        monkeypatch.setattr(norms, "_norm_ti", counting)
        classical_report(3, 1.0, 1.0)
        assert len(calls) <= 1100
