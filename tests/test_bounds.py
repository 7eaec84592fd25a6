import functools
import logging
import math
import random

import numpy as np
import pytest

from kmsbounds import bounds, norms, ti
from kmsbounds.bounds import (
    LOG3,
    beta_u_classical,
    beta_u_commuting,
    beta_u_general,
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
from kmsbounds.lattice import build_heisenberg
from kmsbounds.norms import NormParams, norm_eps_zeta, norm_function, zeta_free
from kmsbounds.ti import (
    SpinRep,
    TIInteractionSpec,
    box_window,
    classical_heisenberg_ti,
    heisenberg_ti,
    ising_staggered_ti,
)

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


#: the grid that ``optimize_eps`` searches
GRID = np.arange(1e-2, 10.0 + 5e-3, 1e-2)


class TestOptimizeEps:
    def test_uniqueness_objective_peak(self):
        opt = optimize_eps(uniqueness_objective)
        assert opt.eps_star == pytest.approx(0.607, abs=2e-3)
        assert opt.value == pytest.approx(0.117, abs=1e-3)

    def test_tolerance(self):
        opt = optimize_eps(uniqueness_objective)
        dense = np.linspace(0.55, 0.65, 200001)
        vals = dense * np.exp(-dense) / (1 + np.exp(dense))
        assert abs(opt.eps_star - dense[np.argmax(vals)]) < 1e-4

    def test_search_evaluates_few_grid_points(self):
        """About 25 grid points, a few more in the final window and ~22
        golden-section steps; the full scan made 1,025 calls."""
        calls = []

        def counted(eps):
            calls.append(eps)
            return uniqueness_objective(eps)

        assert optimize_eps(counted) == optimize_eps(uniqueness_objective)
        assert len(calls) <= 64

    def test_near_tie_scans_every_grid_point_once(self):
        """At nu = 3, J = 1e308 the weighted norm overflows and the root is
        0 at every grid point: the first comparison ties and the window
        becomes the whole grid."""
        calls = []
        threshold = functools.partial(beta_u_general, classical_heisenberg_ti(3, 1e308, 1.0))

        def counted(eps):
            calls.append(eps)
            return threshold(eps)

        opt = optimize_eps(counted)
        assert calls[:2] == [GRID[333], GRID[666]]
        assert calls[2:len(GRID)] == [x for i, x in enumerate(GRID) if i not in (333, 666)]
        assert len(calls) - len(GRID) <= 40  # golden section
        assert opt == _full_scan(threshold)


class TestEpsGrid:
    """The grid is computed point by point without numpy; its argmax is the
    first maximal index, and a nan in the final window is rejected."""

    def test_grid_equals_arange(self):
        points = [bounds._grid_eps(i) for i in range(bounds._EPS_POINTS)]
        want = np.arange(bounds._EPS_LO, 10.0 + bounds._EPS_STEP / 2, bounds._EPS_STEP)
        assert [x.hex() for x in points] == [float(x).hex() for x in want]
        assert points[-1] == 10.0

    @pytest.mark.parametrize("start", [0, 1, 299, 998])
    def test_plateau_resolves_to_first_index(self, start):
        """Exact ties from grid index ``start`` on: the grid argmax is
        ``start``, and golden section refines between its neighbours."""
        peak = bounds._grid_eps(start)

        def plateau(eps):
            return min(eps, peak)

        vals = [plateau(x) for x in GRID]
        assert int(np.argmax(vals)) == start
        opt = optimize_eps(plateau)
        assert GRID[max(start - 1, 0)] <= opt.eps_star <= GRID[start + 1]
        assert _hex(opt) == _hex(_full_scan(plateau))

    def test_constant_resolves_to_first_index(self):
        opt = optimize_eps(lambda eps: 1.0)
        assert GRID[0] <= opt.eps_star <= GRID[1]

    @pytest.mark.parametrize("start", [0, 299, 700])
    def test_infinity_resolves_like_argmax(self, start):
        """+inf from grid index ``start`` on: the first +inf, as np.argmax
        finds it; -inf everywhere gives index 0, as np.argmax does."""
        peak = bounds._grid_eps(start)

        def rising(eps):
            return math.inf if eps >= peak else eps

        assert int(np.argmax([rising(x) for x in GRID])) == start
        opt = optimize_eps(rising)
        assert GRID[max(start - 1, 0)] <= opt.eps_star <= GRID[start + 1]
        assert opt.value == math.inf
        opt = optimize_eps(lambda eps: -math.inf)
        assert GRID[0] <= opt.eps_star <= GRID[1]

    @pytest.mark.parametrize("objective", [
        lambda eps: math.nan,
        lambda eps: math.nan if 0.55 < eps < 0.65 else uniqueness_objective(eps),
    ], ids=["everywhere", "at-the-peak"])
    def test_nan_in_window_rejected(self, objective):
        with pytest.raises(ValueError, match="the objective is nan on the eps grid from"):
            optimize_eps(objective)


#: a bound on rounding in the second differences of log f on the grid, six
#: orders below the smallest exact one of the families below (~ -1e-6, at
#: eps = 10)
ROUNDING = 1e-12


def _second_differences_of_log(values) -> np.ndarray:
    return np.diff(np.log(np.asarray(values, dtype=float)), 2)


def _target_over_norm(interaction, eps):
    return target_fn(eps) / norm_function(interaction)(eps + LOG3, 0.0)


class TestLogConcave:
    """The search over grid indices relies on each objective being
    log-concave in eps: second differences of log f on the grid are <= 0
    up to rounding."""

    def test_comparators(self):
        rng = random.Random(12)
        for c in [1.0, 27 / 2, 2 * 2 ** 4, 17 ** 3 / 16, 2 * 17 ** 4] + [
            10 ** rng.uniform(-3, 8) for _ in range(40)
        ]:
            vals = GRID * np.exp(-GRID) / (1 + c * np.exp(GRID))
            assert _second_differences_of_log(vals).max() <= ROUNDING, c

    def test_target_over_norm(self):
        rng = random.Random(13)
        specs = [classical_heisenberg_ti(3, 1e300, 2.0)]
        for _ in range(30):
            nu, rep = rng.randint(1, 3), SpinRep(rng.randint(1, 8))
            coupling = rng.choice([rng.uniform(-4, 4), 10 ** rng.uniform(-12, 16)])
            delta = rng.uniform(-3, 3)
            specs.append(heisenberg_ti(nu, coupling, delta, rep))
            specs.append(classical_heisenberg_ti(nu, coupling, delta))
        specs.append(build_heisenberg(0.8, 1.3, REP, box_window([3])))
        for spec in specs:
            vals = [_target_over_norm(spec, eps) for eps in GRID]
            assert _second_differences_of_log(vals).max() <= ROUNDING, spec

    def test_root_with_single_site_part(self):
        """Roots bisected to adjacent floats, so their error is a few ulps."""
        rng = random.Random(14)
        specs = [ising_staggered_ti(1, 1.0, 2.0, REP)]
        for _ in range(3):
            rep = SpinRep(rng.randint(1, 4))
            coupling = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3, 3)
            specs.append(ising_staggered_ti(rng.randint(1, 3), coupling, 10 ** rng.uniform(-2, 1), rep))
        for spec in specs:
            vals = [beta_u_general(spec, eps) for eps in GRID]
            assert _second_differences_of_log(vals).max() <= ROUNDING, spec


def _full_scan(objective, lo=1e-2, hi=10.0, step=1e-2, tol=1e-6):
    """``optimize_eps`` as it was before the search over grid indices: the
    objective at every grid point, then golden section around the first
    argmax; a grid that is not unimodal returned its argmax unrefined."""
    grid = np.arange(lo, hi + step / 2, step)
    vals = np.array([objective(x) for x in grid])
    imax = int(np.argmax(vals))
    diffs = np.diff(vals)
    scale = max(abs(float(vals.max())), 1e-300)
    rises_after_peak = np.any(diffs[imax:] > 1e-12 * scale)
    falls_before_peak = np.any(diffs[:imax] < -1e-12 * scale)
    if rises_after_peak or falls_before_peak:
        return bounds.OptResult(float(grid[imax]), float(vals[imax]))
    a = float(grid[max(imax - 1, 0)])
    b = float(grid[min(imax + 1, len(grid) - 1)])
    x1 = b - bounds._INVPHI * (b - a)
    x2 = a + bounds._INVPHI * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + bounds._INVPHI * (b - a)
            f2 = objective(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - bounds._INVPHI * (b - a)
            f1 = objective(x1)
    xs = 0.5 * (a + b)
    return bounds.OptResult(xs, float(objective(xs)))


def _hex(opt):
    return float(opt.eps_star).hex(), float(opt.value).hex()


@pytest.fixture
def against_full_scan(monkeypatch):
    """Every ``optimize_eps`` call in ``bounds`` runs both the search and
    the full scan on one memo of its objective (so the full scan costs one
    evaluation per grid point in all); the fixture holds their results as
    float.hex."""
    pairs = []
    search = bounds.optimize_eps

    def both(objective):
        memo = functools.cache(objective)
        got = search(memo)
        pairs.append((_hex(_full_scan(memo)), _hex(got)))
        return got

    monkeypatch.setattr(bounds, "optimize_eps", both)
    bounds.uniqueness_optimum.cache_clear()
    yield pairs
    bounds.uniqueness_optimum.cache_clear()


#: couplings where rounding or the float range shape the objective
EXTREME_COUPLINGS = (0.0, 1e-320, 1e-25, 1e-9, 1e11, 1e300, 5e307, 1e308)


def _random_coupling(rng):
    return rng.choice([
        rng.uniform(-4, 4), 10 ** rng.uniform(-12, 16), 10 ** rng.uniform(5, 16),
        rng.choice(EXTREME_COUPLINGS),
    ])


class TestSearchMatchesFullScan:
    """``float.hex`` of eps* and of the value equal the full scan's."""

    def _check(self, pairs, minimum):
        assert len(pairs) >= minimum
        mismatched = [(want, got) for want, got in pairs if want != got]
        assert not mismatched

    def test_comparators(self, against_full_scan):
        rng = random.Random(21)
        for _ in range(1000):
            c = 10 ** rng.uniform(-3, 8)
            bounds.optimize_eps(lambda eps: eps * math.exp(-eps) / (1.0 + c * math.exp(eps)))
        for two_j in range(1, 17):
            br_645_beta(SpinRep(two_j), 10 ** rng.uniform(-5, 5))
            br_646_beta(SpinRep(two_j), rng.randint(1, 3), rng.uniform(-4, 4) or 1.0)
        bounds.uniqueness_optimum()
        self._check(against_full_scan, 1033)

    def test_target_over_norm(self, against_full_scan):
        """``heisenberg_report``: ours (target / norm) and its comparator."""
        rng = random.Random(22)
        for i in range(400):
            # 2j up to 8, and up to 16 in one draw of 40
            rep, nu = SpinRep(rng.randint(1, 16 if i % 40 == 0 else 8)), rng.randint(1, 3)
            try:
                heisenberg_report(rep, nu, _random_coupling(rng), rng.choice([1.0, rng.uniform(-3, 3)]))
            except ti.FloatRangeError:
                pass
        self._check(against_full_scan, 600)

    def test_root_without_single_site_part(self, against_full_scan):
        """``classical_report``, with J up to 1e16 and the extreme couplings."""
        rng = random.Random(23)
        for _ in range(300):
            try:
                classical_report(rng.randint(1, 3), _random_coupling(rng), rng.choice([1.0, rng.uniform(-3, 3)]))
            except ti.FloatRangeError:
                pass
        self._check(against_full_scan, 250)

    def test_root_with_single_site_part(self, against_full_scan):
        rng = random.Random(24)
        for _ in range(16):
            rep = SpinRep(rng.randint(1, 4))
            coupling = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3, 8)
            beta_u_optimized(ising_staggered_ti(rng.randint(1, 3), coupling, rng.uniform(0.01, 3.0), rep))
        self._check(against_full_scan, 16)


def test_fallback_logged(caplog, capsys):
    """A near-tie is logged once at DEBUG on the kmsbounds logger, with
    the tied indices and values; nothing reaches stdout or stderr."""
    with caplog.at_level(logging.DEBUG, logger="kmsbounds"):
        classical_report(1, 1.0, 1.0)
        assert not caplog.records
        classical_report(3, 1e308, 1.0)
    (record,) = caplog.records
    assert record.name == "kmsbounds" and record.levelno == logging.DEBUG
    assert record.getMessage() == (
        "eps scan falls back to the full grid: objective(eps[333]) = 0.0 "
        "and objective(eps[666]) = 0.0 tie within 16 ulps"
    )
    classical_report(3, 1e308, 1.0)
    assert capsys.readouterr() == ("", "")


class TestBetaUGeneral:
    def test_no_multilocal_infinite(self):
        assert beta_u_general(TIInteractionSpec(1, ()), 0.6) == math.inf

    def test_matches_closed_form_without_single_site(self):
        spec = heisenberg_ti(1, 1.0, 1.0, REP)
        for eps in (0.3, 0.607, 1.1):
            closed = target_fn(eps) / norm_eps_zeta(spec, NormParams(eps + LOG3))
            assert beta_u_general(spec, eps) == closed

    @pytest.mark.parametrize("coupling", [1e-9, 1e-25])
    def test_small_coupling_scales_inversely(self, coupling):
        """The root lies near 3e6 at J = 1e-9 and past 2^60 at J = 1e-25."""
        unit = beta_u_general(classical_heisenberg_ti(1, 1.0, 1.0), 0.6)
        small = beta_u_general(classical_heisenberg_ti(1, coupling, 1.0), 0.6)
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
            assert beta_u_general(spec, eps) == beta_u_commuting(spec, eps)

    def test_field_drops_out(self):
        specs = [ising_staggered_ti(1, 1.0, field, REP) for field in (0.0, 1.0, 10.0)]
        assert len({beta_u_commuting(spec, 0.55) for spec in specs}) == 1

    def test_empty_infinite(self):
        assert beta_u_commuting(TIInteractionSpec(1, ()), 0.5) == math.inf


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
        # the ratio to beta_tilde = 1 / (18 nu J max) is f(eps*) / 2 for
        # every coupling, within the rounding of the two norms
        want = bounds.uniqueness_optimum().value / 2.0
        rng = random.Random(15)
        for _ in range(300):
            nu, coupling, delta = rng.randint(1, 3), 10 ** rng.uniform(-12, 16), rng.uniform(-3, 3)
            try:
                report = classical_report(nu, coupling, delta)
            except ti.FloatRangeError:
                continue
            ratio = report.ratios["combined_quantum_classical"]
            assert abs(ratio - want) <= 4 * math.ulp(want), (nu, coupling, delta)

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
    lambda coupling: classical_heisenberg_ti(2, coupling, 0.5),
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


def test_one_bond_norm_per_spec(monkeypatch):
    """A spec computes its bond norm once, for all of its motifs, and the
    threshold and report built on it diagonalize and multiply no matrix:
    ``heisenberg_bond_norm`` runs once per spec, ``eigvalsh`` and ``kron``
    never."""
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(ti, "heisenberg_bond_norm", counting("bond", ti.heisenberg_bond_norm))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np, "kron", counting("kron", np.kron))
    for nu in (1, 2, 3):
        spec = heisenberg_ti(nu, 1.0, 0.5, SpinRep(16))
        assert len(spec.motifs) == nu
        assert calls == ["bond"]
        beta_u_optimized(spec)
        heisenberg_report(SpinRep(16), nu, 1.0, 0.5)
        assert calls == ["bond"] * 2
        calls.clear()


def _per_step_beta_u_general(interaction, eps):
    """``beta_u_general`` as it was before the norm was evaluated once per
    eps: a fresh weighted norm at every bracketing and bisection step,
    bisected to adjacent floats."""
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
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _oracle(spec, eps):
    """The root ``beta_u_general`` must return: target / norm without a
    single-site part (+infinity for a zero norm), the per-step bisection
    with one."""
    if not zeta_free(spec):
        return _per_step_beta_u_general(spec, eps)
    norm = norm_eps_zeta(spec, NormParams(eps + LOG3))
    return math.inf if norm == 0.0 else target_fn(eps) / norm


def _oracle_cases():
    """(spec, eps): random TI specs with and without a single-site part, the
    couplings 0, 1e-320 and 1e300, weighted norms that overflow, a field of
    1e-20, and classical roots from 2^8 to 2^18."""
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
    cases.append((classical_heisenberg_ti(3, 1e308, 1.0), 0.607))
    cases.append((ising_staggered_ti(3, 1e308, 1.0, REP), 0.607))
    cases.append((ising_staggered_ti(1, 1.0, 1e-20, REP), 0.607))
    return cases


class TestNormOncePerEps:
    def test_bit_identical_to_per_step_norms(self):
        """Without a single-site part the root is target / norm; with one it
        is the per-step bisection's float.  An overflowing norm gives 0."""
        cases = _oracle_cases()
        assert sum(zeta_free(interaction) for interaction, _ in cases) >= 150
        assert sum(not zeta_free(interaction) for interaction, _ in cases) >= 50
        for interaction, eps in cases:
            assert beta_u_general(interaction, eps) == _oracle(interaction, eps)

    @pytest.mark.parametrize("spec", [
        classical_heisenberg_ti(2, 1e-320, 1.0),
        classical_heisenberg_ti(3, 1.0, 1.0),
        classical_heisenberg_ti(1, -1e300, 2.0),
        ising_staggered_ti(1, 1.0, 0.5, REP),
    ])
    def test_optimized_scan_bit_identical(self, spec):
        """Same eps* and threshold as a scan of the oracle, through the
        2^512 scaled path at J = 1e-320."""
        factor, scanned = 1.0, spec
        if norm_eps_zeta(spec, NormParams(LOG3 + 0.5)) < 1.0 / bounds._TINY_SCALE:
            factor, scanned = bounds._TINY_SCALE, bounds._scaled(spec, bounds._TINY_SCALE)
        opt = optimize_eps(functools.partial(_oracle, scanned))
        assert beta_u_optimized(spec) == bounds.EpsBeta(opt.eps_star, opt.value * factor)

    def test_zeta_free(self):
        assert zeta_free(classical_heisenberg_ti(2, 1.0, 1.0))
        assert zeta_free(heisenberg_ti(2, 1.0, 1.0, REP))
        assert zeta_free(ising_staggered_ti(1, 1.0, 0.0, REP))
        assert not zeta_free(ising_staggered_ti(1, 1.0, 0.5, REP))

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
