import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmsbounds.lattice import InteractionFamily, build_heisenberg
from kmsbounds.norms import (
    NormParams,
    norm_eps_zeta,
    psi_norm_sum,
    site_norm_profile,
    window_norms,
)
from kmsbounds.ti import (
    Region,
    SpinRep,
    TIInteractionSpec,
    box_window,
    classical_heisenberg_ti,
    heisenberg_ti,
    ising_staggered_ti,
)

from ising_staggered import build_ising_staggered

LOG3 = math.log(3.0)
REP = SpinRep(1)


class TestNormParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NormParams(0.0)
        with pytest.raises(ValueError):
            NormParams(1.0, -0.1)


class TestPsiNormSum:
    def test_heisenberg_vanishes(self):
        fam = build_heisenberg(1.0, 1.0, REP, box_window([4]))
        assert psi_norm_sum(fam, box_window([4])) == 0.0

    def test_staggered_three_sites(self):
        field = 2.0
        fam = build_ising_staggered(1.0, field, REP, box_window([3]))
        # three sites, each ||Psi_x|| = B j = B/2
        assert psi_norm_sum(fam, box_window([3])) == pytest.approx(3 * field * 0.5)

    def test_empty_region(self):
        fam = build_heisenberg(1.0, 1.0, REP, box_window([2]))
        assert psi_norm_sum(fam, Region(())) == 0.0


class TestNormEpsZeta:
    def test_ti_heisenberg_closed_form(self):
        for nu in (1, 2, 3):
            spec = heisenberg_ti(nu, 1.0, 1.0, REP)
            eps = 0.607
            value = norm_eps_zeta(spec, NormParams(eps + LOG3))
            assert value == pytest.approx(3 * math.exp(eps) * 2 * nu * 0.75, rel=1e-12)

    def test_zeta_flat_without_single_site(self):
        spec = heisenberg_ti(1, 1.0, 1.0, REP)
        p0 = norm_eps_zeta(spec, NormParams(0.4, 0.0))
        p1 = norm_eps_zeta(spec, NormParams(0.4, 2.5))
        assert p0 == p1
        fam = build_heisenberg(1.0, 1.0, REP, box_window([3]))
        assert norm_eps_zeta(fam, NormParams(0.4, 0.0)) == norm_eps_zeta(
            fam, NormParams(0.4, 2.5)
        )

    def test_staggered_hand_value(self):
        # nu=1, J=1, B=1, j=1/2: each bond has ||S3 S3|| = 1/4 and
        # ||Psi||_bond = 2 B j = 1; two bonds contain any interior site
        spec = ising_staggered_ti(1, 1.0, 1.0, REP)
        value = norm_eps_zeta(spec, NormParams(0.1, 0.2))
        assert value == pytest.approx(2 * math.exp(0.1 + 0.2) * 0.25, rel=1e-12)

    def test_finite_window_staggered_hand_value(self):
        fam = build_ising_staggered(1.0, 1.0, REP, box_window([3]))
        profile = site_norm_profile(fam, NormParams(0.1, 0.2))
        assert profile[(1,)] == pytest.approx(2 * math.exp(0.1 + 0.2) * 0.25, rel=1e-12)

    def test_empty_family_is_zero(self):
        fam = InteractionFamily({}, 2)
        assert norm_eps_zeta(fam, NormParams(1.0)) == 0.0

    def test_monotone_in_eps(self):
        spec = ising_staggered_ti(1, 1.0, 1.0, REP)
        values = [
            norm_eps_zeta(spec, NormParams(e, 0.3)) for e in np.linspace(0.1, 2, 12)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_in_zeta(self):
        spec = ising_staggered_ti(1, 1.0, 1.0, REP)
        values = [
            norm_eps_zeta(spec, NormParams(0.5, z)) for z in np.linspace(0, 2, 12)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    @given(st.floats(0.0, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_scaling(self, c):
        fam = build_heisenberg(1.0, 1.0, REP, box_window([3]))
        scaled = build_heisenberg(c, 1.0, REP, box_window([3]))
        p = NormParams(0.7, 0.2)
        assert norm_eps_zeta(scaled, p) == pytest.approx(
            c * norm_eps_zeta(fam, p), rel=1e-12, abs=1e-300
        )

    def test_classical_heisenberg_log3(self):
        for nu, coupling, delta in ((1, 1.0, 1.0), (2, 0.5, 2.0), (3, 1.5, 0.3)):
            spec = classical_heisenberg_ti(nu, coupling, delta)
            value = norm_eps_zeta(spec, NormParams(LOG3))
            assert value == pytest.approx(
                6 * coupling * nu * max(abs(delta), 1.0), rel=1e-12
            )

    def test_overflowing_weight_is_infinite(self):
        spec = ising_staggered_ti(1, 1.0, 1.0, REP)
        assert norm_eps_zeta(spec, NormParams(1.0, 1e4)) == math.inf

    def test_zero_norm_motif_stays_zero_under_overflow(self):
        spec = ising_staggered_ti(1, 0.0, 1.0, REP)
        assert norm_eps_zeta(spec, NormParams(1.0, 1e4)) == 0.0

    def test_finite_family_without_field_at_infinite_zeta(self):
        # no single-site term: the zeta term drops out, as in the TI closed form
        fam = build_heisenberg(1.0, 1.0, REP, box_window([3]))
        value = norm_eps_zeta(fam, NormParams(1.0, math.inf))
        assert value == norm_eps_zeta(fam, NormParams(1.0))
        assert value == pytest.approx(norm_eps_zeta(heisenberg_ti(1, 1.0, 1.0, REP), NormParams(1.0)))

    def test_finite_family_overflowing_weight_is_infinite(self):
        fam = build_ising_staggered(1.0, 1.0, REP, box_window([3]))
        assert norm_eps_zeta(fam, NormParams(1.0, 1e308)) == math.inf


class TestWindowConsistency:
    def test_interior_matches_closed_form(self):
        spec = heisenberg_ti(1, 1.0, 1.0, REP)
        params = NormParams(0.9)
        closed = norm_eps_zeta(spec, params)
        report = window_norms(spec, box_window([5]), params)
        assert report.interior == closed
        assert report.boundary < closed

    def test_boundary_reported_separately(self):
        spec = heisenberg_ti(1, 1.0, 1.0, REP)
        report = window_norms(spec, box_window([4]), NormParams(0.5))
        # edge sites touch one bond, interior sites two
        assert report.per_site[(0,)] == pytest.approx(report.interior / 2)

    def test_two_dimensional_window(self):
        spec = heisenberg_ti(2, 0.8, 1.3, REP)
        params = NormParams(0.6)
        report = window_norms(spec, box_window([3, 3]), params)
        assert report.interior == norm_eps_zeta(spec, params)

    @pytest.mark.parametrize("nu, extents", [(1, [3, 3]), (2, [4])])
    def test_window_of_other_dimension_rejected(self, nu, extents):
        spec = heisenberg_ti(nu, 1.0, 1.0, REP)
        with pytest.raises(ValueError):
            window_norms(spec, box_window(extents), NormParams(0.6))

    def test_dimension_checked_without_motifs(self):
        """The window is checked against the spec's dimension itself, not
        only through the motifs' sites."""
        with pytest.raises(ValueError, match="dimension"):
            window_norms(TIInteractionSpec(2, ()), box_window([3]), NormParams(0.6))
        assert window_norms(TIInteractionSpec(1, ()), box_window([3]), NormParams(0.6)).interior == 0.0

    @pytest.mark.parametrize("extents", [[4], [3, 2], [2, 3, 2]])
    @pytest.mark.parametrize("model", ["heisenberg", "ising_staggered"])
    def test_counted_sums_match_instantiated_family(self, extents, model):
        """Counting motif translates gives the per-site sums of the family
        built term by term on the window, zeta weight included."""
        nu, rep, window = len(extents), SpinRep(2), box_window(extents)
        params = NormParams(0.7, 0.4)
        if model == "heisenberg":
            spec = heisenberg_ti(nu, 1.3, 0.6, rep)
            fam = build_heisenberg(1.3, 0.6, rep, window)
        else:
            spec = ising_staggered_ti(nu, -0.9, 1.7, rep)
            fam = build_ising_staggered(-0.9, 1.7, rep, window)
        report = window_norms(spec, window, params)
        oracle = site_norm_profile(fam, params)
        assert list(report.per_site) == list(window)
        assert set(oracle) == set(window)
        for x, value in report.per_site.items():
            assert value == pytest.approx(oracle[x], rel=1e-12)

    @pytest.mark.parametrize("shape", ["L", "hole"])
    @pytest.mark.parametrize("model", ["heisenberg", "ising_staggered"])
    def test_window_that_is_not_a_box(self, shape, model):
        """A translate fits when each of its sites is a window site, so the
        per-site sums match the family built on any window shape."""
        if shape == "L":
            window = Region.of(x for x in box_window([4, 4]) if min(x) < 2)
        else:
            window = Region.of(x for x in box_window([3, 3, 3]) if x != (1, 1, 1))
        nu, rep = len(window.sites[0]), SpinRep(2)
        params = NormParams(0.7, 0.4)
        if model == "heisenberg":
            spec = heisenberg_ti(nu, 1.3, 0.6, rep)
            fam = build_heisenberg(1.3, 0.6, rep, window)
        else:
            spec = ising_staggered_ti(nu, -0.9, 1.7, rep)
            fam = build_ising_staggered(-0.9, 1.7, rep, window)
        report = window_norms(spec, window, params)
        oracle = site_norm_profile(fam, params)
        assert set(oracle) == set(report.per_site) == set(window)
        for x, value in report.per_site.items():
            assert value == pytest.approx(oracle[x], rel=1e-12)
        # interior sites are those with all 2 nu neighbours in the window
        steps = [tuple(s * (k == i) for k in range(nu)) for i in range(nu) for s in (1, -1)]
        inner = {x for x in window if all(tuple(map(sum, zip(x, v))) in window for v in steps)}
        sums = report.per_site
        assert report.interior == max((sums[x] for x in inner), default=0.0)
        assert report.boundary == max(sums[x] for x in set(window) - inner)

    def test_no_eigendecomposition(self, monkeypatch):
        """Every translate carries its motif's scalar norm, computed when the
        motif was built: the window costs no operator norm at all."""
        from kmsbounds import lattice

        spec = heisenberg_ti(3, 1.0, 0.5, SpinRep(16))
        calls = []
        eigvalsh = lattice.np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(lattice.np.linalg, "eigvalsh", counting)
        report = window_norms(spec, box_window([4, 4, 4]), NormParams(0.6))
        assert calls == []
        assert report.interior == norm_eps_zeta(spec, NormParams(0.6))
