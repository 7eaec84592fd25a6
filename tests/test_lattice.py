import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmsbounds import lattice, ti
from kmsbounds.lattice import (
    InteractionFamily,
    LocalOperator,
    build_heisenberg,
    embed,
    embed_matrices,
    heisenberg_bond,
    hermitian_mask,
    operator_norm,
    operator_norms,
    spin_matrices,
)
from kmsbounds.ti import (
    EMPTY_REGION,
    DimensionCapError,
    FloatRangeError,
    Motif,
    Region,
    SpinRep,
    box_window,
    classical_heisenberg_ti,
    heisenberg_bond_norm,
    heisenberg_ti,
    ising_staggered_ti,
)

from ising_staggered import bond_product, build_ising_staggered, embedded_heisenberg_bond

RNG = np.random.default_rng(42)


def rand_matrix(dim, rng=RNG):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestRegion:
    def test_sorted_dedup(self):
        r = Region.of([(2,), (0,), (2,), (1,)])
        assert r.sites == ((0,), (1,), (2,))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            Region(((1,), (0,)))

    def test_empty_valid(self):
        assert len(Region(())) == 0

    def test_min_site_lexicographic(self):
        r = Region.of([(1, 0), (0, 5), (0, 2)])
        assert r.min_site() == (0, 2)

    @given(
        st.lists(st.integers(-5, 5), min_size=0, max_size=6),
        st.lists(st.integers(-5, 5), min_size=0, max_size=6),
    )
    def test_union_difference(self, xs, ys):
        a = Region.of([(x,) for x in xs])
        b = Region.of([(y,) for y in ys])
        u = a.union(b)
        assert a.issubset(u) and b.issubset(u)
        d = u.difference(b)
        assert set(d.sites) == set(a.sites) - set(b.sites)

    def test_subsets_order(self):
        r = Region.of([(0,), (1,)])
        sizes = [len(s) for s in r.subsets()]
        assert sizes == [0, 1, 1, 2]

    @pytest.mark.parametrize("op", ["issubset", "union", "intersection", "difference"])
    def test_mixed_dimensions_rejected(self, op):
        line, plane = Region(((0,),)), Region(((0, 1),))
        for a, b in ((line, plane), (plane, line)):
            with pytest.raises(ValueError, match="lattice dimension"):
                getattr(a, op)(b)

    @pytest.mark.parametrize("op", ["issubset", "union", "intersection", "difference"])
    def test_empty_region_meets_any_dimension(self, op):
        plane = Region(((0, 1),))
        getattr(EMPTY_REGION, op)(plane)
        getattr(plane, op)(EMPTY_REGION)


class TestSpinMatrices:
    @pytest.mark.parametrize("two_j", range(1, 9))
    def test_commutation_and_casimir(self, two_j):
        rep = SpinRep(two_j)
        s1, s2, s3 = spin_matrices(rep)
        trio = (s1, s2, s3)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            comm = trio[a] @ trio[b] - trio[b] @ trio[a] - 1j * trio[c]
            assert operator_norm(comm) <= 1e-12
        jval = rep.j
        casimir = s1 @ s1 + s2 @ s2 + s3 @ s3
        expected = jval * (jval + 1) * np.eye(rep.dim)
        assert np.linalg.norm(casimir.matrix - expected) <= 1e-12 * rep.dim

    def test_spin_half_is_half_pauli(self):
        s1, s2, s3 = spin_matrices(SpinRep(1))
        assert np.allclose(s1.matrix, [[0, 0.5], [0.5, 0]])
        assert np.allclose(s3.matrix, [[0.5, 0], [0, -0.5]])
        assert operator_norm(s3) == pytest.approx(0.5)

    def test_spin_one_s3(self):
        _, _, s3 = spin_matrices(SpinRep(2))
        assert np.allclose(s3.matrix, np.diag([1.0, 0.0, -1.0]))
        assert operator_norm(s3) == pytest.approx(1.0)

    def test_invalid_spin(self):
        with pytest.raises(ValueError):
            SpinRep(0)


class TestEmbed:
    def test_unitality(self):
        target = box_window([3])
        ident = LocalOperator.identity(Region(((0,),)), 2)
        assert np.allclose(embed(ident, target).matrix, np.eye(8))

    def test_s3_tensor_identity(self):
        _, _, s3 = spin_matrices(SpinRep(1), at=(0,))
        target = Region.of([(0,), (1,)])
        assert np.allclose(embed(s3, target).matrix, np.kron(s3.matrix, np.eye(2)))

    def test_leg_permutation(self):
        _, _, s3 = spin_matrices(SpinRep(1), at=(1,))
        target = Region.of([(0,), (1,)])
        assert np.allclose(embed(s3, target).matrix, np.kron(np.eye(2), s3.matrix))

    def test_isometry_random(self):
        target = box_window([3])
        for _ in range(50):
            a = LocalOperator(Region(((1,),)), rand_matrix(2), 2)
            assert operator_norm(embed(a, target)) == pytest.approx(
                operator_norm(a), rel=1e-10
            )

    def test_multiplicativity(self):
        for reg, dim in ((Region.of([(0,), (2,)]), 4), (Region(((1,),)), 2)):
            target = box_window([3])
            for _ in range(25):
                a = LocalOperator(reg, rand_matrix(dim), 2)
                b = LocalOperator(reg, rand_matrix(dim), 2)
                lhs = embed(a @ b, target)
                rhs = embed(a, target) @ embed(b, target)
                assert np.allclose(lhs.matrix, rhs.matrix)

    def test_stack_matches_kron_reference(self):
        region, target = Region.of([(0,), (2,)]), box_window([3])
        mats = np.stack([rand_matrix(4) for _ in range(3)])
        stacked = embed_matrices(mats, region, target, 2)
        for mat, out in zip(mats, stacked):
            # kron legs are sites (0, 2, 1); move site 1 to the middle
            ref = np.kron(mat, np.eye(2)).reshape((2,) * 6).transpose(0, 2, 1, 3, 5, 4)
            assert np.array_equal(out, ref.reshape(8, 8))
            assert np.array_equal(out, embed(LocalOperator(region, mat, 2), target).matrix)

    def test_not_subset(self):
        a = LocalOperator(Region(((5,),)), rand_matrix(2), 2)
        with pytest.raises(ValueError):
            embed(a, box_window([3]))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(LocalOperator.identity(box_window([2]), 2)) == 1.0

    @pytest.mark.parametrize("delta", [-1.5, -0.3, 0.4, 1.0, 2.0])
    def test_heisenberg_bond_eigenvalues(self, delta):
        bond = LocalOperator(box_window([2]), heisenberg_bond(SpinRep(1), delta), 2)
        eigs = np.sort(np.linalg.eigvalsh(bond.matrix))
        expected = np.sort([0.25, 0.25, -0.25 + delta / 2, -0.25 - delta / 2])
        assert np.allclose(eigs, expected, atol=1e-12)
        assert operator_norm(bond) == pytest.approx(abs(delta) / 2 + 0.25)

    @pytest.mark.parametrize("two_j", [1, 2, 3])
    def test_s3s3_norm(self, two_j):
        rep = SpinRep(two_j)
        _, _, s3 = spin_matrices(rep, at=(0,))
        _, _, s3b = spin_matrices(rep, at=(1,))
        target = Region.of([(0,), (1,)])
        prod = embed(s3, target) @ embed(s3b, target)
        assert operator_norm(prod) == pytest.approx(rep.j ** 2)

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(7)
        for dim, nsites in ((2, 1), (4, 2), (8, 3), (64, 6)):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = LocalOperator(box_window([nsites]), m, 2)
            oracle = float(np.linalg.svd(m, compute_uv=False).max())
            assert operator_norm(a) == pytest.approx(oracle, rel=1e-10)

    def test_dimension_cap(self, monkeypatch):
        at_cap = LocalOperator.identity(box_window([2]), 2)
        above = LocalOperator.identity(box_window([3]), 2)
        monkeypatch.setattr(lattice, "DIMENSION_CAP", 4)
        assert operator_norm(at_cap) == 1.0
        with pytest.raises(DimensionCapError):
            operator_norm(above)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [5e-324, 1e-300, 1.0, 1e300])
    def test_hermitian_check_scale_invariant(self, scale):
        hermitian = np.array([[1, 2j], [-2j, 3]])
        symmetric = np.array([[1, 2j], [2j, 3]])
        assert hermitian_mask(scale * hermitian)
        assert not hermitian_mask(scale * symmetric)

    @pytest.mark.filterwarnings("error")
    def test_hermitian_mask_matches_three_temporary_formula(self):
        """The mask that forms M - M* in one buffer gives the masks of the
        formula with a separate conjugate transpose and difference, on random
        stacks near the tolerance, with entries near the float maximum and
        with a subnormal peak."""
        import sys

        def reference(mats, rtol=lattice.HERMITIAN_RTOL):
            peak = np.abs(mats).max(axis=(-2, -1))
            unit = mats * (1.0 / np.maximum(peak, sys.float_info.min))[..., None, None]
            skew = np.linalg.norm(unit - unit.conj().swapaxes(-2, -1), axis=(-2, -1))
            return skew <= rtol * np.linalg.norm(unit, axis=(-2, -1))

        rng = np.random.default_rng(23)
        general = np.array([rand_matrix(4, rng) for _ in range(64)])
        hermitian = (general + general.conj().swapaxes(-2, -1)) / 2
        # skew parts around the tolerance, so both outcomes occur
        scales = np.geomspace(1e-14, 1e-10, len(general))[:, None, None]
        near = hermitian + scales * (general - general.conj().swapaxes(-2, -1))
        unit = near / np.abs(near).max()
        stacks = [
            general, hermitian, near, near.real, np.zeros((3, 4, 4)),
            unit * 1.7e308,  # entries near the float maximum
            (unit * 1e-310).reshape(8, 8, 4, 4),  # subnormal peaks
        ]
        for mats in stacks:
            mask = lattice.hermitian_mask(mats)
            assert mask.dtype == bool
            assert np.array_equal(mask, reference(mats))
        assert 0 < lattice.hermitian_mask(near).sum() < len(near)

    @given(st.floats(-4, 4))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, c):
        a = LocalOperator(Region(((0,),)), np.array([[1, 2j], [-2j, 3]]), 2)
        assert operator_norm(c * a) == pytest.approx(abs(c) * operator_norm(a))

    def test_stack_matches_one_at_a_time(self):
        """``operator_norms`` takes each matrix's own Hermitian or SVD branch
        and gives, in mixed stacks too, bit for bit what eigvalsh or the SVD
        norm of that matrix gives alone."""
        rng = np.random.default_rng(11)
        general = [rand_matrix(4, rng) for _ in range(4)]
        hermitian = [(m + m.conj().T) / 2 for m in general]
        zero = [np.zeros((4, 4), dtype=complex)]
        skew = general[3] - general[3].conj().T
        roundoff = [
            hermitian[0] + 1e-17 * general[1],  # Hermitian up to roundoff
            hermitian[1] + 1e-12 * skew,  # at the Hermitian tolerance
            hermitian[2] + 1e-11 * skew,
            hermitian[2] * 1e-310,  # subnormal entries
            general[0] * 5e-324,
        ]
        for mats in (hermitian, general, zero, roundoff, hermitian + general + zero + roundoff):
            alone = [
                float(np.abs(np.linalg.eigvalsh(m)).max())
                if hermitian_mask(m)
                else float(np.linalg.norm(m, 2))
                for m in mats
            ]
            assert operator_norms(np.array(mats)).tolist() == alone
            assert [operator_norm(LocalOperator(box_window([2]), m, 2)) for m in mats] == alone

    @pytest.mark.parametrize("dim", [1, 2, 4, 9])
    def test_any_leading_axes(self, dim):
        """``operator_norms`` of a (D, D) matrix, a (K, D, D) stack and a
        (K, B, D, D) stack gives each matrix bit for bit its one-matrix norm,
        in mixed stacks of Hermitian, general and Hermitian matrices scaled
        to 1e300; a single matrix is not read as a stack of its rows."""
        rng = np.random.default_rng(dim)
        general = [rand_matrix(dim, rng) for _ in range(4)]
        hermitian = [(m + m.conj().T) / 2 for m in general]
        mats = np.array(hermitian + general + [1e300 * m for m in hermitian])
        alone = np.array([operator_norms(m[None])[0] for m in mats])
        assert alone[:4].tolist() == [float(np.abs(np.linalg.eigvalsh(m)).max()) for m in hermitian]
        assert alone[4:8].tolist() == [float(np.linalg.norm(m, 2)) for m in general]
        for m, norm in zip(mats, alone):
            single = operator_norms(m)
            assert single.shape == () and single == norm
            assert operator_norm(LocalOperator(box_window([1]), m, dim)) == norm
        assert operator_norms(mats).tolist() == alone.tolist()
        grid = mats.reshape(3, 4, dim, dim)
        assert operator_norms(grid).tolist() == alone.reshape(3, 4).tolist()
        assert operator_norms(grid.swapaxes(0, 1)).tolist() == alone.reshape(3, 4).T.tolist()

    def test_stack_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(lattice, "DIMENSION_CAP", 4)
        assert operator_norms(np.zeros((1, 4, 4))).tolist() == [0.0]
        with pytest.raises(DimensionCapError):
            operator_norms(np.zeros((1, 8, 8)))


class TestCheckedConstructors:
    """The public constructors keep every check; the regions and operators
    the package builds unchecked are what the checked constructors build."""

    @pytest.mark.parametrize("sites", [((1,), (0,)), ((0,), (0,)), ((0,), (0, 1))])
    def test_region_rejects_unsorted_duplicate_or_mixed_sites(self, sites):
        with pytest.raises(ValueError):
            Region(sites)

    def test_operator_rejects_wrong_shape_and_false_hermitian_flag(self):
        with pytest.raises(ValueError, match="does not match"):
            LocalOperator(box_window([2]), np.eye(2), 2)
        with pytest.raises(ValueError, match="does not match"):
            LocalOperator(Region(((0,),)), np.eye(3), 2)
        with pytest.raises(ValueError, match="Hermitian"):
            LocalOperator(Region(((0,),)), np.array([[0, 1], [0, 0]]), 2, hermitian=True)

    @given(
        st.lists(st.integers(-5, 5), min_size=0, max_size=5),
        st.lists(st.integers(-5, 5), min_size=0, max_size=5),
    )
    def test_set_operations_equal_checked_regions(self, xs, ys):
        a = Region.of([(x,) for x in xs])
        b = Region.of([(y,) for y in ys])
        for result in (a.union(b), a.difference(b), a.intersection(b), *a.subsets()):
            checked = Region(result.sites)
            assert result == checked and hash(result) == hash(checked)

    def test_arithmetic_results_pass_the_checks(self):
        a = LocalOperator(Region(((0,),)), rand_matrix(2), 2)
        b = LocalOperator(Region(((1,),)), rand_matrix(2), 2)
        results = (a + b, a - b, a @ b, -a, 2.5 * a, a.dagger(), embed(a, box_window([3])))
        for op in results:
            checked = LocalOperator(op.region, op.matrix, op.site_dim)
            assert op.matrix.dtype == complex
            assert np.array_equal(checked.matrix, op.matrix)


class TestBuilders:
    def test_heisenberg_two_site(self):
        fam = build_heisenberg(1.0, 1.0, SpinRep(1), box_window([2]))
        assert len(fam.multilocal()) == 1
        (op,) = fam.multilocal().values()
        assert operator_norm(op) == pytest.approx(0.75)

    def test_heisenberg_no_single_site(self):
        fam = build_heisenberg(1.0, 0.7, SpinRep(1), box_window([4]))
        assert fam.singletons() == {}
        for x in box_window([4]):
            assert not np.any(fam.psi(x).matrix)

    def test_heisenberg_bond_count_2d(self):
        fam = build_heisenberg(1.0, 1.0, SpinRep(1), box_window([2, 2]))
        assert len(fam.multilocal()) == 4  # 2x2 plaquette has 4 edges

    def test_delta_zero_is_ising_coupling(self):
        rep = SpinRep(1)
        fam = build_heisenberg(1.0, 0.0, rep, box_window([2]))
        (op,) = fam.multilocal().values()
        _, _, s3 = spin_matrices(rep)
        assert np.allclose(op.matrix, -np.kron(s3.matrix, s3.matrix))

    def test_staggering_signs(self):
        rep = SpinRep(1)
        fam = build_ising_staggered(1.0, 2.0, rep, box_window([3]))
        _, _, s3 = spin_matrices(rep)
        assert np.allclose(fam.psi((0,)).matrix, 2.0 * s3.matrix)
        assert np.allclose(fam.psi((1,)).matrix, -2.0 * s3.matrix)
        assert np.allclose(fam.psi((2,)).matrix, 2.0 * s3.matrix)

    def test_zero_field_no_singletons(self):
        fam = build_ising_staggered(1.0, 0.0, SpinRep(1), box_window([3]))
        assert fam.singletons() == {}

    def test_staggered_terms_commute(self):
        fam = build_ising_staggered(1.3, 0.8, SpinRep(1), box_window([3]))
        for phi in fam.multilocal().values():
            for psi in fam.singletons().values():
                comm = phi @ psi - psi @ phi
                assert operator_norm(comm) < 1e-12

    def test_all_terms_hermitian(self):
        for fam in (
            build_heisenberg(0.9, -1.2, SpinRep(2), box_window([3])),
            build_ising_staggered(1.0, 0.5, SpinRep(1), box_window([2, 2])),
        ):
            for op in fam.terms.values():
                assert op.is_hermitian()

    def test_non_hermitian_rejected(self):
        reg = Region(((0,),))
        bad = LocalOperator(reg, np.array([[0, 1], [0, 0]], dtype=complex), 2)
        with pytest.raises(ValueError):
            InteractionFamily({reg: bad}, 2)


class TestTISpec:
    def test_motif_norm_agreement(self):
        """A motif's scalar norm is |coefficient| x its bond norm, and a
        Heisenberg motif carries the operator norm of its bond."""
        bond = LocalOperator(box_window([2]), heisenberg_bond(SpinRep(1), 1.0), 2)
        motif = heisenberg_ti(1, 2.0, 1.0, SpinRep(1)).motifs[0]
        assert motif.bond_norm == operator_norm(bond) == 0.75
        assert motif.scalar_norm() == 1.5
        assert Motif(bond.region, -1.5, 0.75).scalar_norm() == 1.125
        with pytest.raises(FloatRangeError, match=re.escape("the motif term -1e+300 x bond has")):
            Motif(bond.region, -1e300, 1e10)

    def test_ising_spec_psi_norm(self):
        spec = ising_staggered_ti(2, 1.0, 3.0, SpinRep(1))
        assert spec.psi_site_norm == pytest.approx(1.5)  # |B| j
        assert len(spec.motifs) == 2

    def test_axis_bond_regions(self):
        for spec in (
            heisenberg_ti(3, 1.0, 0.5, SpinRep(2)),
            ising_staggered_ti(3, 1.0, 0.5, SpinRep(2)),
            classical_heisenberg_ti(3, 1.0, 0.5),
        ):
            assert [m.region for m in spec.motifs] == [
                Region.of([(0, 0, 0), e]) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
            ]


class TestBondsByKronecker:
    """Bonds are built once as Kronecker products of the one-site matrices;
    the oracles embed each one-site matrix into the pair and multiply."""

    @pytest.mark.parametrize("two_j", range(1, 17))
    def test_heisenberg_bond_equals_embedded_products(self, two_j):
        rep = SpinRep(two_j)
        for delta in (-2.3, 0.0, 0.6, 1.0):
            assert np.array_equal(heisenberg_bond(rep, delta), embedded_heisenberg_bond(rep, delta))

    @pytest.mark.parametrize("two_j", [3, 8, 16])
    def test_huge_delta_overflows_in_both(self, two_j):
        rep = SpinRep(two_j)
        with pytest.raises(FloatRangeError, match="beyond the float range"):
            heisenberg_bond(rep, 1.7e308)
        with pytest.raises(FloatRangeError):
            embedded_heisenberg_bond(rep, 1.7e308)

    def test_ising_bond_equals_embedded_product(self):
        """The Ising motifs carry j^2, the operator norm of the embedded
        product S3 S3, which is ``kron(S3, S3)``."""
        for two_j in (1, 4, 9, 16):
            rep = SpinRep(two_j)
            _, _, s3 = spin_matrices(rep)
            oracle = bond_product(s3.matrix, rep.dim, (0, 0), (0, 1)).matrix
            assert np.array_equal(np.kron(s3.matrix, s3.matrix), oracle)
            norm = float(operator_norms(oracle))
            assert norm == rep.j ** 2
            for motif in ising_staggered_ti(2, 0.7, 1.1, rep).motifs:
                assert motif.bond_norm == norm

    def test_families_equal_embedded_bonds(self):
        rep, window = SpinRep(3), box_window([3, 2])
        fam = build_heisenberg(1.3, 0.6, rep, window)
        oracle = -1.3 * embedded_heisenberg_bond(rep, 0.6)
        assert len(fam.terms) == 7
        for op in fam.terms.values():
            assert np.array_equal(op.matrix, oracle)

    def test_no_embedding(self, monkeypatch):
        """The builders form Kronecker products and embed no one-site matrix."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return embed(*args, **kwargs)

        monkeypatch.setattr(lattice, "embed", counting)
        heisenberg_ti(3, 1.0, 0.5, SpinRep(16))
        ising_staggered_ti(3, 1.0, 0.5, SpinRep(16))
        build_heisenberg(1.0, 0.5, SpinRep(2), box_window([3, 3]))
        assert calls == []


#: largest relative distance allowed between ``heisenberg_bond_norm`` and
#: ``operator_norms(heisenberg_bond(...))``; the largest measured over every
#: 2j and the deltas below is 2.5e-15
BOND_NORM_RTOL = 1e-14

#: deltas of every sign and size, up to those whose bond or norm is beyond
#: the float range
BOND_DELTAS = (0.0, 0.4, -0.4, 0.5, 1.0, 3.7, -2.3, 1e160, -1e160, 1e200, 1e307, 1.7e308)


def _numpy_motif_norm(rep, delta):
    """The bond norm as ``eigvalsh`` of the dense bond gives it, or the
    message of the ``FloatRangeError`` that the bond or its motif raises."""
    try:
        norm = float(operator_norms(heisenberg_bond(rep, delta)))
        Motif(box_window([2]), -1.0, norm)
    except FloatRangeError as exc:
        return str(exc)
    return norm


class TestHeisenbergBondNorm:
    """``heisenberg_bond_norm`` bisects the XXZ blocks of fixed total S3 by
    Sturm counts; the dense bond and its eigvalsh are the oracle."""

    @pytest.mark.parametrize("two_j", range(1, 17))
    def test_matches_dense_bond(self, two_j):
        rep = SpinRep(two_j)
        for delta in BOND_DELTAS:
            want = _numpy_motif_norm(rep, delta)
            try:
                got = heisenberg_ti(1, 1.0, delta, rep).motifs[0].bond_norm
            except FloatRangeError as exc:
                got = str(exc)
            if isinstance(want, str):
                assert got == want, delta
            else:
                assert math.isfinite(got)
                assert abs(got - want) <= BOND_NORM_RTOL * want, (delta, got, want)

    def test_sturm_test_bounds_both_ends(self):
        """``_within`` holds just above the spectral norm of a symmetric
        tridiagonal matrix and fails just below it, whichever end of the
        spectrum sets the norm."""
        rng = np.random.default_rng(5)
        for shift in (4.0, -4.0, 0.0):
            for n in (1, 2, 5, 9):
                diag = rng.normal(size=n) + shift
                off = rng.normal(size=n - 1)
                mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
                norm = float(np.abs(np.linalg.eigvalsh(mat)).max())
                args = diag.tolist(), (off ** 2).tolist()
                assert ti._within(*args, norm * (1 + 1e-12))
                assert not ti._within(*args, norm * (1 - 1e-12))

    @pytest.mark.parametrize("two_j", range(1, 17))
    def test_closed_forms(self, two_j):
        """delta = 0 leaves the diagonal m1 m2, of norm j^2, and the norm is
        even in delta (the blocks of -delta are similar to those of delta)."""
        rep = SpinRep(two_j)
        assert heisenberg_bond_norm(rep, 0.0) == rep.j ** 2
        for delta in (0.3, 1.0, 2.5):
            assert heisenberg_bond_norm(rep, -delta) == heisenberg_bond_norm(rep, delta)


@pytest.mark.parametrize("extents", [[1], [5], [3, 1], [2, 3], [3, 1, 4], [2, 2, 2]])
def test_box_window_sites_sorted(extents):
    window = box_window(extents)
    sites = [tuple(s) for s in np.ndindex(*extents)]
    assert window.sites == tuple(sorted(sites))
    assert window == Region(window.sites)
    assert all(type(c) is int for s in window for c in s)
