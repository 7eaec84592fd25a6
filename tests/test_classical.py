import dataclasses
import math
import tracemalloc
from typing import Callable

import numpy as np
import pytest

from kmsbounds import classical
from kmsbounds.classical import (
    ClassicalPotential,
    SphereGrid,
    _difference,
    _gibbs_averages,
    _values,
    _window_chunks,
    classical_gibbs_expectation,
    classical_kernel_bound_check,
    classical_supnorm,
    heisenberg_bond_potential,
    invariance_residual,
    random_rotation,
)
from kmsbounds.ti import Region, box_window, classical_heisenberg_ti
from kmsbounds.verify import run_classical_suite

GRID = SphereGrid(16)
W1 = Region(((0,),))
W2 = box_window([2])


def site_field_potential(x, fn_single) -> ClassicalPotential:
    """A potential on the one site ``x``: ``fn_single`` maps a list of its
    spins (..., n, 3) to values (..., n), the potential's one factor."""
    return ClassicalPotential(Region.of([x]), lambda v: (fn_single(v)[..., None],))


def ones(v):
    """The one-site factor of a constant: one column of ones."""
    return np.ones((len(v), 1))


def sine_observable(u, w):
    """sin(u_x + w_z / 2) + u_z w_y on two sites, as a sum of three products
    of one-site functions, by sin(a + b) = sin a cos b + cos a sin b."""
    return (
        np.stack([np.sin(u[:, 0]), np.cos(u[:, 0]), u[:, 2]], axis=-1),
        np.stack([np.cos(0.5 * w[:, 2]), np.sin(0.5 * w[:, 2]), w[:, 1]], axis=-1),
    )


def rotation_about_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestSphereGrid:
    def test_weights_normalized(self):
        assert GRID.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(GRID.weights > 0)

    def test_constant(self):
        assert abs(GRID.integrate(np.ones(len(GRID.weights))) - 1.0) <= 1e-12

    def test_linear_harmonic(self):
        assert abs(GRID.integrate(GRID.vectors[:, 2])) <= 1e-12

    def test_quadratic_harmonic(self):
        assert abs(GRID.integrate(GRID.vectors[:, 2] ** 2) - 1 / 3) <= 1e-10

    def test_unit_vectors(self):
        norms = np.linalg.norm(GRID.vectors, axis=1)
        assert np.allclose(norms, 1.0)

    def test_small_order_rejected(self):
        with pytest.raises(ValueError):
            SphereGrid(1)

    def test_vectors_and_weights_read_only(self):
        grid = SphereGrid(4)
        with pytest.raises(ValueError):
            grid.vectors[0, 0] = 2.0
        with pytest.raises(ValueError):
            grid.weights[0] = 2.0


def c_order_product(*site_vectors):
    """The product grid built C-order, (n_1 ... n_k, k, 3) with first site
    slowest: the configurations that the oracles evaluate pointwise."""
    shape = tuple(len(v) for v in site_vectors)
    k = len(shape)
    out = np.empty(shape + (k, 3))
    for s, v in enumerate(site_vectors):
        out[..., s, :] = v.reshape((1,) * s + (len(v),) + (1,) * (k - s - 1) + (3,))
    return out.reshape(math.prod(shape), k, 3)


def c_order_weights(weights, nsites):
    """The product weights of the grid over ``nsites`` sites, first site
    slowest, in the row order of ``c_order_product``."""
    out = np.ones(1)
    for _ in range(nsites):
        out = (out[:, None] * weights).reshape(-1)
    return out


@pytest.mark.parametrize("nsites", [0, 1, 2, 3])
def test_window_chunks_cover_product_grid(nsites):
    grid = SphereGrid(4)
    chunks = list(_window_chunks(grid, nsites))
    for weights, lists in chunks:
        assert len(lists) == nsites
        assert weights.shape == tuple(len(v) for v in lists)
        assert not any(v.flags.writeable for v in lists)
    # the chunks in order are the product grid, row for row and weight for
    # weight; each weight is a product of nsites grid weights, rounded once
    # per factor
    configs = np.concatenate([c_order_product(*lists) for _, lists in chunks])
    assert np.array_equal(configs, c_order_product(*[grid.vectors] * nsites))
    weights = np.concatenate([w.reshape(-1) for w, _ in chunks])
    expected = c_order_weights(grid.weights, nsites)
    assert np.max(np.abs(weights - expected) / expected) <= 4 * np.finfo(float).eps
    assert weights.sum() == pytest.approx(1.0, abs=1e-13)


class TestWindowCache:
    def test_window_built_once_per_grid(self):
        grid = SphereGrid(4)
        weights, lists = next(_window_chunks(grid, 2))
        weights_again, lists_again = next(_window_chunks(grid, 2))
        assert weights_again is weights
        assert all(v is grid.vectors for v in lists + lists_again)
        assert np.array_equal(weights, np.outer(grid.weights, grid.weights))

    def test_cached_window_is_read_only(self):
        grid = SphereGrid(4)
        bond = heisenberg_bond_potential((0,), (1,), 1.0, 1.5)
        obs = lambda u, w: (u[:, 2:3], w[:, 0:1])
        before = classical_gibbs_expectation(W2, [bond], 0.8, obs, grid)
        weights, _ = next(_window_chunks(grid, 2))
        with pytest.raises(ValueError):
            weights[0, 0] = 2.0

        def writing(u, w):
            u[:, 2] *= 2.0
            return u[:, 2:3], w[:, 0:1]

        with pytest.raises(ValueError):
            classical_gibbs_expectation(W2, [bond], 0.8, writing, grid)
        with pytest.raises(ValueError):
            invariance_residual(W2, [bond], 0.8, writing, (1,), rotation_about_z(0.4), grid)
        # the rejected writes left the grid as it was
        fresh_grid = SphereGrid(4)
        assert np.array_equal(grid.vectors, fresh_grid.vectors)
        assert np.array_equal(grid.weights, fresh_grid.weights)
        assert np.array_equal(weights, np.outer(grid.weights, grid.weights))
        after = classical_gibbs_expectation(W2, [bond], 0.8, obs, grid)
        fresh = classical_gibbs_expectation(W2, [bond], 0.8, obs, fresh_grid)
        assert after.hex() == before.hex() == fresh.hex()

    def test_repeated_expectations_bit_identical(self):
        # the second call reuses the grid's cached weights and scratch buffers
        bond = heisenberg_bond_potential((0,), (1,), 0.9, -1.2)
        grid = SphereGrid(16)
        first = classical_gibbs_expectation(W2, [bond], 0.6, sine_observable, grid)
        second = classical_gibbs_expectation(W2, [bond], 0.6, sine_observable, grid)
        assert first.hex() == second.hex()


class TestGibbsExpectation:
    def test_normalization(self):
        bond = heisenberg_bond_potential((0,), (1,), 1.0, 1.0)
        value = classical_gibbs_expectation(
            W2, [bond], 0.7, lambda u, w: (ones(u), ones(w)), GRID
        )
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_single_site_langevin(self):
        field = site_field_potential((0,), lambda v: v[..., 2])
        value = classical_gibbs_expectation(
            W1, [field], 1.0, lambda u: (u[:, 2:3],), GRID
        )
        exact = -(1.0 / math.tanh(1.0) - 1.0)
        assert value == pytest.approx(exact, abs=1e-12)

    def test_beta_zero_sphere_average(self):
        bond = heisenberg_bond_potential((0,), (1,), 1.0, 1.0)
        value = classical_gibbs_expectation(
            W2, [bond], 0.0, lambda u, w: (u[:, 2:3] ** 2, ones(w)), GRID
        )
        assert value == pytest.approx(1 / 3, abs=1e-10)

    def test_order_doubling_converges(self):
        bond = heisenberg_bond_potential((0,), (1,), 1.0, 1.5)
        obs = lambda u, w: (np.exp(u[:, 2:3]), w[:, 0:1] ** 2)
        coarse = classical_gibbs_expectation(W2, [bond], 1.0, obs, SphereGrid(16))
        fine = classical_gibbs_expectation(W2, [bond], 1.0, obs, SphereGrid(32))
        assert abs(coarse - fine) <= 1e-6 * abs(fine)

    def test_three_site_window(self):
        pots = [
            heisenberg_bond_potential((0,), (1,), 1.0, 1.0),
            heisenberg_bond_potential((1,), (2,), 1.0, 1.0),
        ]
        grid = SphereGrid(6)
        value = classical_gibbs_expectation(
            box_window([3]), pots, 0.5, lambda u, v, w: (ones(u), v[:, 2:3], ones(w)), grid
        )
        # odd under global flip of all spins, so the average vanishes
        assert abs(value) < 1e-12

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            classical_gibbs_expectation(
                box_window([4]), [], 1.0, lambda *lists: [ones(v) for v in lists], SphereGrid(4)
            )


def _grid_bond(coupling, delta):
    """The Heisenberg bond without its closed form, so the grid search runs."""
    bond = heisenberg_bond_potential((0,), (1,), coupling, delta)
    return dataclasses.replace(bond, sup_norm=None)


class TestSupNorm:
    def test_coordinate_function(self):
        pot = site_field_potential((0,), lambda v: v[..., 2])
        assert classical_supnorm(pot) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize(
        "coupling,delta", [(1.0, 2.0), (3.0, 0.5), (1.0, 1.0), (0.7, -1.8)]
    )
    def test_heisenberg_bond(self, coupling, delta):
        # one closed form for the bond potential and the classical motif
        # norm, and the grid search finds it
        closed = heisenberg_bond_potential((0,), (1,), coupling, delta).sup_norm
        assert closed == abs(coupling) * max(abs(delta), 1.0)
        assert closed == classical_heisenberg_ti(1, coupling, delta).motifs[0].scalar_norm()
        assert classical_supnorm(_grid_bond(coupling, delta)) == pytest.approx(closed, abs=1e-4)

    def test_dense_grid_oracle(self):
        # the bond is bilinear, phi = -J u^T D v with D = diag(delta, delta, 1),
        # so sup over v at fixed u is J ||D u||; maximize that over a dense
        # 256^2 u-grid that includes the poles
        coupling, delta = 3.0, 0.5
        pot = _grid_bond(coupling, delta)
        thetas = np.linspace(0.0, math.pi, 256)
        phis = 2 * math.pi * np.arange(256) / 256
        t, p = np.meshgrid(thetas, phis, indexing="ij")
        u = np.stack(
            [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1
        ).reshape(-1, 3)
        du = u * np.array([delta, delta, 1.0])
        oracle = coupling * float(np.linalg.norm(du, axis=1).max())
        assert classical_supnorm(pot) == pytest.approx(oracle, abs=1e-4)

    def test_closed_form_bypass(self):
        pot = ClassicalPotential(W2, lambda u, w: (u[..., 2:], ones(w)), sup_norm=4.2)
        assert classical_supnorm(pot) == 4.2


def test_potential_region_size_rejected():
    # a potential lives on one or two sites, closed form or not; the
    # sup-norm search and the quadratures rely on it
    factors = lambda *lists: [v[..., 2:] for v in lists]
    for region in (Region(()), box_window([3])):
        for sup_norm in (None, 1.0):
            with pytest.raises(ValueError):
                ClassicalPotential(region, factors, sup_norm)
    for region in (W1, W2):
        assert len(ClassicalPotential(region, factors).region) == len(region)


class TestInvariance:
    observable = staticmethod(sine_observable)

    def test_identity_rotation(self):
        bond = heisenberg_bond_potential((0,), (1,), 1.0, 1.0)
        assert (
            invariance_residual(W2, [bond], 0.5, self.observable, (0,), np.eye(3), GRID)
            == 0.0
        )

    def test_z_rotations(self):
        bond = heisenberg_bond_potential((0,), (1,), 1.0, 1.0)
        for angle in (0.3, 1.2, 2.9):
            r = rotation_about_z(angle)
            resid = invariance_residual(W2, [bond], 0.5, self.observable, (0,), r, GRID)
            assert resid < 1e-6

    def test_random_rotations(self):
        rng = np.random.default_rng(8)
        bond = heisenberg_bond_potential((0,), (1,), 0.8, 1.4)
        for _ in range(5):
            r = random_rotation(rng)
            resid = invariance_residual(W2, [bond], 1.0, self.observable, (0,), r, GRID)
            assert resid < 1e-6

    def test_free_measure_rotation_invariance(self):
        resid = invariance_residual(
            W2, [], 0.9, self.observable, (0,), rotation_about_z(1.0), GRID
        )
        assert resid < 1e-10

    def test_one_pass_matches_two_expectations(self):
        # the shared pass gives the same bits as two separate passes, one for
        # the Gibbs average and one for the dressed average alone
        bond = heisenberg_bond_potential((0,), (1,), 0.8, 1.4)
        field = site_field_potential((1,), lambda v: 0.3 * v[..., 0])
        beta, r = 0.9, random_rotation(np.random.default_rng(4))

        def dressed(boltz, lists, spare):
            # phi - phi o R is the bond's factors with the factor of the
            # rotated site replaced by F(V) - F(V R); the field is off that site
            u, w = lists
            f_u, f_w = bond.factors(u, w)
            spare.fill(0.0)
            spare += (f_u - bond.factors(u @ r, w)[0]) @ f_w.T
            spare *= beta
            np.exp(spare, out=spare)
            spare *= boltz
            return spare, [u @ r, w]

        lhs = classical_gibbs_expectation(W2, [bond, field], beta, self.observable, GRID)
        rhs = _gibbs_averages(W2, [bond, field], beta, self.observable, [dressed], GRID)[0]
        resid = invariance_residual(W2, [bond, field], beta, self.observable, (0,), r, GRID)
        assert resid == abs(lhs - rhs)

    def test_rejects_non_rotation(self):
        bond = heisenberg_bond_potential((0,), (1,), 1.0, 1.0)
        with pytest.raises(ValueError):
            invariance_residual(
                W2, [bond], 0.5, self.observable, (0,), 2.0 * np.eye(3), GRID
            )

    def test_single_site_potential_included(self):
        field = site_field_potential((0,), lambda v: 0.7 * v[..., 2])
        bond = heisenberg_bond_potential((0,), (1,), 1.0, 1.0)
        rng = np.random.default_rng(2)
        resid = invariance_residual(
            W2, [bond, field], 0.8, self.observable, (0,), random_rotation(rng), GRID
        )
        assert resid < 1e-6


def rotate_site(configs: np.ndarray, site_index: int, r: np.ndarray) -> np.ndarray:
    """Pull-back configuration map on a materialized grid: replace the vector
    at one site by R^{-1} applied to it, leaving all other sites untouched.

    ``configs`` has shape (..., k, 3).  A single rotation (3, 3) gives the
    same shape; a stack (R, 3, 3) gives (R, ..., k, 3), one slice per
    rotation.  Either way each slice has the memory layout of ``configs``.
    The quadratures rotate the site's vector list instead; this is their
    oracle.
    """
    r = np.asarray(r)
    if r.ndim == 2:
        out = np.empty_like(configs)
    else:
        # axes of configs from slowest to fastest, the rotation axis outermost
        axes = sorted(range(configs.ndim), key=lambda a: -configs.strides[a])
        out = np.empty((len(r), *[configs.shape[a] for a in axes]))
        out = out.transpose(0, *[1 + axes.index(a) for a in range(configs.ndim)])
        r = r.reshape(len(r), *[1] * (configs.ndim - 3), 3, 3)
    out[..., :site_index, :] = configs[..., :site_index, :]
    out[..., site_index + 1 :, :] = configs[..., site_index + 1 :, :]
    # v -> R^T v = R^{-1} v
    np.matmul(configs[..., site_index, :], r, out=out[..., site_index, :])
    return out


def component_major(configs):
    """A copy of ``configs`` laid out like the quadrature grids."""
    return np.ascontiguousarray(configs.transpose(1, 2, 0)).transpose(2, 0, 1)


class TestRotateSite:
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, component_major])
    @pytest.mark.parametrize("site", [0, 1, 2])
    def test_matches_copy_then_rotate(self, layout, site):
        rng = np.random.default_rng(site)
        configs = layout(rng.normal(size=(40, 3, 3)))
        rotations = np.array([random_rotation(rng) for _ in range(4)])
        expected = []
        for r in rotations:
            oracle = configs.copy()
            oracle[..., site, :] = configs[..., site, :] @ r
            single = rotate_site(configs, site, r)
            assert np.array_equal(single, oracle)
            assert single.strides == configs.strides
            expected.append(oracle)
        stacked = rotate_site(configs, site, rotations)
        assert np.array_equal(stacked, np.array(expected))
        # each rotation's slice keeps the layout of the input
        assert stacked[0].strides == configs.strides

    def test_stack_over_leading_axes(self):
        rng = np.random.default_rng(7)
        configs = rng.normal(size=(4, 5, 2, 3))
        rotations = np.array([random_rotation(rng) for _ in range(3)])
        stacked = rotate_site(configs, 1, rotations)
        assert stacked.shape == (3, 4, 5, 2, 3)
        for r, out in zip(rotations, stacked):
            assert np.array_equal(out, rotate_site(configs, 1, r))


def kernel_bound_loop(bonds, beta, rotation_samples, seed, site_field=None, grid=None,
                      weighted=False):
    """``classical_kernel_bound_check`` as a loop over rotations: the lists
    with x rotated by one rotation, and one ``_difference`` call per rotation
    and bond.  Without a site field the average over rotations is a mean;
    ``weighted`` takes it with the normalized weights of an all-zero site
    field instead."""
    common = bonds[0].region
    for b in bonds[1:]:
        common = common.intersection(b.region)
    window = Region.of([s for b in bonds for s in b.region])
    x = common.min_site()
    xi = window.index(x)
    rng = np.random.default_rng(seed)
    rotations = [random_rotation(rng) for _ in range(rotation_samples)]
    lhs_max = 0.0
    for _, lists in _window_chunks(grid or SphereGrid(4), len(window)):
        shape = [len(v) for v in lists]
        prods = np.empty([rotation_samples, *shape])
        logw = np.zeros([rotation_samples, *shape])
        for i, r in enumerate(rotations):
            rotated = list(lists)
            rotated[xi] = lists[xi] @ r
            term = np.ones(shape)
            for pot in bonds:
                term = term * _difference(pot, window, lists, x, rotated[xi])
            prods[i] = term
            if site_field is not None:
                logw[i] = -beta * _values(site_field, window, rotated)
        if site_field is None and not weighted:
            averaged = prods.mean(axis=0)
        else:
            weights = np.exp(logw - logw.max(axis=0, keepdims=True))
            weights /= weights.sum(axis=0, keepdims=True)
            averaged = (weights * prods).sum(axis=0)
        lhs_max = max(lhs_max, float(np.abs(averaged).max()))
    return lhs_max


@dataclasses.dataclass(frozen=True)
class Drawn:
    """A drawn potential with its pointwise oracle: ``pointwise`` maps
    configurations (N, k, 3) of the potential's own sites, in region order,
    to values (N,).  ``scale`` bounds the sum of the absolute terms of both
    evaluations, the yardstick of their roundoff."""

    pot: ClassicalPotential
    pointwise: Callable
    scale: float


def sine_of_projection(v, a):
    """sin(a . v) of each spin in ``v``, summed in a fixed order."""
    return np.sin(a[0] * v[..., 0] + a[1] * v[..., 1] + a[2] * v[..., 2])


def heisenberg_pointwise(u, w, j, delta):
    """-J (delta (u_1 w_1 + u_2 w_2) + u_3 w_3) row by row."""
    return -j * (delta * (u[:, 0] * w[:, 0] + u[:, 1] * w[:, 1]) + u[:, 2] * w[:, 2])


def window_potentials(window, rng):
    """Drawn potentials on every site and pair of the window: single-site
    fields sin(a . u) and u_x u_y + cos(u_z) (rank two), Heisenberg bonds,
    general bilinear forms u^T C w and the two-site potential
    u_z w_x^2 + w_y, which is not bilinear."""
    sites = list(window)
    drawn = []
    for x in sites:
        a = rng.normal(size=3)
        drawn.append(Drawn(site_field_potential(x, lambda v, a=a: sine_of_projection(v, a)),
                           lambda c, a=a: sine_of_projection(c[:, 0, :], a), 1.0))
        drawn.append(Drawn(
            ClassicalPotential(Region.of([x]), lambda v: (
                np.stack([v[..., 0] * v[..., 1], np.cos(v[..., 2])], axis=-1),)),
            lambda c: c[:, 0, 0] * c[:, 0, 1] + np.cos(c[:, 0, 2]), 2.0))
    for i, x in enumerate(sites):
        for y in sites[i + 1 :]:
            j, delta = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-3.0, 3.0))
            bond = heisenberg_bond_potential(x, y, j, delta)
            drawn.append(Drawn(
                bond, lambda c, j=j, delta=delta: heisenberg_pointwise(c[:, 0], c[:, 1], j, delta),
                bond.sup_norm))
            m = rng.normal(size=(3, 3))
            bilinear = ClassicalPotential(Region.of([x, y]), lambda u, w, m=m: (u @ m, w),
                                          float(np.linalg.norm(m, 2)))
            drawn.append(Drawn(bilinear, lambda c, m=m: np.einsum("ni,ij,nj->n", c[:, 0], m, c[:, 1]),
                               bilinear.sup_norm))
            drawn.append(Drawn(
                ClassicalPotential(Region.of([x, y]), lambda u, w: (
                    np.stack([u[..., 2], np.ones(u.shape[:-1])], axis=-1),
                    np.stack([w[..., 0] ** 2, w[..., 1]], axis=-1))),
                lambda c: c[:, 0, 2] * c[:, 1, 0] ** 2 + c[:, 1, 1], 2.0))
    return drawn


class TestFactoredValues:
    """``_values`` and ``_difference`` on per-site vector lists against each
    drawn potential's pointwise oracle on the materialized
    ``c_order_product`` grid, unrotated, with one site rotated by one
    rotation and by a stack of rotations."""

    @staticmethod
    def tolerance(drawn):
        # a bilinear form is summed in another order on each side, each
        # within gamma_6 |u||C||w| <= 6 eps sqrt(3) ||C||_2 (|C| <=
        # ||C||_F <= sqrt(3) ||C||_2); the other potentials form the same
        # terms on both sides and add at most two of them, bounded by scale
        return 24 * np.finfo(float).eps * drawn.scale

    def check(self, window, drawn, lists, site, r):
        """Compare on the lists with the given site rotated by r (None, one
        rotation or a stack)."""
        pot, shape = drawn.pot, tuple(len(v) for v in lists)
        idx = [window.index(s) for s in pot.region]
        base = drawn.pointwise(c_order_product(*lists)[:, idx, :])
        if r is None:
            grids, moved = [c_order_product(*lists)], lists
        else:
            moved = [v @ r if s == site else v for s, v in enumerate(lists)]
            grids = [c_order_product(*[v @ q if s == site else v for s, v in enumerate(lists)])
                     for q in (r if r.ndim == 3 else r[None])]
        got = _values(pot, window, moved)
        lead = () if r is None or r.ndim == 2 else (len(r),)
        # a rotation stack leads the values only where it moves the potential
        touched = r is not None and window.sites[site] in pot.region
        assert got.ndim == len(shape) + (len(lead) if touched else 0)
        got = np.broadcast_to(got, lead + shape).reshape(-1, math.prod(shape))
        if touched:
            diff = _difference(pot, window, lists, window.sites[site], moved[site])
            assert diff.ndim == len(lead) + len(shape)
            diff = np.broadcast_to(diff, lead + shape).reshape(-1, math.prod(shape))
        for n, grid in enumerate(grids):
            expected = drawn.pointwise(grid[:, idx, :])
            assert np.max(np.abs(got[n] - expected)) <= self.tolerance(drawn)
            if touched:
                assert np.max(np.abs(diff[n] - (base - expected))) <= 2 * self.tolerance(drawn)

    @pytest.mark.parametrize("nsites", [1, 2, 3])
    def test_matches_fn_on_materialized_grid(self, nsites):
        rng = np.random.default_rng(10 + nsites)
        window = box_window([nsites])
        drawn = window_potentials(window, rng)
        rotations = np.array([random_rotation(rng) for _ in range(3)])
        chunks = list(_window_chunks(SphereGrid(3), nsites))
        for _, lists in chunks[:2]:
            for d in drawn:
                self.check(window, d, lists, None, None)
                for site in range(nsites):
                    self.check(window, d, lists, site, rotations[0])
                    self.check(window, d, lists, site, rotations)

    def test_rotated_list_is_rotated_grid(self):
        # rotating a site's list and materializing gives the rotated grid;
        # each component is a 3-term dot product of terms bounded by one,
        # within 3 sqrt(3) eps per path
        rng = np.random.default_rng(3)
        grid = SphereGrid(3)
        _, lists = next(_window_chunks(grid, 2))
        configs = c_order_product(*lists)
        r = random_rotation(rng)
        for site in range(2):
            moved = [v @ r if s == site else v for s, v in enumerate(lists)]
            diff = c_order_product(*moved) - rotate_site(configs, site, r)
            assert np.max(np.abs(diff)) <= 12 * np.finfo(float).eps

    @pytest.mark.parametrize("coupling,delta", [(1.0, 1.0), (0.7, -1.8), (-1.3, 0.4)])
    def test_heisenberg_fn_is_its_coupling(self, coupling, delta):
        # the bond is the bilinear form of C = -J diag(delta, delta, 1),
        # factored as (u C, w), and its values are the matmul (V_a C) V_b^T
        bond = heisenberg_bond_potential((0,), (1,), coupling, delta)
        c = -coupling * np.diag([delta, delta, 1.0])
        lists = next(_window_chunks(SphereGrid(8), 2))[1]
        f_u, f_w = bond.factors(*lists)
        assert np.array_equal(f_u, lists[0] @ c)
        assert f_w is lists[1]
        values = _values(bond, W2, lists)
        assert np.array_equal(values, (lists[0] @ c) @ lists[1].T)
        configs = c_order_product(*lists)
        expected = heisenberg_pointwise(configs[:, 0], configs[:, 1], coupling, delta)
        assert np.max(np.abs(values.reshape(-1) - expected)) <= 24 * np.finfo(float).eps * bond.sup_norm


def recording(pot, seen):
    """``pot`` with factors that record the shape of every list they get."""

    def factors(*lists):
        seen.extend(v.shape for v in lists)
        return pot.factors(*lists)

    return dataclasses.replace(pot, factors=factors)


def test_factors_get_per_site_lists():
    # the quadratures, the rotations and the sup-norm search hand a
    # potential's factors its own sites' lists (one of them with a leading
    # rotation axis at most), never a configuration grid over several sites
    seen = []
    grid = SphereGrid(4)
    n = len(grid.vectors)
    bond = recording(heisenberg_bond_potential((0,), (1,), 1.0, 1.5), seen)
    other = recording(heisenberg_bond_potential((-1,), (0,), 0.7, 2.0), seen)
    field = recording(site_field_potential((0,), lambda v: 0.8 * v[..., 2]), seen)
    window = Region.of([(-1,), (0,), (1,)])
    obs = lambda *lists: [v[:, 2:] for v in lists]
    classical_gibbs_expectation(window, [bond, other, field], 0.6, obs, grid)
    invariance_residual(window, [bond, other, field], 0.6, obs, (0,), rotation_about_z(0.5), grid)
    # the kernel bound check samples on its own grid, of order KERNEL_GRID_ORDER = 4
    classical_kernel_bound_check([bond, other], 0.5, 10, seed=1, site_field=field)
    assert seen and all(len(shape) <= 3 and shape[-2] <= n and shape[-1] == 3 for shape in seen)
    # the search's direction grids have 64^2 rows per site; their product
    # would have 64^4
    seen.clear()
    classical_supnorm(dataclasses.replace(bond, sup_norm=None))
    classical_supnorm(dataclasses.replace(field, sup_norm=None))
    assert seen and all(len(shape) == 2 and shape[0] <= 64 ** 2 and shape[1] == 3 for shape in seen)


def drawn_observable(rng, nsites, rank=3):
    """A sum of ``rank`` products of drawn one-site functions sin(v a + b),
    in factored form."""
    coeffs = [(rng.normal(size=(3, rank)), rng.normal(size=rank)) for _ in range(nsites)]
    return lambda *lists: [np.sin(v @ a + b) for v, (a, b) in zip(lists, coeffs)]


def dense_values(observable, configs):
    """A factored observable on materialized configurations (N, k, 3): each
    one-site function on its own site's spin, the products summed over the
    rank."""
    factors = observable(*[configs[:, s, :] for s in range(configs.shape[1])])
    return np.prod(factors, axis=0).sum(axis=-1)


class TestDenseOracle:
    """Gibbs averages and invariance residuals from the factored contraction
    against dense evaluation on the ``c_order_product`` grid: the energy by
    the drawn potentials' pointwise oracles, the observable by
    ``dense_values``, one weighted sum over all rows.  Three sites take the
    chunked path."""

    # each side is a weighted sum over at most 32^3 rows whose terms agree
    # to a few ulp; the bound is relative to the sum of absolute terms
    rtol = 1e-12

    @staticmethod
    def drawn_case(nsites):
        rng = np.random.default_rng(20 + nsites)
        window = box_window([nsites])
        return window, window_potentials(window, rng), drawn_observable(rng, nsites), rng

    @staticmethod
    def energy(window, drawn, configs):
        return sum(d.pointwise(configs[:, [window.index(s) for s in d.pot.region], :])
                   for d in drawn)

    def dense_average(self, weights, values):
        """The weighted average of the values, and the bound on its error."""
        return (weights @ values) / weights.sum(), self.rtol * (weights @ np.abs(values)) / weights.sum()

    @pytest.mark.parametrize("nsites", [1, 2, 3])
    def test_gibbs_expectation(self, nsites):
        window, drawn, obs, _ = self.drawn_case(nsites)
        grid, beta = SphereGrid(4), 0.7
        configs = c_order_product(*[grid.vectors] * nsites)
        h = self.energy(window, drawn, configs)
        weights = c_order_weights(grid.weights, nsites) * np.exp(-beta * (h - h.min()))
        expected, tol = self.dense_average(weights, dense_values(obs, configs))
        got = classical_gibbs_expectation(window, [d.pot for d in drawn], beta, obs, grid)
        assert abs(got - expected) <= tol

    @pytest.mark.parametrize("nsites,x", [(1, (0,)), (2, (1,)), (3, (1,))])
    def test_invariance_residual(self, nsites, x):
        window, drawn, obs, rng = self.drawn_case(nsites)
        grid, beta, r = SphereGrid(4), 0.6, random_rotation(rng)
        xi = window.index(x)
        configs = c_order_product(*[grid.vectors] * nsites)
        rotated = configs.copy()
        rotated[:, xi, :] = configs[:, xi, :] @ r
        touching = [d for d in drawn if x in d.pot.region]
        h = self.energy(window, drawn, configs)
        dressing = np.exp(beta * (self.energy(window, touching, configs)
                                  - self.energy(window, touching, rotated)))
        weights = c_order_weights(grid.weights, nsites) * np.exp(-beta * (h - h.min()))
        lhs, lhs_tol = self.dense_average(weights, dense_values(obs, configs))
        rhs, rhs_tol = self.dense_average(weights, dressing * dense_values(obs, rotated))
        # the order-4 grid is far from exact for the rotated integrand, so
        # the residual is a quadrature error well above the roundoff bound
        assert abs(lhs - rhs) > 1e3 * (lhs_tol + rhs_tol)
        got = invariance_residual(window, [d.pot for d in drawn], beta, obs, x, r, grid)
        assert abs(got - abs(lhs - rhs)) <= lhs_tol + rhs_tol

    @pytest.mark.parametrize("nsites,x", [(1, (0,)), (2, (1,)), (3, (1,))])
    def test_identity_rotation_exact(self, nsites, x):
        window, drawn, obs, _ = self.drawn_case(nsites)
        pots = [d.pot for d in drawn]
        assert invariance_residual(window, pots, 0.6, obs, x, np.eye(3), SphereGrid(4)) == 0.0


class TestKernelBound:
    @pytest.mark.parametrize("with_field", [False, True])
    def test_matches_rotation_loop(self, with_field):
        bonds = [
            heisenberg_bond_potential((0,), (1,), 1.0, 1.0),
            heisenberg_bond_potential((-1,), (0,), 0.7, 2.0),
        ]
        field = site_field_potential((0,), lambda v: 0.8 * v[..., 2]) if with_field else None
        lhs, _ = classical_kernel_bound_check(bonds, 0.5, 60, seed=5, site_field=field)
        assert lhs.hex() == kernel_bound_loop(bonds, 0.5, 60, 5, site_field=field).hex()

    def test_rotation_blocks_split(self, monkeypatch):
        # 512^2 configuration rows: blocks of four rotations, the last of two
        bond = heisenberg_bond_potential((0,), (1,), 1.3, -0.6)
        monkeypatch.setattr(classical, "KERNEL_GRID_ORDER", 16)
        lhs, _ = classical_kernel_bound_check([bond], 0.5, 10, seed=2)
        assert lhs.hex() == kernel_bound_loop([bond], 0.5, 10, 2, grid=SphereGrid(16)).hex()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mean_matches_uniform_weights(self, seed):
        # without a site field the average over rotations is a plain mean; the
        # normalized weights of an all-zero field gave the same to roundoff
        bonds = [
            heisenberg_bond_potential((0,), (1,), 1.0, 1.0),
            heisenberg_bond_potential((-1,), (0,), 0.7, 2.0),
        ]
        lhs, _ = classical_kernel_bound_check(bonds, 0.5, 100, seed=seed)
        weighted = kernel_bound_loop(bonds, 0.5, 100, seed, weighted=True)
        assert abs(lhs - weighted) <= 1e-15 * weighted

    def test_single_bond_pointwise(self):
        bond = heisenberg_bond_potential((0,), (1,), 1.0, 1.0)
        lhs, rhs = classical_kernel_bound_check([bond], 0.5, 50, seed=3)
        assert rhs == pytest.approx(2.0, abs=1e-3)
        assert lhs <= rhs

    def test_two_bonds_with_samples(self):
        bonds = [
            heisenberg_bond_potential((0,), (1,), 1.0, 1.0),
            heisenberg_bond_potential((-1,), (0,), 0.7, 2.0),
        ]
        lhs, rhs = classical_kernel_bound_check(bonds, 0.5, 100, seed=5)
        assert lhs <= rhs

    def test_with_site_field(self):
        bonds = [
            heisenberg_bond_potential((0,), (1,), 1.0, 1.0),
            heisenberg_bond_potential((-1,), (0,), 0.7, 2.0),
        ]
        field = site_field_potential((0,), lambda v: 0.8 * v[..., 2])
        lhs, rhs = classical_kernel_bound_check(bonds, 0.5, 60, seed=5, site_field=field)
        assert lhs <= rhs

    def test_zero_potential(self):
        zero = ClassicalPotential(W2, lambda u, w: (0.0 * u[..., :1], w[..., :1]), sup_norm=0.0)
        lhs, rhs = classical_kernel_bound_check([zero], 0.5, 10, seed=1)
        assert lhs == 0.0
        assert rhs == 0.0

    def test_disjoint_bonds_rejected(self):
        bonds = [
            heisenberg_bond_potential((0,), (1,), 1.0, 1.0),
            heisenberg_bond_potential((5,), (6,), 1.0, 1.0),
        ]
        with pytest.raises(ValueError):
            classical_kernel_bound_check(bonds, 0.5, 10, seed=1)


class TestComposition:
    def test_threshold_composition(self):
        # classical sup-norm feeding the closed-form threshold
        from kmsbounds.bounds import beta_u_classical

        for coupling, delta, nu in ((1.0, 1.0, 1), (0.5, 2.0, 2)):
            pot = heisenberg_bond_potential((0,), (1,), coupling, delta)
            norm = 6 * nu * classical_supnorm(pot)
            beta = beta_u_classical(norm)
            expected = 1.0 / (18 * coupling * nu * max(abs(delta), 1.0))
            assert beta == pytest.approx(expected, rel=1e-3)


def test_suite_memory_peak():
    # at order 16 the suite holds its grid's window weights and two scratch
    # buffers (2 MB each) and makes one (512, 512) temporary at a time;
    # one materialized 262,144 x 2 x 3 grid (12.6 MB) and its rotated copy
    # would not fit under the bound
    tracemalloc.start()
    try:
        run_classical_suite(seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
