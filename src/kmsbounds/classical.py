"""Classical unit-sphere spin systems on finite windows.

Configurations assign a unit 3-vector to each site.  Potentials and
observables alike are sums of products of one-site functions: a callable of
per-site vector lists (V_1, ..., V_k), V_s of shape (n_s, 3), returns one
factor matrix F_s of shape (n_s, r) per site, and its value at configuration
(i_1, ..., i_k) is sum_t prod_s F_s[i_s, t].  A potential lives on one or two
sites, so its values are F_1.sum(-1) or the matmul F_1 F_2^T; one of its
lists may carry leading (rotation) axes, which the factors and the matmul
carry.  A bilinear bond u^T C w has the factors (V_a C, V_b).

Expectations use a product quadrature per site (Gauss-Legendre in
cos(theta) crossed with a uniform angular rule), normalized so the sphere
has measure one.  The window grid stays factored: a quadrature chunk is the
product of per-site vector lists with weights of shape (n_1, ..., n_k), and
no configuration array is built for it.  A Gibbs average contracts the
chunk's Boltzmann weights W against an observable's factors, for two sites
((W @ F_2) * F_1).sum().  A rotation R acts on one marked site x by pulling
back: it replaces the list V_x by V_x R, and phi - phi o R is the same
contraction with the factor of x replaced by F_x(V_x) - F_x(V_x R).  The
lists are read-only views of the grid, or fresh rotated copies: factors
must not write into them.

Sup norms come from a grid search over the factors, except for potentials
that carry a closed form, which bypass it.  Each ``SphereGrid`` caches its
window weights and holds two scratch buffers for the per-chunk
(n_1, ..., n_k) arrays (energies and Boltzmann weights, the dressing of a
rotated average), so a quadrature does not map fresh memory for them at
each call; one quadrature at a time may use a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .ti import Region, Site, classical_bond_norm


@dataclass(frozen=True)
class ClassicalPotential:
    """Real-valued bounded function of the spins in a region of one or two
    sites, a sum of products of one-site functions.

    ``factors`` maps the region's per-site vector lists, in region order, to
    one (n_s, r) factor matrix per site (see the module docstring); one list
    may carry leading axes, which its factor then carries.  ``sup_norm`` may
    carry a closed-form supremum.  Any other region size raises
    ``ValueError``.
    """

    region: Region
    factors: Callable
    sup_norm: float = None

    def __post_init__(self):
        if not 1 <= len(self.region) <= 2:
            raise ValueError("a classical potential lives on one or two sites")


def heisenberg_bond_potential(x: Site, y: Site, j: float, delta: float) -> ClassicalPotential:
    """-J (delta (s1 s1 + s2 s2) + s3 s3) on the pair {x, y}, the bilinear
    form u^T C w with C = -J diag(delta, delta, 1), factored as (u C, w); the
    supremum over unit vectors is |J| max(|delta|, 1)."""
    c = -j * np.diag([delta, delta, 1.0])
    return ClassicalPotential(Region.of([x, y]), lambda u, w: (u @ c, w),
                              abs(j) * classical_bond_norm(delta))


class SphereGrid:
    """Product quadrature on the unit sphere: Gauss-Legendre of the given
    order in cos(theta) crossed with 2*order uniform azimuthal points; the
    weights are positive and sum to one (normalized surface measure)."""

    def __init__(self, order: int = 16):
        if order < 2:
            raise ValueError("order must be >= 2")
        self.order = order
        nodes, weights = leggauss(order)
        phis = 2.0 * math.pi * np.arange(2 * order) / (2 * order)
        cos_t, phi = np.meshgrid(nodes, phis, indexing="ij")
        sin_t = np.sqrt(1.0 - cos_t ** 2)
        self.vectors = np.stack(
            [sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=-1
        ).reshape(-1, 3)
        w2d = np.broadcast_to((weights / 2.0)[:, None], cos_t.shape) / (2 * order)
        self.weights = w2d.reshape(-1).copy()
        self.vectors.flags.writeable = self.weights.flags.writeable = False
        # read-only window weights by window size, filled by _window_chunks,
        # and the two scratch buffers that _scratch grows
        self._windows = {}
        self._buffers = (np.empty(0), np.empty(0))

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ values)


def _window_chunks(grid: SphereGrid, nsites: int):
    """Yield (weights, lists) chunks covering the product grid over the
    window: read-only per-site vector lists, and the weights of their
    product, shape (n_1, ..., n_k).  Windows of at most two sites are one
    chunk whose read-only weights are built once per grid; the outermost of
    three sites is chunked to bound memory."""
    if nsites > 3:
        raise ValueError("quadrature windows are limited to three sites")
    v, w = grid.vectors, grid.weights
    if nsites == 3:
        pair = np.outer(w, w)
        for i in range(len(w)):
            yield (w[i] * pair)[None], (v[i : i + 1], v, v)
        return
    if nsites not in grid._windows:
        weights = np.ones(())
        for _ in range(nsites):
            weights = np.multiply.outer(weights, w)
        weights.flags.writeable = False
        grid._windows[nsites] = weights
    yield grid._windows[nsites], (v,) * nsites


def _scratch(grid: SphereGrid, shape: Sequence[int]) -> list:
    """Two arrays of a chunk's shape on the grid's buffers, which grow to the
    largest chunk asked for; they hold whatever their last user left."""
    size = math.prod(shape)
    if grid._buffers[0].size < size:
        grid._buffers = (np.empty(size), np.empty(size))
    return [b[:size].reshape(shape) for b in grid._buffers]


def _spread(pot: ClassicalPotential, window: Region, lists: Sequence[np.ndarray],
            factors: Sequence[np.ndarray]) -> np.ndarray:
    """The values sum_t prod_s F_s[i_s, t] of factors on the sites of
    ``pot``, F_1.sum(-1) or F_1 F_2^T, shaped (..., n_1, ..., n_k) over the
    window's lists with length-one axes off its region; leading axes lead."""
    if len(factors) == 1:
        vals = factors[0].sum(axis=-1)
    else:
        vals = factors[0] @ np.swapaxes(factors[1], -1, -2)
    idx = [window.index(s) for s in pot.region]
    shape = [v.shape[-2] if i in idx else 1 for i, v in enumerate(lists)]
    return vals.reshape(vals.shape[: vals.ndim - len(idx)] + tuple(shape))


def _values(pot: ClassicalPotential, window: Region, lists: Sequence[np.ndarray]) -> np.ndarray:
    """Values of ``pot`` on the product of per-site vector lists over the
    window (see ``_spread``).  At most one list may carry leading axes."""
    return _spread(pot, window, lists, pot.factors(*[lists[window.index(s)] for s in pot.region]))


def _difference(pot: ClassicalPotential, window: Region, lists: Sequence[np.ndarray],
                x: Site, rotated: np.ndarray) -> np.ndarray:
    """phi - phi o R on the window's lists, where ``rotated`` is the list of
    x rotated, V_x R (a stack of rotations is a leading axis): the factors
    with the factor of x replaced by F_x(V_x) - F_x(V_x R)."""
    own = [lists[window.index(s)] for s in pot.region]
    p = pot.region.index(x)
    factors = list(pot.factors(*own))
    own[p] = rotated
    factors[p] = factors[p] - pot.factors(*own)[p]
    return _spread(pot, window, lists, factors)


def _contract(weights: np.ndarray, factors: Sequence[np.ndarray]) -> float:
    """sum_i weights[i_1, ..., i_k] sum_t prod_s F_s[i_s, t]: the weights
    contracted against each site's factor matrix, last site first."""
    acc = weights @ factors[-1]
    for f in factors[-2::-1]:
        acc = (acc * f).sum(axis=-2)
    return float(acc.sum())


def _gibbs_weights(boltz, lists, spare):
    """The weighting of the Gibbs average itself: its own weights and lists."""
    return boltz, lists


def _gibbs_averages(window: Region, potentials: Sequence[ClassicalPotential],
                    beta: float, observable: Callable, weightings: Sequence[Callable],
                    grid: SphereGrid) -> list:
    """Averages of one observable under several weightings of the Gibbs
    state, from one quadrature pass that shares the energy h of each chunk.
    Observables are sums of products of one-site functions (see the module
    docstring).  A weighting maps a chunk's Boltzmann weights W, its
    per-site lists and a spare buffer of W's shape to the weights and lists
    it contracts the observable's factors on; ``_gibbs_weights`` gives the
    Gibbs average.  Every average is divided by the sum of W.  W and the
    spare buffer are the grid's scratch buffers (see ``_scratch``)."""
    for pot in potentials:
        if not pot.region.issubset(window):
            raise ValueError(f"potential on {pot.region} escapes the window")
    # streaming accumulation with a running energy shift so the Boltzmann
    # factors stay bounded regardless of chunk order
    nums, den, shift = [0.0] * len(weightings), 0.0, None
    for weights, lists in _window_chunks(grid, len(window)):
        boltz, spare = _scratch(grid, weights.shape)
        boltz.fill(0.0)
        for pot in potentials:
            boltz += _values(pot, window, lists)
        local = float(boltz.min())
        if shift is None:
            shift = local
        elif local < shift:
            rescale = math.exp(-beta * (shift - local))
            nums = [num * rescale for num in nums]
            den *= rescale
            shift = local
        # the energies become weights * exp(-beta (h - shift)) in place
        boltz -= shift
        boltz *= -beta
        np.exp(boltz, out=boltz)
        boltz *= weights
        for j, weigh in enumerate(weightings):
            w, at = weigh(boltz, lists, spare)
            nums[j] += _contract(w, observable(*at))
        den += float(boltz.sum())
    return [num / den for num in nums]


def classical_gibbs_expectation(window: Region, potentials: Sequence[ClassicalPotential],
                                beta: float, observable: Callable,
                                grid: SphereGrid = None) -> float:
    """Quadrature evaluation of the finite-volume Gibbs average
    int e^{-beta h} a dmu / int e^{-beta h} dmu with h the sum of the given
    potentials.  ``observable`` maps the window's per-site vector lists to
    one (n_s, r) factor matrix per site; a is sum_t prod_s F_s[i_s, t]."""
    return _gibbs_averages(window, potentials, beta, observable, [_gibbs_weights],
                           grid or SphereGrid())[0]


def classical_supnorm(pot: ClassicalPotential, coarse: int = 64, rounds: int = 3) -> float:
    """Supremum of |phi| over unit-vector configurations.

    Returns the closed form when one is attached; otherwise the factors on
    a coarse (theta, phi) grid per site followed by local grid refinement,
    halving the resolution each round.
    """
    if pot.sup_norm is not None:
        return pot.sup_norm

    def directions(thetas, phis):
        t, p = np.meshgrid(thetas, phis, indexing="ij")
        return np.stack(
            [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1
        ).reshape(-1, 3), t.reshape(-1), p.reshape(-1)

    def search(grids):
        # first argmax of |phi| over the product of the per-site grids,
        # blocked over the first site so a block has at most 2^20 values;
        # returns it with its angles per site
        vecs, tfs, pfs = zip(*grids)
        rest = [len(v) for v in vecs[1:]]
        block = max(1, (1 << 20) // math.prod(rest))
        best_val, best = -1.0, None
        for i0 in range(0, len(vecs[0]), block):
            left = vecs[0][i0 : i0 + block]
            vals = np.abs(_values(pot, pot.region, [left, *vecs[1:]])).reshape(-1)
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val = float(vals[j])
                first, *others = np.unravel_index(j, (len(left), *rest))
                best = (first + i0, *others)
        return best_val, [(tf[i], pf[i]) for tf, pf, i in zip(tfs, pfs, best)]

    thetas = (np.arange(coarse) + 0.5) * math.pi / coarse
    phis = 2.0 * math.pi * np.arange(coarse) / coarse
    best_val, best_angles = search([directions(thetas, phis)] * len(pot.region))
    step_t = math.pi / coarse
    step_p = 2.0 * math.pi / coarse
    for _ in range(rounds):
        step_t /= 2.0
        step_p /= 2.0
        val, best_angles = search([
            directions(t0 + step_t * np.linspace(-2, 2, 9), p0 + step_p * np.linspace(-2, 2, 9))
            for t0, p0 in best_angles
        ])
        best_val = max(best_val, val)
    return best_val


def require_rotation(r: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError("rotation must be a 3x3 matrix")
    if np.linalg.norm(r @ r.T - np.eye(3)) > tol or abs(np.linalg.det(r) - 1.0) > tol:
        raise ValueError("matrix is not a rotation")
    return r


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed element of SO(3) via QR with phase and parity fixes."""
    z = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def invariance_residual(window: Region, potentials: Sequence[ClassicalPotential],
                        beta: float, observable: Callable, x: Site, r: np.ndarray,
                        grid: SphereGrid = None) -> float:
    """Difference between omega(a) and the rotated-dressed average

        omega( exp(beta sum_{X at x} (phi_X - phi_X o rotation)) a o rotation ),

    an exact identity for the finite Gibbs state (change of variables), so the
    returned value reflects quadrature error only.  Observables are sums of
    products of one-site functions, as in ``classical_gibbs_expectation``;
    the dressed average contracts its weights against the factors on the
    lists with the list of x rotated.
    """
    r = require_rotation(r)
    xi = window.index(x)

    def dressed(boltz, lists, spare):
        # only the list of x rotates; spare becomes
        # boltz * exp(beta sum (phi - phi o R)), one potential at a time
        rotated = list(lists)
        rotated[xi] = lists[xi] @ r
        spare.fill(0.0)
        for pot in potentials:
            if x in pot.region:
                spare += _difference(pot, window, lists, x, rotated[xi])
        spare *= beta
        np.exp(spare, out=spare)
        spare *= boltz
        return spare, rotated

    lhs, rhs = _gibbs_averages(window, potentials, beta, observable,
                               [_gibbs_weights, dressed], grid or SphereGrid())
    return abs(lhs - rhs)


def classical_kernel_bound_check(bonds: Sequence[ClassicalPotential], beta: float,
                                 rotation_samples: int, seed: int,
                                 site_field: ClassicalPotential = None,
                                 grid: SphereGrid = None):
    """Sampled check of the rotation-difference product bound.

    For rotations R acting at the common site x of the bonds, the normalized
    average over R of  prod_l (phi_l - phi_l o R) e^{-beta psi o R}  never
    exceeds 2^n prod_l sup|phi_l| in absolute value (each factor is a
    difference of two values bounded by sup|phi_l|, and the weight is a
    convex average).  Returns (max sampled lhs, rhs bound).  Each chunk
    rotates the list of x in blocks of at most 2^20 (rotation, configuration)
    pairs, one ``_difference`` call per bond and block.
    """
    n = len(bonds)
    if n < 1 or n > 3:
        raise ValueError("between one and three bonds")
    common = bonds[0].region
    for b in bonds[1:]:
        common = common.intersection(b.region)
    if len(common) == 0:
        raise ValueError("bonds must share a site")
    x = common.min_site()
    window = Region.of([s for b in bonds for s in b.region])
    grid = grid or SphereGrid(4)
    rng = np.random.default_rng(seed)
    rotations = np.array([random_rotation(rng) for _ in range(rotation_samples)])
    xi = window.index(x)
    lhs_max = 0.0
    for _, lists in _window_chunks(grid, len(window)):
        shape = [len(v) for v in lists]
        prods = np.empty([rotation_samples, *shape])
        logw = None if site_field is None else np.empty([rotation_samples, *shape])
        step = max(1, (1 << 20) // math.prod(shape))
        for i in range(0, rotation_samples, step):
            rotated = [v @ rotations[i : i + step] if s == xi else v for s, v in enumerate(lists)]
            term = 1.0
            for pot in bonds:
                term = term * _difference(pot, window, lists, x, rotated[xi])
            prods[i : i + step] = term
            if site_field is not None:
                logw[i : i + step] = -beta * _values(site_field, window, rotated)
        if site_field is None:
            # without a site field the weights are uniform
            averaged = prods.mean(axis=0)
        else:
            weights = np.exp(logw - logw.max(axis=0, keepdims=True))
            weights /= weights.sum(axis=0, keepdims=True)
            averaged = (weights * prods).sum(axis=0)
        lhs_max = max(lhs_max, float(np.abs(averaged).max()))
    rhs = 2.0 ** n
    for pot in bonds:
        rhs *= classical_supnorm(pot)
    return lhs_max, rhs
