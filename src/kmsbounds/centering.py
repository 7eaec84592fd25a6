"""Single-site reference states and the centered decomposition.

Given a per-site state rho_x (here: the single-site Gibbs density at inverse
temperature beta), every observable A on a region L splits uniquely as

    A = sum over X subset of L of  A_X,

where each component A_X is *centered* on X: the partial expectation against
rho_x annihilates it at every site x in X.  The components are obtained
either recursively or by inclusion-exclusion (Moebius inversion, computed as
the fast subset transform over a stack of components), and satisfy
||A_X|| <= 2^{|X|} ||A||.  The transform also runs over a subset of the
region only, for a product whose other sites are already centered.

Components are stored embedded on the full region so that sums and residuals
are plain matrix arithmetic; the support is recorded in the index.

The same code runs a stack of B draws: an operator whose matrix is (B, D, D)
(built with ``LocalOperator._raw``), with one density per draw, (B, d, d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    InteractionFamily,
    LocalOperator,
    Region,
    Site,
    embed,
    hermitian_mask,
    operator_norms,
)

SUBSET_CAP = 12


class SubsetCapError(ValueError):
    """Region too large for 2^|L| subset enumeration."""


class NotCenteredError(ValueError):
    """An element assumed centered fails the residual check."""


def gibbs_single_site(psi: np.ndarray, beta) -> np.ndarray:
    """Density matrix e^{-beta psi} / tr e^{-beta psi} of a Hermitian psi, or
    of each psi of a stack (B, d, d), with one beta or one per psi."""
    psi = np.asarray(psi, dtype=complex)
    if not hermitian_mask(psi).all():
        raise ValueError("single-site potential must be Hermitian")
    w, v = np.linalg.eigh(psi)
    g = np.exp(-np.asarray(beta)[..., None] * (w - w.min(axis=-1, keepdims=True)))
    g /= g.sum(axis=-1, keepdims=True)
    return (v * g[..., None, :]) @ v.conj().swapaxes(-2, -1)


@dataclass
class ReferenceStates:
    """Per-site reference densities rho_x, e.g. single-site Gibbs densities
    (``from_interaction``), which carry their inverse temperature.

    A density is (d, d), or a (B, d, d) stack with one density per draw;
    each density of a stack passes the same checks.  Sites without a
    single-site potential carry the maximally mixed state.
    """

    site_dim: int
    rho: dict = field(default_factory=dict)  # Site -> (d, d) or (B, d, d) ndarray

    def __post_init__(self):
        d = self.site_dim
        for x, r in self.rho.items():
            r = np.asarray(r, dtype=complex)
            if r.shape[-2:] != (d, d) or r.ndim > 3:
                raise ValueError(f"density at {x} has shape {r.shape}")
            if np.any(np.linalg.norm(r - r.conj().swapaxes(-2, -1), axis=(-2, -1)) > 1e-12):
                raise ValueError(f"density at {x} is not Hermitian")
            if np.any(abs(np.trace(r, axis1=-2, axis2=-1) - 1.0) > 1e-12):
                raise ValueError(f"density at {x} is not trace one")
            if np.linalg.eigvalsh(r).min() < -1e-12:
                raise ValueError(f"density at {x} is not positive semidefinite")
            self.rho[x] = r

    @classmethod
    def from_interaction(cls, fam: InteractionFamily, window: Region, beta: float) -> "ReferenceStates":
        rho = {}
        for x in window:
            psi = fam.psi(x)
            if np.any(psi.matrix):
                rho[x] = gibbs_single_site(psi.matrix, beta)
        return cls(site_dim=fam.site_dim, rho=rho)

    def density(self, x: Site) -> np.ndarray:
        x = tuple(x)
        if x in self.rho:
            return self.rho[x]
        return np.eye(self.site_dim, dtype=complex) / self.site_dim


def _site_contraction(mats: np.ndarray, nsites: int, i: int, rho: np.ndarray) -> np.ndarray:
    """eta_x on the last two axes of a stack on a region of ``nsites`` sites
    whose ``i``-th site is x: (..., d^n, d^n) -> (..., d^(n-1), d^(n-1)).
    A density stack ``rho`` (B, d, d) runs along the axis before the matrix
    axes, one density per draw."""
    d = rho.shape[-1]
    batch = mats.shape[:-2]
    k = len(batch)
    before, after = d ** i, d ** (nsites - i - 1)
    legs = mats.reshape(batch + (before, d, after) * 2)
    # the row leg of x carries the bra index, its column leg the ket index;
    # eta(A) = tr_x[(rho ox 1) A] contracts rho[a, b] with (ket=a, bra=b);
    # one product per density, over all axes not matched to the densities
    front = k if rho.ndim > 2 else 0
    legs = np.moveaxis(legs, (k + 4, k + 1), (front, front + 1))
    out = rho.reshape(rho.shape[:-2] + (1, d * d)) @ legs.reshape(batch[:front] + (d * d, -1))
    return out.reshape(batch + (before * after,) * 2)


def site_expectation(mats: np.ndarray, nsites: int, i: int, rho: np.ndarray) -> np.ndarray:
    """E_x = eta_x (x) 1_x on the last two axes of a stack on a region of
    ``nsites`` sites whose ``i``-th site is x, for the density ``rho`` at x:
    the contraction at x, embedded back on the region (same shape)."""
    d = rho.shape[-1]
    batch = mats.shape[:-2]
    before, after = d ** i, d ** (nsites - i - 1)
    reduced = _site_contraction(mats, nsites, i, rho)
    legs = reduced.reshape(batch + (before, 1, after) * 2)
    return (legs * np.eye(d).reshape(d, 1, 1, d, 1)).reshape(mats.shape)


def partial_expectation(a: LocalOperator, over: Region, eta: ReferenceStates) -> LocalOperator:
    """Contract the tensor legs of ``a`` at every site of ``over`` against the
    reference densities, leaving an operator on the complement.

    Linear, unital and norm-nonincreasing; the empty contraction is the
    identity map, the full contraction yields a scalar on the empty region.
    Consecutive contractions over disjoint site sets compose.
    """
    if not over.issubset(a.region):
        raise ValueError(f"{over} is not contained in {a.region}")
    if len(over) == 0:
        return a
    remaining = list(a.region)
    mat = a.matrix
    for x in over:
        i = remaining.index(x)
        mat = _site_contraction(mat, len(remaining), i, eta.density(x))
        remaining.pop(i)
    return LocalOperator._raw(Region._raw(tuple(remaining)), mat, a.site_dim)


def _site_residual(region: Region, stacks, eta: ReferenceStates) -> float:
    """max of ||eta_x(M)|| over the matrices M of each (i, stack) pair, a
    stack (K, ..., D, D) on ``region`` whose ``i``-th site is x: one
    contraction per pair, then one norm call over all of them; 0 when there
    are no pairs."""
    reduced = [
        _site_contraction(mats, len(region), i, eta.density(region.sites[i])) for i, mats in stacks
    ]
    return float(operator_norms(np.concatenate(reduced)).max()) if reduced else 0.0


def centering_residual(a: LocalOperator, eta: ReferenceStates) -> float:
    """max over x of ||eta_x(a)||; zero exactly when ``a`` is centered."""
    return _site_residual(a.region, [(i, a.matrix[None]) for i in range(len(a.region))], eta)


class Decomposition:
    """Centered components of an observable, embedded on the full region.

    ``components`` maps each index X to its component A_X; ``stack`` holds
    their matrices in the same order as one (K, D, D) array, or (K, B, D, D)
    for B draws, which each residual and norm check reads in one norm call.
    """

    def __init__(self, region: Region, components: dict, stack: np.ndarray):
        self.region = region
        self.components = components
        self.stack = stack

    def reconstruction_residual(self, original: LocalOperator):
        """||sum_X A_X - A||; a (B,) array of them for a stack of draws."""
        return operator_norms(self.stack.sum(axis=0) - embed(original, self.region).matrix)[()]

    def centering_residual(self, eta: ReferenceStates) -> float:
        """max over components A_X and sites x in X of ||eta_x(A_X)||, as
        ``centering_residual`` reads it: per site one contraction of the
        components whose index holds it."""
        holding = ([k for k, index in enumerate(self.components) if x in index] for x in self.region)
        return _site_residual(
            self.region, ((i, self.stack[rows]) for i, rows in enumerate(holding) if rows), eta
        )

    def norm_bound_ok(self, reference_norm, slack: float = 1e-9) -> bool:
        """||A_X|| <= 2^{|X|} ||A||, with one ||A|| per draw for a stack."""
        sizes = np.exp2([len(index) for index in self.components])
        bounds = np.multiply.outer(sizes, reference_norm)
        return not np.any(operator_norms(self.stack) > bounds * (1.0 + slack) + 1e-300)


def decompose_recursive(a: LocalOperator, eta: ReferenceStates) -> Decomposition:
    """Components by the defining recursion: the empty component is the full
    expectation, and each A_X is the complement-expectation minus all proper
    sub-components.  Iteration by increasing size, then lexicographic; for
    a stack of draws, every step runs on the whole stack."""
    lam = a.region
    if len(lam) > SUBSET_CAP:
        raise SubsetCapError(f"|region| = {len(lam)} exceeds cap {SUBSET_CAP}")
    subsets = list(lam.subsets())
    row = {X: k for k, X in enumerate(subsets)}
    stack = np.empty((len(subsets),) + a.matrix.shape, dtype=complex)
    for k, X in enumerate(subsets):
        acc = embed(partial_expectation(a, lam.difference(X), eta), lam).matrix
        for Y in X.subsets():
            if Y != X:
                acc = acc - stack[row[Y]]
        stack[k] = acc
    comps = {X: LocalOperator._raw(lam, mat, a.site_dim) for X, mat in zip(subsets, stack)}
    return Decomposition(lam, comps, stack)


def butterfly(mats: np.ndarray, region: Region, active: Region,
              eta: ReferenceStates) -> np.ndarray:
    """Components of a stack (..., D, D) on ``region`` for the subsets X of
    ``active``, a subset of the region, by the fast subset transform:

        A_X = prod_{x in X} (1 - E_x) prod_{x in active - X} E_x (A).

    The E_x commute, so one sweep (E_x A, A - E_x A) per active site doubles
    the component stack.  Returns a (2^|active|, ..., D, D) stack whose
    leading index has bit j set when the j-th site of ``active`` is in X.
    """
    stack = mats[None]
    for x in active:
        expected = site_expectation(stack, len(region), region.index(x), eta.density(x))
        stack = np.concatenate([expected, stack - expected])
    return stack


def decompose_moebius(a: LocalOperator, eta: ReferenceStates) -> Decomposition:
    """Components by inclusion-exclusion,
    A_X = sum over Y subset of X of (-1)^{|X| - |Y|} eta_{complement of Y}(a),
    computed as the fast subset transform (``butterfly``) and listed in the
    index order of ``Region.subsets``."""
    region = a.region
    if len(region) > SUBSET_CAP:
        raise SubsetCapError(f"|region| = {len(region)} exceeds cap {SUBSET_CAP}")
    subsets = list(region.subsets())
    masks = [sum(1 << region.index(x) for x in X) for X in subsets]
    stack = butterfly(a.matrix, region, region, eta)[masks]
    comps = {X: LocalOperator._raw(region, mat, a.site_dim) for X, mat in zip(subsets, stack)}
    return Decomposition(region, comps, stack)


def haar_random_unitaries(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-distributed unitaries, shape (count, dim, dim), via QR of
    complex Gaussian matrices with the R-diagonal phases fixed.

    Each sample takes its real and then its imaginary Gaussian block from the
    stream in turn, so one call for ``count`` samples returns what ``count``
    calls for one sample would.
    """
    g = rng.normal(size=(count, 2, dim, dim))
    z = g[:, 0] + 1j * g[:, 1]
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[:, None, :]
