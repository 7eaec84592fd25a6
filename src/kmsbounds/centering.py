"""Single-site reference states and the centered decomposition.

Given a per-site state rho_x (here: the single-site Gibbs density at inverse
temperature beta), every observable A on a region L splits uniquely as

    A = sum over X subset of L of  A_X,

where each component A_X is *centered* on X: the partial expectation against
rho_x annihilates it at every site x in X.  The components are obtained
either recursively or by inclusion-exclusion (Moebius inversion, computed as
the fast subset transform over a stack of components), and satisfy
||A_X|| <= 2^{|X|} ||A||.  A refinement applies when A is a product of local
factors with an element already known to be centered: the component index
then ranges only over subsets of the factors' support.

Components are stored embedded on the full region so that sums and residuals
are plain matrix arithmetic; the support is recorded in the index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .lattice import (
    EMPTY_REGION,
    InteractionFamily,
    LocalOperator,
    Region,
    Site,
    embed,
    is_hermitian_matrix,
    operator_norm,
    operator_norms,
)

SUBSET_CAP = 12


class SubsetCapError(ValueError):
    """Region too large for 2^|L| subset enumeration."""


class NotCenteredError(ValueError):
    """An element assumed centered fails the residual check."""


def gibbs_single_site(psi: np.ndarray, beta: float) -> np.ndarray:
    """Density matrix e^{-beta psi} / tr e^{-beta psi} of a Hermitian psi."""
    psi = np.asarray(psi, dtype=complex)
    if not is_hermitian_matrix(psi):
        raise ValueError("single-site potential must be Hermitian")
    w, v = np.linalg.eigh(psi)
    g = np.exp(-beta * (w - w.min()))
    g /= g.sum()
    return (v * g) @ v.conj().T


@dataclass
class ReferenceStates:
    """Per-site reference densities rho_x at a fixed inverse temperature.

    Sites without a single-site potential carry the maximally mixed state.
    """

    beta: float
    site_dim: int
    rho: dict = field(default_factory=dict)  # Site -> (d, d) ndarray

    def __post_init__(self):
        d = self.site_dim
        for x, r in self.rho.items():
            r = np.asarray(r, dtype=complex)
            if r.shape != (d, d):
                raise ValueError(f"density at {x} has shape {r.shape}")
            if np.linalg.norm(r - r.conj().T) > 1e-12:
                raise ValueError(f"density at {x} is not Hermitian")
            if abs(np.trace(r) - 1.0) > 1e-12:
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
        return cls(beta=beta, site_dim=fam.site_dim, rho=rho)

    def density(self, x: Site) -> np.ndarray:
        x = tuple(x)
        if x in self.rho:
            return self.rho[x]
        return np.eye(self.site_dim, dtype=complex) / self.site_dim


def _site_contraction(mats: np.ndarray, nsites: int, i: int, rho: np.ndarray) -> np.ndarray:
    """eta_x on the last two axes of a stack on a region of ``nsites`` sites
    whose ``i``-th site is x: (..., d^n, d^n) -> (..., d^(n-1), d^(n-1))."""
    d = len(rho)
    batch = mats.ndim - 2
    before, after = d ** i, d ** (nsites - i - 1)
    legs = mats.reshape(mats.shape[:batch] + (before, d, after) * 2)
    # the row leg of x carries the bra index, its column leg the ket index;
    # eta(A) = tr_x[(rho ox 1) A] contracts rho[a, b] with (ket=a, bra=b)
    out = np.tensordot(rho, legs, axes=([0, 1], [batch + 4, batch + 1]))
    return out.reshape(mats.shape[:batch] + (before * after,) * 2)


def site_expectation(mats: np.ndarray, nsites: int, i: int, rho: np.ndarray) -> np.ndarray:
    """E_x = eta_x (x) 1_x on the last two axes of a stack on a region of
    ``nsites`` sites whose ``i``-th site is x, for the density ``rho`` at x:
    the contraction at x, embedded back on the region (same shape)."""
    d = len(rho)
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


def centering_residual(a: LocalOperator, eta: ReferenceStates, sites: Region = None) -> float:
    """max over x of ||eta_x(a)||; zero exactly when ``a`` is centered."""
    where = a.region if sites is None else sites
    if len(where) == 0:
        return 0.0
    return max(
        operator_norm(partial_expectation(a, Region._raw((x,)), eta)) for x in where
    )


class Decomposition:
    """Centered components of an observable, embedded on the full region.

    ``components`` maps each index X to its component A_X; ``stack`` holds
    their matrices in the same order as one (K, D, D) array, which the
    residual and norm checks read.  ``base`` is nonempty only for refined
    decompositions, where every index contains it and the norm bound counts
    only the active part of the index.
    """

    def __init__(self, region: Region, components: dict, base: Region = EMPTY_REGION,
                 stack: np.ndarray = None):
        self.region = region
        self.components = components
        self.base = base
        self.stack = (
            np.stack([op.matrix for op in components.values()]) if stack is None else stack
        )

    def reconstruction(self) -> LocalOperator:
        return LocalOperator._raw(self.region, self.stack.sum(axis=0), self._site_dim())

    def _site_dim(self) -> int:
        return next(iter(self.components.values())).site_dim

    def reconstruction_residual(self, original: LocalOperator) -> float:
        return operator_norm(self.reconstruction() - embed(original, self.region))

    def centering_residual(self, eta: ReferenceStates) -> float:
        """max over components A_X and sites x in X of ||eta_x(A_X)||: per
        site one contraction of the components whose index holds it."""
        worst = 0.0
        indices = list(self.components)
        for i, x in enumerate(self.region):
            rows = [k for k, index in enumerate(indices) if x in index]
            if rows:
                reduced = _site_contraction(
                    self.stack[rows], len(self.region), i, eta.density(x)
                )
                worst = max(worst, float(operator_norms(reduced).max()))
        return worst

    def bound_exponent(self, index: Region) -> int:
        return len(index) - len(index.intersection(self.base))

    def norm_bound_ok(self, reference_norm: float, slack: float = 1e-9) -> bool:
        """||A_X|| <= 2^{|X|} ||A|| (with |X| counting active sites only)."""
        exponents = [self.bound_exponent(index) for index in self.components]
        bounds = np.exp2(exponents) * reference_norm
        return not np.any(operator_norms(self.stack) > bounds * (1.0 + slack) + 1e-300)


def decompose_recursive(a: LocalOperator, eta: ReferenceStates) -> Decomposition:
    """Components by the defining recursion: the empty component is the full
    expectation, and each A_X is the complement-expectation minus all proper
    sub-components.  Iteration by increasing size, then lexicographic."""
    lam = a.region
    if len(lam) > SUBSET_CAP:
        raise SubsetCapError(f"|region| = {len(lam)} exceeds cap {SUBSET_CAP}")
    comps = {}
    for X in lam.subsets():
        acc = embed(partial_expectation(a, lam.difference(X), eta), lam)
        for Y in X.subsets():
            if Y != X:
                acc = acc - comps[Y]
        comps[X] = acc
    return Decomposition(region=lam, components=comps)


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


def _moebius(product: LocalOperator, active: Region, eta: ReferenceStates) -> Decomposition:
    """A_{X ∪ base} = prod_{x in X} (1 - E_x) prod_{x in active - X} E_x (A)
    for X ⊆ active ∩ region, with base the rest of the region, in the index
    order of ``Region.subsets``."""
    region = product.region
    base = region.difference(active)
    active = region.intersection(active)
    if len(active) > SUBSET_CAP:
        raise SubsetCapError(f"|active| = {len(active)} exceeds cap {SUBSET_CAP}")
    subsets = list(active.subsets())
    masks = [sum(1 << active.index(x) for x in X) for X in subsets]
    stack = butterfly(product.matrix, region, active, eta)[masks]
    comps = {
        X.union(base): LocalOperator._raw(region, mat, product.site_dim)
        for X, mat in zip(subsets, stack)
    }
    return Decomposition(region, comps, base, stack)


def decompose_moebius(a: LocalOperator, eta: ReferenceStates) -> Decomposition:
    """Components by inclusion-exclusion,
    A_X = sum over Y subset of X of (-1)^{|X| - |Y|} eta_{complement of Y}(a),
    computed as the fast subset transform (``butterfly``)."""
    return _moebius(a, a.region, eta)


def decompose_known_free(product: LocalOperator, active: Region,
                         eta: ReferenceStates) -> Decomposition:
    """Refined decomposition of an element already centered outside ``active``.

    The element lives on region ∪ active; indices range over X ∪ base with
    X a subset of ``active`` and base the part of the region outside it.
    """
    return _moebius(product, active, eta)


def decompose_refined(prefactors: Sequence[LocalOperator], a_tilde: LocalOperator,
                      eta: ReferenceStates, tol: float = 1e-10) -> Decomposition:
    """Decompose the product A_1 ... A_n A~ of local factors with a centered
    element, with component indices running over subsets of the factors'
    support only (the count is independent of A~'s region)."""
    if centering_residual(a_tilde, eta) > tol * max(operator_norm(a_tilde), 1.0):
        raise NotCenteredError("trailing element is not centered on its region")
    active = Region.of(site for p in prefactors for site in p.region)
    product = a_tilde
    for p in reversed(prefactors):
        product = p @ product
    return decompose_known_free(product, active, eta)


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


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary (see ``haar_random_unitaries``)."""
    return haar_random_unitaries(1, dim, rng)[0]


def haar_trace_identity_check(a: LocalOperator, samples: int, seed: int) -> float:
    """Monte-Carlo check that averaging U A U* over Haar unitaries yields
    (tr A / d) I; returns the operator-norm deviation (O(samples^{-1/2}))."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if len(a.region) != 1:
        raise ValueError("single-site check only")
    d = a.site_dim
    rng = np.random.default_rng(seed)
    acc = np.zeros((d, d), dtype=complex)
    for _ in range(samples):
        u = haar_random_unitary(d, rng)
        acc += u @ a.matrix @ u.conj().T
    acc /= samples
    expected = np.trace(a.matrix) / d * np.eye(d)
    return float(np.linalg.norm(acc - expected, 2))
