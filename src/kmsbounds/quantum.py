"""Finite-volume exact dynamics, Gibbs states and the Kirkwood-Salzburg check.

Everything here is dense linear algebra at desk scale: Hermitian matrix
exponentials go through eigendecompositions, time-ordered integrals through
iterated Gauss-Legendre rules on the ordered simplex, and the constrained
region sums of the interaction-picture expansion enumerate the finitely many
regions in the interaction's support.  The integrands of one chain of
regions are evaluated at all quadrature nodes at once, as (nodes, D, D)
matrix stacks; a factor without a single-site part is one (1, D, D) matrix
that broadcasts, so a chain of such factors costs one node.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product as iterproduct
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .centering import (
    NotCenteredError,
    ReferenceStates,
    butterfly,
    centering_residual,
    haar_random_unitaries,
    site_expectation,
)
from .lattice import (
    DIMENSION_CAP,
    InteractionFamily,
    LocalOperator,
    embed,
    embed_matrices,
    operator_norm,
    operator_norms,
)
from .norms import NormParams, norm_eps_zeta, psi_norm_sum
from .ti import DimensionCapError, Region, Site


class ConvergenceWarning(UserWarning):
    """Emitted when a truncated expansion runs outside its convergence regime."""


@dataclass(frozen=True, eq=False)
class FiniteSystem:
    """A finite lattice with an interaction supported inside it at inverse
    temperature ``beta``.  Its Hamiltonian, eigendecomposition, Gibbs state
    and reference states are computed once, on first use; the frozen system
    keeps them valid.  The arrays of the first three are read-only, so a
    system can be shared (``verify._heisenberg_chain``) without one caller
    changing what the next one reads."""

    gamma: Region
    fam: InteractionFamily
    beta: float

    def __post_init__(self):
        dim = self.fam.site_dim ** len(self.gamma)
        if dim > DIMENSION_CAP:
            raise DimensionCapError(f"lattice dimension {dim} exceeds the dense cap")
        for region in self.fam.terms:
            if not region.issubset(self.gamma):
                raise ValueError(f"term on {region} escapes the lattice {self.gamma}")

    @property
    def site_dim(self) -> int:
        return self.fam.site_dim

    @cached_property
    def h(self) -> LocalOperator:
        """The Hamiltonian on the whole lattice."""
        h = hamiltonian(self)
        h.matrix.flags.writeable = False
        return h

    @cached_property
    def eigh(self) -> tuple:
        """Eigenvalues and eigenvectors ``(w, v)`` of the Hamiltonian."""
        eig = np.linalg.eigh(self.h.matrix)
        for arr in eig:
            arr.flags.writeable = False
        return eig

    @cached_property
    def gibbs(self) -> tuple:
        """e^{-beta H} / tr e^{-beta H} as (eigenbasis, Boltzmann weights)."""
        w, v = self.eigh
        weights = np.exp(-self.beta * (w - w.min()))
        weights /= weights.sum()
        weights.flags.writeable = False
        return v, weights

    @cached_property
    def reference_states(self) -> ReferenceStates:
        """Single-site Gibbs densities of the system's single-site terms."""
        return ReferenceStates.from_interaction(self.fam, self.gamma, self.beta)

    def evolve(self, a: LocalOperator, t: complex) -> LocalOperator:
        """e^{itH} A e^{-itH} on the whole lattice, from the cached
        eigendecomposition of the Hamiltonian.  Real t is a unitary
        conjugation; t = i sigma is the similarity by e^{-sigma H} and
        e^{sigma H} used for imaginary-time continuation."""
        evolved = _conjugate(embed(a, self.gamma).matrix, self.eigh, t)
        return LocalOperator._raw(self.gamma, evolved, self.site_dim)


def hamiltonian(sys: FiniteSystem) -> LocalOperator:
    """Sum of all potential terms, embedded in the whole lattice; Hermitian."""
    acc = LocalOperator.zero(sys.gamma, sys.site_dim)
    for op in sys.fam.terms.values():
        acc = acc + embed(op, sys.gamma)
    return acc


def _expm_factor(w: np.ndarray, v: np.ndarray, z) -> np.ndarray:
    """e^{zH} for H with eigendecomposition ``(w, v)``; a stack of them, one
    per entry, for an array ``z``."""
    return (v * np.exp(np.multiply.outer(z, w))[..., None, :]) @ v.conj().T


def _conjugate(a: np.ndarray, eig: tuple, t: complex) -> np.ndarray:
    """e^{itH} a e^{-itH} for H with eigendecomposition ``eig``."""
    return _expm_factor(*eig, 1j * t) @ a @ _expm_factor(*eig, -1j * t)


def gibbs_expectation(sys: FiniteSystem, a: LocalOperator, state: tuple = None) -> complex:
    """tr(rho A) on the full finite lattice for the state rho given by its
    eigenbasis and weights ``(basis, weights)``; by default the Gibbs state
    tr(e^{-beta H} A) / tr(e^{-beta H})."""
    return complex(gibbs_expectations(sys, embed(a, sys.gamma).matrix, state))


def gibbs_expectations(sys: FiniteSystem, mats: np.ndarray, state: tuple = None) -> np.ndarray:
    """``gibbs_expectation`` of each matrix of a stack (..., D, D) on the
    whole lattice, each computed as it would be alone."""
    basis, weights = sys.gibbs if state is None else state
    rotated = basis.conj().T @ mats @ basis
    return (weights * np.diagonal(rotated, axis1=-2, axis2=-1)).sum(axis=-1)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the matrices on the last two axes, broadcast over the
    leading axes of two stacks."""
    p, q = a.shape[-1], b.shape[-1]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (p * q, p * q))


def single_site_evolution(fam: InteractionFamily, region: Region, t) -> tuple:
    """Factors (e^{it Psi_region}, e^{-it Psi_region}) built from the family's
    cached single-site eigendecompositions (the single-site Hamiltonian is a
    sum of commuting one-site terms, so the exponential factorizes over
    sites); a site without a term contributes an identity factor.  For an
    array of N times the factors are (N, D, D) stacks."""
    eye = np.eye(fam.site_dim, dtype=complex)
    left = right = np.ones(np.shape(t) + (1, 1), dtype=complex)
    for x in region:
        eig = fam.psi_eigh(x)
        left = _kron(left, eye if eig is None else _expm_factor(*eig, 1j * t))
        right = _kron(right, eye if eig is None else _expm_factor(*eig, -1j * t))
    return left, right


def tau_psi(a: LocalOperator, fam: InteractionFamily, t: complex) -> LocalOperator:
    """Interaction-picture (single-site) evolution of ``a`` at the time ``t``,
    by ``_pictured``; ``a`` itself when no site of its region carries a
    single-site term."""
    if all(fam.psi_eigh(x) is None for x in a.region):
        return a
    return LocalOperator._raw(a.region, _pictured(fam, a.region, a.matrix, a.region, t),
                              a.site_dim)


def _pictured(fam: InteractionFamily, region: Region, mats: np.ndarray, target: Region,
              t) -> np.ndarray:
    """Interaction-picture evolution by the single-site terms of ``region``
    of a matrix on ``target`` (a superset of the region): a (D, D) matrix at
    one time ``t``, an (N, D, D) stack at each of N times.  When no site of
    the region carries a single-site term the picture is the identity at
    every time, and the matrix comes back as a (1, D, D) stack that
    broadcasts against the node stacks."""
    if all(fam.psi_eigh(x) is None for x in region):
        return mats[None]
    left, right = (
        embed_matrices(factor, region, target, fam.site_dim)
        for factor in single_site_evolution(fam, region, t)
    )
    return left @ mats @ right


def _node_sum(weights: np.ndarray, stack: np.ndarray):
    """sum_i weights[i] stack[i] over the leading (node) axis; a one-row
    stack holds the same value at every node."""
    if len(stack) == 1:
        return weights.sum() * stack[0]
    return np.tensordot(weights, stack, axes=1)


@dataclass(frozen=True)
class SimplexQuadrature:
    """Iterated Gauss-Legendre rule on the ordered simplex
    0 <= s_n <= ... <= s_1 <= upper; weights are positive and sum to
    upper^n / n!."""

    points: int = 8

    def rule(self, order: int, upper: float):
        """(nodes, weights): one row of ``order`` times per node, the nodes
        in lexicographic order of their Gauss-Legendre indices.  Each time
        is the sequential product upper u_{i_1} ... u_{i_k}, each weight
        the sequential product of wu_{i_k} s_{k-1}; ``np.cumprod`` forms
        both in that order."""
        if order < 1:
            raise ValueError("order must be >= 1")
        x, w = leggauss(self.points)
        u = (x + 1.0) / 2.0
        wu = w / 2.0
        combos = np.indices((self.points,) * order).reshape(order, -1).T
        scaled = np.concatenate([np.full((len(combos), 1), float(upper)), u[combos]], axis=1)
        times = np.cumprod(scaled, axis=1)
        nodes = times[:, 1:]
        weights = np.cumprod(wu[combos] * times[:, :-1], axis=1)[:, -1]
        return nodes, weights


def _chains(regions: Sequence[Region], n: int, grown: Region):
    """Depth-first over ``regions`` in their given order: every tuple of ``n``
    regions whose first meets ``grown`` and whose each next one meets the
    union of ``grown`` with the earlier ones.  The walk grows a frozenset of
    sites, not a ``Region``."""
    site_sets = [frozenset(region.sites) for region in regions]

    def walk(n: int, grown: frozenset):
        if n == 0:
            yield ()
            return
        for region, sites in zip(regions, site_sets):
            if not sites.isdisjoint(grown):
                for rest in walk(n - 1, grown | sites):
                    yield (region,) + rest

    return walk(n, frozenset(grown.sites))


def constrained_chains(fam: InteractionFamily, n: int, start: Region) -> list:
    """Tuples (X_1, ..., X_n) of multilocal support regions with the growing
    overlap constraint: X_1 meets `start`, and each X_j meets the union of
    `start` with the earlier X's."""
    support = sorted(fam.multilocal().keys(), key=lambda r: r.sites)
    return list(_chains(support, n, start))


def _dyson_modes(t: complex):
    """Split a real or purely imaginary time into (upper limit, per-order
    coefficient base, imaginary flag)."""
    t = complex(t)
    if abs(t.imag) < 1e-300:
        return t.real, 1j, False
    if abs(t.real) < 1e-300:
        return t.imag, -1.0, True
    raise ValueError("time must be real or purely imaginary")


def dyson_truncated(a: LocalOperator, sys: FiniteSystem, t: complex, order: int,
                    quad: SimplexQuadrature = SimplexQuadrature()) -> LocalOperator:
    """Partial sum of the interaction-picture expansion around the single-site
    dynamics, through the given order.

    The innermost commutator pairs the first chain region with the largest
    time; each multilocal factor enters at its own interaction-picture time
    and the observable evolves freely at the full time.  Warns (and still
    returns the truncation) when no weight parameter certifies convergence.
    """
    upper, coeff_base, imaginary = _dyson_modes(t)
    lam = a.region
    _warn_if_outside_regime(sys.fam, abs(upper))
    # interaction-picture time of a simplex time
    unit = 1j if imaginary else 1.0
    # each term on the whole lattice, embedded once
    embedded = {r: embed(op, sys.gamma).matrix for r, op in sys.fam.multilocal().items()}
    total = embed(tau_psi(a, sys.fam, unit * upper), sys.gamma).matrix
    free = total[None]
    for n in range(1, order + 1):
        chains = constrained_chains(sys.fam, n, lam)
        if not chains:
            break
        nodes, weights = quad.rule(n, upper)
        factors = {}  # (region, position in the chain) -> its node stack
        acc = np.zeros_like(total)
        for chain in chains:
            # all nodes at once; a chain of node-independent factors stays
            # one (1, D, D) matrix
            current = free
            for ell, region in enumerate(chain):
                if (region, ell) not in factors:
                    factors[region, ell] = _pictured(
                        sys.fam, region, embedded[region], sys.gamma, unit * nodes[:, ell]
                    )
                b = factors[region, ell]
                current = b @ current - current @ b
            acc = acc + _node_sum(weights, current)
        total = total + (coeff_base ** n) * acc
    return LocalOperator._raw(sys.gamma, total, sys.site_dim)


def _warn_if_outside_regime(fam: InteractionFamily, duration: float) -> None:
    for eps in np.arange(0.1, 5.01, 0.1):
        if 2 * duration * norm_eps_zeta(fam, NormParams(eps, 2 * duration)) < eps:
            return
    warnings.warn(
        "no weight parameter certifies convergence at this time; "
        "returning the bare truncation",
        ConvergenceWarning,
        stacklevel=3,
    )


def kms_residual(sys: FiniteSystem, a: LocalOperator, b: LocalOperator,
                 state: tuple = None):
    """|omega(A tau_{i beta} B) - omega(B A)| in a state given as in
    ``gibbs_expectation``: zero up to roundoff in the Gibbs state (cyclicity
    of the trace), visibly nonzero in a mismatched one.  For operators whose
    matrices are (B, D, D) stacks of draws, the (B,) array of residuals."""
    lhs = gibbs_expectations(sys, embed(a @ sys.evolve(b, 1j * sys.beta), sys.gamma).matrix, state)
    diff = lhs - gibbs_expectations(sys, embed(b @ a, sys.gamma).matrix, state)
    # Python's complex abs; np.abs can differ from it in the last bit
    return np.hypot(diff.real, diff.imag)


def ks_kernel(sys: FiniteSystem, x: Site, chain: Sequence[Region],
              times) -> LocalOperator:
    """Exact unitary average of the nested-commutator action on the dressed
    site factor, reduced to a 2^n-term expansion through the single-site
    reference expectation at ``x`` (no Monte-Carlo integration).

    With B_l the multilocal factor of the chain at interaction-picture time
    i s_l, the result is

        sum over subsets of factors:  (+-) eta_x(B_n^... B_1^...) B_1^... B_n^...,

    where each factor appears on exactly one side.  ``times`` is an (N, n)
    array, one row of times in [0, beta] per evaluation.  The kernels come
    back as one operator on the union of the chain's regions whose matrix is
    an (N, D, D) stack, or (1, D, D) when no region of the chain carries a
    single-site term (the kernel does not depend on the times then).  Each
    kernel's norm is at most ``ks_kernel_norm_bound``; the callers check it.
    """
    n = len(chain)
    if n < 1 or n > 3:
        raise ValueError("chain length must be between 1 and 3")
    times = np.asarray(times, dtype=float)
    if times.ndim != 2 or times.shape[1] != n:
        raise ValueError("times must be an (N, n) array, one time per chain region in each row")
    # written so that a NaN time fails it
    if not np.all((times >= 0) & (times <= sys.beta * (1 + 1e-12))):
        raise ValueError("interaction-picture times must lie in [0, beta]")
    x = tuple(x)
    if x not in chain[0]:
        raise ValueError("the first chain region must contain the site")
    grown = Region((x,))
    for region in chain:
        if len(region.intersection(grown)) == 0:
            raise ValueError("chain violates the overlap constraint")
        grown = grown.union(region)
    eye = np.eye(sys.site_dim ** len(grown), dtype=complex)
    factors = [
        _pictured(sys.fam, region, embed(sys.fam.terms[region], grown).matrix, grown,
                  1j * times[:, ell])
        for ell, region in enumerate(chain)
    ]
    rho = sys.reference_states.density(x)
    acc = 0.0
    for mask in iterproduct((0, 1), repeat=n):
        left = reduce(np.matmul, [factors[ell] for ell in reversed(range(n)) if mask[ell]], eye)
        averaged = site_expectation(left, len(grown), grown.index(x), rho)
        right = reduce(np.matmul, [factors[ell] for ell in range(n) if not mask[ell]], eye)
        sign = -1.0 if (n - sum(mask)) % 2 else 1.0
        acc = acc + sign * (averaged @ right)
    return LocalOperator._raw(grown, acc, sys.site_dim)


def ks_kernel_norm_bound(sys: FiniteSystem, chain: Sequence[Region]) -> float:
    """2^n prod_l e^{2 beta ||Psi||_{X_l}} ||Phi_bar_{X_l}|| for a chain of n
    regions, the bound on the norm of each of its ``ks_kernel`` kernels."""
    bound = 2.0 ** len(chain)
    for reg in chain:
        bound *= math.exp(2 * sys.beta * psi_norm_sum(sys.fam, reg)) * sys.fam.term_norm(reg)
    return bound


#: Haar samples drawn and processed per stacked step of ``ks_kernel_haar_mc``;
#: bounds its intermediates at a few stacks of this many matrices
HAAR_CHUNK = 256


def ks_kernel_haar_mc(sys: FiniteSystem, x: Site, region: Region, time: float,
                      samples: int, seed: int):
    """Monte-Carlo evaluation of the order-one kernel by sampling Haar
    unitaries at the site: mean of U* [B, e^{-beta Psi_x} U] / c with
    the normalizer c = tr e^{-beta Psi_x} / d.

    The unitaries are drawn and applied, and the samples' squared deviations
    summed, in stacks of ``HAAR_CHUNK``; every sample is the same arithmetic,
    on the same random stream, as drawing and applying them one at a time,
    and the variance is ``np.var``'s bit for bit.  Returns (mean matrix on
    the region, aggregated standard error) so the exact expansion can be
    checked to a few sigma.
    """
    x = tuple(x)
    if x not in region:
        raise ValueError("site must lie in the region")
    d = sys.site_dim
    rng = np.random.default_rng(seed)
    site = Region((x,))
    eig = sys.fam.psi_eigh(x)
    damp = np.eye(d, dtype=complex) if eig is None else _expm_factor(*eig, -sys.beta)
    normalizer = np.trace(damp).real / d
    b = tau_psi(sys.fam.terms[region], sys.fam, 1j * time).matrix
    dressed = embed_matrices(damp, site, region, d)
    b_dressed = b @ dressed
    dim = d ** len(region)
    draws = np.empty((samples, dim, dim), dtype=complex)
    for lo in range(0, samples, HAAR_CHUNK):
        count = min(HAAR_CHUNK, samples - lo)
        u = embed_matrices(haar_random_unitaries(count, d, rng), site, region, d)
        m = b_dressed @ u - dressed @ u @ b
        draws[lo:lo + count] = (u.conj().transpose(0, 2, 1) @ m) / normalizer
    mean = draws.mean(axis=0)
    if samples > 1:
        # draws.var(axis=0, ddof=1) without its two sample-sized temporaries:
        # the squared deviations as np.var forms them, a chunk at a time, each
        # chunk summed behind the running total, so the rows add in the order
        # of one sum over axis 0
        total = np.zeros(mean.shape)
        for lo in range(0, samples, HAAR_CHUNK):
            dev = draws[lo:lo + HAAR_CHUNK] - mean
            sq = np.square(dev.real) + np.square(dev.imag)
            total = np.concatenate([total[None], sq]).sum(axis=0)
        var = total / (samples - 1) / samples
        sigma = math.sqrt(float(np.abs(var).sum()))
    else:
        sigma = math.inf
    return mean, sigma


@dataclass
class KSReport:
    """Truncation residuals of the linear (Kirkwood-Salzburg style) equation
    for one centered test element."""

    omega: float
    residuals: dict            # order N -> |omega(A~) - partial sum through N|
    telescoping_error: float   # worst |sum of component expectations - omega(A~ K)|


def ks_residual(sys: FiniteSystem, elem: LocalOperator, order: int,
                quad: SimplexQuadrature = SimplexQuadrature()) -> KSReport:
    """Check the centered-functional equation on the exact finite Gibbs state.

    The expectation of the centered element should be reproduced by the
    alternating sum over constrained chains of simplex-integrated component
    expectations; the residual decays geometrically with the truncation order
    inside the subcritical regime.  Each chain's kernels are evaluated at all
    its quadrature nodes in one ``ks_kernel`` call and held to
    ``ks_kernel_norm_bound``: a kernel above it raises ``AssertionError``.
    """
    eta = sys.reference_states
    d = sys.site_dim
    scale = max(operator_norm(elem), 1.0)
    if centering_residual(elem, eta) > 1e-10 * scale:
        raise NotCenteredError("test element is not centered on its region")
    lam = elem.region
    x = lam.min_site()
    contributions = {}
    telescope = 0.0
    for n in range(1, order + 1):
        chains = constrained_chains(sys.fam, n, Region((x,)))
        total = 0.0 + 0.0j
        nodes, wgts = quad.rule(n, sys.beta)
        for chain in chains:
            # every node of the chain at once: kernels, the dressed element
            # elem @ kernel, its refined components (indices X ∪ base, X
            # within the chain's support) and their expectations
            kernel = ks_kernel(sys, x, chain, nodes)
            bound = ks_kernel_norm_bound(sys, chain)
            if np.any(operator_norms(kernel.matrix) > bound * (1.0 + 1e-9)):
                raise AssertionError("kernel norm bound violated")
            active = kernel.region
            region = lam.union(active)
            dressed = embed_matrices(elem.matrix, lam, region, d) @ embed_matrices(
                kernel.matrix, active, region, d
            )
            comps = butterfly(dressed, region, active, eta)
            comp_sums = gibbs_expectations(
                sys, embed_matrices(comps, region, sys.gamma, d)
            ).sum(axis=0)
            exact = gibbs_expectations(sys, embed_matrices(dressed, region, sys.gamma, d))
            telescope = max(telescope, float(np.abs(comp_sums - exact).max()))
            total += complex(_node_sum(wgts, comp_sums))
        contributions[n] = (-1.0) ** (n + 1) * total
    target = gibbs_expectation(sys, elem)
    residuals = {}
    partial = 0.0 + 0.0j
    for n in range(1, order + 1):
        partial += contributions.get(n, 0.0)
        residuals[n] = abs(target - partial)
    return KSReport(omega=float(target.real), residuals=residuals, telescoping_error=telescope)
