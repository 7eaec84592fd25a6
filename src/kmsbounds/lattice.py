"""Dense operator algebra on finite regions: local operators, embeddings,
spectral norms, spin matrices and finite interaction families.

Observables are dense complex matrices attached to a region (see ``ti`` for
sites and regions), with tensor legs ordered by the site order of the region
(one canonical convention so that operator equality is testable).  The single
site dimension ``d`` is uniform across a model.  Only the verification
suites load this module, and with it numpy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import ti
from .ti import EMPTY_REGION, DimensionCapError, Region, Site, SpinRep, check_heisenberg_delta

#: default bound on matrix dimension for dense operations (~6 spin-1/2 sites)
DIMENSION_CAP = 4096

HERMITIAN_RTOL = 1e-12


def hermitian_mask(mats: np.ndarray, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """||M - M*||_F <= rtol ||M||_F for each matrix M on the last two axes,
    evaluated on M divided by its largest entry modulus.  The test is
    scale-invariant (the zero matrix passes); the division keeps the
    Frobenius norms finite for entries near the top of the float range."""
    peak = np.abs(mats).max(axis=(-2, -1))
    # the reciprocal of a subnormal peak would overflow
    skew = mats * (1.0 / np.maximum(peak, sys.float_info.min))[..., None, None]
    bound = rtol * np.linalg.norm(skew, axis=(-2, -1))
    # M - M* in place of M: its conjugate transpose is the one other buffer
    skew -= np.conjugate(skew.swapaxes(-2, -1))
    return np.linalg.norm(skew, axis=(-2, -1)) <= bound


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """Dense complex matrix attached to a finite region.

    The matrix dimension is ``site_dim ** len(region)``; the empty region
    carries 1x1 matrices (scalars).  Tensor legs follow the site order of
    the region.
    """

    region: Region
    matrix: np.ndarray
    site_dim: int
    hermitian: bool = False

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dim = self.site_dim ** len(self.region)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match d^|region| = {dim}"
            )
        object.__setattr__(self, "matrix", mat)
        if self.hermitian and not hermitian_mask(mat):
            raise ValueError("operator marked Hermitian fails the check")

    @classmethod
    def _raw(cls, region: Region, matrix: np.ndarray, site_dim: int) -> "LocalOperator":
        """An operator from a complex matrix that already has the shape
        d^|region|; skips the checks, for results that are valid by
        construction (arithmetic, embeddings, partial expectations)."""
        op = object.__new__(cls)
        op.__dict__.update(region=region, matrix=matrix, site_dim=site_dim, hermitian=False)
        return op

    @classmethod
    def identity(cls, region: Region, site_dim: int) -> "LocalOperator":
        dim = site_dim ** len(region)
        return cls(region, np.eye(dim, dtype=complex), site_dim)

    @classmethod
    def zero(cls, region: Region, site_dim: int) -> "LocalOperator":
        dim = site_dim ** len(region)
        return cls(region, np.zeros((dim, dim), dtype=complex), site_dim)

    def dagger(self) -> "LocalOperator":
        return LocalOperator._raw(self.region, self.matrix.conj().T, self.site_dim)

    def is_hermitian(self, rtol: float = HERMITIAN_RTOL) -> bool:
        return bool(hermitian_mask(self.matrix, rtol))

    def __add__(self, other: "LocalOperator") -> "LocalOperator":
        a, b = _on_common_region(self, other)
        return LocalOperator._raw(a.region, a.matrix + b.matrix, a.site_dim)

    def __sub__(self, other: "LocalOperator") -> "LocalOperator":
        a, b = _on_common_region(self, other)
        return LocalOperator._raw(a.region, a.matrix - b.matrix, a.site_dim)

    def __neg__(self) -> "LocalOperator":
        return LocalOperator._raw(self.region, -self.matrix, self.site_dim)

    def __mul__(self, c) -> "LocalOperator":
        return LocalOperator._raw(self.region, self.matrix * complex(c), self.site_dim)

    __rmul__ = __mul__

    def __matmul__(self, other: "LocalOperator") -> "LocalOperator":
        a, b = _on_common_region(self, other)
        return LocalOperator._raw(a.region, a.matrix @ b.matrix, a.site_dim)


def _on_common_region(a: LocalOperator, b: LocalOperator):
    if a.site_dim != b.site_dim:
        raise ValueError("operators have different site dimensions")
    if a.region == b.region:
        return a, b
    target = a.region.union(b.region)
    return embed(a, target), embed(b, target)


def embed(a: LocalOperator, target: Region) -> LocalOperator:
    """Embed ``a`` into a larger region as a (x) 1, permuting tensor legs to
    the site order of ``target``.  Unital *-homomorphism, isometric.

    The entries are the products a[i, j] * 1[p, q] that ``np.kron`` would
    form, written by broadcasting into the tensor-leg layout directly.
    """
    if not a.region.issubset(target):
        raise ValueError(f"{a.region} is not contained in {target}")
    d, k, m = a.site_dim, len(a.region), len(target)
    if k == m:
        return a
    if d ** m > DIMENSION_CAP:
        raise DimensionCapError(f"embedding dimension {d ** m} exceeds cap")
    return LocalOperator._raw(target, embed_matrices(a.matrix, a.region, target, d), d)


def embed_matrices(mats: np.ndarray, region: Region, target: Region, d: int) -> np.ndarray:
    """``embed`` on the last two axes of a stack of matrices on ``region``
    (no checks): returns the stack of a (x) 1 on ``target``."""
    k, m = len(region), len(target)
    if k == m:
        return mats
    eye = np.eye(d ** (m - k), dtype=complex)
    # legs of `big`: sites of the region, then the remaining target sites
    big = mats[..., :, None, :, None] * eye[:, None, :]
    current = list(region) + [x for x in target if x not in region]
    perm = [current.index(x) for x in target]
    batch = mats.ndim - 2
    tens = big.reshape(mats.shape[:batch] + (d,) * (2 * m))
    axes = list(range(batch)) + [batch + p for p in perm] + [batch + m + p for p in perm]
    return tens.transpose(axes).reshape(mats.shape[:batch] + (d ** m, d ** m))


def operator_norms(mats: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix on the last two axes, (..., D, D) ->
    (...): max |eigenvalue| where ``hermitian_mask`` holds, else the largest
    singular value.  One stacked eigvalsh and one stacked SVD compute each
    matrix as they would compute it alone, so a norm does not depend on the
    stack it is taken in."""
    dim = mats.shape[-1]
    if dim > DIMENSION_CAP:
        raise DimensionCapError(f"dimension {dim} exceeds cap {DIMENSION_CAP}")
    norms = np.zeros(mats.shape[:-2])
    herm = hermitian_mask(mats)
    if herm.any():
        norms[herm] = np.abs(np.linalg.eigvalsh(mats[herm])).max(axis=-1)
    if not herm.all():
        norms[~herm] = np.linalg.norm(mats[~herm], 2, axis=(-2, -1))
    return norms


def operator_norm(a: LocalOperator) -> float:
    """Spectral norm of one operator, ``operator_norms`` of its matrix."""
    return float(operator_norms(a.matrix))


def spin_matrices(rep: SpinRep, at: Site = (0,)) -> tuple:
    """Standard spin-j matrices (S1, S2, S3) on a single site.

    Condon-Shortley phases: S3 = diag(j, j-1, ..., -j), real nonnegative
    ladder coefficients.  They satisfy [S1, S2] = i S3 (and cyclic) and
    S1^2 + S2^2 + S3^2 = j(j+1) I.
    """
    jv = rep.j
    d = rep.dim
    s3 = np.diag(jv - np.arange(d)).astype(complex)  # j, j-1, ..., -j
    sp = np.zeros((d, d), dtype=complex)
    sp[np.arange(d - 1), np.arange(1, d)] = rep.ladder()
    sm = sp.conj().T
    s1 = (sp + sm) / 2
    s2 = (sp - sm) / 2j
    reg = Region((tuple(at),))
    return (
        LocalOperator(reg, s1, d, hermitian=True),
        LocalOperator(reg, s2, d, hermitian=True),
        LocalOperator(reg, s3, d, hermitian=True),
    )


class InteractionFamily:
    """Map from finite regions to Hermitian local operators.

    ``psi(x)`` is the single-site part, ``phibar`` the multilocal part
    (terms on regions of two or more sites); the empty region never carries
    a term.

    The family caches what follows from its terms alone: the term norms, the
    single-site eigendecompositions and, per finite lattice, the facts that
    ``lattice_fact`` holds (the Hamiltonian of ``quantum.FiniteSystem`` and
    its eigendecomposition).  The term matrices are marked read-only, so a
    write into one raises instead of leaving those caches stale.
    """

    def __init__(self, terms: Mapping[Region, LocalOperator], site_dim: int):
        self.site_dim = site_dim
        clean = {}
        for reg, op in terms.items():
            if len(reg) == 0:
                raise ValueError("the empty region cannot carry a potential")
            if op.region != reg:
                raise ValueError("term stored under a region it does not act on")
            if op.site_dim != site_dim:
                raise ValueError("term has inconsistent site dimension")
            if not op.is_hermitian():
                raise ValueError(f"potential on {reg} is not Hermitian")
            if np.any(op.matrix):
                op.matrix.flags.writeable = False
                clean[reg] = op
        self.terms = clean
        self._norm_cache = {}
        self._psi_eigh = {}
        self._lattice_facts = {}

    def term_norm(self, region: Region) -> float:
        """Cached spectral norm of the stored term (0 when absent)."""
        if region not in self._norm_cache:
            op = self.terms.get(region)
            self._norm_cache[region] = operator_norm(op) if op is not None else 0.0
        return self._norm_cache[region]

    def psi_norm(self, x: Site) -> float:
        return self.term_norm(Region((tuple(x),)))

    def psi_eigh(self, x: Site):
        """Cached eigendecomposition ``(w, v)`` of the single-site term at
        ``x``, or ``None`` when the site carries none."""
        x = tuple(x)
        if x not in self._psi_eigh:
            op = self.terms.get(Region((x,)))
            self._psi_eigh[x] = None if op is None else np.linalg.eigh(op.matrix)
        return self._psi_eigh[x]

    def lattice_fact(self, gamma: Region, name: str, compute):
        """Cached ``compute()`` for the fact ``name`` of the family on the
        finite lattice ``gamma``: a fact that depends on the terms and the
        lattice alone, computed once and shared by every caller that asks
        for it on this family and lattice."""
        key = (gamma, name)
        if key not in self._lattice_facts:
            self._lattice_facts[key] = compute()
        return self._lattice_facts[key]

    def psi(self, x: Site) -> LocalOperator:
        reg = Region((tuple(x),))
        return self.terms.get(reg, LocalOperator.zero(reg, self.site_dim))

    def multilocal(self) -> dict:
        return {r: op for r, op in self.terms.items() if len(r) >= 2}

    def singletons(self) -> dict:
        return {r: op for r, op in self.terms.items() if len(r) == 1}

    def sites(self) -> Region:
        out = EMPTY_REGION
        for r in self.terms:
            out = out.union(r)
        return out


def graph_distance(x: Site, y: Site) -> int:
    return int(sum(abs(a - b) for a, b in zip(x, y)))


def _bonds(window: Region):
    sites = list(window)
    for i, x in enumerate(sites):
        for y in sites[i + 1:]:
            if graph_distance(x, y) == 1:
                yield x, y


def heisenberg_bond(rep: SpinRep, delta: float) -> np.ndarray:
    """delta (S1 S1 + S2 S2) + S3 S3 on a pair of sites, as one matrix; it is
    symmetric under swapping the two sites.  A delta whose bond has entries
    beyond the float range raises ``FloatRangeError`` before any is formed."""
    check_heisenberg_delta(rep, delta)
    s1, s2, s3 = (s.matrix for s in spin_matrices(rep))
    return delta * np.kron(s1, s1) + delta * np.kron(s2, s2) + np.kron(s3, s3)


def build_heisenberg(coupling: float, delta: float, rep: SpinRep,
                     window: Region) -> InteractionFamily:
    """Anisotropic Heisenberg interaction on nearest-neighbour pairs of a
    finite window: Phi_{x,y} = -J (delta (S1 S1 + S2 S2) + S3 S3).
    No single-site part."""
    term = -coupling * heisenberg_bond(rep, delta)
    terms = {}
    for x, y in _bonds(window):
        reg = Region._raw((x, y))
        terms[reg] = LocalOperator(reg, term, rep.dim)
    return InteractionFamily(terms, rep.dim)


def __getattr__(name: str):
    # the benchmark tracer still wraps ``lattice.Motif.scalar_norm``; the
    # forward goes with ROADMAP item 2, which makes the tracer read counters
    if name == "Motif":
        return ti.Motif
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
