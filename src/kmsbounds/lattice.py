"""Lattice geometry, spin representations and operator algebra on finite regions.

Sites are integer coordinate tuples ordered lexicographically; a region is a
sorted, duplicate-free tuple of sites.  Observables are dense complex matrices
attached to a region, with tensor legs ordered by the site order of the region
(one canonical convention so that operator equality is testable).  The single
site dimension ``d`` is uniform across a model.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Site = tuple  # integer coordinate tuple, e.g. (0,) or (1, 2)

#: default bound on matrix dimension for dense operations (~6 spin-1/2 sites)
DIMENSION_CAP = 4096

HERMITIAN_RTOL = 1e-12


class DimensionCapError(ValueError):
    """Raised when a dense matrix would exceed the configured dimension cap."""


class FloatRangeError(ValueError):
    """Raised when an interaction term, or its norm, is beyond the float range."""


@dataclass(frozen=True)
class Region:
    """Finite set of lattice sites, kept sorted and duplicate-free."""

    sites: tuple

    def __post_init__(self):
        sites = tuple(tuple(int(c) for c in s) for s in self.sites)
        if list(sites) != sorted(set(sites)):
            raise ValueError("region sites must be sorted and duplicate-free")
        if sites and len({len(s) for s in sites}) != 1:
            raise ValueError("all sites must share the lattice dimension")
        object.__setattr__(self, "sites", sites)

    @classmethod
    def _raw(cls, sites: tuple) -> "Region":
        """A region from integer-tuple sites that are already sorted,
        duplicate-free and of one dimension; skips the checks, for results
        that are valid by construction."""
        region = object.__new__(cls)
        object.__setattr__(region, "sites", sites)
        return region

    @classmethod
    def of(cls, sites: Iterable[Site]) -> "Region":
        return cls(tuple(sorted(set(tuple(s) for s in sites))))

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self) -> Iterator[Site]:
        return iter(self.sites)

    def __contains__(self, x) -> bool:
        return tuple(x) in self.sites

    def index(self, x: Site) -> int:
        return self.sites.index(tuple(x))

    def _check_dimension(self, other: "Region") -> None:
        if self.sites and other.sites and len(self.sites[0]) != len(other.sites[0]):
            raise ValueError("all sites must share the lattice dimension")

    def issubset(self, other: "Region") -> bool:
        self._check_dimension(other)
        return set(self.sites) <= set(other.sites)

    def union(self, other: "Region") -> "Region":
        self._check_dimension(other)
        return Region._raw(tuple(sorted(set(self.sites).union(other.sites))))

    def difference(self, other: "Region") -> "Region":
        self._check_dimension(other)
        drop = set(other.sites)
        return Region._raw(tuple(s for s in self.sites if s not in drop))

    def intersection(self, other: "Region") -> "Region":
        self._check_dimension(other)
        keep = set(other.sites)
        return Region._raw(tuple(s for s in self.sites if s in keep))

    def min_site(self) -> Site:
        if not self.sites:
            raise ValueError("empty region has no minimal site")
        return self.sites[0]

    def subsets(self) -> Iterator["Region"]:
        """All subsets, by increasing size then lexicographic order."""
        for r in range(len(self.sites) + 1):
            for combo in combinations(self.sites, r):
                yield Region._raw(combo)


EMPTY_REGION = Region(())


def box_window(extents: Sequence[int]) -> Region:
    """Rectangular window {0..L1-1} x ... x {0..Lnu-1} as a Region."""
    if not extents or any(e < 1 for e in extents):
        raise ValueError("extents must be positive")
    # product() yields the sites in lexicographic order, each once
    return Region._raw(tuple(product(*map(range, extents))))


@dataclass(frozen=True)
class SpinRep:
    """Spin-j representation; ``two_j`` is 2j, so the site dimension is 2j+1."""

    two_j: int

    def __post_init__(self):
        if self.two_j < 1:
            raise ValueError(f"invalid spin: two_j={self.two_j} < 1")

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def dim(self) -> int:
        return self.two_j + 1


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


def is_hermitian_matrix(mat: np.ndarray, rtol: float = HERMITIAN_RTOL) -> bool:
    """``hermitian_mask`` of one matrix."""
    return bool(hermitian_mask(mat, rtol))


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
        if self.hermitian and not is_hermitian_matrix(mat):
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
        return is_hermitian_matrix(self.matrix, rtol)

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
    """``operator_norm`` of each matrix of a stack (K, D, D), with the same
    branch per matrix: max |eigenvalue| where ``hermitian_mask`` holds, else
    the largest singular value.  One stacked eigvalsh and one stacked SVD
    compute each matrix as they would compute it alone."""
    dim = mats.shape[-1]
    if dim > DIMENSION_CAP:
        raise DimensionCapError(f"dimension {dim} exceeds cap {DIMENSION_CAP}")
    norms = np.zeros(len(mats))
    herm = hermitian_mask(mats)
    if herm.any():
        norms[herm] = np.abs(np.linalg.eigvalsh(mats[herm])).max(axis=-1)
    if not herm.all():
        norms[~herm] = np.linalg.norm(mats[~herm], 2, axis=(-2, -1))
    return norms


def operator_norm(a: LocalOperator) -> float:
    """Spectral norm; max |eigenvalue| for Hermitian input, else the largest
    singular value."""
    dim = a.matrix.shape[0]
    if dim > DIMENSION_CAP:
        raise DimensionCapError(f"dimension {dim} exceeds cap {DIMENSION_CAP}")
    if dim == 0:
        return 0.0
    if a.is_hermitian():
        return float(np.abs(np.linalg.eigvalsh(a.matrix)).max())
    return float(np.linalg.norm(a.matrix, 2))


def spin_matrices(rep: SpinRep, at: Site = (0,)) -> tuple:
    """Standard spin-j matrices (S1, S2, S3) on a single site.

    Condon-Shortley phases: S3 = diag(j, j-1, ..., -j), real nonnegative
    ladder coefficients.  They satisfy [S1, S2] = i S3 (and cyclic) and
    S1^2 + S2^2 + S3^2 = j(j+1) I.
    """
    jv = rep.j
    d = rep.dim
    m = jv - np.arange(d)  # j, j-1, ..., -j
    s3 = np.diag(m).astype(complex)
    # raising operator: <m+1| S+ |m> = sqrt(j(j+1) - m(m+1))
    ladder = np.sqrt(jv * (jv + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((d, d), dtype=complex)
    sp[np.arange(d - 1), np.arange(1, d)] = ladder
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
                clean[reg] = op
        self.terms = clean
        self._norm_cache = {}
        self._psi_eigh = {}

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

    def __iter__(self):
        return iter(sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0].sites)))

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
    symmetric under swapping the two sites."""
    s1, s2, s3 = (s.matrix for s in spin_matrices(rep))
    # a huge delta overflows here; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        bond = delta * np.kron(s1, s1) + delta * np.kron(s2, s2) + np.kron(s3, s3)
    if not np.isfinite(bond).all():
        raise FloatRangeError(
            f"the Heisenberg bond at delta = {delta} has entries beyond the float range"
        )
    return bond


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


@dataclass(frozen=True)
class Motif:
    """One translation-invariant interaction term, anchored at the origin.

    Either a bond operator or a precomputed scalar norm (or both) describes
    the term's strength.  Construction computes the scalar norm
    |coefficient| x bond norm once, taking the bond norm from the operator
    when there is one (one eigendecomposition).  It raises ``ValueError``
    when a supplied norm disagrees with the operator norm, and
    ``FloatRangeError`` when the scalar norm is beyond the float range.
    """

    region: Region
    coefficient: float
    operator: LocalOperator = None
    bond_norm: float = None
    _scalar_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        origin = tuple(0 for _ in self.region.sites[0])
        if origin not in self.region:
            raise ValueError("motif region must contain the origin")
        if self.operator is None and self.bond_norm is None:
            raise ValueError("motif needs an operator or a scalar norm")
        if not math.isfinite(self.coefficient):
            raise ValueError("motif coefficient must be finite")
        bond_norm = self.bond_norm
        if self.operator is not None:
            bond_norm = operator_norm(self.operator)
            if self.bond_norm is not None and not math.isclose(
                bond_norm, self.bond_norm, rel_tol=1e-10, abs_tol=1e-12
            ):
                raise ValueError(
                    f"supplied norm {self.bond_norm} != operator norm {bond_norm}"
                )
        scalar_norm = abs(self.coefficient) * bond_norm
        # no entry of the term coefficient x operator exceeds this norm
        if not math.isfinite(scalar_norm):
            raise FloatRangeError(
                f"the motif term {self.coefficient} x bond has a norm beyond the float range"
            )
        object.__setattr__(self, "_scalar_norm", scalar_norm)

    def scalar_norm(self) -> float:
        """|coefficient| x bond norm, as computed at construction."""
        return self._scalar_norm


@dataclass(frozen=True)
class TIInteractionSpec:
    """Translation-invariant interaction on Z^nu given by motifs.

    ``psi_site_norm`` is the uniform single-site potential norm ||Psi_x||
    entering the zeta-weighted norms (0 when there is no single-site part).
    Construction stores ``motif_terms``, the (number of sites, scalar norm)
    pair of each motif; with ``psi_site_norm`` it is all that the closed-form
    weighted norm reads.
    """

    nu: int
    motifs: tuple
    psi_site_norm: float = 0.0
    motif_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "motifs", tuple(self.motifs))
        if self.nu < 1:
            raise ValueError("lattice dimension must be >= 1")
        if self.psi_site_norm < 0:
            raise ValueError("psi_site_norm must be nonnegative")
        object.__setattr__(
            self, "motif_terms", tuple((len(m.region), m.scalar_norm()) for m in self.motifs)
        )


def _axis_bonds(nu: int) -> list:
    """The bond regions {0, e_i} of the origin, one per lattice direction."""
    origin = (0,) * nu
    return [Region._raw((origin, origin[:i] + (1,) + origin[i + 1:])) for i in range(nu)]


def heisenberg_ti(nu: int, coupling: float, delta: float, rep: SpinRep) -> TIInteractionSpec:
    """Translation-invariant anisotropic Heisenberg model on Z^nu."""
    bond = heisenberg_bond(rep, delta)
    return TIInteractionSpec(nu, tuple(
        Motif(reg, -coupling, operator=LocalOperator(reg, bond, rep.dim)) for reg in _axis_bonds(nu)
    ))


def ising_staggered_ti(nu: int, coupling: float, field: float, rep: SpinRep) -> TIInteractionSpec:
    """Translation-invariant Ising bonds with a staggered field on Z^nu.

    The staggering only flips signs, so ||Psi_x|| = |B| j uniformly.
    """
    _, _, s3 = spin_matrices(rep)
    bond = np.kron(s3.matrix, s3.matrix)
    motifs = tuple(
        Motif(reg, coupling, operator=LocalOperator(reg, bond, rep.dim)) for reg in _axis_bonds(nu)
    )
    return TIInteractionSpec(nu, motifs, psi_site_norm=abs(field) * rep.j)


def classical_heisenberg_ti(nu: int, coupling: float, delta: float) -> TIInteractionSpec:
    """Classical anisotropic Heisenberg model on Z^nu via scalar bond norms:
    sup |delta (s1 s1 + s2 s2) + s3 s3| = max(|delta|, 1) over pairs of unit
    vectors."""
    bond_norm = max(abs(delta), 1.0)
    return TIInteractionSpec(nu, tuple(
        Motif(reg, -coupling, bond_norm=bond_norm) for reg in _axis_bonds(nu)
    ))
