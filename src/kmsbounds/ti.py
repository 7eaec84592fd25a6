"""Lattice geometry, spin labels and translation-invariant interactions, in
pure Python.

Sites are integer coordinate tuples ordered lexicographically; a region is a
sorted, duplicate-free tuple of sites.  A translation-invariant interaction
is a set of motifs, each a region at the origin with a coefficient and the
spectral norm of its bond, which is all that the weighted norms and the
thresholds read.  The threshold commands load this module and no numpy;
``lattice`` holds the dense operators that the verification suites use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

Site = tuple  # integer coordinate tuple, e.g. (0,) or (1, 2)


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

    def ladder(self) -> list:
        """<m| S+ |m - 1> = sqrt(j(j+1) - (m - 1) m) for m = j, j-1, ..., -j+1,
        the entries of ``lattice.spin_matrices``' raising operator."""
        jv = self.j
        return [math.sqrt(jv * (jv + 1) - m * (m + 1)) for m in (jv - k for k in range(1, self.dim))]


@dataclass(frozen=True)
class Motif:
    """One translation-invariant interaction term, anchored at the origin:
    ``coefficient`` times a bond of spectral norm ``bond_norm`` on ``region``.

    Construction computes the scalar norm |coefficient| x bond norm once.
    It raises ``FloatRangeError`` when that norm is beyond the float range.
    """

    region: Region
    coefficient: float
    bond_norm: float
    _scalar_norm: float = field(init=False, repr=False, compare=False)

    # not a field: the benchmark tracer's fingerprint still reads it (goes
    # with ROADMAP item 2, which makes the tracer read counters instead)
    operator = None

    def __post_init__(self):
        origin = tuple(0 for _ in self.region.sites[0])
        if origin not in self.region:
            raise ValueError("motif region must contain the origin")
        if not math.isfinite(self.coefficient):
            raise ValueError("motif coefficient must be finite")
        scalar_norm = abs(self.coefficient) * self.bond_norm
        # no entry of the term coefficient x bond exceeds this norm
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


def _within(diag: list, offsq: list, t: float) -> bool:
    """Whether every eigenvalue of the symmetric tridiagonal matrix with
    diagonal ``diag`` and squared off-diagonal ``offsq`` lies in [-t, t]:
    t + T and t - T are positive semidefinite when the pivots of their LDL
    factorizations (Sturm counts) are all nonnegative.  A zero pivot with a
    coupling below it leaves an eigenvalue below zero."""
    for sign in (1.0, -1.0):
        pivot = t + sign * diag[0]
        for a, b2 in zip(diag[1:], offsq):
            if pivot < 0.0 or (pivot == 0.0 and b2):
                return False
            pivot = t + sign * a - (b2 / pivot if b2 else 0.0)
        if pivot < 0.0:
            return False
    return True


def check_heisenberg_delta(rep: SpinRep, delta: float) -> None:
    """Raise ``FloatRangeError`` when an entry of the bond
    delta (S1 S1 + S2 S2) + S3 S3, as ``lattice.heisenberg_bond`` forms it,
    is beyond the float range.  Its largest entries are the flip-flop ones,
    delta (c/2)(c/2) + delta (c/2)(c/2) for the largest ladder coefficient c;
    where delta (c/2)(c/2) overflows, the double-raising entries
    delta (c/2)(c/2) - delta (c/2)(c/2) are nan."""
    half = max(rep.ladder()) / 2.0
    if not math.isfinite(2.0 * (abs(delta) * (half * half))):
        raise FloatRangeError(
            f"the Heisenberg bond at delta = {delta} has entries beyond the float range"
        )


def heisenberg_bond_norm(rep: SpinRep, delta: float) -> float:
    """Spectral norm of the bond delta (S1 S1 + S2 S2) + S3 S3 on two sites.

    The bond conserves the total S3 = m1 + m2 = M.  Its block at fixed M is
    tridiagonal in m1, with diagonal m1 m2 and off-diagonal
    (delta / 2) <m1 - 1| S- |m1> <m2 + 1| S+ |m2>, and the block at -M has
    the same spectrum, so the blocks with M >= 0 hold every |eigenvalue|.
    Each block is scaled by a power of two s with max(|delta|, 1) in
    [s, 2s), which keeps the squared off-diagonals finite, and its norm is
    bracketed by doubling and bisected by Sturm counts to adjacent floats,
    starting from the largest norm of the blocks before it.

    Raises ``FloatRangeError`` as ``check_heisenberg_delta`` does; a norm
    beyond the float range is +inf.
    """
    check_heisenberg_delta(rep, delta)
    ladder = rep.ladder()
    scale = math.ldexp(1.0, math.frexp(delta)[1] - 1) if abs(delta) > 1.0 else 1.0
    coupling = delta / scale / 2.0
    two_j = rep.two_j
    norm = 0.0
    # the states (m1, m2) = (j - k, j - n + k) of block n have M = 2j - n
    for n in range(two_j, -1, -1):
        diag = [(two_j - 2 * k) * (two_j - 2 * (n - k)) / 4.0 / scale for k in range(n + 1)]
        offsq = [(coupling * ladder[k] * ladder[n - k - 1]) ** 2 for k in range(n)]
        if _within(diag, offsq, norm):
            continue
        lo, hi = norm, 2.0 * norm or 1.0
        while not _within(diag, offsq, hi):
            lo, hi = hi, 2.0 * hi
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if _within(diag, offsq, mid):
                hi = mid
            else:
                lo = mid
        norm = hi
    return norm * scale


def ising_bond_norm(rep: SpinRep) -> float:
    """Spectral norm ||S3 S3|| = j^2 of the Ising bond."""
    return rep.j ** 2


def heisenberg_ti(nu: int, coupling: float, delta: float, rep: SpinRep) -> TIInteractionSpec:
    """Translation-invariant anisotropic Heisenberg model on Z^nu: one motif
    -J (delta (S1 S1 + S2 S2) + S3 S3) per lattice direction, all carrying
    the one bond norm ``heisenberg_bond_norm(rep, delta)``."""
    bond_norm = heisenberg_bond_norm(rep, delta)
    return TIInteractionSpec(nu, tuple(
        Motif(reg, -coupling, bond_norm) for reg in _axis_bonds(nu)
    ))


def ising_staggered_ti(nu: int, coupling: float, field: float, rep: SpinRep) -> TIInteractionSpec:
    """Translation-invariant Ising bonds with a staggered field on Z^nu.

    The staggering only flips signs, so ||Psi_x|| = |B| j uniformly.
    """
    bond_norm = ising_bond_norm(rep)
    motifs = tuple(Motif(reg, coupling, bond_norm) for reg in _axis_bonds(nu))
    return TIInteractionSpec(nu, motifs, psi_site_norm=abs(field) * rep.j)


def classical_heisenberg_ti(nu: int, coupling: float, delta: float) -> TIInteractionSpec:
    """Classical anisotropic Heisenberg model on Z^nu via scalar bond norms:
    sup |delta (s1 s1 + s2 s2) + s3 s3| = max(|delta|, 1) over pairs of unit
    vectors."""
    bond_norm = max(abs(delta), 1.0)
    return TIInteractionSpec(nu, tuple(
        Motif(reg, -coupling, bond_norm) for reg in _axis_bonds(nu)
    ))
