"""Weighted interaction norms.

The central quantity is

    sup_x  sum_{L containing x, |L| >= 2}  e^{eps(|L|-1) + zeta ||Psi||_L} ||Phi_L||

with ||Psi||_L = sum_{x in L} ||Psi_x||.  With zeta = 0 this reduces to the
plain eps-weighted norm.  Finite families are evaluated exactly; translation
invariant specifications have a closed-form motif sum, and their per-site
sums on a finite window are counted from the motifs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .lattice import InteractionFamily, Region, Site, TIInteractionSpec


@dataclass(frozen=True)
class NormParams:
    eps: float
    zeta: float = 0.0

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.zeta < 0:
            raise ValueError(f"zeta must be nonnegative, got {self.zeta}")


def psi_norm_sum(fam: InteractionFamily, region: Region) -> float:
    """||Psi||_X = sum over x in X of ||Psi_x||; 0 for the empty region."""
    return sum(fam.psi_norm(x) for x in region)


def per_site_norm(fam: InteractionFamily, x: Site, params: NormParams) -> float:
    """Weighted sum over multilocal terms containing ``x``; a term of norm 0
    contributes 0 whatever its weight."""
    total = 0.0
    for region in fam.multilocal():
        if x in region:
            norm = fam.term_norm(region)
            if norm:
                psi = psi_norm_sum(fam, region) if params.zeta else 0.0
                total += _weight(len(region), params.eps, params.zeta, psi) * norm
    return total


def site_norm_profile(fam: InteractionFamily, params: NormParams) -> dict:
    return {x: per_site_norm(fam, x, params) for x in fam.sites()}


def _norm_finite(fam: InteractionFamily, eps: float, zeta: float) -> float:
    profile = site_norm_profile(fam, NormParams(eps, zeta))
    return max(profile.values()) if profile else 0.0


def _weight(k: int, eps: float, zeta: float, psi: float) -> float:
    """e^{eps(k-1) + zeta psi} for a term on k sites whose single-site norms
    sum to psi; the zeta term is dropped when zeta or psi is 0 (no inf * 0
    at zeta = inf or psi = inf), and a weight beyond the float range is
    +infinity."""
    exponent = eps * (k - 1) + (zeta * psi if zeta and psi else 0.0)
    try:
        return math.exp(exponent)
    except OverflowError:
        return math.inf


def _norm_ti(spec: TIInteractionSpec, eps: float, zeta: float) -> float:
    """Closed-form motif sum: a motif of k sites has k translates containing
    any fixed site, each contributing its weight times its scalar norm.  A
    motif of norm 0 contributes 0 whatever its weight.  The single-site sum
    k ||psi|| enters as (zeta k) ||psi||."""
    total = 0.0
    for k, norm in spec.motif_terms:
        if norm:
            total += k * _weight(k, eps, zeta * k, spec.psi_site_norm) * norm
    return total


def norm_function(interaction):
    """The weighted norm of ``interaction`` as a function of (eps, zeta).

    Finite families are summed exactly per site (sup over all sites of the
    family); translation-invariant specs use the closed form.  The function
    does not check its arguments: it serves loops whose eps and zeta are
    valid by construction, and ``norm_eps_zeta`` is the checked entry point.
    """
    if isinstance(interaction, InteractionFamily):
        return functools.partial(_norm_finite, interaction)
    if isinstance(interaction, TIInteractionSpec):
        return functools.partial(_norm_ti, interaction)
    raise TypeError(f"unsupported interaction type {type(interaction)!r}")


def zeta_free(spec: TIInteractionSpec) -> bool:
    """True when ``spec`` has no single-site part.  ``_weight`` then drops the
    zeta term of every weight, so ``norm_function(spec)`` returns the same
    float for every zeta."""
    return spec.psi_site_norm == 0


def norm_eps_zeta(interaction, params: NormParams) -> float:
    """||interaction||_{eps, zeta}; an empty family has norm 0, not an error."""
    return norm_function(interaction)(params.eps, params.zeta)


@dataclass(frozen=True)
class WindowNorms:
    """Per-site weighted sums of a TI spec instantiated on a finite window.

    ``interior`` is the sup over sites whose full motif neighbourhood lies
    inside the window; their sums are those of the translation-invariant
    closed form, bit for bit.  Truncated boundary sites are reported
    separately.
    """

    interior: float
    boundary: float
    per_site: dict


def window_norms(spec: TIInteractionSpec, window: Region, params: NormParams) -> WindowNorms:
    """Per-site sums of the motif translates inside ``window``.

    A motif contributes (number of its anchors whose translate onto x fits
    in the window x weight) x scalar norm at x, motif by motif in the
    closed form's order; a translate fits when each of its sites is a window
    site, so windows of any shape count exactly.  x is a boundary site when
    some translate does not fit.  Motifs whose regions are translates of each
    other count separately, as in the closed form.  A window of another
    lattice dimension raises ``ValueError``.
    """
    if window.sites and len(window.sites[0]) != spec.nu:
        raise ValueError(f"the window has dimension {len(window.sites[0])}, the spec {spec.nu}")
    terms = []
    for motif in spec.motifs:
        k = len(motif.region)
        weight = _weight(k, params.eps, params.zeta * k, spec.psi_site_norm)
        # per anchor, the offsets of the motif's sites from it
        shifts = [[tuple(c - a for c, a in zip(s, anchor)) for s in motif.region]
                  for anchor in motif.region]
        terms.append((shifts, weight, motif.scalar_norm()))
    sites = set(window)
    per_site, interior, boundary = {}, 0.0, 0.0
    for x in window:
        total, inside = 0.0, True
        for shifts, weight, norm in terms:
            fitting = sum(
                all(tuple(c + d for c, d in zip(x, o, strict=True)) in sites for o in offsets)
                for offsets in shifts
            )
            inside = inside and fitting == len(shifts)
            if norm and fitting:
                total += fitting * weight * norm
        per_site[x] = total
        if inside:
            interior = max(interior, total)
        else:
            boundary = max(boundary, total)
    return WindowNorms(interior=interior, boundary=boundary, per_site=per_site)
