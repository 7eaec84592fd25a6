"""Weighted interaction norms.

The central quantity is

    sup_x  sum_{L containing x, |L| >= 2}  e^{eps(|L|-1) + zeta ||Psi||_L} ||Phi_L||

with ||Psi||_L = sum_{x in L} ||Psi_x||.  With zeta = 0 this reduces to the
plain eps-weighted norm.  Finite families are evaluated exactly; translation
invariant specifications have a closed-form motif sum (the sup over sites is
site-independent, up to window truncation which is reported separately).
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
    """Weighted sum over multilocal terms containing ``x``."""
    total = 0.0
    for region in fam.multilocal():
        if x in region:
            weight = params.eps * (len(region) - 1)
            if params.zeta:
                weight += params.zeta * psi_norm_sum(fam, region)
            total += math.exp(weight) * fam.term_norm(region)
    return total


def site_norm_profile(fam: InteractionFamily, params: NormParams) -> dict:
    return {x: per_site_norm(fam, x, params) for x in fam.sites()}


def _norm_finite(fam: InteractionFamily, eps: float, zeta: float) -> float:
    profile = site_norm_profile(fam, NormParams(eps, zeta))
    return max(profile.values()) if profile else 0.0


def _norm_ti(spec: TIInteractionSpec, eps: float, zeta: float) -> float:
    """Closed-form motif sum: a motif of k sites has k translates containing
    any fixed site, each contributing e^{eps(k-1) + zeta k ||psi||} times its
    scalar norm.  A weight beyond the float range is +infinity; a motif of
    norm 0 contributes 0 whatever its weight."""
    total = 0.0
    for k, norm in spec.motif_terms:
        if norm:
            try:
                weight = math.exp(eps * (k - 1) + zeta * k * spec.psi_site_norm)
            except OverflowError:
                weight = math.inf
            total += k * weight * norm
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


def norm_eps_zeta(interaction, params: NormParams) -> float:
    """||interaction||_{eps, zeta}; an empty family has norm 0, not an error."""
    return norm_function(interaction)(params.eps, params.zeta)


@dataclass(frozen=True)
class WindowNorms:
    """Per-site weighted sums of a TI spec instantiated on a finite window.

    ``interior`` is the sup over sites whose full motif neighbourhood lies
    inside the window; these match the translation-invariant closed form
    exactly.  Truncated boundary sites are reported separately.
    """

    interior: float
    boundary: float
    per_site: dict


def window_norms(spec: TIInteractionSpec, window: Region, params: NormParams) -> WindowNorms:
    fam = spec.window_family(window)
    # zeta-weighting uses the spec's uniform single-site norm, matching the
    # infinite-lattice family the window approximates
    values = {}
    for x in window:
        total = 0.0
        for region in fam.multilocal():
            if x in region:
                k = len(region)
                weight = params.eps * (k - 1) + params.zeta * k * spec.psi_site_norm
                total += math.exp(weight) * fam.term_norm(region)
        values[x] = total
    interior, boundary = 0.0, 0.0
    for x in window:
        if _is_interior(spec, window, x):
            interior = max(interior, values[x])
        else:
            boundary = max(boundary, values[x])
    return WindowNorms(interior=interior, boundary=boundary, per_site=values)


def _is_interior(spec: TIInteractionSpec, window: Region, x: Site) -> bool:
    for motif in spec.motifs:
        for anchor in motif.region:
            # translate placing `anchor` at x
            v = tuple(c - a for c, a in zip(x, anchor, strict=True))
            if not motif.translate(v).issubset(window):
                return False
    return True
