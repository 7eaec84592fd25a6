"""Subcritical inverse-temperature bounds and their literature comparators.

The high-temperature uniqueness condition for quantum spin systems reads

    beta ||Phi_bar||_{eps + log 3, 2 beta}  <  (1/6) eps / (1 + e^eps),

so the optimal threshold beta_u solves the corresponding equality; the map
beta -> beta ||.||_{.., 2 beta} is continuous, strictly increasing and
divergent, which makes bracketing + bisection unconditionally safe.  When the
multilocal part commutes with the single-site part the zeta-weight drops and
beta_u is available in closed form.  Classical spin systems have the simpler
threshold 1 / (3 ||phi_bar||_{log 3}).

When the interaction has no single-site part every weight drops its zeta
term, so the norm at zeta = 2 beta is the norm at zeta = 0 for every beta
and the root is target / norm, one division per eps; this is the case of
every Heisenberg and classical Heisenberg spec.  With a single-site part
``beta_u_general`` bisects to adjacent floats.

Each threshold is a maximum over eps on the grid 0.01, 0.02, ..., 10, and
``optimize_eps`` finds the scan's first grid argmax without evaluating the
whole grid.  Every objective here is log-concave in eps (the proof is in its
docstring), so its grid values are weakly unimodal: they rise, possibly
through plateaus, to a peak and then fall.  A ternary search over grid
indices compares the values at two interior indices and drops the third of
the range behind the smaller one; a strict comparison never drops the first
argmax of such a sequence.  Once at most 8 indices remain, the first argmax
over them and 3 more indices on each side is the scan's.

Only near-ties are unsafe: two values within 16 ulps of the larger one may
be ordered by rounding alone.  They arise from the rounding of the closed
forms and from objectives that are 0 on the whole grid (a norm that
overflows at every eps).  A near-tie, or any comparison with an
infinity or a nan, widens the window to the whole grid: the full scan is
the same code path, and it is logged at DEBUG on the ``kmsbounds`` logger.
A nan in the window raises ``ValueError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

from .norms import NormParams, norm_eps_zeta, norm_function, zeta_free
from .ti import (
    SpinRep,
    TIInteractionSpec,
    classical_bond_norm,
    classical_heisenberg_ti,
    heisenberg_ti,
    ising_bond_norm,
)

LOG3 = math.log(3.0)

#: golden-section search shrink factor
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def target_fn(eps: float) -> float:
    """Right-hand side of the uniqueness condition: (1/6) eps / (1 + e^eps)."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return eps / (6.0 * (1.0 + math.exp(eps)))


@dataclass(frozen=True)
class EpsBeta:
    """A maximizer eps* on the eps grid and the threshold beta there.  An
    ``optimize_eps`` result is one too: every objective of this module is a
    threshold up to a constant prefactor, and ``beta`` is its maximum."""

    eps_star: float
    beta: float


#: two objective values closer than this many ulps of the larger one are a
#: near-tie, which the search over grid indices does not decide
_TIE_ULPS = 16

#: the eps grid of every threshold (first point, number of points, spacing)
#: and the width to which golden section refines its maximizer
_EPS_LO, _EPS_POINTS, _EPS_STEP, _EPS_TOL = 1e-2, 1000, 1e-2, 1e-6


def _grid_eps(i: int) -> float:
    """Point i of the eps grid 0.01, 0.02, ..., 10, bit for bit the point
    that ``np.arange(0.01, 10.005, 0.01)`` holds."""
    return _EPS_LO + i * _EPS_STEP


def optimize_eps(objective) -> EpsBeta:
    """Maximize a log-concave objective on the eps grid, then refine by
    golden section around the grid maximizer.

    The result is that of scanning every grid point: the first grid argmax,
    then the unchanged golden-section step on its two neighbours.  The
    search finds that argmax from about 25 evaluations at the grid points
    the scan would pass (see the module docstring).

    Every objective of this module is log-concave in eps, so its exact grid
    values rise to one peak and then fall.  N(eps, zeta) below is the
    weighted norm at eps + log 3, a maximum over sites of sums of
    exponentials e^{eps (k - 1) + zeta psi} with nonnegative coefficients:
    - target / N(eps, 0): log target = log eps - log(1 + e^eps) is concave,
      and log N(eps, 0) is a maximum of log-sum-exps of functions affine in
      eps, so it is convex;
    - the root with a single-site part: with u = log beta, the function
      F(eps, u) = u + log N(eps, 2 e^u) - log target(eps) is jointly convex
      (each exponent eps (k - 1) + 2 psi e^u is convex in (eps, u)) and
      increasing in u, so {(eps, u) : u <= log beta(eps)} = {F <= 0} is
      convex and log beta is concave;
    - the comparators eps e^{-eps} / (1 + c e^eps) with c > 0: log eps - eps
      is concave and log(1 + c e^eps) is convex.
    """
    seen = {}

    def value(i: int) -> float:
        if i not in seen:
            seen[i] = objective(_grid_eps(i))
        return seen[i]

    last = _EPS_POINTS - 1
    left, right = 0, last
    while right - left >= 8:
        third = (right - left) // 3
        m1, m2 = left + third, right - third
        f1, f2 = value(m1), value(m2)
        # also true when either value is an infinity or a nan
        if not abs(f1 - f2) > _TIE_ULPS * math.ulp(max(abs(f1), abs(f2))):
            # importing logging adds ~0.5 MB to the resident set of every
            # threshold command; only a scan that falls back needs it
            import logging

            logging.getLogger("kmsbounds").debug(
                "eps scan falls back to the full grid: objective(eps[%d]) = %r "
                "and objective(eps[%d]) = %r tie within %d ulps",
                m1, float(f1), m2, float(f2), _TIE_ULPS,
            )
            left, right = 0, last
            break
        if f1 < f2:
            left = m1 + 1
        else:
            right = m2 - 1
    window = range(max(left - 3, 0), min(right + 4, _EPS_POINTS))
    values = [value(i) for i in window]
    if any(map(math.isnan, values)):
        raise ValueError(f"the objective is nan on the eps grid from {_grid_eps(window.start)}")
    # the first grid argmax, as np.argmax gives it
    imax = window.start + values.index(max(values))
    a = _grid_eps(max(imax - 1, 0))
    b = _grid_eps(min(imax + 1, last))
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > _EPS_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = objective(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = objective(x1)
    xs = 0.5 * (a + b)
    return EpsBeta(xs, float(objective(xs)))


def beta_u_general(spec: TIInteractionSpec, eps: float) -> float:
    """Solve beta ||Phi_bar||_{eps+log3, 2 beta} = (1/6) eps/(1+e^eps) for beta.

    Returns +infinity when there is no multilocal interaction or the root
    lies beyond the float range.

    Without a single-site part (``zeta_free``) the norm at zeta = 0 is the
    norm at every zeta, because the weights then drop their zeta term, and
    the root is target / norm.  With one, the root is bracketed by doubling
    and bisected until the bracket holds two adjacent floats.  Either way an
    infinite norm gives the root 0.
    """
    tgt = target_fn(eps)
    # eps > 0 passed target_fn and the bracket keeps beta >= 0
    norm_at = norm_function(spec)
    base = norm_at(eps + LOG3, 0.0)
    if base == 0.0:
        return math.inf
    if zeta_free(spec):
        return tgt / base

    def g(beta: float) -> float:
        return beta * norm_at(eps + LOG3, 2.0 * beta) - tgt

    lo, hi = 0.0, 1.0
    # once 2 beta overflows to inf, g can be nan (inf * 0 in the zeta weight)
    while hi < math.inf and not g(hi) > 0.0:
        hi *= 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def beta_u_commuting(spec: TIInteractionSpec, eps: float) -> float:
    """Commuting-case threshold beta_u = target(eps) / ||Phi_bar||_{eps+log3}
    of a TI spec, +infinity for a zero norm; that [Phi_bar, Psi] = 0 is left
    to the caller.  It is ``beta_u_general`` of the spec without its
    single-site part, whose norm is the spec's at zeta = 0."""
    return beta_u_general(replace(spec, psi_site_norm=0.0), eps)


def _optimized_prefactor(prefactor: float, objective) -> EpsBeta:
    opt = optimize_eps(objective)
    return EpsBeta(opt.eps_star, prefactor * opt.beta)


def uniqueness_objective(eps: float) -> float:
    """eps e^{-eps} / (1 + e^eps); peaks near eps ~ 0.607 with value ~ 0.117."""
    return eps * math.exp(-eps) / (1.0 + math.exp(eps))


@functools.cache
def uniqueness_optimum() -> EpsBeta:
    """``optimize_eps(uniqueness_objective)``, scanned once per process: the
    objective is fixed."""
    return optimize_eps(uniqueness_objective)


#: a spec whose norm lies below 1 / _TINY_SCALE is scanned scaled up
#: by this exact power of two
_TINY_SCALE = 2.0 ** 512


def _scaled(spec: TIInteractionSpec, factor: float) -> TIInteractionSpec:
    """``spec`` with every term multiplied by ``factor``."""
    motifs = [replace(m, coefficient=factor * m.coefficient) for m in spec.motifs]
    return replace(spec, motifs=motifs, psi_site_norm=factor * spec.psi_site_norm)


def beta_u_optimized(spec: TIInteractionSpec) -> EpsBeta:
    """Maximize ``beta_u_general(spec, eps)`` over eps; +infinity when there
    is no multilocal interaction."""
    norm = norm_eps_zeta(spec, NormParams(LOG3 + 0.5))
    if norm == 0.0:
        return EpsBeta(0.5, math.inf)
    # A norm near the subnormal range rounds differently at each eps and the
    # threshold overflows: scan the spec scaled up by an exact power of two
    # (same eps*; the threshold is inversely proportional to the interaction,
    # its single-site norm scaled along) and scale it back.
    factor = 1.0
    if norm < 1.0 / _TINY_SCALE:
        factor, spec = _TINY_SCALE, _scaled(spec, _TINY_SCALE)
    opt = optimize_eps(functools.partial(beta_u_general, spec))
    return EpsBeta(opt.eps_star, opt.beta * factor)


def br_645_beta(rep: SpinRep, bond_strength: float) -> EpsBeta:
    """Dimension-dependent comparator for Heisenberg-type interactions:
    beta = [2 (2j+1)^2 S]^{-1} eps e^{-eps} / (1 + e^eps (2j+1)^3 / (2j)),
    with S = sup_x sum_y |J(x,y)| ||bond||, optimized over eps."""
    if bond_strength <= 0:
        raise ValueError("bond strength must be positive")
    d = rep.two_j + 1
    twoj = float(rep.two_j)

    def objective(eps):
        return eps * math.exp(-eps) / (1.0 + math.exp(eps) * d ** 3 / twoj)

    return _optimized_prefactor(1.0 / (2.0 * d ** 2 * bond_strength), objective)


def br_646_beta(rep: SpinRep, nu: int, coupling: float) -> EpsBeta:
    """Dimension-dependent comparator for the staggered-field Ising model:
    beta = [8 nu |J| (2j+1)^3]^{-1} eps e^{-eps} / (1 + 2 (2j+1)^4 e^eps)."""
    d = rep.two_j + 1

    def objective(eps):
        return eps * math.exp(-eps) / (1.0 + 2.0 * d ** 4 * math.exp(eps))

    return _optimized_prefactor(1.0 / (8.0 * nu * abs(coupling) * d ** 3), objective)


def ising_beta_fixed(nu: int, coupling: float, eps: float) -> float:
    """Staggered-field Ising threshold at a fixed eps with the bond norm taken
    as 1: beta = [36 nu |J|]^{-1} eps e^{-eps} / (1 + e^eps), +infinity when
    J = 0.  Independent of the field strength (the single-site part commutes
    and is subtracted)."""
    if coupling == 0.0:
        return math.inf
    return uniqueness_objective(eps) / (36.0 * nu * abs(coupling))


def beta_u_classical(phibar_norm_log3: float) -> float:
    """Classical subcritical threshold 1 / (3 ||phi_bar||_{log 3}).

    Normalized so that the nearest-neighbour Heisenberg model on Z^nu gets
    beta_tilde = 1/(18 J nu max(|delta|, 1)), the standard worked value for
    this comparison; the contraction argument alone yields the smaller
    log(2)/6 prefactor.  Returns +infinity when the norm vanishes.
    """
    if phibar_norm_log3 < 0:
        raise ValueError("norm must be nonnegative")
    if phibar_norm_log3 == 0.0:
        return math.inf
    return 1.0 / (3.0 * phibar_norm_log3)


@dataclass(frozen=True)
class FVBound:
    """Dobrushin-style comparator for the classical nearest-neighbour
    Heisenberg model and its ratio to the classical threshold."""

    beta: float
    ratio: float


def fv_beta(coupling: float, delta: float, nu: int) -> FVBound:
    """beta = [J max(|delta|,1)]^{-1} log(1 + 1/(2 nu e^6)); the ratio to the
    classical threshold is 18 nu log(1 + 1/(2 nu e^6)), which increases in
    nu towards 9 e^{-6}."""
    strength = abs(coupling) * classical_bond_norm(delta)
    log_term = math.log1p(1.0 / (2.0 * nu * math.exp(6.0)))
    if strength == 0.0:
        return FVBound(math.inf, 18.0 * nu * log_term)
    return FVBound(log_term / strength, 18.0 * nu * log_term)


@dataclass
class BoundReport:
    """Model threshold together with literature comparators and their ratios."""

    model_id: str
    eps_star: float
    beta_u: float
    comparators: dict = field(default_factory=dict)  # name -> EpsBeta
    ratios: dict = field(default_factory=dict)       # name -> comparator/ours

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "eps_star": self.eps_star,
            "beta_u": self.beta_u,
            "comparators": {
                k: {"eps_star": v.eps_star, "beta": v.beta}
                for k, v in sorted(self.comparators.items())
            },
            "ratios": dict(sorted(self.ratios.items())),
        }


def _with_ratios(report: BoundReport) -> BoundReport:
    for name, comp in report.comparators.items():
        if math.isinf(report.beta_u):
            report.ratios[name] = math.inf if math.isinf(comp.beta) else 0.0
        elif report.beta_u == 0.0:
            # beta_u underflows to 0 only for couplings near the float limit
            report.ratios[name] = math.inf
        else:
            report.ratios[name] = comp.beta / report.beta_u
    return report


def heisenberg_report(rep: SpinRep, nu: int, coupling: float, delta: float) -> BoundReport:
    """Threshold of the quantum Heisenberg model on Z^nu at the optimized
    eps, against two comparators: Bratteli-Robinson (6.45) on the bond
    strength 2 nu ||J bond||, and "classical", the threshold
    beta_u_classical(6 |J| nu max(|delta|, 1)) of the same couplings
    between unit-length spins.  The classical comparator does not depend on
    the spin j, so its ratio to ours grows with 2j (1234 at 2j = 16 and
    delta = 1, for any J != 0 and nu)."""
    spec = heisenberg_ti(nu, coupling, delta, rep)
    ours = beta_u_optimized(spec)
    bond = spec.motifs[0].scalar_norm()
    strength = 2.0 * nu * bond
    report = BoundReport("heisenberg", ours.eps_star, ours.beta)
    if strength > 0:
        report.comparators["bratteli_robinson_645"] = br_645_beta(rep, strength)
        classical_norm = 6.0 * abs(coupling) * nu * classical_bond_norm(delta)
        report.comparators["classical"] = EpsBeta(
            LOG3, beta_u_classical(classical_norm)
        )
    return _with_ratios(report)


def ising_report(rep: SpinRep, nu: int, coupling: float) -> BoundReport:
    """Threshold of the staggered-field Ising model at the eps* of
    ``uniqueness_objective``: ``ising_beta_fixed`` there, with the bond norm
    taken as 1.  When J != 0 it is compared with Bratteli-Robinson (6.46) and
    with "ours_operator_norm", the same threshold on the true bond norm
    ||S3 S3|| = j^2 (4 beta_u at 2j = 1)."""
    opt = uniqueness_optimum()
    beta_u = ising_beta_fixed(nu, coupling, opt.eps_star)
    report = BoundReport("ising_staggered", opt.eps_star, beta_u)
    if coupling:
        report.comparators["bratteli_robinson_646"] = br_646_beta(rep, nu, coupling)
        report.comparators["ours_operator_norm"] = EpsBeta(
            opt.eps_star, opt.beta / (36.0 * nu * abs(coupling) * ising_bond_norm(rep))
        )
    return _with_ratios(report)


def classical_report(nu: int, coupling: float, delta: float) -> BoundReport:
    """The classical threshold beta_tilde = 1 / (3 ||phi_bar||_{log 3}) of the
    classical Heisenberg model on Z^nu, reported at the eps* of beta_hat,
    against Friedli-Velenik and "combined_quantum_classical": beta_hat =
    ``beta_u_optimized`` of the same classical motif norms, the common
    subcritical regime of the model and its quantizations.  beta_hat <=
    beta_tilde, and beta_hat 6 ||phi_bar||_{log 3} < log 2."""
    spec = classical_heisenberg_ti(nu, coupling, delta)
    beta_tilde = beta_u_classical(norm_eps_zeta(spec, NormParams(LOG3)))
    beta_hat = beta_u_optimized(spec)
    report = BoundReport("classical_heisenberg", beta_hat.eps_star, beta_tilde)
    report.comparators["friedli_velenik"] = EpsBeta(0.0, fv_beta(coupling, delta, nu).beta)
    report.comparators["combined_quantum_classical"] = beta_hat
    return _with_ratios(report)
