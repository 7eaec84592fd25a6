"""Subcritical inverse-temperature bounds and their literature comparators.

The high-temperature uniqueness condition for quantum spin systems reads

    beta ||Phi_bar||_{eps + log 3, 2 beta}  <  (1/6) eps / (1 + e^eps),

so the optimal threshold beta_u solves the corresponding equality; the map
beta -> beta ||.||_{.., 2 beta} is continuous, strictly increasing and
divergent, which makes bracketing + bisection unconditionally safe.  When the
multilocal part commutes with the single-site part the zeta-weight drops and
beta_u is available in closed form.  Classical spin systems have the simpler
threshold 1 / (3 ||phi_bar||_{log 3}).

The weighted norm is evaluated once per eps, not once per bisection step,
whenever the interaction has no single-site part: every weight then drops
its zeta term, so the norm at zeta = 2 beta is the norm at zeta = 0 for
every beta, the same float.  ``beta_u_general`` bisects on beta times that
float, bit for bit the values of a fresh evaluation at each step; this is
the case of every classical Heisenberg spec.

With one float for the norm, the bisection need not start at [0, hi]: the
predicate fl(beta * norm) <= target is monotone in beta, so the search from
[0, hi] passes, at each width hi / 2^k, through the one aligned node
[a, a + w] on which the predicate flips.  ``beta_u_general`` computes that
node from target / norm at a width w a few halvings above the tolerance,
checks its two ends and bisects on from there: the same loop from the same
bracket ends at the same float.  An infinite norm gives the root 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lattice import InteractionFamily, SpinRep, TIInteractionSpec, operator_norm
from .norms import NormParams, norm_eps_zeta, norm_function, zeta_free

LOG3 = math.log(3.0)

#: golden-section search shrink factor
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class CommutationError(ValueError):
    """The commuting-case shortcut was requested but [Phi_bar, Psi] != 0."""


def target_fn(eps: float) -> float:
    """Right-hand side of the uniqueness condition: (1/6) eps / (1 + e^eps)."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return eps / (6.0 * (1.0 + math.exp(eps)))


@dataclass(frozen=True)
class OptResult:
    eps_star: float
    value: float
    unimodal: bool


def optimize_eps(objective, lo: float = 1e-2, hi: float = 10.0,
                 step: float = 1e-2, tol: float = 1e-6) -> OptResult:
    """Maximize a continuous unimodal objective on (0, hi].

    Coarse grid scan (guards against non-unimodal surprises) followed by
    golden-section refinement around the grid maximizer.  A non-unimodal scan
    returns the global grid maximum with ``unimodal=False``.
    """
    grid = np.arange(lo, hi + step / 2, step)
    vals = np.array([objective(x) for x in grid])
    imax = int(np.argmax(vals))
    diffs = np.diff(vals)
    scale = max(abs(float(vals.max())), 1e-300)
    rises_after_peak = np.any(diffs[imax:] > 1e-12 * scale)
    falls_before_peak = np.any(diffs[:imax] < -1e-12 * scale)
    if rises_after_peak or falls_before_peak:
        return OptResult(float(grid[imax]), float(vals[imax]), unimodal=False)
    a = float(grid[max(imax - 1, 0)])
    b = float(grid[min(imax + 1, len(grid) - 1)])
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = objective(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = objective(x1)
    xs = 0.5 * (a + b)
    return OptResult(xs, float(objective(xs)), unimodal=True)


def beta_u_general(interaction, eps: float, tol: float = 1e-10) -> float:
    """Solve beta ||Phi_bar||_{eps+log3, 2 beta} = (1/6) eps/(1+e^eps) for beta.

    Returns +infinity when there is no multilocal interaction or the root
    lies beyond the float range.  Bracketing by doubling, then bisection to
    absolute tolerance ``tol`` or to adjacent floats, whichever comes first.

    The norm at zeta = 0 is evaluated once: it decides the zero-norm case,
    and without a single-site part (``zeta_free``) it is the norm at every
    zeta, because the weights then drop their zeta term.  The bisection then
    runs on beta times that one float, which is bit for bit the value a
    fresh evaluation at each step would give.  An infinite norm at zeta = 0
    is infinite at every zeta, and the root is 0.

    On that one float the bisection starts at the node of width w (a power
    of two in (8 tol, 16 tol]) that holds target / norm, when its ends
    straddle the root: fl(beta * norm) <= target is monotone in beta, so
    that node is the one the search from [0, hi] visits at width w, and the
    search goes on from it to the same float.  The search runs from [0, hi]
    when the check fails (target / norm rounded across a node boundary),
    when floats near hi are coarser than tol / 4 (a midpoint on the way
    down could round onto an end and stop the search early) and when the
    interaction has a single-site part.
    """
    tgt = target_fn(eps)
    # eps > 0 passed target_fn and the bracket keeps beta >= 0
    norm_at = norm_function(interaction)
    base = norm_at(eps + LOG3, 0.0)
    if base == 0.0:
        return math.inf
    if base == math.inf:
        # the norm only grows with zeta, so the root of beta * inf = tgt is 0
        return 0.0
    fixed = zeta_free(interaction)
    if fixed:
        def g(beta: float) -> float:
            return beta * base - tgt
    else:
        def g(beta: float) -> float:
            return beta * norm_at(eps + LOG3, 2.0 * beta) - tgt

    hi = 1.0
    # once 2 beta overflows to inf, g can be nan (inf * 0 in the zeta weight)
    while hi < math.inf and not g(hi) > 0.0:
        hi *= 2.0
    lo = 0.0
    w = math.ldexp(1.0, math.frexp(tol)[1] + 3)
    if fixed and 4.0 * math.ulp(hi) <= tol < w < hi:
        a = (tgt / base) // w * w
        if g(a) <= 0.0 < g(a + w):
            lo, hi = a, a + w
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _verify_commutation(fam: InteractionFamily, tol: float = 1e-10) -> None:
    psis = fam.singletons()
    if not psis:
        return
    for region, phi in fam.multilocal().items():
        for xreg, psi in psis.items():
            comm = phi @ psi - psi @ phi
            if operator_norm(comm) > tol:
                raise CommutationError(
                    f"[Phi_bar on {region}, Psi on {xreg}] has norm > {tol}"
                )


def beta_u_commuting(interaction, eps: float) -> float:
    """Commuting-case threshold beta_u = target(eps) / ||Phi_bar||_{eps+log3}.

    When the interaction carries operators the commutation [Phi_bar, Psi] = 0
    is verified numerically; a TI spec with a nonzero single-site norm cannot
    be checked and is left to the caller.
    """
    if isinstance(interaction, InteractionFamily):
        _verify_commutation(interaction)
    norm = norm_eps_zeta(interaction, NormParams(eps + LOG3))
    if norm == 0.0:
        return math.inf
    return target_fn(eps) / norm


@dataclass(frozen=True)
class EpsBeta:
    eps_star: float
    beta: float


def _optimized_prefactor(prefactor: float, objective) -> EpsBeta:
    opt = optimize_eps(objective)
    return EpsBeta(opt.eps_star, prefactor * opt.value)


def uniqueness_objective(eps: float) -> float:
    """eps e^{-eps} / (1 + e^eps); peaks near eps ~ 0.607 with value ~ 0.117."""
    return eps * math.exp(-eps) / (1.0 + math.exp(eps))


@functools.cache
def uniqueness_optimum() -> OptResult:
    """``optimize_eps(uniqueness_objective)``, scanned once per process: the
    objective is fixed."""
    return optimize_eps(uniqueness_objective)


#: an interaction whose norm lies below 1 / _TINY_SCALE is scanned scaled up
#: by this exact power of two
_TINY_SCALE = 2.0 ** 512


def _scaled(interaction, factor: float):
    """``interaction`` with every term multiplied by ``factor``."""
    if isinstance(interaction, InteractionFamily):
        terms = {r: factor * op for r, op in interaction.terms.items()}
        return InteractionFamily(terms, interaction.site_dim)
    motifs = [replace(m, coefficient=factor * m.coefficient) for m in interaction.motifs]
    return replace(interaction, motifs=motifs, psi_site_norm=factor * interaction.psi_site_norm)


def _optimized_scan(interaction, threshold) -> EpsBeta:
    """Maximize ``threshold(interaction, eps)`` over eps, for a threshold
    inversely proportional to the interaction (its single-site norm scaled
    along); +infinity when there is no multilocal interaction."""
    norm = norm_eps_zeta(interaction, NormParams(LOG3 + 0.5))
    if norm == 0.0:
        return EpsBeta(0.5, math.inf)
    # A norm near the subnormal range rounds differently at each eps and the
    # threshold overflows: scan the interaction scaled up by an exact power
    # of two (same eps*) and scale the threshold back.
    factor = 1.0
    if norm < 1.0 / _TINY_SCALE:
        factor, interaction = _TINY_SCALE, _scaled(interaction, _TINY_SCALE)
    opt = optimize_eps(functools.partial(threshold, interaction))
    return EpsBeta(opt.eps_star, opt.value * factor)


def beta_u_optimized(interaction) -> EpsBeta:
    """Maximize the commuting-case beta_u over eps for an interaction whose
    eps-dependence is the generic 3 e^eps prefactor (any interaction works:
    the objective is evaluated through the norm)."""

    def objective(scanned, eps):
        # optimize_eps only evaluates eps > 0
        norm = norm_function(scanned)(eps + LOG3, 0.0)
        return target_fn(eps) / norm if norm > 0 else 0.0

    return _optimized_scan(interaction, objective)


def beta_u_general_optimized(interaction) -> EpsBeta:
    """Maximize beta_u over eps with the zeta-coupled norm (eps is fixed first,
    then the equality is solved for beta; the outer scan picks the best eps)."""
    return _optimized_scan(interaction, functools.partial(beta_u_general, tol=1e-12))


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


def ising_beta_symbolic(nu: int, coupling: float) -> EpsBeta:
    """``ising_beta_fixed`` at the eps that maximizes it."""
    eps_star = uniqueness_optimum().eps_star
    return EpsBeta(eps_star, ising_beta_fixed(nu, coupling, eps_star))


def ising_beta_operator_norm(nu: int, coupling: float, rep: SpinRep) -> EpsBeta:
    """Same threshold evaluated with the true bond norm ||S3 S3|| = j^2."""
    opt = uniqueness_optimum()
    if coupling == 0.0:
        return EpsBeta(opt.eps_star, math.inf)
    return EpsBeta(
        opt.eps_star, opt.value / (36.0 * nu * abs(coupling) * rep.j ** 2)
    )


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


def fv_beta(coupling: float, delta: float, nu: int, eps: float = 0.0) -> FVBound:
    """beta = [J max(|delta|,1)]^{-1} log(1 + 1/(2 nu e^{6+2 eps})); the ratio
    to the classical threshold is 18 nu log(1 + 1/(2 nu e^{6+2 eps})), which
    increases in nu towards 9 e^{-(6+2 eps)}."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    strength = abs(coupling) * max(abs(delta), 1.0)
    log_term = math.log1p(1.0 / (2.0 * nu * math.exp(6.0 + 2.0 * eps)))
    if strength == 0.0:
        return FVBound(math.inf, 18.0 * nu * log_term)
    return FVBound(log_term / strength, 18.0 * nu * log_term)


@dataclass(frozen=True)
class CombinedBounds:
    """Common subcritical regime for a classical model and its quantizations."""

    beta_hat: float       # root of the zeta-coupled condition on classical norms
    beta_tilde: float     # classical threshold 1 / (3 ||phi_bar||_log3)
    eps_star: float
    norm_log3: float
    chain_ok: bool        # beta_hat * 6 ||phi_bar||_log3 < log 2


def combined_report(spec: TIInteractionSpec) -> CombinedBounds:
    """Evaluate both thresholds on classical motif norms and confirm the
    ordering beta_hat <= beta_tilde."""
    norm_log3 = norm_eps_zeta(spec, NormParams(LOG3))
    beta_tilde = beta_u_classical(norm_log3)
    best = beta_u_general_optimized(spec)
    chain_ok = (
        True
        if math.isinf(best.beta)
        else best.beta * 6.0 * norm_log3 < math.log(2.0)
    )
    return CombinedBounds(
        beta_hat=best.beta,
        beta_tilde=beta_tilde,
        eps_star=best.eps_star,
        norm_log3=norm_log3,
        chain_ok=chain_ok,
    )


def json_number(x):
    """A float as JSON output carries it: +infinity becomes the string "+inf";
    anything else passes through unchanged."""
    return "+inf" if isinstance(x, float) and math.isinf(x) else x


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
            "beta_u": json_number(self.beta_u),
            "comparators": {
                k: {"eps_star": v.eps_star, "beta": json_number(v.beta)}
                for k, v in sorted(self.comparators.items())
            },
            "ratios": {k: json_number(v) for k, v in sorted(self.ratios.items())},
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
    from .lattice import heisenberg_ti

    spec = heisenberg_ti(nu, coupling, delta, rep)
    ours = beta_u_optimized(spec)
    bond = spec.motifs[0].scalar_norm()
    strength = 2.0 * nu * bond
    report = BoundReport("heisenberg", ours.eps_star, ours.beta)
    if strength > 0:
        report.comparators["bratteli_robinson_645"] = br_645_beta(rep, strength)
        classical_norm = 6.0 * abs(coupling) * nu * max(abs(delta), 1.0)
        report.comparators["classical"] = EpsBeta(
            LOG3, beta_u_classical(classical_norm)
        )
    return _with_ratios(report)


def ising_report(rep: SpinRep, nu: int, coupling: float) -> BoundReport:
    ours = ising_beta_symbolic(nu, coupling)
    report = BoundReport("ising_staggered", ours.eps_star, ours.beta)
    if coupling:
        report.comparators["bratteli_robinson_646"] = br_646_beta(rep, nu, coupling)
        report.comparators["ours_operator_norm"] = ising_beta_operator_norm(
            nu, coupling, rep
        )
    return _with_ratios(report)


def classical_report(nu: int, coupling: float, delta: float) -> BoundReport:
    from .lattice import classical_heisenberg_ti

    spec = classical_heisenberg_ti(nu, coupling, delta)
    combined = combined_report(spec)
    report = BoundReport(
        "classical_heisenberg", combined.eps_star, combined.beta_tilde
    )
    report.comparators["friedli_velenik"] = EpsBeta(
        0.0, fv_beta(coupling, delta, nu).beta
    )
    report.comparators["combined_quantum_classical"] = EpsBeta(
        combined.eps_star, combined.beta_hat
    )
    return _with_ratios(report)
