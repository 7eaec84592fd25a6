"""Workload inputs and output checks.

A workload is a function ``(rng, tiny) -> list[Group]``.  Each group is one
generated config together with the CLI commands run on it and a check that
reads their JSON outputs.  Checks test identities that hold for every seed,
so a failed check is a wrong number, never an unlucky draw.  ``tiny`` gives
a few cheap groups of the same kinds; the benchmark warms up on them and its
tests run them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

#: operation kind -> metric that sums its time over a pass
KIND_METRICS = {
    "norms": "norms_s",
    "beta-u": "beta_u_s",
    "compare": "compare_s",
    "report": "report_s",
    "decompose": "verify_decompose_s",
    "kms": "verify_kms_s",
    "dyson": "verify_dyson_s",
    "lemma1": "verify_lemma1_s",
    "ks": "verify_ks_s",
    "classical-invariance": "verify_classical_s",
}

THRESHOLD_COMMANDS = ("norms", "beta-u", "compare", "report")


@dataclass
class Group:
    """One config, the operations run on it, and the check of their outputs.

    ``ops`` holds (kind, argv without ``--config``).  ``check`` maps the
    parsed outputs by kind (absent when the operation failed) to
    (kind blamed, check name, passed) triples.
    """

    label: str
    config: dict
    ops: list
    check: Callable


def _close(a, b, rel: float = 1e-9) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=0.0)


def _target(eps: float) -> float:
    return eps / (6.0 * (1.0 + math.exp(eps)))


def _norms_checks(docs: dict, quantum: bool) -> list:
    """Identities of one ``norms`` output; every motif spans two sites, so
    ||.||_{eps+log3} = 3 ||.||_eps exactly."""
    doc = docs.get("norms")
    if doc is None:
        return []
    out = [
        ("norms", "log3_weight", _close(doc["norm_eps_log3"], 3.0 * doc["norm_eps"])),
        ("norms", "zeta_weight", doc["norm_eps_log3_zeta"] >= doc["norm_eps_log3"]),
        ("norms", "target", _close(doc["target"], _target(doc["eps"]))),
        ("norms", "grid", len(doc["grid"]) == 20 and all(
            _close(row["norm_eps_log3"], 3.0 * row["norm_eps"]) for row in doc["grid"]
        )),
    ]
    if quantum:
        out.append(("norms", "window_interior", _close(doc["window"]["interior_sup"], doc["norm_eps"])))
    return out


def _same_threshold(docs: dict) -> list:
    """``beta-u``, ``compare`` and ``report`` agree on the optimized threshold."""
    ref = docs.get("beta-u")
    out = []
    for kind in ("compare", "report"):
        doc = docs.get(kind)
        if ref is not None and doc is not None:
            out.append((kind, "same_beta_u", _close(doc["beta_u"], ref["beta_u"])))
            out.append((kind, "same_eps_star", _close(doc["eps_star"], ref["eps_star"])))
    return out


def _heisenberg_check(docs: dict) -> list:
    """beta_u ||Phi_bar||_{eps*+log3} = target(eps*); the norm at eps* comes
    from the ``norms`` output at its own eps, rescaled by e^{eps*-eps}."""
    out = _norms_checks(docs, quantum=True) + _same_threshold(docs)
    norms, beta = docs.get("norms"), docs.get("beta-u")
    if norms is not None and beta is not None:
        eps_star = beta["eps_star"]
        norm = norms["norm_eps_log3"] * math.exp(eps_star - norms["eps"])
        out.append(("beta-u", "threshold_identity", _close(beta["beta_u"] * norm, _target(eps_star))))
    return out


def _ising_check(docs: dict) -> list:
    out = _norms_checks(docs, quantum=True) + _same_threshold(docs)
    beta, compare = docs.get("beta-u"), docs.get("compare")
    if beta is not None and compare is not None:
        op_norm = compare["comparators"]["ours_operator_norm"]["beta"]
        out.append(("beta-u", "operator_norm_threshold", _close(beta["beta_u_operator_norm"], op_norm)))
    return out


def _classical_check(docs: dict) -> list:
    """beta_u = 1 / (3 ||phi_bar||_{log 3}), with the norm at log 3 rescaled
    from the ``norms`` output."""
    out = _norms_checks(docs, quantum=False) + _same_threshold(docs)
    norms, beta = docs.get("norms"), docs.get("beta-u")
    if norms is not None and beta is not None:
        norm_log3 = norms["norm_eps_log3"] * math.exp(-norms["eps"])
        out.append(("beta-u", "classical_threshold", _close(beta["beta_u"], 1.0 / (3.0 * norm_log3))))
    return out


def _fixed_eps_check(eps: float):
    def check(docs: dict) -> list:
        out = _norms_checks(docs, quantum=True)
        norms, beta = docs.get("norms"), docs.get("beta-u")
        if beta is not None:
            out.append(("beta-u", "fixed_eps", beta["eps_mode"] == "fixed" and beta["eps_star"] == eps))
        if norms is not None and beta is not None:
            identity = _close(beta["beta_u"] * norms["norm_eps_log3"], _target(eps))
            out.append(("beta-u", "threshold_identity", identity))
        compare, report = docs.get("compare"), docs.get("report")
        if compare is not None and report is not None:
            out.append(("report", "same_beta_u", _close(compare["beta_u"], report["beta_u"])))
        return out

    return check


def _paper_table_check(docs: dict) -> list:
    """The canonical spin-1/2 table: eps* = 0.607 with objective 0.117, and
    the ratios 0.412, 0.027 and 0.0223, to the acceptance tolerances."""
    doc = docs.get("compare")
    if doc is None:
        return []
    heis, ising, classical = doc["table"]
    values = (
        ("eps_star_0.607", heis["eps_star"], 0.607, 0.002),
        ("objective_0.117", 36.0 * ising["beta_u"], 0.117, 0.001),
        ("heisenberg_ratio_0.412", heis["ratios"]["bratteli_robinson_645"], 0.412, 0.005),
        ("ising_ratio_0.027", ising["ratios"]["bratteli_robinson_646"], 0.027, 0.003),
        ("classical_sup_0.0223", classical["fv_ratio_supremum"], 0.0223, 0.0001),
    )
    return [("compare", name, abs(got - want) <= tol) for name, got, want, tol in values]


def _verify_check(suite: str):
    def check(docs: dict) -> list:
        doc = docs.get(suite)
        if doc is None:
            return []
        checks = doc["suites"].get(suite, [])
        return [(suite, "suite_passed", doc["passed"] and bool(checks) and all(c["passed"] for c in checks))]

    return check


def _threshold_group(label: str, config: dict, check) -> Group:
    return Group(label, config, [(cmd, [cmd]) for cmd in THRESHOLD_COMMANDS], check)


def _window(nu: int) -> list:
    # a window with an interior site, of the lattice's dimension
    return [4] if nu == 1 else [3] * nu


def thresholds(rng, tiny: bool = False) -> list:
    """The fixed grid of models; the seed draws only J, delta, B and eps."""

    def uniform(lo, hi):
        return float(rng.uniform(lo, hi))

    spins = (1,) if tiny else (1, 2, 4, 8)
    dims = (1,) if tiny else (1, 2, 3)
    groups = []
    for two_j in spins:
        for nu in dims:
            config = {
                "model": "heisenberg", "nu": nu, "two_j": two_j, "window": _window(nu),
                "params": {"J": uniform(0.5, 2.0), "delta": uniform(0.2, 1.5)},
            }
            groups.append(_threshold_group(f"heisenberg-2j{two_j}-nu{nu}", config, _heisenberg_check))
    for two_j in (1,) if tiny else (1, 2):
        config = {
            "model": "ising_staggered", "nu": 1, "two_j": two_j, "window": [4],
            "params": {"J": uniform(0.5, 2.0), "B": uniform(0.1, 2.0)},
        }
        groups.append(_threshold_group(f"ising-2j{two_j}", config, _ising_check))
    for nu in dims:
        config = {
            "model": "classical_heisenberg", "nu": nu,
            "params": {"J": uniform(0.5, 2.0), "delta": uniform(0.2, 1.5)},
        }
        groups.append(_threshold_group(f"classical-nu{nu}", config, _classical_check))
    eps = uniform(0.3, 1.5)
    config = {
        "model": "heisenberg", "nu": 2, "two_j": 2, "window": [3, 3], "eps": eps,
        "params": {"J": uniform(0.5, 2.0), "delta": uniform(0.2, 1.5)},
    }
    groups.append(_threshold_group("fixed-eps", config, _fixed_eps_check(eps)))
    groups.append(Group(
        "paper-table", {"model": "heisenberg"}, [("compare", ["compare", "--paper-table"])],
        _paper_table_check,
    ))
    # the schema-valid default: its window [4] does not match nu = 2
    groups.append(_threshold_group("default", {"model": "heisenberg", "nu": 2}, _same_threshold))
    return groups


#: suite -> runs per pass; the short suites repeat (each with its own seed)
#: so that every suite's summed time in a pass is a few tenths of a second
QUANTUM_SUITES = {"decompose": 2, "kms": 4, "dyson": 1, "lemma1": 2, "ks": 1}


def _verify_groups(rng, suites: dict, model: str) -> list:
    groups = []
    for suite, repeats in suites.items():
        for i in range(repeats):
            config = {"model": model, "seed": int(rng.integers(0, 2 ** 31))}
            argv = ["verify", "--suite", suite]
            groups.append(Group(f"{suite}-{i}", config, [(suite, argv)], _verify_check(suite)))
    return groups


def verify_quantum(rng, tiny: bool = False) -> list:
    suites = {"decompose": 1, "kms": 1, "lemma1": 1} if tiny else QUANTUM_SUITES
    return _verify_groups(rng, suites, "heisenberg")


def verify_classical(rng, tiny: bool = False) -> list:
    return _verify_groups(rng, {"classical-invariance": 1}, "classical_heisenberg")


#: calibration kernel whose speed tracks each workload's (see calibration.py).
#: The vectorized classical passes tracked neither kernel when measured, so
#: they are reported unscaled.  Interpreter start-up in ``setup_s`` is
#: rescaled by ``small`` on every workload.
CALIBRATION_KERNEL = {
    "thresholds": "eig81",
    "verify-quantum": "small",
    "verify-classical": None,
}

WORKLOADS = {
    "thresholds": thresholds,
    "verify-quantum": verify_quantum,
    "verify-classical": verify_classical,
}
