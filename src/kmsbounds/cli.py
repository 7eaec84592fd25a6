"""Batch front-end: read a model config, compute norms and thresholds, run
verification suites, and emit deterministic JSON or CSV reports.

Exit codes: 0 success, 1 verification failure, 2 unreadable or rejected
config, 3 dimension cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

from .bounds import (
    LOG3,
    beta_u_classical,
    beta_u_commuting,
    classical_report,
    fv_beta,
    heisenberg_report,
    ising_beta_fixed,
    ising_report,
    target_fn,
    uniqueness_optimum,
)
from .norms import NormParams, norm_eps_zeta, window_norms
from .ti import (
    DimensionCapError,
    FloatRangeError,
    SpinRep,
    box_window,
    classical_heisenberg_ti,
    heisenberg_ti,
    ising_staggered_ti,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_SCHEMA = 2
EXIT_DIMCAP = 3

#: config keys under "params" whose field name differs from the key
_RENAMED = {"J": "coupling", "B": "field_strength"}


@dataclass
class ModelConfig:
    model: str
    nu: int = 1
    two_j: int = 1
    coupling: float = 1.0
    delta: float = 1.0
    field_strength: float = 0.0
    beta: float = 1.0
    eps: object = "auto"
    window: list = None  # one extent per lattice direction, [4] * nu when omitted
    dyson_order: int = 3
    ks_order: int = 2
    quad_points: int = 8
    seed: int = 0
    verify_suites: list = field(default_factory=list)

    def __post_init__(self):
        if self.window is None:
            self.window = [4] * self.nu
        elif len(self.window) != self.nu:
            raise ValueError(f"window has {len(self.window)} extents but nu is {self.nu}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        """The config of a parsed JSON document; ValueError names the first
        key that breaks the rules in ``_CONFIG_KEYS``."""
        _check_keys(raw, _CONFIG_KEYS, None)
        if "model" not in raw:
            raise ValueError("model is required")
        flat = {**raw, **raw.get("params", {}), **raw.get("truncation", {})}
        names = {f.name for f in dataclasses.fields(cls)}
        values = {_RENAMED.get(key, key): value for key, value in flat.items()}
        # a JSON integer under "params" is the float it converts to, so that
        # products of huge integers overflow to inf as floats do
        for key in raw.get("params", {}):
            name = _RENAMED.get(key, key)
            values[name] = float(values[name])
        return cls(**{key: value for key, value in values.items() if key in names})

    def rep(self) -> SpinRep:
        return SpinRep(self.two_j)

    def eps_value(self) -> float:
        if self.eps == "auto":
            return uniqueness_optimum().eps_star
        return float(self.eps)


@dataclass(frozen=True)
class Model:
    """Everything the CLI knows about one model."""

    spec: Callable  # config -> TIInteractionSpec
    report: Callable  # config -> BoundReport at the optimized eps
    fixed_eps: Callable  # (config, spec, eps) -> beta-u output keys at that eps
    auto_extras: Callable = lambda report: {}  # extra beta-u keys for eps "auto"
    compare_extras: Callable = lambda config: {}  # extra compare keys
    reports_window: bool = True  # whether ``norms`` reports the config's window


def _ising_auto_extras(report) -> dict:
    # ising_report leaves out its comparators when J = 0: every threshold is +inf
    comp = report.comparators.get("ours_operator_norm")
    return {"beta_u_operator_norm": comp.beta if comp else math.inf}


MODELS = {
    "heisenberg": Model(
        spec=lambda c: heisenberg_ti(c.nu, c.coupling, c.delta, c.rep()),
        report=lambda c: heisenberg_report(c.rep(), c.nu, c.coupling, c.delta),
        fixed_eps=lambda c, spec, eps: {"beta_u": beta_u_commuting(spec, eps)},
    ),
    # the staggered field commutes with the bonds and is subtracted, so the
    # primary threshold is field-independent
    "ising_staggered": Model(
        spec=lambda c: ising_staggered_ti(c.nu, c.coupling, c.field_strength, c.rep()),
        report=lambda c: ising_report(c.rep(), c.nu, c.coupling),
        fixed_eps=lambda c, spec, eps: {
            "beta_u": ising_beta_fixed(c.nu, c.coupling, eps),
            "beta_u_operator_norm": beta_u_commuting(spec, eps),
        },
        auto_extras=_ising_auto_extras,
    ),
    # the classical threshold 1 / (3 ||phi_bar||_{log 3}) does not depend on eps
    "classical_heisenberg": Model(
        spec=lambda c: classical_heisenberg_ti(c.nu, c.coupling, c.delta),
        report=lambda c: classical_report(c.nu, c.coupling, c.delta),
        fixed_eps=lambda c, spec, eps: {
            "beta_u": beta_u_classical(norm_eps_zeta(spec, NormParams(LOG3)))
        },
        compare_extras=lambda c: {"fv_ratio": fv_beta(c.coupling, c.delta, c.nu).ratio},
        reports_window=False,  # only the quantum models report a window
    ),
}


def _number(value) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _integer(low: int, high: float = math.inf) -> tuple:
    """Rule for a JSON integer (not a bool, not 1.0) in [low, high]."""
    wants = f"an integer from {low} to {high}" if high < math.inf else f"an integer >= {low}"
    return lambda value: type(value) is int and low <= value <= high, wants


#: the names of ``verify.SUITES`` plus "all", spelled out so that parsing a
#: config or the command line does not load the verification stack
_SUITE_NAMES = ("decompose", "kms", "dyson", "lemma1", "ks", "classical-invariance", "all")

#: every config key with its rule: (test of the value, what the value must
#: be), or the rules of a nested object's keys
_CONFIG_KEYS = {
    "model": (lambda v: isinstance(v, str) and v in MODELS, "one of " + ", ".join(MODELS)),
    "nu": _integer(1, 3),
    "two_j": _integer(1, 16),
    "params": {key: (_number, "a finite number") for key in ("J", "delta", "B")},
    "beta": (lambda v: _number(v) and v > 0, "a finite number > 0"),
    "eps": (lambda v: v == "auto" or (_number(v) and 0 < v <= 10),
            '"auto" or a finite number in (0, 10]'),
    "window": (
        lambda v: isinstance(v, list) and 1 <= len(v) <= 3
        and all(type(x) is int and 1 <= x <= 8 for x in v),
        "a list of 1 to 3 integers from 1 to 8",
    ),
    "truncation": {
        "dyson_order": _integer(1, 4),
        "ks_order": _integer(2, 3),
        "quad_points": _integer(2, 32),
    },
    "seed": _integer(0),
    "verify_suites": (
        lambda v: isinstance(v, list) and all(isinstance(s, str) and s in _SUITE_NAMES for s in v),
        "a list of suite names from " + ", ".join(_SUITE_NAMES),
    ),
}


def _check_keys(doc, rules: dict, where) -> None:
    """Raise ValueError naming the first key of ``doc`` that breaks ``rules``
    (``where`` names the nested object, None at the top level)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where or 'the config'} must be a JSON object")
    for key, value in doc.items():
        name = f"{where}.{key}" if where else key
        rule = rules.get(key)
        if rule is None:
            raise ValueError(f"unknown key {name!r}")
        if isinstance(rule, dict):
            _check_keys(value, rule, name)
        elif not rule[0](value):
            raise ValueError(f"{name} must be {rule[1]}")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _finite_float(text: str) -> float:
    """A JSON number or constant as a float; NaN, infinities and numbers
    beyond the float range raise ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _load_config(path: str) -> ModelConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except (OSError, ValueError) as exc:
        # ValueError covers malformed JSON and non-finite numbers
        raise CliError(f"cannot read config: {exc}", EXIT_SCHEMA)
    try:
        return ModelConfig.from_dict(raw)
    except ValueError as exc:
        raise CliError(f"config rejected: {exc}", EXIT_SCHEMA)


def _override_seed(config: ModelConfig, seed: int) -> None:
    """Set ``config.seed`` from ``--seed``, under the config file's rule."""
    try:
        _check_keys({"seed": seed}, _CONFIG_KEYS, None)
    except ValueError as exc:
        raise CliError(f"config rejected: {exc}", EXIT_SCHEMA)
    config.seed = seed


def cmd_norms(config: ModelConfig) -> dict:
    model = MODELS[config.model]
    spec = model.spec(config)
    eps = config.eps_value()
    zeta = 2.0 * config.beta
    out = {
        "model_id": config.model,
        "eps": eps,
        "zeta": zeta,
        "norm_eps": norm_eps_zeta(spec, NormParams(eps)),
        "norm_eps_log3": norm_eps_zeta(spec, NormParams(eps + LOG3)),
        "norm_eps_log3_zeta": norm_eps_zeta(spec, NormParams(eps + LOG3, zeta)),
        "target": target_fn(eps),
        "psi_site_norm": spec.psi_site_norm,
    }
    if model.reports_window:
        report = window_norms(spec, box_window(config.window), NormParams(eps))
        out["window"] = {
            "extents": config.window,
            "interior_sup": report.interior,
            "boundary_sup": report.boundary,
        }
    out["grid"] = [
        {
            "eps": round(e, 10),
            "norm_eps": norm_eps_zeta(spec, NormParams(e)),
            "norm_eps_log3": norm_eps_zeta(spec, NormParams(e + LOG3)),
        }
        for e in [0.1 * k for k in range(1, 21)]
    ]
    return out


def _json_numbers(doc):
    """``doc`` as every command prints it, changed in place: each infinite
    float, at any depth, becomes the string "+inf"; anything else stays."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            doc[key] = _json_numbers(value)
        return doc
    return "+inf" if isinstance(doc, float) and math.isinf(doc) else doc


def cmd_beta_u(config: ModelConfig) -> dict:
    """Threshold for the configured model; 'auto' optimizes over eps and
    matches the compare/report value."""
    model = MODELS[config.model]
    if config.eps == "auto":
        report = model.report(config)
        out = {"eps_star": report.eps_star, "beta_u": report.beta_u, "eps_mode": "auto"}
        out.update(model.auto_extras(report))
    else:
        eps = config.eps_value()
        out = {"eps_star": eps, "eps_mode": "fixed"}
        out.update(model.fixed_eps(config, model.spec(config), eps))
    out["model_id"] = config.model
    return out


def cmd_compare(config: ModelConfig, paper_table: bool = False) -> dict:
    if paper_table:
        rep = SpinRep(1)
        rows = [
            heisenberg_report(rep, 1, 1.0, 1.0).to_dict(),
            ising_report(rep, 1, 1.0).to_dict(),
            classical_report(1, 1.0, 1.0).to_dict(),
        ]
        # the classical ratio approaches its supremum as the lattice dimension
        # grows; report the limiting value alongside the nu = 1 row
        rows[2]["fv_ratio_supremum"] = 9.0 * math.exp(-6.0)
        return {"table": rows}
    model = MODELS[config.model]
    return {**model.report(config).to_dict(), **model.compare_extras(config)}


def _run_suites(config: ModelConfig, names) -> list:
    """(name, checks) for each named suite, every suite for "all", run with
    the config's seed and truncation settings.  The only place that loads
    the verification stack, and only when a suite is named."""
    if not names:
        return []
    from .verify import SUITES

    if "all" in names:
        names = list(SUITES)
    options = {
        "dyson": {"order": config.dyson_order},
        "ks": {"order": config.ks_order, "quad_points": config.quad_points},
    }
    return [(name, SUITES[name](seed=config.seed, **options.get(name, {}))) for name in names]


def cmd_verify(config: ModelConfig, suite: str) -> dict:
    results = {
        name: [c.to_dict() for c in checks] for name, checks in _run_suites(config, [suite])
    }
    return {
        "seed": config.seed,
        "suites": results,
        "passed": all(c["passed"] for checks in results.values() for c in checks),
    }


def cmd_report(config: ModelConfig) -> dict:
    out = MODELS[config.model].report(config).to_dict()
    out["checks"] = [
        {**check.to_dict(), "suite": name}
        for name, checks in _run_suites(config, config.verify_suites)
        for check in checks
    ]
    return out


def _emit_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit_csv(doc: dict) -> str:
    """``doc`` as CSV: the eps grid of ``norms``; the comparator rows of
    ``compare`` and ``report``; the check table of ``verify``, and of
    ``report`` after its comparator rows when it ran checks; or, for
    ``beta-u``, one header and one row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    checks = doc.get("checks", [])  # those report ran
    if "grid" in doc:
        writer.writerow(["eps", "norm_eps", "norm_eps_log3"])
        for row in doc["grid"]:
            writer.writerow([row["eps"], row["norm_eps"], row["norm_eps_log3"]])
    elif "table" in doc or "comparators" in doc:
        writer.writerow(["model_id", "comparator", "eps_star", "beta", "ratio"])
        for row in doc.get("table", [doc]):
            writer.writerow([row["model_id"], "ours", row["eps_star"], row["beta_u"], 1.0])
            for name, comp in sorted(row["comparators"].items()):
                writer.writerow(
                    [row["model_id"], name, comp["eps_star"], comp["beta"],
                     row["ratios"].get(name, "")]
                )
    elif "suites" in doc:
        checks = [{**c, "suite": suite} for suite, cs in sorted(doc["suites"].items()) for c in cs]
    else:
        writer.writerow(sorted(doc))
        writer.writerow([doc[k] for k in sorted(doc)])
    if checks or "suites" in doc:
        writer.writerow(["suite", "name", "passed", "value", "threshold"])
        for c in checks:
            writer.writerow([c["suite"], c["name"], c["passed"], c["value"], c["threshold"]])
    return buf.getvalue()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: ``parse_args`` returns a fresh namespace and leaves the parser
    as it was, so one call of ``main`` cannot change the next."""
    parser = argparse.ArgumentParser(
        prog="kmsbounds",
        description="subcritical-temperature bounds and verification suites "
        "for spin lattice systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("norms", "weighted interaction norms for the configured model"),
        ("beta-u", "subcritical inverse-temperature threshold"),
        ("compare", "threshold comparison against literature bounds"),
        ("verify", "run finite-volume verification suites"),
        ("report", "full threshold report with optional checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON model config")
        output = p.add_mutually_exclusive_group()
        output.add_argument("--json", action="store_true", help="emit JSON (default)")
        output.add_argument("--csv", action="store_true", help="emit CSV")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name == "compare":
            p.add_argument(
                "--paper-table",
                action="store_true",
                help="emit the canonical spin-1/2 comparison table",
            )
        if name == "verify":
            p.add_argument(
                "--suite",
                default="all",
                choices=_SUITE_NAMES,
                help="which verification suite to run",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            _override_seed(config, args.seed)
        if args.command == "norms":
            doc = cmd_norms(config)
        elif args.command == "beta-u":
            doc = cmd_beta_u(config)
        elif args.command == "compare":
            doc = cmd_compare(config, paper_table=args.paper_table)
        elif args.command == "verify":
            doc = cmd_verify(config, args.suite)
        else:
            doc = cmd_report(config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FloatRangeError as exc:
        # the config's numbers are finite, but a term built from them is not
        print(f"error: config rejected: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except DimensionCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMCAP
    doc = _json_numbers(doc)
    sys.stdout.write(_emit_csv(doc) if args.csv else _emit_json(doc))
    checks = doc.get("checks", [])  # those of report
    if (args.command == "verify" and not doc["passed"]) or not all(c["passed"] for c in checks):
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
