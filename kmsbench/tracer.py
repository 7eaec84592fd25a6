"""Span tracer for the benchmark's traced run.

``Tracer.install()`` replaces the public functions of every kmsbounds module
(plus a few named methods and the numpy kernels the package calls) with
wrappers that record one span per call: name, start, end, parent span and
operation id.  Spans live in flat in-memory arrays and are written out once,
when the run ends.  ``uninstall()`` restores every original object, so the
untraced passes of the same process run the unmodified package.

``summarize()`` turns the spans and the counters gathered by the wrappers
into the per-layer metrics named in ``LAYER_METRICS``.  A span's self time is
its duration minus the durations of its direct children; calls are
sequential, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

#: kmsbounds modules whose public functions are wrapped; each is one layer
LAYERS = ("cli", "lattice", "norms", "bounds", "centering", "quantum", "classical", "verify")

#: public methods wrapped in addition to module-level functions
METHODS = (
    ("lattice", "Motif", "scalar_norm"),
    ("quantum", "SimplexQuadrature", "rule"),
)

#: private functions that mark a stage boundary worth its own span
PRIVATE = (("cli", "_load_config"),)

#: numpy entry points the package calls, traced as the ``kernel`` layer
KERNELS = (
    (np.linalg, "eigvalsh"),
    (np.linalg, "eigh"),
    (np.linalg, "norm"),
    (np.linalg, "qr"),
    (np.linalg, "det"),
    (np, "kron"),
    (np, "tensordot"),
)

#: the decompositions; ``decompose_refined`` delegates to ``decompose_known_free``
DECOMPOSE = (
    "centering.decompose_recursive",
    "centering.decompose_moebius",
    "centering.decompose_known_free",
)

#: per-layer metric -> unit; every traced run reports all of them.  The
#: comment above each group names the end-to-end metric (and workload) that a
#: change in the group should move.
LAYER_METRICS = {
    # norms_s on thresholds; setup_s
    "cli.config_load_s": "s",
    "cli.self_s": "s",
    # beta_u_s, compare_s, report_s on thresholds; norm_eps_zeta.calls also
    # verify_dyson_s on verify-quantum
    "lattice.scalar_norm.calls": "count",
    "lattice.scalar_norm.distinct_ratio": "ratio",
    "norms.norm_eps_zeta.calls": "count",
    "norms.norm_eps_zeta.distinct_ratio": "ratio",
    "norms.self_s": "s",
    "bounds.optimize_eps.calls": "count",
    "bounds.objective_evals": "count",
    "bounds.beta_u_general.calls": "count",
    "bounds.self_s": "s",
    "kernel.eigvalsh.calls": "count",
    # verify_dyson_s, verify_ks_s, verify_kms_s on verify-quantum
    "lattice.embed.calls": "count",
    "lattice.embed.self_s": "s",
    "lattice.local_operator.count": "count",
    "lattice.operator_norm.calls": "count",
    "lattice.self_s": "s",
    "kernel.kron.calls": "count",
    "kernel.kron.bytes": "bytes",
    # verify_dyson_s, verify_ks_s on verify-quantum; identity_ratio is the
    # share of calls on regions without a single-site term (wasted work)
    "quantum.single_site_evolution.calls": "count",
    "quantum.single_site_evolution.identity_ratio": "ratio",
    "quantum.quad_rule.calls": "count",
    "quantum.quad_rule.distinct_ratio": "ratio",
    "quantum.quad_nodes": "count",
    "quantum.chains": "count",
    "quantum.dyson_truncated.self_s": "s",
    # verify_ks_s on verify-quantum
    "quantum.ks_kernel.calls": "count",
    "quantum.ks_kernel.self_s": "s",
    # verify_kms_s, verify_ks_s on verify-quantum; eig_flops is sum n^3
    "quantum.hamiltonian.calls": "count",
    "kernel.eigh.calls": "count",
    "kernel.eig_flops": "count",
    "quantum.self_s": "s",
    # verify_decompose_s, verify_ks_s on verify-quantum
    "centering.partial_expectation.calls": "count",
    "centering.decompose.calls": "count",
    "centering.decompose.components": "count",
    "centering.self_s": "s",
    # verify_classical_s on verify-classical
    "classical.supnorm.calls": "count",
    "classical.supnorm.self_s": "s",
    "classical.gibbs_expectation.calls": "count",
    "classical.gibbs_expectation.self_s": "s",
    "classical.self_s": "s",
    # wall_s on every workload
    "verify.self_s": "s",
    "kernel.self_s": "s",
}

_CALLS = {
    "lattice.scalar_norm.calls": "lattice.Motif.scalar_norm",
    "lattice.embed.calls": "lattice.embed",
    "lattice.operator_norm.calls": "lattice.operator_norm",
    "norms.norm_eps_zeta.calls": "norms.norm_eps_zeta",
    "bounds.optimize_eps.calls": "bounds.optimize_eps",
    "bounds.beta_u_general.calls": "bounds.beta_u_general",
    "centering.partial_expectation.calls": "centering.partial_expectation",
    "quantum.single_site_evolution.calls": "quantum.single_site_evolution",
    "quantum.quad_rule.calls": "quantum.SimplexQuadrature.rule",
    "quantum.ks_kernel.calls": "quantum.ks_kernel",
    "quantum.hamiltonian.calls": "quantum.hamiltonian",
    "classical.supnorm.calls": "classical.classical_supnorm",
    "classical.gibbs_expectation.calls": "classical.classical_gibbs_expectation",
    "kernel.eigvalsh.calls": "kernel.eigvalsh",
    "kernel.eigh.calls": "kernel.eigh",
    "kernel.kron.calls": "kernel.kron",
}

_SELF = {
    "lattice.embed.self_s": "lattice.embed",
    "quantum.dyson_truncated.self_s": "quantum.dyson_truncated",
    "quantum.ks_kernel.self_s": "quantum.ks_kernel",
    "classical.supnorm.self_s": "classical.classical_supnorm",
    "classical.gibbs_expectation.self_s": "classical.classical_gibbs_expectation",
}

_DISTINCT = {
    "lattice.scalar_norm.distinct_ratio": "lattice.Motif.scalar_norm",
    "norms.norm_eps_zeta.distinct_ratio": "norms.norm_eps_zeta",
    "quantum.quad_rule.distinct_ratio": "quantum.SimplexQuadrature.rule",
}


class Tracer:
    """Records spans around wrapped callables; one instance per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._fingerprints: dict[int, tuple] = {}
        self._patches: list[tuple] = []

    # -- span recording -------------------------------------------------
    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op_id.append(self.op)
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped in a span; ``hook(args, kwargs, result)``
        may update counters after each call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- installation ---------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"kmsbounds.{name}") for name in LAYERS}
        hooks = self._hooks()
        replaced = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or (short, attr) in PRIVATE
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                    name = f"{short}.{attr}"
                    inner = self._count_objective(obj) if name == "bounds.optimize_eps" else obj
                    replaced[obj] = self.wrap(name, inner, hooks.get(name))
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            name = f"{short}.{cls_name}.{meth}"
            self._set(cls, meth, self.wrap(name, cls.__dict__[meth], hooks.get(name)))
        # every module namespace (and dict of runners) that holds an original
        # callable gets the wrapped one, so imports by name are covered too
        for mod in (*modules.values(), importlib.import_module("kmsbounds")):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in replaced:
                            self._patches.append((obj, key, val))
                            obj[key] = replaced[val]
        lattice = modules["lattice"]
        post_init = lattice.LocalOperator.__post_init__

        def counted_post_init(op):
            self.counters["lattice.local_operator.count"] += 1
            post_init(op)

        self._set(lattice.LocalOperator, "__post_init__", counted_post_init)
        for owner, attr in KERNELS:
            name = f"kernel.{attr}"
            self._set(owner, attr, self.wrap(name, getattr(owner, attr), hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- counters computed at the layer boundaries ----------------------
    def _count_objective(self, optimize_eps):
        """``optimize_eps`` whose objective counts its evaluations."""

        @functools.wraps(optimize_eps)
        def counting(objective, *args, **kwargs):
            def counted(eps):
                self.counters["bounds.objective_evals"] += 1
                return objective(eps)

            return optimize_eps(counted, *args, **kwargs)

        return counting

    def _fingerprint(self, obj) -> tuple:
        """Content key of a motif, spec or family, memoized per object (the
        object is kept alive so its id cannot be reused)."""
        hit = self._fingerprints.get(id(obj))
        if hit is not None:
            return hit[1]
        if hasattr(obj, "motifs"):
            key = (obj.nu, obj.psi_site_norm, tuple(self._fingerprint(m) for m in obj.motifs))
        elif hasattr(obj, "coefficient"):
            op = obj.operator
            digest = None if op is None else hashlib.blake2b(op.matrix.tobytes()).hexdigest()
            key = (obj.region.sites, obj.coefficient, obj.bond_norm, digest)
        else:
            key = tuple(
                (reg.sites, hashlib.blake2b(op.matrix.tobytes()).hexdigest())
                for reg, op in sorted(obj.terms.items(), key=lambda kv: kv[0].sites)
            )
        self._fingerprints[id(obj)] = (obj, key)
        return key

    def _hooks(self) -> dict:
        c, distinct = self.counters, self.distinct

        def scalar_norm(args, kwargs, result):
            distinct["lattice.Motif.scalar_norm"].add(self._fingerprint(args[0]))

        def norm_eps_zeta(args, kwargs, result):
            interaction, params = args
            distinct["norms.norm_eps_zeta"].add(
                (self._fingerprint(interaction), params.eps, params.zeta)
            )

        def single_site_evolution(args, kwargs, result):
            fam, region = args[0], args[1]
            singles = fam.singletons()
            if not any(reg.sites[0] in region for reg in singles):
                c["quantum.single_site_evolution.identity"] += 1

        def quad_rule(args, kwargs, result):
            quad, order, upper = args
            distinct["quantum.SimplexQuadrature.rule"].add((quad.points, order, upper))
            c["quantum.quad_nodes"] += len(result[1])

        def chains(args, kwargs, result):
            c["quantum.chains"] += len(result)

        def decompose(args, kwargs, result):
            c["centering.decompose.calls"] += 1
            c["centering.decompose.components"] += len(result.components)

        def eig(args, kwargs, result):
            a = np.asarray(args[0])
            c["kernel.eig_flops"] += a.shape[-1] ** 3 * (a.size // a.shape[-1] ** 2)

        def kron(args, kwargs, result):
            c["kernel.kron.bytes"] += (
                np.asarray(args[0]).nbytes + np.asarray(args[1]).nbytes + result.nbytes
            )

        hooks = {
            "lattice.Motif.scalar_norm": scalar_norm,
            "norms.norm_eps_zeta": norm_eps_zeta,
            "quantum.single_site_evolution": single_site_evolution,
            "quantum.SimplexQuadrature.rule": quad_rule,
            "quantum.constrained_chains": chains,
            "kernel.eigh": eig,
            "kernel.eigvalsh": eig,
            "kernel.kron": kron,
        }
        hooks.update(dict.fromkeys(DECOMPOSE, decompose))
        return hooks

    # -- summaries ------------------------------------------------------
    def arrays(self) -> dict:
        """Every span as numpy arrays; ``name_id`` indexes ``names``."""
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op_id": np.array(self.op_id, dtype=np.int32),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
        }

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        spans = self.arrays()
        parent = spans["parent"]
        dur = spans["end"] - spans["start"]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def summarize(self) -> dict:
        """Per-layer metrics over every span recorded so far."""
        n = len(self.names)
        spans = self.arrays()
        ids = spans["name_id"]
        dur = spans["end"] - spans["start"]
        calls = np.bincount(ids, minlength=n)
        self_by_name = np.bincount(ids, weights=self.self_times(), minlength=n)
        total_by_name = np.bincount(ids, weights=dur, minlength=n)
        index = {name: i for i, name in enumerate(self.names)}

        def calls_of(name):
            return int(calls[index[name]]) if name in index else 0

        def self_of(name):
            return float(self_by_name[index[name]]) if name in index else 0.0

        out = {metric: calls_of(name) for metric, name in _CALLS.items()}
        out.update({metric: self_of(name) for metric, name in _SELF.items()})
        for metric, name in _DISTINCT.items():
            out[metric] = len(self.distinct[name]) / calls_of(name) if calls_of(name) else 0.0
        for layer in (*LAYERS, "kernel"):
            out[f"{layer}.self_s"] = sum(
                float(self_by_name[i]) for name, i in index.items()
                if name.startswith(layer + ".")
            )
        load = index.get("cli._load_config")
        out["cli.config_load_s"] = float(total_by_name[load]) if load is not None else 0.0
        sse = calls_of("quantum.single_site_evolution")
        out["quantum.single_site_evolution.identity_ratio"] = (
            self.counters["quantum.single_site_evolution.identity"] / sse if sse else 0.0
        )
        for key in (
            "lattice.local_operator.count",
            "bounds.objective_evals",
            "centering.decompose.calls",
            "centering.decompose.components",
            "quantum.quad_nodes",
            "quantum.chains",
            "kernel.eig_flops",
            "kernel.kron.bytes",
        ):
            out[key] = int(self.counters[key])
        return {name: out[name] for name in LAYER_METRICS}
