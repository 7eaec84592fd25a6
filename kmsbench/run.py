"""Benchmark of the kmsbounds package, run from the root of a source checkout.

    python3 kmsbench/run.py --workload thresholds --seed 1 --seconds 30 --trace 0

Workloads (``workloads.py``): ``thresholds`` runs ``norms``, ``beta-u``,
``compare`` and ``report`` on a fixed grid of models; ``verify-quantum``
runs the quantum verification suites; ``verify-classical`` runs the
classical invariance suite.  Every operation goes through
``kmsbounds.cli.main`` in this process, one after another (a closed loop
with a single caller), and its output is checked.

One run: time ``setup_s`` in fresh interpreters, warm up on the workload's
tiny variant, then run full passes, each on inputs drawn afresh from the
seed, until the next pass would end after ``--seconds``.  Untraced passes
interleave calibration bursts (``calibration.py``); times are rescaled to
the reference host speed pass by pass, and the report line keeps the
unscaled medians.  With ``--trace 0`` the last line reports the end-to-end
metrics (medians over passes); with ``--trace 1`` passes alternate between
untraced and traced, and it reports the per-layer metrics of ``tracer.py``,
the per-command times of the untraced passes and the tracing overhead.  The
line before it holds every metric, the failed fraction and the provenance.
Spans of traced runs are written to ``.bench_work/trace-<workload>.npz``.

Tests of the benchmark itself: ``python3 -m pytest kmsbench``.
"""

import os

# One BLAS thread, set before numpy loads: the package's matrices are at most
# 81 x 81, where a second thread adds contention on a small shared machine
# and no speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import calibration  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import CALIBRATION_KERNEL, KIND_METRICS, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 7
#: least time between calibration points inside an untraced pass, and the
#: bursts timed at each point
BURST_EVERY_S = 0.3
BURSTS_PER_POINT = 3
#: ``_load_config`` is the read-and-validate step every CLI command starts with
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import kmsbounds.cli as cli; cli._load_config(sys.argv[2])"
)


def config_path(config: dict) -> Path:
    """The config written once under ``.bench_work``, named by its sha256."""
    text = json.dumps(config, sort_keys=True)
    path = WORK / "configs" / f"{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return path


def run_op(cli, argv: list, tracer=None, kind: str = ""):
    """One CLI call: (seconds, parsed output or None, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"bench.{kind}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an operation that raises is a failed operation
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, None, f"exit {code}: {err.getvalue().strip()[:200]}"
    return elapsed, json.loads(out.getvalue()), None


def run_pass(cli, groups: list, tracer=None) -> dict:
    """Run every operation of one pass; time it and check the outputs.

    Untraced passes also time calibration bursts at the start, after any
    operation that ends ``BURST_EVERY_S`` or more after the last ones, and at
    the end; the bursts are left out of the pass time.
    """
    paths = [str(config_path(g.config)) for g in groups]
    times = dict.fromkeys(KIND_METRICS.values(), 0.0)
    bursts = []
    calibrating = 0.0

    def calibrate():
        nonlocal calibrating
        if not tracer:
            begin = time.perf_counter()
            bursts.extend(calibration.burst() for _ in range(BURSTS_PER_POINT))
            calibrating += time.perf_counter() - begin

    attempted = 0
    failures = []
    wrong = 0
    start = last_burst = time.perf_counter()
    calibrate()
    for group, path in zip(groups, paths):
        docs, failed = {}, {}
        for kind, argv in group.ops:
            if tracer:
                tracer.op = attempted
            seconds, doc, error = run_op(cli, [*argv, "--config", path], tracer, kind)
            attempted += 1
            times[KIND_METRICS[kind]] += seconds
            if error is None:
                docs[kind] = doc
            else:
                failed[kind] = error
            if time.perf_counter() - last_burst >= BURST_EVERY_S:
                calibrate()
                last_burst = time.perf_counter()
        for kind, name, ok in group.check(docs):
            if not ok:
                wrong += 1
                failed.setdefault(kind, f"check {name} failed")
        failures += [f"{group.label}/{kind}: {why}" for kind, why in failed.items()]
    calibrate()
    return {
        "wall_s": time.perf_counter() - start - calibrating,
        "times": times,
        "bursts": bursts,
        "attempted": attempted,
        "failures": failures,
        "wrong_outputs": wrong,
        "config_sha256": [Path(p).stem for p in paths],
    }


def time_setup(config: dict) -> float:
    """A fresh interpreter imports ``kmsbounds.cli`` and loads one config."""
    path = config_path(config)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(path)],
        check=True, capture_output=True, timeout=120,
    )
    return time.perf_counter() - start


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def provenance(workload: str, seed: int, passes: list) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kmsbounds").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "config_sha256": [p["config_sha256"] for p in passes],
    }


def run_passes(cli, make, seed: int, seconds: float, trace: bool, tiny: bool):
    """Full passes, each on inputs drawn from (seed, pass index), until the
    next one would end after ``seconds``; with ``trace`` every second pass
    runs under its own tracer.  Returns (untraced, traced, tracers)."""
    untraced, traced, tracers = [], [], []
    needed = 2 if trace or not tiny else 1
    begin = time.perf_counter()
    index = 1
    while True:
        groups = make(np.random.default_rng([seed, index]), tiny=tiny)
        if trace and index % 2 == 0:
            tracer = Tracer()
            tracer.install()
            try:
                done = run_pass(cli, groups, tracer)
            finally:
                tracer.uninstall()
            done["layers"] = tracer.summarize()
            traced.append(done)
            tracers.append(tracer)
        else:
            done = run_pass(cli, groups)
            untraced.append(done)
        elapsed = time.perf_counter() - begin
        if index >= needed and elapsed + done["wall_s"] > seconds:
            return untraced, traced, tracers
        index += 1


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the final result line and the full report."""
    from kmsbounds import cli

    make = WORKLOADS[workload]
    setup_config = make(np.random.default_rng([seed, 0]))[0].config
    setup, setup_bursts = [], []
    for _ in range(1 if tiny else SETUP_REPEATS):
        setup_bursts += [calibration.burst() for _ in range(BURSTS_PER_POINT)]
        setup.append(time_setup(setup_config))
    if not tiny:
        run_pass(cli, make(np.random.default_rng([seed, 0]), tiny=True))
    untraced, traced, tracers = run_passes(cli, make, seed, seconds, trace, tiny)
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    # times are rescaled pass by pass to the reference host speed
    kernel = CALIBRATION_KERNEL[workload]
    scale = [calibration.scale(p["bursts"], kernel) if kernel else 1.0 for p in untraced]
    wall = statistics.median(p["wall_s"] * f for p, f in zip(untraced, scale))
    timings = {
        name: statistics.median(p["times"][name] * f for p, f in zip(untraced, scale))
        for name in KIND_METRICS.values()
    }
    e2e = {
        "setup_s": statistics.median(setup) * calibration.scale(setup_bursts, "small"),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "end_to_end": {**e2e, **timings, "failed_frac": len(failures) / attempted},
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "unscaled": {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "burst_s": {
                name: statistics.median(b[name] for p in untraced for b in p["bursts"])
                for name in calibration.REFERENCE_S
            },
        },
        "failures": sorted(set(failures)),
        "provenance": provenance(workload, seed, passes),
    }
    if trace:
        layers = {
            name: statistics.median(p["layers"][name] for p in traced) for name in LAYER_METRICS
        }
        layers.update(timings)
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - report["unscaled"]["wall_s"]
        )
        layers["trace.spans"] = statistics.median(len(t.start) for t in tracers)
        report["per_layer"] = layers
        WORK.mkdir(exist_ok=True)
        np.savez(
            WORK / f"trace-{workload}.npz",
            **{f"pass{k}_{key}": arr for k, t in enumerate(tracers) for key, arr in t.arrays().items()},
        )
        units = {**LAYER_METRICS, **dict.fromkeys(timings, "s"),
                 "trace.overhead_s": "s", "trace.spans": "count"}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": not any(p["wrong_outputs"] for p in passes),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return {"report": report, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kmsbounds" / "__init__.py").is_file():
        print(f"error: no kmsbounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kmsbounds

    if Path(kmsbounds.__file__).resolve().parent != SRC / "kmsbounds":
        print(f"error: kmsbounds imported from {kmsbounds.__file__}", file=sys.stderr)
        return 2
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": out["report"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
