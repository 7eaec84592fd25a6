#!/usr/bin/env python3
"""Record benchmark runs of one or more source trees into a BENCH_*.json file.

    python3 scripts/bench_record.py --out BENCH_N.json \\
        --tree parent=../parent-checkout --tree change=.

The workloads, the run length and the command come from ``BENCHMARK.json``
at the root of this repository.  For each workload and seed (ten by default,
as many pairs as a claimed gain is judged on) the trees run the command with
``--trace 0`` in turn, in the given order at the first seed and reversed at
the next, so host drift falls on both alike; each tree then runs one
``--trace 1`` pass.  The file holds, per tree and workload, every run's
end-to-end metrics, their medians and interquartile ranges, the per-layer
metrics of the traced pass and the provenance that ``run.py`` reports.  Given
exactly two trees, it also counts per workload and end-to-end metric the
seeds at which the second tree read lower than the first, higher, or equal
(``pairs``).  The benchmark itself lives in ``kmsbench/``; this script only
runs it and writes down what it prints.

A run that exits non-zero or prints no result line is kept in ``runs`` as its
seed, exit code and last stderr line, printed to stderr, and left out of the
quartiles and of ``pairs``; the file is still written, and the script then
exits 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_bench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in ``tree``: its report and result lines, or, for a
    run that fails, ``{"failed_run": {"seed", "exit_code", "stderr"}}``."""
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 and len(lines) >= 2:
        try:
            return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}
        except json.JSONDecodeError:  # no result line at the end
            pass
    stderr = proc.stderr.splitlines()
    return {"failed_run": {"seed": seed, "exit_code": proc.returncode,
                           "stderr": stderr[-1] if stderr else ""}}


def run_logged(tree: Path, label: str, workload: str, seed: int, trace: int) -> dict:
    """``run_bench`` with one stderr line: an untraced run's wall time, or
    a failed run's exit code and last stderr line."""
    run = run_bench(tree, workload, seed, trace)
    what = f"{workload} {'traced ' * trace}seed {seed} {label}"
    if "failed_run" in run:
        failed = run["failed_run"]
        print(f"{what}: FAILED with exit code {failed['exit_code']}: {failed['stderr']}",
              file=sys.stderr)
    elif not trace:
        wall = run["result"]["metrics"]["wall_s"]["value"]
        print(f"{what}: wall_s {wall:.3f}", file=sys.stderr)
    return run


def quartiles(values: list) -> dict:
    """Median, quartiles and interquartile range of ``values``."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list, traced: dict) -> dict:
    """The record of one tree and workload; failed runs appear only in
    ``runs``, and a failed traced run leaves ``per_layer`` empty."""
    done = [run for run in runs if "failed_run" not in run]
    metrics = done[0]["result"]["metrics"] if done else {}
    provenance = dict(done[0]["report"]["provenance"]) if done else {}
    # the per-pass config hashes follow from the seed; keep the file small
    provenance.pop("config_sha256", None)
    provenance.pop("seed", None)
    return {
        "provenance": provenance,
        "runs": [
            run["failed_run"] if "failed_run" in run else
            {"seed": run["report"]["provenance"]["seed"],
             "attempted": run["result"]["attempted"], "failed": run["result"]["failed"],
             "correct": run["result"]["correct"],
             **{name: m["value"] for name, m in run["result"]["metrics"].items()}}
            for run in runs
        ],
        "end_to_end": {
            name: {**quartiles([run["result"]["metrics"][name]["value"] for run in done]),
                   "unit": metrics[name]["unit"]}
            for name in metrics
        },
        "per_layer": {} if "failed_run" in traced else {
            name: m["value"] for name, m in traced["result"]["metrics"].items()
        },
        "traced_seed": traced["failed_run"]["seed"] if "failed_run" in traced
        else traced["report"]["provenance"]["seed"],
    }


def pair_counts(first: list, second: list) -> dict:
    """Per end-to-end metric, the seeds at which the run of ``second`` read
    lower than the run of ``first`` at the same seed, higher, or equal; a
    seed where either run failed counts in none."""
    counts = {}
    for a, b in zip(first, second):
        if "failed_run" in a or "failed_run" in b:
            continue
        for name, m in b["result"]["metrics"].items():
            before, after = a["result"]["metrics"][name]["value"], m["value"]
            side = "lower" if after < before else "higher" if after > before else "equal"
            counts.setdefault(name, {"lower": 0, "higher": 0, "equal": 0})[side] += 1
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH_*.json file to write")
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH",
                        help="a source checkout to run, repeatable")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args()
    trees = {}
    for item in args.tree:
        label, _, path = item.partition("=")
        trees[label] = Path(path).resolve()
    doc = {"seconds": BENCHMARK["run_seconds"], "trees": {label: {} for label in trees}}
    if len(trees) == 2:
        first, second = trees
        doc["pairs"] = {"first": first, "second": second, "counts": {}}
    failures = 0
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = {label: [] for label in trees}
        for k, seed in enumerate(args.seeds):
            for label, tree in list(trees.items())[::-1 if k % 2 else 1]:
                runs[label].append(run_logged(tree, label, workload, seed, 0))
                failures += "failed_run" in runs[label][-1]
        for label, tree in trees.items():
            traced = run_logged(tree, label, workload, args.seeds[0], 1)
            failures += "failed_run" in traced
            doc["trees"][label][workload] = summarize(runs[label], traced)
        if "pairs" in doc:
            doc["pairs"]["counts"][workload] = pair_counts(*runs.values())
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if failures:
        print(f"{failures} failed runs; {args.out} keeps each one in its runs", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
