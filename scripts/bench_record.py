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
metrics of the traced pass and the provenance that ``run.py`` reports.  The
benchmark itself lives in ``kmsbench/``; this script only runs it and writes
down what it prints.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_bench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in ``tree``: its report and result lines."""
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    report_line, result_line = proc.stdout.splitlines()[-2:]
    return {**json.loads(report_line), "result": json.loads(result_line)}


def quartiles(values: list) -> dict:
    """Median, quartiles and interquartile range of ``values``."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list, traced: dict) -> dict:
    metrics = runs[0]["result"]["metrics"]
    provenance = dict(runs[0]["report"]["provenance"])
    # the per-pass config hashes follow from the seed; keep the file small
    provenance.pop("config_sha256", None)
    provenance.pop("seed", None)
    return {
        "provenance": provenance,
        "runs": [
            {"seed": run["report"]["provenance"]["seed"],
             "attempted": run["result"]["attempted"], "failed": run["result"]["failed"],
             "correct": run["result"]["correct"],
             **{name: m["value"] for name, m in run["result"]["metrics"].items()}}
            for run in runs
        ],
        "end_to_end": {
            name: {**quartiles([run["result"]["metrics"][name]["value"] for run in runs]),
                   "unit": metrics[name]["unit"]}
            for name in metrics
        },
        "per_layer": {
            name: m["value"] for name, m in traced["result"]["metrics"].items()
        },
        "traced_seed": traced["report"]["provenance"]["seed"],
    }


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
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = {label: [] for label in trees}
        for k, seed in enumerate(args.seeds):
            for label, tree in list(trees.items())[::-1 if k % 2 else 1]:
                runs[label].append(run_bench(tree, workload, seed, 0))
                wall = runs[label][-1]["result"]["metrics"]["wall_s"]["value"]
                print(f"{workload} seed {seed} {label}: wall_s {wall:.3f}", file=sys.stderr)
        for label, tree in trees.items():
            traced = run_bench(tree, workload, args.seeds[0], 1)
            doc["trees"][label][workload] = summarize(runs[label], traced)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
