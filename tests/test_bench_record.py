"""``scripts/bench_record.py`` keeps a recording whose runs partly fail: each
failed run is kept with its seed, exit code and last stderr line, left out of
the quartiles and of ``pairs``, the file is written, and the script exits 1.
The benchmark command is a stub that exits 3 at one seed."""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

STUB = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
if seed == 2:
    sys.stderr.write("warming up\\nRuntimeError: the workload broke\\n")
    sys.exit(3)
print("a progress line")
print(json.dumps({"report": {"provenance": {"seed": seed, "python": "3"}}}))
print(json.dumps({"attempted": 10, "failed": 0, "correct": True,
                  "metrics": {"wall_s": {"value": 0.1 * seed, "unit": "s"}}}))
"""


def load_script():
    path = ROOT / "scripts" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failed_run_is_recorded_and_exits_1(tmp_path, monkeypatch, capsys):
    bench_record = load_script()
    (tmp_path / "stub.py").write_text(STUB)
    monkeypatch.setitem(bench_record.BENCHMARK, "command", [sys.executable, "stub.py"])
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_record.py", "--out", str(out), "--tree", f"parent={tmp_path}",
        "--tree", f"change={tmp_path}", "--seeds", "1", "2", "3",
    ])
    assert bench_record.main() == 1
    doc = json.loads(out.read_text())
    workloads = [w["name"] for w in bench_record.BENCHMARK["workloads"]]
    for label in ("parent", "change"):
        assert sorted(doc["trees"][label]) == sorted(workloads)
        for workload in workloads:
            record = doc["trees"][label][workload]
            failed = {"seed": 2, "exit_code": 3, "stderr": "RuntimeError: the workload broke"}
            assert record["runs"][1] == failed
            assert [run["seed"] for run in record["runs"]] == [1, 2, 3]
            # the quartiles of seeds 1 and 3 alone
            wall = record["end_to_end"]["wall_s"]
            assert wall == {**bench_record.quartiles([0.1, 0.1 * 3]), "unit": "s"}
            assert wall["median"] == pytest.approx(0.2)
            assert record["per_layer"] == {"wall_s": 0.1}
    for workload in workloads:
        assert doc["pairs"]["counts"][workload] == {
            "wall_s": {"lower": 0, "higher": 0, "equal": 2}
        }
    err = capsys.readouterr().err
    line = "FAILED with exit code 3: RuntimeError: the workload broke"
    assert err.count(line) == 2 * len(workloads)


def test_run_without_result_line_is_a_failed_run(tmp_path, monkeypatch):
    bench_record = load_script()
    (tmp_path / "stub.py").write_text("print('no result')\n")
    monkeypatch.setitem(bench_record.BENCHMARK, "command", [sys.executable, "stub.py"])
    run = bench_record.run_bench(tmp_path, "thresholds", 4, 0)
    assert run == {"failed_run": {"seed": 4, "exit_code": 0, "stderr": ""}}
