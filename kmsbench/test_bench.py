"""Tests of the benchmark itself: ``python3 -m pytest kmsbench``."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import KIND_METRICS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("lattice.inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("cli.outer", body)()
    assert list(tracer.self_times()) == [4.0, 2.0, 4.0]
    assert list(tracer.parent) == [-1, 0, 0]
    layers = tracer.summarize()
    assert layers["cli.self_s"] == 4.0
    assert layers["lattice.self_s"] == 6.0


def test_uninstall_restores_the_package():
    from kmsbounds import cli, lattice, verify

    before = (lattice.embed, cli.heisenberg_report, dict(verify.SUITES), np.kron)
    tracer = Tracer()
    tracer.install()
    assert lattice.embed is not before[0] and verify.SUITES["ks"] is not before[2]["ks"]
    tracer.uninstall()
    assert (lattice.embed, cli.heisenberg_report, dict(verify.SUITES), np.kron) == before


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload):
    make = WORKLOADS[workload]

    def inputs(seed, index):
        return [(g.label, g.config, g.ops) for g in make(np.random.default_rng([seed, index]))]

    assert inputs(5, 1) == inputs(5, 1)
    assert inputs(5, 1) != inputs(6, 1)
    assert inputs(5, 1) != inputs(5, 2)
    # the seed changes the parameters, never the amount of work
    shape = [(label, ops) for label, _, ops in inputs(5, 1)]
    assert shape == [(label, ops) for label, _, ops in inputs(6, 1)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_at_tiny_size(workload, trace):
    out = run.measure(workload, seed=3, seconds=0, trace=trace, tiny=True)
    result, report = out["result"], out["report"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(KIND_METRICS.values()) | {"failed_frac"} <= set(report["end_to_end"])
    assert result["correct"] and result["attempted"] > 0
    # the only failing operation is ``norms`` on the schema default config
    assert all(f.startswith("default/norms: ") for f in report["failures"])
    if workload != "thresholds":
        assert result["failed"] == 0


def test_calibration_rescales_to_the_reference_speed():
    import calibration

    bursts = [{"small": 2 * calibration.REFERENCE_S["small"], "eig81": t} for t in (1.0, 2.0, 3.0)]
    assert calibration.scale(bursts, "small") == 0.5
    assert calibration.scale(bursts, "eig81") == calibration.REFERENCE_S["eig81"] / 2.0
    assert set(calibration.burst()) == set(calibration.REFERENCE_S)
