"""Golden CLI outputs: the default JSON and the ``--csv`` bytes of ``norms``,
``beta-u``, ``compare`` and ``report`` on a fixed config set, of
``compare --paper-table``, of ``verify`` on each quantum suite and on the
classical-invariance suite at seed 0, of the seeded quantum suites at
seeds 1-3, and of the ``dyson`` and ``ks`` suites at the largest truncation
orders, must not change unless a change is intended.  Neither may the
stdout of the paper's table scripts under ``scripts/``.

Regenerate ``golden/cli_outputs.json`` and the scripts' ``golden/*.txt``
after an intended output change with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py

(one BLAS thread, as ``conftest.py`` sets for the test run).
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

from kmsbounds.cli import main

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")
GOLDEN = GOLDEN_DIR / "cli_outputs.json"
ROOT = pathlib.Path(__file__).resolve().parent.parent

#: each model with eps auto and fixed, zero coupling, nu = 1, 2, 3, 2j > 1
CONFIGS = {
    "heisenberg": {"model": "heisenberg"},
    "heisenberg-fixed": {
        "model": "heisenberg", "eps": 0.8, "params": {"J": 1.3, "delta": 0.7},
        "verify_suites": ["lemma1"], "seed": 3,
    },
    "heisenberg-nu2": {
        "model": "heisenberg", "nu": 2, "two_j": 2, "window": [3, 3],
        "params": {"J": 0.9, "delta": 1.2},
    },
    "heisenberg-nu2-default": {"model": "heisenberg", "nu": 2},
    "heisenberg-nu3": {
        "model": "heisenberg", "nu": 3, "window": [3, 3, 3],
        "params": {"J": -0.7, "delta": 0.4},
    },
    "heisenberg-nu3-fixed": {
        "model": "heisenberg", "nu": 3, "two_j": 3, "window": [3, 3, 3], "eps": 1.5,
    },
    "heisenberg-2j4": {
        "model": "heisenberg", "two_j": 4, "window": [5], "params": {"J": 2.0, "delta": 0.5},
    },
    # the largest accepted spin in the largest dimension
    "heisenberg-nu3-2j16": {"model": "heisenberg", "nu": 3, "two_j": 16},
    "heisenberg-zero": {"model": "heisenberg", "params": {"J": 0.0}},
    "heisenberg-zero-fixed": {"model": "heisenberg", "eps": 0.5, "params": {"J": 0.0}},
    "ising": {"model": "ising_staggered", "params": {"J": 1.0, "B": 0.5}},
    "ising-fixed": {
        "model": "ising_staggered", "nu": 2, "two_j": 3, "window": [3, 3], "eps": 0.5,
        "params": {"J": -1.5, "B": 2.0},
    },
    "ising-nu3": {
        "model": "ising_staggered", "nu": 3, "two_j": 2, "window": [3, 3, 3],
        "params": {"J": 0.8, "B": 1.0},
    },
    "ising-zero": {"model": "ising_staggered", "params": {"J": 0.0}},
    "ising-zero-fixed": {"model": "ising_staggered", "eps": 0.6, "params": {"J": 0.0}},
    "classical": {"model": "classical_heisenberg"},
    "classical-fixed": {
        "model": "classical_heisenberg", "nu": 2, "eps": 1.2,
        "params": {"J": 0.5, "delta": 2.0},
    },
    "classical-nu3": {"model": "classical_heisenberg", "nu": 3, "params": {"J": 1.5, "delta": 0.3}},
    "classical-zero": {"model": "classical_heisenberg", "params": {"J": 0.0}},
    # roots of ~1e-14, where an absolute bisection tolerance would show,
    # and a weighted norm that overflows at every eps (every threshold on
    # the grid is 0, so the eps scan ties)
    "classical-1e11": {"model": "classical_heisenberg", "params": {"J": 1e11}},
    "classical-nu3-1e308": {"model": "classical_heisenberg", "nu": 3, "params": {"J": 1e308}},
}

COMMANDS = ("norms", "beta-u", "compare", "report")

#: configs run only by the ``verify`` suites they set: the largest Dyson and
#: KS orders, whose ``ks`` suite runs chains of three regions
VERIFY_CONFIGS = {
    "heisenberg-truncation": {
        "model": "heisenberg",
        "truncation": {"dyson_order": 4, "ks_order": 3, "quad_points": 12},
    },
}

#: the suites of exact diagonalization; their check values pin the numerics
#: of the lattice, centering and quantum modules bit for bit
QUANTUM_SUITES = ("decompose", "kms", "dyson", "lemma1", "ks")

#: the quantum suites whose draws follow the seed (``dyson`` has none)
SEEDED_SUITES = ("decompose", "kms", "lemma1", "ks")

#: scripts whose stdout is recorded as ``golden/<name>.txt``
SCRIPTS = ("paper_tables", "ks_decay_demo")

CASES = {
    **{f"{label} {command}": (label, [command]) for label in CONFIGS for command in COMMANDS},
    "paper-table": ("heisenberg", ["compare", "--paper-table"]),
    **{
        f"heisenberg verify {suite}": ("heisenberg", ["verify", "--suite", suite])
        for suite in QUANTUM_SUITES
    },
    **{
        f"heisenberg verify {suite} seed {seed}": (
            "heisenberg", ["verify", "--suite", suite, "--seed", str(seed)],
        )
        for suite in SEEDED_SUITES
        for seed in (1, 2, 3)
    },
    **{
        f"{label} verify {suite}": (label, ["verify", "--suite", suite])
        for label in VERIFY_CONFIGS
        for suite in ("dyson", "ks")
    },
    # the quadrature residual and the rotation-product bound pin the
    # numerics of the classical module bit for bit
    "classical verify classical-invariance": (
        "classical", ["verify", "--suite", "classical-invariance"],
    ),
}


def render(case: str, workdir: pathlib.Path) -> dict:
    """Exit code and stdout of one case, as default JSON and as CSV."""
    label, argv = CASES[case]
    path = workdir / f"{label}.json"
    path.write_text(json.dumps({**CONFIGS, **VERIFY_CONFIGS}[label]))
    out = {}
    for fmt, flags in (("json", []), ("csv", ["--csv"])):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--config", str(path), *flags])
        out[fmt] = {"exit": code, "stdout": buf.getvalue()}
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_unchanged(case, golden, tmp_path):
    assert render(case, tmp_path) == golden[case]


def run_script(name: str) -> str:
    """Stdout of ``scripts/<name>.py`` in a fresh interpreter on one BLAS
    thread, importing the package from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py")],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_output_unchanged(name):
    assert run_script(name) == (GOLDEN_DIR / f"{name}.txt").read_text()


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        doc = {case: render(case, pathlib.Path(tmp)) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name in SCRIPTS:
        (GOLDEN_DIR / f"{name}.txt").write_text(run_script(name))


if __name__ == "__main__":
    write_golden()
