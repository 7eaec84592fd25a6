import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kmsbounds
from kmsbounds.cli import (
    EXIT_OK,
    EXIT_SCHEMA,
    MODELS,
    _SUITE_NAMES,
    ModelConfig,
    build_parser,
    cmd_beta_u,
    cmd_compare,
    cmd_norms,
    main,
)
from kmsbounds.ti import FloatRangeError, SpinRep, ising_staggered_ti
from kmsbounds.verify import SUITES


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


#: the directory that holds the ``kmsbounds`` package, for fresh interpreters
_SRC = str(pathlib.Path(kmsbounds.__file__).resolve().parent.parent)


def _fresh_main(argv):
    """(exit code, stdout, stderr) of ``main(argv)`` in a fresh interpreter."""
    run_main = "import sys; from kmsbounds.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", run_main, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": _SRC},
    )
    return proc.returncode, proc.stdout, proc.stderr


HEISENBERG = {
    "model": "heisenberg",
    "nu": 1,
    "two_j": 1,
    "params": {"J": 1.0, "delta": 1.0},
    "eps": 0.607,
    "seed": 0,
}


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = ModelConfig.from_dict(HEISENBERG)
        assert cfg.model == "heisenberg"
        assert cfg.coupling == 1.0
        # parse -> emit -> parse is stable
        doc = cmd_norms(cfg)
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text) == json.loads(json.dumps(json.loads(text), sort_keys=True))

    def test_unknown_key_rejected(self):
        bad = dict(HEISENBERG)
        bad["unknown_field"] = 1
        with pytest.raises(Exception):
            ModelConfig.from_dict(bad)

    def test_unknown_param_rejected(self):
        bad = dict(HEISENBERG)
        bad["params"] = {"J": 1.0, "K": 2.0}
        with pytest.raises(Exception):
            ModelConfig.from_dict(bad)

    def test_schema_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": "nonsense"})
        assert main(["beta-u", "--config", path]) == EXIT_SCHEMA

    def test_missing_file_exit_code(self, capsys):
        assert main(["beta-u", "--config", "/nonexistent.json"]) == EXIT_SCHEMA

    @pytest.mark.parametrize("text", [
        b'{"model": "ising_staggered", "params": {"J": NaN}}',
        b'{"model": "heisenberg", "eps": Infinity}',
        b'{"model": "heisenberg", "params": {"J": 1e400}}',
        b'{"model": "heis\xff"}',
    ])
    def test_unreadable_config_rejected(self, tmp_path, capsys, text):
        # Python's json module accepts non-finite numbers; the config loader
        # must not, nor fail on bytes that are not UTF-8
        path = tmp_path / "config.json"
        path.write_bytes(text)
        assert main(["beta-u", "--config", str(path)]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read config: ")
        assert captured.err.count("\n") == 1

    def test_schema_models_match_table(self):
        """The config accepts exactly the models of ``MODELS`` and the suite
        names of ``SUITES`` plus "all", the names ``verify --suite`` takes.
        The CLI spells the names out; they must stay those of ``SUITES``."""
        for model in MODELS:
            assert ModelConfig.from_dict({"model": model}).model == model
        assert _SUITE_NAMES == (*SUITES, "all")
        names = [*SUITES, "all"]
        config = ModelConfig.from_dict({"model": "heisenberg", "verify_suites": names})
        assert config.verify_suites == names
        for name in names:
            argv = ["verify", "--config", "config.json", "--suite", name]
            assert build_parser().parse_args(argv).suite == name
        for bad in ({"model": "Heisenberg"}, {"model": "heisenberg", "verify_suites": ["ALL"]}):
            with pytest.raises(ValueError):
                ModelConfig.from_dict(bad)

    @pytest.mark.parametrize("truncation", [{"ks_order": 1}, {"dyson_order": 0}])
    def test_truncation_below_minimum_rejected(self, tmp_path, capsys, truncation):
        path = write_config(tmp_path, {**HEISENBERG, "truncation": truncation})
        assert main(["verify", "--config", path, "--suite", "lemma1"]) == EXIT_SCHEMA

    def test_schema_messages_match_fresh_process(self, tmp_path, capsys):
        """The config checks report the same errors in this process as in a
        fresh interpreter, for every config they reject."""
        bad = [{"model": "nonsense"}, {**HEISENBERG, "params": {"J": "strong"}}]
        paths = [write_config(tmp_path, doc, f"bad{i}.json") for i, doc in enumerate(bad)]
        in_process = []
        for path in paths:
            assert main(["norms", "--config", path]) == EXIT_SCHEMA
            in_process.append(capsys.readouterr().err)
        fresh = []
        for path in paths:
            code, _, err = _fresh_main(["norms", "--config", path])
            assert code == EXIT_SCHEMA
            fresh.append(err)
        assert in_process == fresh
        assert all(message.startswith("error: config rejected: ") for message in fresh)


class TestParserReuse:
    """``main`` builds its parser on the first call and reuses it."""

    def test_reused_parser_matches_fresh_process(self, tmp_path, capsys, monkeypatch):
        """Commands, flags and configs back to back through one parser give
        each call the stdout, stderr and exit code of a fresh process: no
        flag, default or error carries over to the next call."""
        # argparse wraps usage at the terminal width; give both processes one
        monkeypatch.setenv("COLUMNS", "80")
        path = write_config(tmp_path, HEISENBERG)
        second = write_config(tmp_path, {"model": "ising_staggered", "nu": 2}, "second.json")
        rejected = write_config(tmp_path, {"model": "nonsense"}, "rejected.json")
        calls = [
            ["norms", "--config", path, "--csv"],
            ["compare", "--config", path, "--paper-table"],
            ["compare", "--config", path],
            ["verify", "--suite", "kms", "--seed", "2", "--config", path],
            ["verify", "--suite", "kms", "--config", path],
            ["report", "--config", second],
            ["beta-u", "--config", rejected],
            ["beta-u", "--json", "--csv", "--config", path],
            ["beta-u"],
            ["beta-u", "--config", path],
        ]
        parser = build_parser()
        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            in_process.append((code, *capsys.readouterr()))
        assert build_parser() is parser
        assert in_process == [_fresh_main(argv) for argv in calls]
        codes = [code for code, _, _ in in_process]
        assert codes == [EXIT_OK] * 6 + [EXIT_SCHEMA] * 3 + [EXIT_OK]
        # the seed flag of one call is not the default of the next
        assert [json.loads(in_process[k][1])["seed"] for k in (3, 4)] == [2, 0]
        # the usage errors print argparse's usage and nothing on stdout
        for _, out, err in in_process[7:9]:
            assert out == ""
            assert err.startswith("usage: kmsbounds beta-u ")

    def test_twenty_calls_build_one_parser(self, tmp_path, capsys, monkeypatch):
        """Twenty calls of ``main`` build the parser tree once: the parser
        and one subparser per command."""
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        path = write_config(tmp_path, HEISENBERG)
        for _ in range(20):
            assert main(["beta-u", "--config", path]) == EXIT_OK
        commands = ("norms", "beta-u", "compare", "verify", "report")
        assert progs == ["kmsbounds", *(f"kmsbounds {name}" for name in commands)]

    def test_setup_builds_no_parser(self, tmp_path):
        """Importing the CLI and loading a config, the setup every command
        starts with, build no parser in a fresh interpreter; the first call
        of ``main`` builds the tree."""
        path = write_config(tmp_path, HEISENBERG)
        script = (
            "import argparse, contextlib, io, json, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import kmsbounds.cli as cli\n"
            "cli._load_config(sys.argv[1])\n"
            "at_setup = len(built)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['beta-u', '--config', sys.argv[1]])\n"
            "print(json.dumps([at_setup, len(built), code]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, path],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": _SRC},
        )
        assert json.loads(proc.stdout) == [0, 6, EXIT_OK]


#: a fresh interpreter runs ``main`` on each command line after the script
#: argument and prints, per call, its exit code and whether numpy is loaded
_NUMPY_PROBE = (
    "import contextlib, io, json, sys\n"
    "import kmsbounds.cli as cli\n"
    "seen = ['numpy' in sys.modules]\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = cli.main(argv)\n"
    "    seen.append([code, 'numpy' in sys.modules])\n"
    "print(json.dumps(seen))\n"
)


def _numpy_probe(calls):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _NUMPY_PROBE, json.dumps(calls)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": _SRC},
    )
    return json.loads(proc.stdout)


class TestThresholdCommandsLoadNoNumpy:
    """The threshold path is pure Python: importing the CLI and running
    ``norms``, ``beta-u``, ``compare`` and ``report`` leave numpy unloaded;
    a verification suite loads it."""

    def test_threshold_commands(self, tmp_path):
        calls = [
            [*command, "--config", write_config(tmp_path, {"model": model}, f"{model}.json")]
            for model in ("heisenberg", "ising_staggered", "classical_heisenberg")
            for command in (["norms"], ["beta-u"], ["compare"], ["compare", "--paper-table"],
                            ["report"])
        ]
        assert _numpy_probe(calls) == [False] + [[EXIT_OK, False]] * 15

    def test_verify_loads_numpy(self, tmp_path):
        path = write_config(tmp_path, HEISENBERG)
        calls = [["beta-u", "--config", path], ["verify", "--suite", "kms", "--config", path]]
        assert _numpy_probe(calls) == [False, [EXIT_OK, False], [EXIT_OK, True]]


#: (key, least, greatest) of every integer key; None: no greatest
_INTEGER_KEYS = [
    ("nu", 1, 3),
    ("two_j", 1, 16),
    ("seed", 0, None),
    ("truncation.dyson_order", 1, 4),
    ("truncation.ks_order", 2, 3),
    ("truncation.quad_points", 2, 32),
]


def _rule_cases():
    """(key, value, accepted) for every config key: values at and past each
    bound, and values of the wrong type."""
    cases = []
    for key, low, high in _INTEGER_KEYS:
        cases += [(key, low, True), (key, low - 1, False), (key, True, False),
                  (key, float(low), False), (key, str(low), False), (key, None, False)]
        if high is None:
            cases.append((key, 10 ** 30, True))
        else:
            cases += [(key, high, True), (key, high + 1, False), (key, float(high), False)]
    for key in ("params.J", "params.delta", "params.B"):
        cases += [(key, 1, True), (key, -2.5, True), (key, 1e308, True), (key, 0, True),
                  (key, True, False), (key, "1", False), (key, None, False), (key, [1], False),
                  (key, 10 ** 400, False)]
    cases += [
        ("beta", 5e-324, True), ("beta", 1000, True), ("beta", 0, False), ("beta", -1.0, False),
        ("beta", True, False), ("beta", "1", False), ("beta", 10 ** 400, False),
        ("eps", "auto", True), ("eps", 10, True), ("eps", 1e-300, True), ("eps", 0, False),
        ("eps", 10.000000000000002, False), ("eps", -1, False), ("eps", True, False),
        ("eps", "AUTO", False), ("eps", None, False),
        ("window", [8], True), ("window", [1], True), ("window", [0], False),
        ("window", [9], False), ("window", [4.0], False), ("window", [True], False),
        ("window", ["4"], False), ("window", [], False), ("window", [4, 4], False),
        ("window", [1, 2, 3, 4], False), ("window", 4, False),
        ("verify_suites", [], True), ("verify_suites", ["all"], True),
        ("verify_suites", ["ks", "lemma1"], True), ("verify_suites", ["nonsense"], False),
        ("verify_suites", "all", False), ("verify_suites", [1], False),
        ("model", "nonsense", False), ("model", ["heisenberg"], False),
        ("model", {"name": "heisenberg"}, False), ("model", None, False),
        ("params", {}, True), ("params", [], False), ("params", "J", False),
        ("truncation", {}, True), ("truncation", [], False), ("truncation", 3, False),
        ("unknown", 1, False), ("params.K", 1.0, False), ("truncation.order", 2, False),
    ]
    return cases


def _with_key(key, value):
    doc = {"model": "heisenberg"}
    group, _, sub = key.rpartition(".")
    if group:
        doc[group] = {sub: value}
    else:
        doc[key] = value
    return doc


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.just(10 ** 400)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_NUMBERS = st.integers() | st.floats() | st.just(10 ** 400)


def _integers(low, high):
    """Integers from ``low`` to ``high``, some of them as floats (2.0)."""
    return st.integers(low, high) | st.integers(low, high).map(float)


def _near(values):
    """Values of one key: mostly from around its valid domain, else any JSON
    value."""
    return st.one_of(values, values, values, _JSON)


#: documents shaped like configs, with values in and out of every rule, or
#: any JSON value
_DOCUMENTS = _JSON | st.fixed_dictionaries(
    {"model": _near(st.sampled_from([*MODELS]))},
    optional={
        "nu": _near(_integers(0, 4)),
        "two_j": _near(_integers(0, 17)),
        "params": _near(st.dictionaries(
            st.sampled_from(["J", "delta", "B", "K"]), _near(_NUMBERS), max_size=3,
        )),
        "beta": _near(_NUMBERS),
        "eps": _near(_NUMBERS | st.just("auto")),
        "window": _near(st.lists(_integers(0, 9), max_size=4)),
        "truncation": _near(st.dictionaries(
            st.sampled_from(["dyson_order", "ks_order", "quad_points", "order"]),
            _near(_integers(0, 33)), max_size=3,
        )),
        "seed": _near(_integers(-1, 2 ** 70)),
        "verify_suites": _near(st.lists(st.sampled_from([*SUITES, "all", "none"]), max_size=3)),
    },
)


class TestConfigRules:
    @pytest.mark.parametrize(
        "key, value, accepted",
        [pytest.param(*case, id=f"{case[0]}={case[1]!r:.24}") for case in _rule_cases()],
    )
    def test_key_rule(self, key, value, accepted):
        doc = _with_key(key, value)
        if accepted:
            config = ModelConfig.from_dict(doc)
            field = key.rpartition(".")[2]
            if not isinstance(value, dict):  # an empty group sets no field
                name = {"J": "coupling", "B": "field_strength"}.get(field, field)
                assert getattr(config, name) == value
        else:
            with pytest.raises(ValueError, match=key.replace(".", r"\.")):
                ModelConfig.from_dict(doc)

    @pytest.mark.parametrize("doc, reason", [
        ({"nu": 2}, "model is required"),
        ([{"model": "heisenberg"}], "the config must be a JSON object"),
        ("heisenberg", "the config must be a JSON object"),
        (None, "the config must be a JSON object"),
    ])
    def test_document_rule(self, doc, reason):
        with pytest.raises(ValueError, match=reason):
            ModelConfig.from_dict(doc)

    @pytest.mark.parametrize("command, text", [
        ("norms", '{"model": "heisenberg", "nu": 1.0}'),
        ("beta-u", '{"model": "heisenberg", "nu": 1.0}'),
        ("beta-u", '{"model": "heisenberg", "two_j": 2.0}'),
        ("verify", '{"model": "heisenberg", "seed": 3.0}'),
        ("verify", '{"model": "heisenberg", "seed": 1e308}'),
        ("verify", '{"model": "heisenberg", "truncation": {"quad_points": 4.0}}'),
        ("verify", '{"model": "heisenberg", "truncation": {"dyson_order": 2.0}}'),
        ("norms", '{"model": "heisenberg", "window": [4.0]}'),
        ("beta-u", '{"model": "heisenberg", "params": {"J": 1' + "0" * 400 + "}}"),
        ("beta-u", '{"model": ["heisenberg"]}'),
    ])
    def test_rejected_with_one_line(self, tmp_path, capsys, command, text):
        """Configs that once passed the checks and then ended in tracebacks
        (or, for the float window, printed "extents": [4.0])."""
        path = tmp_path / "config.json"
        path.write_text(text)
        suite = {"verify": ["--suite", "kms"]}.get(command, [])
        assert main([command, "--config", str(path), *suite]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config rejected: ")
        assert captured.err.count("\n") == 1

    @given(_DOCUMENTS)
    @settings(max_examples=300, deadline=None)
    def test_any_document_loads_or_raises_value_error(self, doc):
        """Integer fields of a loaded config are ints and its number fields
        finite; any other document raises ValueError, never another error."""
        try:
            config = ModelConfig.from_dict(doc)
        except ValueError:
            return
        integers = [config.nu, config.two_j, config.dyson_order, config.ks_order,
                    config.quad_points, config.seed, *config.window]
        assert all(type(value) is int for value in integers)
        numbers = [config.coupling, config.delta, config.field_strength, config.beta]
        if config.eps != "auto":
            numbers.append(config.eps)
        assert all(not isinstance(value, bool) and math.isfinite(value) for value in numbers)

    def test_import_leaves_jsonschema_out(self, tmp_path):
        """A fresh interpreter loads neither jsonschema nor the verification
        stack to import the CLI, nor to run a threshold command on each
        model (``report`` without ``verify_suites``); nor ``logging``, which
        only an eps scan that falls back to the full grid imports."""
        paths = [write_config(tmp_path, {"model": m}, f"{m}.json") for m in MODELS]
        script = (
            "import contextlib, io, json, sys\n"
            "import kmsbounds.cli as cli\n"
            "unused = ('jsonschema', 'kmsbounds.verify', 'kmsbounds.quantum',\n"
            "          'kmsbounds.centering', 'kmsbounds.classical', 'numpy.polynomial',\n"
            "          'logging')\n"
            "def loaded(): return [name for name in unused if name in sys.modules]\n"
            "at_import = loaded()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main([command, '--config', path]) for path in sys.argv[1:]\n"
            "             for command in ('norms', 'beta-u', 'compare', 'report')]\n"
            "print(json.dumps([at_import, loaded(), codes]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *paths],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": _SRC},
        )
        assert json.loads(proc.stdout) == [[], [], [EXIT_OK] * 4 * len(MODELS)]

    def test_quantum_suite_leaves_classical_out(self, tmp_path):
        """Only the classical-invariance suite imports the classical layer: a
        fresh interpreter that runs ``verify --suite kms`` does not load it."""
        path = write_config(tmp_path, {"model": "heisenberg"})
        script = (
            "import contextlib, io, json, sys\n"
            "import kmsbounds.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['verify', '--suite', 'kms', '--config', sys.argv[1]])\n"
            "print(json.dumps([code, 'kmsbounds.verify' in sys.modules,\n"
            "                  'kmsbounds.classical' in sys.modules]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, path],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": _SRC},
        )
        assert json.loads(proc.stdout) == [EXIT_OK, True, False]


class TestNorms:
    def test_heisenberg_theorem_norm(self):
        doc = cmd_norms(ModelConfig.from_dict(HEISENBERG))
        assert doc["norm_eps_log3"] == pytest.approx(
            3 * math.exp(0.607) * 2 * 0.75, rel=1e-12
        )
        assert doc["norm_eps_log3"] == pytest.approx(8.25, abs=0.01)


class TestBetaU:
    def test_classical_unit_case(self):
        doc = cmd_beta_u(
            ModelConfig.from_dict(
                {"model": "classical_heisenberg", "params": {"J": 1.0, "delta": 1.0}}
            )
        )
        assert doc["beta_u"] == pytest.approx(1.0 / 18.0, rel=1e-12)

    def test_heisenberg_auto_matches_formula(self):
        doc = cmd_beta_u(
            ModelConfig.from_dict({**HEISENBERG, "eps": "auto"})
        )
        eps = doc["eps_star"]
        formula = eps * math.exp(-eps) / (27 * (1 + math.exp(eps)))
        assert eps == pytest.approx(0.607, abs=2e-3)
        assert doc["beta_u"] == pytest.approx(formula, rel=1e-9)

    def test_zero_coupling_inf_token(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"model": "heisenberg", "params": {"J": 0.0}}
        )
        assert main(["beta-u", "--config", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["beta_u"] == "+inf"

    def test_ising_field_independent(self):
        betas = set()
        for field in (0.0, 1.0, 10.0):
            doc = cmd_beta_u(
                ModelConfig.from_dict(
                    {"model": "ising_staggered", "params": {"J": 1.0, "B": field}}
                )
            )
            betas.add(round(doc["beta_u"], 15))
        assert len(betas) == 1

    @pytest.mark.parametrize("eps", ["auto", 0.6])
    def test_ising_zero_coupling_inf_token(self, tmp_path, capsys, eps):
        path = write_config(
            tmp_path, {"model": "ising_staggered", "eps": eps, "params": {"J": 0.0}}
        )
        assert main(["beta-u", "--config", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["beta_u"] == "+inf"
        assert doc["beta_u_operator_norm"] == "+inf"


class TestCompare:
    def test_paper_table_ratios(self):
        doc = cmd_compare(ModelConfig.from_dict(HEISENBERG), paper_table=True)
        rows = {row["model_id"]: row for row in doc["table"]}
        assert rows["heisenberg"]["ratios"]["bratteli_robinson_645"] == pytest.approx(
            0.412, abs=5e-3
        )
        assert rows["ising_staggered"]["ratios"][
            "bratteli_robinson_646"
        ] == pytest.approx(0.027, abs=3e-3)
        assert rows["classical_heisenberg"]["fv_ratio_supremum"] == pytest.approx(
            0.0223, abs=5e-4
        )

    def test_unsupported_model_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": "custom"})
        assert main(["compare", "--config", path]) == EXIT_SCHEMA


class TestDeterminism:
    def test_verify_lemma_bytes_identical(self, tmp_path, capsys):
        path = write_config(tmp_path, HEISENBERG)
        assert main(["verify", "--config", path, "--suite", "lemma1"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["verify", "--config", path, "--suite", "lemma1"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["passed"] is True

    def test_seed_flag_overrides(self, tmp_path, capsys):
        path = write_config(tmp_path, HEISENBERG)
        assert (
            main(["verify", "--config", path, "--suite", "decompose", "--seed", "7"])
            == EXIT_OK
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 7

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_flag_rejected(self, tmp_path, capsys, seed):
        """``--seed`` follows the config's rule for ``seed``; a negative one
        once reached numpy's generator and ended in a traceback."""
        path = write_config(tmp_path, {"model": "heisenberg"})
        assert main(["verify", "--config", path, "--suite", "kms", "--seed", seed]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config rejected: seed must be an integer >= 0\n"


class TestCsv:
    def test_compare_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, HEISENBERG)
        assert main(["compare", "--config", path, "--csv"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "model_id,comparator,eps_star,beta,ratio"
        assert any(line.startswith("heisenberg,bratteli_robinson_645") for line in lines)

    def test_norms_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, HEISENBERG)
        assert main(["norms", "--config", path, "--csv"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "eps,norm_eps,norm_eps_log3"


def _no_bare_constants(token):
    raise ValueError(f"{token} is not valid JSON")


class TestOverflow:
    """Schema-valid configs whose weighted norms leave the float range exit 0
    with valid JSON: overflowing norms are "+inf" and the threshold is 0."""

    BIG_BETA = {"model": "ising_staggered", "beta": 1000, "params": {"B": 1}}
    HUGE_J = {"model": "heisenberg", "params": {"J": 1e308}}

    def run(self, tmp_path, capsys, config, command):
        path = write_config(tmp_path, config)
        assert main([command, "--config", path]) == EXIT_OK
        return json.loads(capsys.readouterr().out, parse_constant=_no_bare_constants)

    @pytest.mark.parametrize("command", ["norms", "beta-u", "compare", "report"])
    def test_ising_large_beta(self, tmp_path, capsys, command):
        doc = self.run(tmp_path, capsys, self.BIG_BETA, command)
        if command == "norms":
            assert doc["norm_eps_log3_zeta"] == "+inf"
            assert math.isfinite(doc["norm_eps_log3"])

    @pytest.mark.parametrize("command", ["norms", "beta-u", "compare", "report"])
    def test_heisenberg_huge_coupling(self, tmp_path, capsys, command):
        doc = self.run(tmp_path, capsys, self.HUGE_J, command)
        if command == "norms":
            assert doc["norm_eps_log3"] == "+inf"
        else:
            assert doc["beta_u"] == 0.0
        if command in ("compare", "report"):
            assert set(doc["ratios"].values()) == {"+inf"}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["norms", "beta-u", "compare", "report"])
    def test_heisenberg_huge_coupling_warns_nothing(self, tmp_path, capsys, command):
        self.run(tmp_path, capsys, self.HUGE_J, command)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["beta-u", "compare", "report"])
    def test_classical_weighted_norm_past_float_range(self, tmp_path, capsys, command):
        """Every motif norm is finite but the weighted norm is not: the
        combined threshold is 0 (was ~tol / 2), as beta_u is."""
        config = {"model": "classical_heisenberg", "nu": 3, "params": {"J": 1e308}}
        doc = self.run(tmp_path, capsys, config, command)
        assert doc["beta_u"] == 0.0
        if command != "beta-u":
            assert doc["comparators"]["combined_quantum_classical"]["beta"] == 0.0
            assert set(doc["ratios"].values()) == {"+inf"}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", ["heisenberg", "ising_staggered", "classical_heisenberg"])
    def test_huge_beta_without_single_site_part(self, tmp_path, capsys, model):
        """zeta = 2 beta overflows to inf, but e^{zeta 0} is 1: with no
        single-site part the zeta-weighted norm is the plain one, not NaN."""
        doc = self.run(tmp_path, capsys, {"model": model, "beta": 1e308}, "norms")
        assert doc["zeta"] == "+inf"
        assert doc["psi_site_norm"] == 0.0
        assert doc["norm_eps_log3_zeta"] == doc["norm_eps_log3"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, config", [
        ("norms", {"model": "ising_staggered", "nu": 1, "two_j": 16, "beta": 7.0,
                   "params": {"B": -1.7e308}}),
        ("beta-u", {"model": "ising_staggered", "nu": 3, "two_j": 3, "eps": 1.0,
                    "params": {"B": 1.7e308}}),
    ])
    def test_single_site_norm_past_float_range(self, tmp_path, capsys, command, config):
        """||psi|| = inf: where zeta = 0 the field drops out (no 0 * inf = NaN),
        so every value but the zeta-weighted norm is the field-free one."""
        doc = self.run(tmp_path, capsys, config, command)
        field_free = self.run(tmp_path, capsys, {**config, "params": {}}, command)
        if command == "norms":
            assert doc.pop("psi_site_norm") == doc.pop("norm_eps_log3_zeta") == "+inf"
            del field_free["psi_site_norm"], field_free["norm_eps_log3_zeta"]
        assert doc == field_free

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_infinite_check_value(self, tmp_path, capsys, monkeypatch, command):
        """A check value of +inf is printed as "+inf" in JSON and in CSV: every
        command's document passes through the same "+inf" rule in ``main``."""
        from kmsbounds.verify import CheckResult

        monkeypatch.setitem(
            SUITES, "kms", lambda seed=0: [CheckResult("stub", True, math.inf, 1.0)]
        )
        path = write_config(tmp_path, {**HEISENBERG, "verify_suites": ["kms"]})
        extra = ["--suite", "kms"] if command == "verify" else []
        assert main([command, *extra, "--config", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out, parse_constant=_no_bare_constants)
        checks = doc["suites"]["kms"] if command == "verify" else doc["checks"]
        assert [c["value"] for c in checks] == ["+inf"]
        assert main([command, "--csv", *extra, "--config", path]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["suite,name,passed,value,threshold", "kms,stub,True,+inf,1.0"]


#: configs whose numbers are finite but whose Heisenberg bond, or a motif's
#: norm |coefficient| x bond norm, is not
TERMS_PAST_FLOAT_RANGE = [
    {"model": "heisenberg", "nu": 2, "two_j": 3, "params": {"delta": 1.7e308}},
    {"model": "heisenberg", "nu": 2, "two_j": 16, "params": {"J": -1e300, "delta": 1e154}},
    {"model": "heisenberg", "two_j": 16, "params": {"J": 2.6e306}},
    {"model": "classical_heisenberg", "params": {"J": 1e300, "delta": 1e300}},
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["norms", "beta-u", "compare", "report"])
@pytest.mark.parametrize("config", TERMS_PAST_FLOAT_RANGE)
def test_term_past_float_range_rejected(tmp_path, capsys, command, config):
    """Such a term once reached LAPACK (DLASCL lines on stdout, eps* at the
    first grid point), raised numpy overflow warnings or, with an infinite
    motif norm, gave eps* at the first grid point and a meaningless beta."""
    path = write_config(tmp_path, config)
    assert main([command, "--config", path]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config rejected: ")
    assert "beyond the float range" in captured.err
    assert captured.err.count("\n") == 1


def test_staggered_ising_term_past_float_range():
    """The staggered-Ising bond J S3 S3 overflows at J = 1e308, 2j = 16:
    building its motif raises; the field-independent threshold never
    builds it."""
    with pytest.raises(FloatRangeError):
        ising_staggered_ti(1, 1e308, 0.0, SpinRep(16))


#: finite JSON numbers that stress the arithmetic: zeros, subnormals, the
#: ends of the float range, and large integers
_EDGE_NUMBERS = st.sampled_from([
    0, 0.0, -0.0, 1, -1, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308, 1e-154,
    1e154, -1e154, 1e300, -1e300, 1.7e308, -1.7976931348623157e308, 10 ** 30,
])
_FINITE = (st.floats(allow_nan=False, allow_infinity=False)
           | st.integers(-(10 ** 308), 10 ** 308) | _EDGE_NUMBERS)
_POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308) | st.sampled_from(
    [5e-324, 1e-300, 1, 1000, 1e308, 1.7976931348623157e308]
)
_EPS = st.just("auto") | st.floats(min_value=5e-324, max_value=10.0) | st.sampled_from(
    [5e-324, 1e-300, 0.607, 10]
)


@st.composite
def _accepted_configs(draw):
    """Configs the CLI accepts, over all three models; no verify suites."""
    nu = draw(st.integers(1, 3))
    params = st.fixed_dictionaries({}, optional=dict.fromkeys(("J", "delta", "B"), _FINITE))
    doc = {"model": draw(st.sampled_from(sorted(MODELS))), "nu": nu,
           "two_j": draw(st.integers(1, 16)), "params": draw(params)}
    for key, values in (("beta", _POSITIVE), ("eps", _EPS),
                        ("window", st.lists(st.integers(1, 8), min_size=nu, max_size=nu))):
        if draw(st.booleans()):
            doc[key] = draw(values)
    return doc


def _strict_numbers(doc):
    """Every number in ``doc`` is finite; the only other scalars are strings
    (such as "+inf"), bools and null."""
    if isinstance(doc, dict):
        return all(_strict_numbers(value) for value in doc.values())
    if isinstance(doc, list):
        return all(_strict_numbers(value) for value in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.filterwarnings("error")
@given(_accepted_configs())
@settings(max_examples=40, deadline=None)
@example(TERMS_PAST_FLOAT_RANGE[0])
@example(TERMS_PAST_FLOAT_RANGE[1])
@example({"model": "ising_staggered", "nu": 1, "two_j": 16, "params": {"J": 1e308}})
@example({"model": "classical_heisenberg", "nu": 3, "two_j": 1, "beta": 1e308,
          "params": {"J": 1e-320, "delta": -1.7e308}})
@example({"model": "classical_heisenberg", "params": {"J": 10 ** 308, "delta": 2}})
def test_threshold_commands_on_accepted_configs(config):
    """``norms``, ``beta-u``, ``compare`` and ``report`` on any accepted
    config, with warnings as errors: no exception, an exit code in
    {0, 2, 3}, strict JSON with finite numbers or "+inf" on success, one
    stderr line otherwise, and the same bytes on a second run."""
    ModelConfig.from_dict(config)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        for command in ("norms", "beta-u", "compare", "report"):
            code, out, err = first = _run_main([command, "--config", path])
            assert code in (0, 2, 3)
            if code == 0:
                assert err == ""
                assert _strict_numbers(json.loads(out, parse_constant=_no_bare_constants))
            else:
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1
            assert _run_main([command, "--config", path]) == first


@st.composite
def _suite_configs(draw):
    """Accepted configs with a drawn seed, truncation and ``verify_suites``,
    and the suite ``verify`` runs on them."""
    doc = draw(_accepted_configs())
    doc["seed"] = draw(st.integers(0, 2 ** 32) | st.sampled_from([0, 10 ** 30]))
    doc["truncation"] = {"dyson_order": draw(st.integers(1, 4)),
                         "ks_order": draw(st.integers(2, 3)),
                         "quad_points": draw(st.integers(2, 32))}
    doc["verify_suites"] = draw(st.lists(st.sampled_from(_SUITE_NAMES), max_size=2))
    return doc, draw(st.sampled_from(_SUITE_NAMES))


@pytest.mark.filterwarnings("error")
@given(_suite_configs())
@settings(max_examples=6, deadline=None)
@example(({"model": "heisenberg", "seed": 3, "verify_suites": ["ks"],
           "truncation": {"dyson_order": 4, "ks_order": 3, "quad_points": 32}}, "dyson"))
def test_suite_commands_on_accepted_configs(drawn):
    """``verify`` with one drawn suite and ``report`` with drawn
    ``verify_suites`` on any accepted config, with warnings as errors: exit
    0 or 1 with strict JSON, or exit 2 or 3 with one stderr line."""
    config, suite = drawn
    ModelConfig.from_dict(config)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        for argv in (["verify", "--suite", suite], ["report"]):
            code, out, err = _run_main([*argv, "--config", path])
            if code in (0, 1):
                assert err == ""
                assert _strict_numbers(json.loads(out, parse_constant=_no_bare_constants))
            else:
                assert code in (2, 3)
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1


def _betas(doc):
    return [doc["beta_u"]] + [c["beta"] for c in doc.get("comparators", {}).values()]


def _eps_stars(doc):
    return [doc["eps_star"]] + [c["eps_star"] for c in doc.get("comparators", {}).values()]


class TestSmallCoupling:
    """Couplings far below 1: the classical thresholds scale as 1/J (the
    bisection once looped forever at J = 1e-9 and its bracket gave up at
    J = 1e-25), and a subnormal Heisenberg coupling keeps the eps* of J = 1
    with beta_u past the float range."""

    def run(self, tmp_path, capsys, config, command):
        path = write_config(tmp_path, config)
        assert main([command, "--config", path]) == EXIT_OK
        return json.loads(capsys.readouterr().out, parse_constant=_no_bare_constants)

    @pytest.mark.parametrize("coupling", [1e-9, 1e-25])
    @pytest.mark.parametrize("command", ["beta-u", "compare", "report"])
    def test_classical_scales_inversely(self, tmp_path, capsys, coupling, command):
        unit = self.run(tmp_path, capsys, {"model": "classical_heisenberg"}, command)
        small = self.run(
            tmp_path, capsys,
            {"model": "classical_heisenberg", "params": {"J": coupling}}, command,
        )
        for got, want in zip(_betas(small), _betas(unit), strict=True):
            assert got * coupling == pytest.approx(want, rel=1e-9)
        for got, want in zip(_eps_stars(small), _eps_stars(unit), strict=True):
            assert got == pytest.approx(want, abs=1e-5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["beta-u", "compare", "report"])
    def test_heisenberg_subnormal_coupling(self, tmp_path, capsys, command):
        unit = self.run(tmp_path, capsys, {"model": "heisenberg"}, command)
        tiny = self.run(
            tmp_path, capsys, {"model": "heisenberg", "params": {"J": 1e-320}}, command
        )
        assert tiny["eps_star"] == unit["eps_star"]
        assert set(_betas(tiny)) == {"+inf"}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["beta-u", "compare"])
    def test_classical_subnormal_coupling(self, tmp_path, capsys, command):
        """The zeta-coupled optimizer scans a subnormal interaction scaled up,
        so it keeps the eps* of J = 1 instead of the first grid point."""
        unit = self.run(tmp_path, capsys, {"model": "classical_heisenberg"}, command)
        tiny = self.run(
            tmp_path, capsys,
            {"model": "classical_heisenberg", "params": {"J": 1e-320}}, command,
        )
        for got, want in zip(_eps_stars(tiny), _eps_stars(unit), strict=True):
            assert got == pytest.approx(want, abs=1e-5)
        assert set(_betas(tiny)) == {"+inf"}


class TestExitCodes:
    def test_verify_failure_exit_one(self, tmp_path, capsys, monkeypatch):
        from kmsbounds.verify import CheckResult

        monkeypatch.setitem(
            SUITES, "lemma1", lambda seed=0: [CheckResult("stub", False, 1.0, 0.0)]
        )
        path = write_config(tmp_path, HEISENBERG)
        assert main(["verify", "--config", path, "--suite", "lemma1"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False

    @pytest.mark.parametrize("flags", [[], ["--csv"]])
    def test_report_failed_check_exit_one(self, tmp_path, capsys, monkeypatch, flags):
        """report prints its whole document and exits 1 when a check it ran
        fails, as verify does."""
        from kmsbounds.verify import CheckResult

        monkeypatch.setitem(
            SUITES, "kms", lambda seed=0: [CheckResult("stub", False, 1.0, 0.0)]
        )
        path = write_config(tmp_path, {**HEISENBERG, "verify_suites": ["lemma1", "kms"]})
        assert main(["report", "--config", path, *flags]) == 1
        out = capsys.readouterr().out
        if flags:
            assert out.splitlines()[0] == "model_id,comparator,eps_star,beta,ratio"
            assert out.splitlines()[-1] == "kms,stub,False,1.0,0.0"
        else:
            doc = json.loads(out)
            assert doc["beta_u"] > 0
            assert [c["passed"] for c in doc["checks"]] == [True, True, False]

    def test_dimension_cap_exit_three(self, tmp_path, monkeypatch):
        import kmsbounds.cli as cli_mod
        from kmsbounds.ti import DimensionCapError

        def boom(config):
            raise DimensionCapError("too big")

        monkeypatch.setattr(cli_mod, "cmd_norms", boom)
        path = write_config(tmp_path, HEISENBERG)
        assert main(["norms", "--config", path]) == 3


class TestWindowNorms:
    def test_interior_matches_closed_form(self, tmp_path, capsys):
        path = write_config(tmp_path, {**HEISENBERG, "window": [5]})
        assert main(["norms", "--config", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["window"]["interior_sup"] == pytest.approx(
            doc["norm_eps"], rel=1e-12
        )
        assert doc["window"]["boundary_sup"] < doc["norm_eps"]

    def test_default_window_has_one_extent_per_direction(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": "heisenberg", "nu": 2})
        assert main(["norms", "--config", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["window"]["extents"] == [4, 4]
        assert doc["window"]["interior_sup"] == pytest.approx(
            doc["norm_eps"], rel=1e-12
        )

    def test_window_dimension_mismatch_rejected(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"model": "heisenberg", "nu": 1, "window": [3, 3]}
        )
        assert main(["norms", "--config", path]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "window" in captured.err


class TestReport:
    def test_report_includes_checks(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {**HEISENBERG, "verify_suites": ["lemma1"]}
        )
        assert main(["report", "--config", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["model_id"] == "heisenberg"
        assert doc["checks"]
        assert all(c["suite"] == "lemma1" for c in doc["checks"])
        assert all(c["passed"] for c in doc["checks"])

    def test_report_without_checks(self, tmp_path, capsys):
        path = write_config(tmp_path, HEISENBERG)
        assert main(["report", "--config", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"] == []
        assert "comparators" in doc

    @pytest.mark.parametrize("order", [1, 2])
    def test_verify_dyson_low_orders(self, tmp_path, capsys, order):
        path = write_config(tmp_path, {**HEISENBERG, "truncation": {"dyson_order": order}})
        assert main(["verify", "--config", path, "--suite", "dyson"]) == EXIT_OK
        (check,) = json.loads(capsys.readouterr().out)["suites"]["dyson"]
        assert check["threshold"] == 11.0 / 16.0 * 2.0 ** (order + 1)

    def test_report_honours_truncation(self, tmp_path, capsys):
        config = {
            **HEISENBERG,
            "verify_suites": ["ks"],
            "truncation": {"quad_points": 2},
        }
        path = write_config(tmp_path, config)
        assert main(["report", "--config", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert main(["verify", "--config", path, "--suite", "ks"]) == EXIT_OK
        verify = json.loads(capsys.readouterr().out)
        assert report["checks"]
        assert all(c.pop("suite") == "ks" for c in report["checks"])
        assert report["checks"] == verify["suites"]["ks"]
