import json
import math
import os
import pathlib
import subprocess
import sys
from importlib import resources

import pytest

import kmsbounds
from kmsbounds.cli import (
    EXIT_OK,
    EXIT_SCHEMA,
    MODELS,
    ModelConfig,
    cmd_beta_u,
    cmd_compare,
    cmd_norms,
    main,
)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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
        schema = json.loads(
            resources.files("kmsbounds").joinpath("config_schema.json").read_text()
        )
        assert set(schema["properties"]["model"]["enum"]) == set(MODELS)

    @pytest.mark.parametrize("truncation", [{"ks_order": 1}, {"dyson_order": 0}])
    def test_truncation_below_minimum_rejected(self, tmp_path, capsys, truncation):
        path = write_config(tmp_path, {**HEISENBERG, "truncation": truncation})
        assert main(["verify", "--config", path, "--suite", "lemma1"]) == EXIT_SCHEMA

    def test_schema_messages_match_fresh_process(self, tmp_path, capsys):
        """The schema validator built once per process reports the same
        errors as a fresh interpreter, for every config it rejects."""
        bad = [{"model": "nonsense"}, {**HEISENBERG, "params": {"J": "strong"}}]
        paths = [write_config(tmp_path, doc, f"bad{i}.json") for i, doc in enumerate(bad)]
        in_process = []
        for path in paths:
            assert main(["norms", "--config", path]) == EXIT_SCHEMA
            in_process.append(capsys.readouterr().err)
        src = pathlib.Path(kmsbounds.__file__).resolve().parent.parent
        run_main = "import sys; from kmsbounds.cli import main; sys.exit(main(sys.argv[1:]))"
        fresh = []
        for path in paths:
            proc = subprocess.run(
                [sys.executable, "-c", run_main, "norms", "--config", path],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            )
            assert proc.returncode == EXIT_SCHEMA
            fresh.append(proc.stderr)
        assert in_process == fresh
        assert all(message.startswith("error: config rejected: ") for message in fresh)


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
    @pytest.mark.parametrize("model", ["heisenberg", "ising_staggered", "classical_heisenberg"])
    def test_huge_beta_without_single_site_part(self, tmp_path, capsys, model):
        """zeta = 2 beta overflows to inf, but e^{zeta 0} is 1: with no
        single-site part the zeta-weighted norm is the plain one, not NaN."""
        doc = self.run(tmp_path, capsys, {"model": model, "beta": 1e308}, "norms")
        assert doc["zeta"] == "+inf"
        assert doc["psi_site_norm"] == 0.0
        assert doc["norm_eps_log3_zeta"] == doc["norm_eps_log3"]


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
        import kmsbounds.cli as cli_mod

        monkeypatch.setitem(
            cli_mod.SUITES, "lemma1", lambda seed=0: [CheckResult("stub", False, 1.0, 0.0)]
        )
        path = write_config(tmp_path, HEISENBERG)
        assert main(["verify", "--config", path, "--suite", "lemma1"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False

    def test_dimension_cap_exit_three(self, tmp_path, monkeypatch):
        import kmsbounds.cli as cli_mod
        from kmsbounds.lattice import DimensionCapError

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
