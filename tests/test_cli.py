"""CLI behavior: exit codes, stream discipline, parity with the library."""

from __future__ import annotations

import ast
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import majdyn
from majdyn import ExperimentConfig, load_graph, run_experiment, write_report
from majdyn.cli import main
from majdyn.harness import _CSV_COLUMNS, report_to_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestDispatch:
    def test_no_command_fails_with_usage(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 1
        assert out == ""
        assert "usage:" in err

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage:" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "run", "--n", "10", "--p", "0.1", "--frob")
        assert code == 1


class TestRun:
    def test_csv_stdout(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--n", "60", "--p", "0.1", "--trials", "3", "--seed", "1"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3
        assert list(rows[0]) == list(_CSV_COLUMNS)
        assert {r["outcome"] for r in rows} <= {"unanimous", "period_two", "day_cap"}
        assert "unanimity fraction" in err  # summaries stay on stderr

    def test_json_stdout_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--n", "60", "--p", "0.1", "--trials", "3",
            "--seed", "1", "--format", "json",
        )
        assert code == 0
        expected = report_to_dict(
            run_experiment(ExperimentConfig(n=60, p=0.1, trials=3, master_seed=1))
        )
        assert json.loads(out) == expected

    def test_output_file_matches_write_report(self, capsys, tmp_path):
        cli_path = tmp_path / "cli.json"
        code, out, _ = run_cli(
            capsys, "run", "--n", "60", "--p", "0.1", "--trials", "3",
            "--seed", "1", "--format", "json", "-o", str(cli_path),
        )
        assert code == 0
        assert out == ""  # data went to the file, not stdout
        lib_path = tmp_path / "lib.json"
        report = run_experiment(ExperimentConfig(n=60, p=0.1, trials=3, master_seed=1))
        write_report(report, lib_path, "json")
        assert cli_path.read_bytes() == lib_path.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_matches_output_file(self, capsys, tmp_path, fmt):
        argv = ["run", "--n", "60", "--p", "0.1", "--trials", "3", "--seed", "1", "--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / f"r.{fmt}"
        assert run_cli(capsys, *argv, "-o", str(path))[0] == 0
        assert out.encode("utf-8") == path.read_bytes()

    def test_p_regime_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--n", "500", "--p-regime", "upper",
            "--p-coefficient", "0.5", "--trials", "2", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["config"]["p_spec"]["exponent"] == -0.5

    def test_conflicting_density_flags(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--n", "100", "--p", "0.1", "--p-regime", "upper"
        )
        assert code == 1
        assert "mutually exclusive" in err

    def test_p_coefficient_without_regime_is_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--n", "200", "--p", "0.05", "--p-coefficient", "5"
        )
        assert code == 1
        assert out == ""
        assert "--p-coefficient" in err and "--p-regime" in err

    def test_missing_n(self, capsys):
        code, _, err = run_cli(capsys, "run", "--p", "0.1")
        assert code == 1
        assert "--n" in err

    def test_invalid_density(self, capsys):
        code, _, err = run_cli(capsys, "run", "--n", "10", "--p", "1.5")
        assert code == 1
        assert "error" in err

    def test_quiet_silences_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--n", "60", "--p", "0.1", "--trials", "2",
            "--seed", "1", "-q",
        )
        assert code == 0
        assert err == ""
        assert len(parse_csv(out)) == 2


class TestConfigFile:
    def test_config_file_with_override(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 60, "p": 0.1, "trials": 2, "master_seed": 1}))
        code, out, _ = run_cli(
            capsys, "run", "--config", str(path), "--trials", "4"
        )
        assert code == 0
        assert len(parse_csv(out)) == 4  # flag beats the file

    def test_unknown_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 60, "p": 0.1, "trails": 2}))
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1
        assert "trails" in err

    def test_repeated_key_exits_1(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n": 60, "p": 0.1, "trials": 3, "trials": 1, '
                        '"model": {"kind": "fixed_discrepancy", "d": 2, "d": 4}}')
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1 and out == ""
        # the model object closes first, so its repeated d is the one named
        assert err == f"majdyn: error: invalid config file {path}: repeated key 'd'\n"

    def test_mistyped_config_exits_1_with_nothing_written(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 60.7, "p": 0.1}))
        report = tmp_path / "report.csv"
        code, out, err = run_cli(capsys, "run", "--config", str(path), "-o", str(report))
        assert code == 1
        assert out == "" and not report.exists()
        assert err == "majdyn: error: config.n must be a JSON int, got 60.7\n"

    @pytest.mark.parametrize("argv, message", [
        (["run", "--n", "60", "--p", "0.1", "--seed", "-1"], "master_seed must be at least 0, got -1"),
        (["gen-graph", "--n", "60", "--p", "0.1", "--seed", "-3", "-o", "g.bin"],
         "--seed must be at least 0, got -"),
        (["verify-lemmas", "--max-trials", "5", "--seed", "-2", "-o", "v.csv"],
         "--seed must be at least 0, got -"),
    ])
    def test_negative_seed_names_its_flag(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == "" and list(tmp_path.iterdir()) == []
        assert len(err.splitlines()) == 1 and message in err

    @pytest.mark.parametrize("p_spec", [
        {"coefficient": 1.0, "exponent": 400.0, "log_power": 0.0},
        {"coefficient": 1.0, "exponent": 0.0, "log_power": 1e308},
    ], ids=["exponent", "log_power"])
    def test_overflowing_density_formula_exits_1(self, capsys, tmp_path, p_spec):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 100, "trials": 2, "p_spec": p_spec}))
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("majdyn: error: p_spec ") and "overflows a float at n=100" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--config", str(tmp_path / "nope.json"))
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--n", "100", "--p", "0.1", "--trials", "2", "--d-values", "1.5"],
         "--d-values: '1.5' is not an integer"),
        (["sweep", "--n", "100", "--trials", "2", "--p-values", "0.1,abc"],
         "--p-values: 'abc' is not a number"),
        (["sweep", "--n", "100", "--p", "0.1", "--trials", "2", "--p-values", "0.1, abc"],
         "--p-values: 'abc' is not a number"),
        (["contraction", "--n", "100", "--p", "0.1", "--trials", "2", "--bias-floor", "x"],
         "--bias-floor: 'x' is not an integer"),
    ])
    def test_malformed_value_names_its_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "-q")
        assert code == 1 and out == ""
        assert err == f"majdyn: error: {message}\n"


class TestSweep:
    def test_d_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "100", "--p", "0.1", "--trials", "5",
            "--seed", "2", "--d-values", "0,10,100",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["d"] for r in rows] == ["0", "10", "100"]
        assert float(rows[-1]["unanimity_fraction"]) == 1.0

    def test_p_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "100", "--trials", "4", "--seed", "2",
            "--p-values", "0.05,0.2",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["p"] for r in rows] == ["0.05", "0.2"]

    @pytest.mark.parametrize("flags, name", [
        (["--d-values", "0,2", "--model", "morning", "--c", "1", "--gamma", "0.1"], "gamma"),
        (["--d-values", "0,2", "--model", "morning", "--c", "1"], "model.kind"),
        (["--d-values", "0,2", "--d", "4"], "model.d"),
        # a --model flag is kept, so only an unnamed model takes the sweep's kind
        (["--d-values", "0,2", "--model", "uniform"], "model.kind"),
    ], ids=["census", "morning", "d", "uniform"])
    def test_d_grid_rejects_a_setting_it_would_replace(self, capsys, flags, name):
        code, out, err = run_cli(capsys, "sweep", "--n", "200", "--p", "0.1", "--trials", "2",
                                 *flags)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and f"would replace the config's {name}:" in err

    @pytest.mark.parametrize("flags, key", [
        (["--n", "100", "--p", "0.05"], "p"),
        (["--n", "100", "--p-regime", "lower"], "p_spec"),
    ], ids=["p", "p-regime"])
    def test_p_grid_rejects_a_base_density_flag(self, capsys, flags, key):
        code, out, err = run_cli(capsys, "sweep", *flags, "--trials", "2", "--p-values", "0.1,0.2")
        assert code == 1 and out == ""
        assert err == (f"majdyn: error: the p sweep would replace the config's {key}: "
                       "each row runs at one p\n")

    @pytest.mark.parametrize("density, key", [
        ({"p": 0.05}, "p"),
        ({"p_spec": {"coefficient": 1.0, "exponent": -0.5, "log_power": 0.0}}, "p_spec"),
    ], ids=["p", "p_spec"])
    def test_p_grid_rejects_a_config_density(self, capsys, tmp_path, density, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 200, "trials": 2, **density}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path), "--p-values", "0.1,0.2")
        assert code == 1 and out == ""
        assert err == (f"majdyn: error: the p sweep would replace the config's {key}: "
                       "each row runs at one p\n")

    def test_p_grid_runs_a_config_without_density(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 100, "trials": 4, "master_seed": 2}))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path), "--p-values", "0.05,0.2")
        assert code == 0
        _, flags, _ = run_cli(capsys, "sweep", "--n", "100", "--trials", "4", "--seed", "2",
                              "--p-values", "0.05,0.2")
        assert [r["p"] for r in parse_csv(out)] == ["0.05", "0.2"]
        assert out == flags

    @pytest.mark.parametrize("flags, flag", [
        (["--p", "0.1", "--d-values", ","], "--d-values"),
        (["--p-values", " , "], "--p-values"),
    ], ids=["d", "p"])
    def test_empty_grid_exits_1(self, capsys, flags, flag):
        code, out, err = run_cli(capsys, "sweep", "--n", "100", "--trials", "2", *flags)
        assert code == 1 and out == ""
        assert err == f"majdyn: error: {flag} is empty\n"

    @pytest.mark.parametrize("flags, message", [
        (["--p", "0.1", "--d-values", "0,2,102"], "opinion sum d must lie in -100..100, got 102"),
        (["--p-values", "0.05,2.0"], "p must lie in (0, 1], got 2.0"),
    ], ids=["d", "p"])
    def test_a_bad_last_grid_value_exits_1_with_no_rows(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "sweep", "--n", "100", "--trials", "2", *flags)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and message in err

    def test_a_row_without_unanimous_trials_leaves_its_cells_empty(self, capsys):
        # mean degree 4 leaves isolated vertices of both signs, so no trial
        # ends unanimous: the median day and the sign share are missing, and
        # a missing value is an empty cell, not 0.0 or None
        code, out, _ = run_cli(capsys, "sweep", "--n", "2000", "--p", "0.002", "--trials", "5",
                               "--seed", "2", "--d-values", "0,10", "-q")
        assert code == 0
        assert out.splitlines()[1:] == ["0,5,0.0,,", "10,5,0.0,,"]

    def test_requires_exactly_one_grid(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n", "100", "--p", "0.1")
        assert code == 1
        code, _, err = run_cli(
            capsys, "sweep", "--n", "100", "--p", "0.1",
            "--d-values", "0", "--p-values", "0.1",
        )
        assert code == 1


class TestExperimentCommands:
    def test_census(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--n", "200", "--p", "0.1", "--trials", "4",
            "--seed", "3", "--gamma", "0.1", "--c", "1.0",
        )
        assert code == 0
        rows = parse_csv(out)
        keys = [r["key"] for r in rows]
        assert "alpha_hat_q50" in keys and "positive_excess_fraction" in keys

    @pytest.mark.parametrize("model", ["uniform", "fixed"])
    def test_census_rejects_a_model_it_would_replace(self, capsys, model):
        code, out, err = run_cli(capsys, "census", "--n", "200", "--p", "0.1", "--gamma", "0.1",
                                 "--c", "1", "--trials", "2", "--model", model)
        assert code == 1 and out == ""
        assert err == ("majdyn: error: census threshold gamma applies only to the "
                       "morning_evening model\n")

    def test_census_rejects_a_config_model_of_another_kind(self, capsys, tmp_path):
        # only a model of the default kind takes the census's kind
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 200, "p": 0.1, "trials": 2, "gamma": 0.1,
                                    "model": {"kind": "fixed_discrepancy"}}))
        code, out, err = run_cli(capsys, "census", "--config", str(path))
        assert code == 1 and out == ""
        assert err == ("majdyn: error: census threshold gamma applies only to the "
                       "morning_evening model\n")

    def test_quenched_census_table_bytes_across_worker_counts(self, capsys):
        argv = ["census", "--n", "2000", "--p", "0.01", "--trials", "4", "--quenched",
                "--c", "1", "--gamma", "0.1", "--seed", "7", "-q"]
        one, two = [run_cli(capsys, *argv, "--workers", workers) for workers in ("1", "2")]
        assert one[0] == 0 and one[1]
        assert one == two

    def test_census_takes_the_morning_model_flag(self, capsys):
        argv = [*TABLE_COMMANDS["census"], "-q"]
        assert run_cli(capsys, *argv, "--model", "morning")[:2] == run_cli(capsys, *argv)[:2]

    def test_census_requires_gamma(self, capsys):
        code, _, err = run_cli(
            capsys, "census", "--n", "200", "--p", "0.1", "--trials", "2"
        )
        assert code == 1
        assert "gamma" in err

    def test_growth(self, capsys):
        code, out, _ = run_cli(
            capsys, "growth", "--n", "200", "--p", "0.1", "--trials", "5", "--seed", "4"
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["day"] for r in rows] == ["0", "1", "2"]

    def test_contraction_explicit_floor(self, capsys):
        code, out, err = run_cli(
            capsys, "contraction", "--n", "300", "--p", "0.1", "--trials", "5",
            "--seed", "5", "--bias-floor", "10",
        )
        assert code == 0
        assert "qualifying trials" in err
        for row in parse_csv(out):
            assert float(row["minority_share_next"]) >= 0.0

    def test_contraction_auto_floor(self, capsys):
        code, _, err = run_cli(
            capsys, "contraction", "--n", "300", "--p", "0.2", "--trials", "3",
            "--seed", "5",
        )
        assert code == 0
        assert "auto bias floor" in err

    def test_gen_graph_round_trip(self, capsys, tmp_path):
        path = tmp_path / "g.bin"
        code, _, err = run_cli(
            capsys, "gen-graph", "--n", "500", "--p", "0.05", "--seed", "9",
            "-o", str(path),
        )
        assert code == 0
        g = load_graph(path)
        assert g.n == 500
        assert f"edges={g.edge_count}" in err
        g.validate()

    def test_gen_graph_rejects_more_vertices_than_int32_ids(self, capsys, tmp_path):
        # rejected before the sampler allocates anything
        path = tmp_path / "g.bin"
        code, out, err = run_cli(capsys, "gen-graph", "--n", str(2**31 + 1), "--p", "0.1",
                                 "-o", str(path))
        assert code == 1 and out == "" and not path.exists()
        assert len(err.splitlines()) == 1 and "n must lie in 1..2147483648, got 2147483649" in err

    def test_gen_graph_requires_output(self, capsys):
        code, _, _ = run_cli(capsys, "gen-graph", "--n", "10", "--p", "0.1")
        assert code == 1


class TestVerifyLemmas:
    def test_small_sweep_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify-lemmas", "--max-trials", "25")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 8
        assert all(r["result"] == "PASS" for r in rows)
        assert "checks passed" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-lemmas", "--max-trials", "10", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert {r["check"] for r in data["rows"]} == {
            "chernoff-tails", "psi-contraction", "psi-pair-lower-bound",
            "binom-shift", "equality-prob", "coupling-sandwich",
            "four-rv", "berry-esseen",
        }


    def test_output_bytes_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "verify-lemmas", "--max-trials", "25", "--seed", "3")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "d497b258f40a4fd28db4b386de3652ee0c4485c92ba49574d98e7fcc7c17a524"

    def test_benchmark_shape_bytes_pinned(self, capsys):
        # 200 cases per check and the default seed, as the lemma_sweeps
        # workload runs it; equality-prob reads two linear sums, not a law
        code, out, _ = run_cli(capsys, "verify-lemmas", "--max-trials", "200")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "d2227f89393d080e24418ef25a31d6a6b1690fa2c8472f0244d5609ecd9bc847"

    def test_stats_fallback_gives_the_pinned_bytes(self, capsys, monkeypatch):
        # without scipy's private binomial ufunc the masses come from
        # scipy.stats.binom.pmf, byte for byte the same table
        monkeypatch.setattr(majdyn.probkit, "_binom_pmf", lambda: None)
        code, out, _ = run_cli(capsys, "verify-lemmas", "--max-trials", "25", "--seed", "3")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "d497b258f40a4fd28db4b386de3652ee0c4485c92ba49574d98e7fcc7c17a524"

    def test_leaves_scipy_stats_unloaded(self):
        src_dir = str(Path(majdyn.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src_dir)
        script = ("import sys; from majdyn.cli import main; "
                  "code = main(['verify-lemmas', '--max-trials', '5', '-q']); "
                  "print(code, 'scipy.stats' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"


# every command whose output is a table of rows, with small fixed arguments
TABLE_COMMANDS = {
    "census": ["census", "--n", "200", "--p", "0.1", "--trials", "4", "--seed", "3",
               "--gamma", "0.1", "--c", "1.0"],
    "growth": ["growth", "--n", "200", "--p", "0.1", "--trials", "5", "--seed", "4"],
    "d-sweep": ["sweep", "--n", "100", "--p", "0.1", "--trials", "5", "--seed", "2",
                "--d-values", "0,10,100"],
    "p-sweep": ["sweep", "--n", "100", "--trials", "4", "--seed", "2", "--p-values", "0.05,0.2"],
    "contraction": ["contraction", "--n", "300", "--p", "0.1", "--trials", "5", "--seed", "5",
                    "--bias-floor", "10"],
    "verify-lemmas": ["verify-lemmas", "--max-trials", "10", "--seed", "3"],
}

# sha256 of each table's stdout, taken when the CLI still had its own writer
TABLE_DIGESTS = {
    ("census", "csv"): "9984a186b959e45ad89cde2f5316b937693bbf3b2ebf240753d15b4b33a1d78b",
    ("census", "json"): "5821a06615b02324fe3069100579e43bcd336afb5f82ac677a256281f23c6914",
    ("growth", "csv"): "3a739c21710da3b79aae0885fb705dd7e68de03f5a1a1271330e3ec045c42e66",
    ("growth", "json"): "51d597c3191487fdf49b205a39ecba5063e1178b5e0cc57ce8e91ca1694541c3",
    ("d-sweep", "csv"): "e589f2c1c45aac523a74cfd356fcf8b43720cc78849d9b51f3c903c7fef5b2e5",
    ("d-sweep", "json"): "1a98421bd65927e62f72fb1191eb6614537da4311e4d40a185af2607f66f35cf",
    ("p-sweep", "csv"): "2d19d05e0cf26dee81eb86a2dfd9313da79d73fe3bb608be160f9439feffec47",
    ("p-sweep", "json"): "e8c3f545f4c79128ca3679e8ffe201c42440d9ccec4b1c420f0aaac1f4fc8123",
    ("contraction", "csv"): "9c02081a93295db01e1d23a4972c3536372ef34c1f56cf2a883bcb04cc303acf",
    # minority_by_day is a list of ints, as bias_by_day is in run reports
    ("contraction", "json"): "69898faa8f452135cc803b1da4e3e4a3673f5f9ce76da4c6e76ebaece43058fa",
}


class TestTables:
    @pytest.mark.parametrize("name, fmt", sorted(TABLE_DIGESTS))
    def test_stdout_bytes_pinned(self, capsys, name, fmt):
        code, out, _ = run_cli(capsys, *TABLE_COMMANDS[name], "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[name, fmt]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(TABLE_COMMANDS))
    def test_stdout_matches_output_file(self, capsys, tmp_path, name, fmt):
        argv = [*TABLE_COMMANDS[name], "--format", fmt, "-q"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
        path = tmp_path / f"t.{fmt}"
        code, file_out, _ = run_cli(capsys, *argv, "-o", str(path))
        assert code == 0 and file_out == ""
        assert out.encode("utf-8") == path.read_bytes()

    @pytest.mark.parametrize("name", sorted(TABLE_COMMANDS))
    def test_unwritable_output_is_runtime_failure(self, capsys, tmp_path, name):
        path = tmp_path / "no_dir" / "t.csv"
        code, out, err = run_cli(capsys, *TABLE_COMMANDS[name], "-q", "-o", str(path))
        assert code == 2
        assert out == ""
        assert str(path) in err

    def test_census_switches_the_model_before_validating(self, capsys, tmp_path):
        # a c on the default (uniform) model is the census's swing
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 200, "p": 0.1, "trials": 4, "master_seed": 3,
                                    "model": {"c": 1.0}, "gamma": 0.1}))
        code, out, _ = run_cli(capsys, "census", "--config", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS["census", "csv"]


class TestModelParameters:
    @pytest.mark.parametrize("flags", [
        ["--c", "5"],
        ["--model", "uniform", "--c", "1"],
        ["--model", "fixed", "--d", "5", "--c", "1"],
        ["--model", "morning", "--d", "7"],
        ["--model", "uniform", "--d", "7"],
    ])
    def test_flag_the_model_ignores_is_rejected(self, capsys, flags):
        code, out, err = run_cli(capsys, "run", "--n", "61", "--p", "0.1", "--trials", "2", *flags)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and "applies only to the" in err

    @pytest.mark.parametrize("extra", [
        {"model": {"kind": "fixed_discrepancy", "c": 1.0}},
        {"model": {"kind": "uniform", "c": 1.0}},
        {"model": {"kind": "morning_evening", "d": 3}},
    ])
    def test_config_value_the_model_ignores_is_rejected(self, capsys, tmp_path, extra):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 61, "p": 0.1, "trials": 2, **extra}))
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and "applies only to the" in err

    @pytest.mark.parametrize("flags", [
        [],
        ["--model", "uniform"],
        ["--model", "fixed", "--d", "1"],
    ])
    def test_gamma_flag_off_the_census_model_is_rejected(self, capsys, flags):
        code, out, err = run_cli(capsys, "run", "--n", "61", "--p", "0.1", "--trials", "2",
                                 "--gamma", "0.1", *flags)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and "gamma applies only to the" in err

    @pytest.mark.parametrize("model", [None, {"kind": "uniform"},
                                       {"kind": "fixed_discrepancy", "d": 1}])
    def test_gamma_config_off_the_census_model_is_rejected(self, capsys, tmp_path, model):
        doc = {"n": 61, "p": 0.1, "trials": 2, "gamma": 0.1}
        if model is not None:
            doc["model"] = model
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and "gamma applies only to the" in err

    def test_gamma_on_the_census_model_runs_the_census(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--n", "61", "--p", "0.1", "--trials", "2",
                               "--model", "morning", "--c", "1", "--gamma", "0.1")
        assert code == 0
        assert all(row["alpha_hat"] != "" for row in parse_csv(out))

    @pytest.mark.parametrize("command", ["run", "census"])
    @pytest.mark.parametrize("flags, field", [
        (["--c", "1", "--gamma", "nan"], "gamma"),
        (["--c", "1", "--gamma", "inf"], "gamma"),
        (["--c", "nan", "--gamma", "0.1"], "c"),
        (["--c", "inf", "--gamma", "0.1"], "c"),
        (["--c=-inf", "--gamma", "0.1"], "c"),
    ])
    def test_non_finite_coefficient_flag_is_rejected(self, capsys, command, flags, field):
        code, out, err = run_cli(capsys, command, "--n", "60", "--p", "0.1", "--trials", "2",
                                 "--model", "morning", *flags)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and f"{field} must be finite" in err

    @pytest.mark.parametrize("doc, field", [
        ({"model": {"kind": "morning_evening", "c": 1.0}, "gamma": math.nan}, "gamma"),
        ({"model": {"kind": "morning_evening", "c": math.nan}}, "c"),
        ({"model": {"kind": "morning_evening", "c": math.inf}}, "c"),
    ])
    def test_non_finite_coefficient_config_is_rejected(self, capsys, tmp_path, doc, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 60, "p": 0.1, "trials": 2, **doc}))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and f"{field} must be finite" in err

    @pytest.mark.parametrize("doc, message", [
        ({"model": {"kind": "morning_evening"}, "c": 1.0}, "unknown config keys: c"),
        ({"model": {"kind": "uniform", "seed": 3}}, "unknown model keys: seed"),
    ], ids=["top-level-c", "model-seed"])
    def test_key_without_a_field_is_rejected(self, capsys, tmp_path, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 60, "p": 0.1, "trials": 2, **doc}))
        for command in ("run", "census"):
            code, out, err = run_cli(capsys, command, "--config", str(path), "--gamma", "0.1")
            assert code == 1 and out == ""
            assert err == f"majdyn: error: {message}\n"

    def test_outputs_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 60, "p": 0.1, "outputs": ["json"]}))
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1
        assert out == ""
        assert "outputs" in err


class TestFailurePaths:
    @staticmethod
    def _failing_run(monkeypatch, fail_trials):
        real = majdyn.harness.run
        calls = []

        def run(g, s0, day_cap, reference=None):
            calls.append(None)
            if len(calls) in fail_trials:
                raise RuntimeError("forced")
            return real(g, s0, day_cap, reference=reference)

        monkeypatch.setattr(majdyn.harness, "run", run)

    def test_every_trial_failing_exits_2(self, capsys, monkeypatch, tmp_path):
        self._failing_run(monkeypatch, {1, 2, 3})
        out_path = tmp_path / "r.csv"
        code, _, err = run_cli(
            capsys, "run", "--n", "40", "--p", "0.1", "--trials", "3", "-o", str(out_path),
        )
        assert code == 2
        assert "errors 3" in err and "RuntimeError: forced" in err
        rows = parse_csv(out_path.read_text())
        assert [r["outcome"] for r in rows] == ["error"] * 3

    def test_some_trials_failing_exits_0(self, capsys, monkeypatch):
        self._failing_run(monkeypatch, {2})
        code, out, err = run_cli(capsys, "run", "--n", "40", "--p", "0.1", "--trials", "3")
        assert code == 0
        assert "errors 1" in err
        assert [r["outcome"] for r in parse_csv(out)].count("error") == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_trial_stdout_matches_output_file(self, capsys, monkeypatch, tmp_path, fmt):
        real = majdyn.harness.run

        def run(g, s0, day_cap, reference=None):  # fails the same trials on every invocation
            if s0.signs()[0] > 0:
                raise RuntimeError('bad, "quoted" value')
            return real(g, s0, day_cap, reference=reference)

        monkeypatch.setattr(majdyn.harness, "run", run)
        argv = ["run", "--n", "40", "--p", "0.1", "--trials", "6", "--seed", "5", "--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = json.loads(out)["trials"] if fmt == "json" else parse_csv(out)
        errors = [r["error"] for r in rows if r["outcome"] == "error"]
        assert 0 < len(errors) < len(rows)
        assert set(errors) == {'RuntimeError: bad, "quoted" value'}
        path = tmp_path / f"r.{fmt}"
        assert run_cli(capsys, *argv, "-o", str(path))[0] == 0
        assert out.encode("utf-8") == path.read_bytes()

    def test_unwritable_output_is_runtime_failure(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--n", "40", "--p", "0.1", "--trials", "1",
            "-o", str(tmp_path / "no_dir" / "x.csv"),
        )
        assert code == 2
        assert "no_dir" in err

    def test_unwritable_aggregates_leave_no_report(self, capsys, tmp_path):
        (tmp_path / "out.aggregates.csv").mkdir()
        code, _, err = run_cli(
            capsys, "run", "--n", "40", "--p", "0.1", "--trials", "2", "-o", str(tmp_path / "out.csv"),
        )
        assert code == 2
        assert "out.aggregates.csv" in err
        assert sorted(os.listdir(tmp_path)) == ["out.aggregates.csv"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "majdyn.cli", "run", "--n", "40", "--p", "0.1",
         "--trials", "2", "--seed", "0"],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 3


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a second to import; only probkit's binomial
    # masses need it, so a plain import must not pull it in
    src_dir = str(Path(majdyn.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, majdyn; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _src_env():
    """Environment whose PYTHONPATH puts this checkout's majdyn first."""
    return dict(os.environ, PYTHONPATH=str(Path(majdyn.__file__).resolve().parent.parent))


@pytest.mark.parametrize("trials", ["2", "300"])
def test_closed_stdout_ends_quietly(trials):
    # the reader is gone before the child writes a byte, whether the report
    # still sits in stdout's buffer at the end (2 trials) or overflows it
    proc = subprocess.Popen(
        [sys.executable, "-m", "majdyn.cli", "run", "--n", "200", "--p", "0.05",
         "--trials", trials, "-q"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_src_env(),
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == ""


def test_closed_stderr_still_writes_the_report(tmp_path):
    # the progress lines are lost, the report and the exit code are not
    path = tmp_path / "r.csv"
    proc = subprocess.Popen(
        [sys.executable, "-m", "majdyn.cli", "run", "--n", "40", "--p", "0.1",
         "--trials", "2", "-o", str(path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_src_env(),
    )
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert len(parse_csv(path.read_text())) == 2


class TestColdStart:
    """``import majdyn`` loads numpy only; each command loads the part of
    scipy it uses, when it first uses it."""

    @staticmethod
    def _loaded(code: str) -> list[str]:
        script = (f"import sys\n{code}\n"
                  "print(' '.join(sorted(m for m in sys.modules "
                  "if m.split('.')[0] in ('scipy', 'concurrent'))))")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1].split()

    def test_import_loads_no_scipy_and_no_process_pool(self):
        loaded = self._loaded("import majdyn")
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
        assert "concurrent.futures.process" not in loaded

    def test_verify_lemmas_leaves_scipy_sparse_unloaded(self, tmp_path):
        loaded = self._loaded(
            "from majdyn.cli import main\n"
            f"assert main(['verify-lemmas', '--max-trials', '5', '-q', '-o', {str(tmp_path / 'v.csv')!r}]) == 0")
        assert "scipy.special" in loaded
        assert [m for m in loaded if m.startswith("scipy.sparse")] == []

    def test_no_module_has_a_global_statement(self):
        # lazy loads are plain imports, which Python's import cache makes
        # cheap, so no module needs state of its own to hold them
        src = Path(majdyn.__file__).resolve().parent
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(src.rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Global)]
        assert found == []

    def test_run_leaves_scipy_special_unloaded(self, tmp_path):
        loaded = self._loaded(
            "from majdyn.cli import main\n"
            f"assert main(['run', '--n', '200', '--p', '0.05', '--trials', '2', '-q', "
            f"'-o', {str(tmp_path / 'r.csv')!r}]) == 0")
        assert "scipy.sparse" in loaded
        assert [m for m in loaded if m.startswith("scipy.special")] == []
        assert "concurrent.futures.process" not in loaded
