import csv
import io
import json
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from bineffect import cli, estimators, save_csv, simulation, truth_oracle
from bineffect.cli import build_parser, main
from bineffect.simulation import DgpSpec, sample_dgp


@pytest.fixture
def data_csv(tmp_path):
    data = sample_dgp(DgpSpec(), 120, seed=31)
    path = tmp_path / "obs.csv"
    save_csv(data, path)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def forbid(monkeypatch, module, *names):
    """Make each named function of `module` fail the test if it is called."""

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in names:
        monkeypatch.setattr(module, name, no_work)


def assert_missing_output_dir(code, capsys):
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--output" in err and "does not exist" in err


class TestEstimateCommand:
    def test_aipw_bate_json(self, data_csv, capsys):
        code = run_cli(
            "estimate", "--input", data_csv, "--cutoff", "6", "--direction", "geq",
            "--estimator", "aipw", "--estimand", "bate",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimator"] == "aipw"
        assert payload["estimand"] == "bate"
        assert payload["ci"][0] < payload["point"] < payload["ci"][1]

    def test_missing_cutoff_for_continuous_treatment(self, tmp_path, capsys):
        path = tmp_path / "a_only.csv"
        path.write_text("y,a,w1\n1.0,5.0,0.0\n2.0,7.0,1.0\n")
        code = run_cli("estimate", "--input", str(path), "--estimator", "reg")
        assert code == 1
        assert "--cutoff" in capsys.readouterr().err

    def test_peb_requires_arm(self, data_csv, capsys):
        code = run_cli(
            "estimate", "--input", data_csv, "--cutoff", "6", "--estimand", "peb"
        )
        assert code == 1
        assert "--arm" in capsys.readouterr().err

    def test_estimation_error_exit_code(self, tmp_path, capsys):
        rows = "\n".join(f"{i * 1.0},1,0.5" for i in range(10))
        path = tmp_path / "one_arm.csv"
        path.write_text("y,t,w1\n" + rows + "\n")
        code = run_cli("estimate", "--input", str(path), "--estimator", "reg")
        assert code == 2
        assert "estimation error" in capsys.readouterr().err

    def test_formats_agree(self, data_csv, capsys):
        base = ["estimate", "--input", data_csv, "--cutoff", "6",
                "--estimator", "reg", "--estimand", "peb", "--arm", "1", "--seed", "5"]
        assert run_cli(*base, "--format", "json") == 0
        point_json = json.loads(capsys.readouterr().out)["point"]
        assert run_cli(*base, "--format", "csv") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header, row = lines[0].split(","), lines[1].split(",")
        point_csv = float(row[header.index("point")])
        assert run_cli(*base, "--format", "text-table") == 0
        table = capsys.readouterr().out.split("\n")
        point_text = float(table[1].split()[2])
        assert point_csv == point_json
        assert point_text == float(f"{point_json:.6g}")

    def test_csv_rows_keep_warnings_with_commas_in_one_field(self, tmp_path, capsys):
        path = tmp_path / "overlap.csv"
        save_csv(sample_dgp(DgpSpec(a_mean_slope=4.0), 2000, 1), path)
        base = ["estimate", "--input", str(path), "--cutoff", "6", "--estimator", "reg,aipw"]
        assert run_cli(*base, "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert run_cli(*base, "--format", "csv") == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [len(r) for r in rows] == [11, 11, 11]
        assert any("," in w for w in payload[1]["warnings"])  # the overlap warnings
        for row, report in zip(rows[1:], payload):
            assert row[rows[0].index("warnings")] == ";".join(report["warnings"])

    def test_multiple_estimators(self, data_csv, capsys):
        code = run_cli(
            "estimate", "--input", data_csv, "--cutoff", "6",
            "--estimator", "reg,aipw", "--boot-reps", "20",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["estimator"] for r in payload] == ["reg", "aipw"]

    @pytest.mark.parametrize("estimator", ["ipw", "reg"])
    def test_out_of_range_ci_level_rejected_before_fitting(
        self, data_csv, capsys, monkeypatch, estimator
    ):
        from bineffect import estimators

        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted before the arguments were checked")

        monkeypatch.setattr(estimators, "fit_logistic", no_fit)
        monkeypatch.setattr(estimators, "fit_ols_interacted", no_fit)
        code = run_cli(
            "estimate", "--input", data_csv, "--cutoff", "6", "--estimator", estimator,
            "--ci-level", "1.5", "--boot-reps", "20",
        )
        assert code == 1
        assert "ci_level" in capsys.readouterr().err

    def test_boot_reps_checked_only_when_ipw_runs(self, data_csv, capsys):
        base = ["estimate", "--input", data_csv, "--cutoff", "6", "--boot-reps", "1"]
        assert run_cli(*base, "--estimator", "reg") == 0
        capsys.readouterr()
        assert run_cli(*base, "--estimator", "ipw") == 1
        assert "at least 2 replicates" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["ipw", "reg"])
    def test_negative_seed_is_a_validation_error(self, data_csv, capsys, estimator):
        code = run_cli(
            "estimate", "--input", data_csv, "--cutoff", "6", "--estimator", estimator,
            "--boot-reps", "20", "--seed", "-1",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seed" in err

    def test_missing_output_dir_rejected_before_reading(self, data_csv, tmp_path, capsys, monkeypatch):
        forbid(monkeypatch, cli, "load_csv")
        forbid(monkeypatch, estimators, "fit_ols_interacted", "fit_logistic")
        code = run_cli(
            "estimate", "--input", data_csv, "--cutoff", "6", "--estimator", "reg,ipw",
            "--output", str(tmp_path / "missing" / "x.json"),
        )
        assert_missing_output_dir(code, capsys)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--estimator", "reg,foo"], "unknown estimator 'foo'"),
            (["--estimator", "reg", "--ci-level", "1.5"], "ci_level"),
            (["--estimator", "ipw", "--boot-reps", "1"], "at least 2 replicates"),
        ],
    )
    def test_arguments_rejected_before_reading(self, data_csv, capsys, monkeypatch, flags, message):
        forbid(monkeypatch, cli, "load_csv")
        code = run_cli("estimate", "--input", data_csv, "--cutoff", "6", *flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_env_var_seed(self, data_csv, capsys, monkeypatch):
        monkeypatch.setenv("BINEFFECT_SEED", "777")
        code = run_cli(
            "estimate", "--input", data_csv, "--cutoff", "6", "--estimator", "ipw",
            "--boot-reps", "25",
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 777


class TestTruthCommand:
    def test_default_spec(self, capsys):
        assert run_cli("truth") == 0
        payload = json.loads(capsys.readouterr().out)
        oracle = truth_oracle(DgpSpec())
        assert payload["psi_bate"] == pytest.approx(oracle.psi_bate, abs=1e-12)
        assert payload["psi_bate"] == pytest.approx(202.2985, abs=1e-3)
        assert payload["psi_peb1"] == pytest.approx(89.9585, abs=1e-3)

    def test_text_format(self, capsys):
        assert run_cli("truth", "--format", "text-table") == 0
        out = capsys.readouterr().out
        assert "psi_bate" in out and "202.299" in out


class TestSimulateCommand:
    def test_tiny_run_is_fast_and_well_formed(self, capsys):
        start = time.perf_counter()
        code = run_cli("simulate", "--reps", "2", "--boot-reps", "20", "--seed", "3",
                       "--threads", "1")
        elapsed = time.perf_counter() - start
        assert code == 0
        out = capsys.readouterr().out
        header = out.strip().split("\n")[0]
        assert header.startswith("estimand,n,reg_estimate")
        assert len(out.strip().split("\n")) == 1 + 2 * 3  # two estimands, three sizes
        assert elapsed < 10.0

    def test_byte_identical_outputs(self, tmp_path):
        args = ["simulate", "--reps", "3", "--n", "60,80", "--boot-reps", "15",
                "--seed", "11", "--estimators", "reg,ipw"]
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert run_cli(*args, "--output", str(out1)) == 0
        assert run_cli(*args, "--output", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("value", ["abc", "150,,300", "-5", "60,0"])
    def test_bad_n_is_a_validation_error(self, capsys, value):
        assert run_cli("simulate", "--n", value, "--reps", "2", "--threads", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--n" in err

    def test_negative_seed_is_a_validation_error(self, capsys):
        assert run_cli("simulate", "--reps", "2", "--seed", "-1", "--threads", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seed" in err

    def test_missing_output_dir_rejected_before_any_replicate(self, tmp_path, capsys, monkeypatch):
        forbid(monkeypatch, cli, "run_monte_carlo")
        forbid(monkeypatch, simulation, "sample_dgp")
        code = run_cli("simulate", "--reps", "2", "--n", "60", "--threads", "1",
                       "--output", str(tmp_path / "missing" / "x.csv"))
        assert_missing_output_dir(code, capsys)

    def test_output_that_is_a_directory_rejected_before_any_replicate(self, tmp_path, capsys, monkeypatch):
        forbid(monkeypatch, cli, "run_monte_carlo")
        assert run_cli("simulate", "--reps", "2", "--n", "60", "--output", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is a directory" in err

    def test_json_format(self, capsys):
        code = run_cli("simulate", "--reps", "2", "--n", "60", "--boot-reps", "10",
                       "--seed", "0", "--estimators", "reg", "--estimands", "bate",
                       "--format", "json", "--threads", "1")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["n"] == 60
        assert payload[0]["rows"][0]["estimator"] == "reg"


class TestDensitiesCommand:
    def test_grid_csv(self, capsys):
        code = run_cli("densities", "--arm", "tilde1", "--w", "1", "--grid", "0:12:0.01")
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "a,density"
        grid = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
        dens = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        assert np.all(np.diff(grid) > 0)
        assert np.all(dens[grid < 6.0] == 0.0)
        assert dens[grid >= 6.0].max() > 0.0

    def test_bad_grid(self, capsys):
        assert run_cli("densities", "--w", "0", "--grid", "nope") == 1

    def test_bad_arm(self, capsys):
        assert run_cli("densities", "--w", "0", "--arm", "tilde9") == 1


def _readme_commands() -> list[str]:
    """Every `bineffect ...` command in README's fenced blocks, with `\\`
    continuations joined and a trailing `# ...` comment dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("bineffect "):
                commands.append(shlex.join(shlex.split(line, comments=True)))
    return commands


def test_readme_has_the_simulate_tables_command():
    assert any("simulate --seed 20260809" in c for c in _readme_commands())


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_parses(command):
    build_parser().parse_args(shlex.split(command)[1:])  # parses only; a rejected flag exits
