import csv
import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bineffect import EstimandSpec, cli, estimators, save_csv, simulation, truth_oracle
from bineffect.cli import build_parser, main
from bineffect.simulation import DgpSpec, mc_results_to_csv, run_monte_carlo, sample_dgp
from conftest import forbid, make_dataset


@pytest.fixture
def data_csv(tmp_path):
    data = sample_dgp(DgpSpec(), 120, seed=31)
    path = tmp_path / "obs.csv"
    save_csv(data, path)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


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

    @pytest.mark.parametrize("cutoff", ["0.5", "100"])
    def test_cutoff_without_a_continuous_treatment_is_an_error(self, tmp_path, capsys, cutoff):
        path = tmp_path / "t_only.csv"
        save_csv(make_dataset(n=200, p=1, seed=3), path)
        code = run_cli("estimate", "--input", str(path), "--cutoff", cutoff, "--direction", "lt")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "column 'a'" in captured.err

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

    @pytest.mark.parametrize("n", [2_000, 20_000])
    def test_one_positivity_warning_per_report_whatever_n(self, tmp_path, capsys, n):
        path = tmp_path / "overlap.csv"
        save_csv(sample_dgp(DgpSpec(a_mean_slope=4.0), n, 7), path)
        code = run_cli(
            "estimate", "--input", str(path), "--cutoff", "6",
            "--estimator", "reg,ipw,aipw,tmle", "--boot-reps", "20",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        positivity = {
            r["estimator"]: [w for w in r["warnings"] if w.startswith("propensity outside")]
            for r in payload
        }
        assert {name: len(found) for name, found in positivity.items()} == {
            "reg": 0, "ipw": 1, "aipw": 1, "tmle": 1,
        }
        assert payload[0]["warnings"] == []
        assert f" of {n} units (0 below, " in positivity["ipw"][0]

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

        monkeypatch.setattr(estimators, "logistic_fits", no_fit)
        monkeypatch.setattr(estimators, "ols_fits", no_fit)
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
        forbid(monkeypatch, estimators, "ols_fits", "logistic_fits")
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
            (["--estimand", "bate", "--arm", "0"], "--arm applies only to --estimand peb"),
            (["--estimator", "ipw,ipw"], "estimator 'ipw' is named more than once"),
        ],
    )
    def test_arguments_rejected_before_reading(self, data_csv, capsys, monkeypatch, flags, message):
        forbid(monkeypatch, cli, "load_csv")
        code = run_cli("estimate", "--input", data_csv, "--cutoff", "6", *flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("kind", ["directory", "latin1"])
    def test_unreadable_input_is_a_validation_error(self, tmp_path, capsys, kind):
        path = tmp_path
        if kind == "latin1":
            path = tmp_path / "latin1.csv"
            path.write_bytes(b"y,t,w1\n1.5,0,2\n2.5,1,\xe93\n")
        assert run_cli("estimate", "--input", str(path), "--estimator", "reg") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

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


DGP_SUBCOMMANDS = {"truth": [], "simulate": [], "densities": ["--w", "1"]}
DGP_FIELDS = [f for f in dataclasses.fields(DgpSpec) if f.name != "outcome_fn"]


class TestDgpFlags:
    """The generating-process flags are DgpSpec's numeric fields, with its defaults."""

    @pytest.mark.parametrize("subcommand", list(DGP_SUBCOMMANDS))
    def test_parser_defaults_are_the_spec_defaults(self, subcommand):
        args = build_parser().parse_args([subcommand, *DGP_SUBCOMMANDS[subcommand]])
        assert {f.name: getattr(args, f.name) for f in DGP_FIELDS} == {
            f.name: getattr(DgpSpec(), f.name) for f in DGP_FIELDS
        }

    @pytest.mark.parametrize(
        "field, value",
        [("w_prob", 0.4), ("a_mean_base", 5.5), ("a_mean_slope", 1.5), ("a_sd", 1.2), ("cutoff", 6.5)],
    )
    def test_each_flag_sets_its_field(self, field, value, capsys):
        assert run_cli("truth", f"--{field.replace('_', '-')}", str(value)) == 0
        expected = truth_oracle(DgpSpec(**{field: value})).to_dict()
        assert json.loads(capsys.readouterr().out) == expected

    @pytest.mark.parametrize(
        "argv, forbidden",
        [
            (["truth", "--a-sd", "nan"], "truth_oracle"),
            (["truth", "--a-sd", "inf"], "truth_oracle"),
            (["truth", "--a-mean-base", "nan"], "truth_oracle"),
            (["densities", "--w", "1", "--a-mean-slope", "nan"], "density_curve"),
            (["simulate", "--reps", "2", "--threads", "1", "--noise-sd", "inf"], "run_monte_carlo"),
        ],
    )
    def test_non_finite_parameter_rejected_before_any_work(self, argv, forbidden, capsys, monkeypatch):
        forbid(monkeypatch, cli, forbidden)
        assert run_cli(*argv) == 1
        out, err = capsys.readouterr()
        field = argv[-2][2:].replace("-", "_")
        assert out == "" and err.startswith(f"error: {field} must be finite")


OUTPUT_CALLS = {
    "estimate": ["--cutoff", "6", "--estimator", "reg,ipw", "--boot-reps", "20", "--seed", "2"],
    "truth": [],
    "simulate": ["--reps", "2", "--n", "40", "--estimators", "reg", "--estimands", "bate,peb0",
                 "--threads", "1", "--seed", "4"],
    "densities": ["--w", "0", "--grid", "3:9:0.5"],
}
OUTPUT_FORMATS = {"estimate": ["json", "csv", "text-table"], "truth": ["json", "csv", "text-table"],
                  "simulate": ["json", "csv", "text-table"], "densities": ["json", "csv"]}


@pytest.mark.parametrize(
    "subcommand, fmt", [(cmd, fmt) for cmd, formats in OUTPUT_FORMATS.items() for fmt in formats]
)
def test_output_file_holds_the_stdout_bytes(subcommand, fmt, data_csv, tmp_path, capsys):
    argv = [subcommand, *OUTPUT_CALLS[subcommand], "--format", fmt]
    if subcommand == "estimate":
        argv += ["--input", data_csv]
    assert run_cli(*argv) == 0
    stdout = capsys.readouterr().out
    path = tmp_path / "out.txt"
    assert run_cli(*argv, "--output", str(path)) == 0
    assert capsys.readouterr().out == ""
    assert stdout and path.read_bytes() == stdout.encode("utf-8")


def estimate_under_one_and_two_blas_threads(path, *args):
    """stdout of `bineffect estimate` with all four estimators on `path`,
    run once with BLAS on one thread and once on two."""
    argv = [
        sys.executable, "-m", "bineffect", "estimate", "--input", str(path),
        "--estimator", "reg,ipw,aipw,tmle", "--seed", "3", *args,
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        run = subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
        outputs.append(run.stdout)
    assert [r["estimator"] for r in json.loads(outputs[0])] == ["reg", "ipw", "aipw", "tmle"]
    return outputs


def test_estimate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The fits and their sums reduce over units or cells, some through BLAS.
    `bineffect estimate` must print the same bytes whether BLAS runs on one
    thread or two."""
    path = tmp_path / "binary_w.csv"
    save_csv(sample_dgp(DgpSpec(a_mean_slope=4.0), 20_000, seed=5), path)
    outputs = estimate_under_one_and_two_blas_threads(path, "--cutoff", "6", "--boot-reps", "400")
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def continuous_1e5_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("continuous") / "p3.csv"
    save_csv(make_dataset(n=100_000, p=3, seed=0), path)
    return path


@pytest.mark.parametrize(
    "estimand", [["--estimand", "bate"], ["--estimand", "peb", "--arm", "1"]], ids=["bate", "peb1"]
)
def test_continuous_estimate_bytes_do_not_depend_on_the_blas_thread_count(continuous_1e5_csv, estimand):
    """At 1e5 units with three normal covariates every unit is its own cell,
    so BLAS would split any product over the units between its threads."""
    outputs = estimate_under_one_and_two_blas_threads(continuous_1e5_csv, "--boot-reps", "20", *estimand)
    assert outputs[0] and outputs[0] == outputs[1]


def test_quoted_header_prints_the_bytes_of_the_unquoted_one(tmp_path, capsys):
    """A quoted header sends a file to the row loop instead of the
    `np.loadtxt` pass; both must give the same estimates to the byte."""
    rng = np.random.default_rng(2)
    w = rng.normal(size=(300, 3))
    t = (rng.random(300) < 1.0 / (1.0 + np.exp(-w.sum(axis=1)))).astype(float)
    lines = ["y,t,w1,w2,w3"] + [
        ",".join(repr(float(v)) for v in row)
        for row in np.column_stack([t + w @ [0.5, -0.3, 0.2] + rng.normal(size=300), t, w])
    ]
    outputs = []
    for name, header in (("plain.csv", lines[0]), ("quoted.csv", '"y","t","w1","w2","w3"')):
        path = tmp_path / name
        path.write_text("\n".join([header, *lines[1:]]) + "\n")
        assert run_cli("estimate", "--input", str(path), "--estimator", "reg,ipw,aipw,tmle",
                       "--boot-reps", "50", "--seed", "1") == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs[0] == outputs[1]


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

    def test_thread_count_does_not_change_the_bytes(self, capsys):
        """One process or two: each replicate's numbers, ipw's bootstrap
        refits included, do not depend on the chunk it runs in."""
        outputs = []
        for threads in ("1", "2"):
            assert run_cli("simulate", "--reps", "8", "--n", "20,150", "--boot-reps", "30", "--seed", "4",
                           "--estimators", "reg,ipw", "--estimands", "bate,peb1,peb0", "--format", "json",
                           "--threads", threads) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", ["abc", "150,,300", "-5", "60,0"])
    def test_bad_n_is_a_validation_error(self, capsys, value):
        assert run_cli("simulate", "--n", value, "--reps", "2", "--threads", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--n" in err

    def test_negative_seed_is_a_validation_error(self, capsys):
        assert run_cli("simulate", "--reps", "2", "--seed", "-1", "--threads", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seed" in err

    @pytest.mark.parametrize(
        "flag, names, repeated",
        [("--estimators", "reg,ipw,reg", "estimator 'reg'"), ("--estimands", "bate,bate", "estimand 'bate'")],
        ids=["estimators", "estimands"],
    )
    def test_a_repeated_estimator_is_a_validation_error(self, capsys, monkeypatch, flag, names, repeated):
        forbid(monkeypatch, simulation, "truth_oracle", "sample_dgp")
        assert run_cli("simulate", "--reps", "2", "--n", "60", flag, names, "--threads", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{repeated} is named more than once" in err

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

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected_before_any_replicate(self, capsys, monkeypatch, threads):
        forbid(monkeypatch, simulation, "truth_oracle", "sample_dgp")
        assert run_cli("simulate", "--reps", "2", "--n", "60", "--threads", threads) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "threads" in err

    def test_csv_and_text_table_are_one_table(self, dgp, capsys, monkeypatch):
        estimators, keys = ["reg", "aipw"], ["bate", "peb1", "peb0"]
        estimands = [EstimandSpec(k) for k in keys]
        results = run_monte_carlo(dgp, [60, 80], 3, estimators, seed=5, estimands=estimands)
        monkeypatch.setattr(cli, "run_monte_carlo", lambda *args, **kwargs: results)
        args = ["simulate", "--estimators", ",".join(estimators), "--estimands", ",".join(keys)]
        assert run_cli(*args, "--format", "csv") == 0
        csv_text = capsys.readouterr().out
        assert csv_text == mc_results_to_csv(results, estimators, estimands)
        csv_header, *csv_rows = csv.reader(io.StringIO(csv_text))
        assert run_cli(*args, "--format", "text-table") == 0
        table_rows = []
        for key, block in zip(keys, capsys.readouterr().out.split("\n\n"), strict=True):
            title, header, *lines = block.strip("\n").split("\n")
            assert title.startswith(f"estimand: {key} (truth ")
            assert header.split() == csv_header[1:]
            table_rows += [[key, *line.split()] for line in lines]
        assert len(table_rows) == len(csv_rows) == 6
        for table_row, csv_row in zip(table_rows, csv_rows):
            assert table_row[0] == csv_row[0]
            assert table_row[1:] == [f"{float(cell):.6g}" for cell in csv_row[1:]]
        assert mc_results_to_csv(results, estimators, ()) == ",".join(csv_header) + "\n"

    def test_json_format(self, capsys):
        code = run_cli("simulate", "--reps", "2", "--n", "60", "--boot-reps", "10",
                       "--seed", "0", "--estimators", "reg", "--estimands", "bate",
                       "--format", "json", "--threads", "1")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["n"] == 60
        assert payload[0]["rows"][0]["estimator"] == "reg"

    def test_json_writes_null_where_a_cell_has_no_statistics(self, capsys):
        """n = 20 gives reg a singular design in every replicate, so each
        cell delivers fewer than two replicates and its statistics are NaN
        in the library; the JSON text holds null there and no NaN token."""
        code = run_cli("simulate", "--n", "20", "--reps", "3", "--estimators", "reg",
                       "--format", "json", "--threads", "1")
        assert code == 0
        text = capsys.readouterr().out

        def no_constant(token):
            raise AssertionError(f"{token} is not JSON")

        rows = json.loads(text, parse_constant=no_constant)[0]["rows"]
        assert [r["estimand"] for r in rows] == ["bate", "peb1"]
        for row in rows:
            assert [row[k] for k in ("mean_estimate", "bias", "mean_est_se", "sim_se")] == [None] * 4
            assert row["n_failed"] == 3 and row["failures"] == [["SingularDesignError", 3]]

    def test_json_and_csv_keep_finite_values(self, capsys):
        args = ["simulate", "--n", "20,60", "--reps", "3", "--estimators", "reg", "--threads", "1"]
        assert run_cli(*args, "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert run_cli(*args, "--format", "csv") == 0
        text = capsys.readouterr().out
        results = run_monte_carlo(DgpSpec(), [20, 60], 3, ["reg"], seed=0)
        assert text == mc_results_to_csv(results, ["reg"], [EstimandSpec("bate"), EstimandSpec("peb1")])
        assert "nan" in text  # the CSV keeps its NaN fields
        lib = [r.to_dict() for r in results]
        assert np.isnan(lib[0]["rows"][0]["mean_estimate"])  # the library keeps its floats
        assert payload[1]["rows"] == [{**r, "failures": [list(f) for f in r["failures"]]} for r in lib[1]["rows"]]

    def test_a_repeated_sample_size_is_a_validation_error(self, capsys, monkeypatch):
        forbid(monkeypatch, simulation, "truth_oracle", "sample_dgp", "_chunk_worker")
        assert run_cli("simulate", "--reps", "2", "--n", "20,60,20", "--threads", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sample size 20 is named more than once\n"


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

    @pytest.mark.parametrize("grid", ["nan:1:0.5", "0:inf:1", "0:1e12:1e-3"])
    def test_unusable_grid_is_a_validation_error(self, capsys, grid):
        assert run_cli("densities", "--w", "0", "--grid", grid) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--grid" in err

    def test_bad_arm(self, capsys):
        assert run_cli("densities", "--w", "0", "--arm", "tilde9") == 1


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[str]:
    """Every `bineffect ...` command in README's fenced blocks, with `\\`
    continuations joined and a trailing `# ...` comment dropped."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("bineffect "):
                commands.append(shlex.join(shlex.split(line, comments=True)))
    return commands


def test_readme_has_the_simulate_tables_command():
    assert any("simulate --seed 20260809" in c for c in _readme_commands())


def test_readme_has_every_density_curve_command():
    parsed = [build_parser().parse_args(shlex.split(c)[1:]) for c in _readme_commands()]
    pairs = {(a.arm, a.w) for a in parsed if a.subcommand == "densities" and a.output is not None}
    assert pairs == {(arm, w) for arm in simulation.DENSITY_ARMS for w in (0, 1)}


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_parses(command):
    build_parser().parse_args(shlex.split(command)[1:])  # parses only; a rejected flag exits


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """README's fenced python blocks run in order in one namespace, so the
    library docs name no API that is gone."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)  # a block may write a file
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
