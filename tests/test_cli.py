"""Command-line interface: flags, outputs, exit codes, determinism."""

import dataclasses
from pathlib import Path

import pytest

from pdefilter import cli
from pdefilter.bench import ExperimentConfig

DATA = Path(__file__).parent / "data"


def run_args(out, **overrides):
    args = [
        "run", "--steps", "4", "--runs", "2", "--particles", "30",
        "--grid", "60", "--state-quantiles", "8", "--noise-points", "8",
        "--seed", "3", "--out", str(out),
    ]
    for key, value in overrides.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestRunCommand:
    def test_writes_summary_and_runs_csv(self, tmp_path, capsys):
        out = tmp_path / "rmse.csv"
        assert cli.main(run_args(out)) == 0
        assert out.exists()
        assert (tmp_path / "rmse.csv.runs.csv").exists()
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config: filter=all steps=4 runs=2")
        assert lines[1] == "filter,runs_ok,runs_failed,steps,mean_rmse,std_rmse"
        assert [line.split(",")[0] for line in lines[2:]] == ["ukf", "pf", "pdef"]
        assert "mean RMSE" in capsys.readouterr().out

    def test_single_filter_selection(self, tmp_path):
        out = tmp_path / "pf.csv"
        assert cli.main(run_args(out, filter="pf")) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("pf,")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(run_args(a)) == 0
        assert cli.main(run_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.runs.csv").read_bytes() == (
            tmp_path / "b.csv.runs.csv"
        ).read_bytes()


class TestTrajectoryCommand:
    def test_writes_per_step_rows(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = cli.main(
            [
                "trajectory", "--steps", "5", "--particles", "30",
                "--grid", "60", "--state-quantiles", "8",
                "--noise-points", "8", "--seed", "7", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "k,truth,observation,ukf,pf,pdef"
        assert len(lines) == 7
        assert lines[2].split(",")[0] == "1"

    def test_absent_filter_fields_empty(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert cli.main(
            [
                "trajectory", "--filter", "ukf", "--steps", "3",
                "--seed", "2", "--out", str(out),
            ]
        ) == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[3] != ""   # ukf column populated
        assert row[4] == ""   # pf empty
        assert row[5] == ""   # pdef empty

    def test_default_seed_differs_from_run(self, tmp_path):
        # trajectory defaults to seed 7; passing it explicitly is identical
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["trajectory", "--filter", "ukf", "--steps", "3", "--out"]
        assert cli.main(base + [str(a)]) == 0
        assert cli.main(["trajectory", "--filter", "ukf", "--steps", "3",
                         "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--help"])
        assert err.value.code == 0
        assert "run" in capsys.readouterr().out

    def test_subcommand_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--filter", "--steps", "--runs", "--particles", "--grid",
                     "--state-quantiles", "--noise-points", "--seed", "--out"):
            assert flag in text

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--steps", "3"])
        assert err.value.code == 1

    def test_unknown_filter_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--filter", "ekf", "--out", "x.csv"])
        assert err.value.code == 1

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 1

    def test_invalid_count_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.main(["run", "--runs", "0", "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [1, 3, 29])
    def test_grid_below_30_nodes_is_usage_error(self, tmp_path, capsys, monkeypatch, grid):
        # no domain serves such a grid; refused before any run starts
        def run_experiment(*args, **kwargs):
            raise AssertionError("a run started on a refused grid")

        monkeypatch.setattr(cli.bench, "run_experiment", run_experiment)
        out = tmp_path / "x.csv"
        assert cli.main(run_args(out, grid=grid)) == 1
        assert f"pdefilter: error: grid_nodes must be >= 30, got {grid}" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_of_30_nodes_is_accepted(self, tmp_path):
        # the coarsest grid a domain serves; the other filters complete
        out = tmp_path / "x.csv"
        assert cli.main(run_args(out, grid=30)) == 0
        assert "grid=30" in out.read_text().splitlines()[0]

    @pytest.mark.parametrize("command", ["run", "trajectory"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        assert cli.main([command, "--seed", "-1", "--steps", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "pdefilter: error: seed must be >= 0, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("unwritable", ["out", "runs"])
    def test_run_checks_both_outputs_before_the_first_step(
        self, tmp_path, capsys, monkeypatch, unwritable
    ):
        # a missing directory, or a directory where the per-run CSV goes
        out = tmp_path / "missing" / "r.csv" if unwritable == "out" else tmp_path / "r.csv"
        (tmp_path / "r.csv.runs.csv").mkdir()
        monkeypatch.setattr(cli.bench, "run_experiment", stepping_forbidden)
        assert cli.main(run_args(out)) == 1
        path = out if unwritable == "out" else f"{out}.runs.csv"
        err = capsys.readouterr().err
        assert err.startswith(f"pdefilter: error: cannot write {path}: ")
        assert "Traceback" not in err

    def test_trajectory_checks_its_output_before_the_first_step(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "missing" / "t.csv"
        monkeypatch.setattr(cli.bench, "run_trajectory", stepping_forbidden)
        assert cli.main(["trajectory", "--steps", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"pdefilter: error: cannot write {out}: No such file or directory\n"


def stepping_forbidden(*args, **kwargs):
    raise AssertionError("a filter ran although the output cannot be written")


class TestDefaults:
    @pytest.mark.parametrize("command", ["run", "trajectory"])
    def test_parsed_defaults_are_experiment_config_defaults(self, command):
        # every ExperimentConfig field but the filter list is a flag (a
        # trajectory is one run, so it has no --runs) whose default is the
        # field's; the trajectory's seed of 7 is the one exception
        args = vars(cli._build_parser().parse_args([command, "--out", "x.csv"]))
        expected = {
            field.name: field.default
            for field in dataclasses.fields(ExperimentConfig)
            if field.init and field.name != "filters"
        }
        if command == "trajectory":
            del expected["runs"]
            expected["seed"] = 7
        assert args == {"command": command, "filter": "all", "out": "x.csv", **expected}

    @pytest.mark.parametrize("command", ["run", "trajectory"])
    def test_help_matches_golden(self, monkeypatch, capsys, command):
        # argparse wraps to the COLUMNS width
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out == (DATA / f"{command}_help.txt").read_text()
