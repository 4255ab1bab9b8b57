"""Command-line interface: flags, outputs, exit codes, determinism."""

import pytest

from pdefilter import cli


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

    @pytest.mark.parametrize("grid", [1, 3])
    def test_grid_below_four_nodes_is_usage_error(self, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        assert cli.main(run_args(out, grid=grid)) == 1
        assert "pdefilter: error: grid_nodes must be >= 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "trajectory"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        assert cli.main([command, "--seed", "-1", "--steps", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "pdefilter: error: seed must be >= 0, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()
