"""Golden CLI outputs: refactors that mean to keep behaviour keep the bytes.

``tests/data`` holds the CSVs of ``pdefilter trajectory --steps 50`` (all
other flags at their defaults, seed 7) and ``pdefilter run --runs 3
--steps 50 --seed 42`` (summary and per-run files). A change that alters
any estimate, RMSE, failure note or header shows up here; a change that
means to alter them regenerates the files with the same commands and says
so.
"""

from pathlib import Path

from pdefilter import cli

DATA = Path(__file__).parent / "data"


def test_trajectory_csv_matches_golden(tmp_path):
    out = tmp_path / "trajectory.csv"
    assert cli.main(["trajectory", "--steps", "50", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "trajectory_steps50.csv").read_bytes()


def test_run_csvs_match_golden(tmp_path):
    out = tmp_path / "run.csv"
    args = ["run", "--runs", "3", "--steps", "50", "--seed", "42", "--out", str(out)]
    assert cli.main(args) == 0
    assert out.read_bytes() == (DATA / "run_runs3_steps50.csv").read_bytes()
    assert (tmp_path / "run.csv.runs.csv").read_bytes() == (
        DATA / "run_runs3_steps50.csv.runs.csv"
    ).read_bytes()
