"""Smoke test of the benchmark itself, at a tiny size (3-step trajectories):

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
BRANCHES = {"growth-table1": 16 * 16, "linear-dense": 64 * 64, "pf-wide": 4 * 4}
COUNTS = (
    "linalg.expm.calls",
    "density.mollified_delta.calls",
    "density.branches_per_step",
    "model.transition.calls",
    "model.observation.calls",
)


def tiny_run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, steps=3, trajectories=1) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result["metrics"]


def units(declared):
    return {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(capsys, workload):
    metrics = tiny_run(capsys, workload, 0)
    assert {n: m["unit"] for n, m in metrics.items()} == units(DECLARED["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_layer_metric_is_printed_and_counts_repeat(capsys, workload):
    metrics = tiny_run(capsys, workload, 1)
    assert {n: m["unit"] for n, m in metrics.items()} == units(DECLARED["per_layer"])
    value = {n: m["value"] for n, m in metrics.items()}
    branches = value["density.branches_per_step"]
    assert branches == BRANCHES[workload]
    # one bump per branch and assemble_prior attempt; an attempt that trips
    # the boundary check stops at the offending branch and is retried
    bumps = value["density.mollified_delta.calls"]
    attempts = value["filters.pdef.attempts_per_step"]
    if attempts == 1.0:
        assert bumps == branches
    else:
        assert branches < bumps < branches * attempts
    again = tiny_run(capsys, workload, 1)
    assert {n: again[n]["value"] for n in COUNTS} == {n: value[n] for n in COUNTS}


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("traces", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
