"""tools/failure_sweep.py: the benchmark's trajectories, counted as its result
line counts them."""

import importlib.util
import re
from pathlib import Path

from pdefilter import filters as flt
from pdefilter.errors import FilterDivergenceError

TOOL = Path(__file__).resolve().parent.parent / "tools" / "failure_sweep.py"
spec = importlib.util.spec_from_file_location("failure_sweep", TOOL)
failure_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(failure_sweep)

WORKLOADS = ("growth-table1", "linear-dense", "pf-wide")


def counts(out: str) -> dict:
    """``{workload: (attempted, failed)}`` and ``{(workload, filter): ...}``
    from the printed report."""
    found = {}
    for line in out.splitlines():
        match = re.match(r"^(\S+): attempted (\d+)  failed (\d+)  \(", line)
        if match:
            workload = match[1]
            found[workload] = (int(match[2]), int(match[3]))
            continue
        match = re.match(r"^  (\w+) +attempted (\d+)  failed (\d+)$", line)
        if match:
            found[workload, match[1]] = (int(match[2]), int(match[3]))
    return found


def test_one_clean_trajectory_per_workload(capsys):
    assert failure_sweep.main(["--runs", "1"]) == 0
    found = counts(capsys.readouterr().out)
    for workload in WORKLOADS:
        assert found[workload] == (150, 0)
        for name in ("ukf", "pf", "pdef"):
            assert found[workload, name] == (50, 0)


def test_a_failed_pdef_step_is_counted_and_ends_its_run(capsys, monkeypatch):
    original = flt.pdef_step

    def failing(state, model, noise, k, *args, **kwargs):
        if k == 3:
            raise FilterDivergenceError("posterior lost its mass")
        return original(state, model, noise, k, *args, **kwargs)

    monkeypatch.setattr(flt, "pdef_step", failing)
    assert failure_sweep.main(["--runs", "1"]) == 1
    out = capsys.readouterr().out
    found = counts(out)
    for workload in WORKLOADS:
        assert found[workload] == (103, 1)
        assert found[workload, "pdef"] == (3, 1)
        assert found[workload, "ukf"] == found[workload, "pf"] == (50, 0)
    reason = "    trajectory 0, pdef step 3: FilterDivergenceError: posterior lost its mass"
    assert out.count(reason + "\n") == len(WORKLOADS)
