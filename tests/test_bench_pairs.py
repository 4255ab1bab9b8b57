"""tools/bench_pairs.py: the verdict, the claim rule, the failed share, the
pair ratios, the benchmark check and the exit on SIGTERM."""

import fcntl
import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

LOWER = {"unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "ratio", "better": "higher", "bound": 0.25}

PARENT = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]


def test_quartiles_are_inclusive_and_pairs_ignore_ties():
    figures = bench_pairs.judge(LOWER, [1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.0, 2.0, 5.0, 4.0])
    assert figures["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert figures["parent_iqr"] == 2.0
    assert (figures["change_won_pairs"], figures["pairs"]) == (3, 5)


@pytest.mark.parametrize(
    "metric, change, verdict",
    [
        (LOWER, [x * 1.2 for x in PARENT], "within bound"),
        (LOWER, [x * 1.3 for x in PARENT], "worse than bound"),
        (HIGHER, [x * 0.7 for x in PARENT], "worse than bound"),
        (HIGHER, [x * 1.3 for x in PARENT], "within bound"),
    ],
)
def test_verdict_against_the_bound(metric, change, verdict):
    assert bench_pairs.judge(metric, PARENT, change)["verdict"] == verdict


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0, 1.5]
    assert bench_pairs.judge(LOWER, parent, parent)["verdict"] == "unresolved"
    # unless every change run beats every parent run
    assert bench_pairs.judge(LOWER, parent, [0.5] * 5)["verdict"] == "within bound"


@pytest.mark.parametrize(
    "change, met",
    [
        ([x * 0.9 for x in PARENT], True),
        # nine of ten pairs won is enough
        ([x * 0.9 for x in PARENT[:9]] + [2.0], True),
        ([x * 0.9 for x in PARENT[:8]] + [2.0, 2.0], False),
        # every pair won, but the medians are closer than the parent's IQR
        ([x - 0.001 for x in PARENT], False),
    ],
)
def test_claim_needs_nine_tenths_of_the_pairs_and_the_iqr(change, met):
    assert bench_pairs.gain_met(bench_pairs.judge(LOWER, PARENT, change)) is met


def test_benchmark_differs_names_each_differing_file(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("same")
        (tmp_path / side / "BENCHMARK.json").write_text("{}")
    assert bench_pairs.benchmark_differs(tmp_path / "parent", tmp_path / "change") == []
    (tmp_path / "change" / "perfbench" / "run.py").write_text("edited")
    (tmp_path / "change" / "perfbench" / "extra.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text('{"paths": []}')
    assert bench_pairs.benchmark_differs(tmp_path / "parent", tmp_path / "change") == [
        "perfbench/extra.py", "perfbench/run.py", "BENCHMARK.json",
    ]


def result_lines(failed, attempted):
    return [{"failed": failed, "attempted": attempted, "correct": True}]


@pytest.mark.parametrize(
    "parent, change, larger",
    [
        # growth-table1 in BENCH_29: equal counts, but the change attempted fewer
        ((1, 1_536_158), (1, 1_533_692), True),
        ((1, 1_533_692), (1, 1_536_158), False),
        ((2, 2_000_000), (1, 1_000_000), False),
        ((0, 1_536_158), (0, 1_533_692), False),
    ],
)
def test_failed_operations_are_judged_by_share(parent, change, larger):
    ops = {"parent": bench_pairs.operations(result_lines(*parent)),
           "change": bench_pairs.operations(result_lines(*change))}
    assert ops["change"]["failed_share"] == change[0] / change[1]
    assert bench_pairs.share_larger(ops) is larger


def test_pair_ratios_are_reported_and_judge_nothing():
    parent = [1.0, 2.0, 4.0, 5.0, 10.0]
    change = [1.1, 2.0, 3.0, 6.0, 10.0]
    figures = bench_pairs.judge(LOWER, parent, change)
    assert figures["pair_ratios"] == pytest.approx([1.1, 1.0, 0.75, 1.2, 1.0])
    assert figures["pair_ratio"] == pytest.approx({"median": 1.0, "q1": 1.0, "q3": 1.1})
    # the same runs paired otherwise give other ratios and the same verdict
    repaired = bench_pairs.judge(LOWER, parent, change[::-1])
    assert repaired["pair_ratios"] == pytest.approx([10.0, 3.0, 0.75, 0.4, 0.11])
    assert repaired["verdict"] == figures["verdict"] == "unresolved"


def test_one_pair_has_one_ratio():
    figures = bench_pairs.judge(HIGHER, [4.0], [5.0])
    assert figures["pair_ratios"] == [1.25]
    assert figures["pair_ratio"] == {"median": 1.25, "q1": 1.25, "q3": 1.25}


# a benchmark run that records its pid, holds a lock while it lives and
# sleeps far longer than the test waits
STAND_IN_RUN = """\
import fcntl, os, time
lock = open(os.environ["STAND_IN_LOCK"], "w")
fcntl.flock(lock, fcntl.LOCK_EX)
pid_file = os.environ["STAND_IN_PID"]
with open(pid_file + ".tmp", "w") as f:
    f.write(str(os.getpid()))
os.replace(pid_file + ".tmp", pid_file)
time.sleep(60)
"""


def child_alive(lock_path) -> bool:
    """Whether the stand-in run still holds its lock, which its exit releases."""
    with open(lock_path, "w") as f:
        try:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return True
        fcntl.flock(f, fcntl.LOCK_UN)
        return False


def test_sigterm_kills_the_run_and_removes_the_directory(tmp_path):
    checkout, tmp = tmp_path / "checkout", tmp_path / "tmp"
    (checkout / "tools").mkdir(parents=True)
    (checkout / "src").mkdir()
    (checkout / "perfbench").mkdir()
    tmp.mkdir()
    shutil.copy(TOOL, checkout / "tools" / "bench_pairs.py")
    (checkout / "src" / "stand_in.py").write_text("")
    (checkout / "perfbench" / "run.py").write_text(STAND_IN_RUN)
    (checkout / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": []}'
    )
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", "-c",
           "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stand-in"]):
        subprocess.run(git + args, cwd=checkout, check=True, capture_output=True)
    pid_file, lock = tmp_path / "run.pid", tmp_path / "run.lock"
    env = dict(os.environ, TMPDIR=str(tmp), STAND_IN_PID=str(pid_file), STAND_IN_LOCK=str(lock))
    tool = subprocess.Popen(
        [sys.executable, "tools/bench_pairs.py", "--ref", "HEAD", "--pairs", "1"],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    pid = None
    try:
        deadline = time.monotonic() + 30.0
        while not pid_file.exists():
            assert tool.poll() is None, f"the tool exited with {tool.returncode} before its run"
            assert time.monotonic() < deadline, "the stand-in run never started"
            time.sleep(0.05)
        pid = int(pid_file.read_text())
        assert child_alive(lock)
        assert list(tmp.glob("bench_pairs_*"))
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=30) == 128 + signal.SIGTERM
        assert not child_alive(lock)
        assert not list(tmp.glob("bench_pairs_*"))
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
        # the lock tells a live run from a pid that may have been reused
        if pid is not None and child_alive(lock):
            os.kill(pid, signal.SIGKILL)
