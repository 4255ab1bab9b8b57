"""tools/bench_pairs.py: the verdict, the claim rule and the benchmark check."""

import importlib.util
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
