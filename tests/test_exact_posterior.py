"""The density filter against the exact posterior mean.

A run's gap is the mean over its steps of ``|pdef estimate - exact
posterior mean|``.  The exact mean comes from the point-mass filter
``_oracles.grid_bayes_filter`` at 1001 nodes on [-50, 50].  RMSE against
the truth cannot stand in for it: on the growth model it is mostly the
Bayes error itself, and it moves by 3-5% when the gap grows by half or
triples.

``tests/data/exact_means_seed1_steps50.csv`` holds the exact means of the
ten Table-1 runs the gap is pinned on (truth from ``run_seed_streams(1, r)``,
r = 0-9, 50 steps).  Regenerate it with

    PYTHONPATH=src:tests python tests/test_exact_posterior.py

The family test scores pdef at the same setting on members of
``f(x) = a x + b x / (1 + x^2) + c cos(1.2 k)``, ``h(x) = x^2 / d`` with
process variance Q and observation variance R.
"""

import csv
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdefilter import filters as flt
from pdefilter.bench import benchmark_model, run_seed_streams, simulate_truth

from _oracles import grid_bayes_filter

EXACT_MEANS = Path(__file__).resolve().parent / "data" / "exact_means_seed1_steps50.csv"
SEED, RUNS, STEPS = 1, 10, 50

# the gap of pdef at the Table-1 setting (grid 100, 16 x 16 branches) over
# the ten runs is 0.2054 (0.138 to 0.262 per run).  Mutations of the package
# give 0.329 with 4 noise points, 0.392 with 8 state quantiles and 0.654 with
# a 60-node grid, while their RMSE moves only from 4.274 to 4.42-4.49
TABLE1_GAP_BOUND = 0.25


# the family's gap bound by region.  A member's likelihood in x is about
# sqrt(R) d / (2 |x|) wide, so sqrt(R) d, 20 on the benchmark, sets its
# sharpness.  Over 592 measured draws of family_members (400 at random, each
# with a seed from 0-9, and its 64 corners at seeds 0-2), 20 steps each, no
# run failed and the gap read: sqrt(R) d >= 10, median 0.11, p99 0.9,
# max 2.07; sqrt(R) d < 10, median 0.14, p99 4.2, max 9.97.  The largest
# gaps are single steps on which pdef weighs the two modes +-x far from the
# exact posterior: weak forcing (c = 2) with Q = 10
SHARPNESS_SPLIT = 10.0
FAMILY_GAP_BOUND = {"benchmark-like": 3.0, "sharp": 12.0}


def exact_means(model, observations, nodes=1001):
    """The exact posterior means of one run, from the point-mass filter."""
    means, _ = grid_bayes_filter(
        observations,
        lambda x, k: model.transition(x, k, 0.0),
        lambda x: model.observation(x, 0),
        model.process_noise.variance,
        model.obs_noise.variance,
        model.initial.mean,
        model.initial.variance,
        nodes=nodes,
        half_width=50.0,
    )
    return means


def pdef_means(model, observations, cfg, noise_points):
    noise = flt.gaussian_quantile_points(noise_points, model.process_noise.variance)
    state = flt.pdef_init(model, cfg)
    means = []
    for k, y in enumerate(observations.tolist(), 1):
        state = flt.pdef_step(state, model, noise, k, y, cfg)
        means.append(flt.estimate(state))
    return np.array(means)


def table1_observations(run):
    _, observations = simulate_truth(benchmark_model(), STEPS, run_seed_streams(SEED, run)[0])
    return observations


def read_exact_means():
    """The stored exact means, one row of STEPS per run."""
    with EXACT_MEANS.open(newline="") as f:
        rows = list(csv.DictReader(f))
    means = np.full((RUNS, STEPS), np.nan)
    for row in rows:
        means[int(row["run"]), int(row["k"]) - 1] = float(row["exact_mean"])
    assert not np.isnan(means).any()
    return means


def write_exact_means():
    model = benchmark_model()
    with EXACT_MEANS.open("w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(["run", "k", "exact_mean"])
        for run in range(RUNS):
            for k, m in enumerate(exact_means(model, table1_observations(run)).tolist(), 1):
                out.writerow([run, k, repr(m)])


def test_stored_exact_means_regenerate():
    # run 0 only: each run costs about 0.4 s; the means agree with a
    # 2001-node oracle to 4.3e-9, so BLAS rounding stays far inside 1e-9
    got = exact_means(benchmark_model(), table1_observations(0))
    np.testing.assert_allclose(got, read_exact_means()[0], rtol=0.0, atol=1e-9)


def test_table1_gap_is_pinned():
    model = benchmark_model()
    cfg = flt.PdefConfig(grid_nodes=100, state_quantiles=16)
    exact = read_exact_means()
    gaps = [
        np.mean(np.abs(pdef_means(model, table1_observations(run), cfg, 16) - exact[run]))
        for run in range(RUNS)
    ]
    gap = float(np.mean(gaps))
    print(f"\npdef gap at the Table-1 setting: {gap:.4f} (bound {TABLE1_GAP_BOUND})")
    assert gap <= TABLE1_GAP_BOUND


def family_model(a, b, c, q, r, d):
    return flt.ScalarStateModel(
        transition=lambda x, k, v: a * x + b * x / (1.0 + x * x) + c * math.cos(1.2 * k) + v,
        observation=lambda x, k: x * x / d,
        process_noise=flt.GaussianSpec(0.0, q),
        obs_noise=flt.GaussianSpec(0.0, r),
        initial=flt.GaussianSpec(0.0, 10.0),
    )


@st.composite
def family_members(draw):
    """``(a, b, c, Q, R, d)`` over ranges that hold every member the
    family was scored on before (the benchmark (0.5, 25, 8, 10, 1, 20), sharp
    noise R = 0.1, a steep sensor d = 5, small Q = 1, and the mild (0.9, 10,
    4, 4, 1, 20) and (0.2, 5, 2, 2, 1, 20)), with two joint limits.  The
    noise-free map's modes, ``+-sqrt(b / (1 - a) - 1)``, lie within 10 of
    the origin: b <= 101 (1 - a).  The likelihood is at most four times as
    sharp as the benchmark's: ``sqrt(R) d >= 5``.  Past them pdef at grid
    100 is not resolved: the corner (0.9, 25, 2, 10, 0.1, 5) read gaps of
    12 to 25 over seeds 0-9, and (0.9, 25, 2, 10, 1, 20) 0.4 to 6.4."""
    a = draw(st.floats(0.2, 0.9))
    b = draw(st.floats(5.0, min(25.0, 101.0 * (1.0 - a))))
    c = draw(st.floats(2.0, 8.0))
    q = draw(st.floats(1.0, 10.0))
    r = draw(st.floats(0.1, 1.0))
    d = draw(st.floats(max(5.0, 5.0 / math.sqrt(r)), 20.0))
    return a, b, c, q, r, d


# about 0.2 s an example, nearly all of it the oracle's
@settings(settings.get_profile("ci"), max_examples=10)
@given(member=family_members(), seed=st.integers(0, 9))
def test_family_member_tracks_the_exact_posterior(member, seed):
    model = family_model(*member)
    _, observations = simulate_truth(model, 20, run_seed_streams(seed, 0)[0])
    cfg = flt.PdefConfig(grid_nodes=100, state_quantiles=16)
    estimates = pdef_means(model, observations, cfg, 16)
    gap = float(np.mean(np.abs(estimates - exact_means(model, observations))))
    _, _, _, _, r, d = member
    region = "benchmark-like" if math.sqrt(r) * d >= SHARPNESS_SPLIT else "sharp"
    assert gap <= FAMILY_GAP_BOUND[region], (member, seed, region, gap)


def test_oracle_is_converged_on_a_steep_sensor():
    # the steep-sensor member (0.5, 25, 8, 10, 1, 5), whose likelihood is as
    # sharp as the family allows: 1001 and 2001 nodes on [-50, 50] agreed to
    # 8.8e-9 at seed 0 (at most 2.3e-8 over the family's sharpest members)
    model = family_model(0.5, 25.0, 8.0, 10.0, 1.0, 5.0)
    _, observations = simulate_truth(model, 20, run_seed_streams(0, 0)[0])
    coarse = exact_means(model, observations)
    fine = exact_means(model, observations, nodes=2001)
    np.testing.assert_allclose(coarse, fine, rtol=0.0, atol=1e-6)


if __name__ == "__main__":
    write_exact_means()
