"""The density filter against the exact posterior mean.

A run's gap is the mean over its steps of ``|pdef estimate - exact
posterior mean|``.  The exact mean comes from the point-mass filter
``_oracles.grid_bayes_filter`` at 1001 nodes on [-50, 50].  RMSE against
the truth cannot stand in for it: on the growth model it is mostly the
Bayes error itself, and it moves by 3-5% when the gap grows by half or
triples.

A run's evidence error is the sum over its steps of pdef's log-evidence
``log p(y_k | y_1:k-1)`` less the exact one.  pdef's is the log of the
quadrature of the prior times the likelihood that ``pdef_step`` hands to
``posterior_update``; the exact one comes from the same point-mass filter.
The log predictive density is a strictly proper score (Gneiting & Raftery,
JASA 2007): it sees a single step that gives the observation a tiny share
of its exact predictive density, which the gap averages away.

``tests/data/exact_means_seed1_steps50.csv`` and
``tests/data/exact_log_evidence_seed1_steps50.csv`` hold the exact means and
log-evidences of the ten Table-1 runs the gap and the evidence error are
pinned on (truth from ``run_seed_streams(1, r)``, r = 0-9, 50 steps).
Regenerate both with

    PYTHONPATH=src:tests python tests/test_exact_posterior.py

The family test scores pdef at the same setting on members of
``f(x) = a x + b x / (1 + x^2) + c cos(1.2 k)``, ``h(x) = x^2 / d`` with
process variance Q and observation variance R.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdefilter import filters as flt
from pdefilter.bench import benchmark_model, run_seed_streams, simulate_truth

from _oracles import grid_bayes_filter

DATA = Path(__file__).resolve().parent / "data"
EXACT = {
    "exact_mean": DATA / "exact_means_seed1_steps50.csv",
    "exact_log_evidence": DATA / "exact_log_evidence_seed1_steps50.csv",
}
SEED, RUNS, STEPS = 1, 10, 50

# the gap of pdef at the Table-1 setting (grid 100, 16 x 16 branches) over
# the ten runs is 0.2054 (0.138 to 0.262 per run).  Mutations of the package
# give 0.329 with 4 noise points, 0.392 with 8 state quantiles and 0.654 with
# a 60-node grid, while their RMSE moves only from 4.274 to 4.42-4.49
TABLE1_GAP_BOUND = 0.25

# a run's evidence error |sum of pdef's log-evidence less the exact one|, in
# nats, over the same ten runs: mean 1.584, largest 10.258 (run 9, whose
# step 6 alone reads -7.08: the quantized noise cuts the prior's tails
# there).  Mutations give mean / largest 6.24 / 19.9 with 4 noise points,
# 3.76 / 14.6 with 8, 3.98 / 25.5 with 8 state quantiles and 2.47 / 5.19
# with a 60-node grid; 32 x 32 branches give 1.10 / 4.53
TABLE1_EVIDENCE_BOUND = {"mean": 2.0, "largest": 12.0}


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


def exact_posterior(model, observations, nodes=1001):
    """The exact posterior means and log-evidences of one run, from the
    point-mass filter."""
    means, _, log_evidence = grid_bayes_filter(
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
    return means, log_evidence


def pdef_run(model, observations, cfg, noise_points):
    """pdef's estimates and log-evidences over one run.  The evidence is
    read by wrapping ``posterior_update``, which ``pdef_step`` hands the
    prior and the likelihood at the prior's nodes."""
    noise = flt.gaussian_quantile_points(noise_points, model.process_noise.variance)
    state = flt.pdef_init(model, cfg)
    means, log_evidence = [], []
    update = flt.posterior_update

    def read_evidence(prior, likelihood):
        log_evidence.append(math.log(prior.grid.physical_weights @ (prior.values * likelihood)))
        return update(prior, likelihood)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flt, "posterior_update", read_evidence)
        for k, y in enumerate(observations.tolist(), 1):
            state = flt.pdef_step(state, model, noise, k, y, cfg)
            means.append(flt.estimate(state))
    return np.array(means), np.array(log_evidence)


def table1_observations(run):
    _, observations = simulate_truth(benchmark_model(), STEPS, run_seed_streams(SEED, run)[0])
    return observations


def read_exact(column):
    """The stored exact means or log-evidences, one row of STEPS per run."""
    with EXACT[column].open(newline="") as f:
        rows = list(csv.DictReader(f))
    values = np.full((RUNS, STEPS), np.nan)
    for row in rows:
        values[int(row["run"]), int(row["k"]) - 1] = float(row[column])
    assert not np.isnan(values).any()
    return values


def write_exact():
    model = benchmark_model()
    runs = [exact_posterior(model, table1_observations(run)) for run in range(RUNS)]
    for i, (column, path) in enumerate(EXACT.items()):
        with path.open("w", newline="") as f:
            out = csv.writer(f, lineterminator="\n")
            out.writerow(["run", "k", column])
            for run, figures in enumerate(runs):
                for k, value in enumerate(figures[i].tolist(), 1):
                    out.writerow([run, k, repr(value)])


@pytest.fixture(scope="module")
def exact_run0():
    # run 0 only: each run costs about 0.4 s
    return exact_posterior(benchmark_model(), table1_observations(0))


def test_stored_exact_means_regenerate(exact_run0):
    # the means agree with a 2001-node oracle to 4.3e-9, so BLAS rounding
    # stays far inside 1e-9
    np.testing.assert_allclose(exact_run0[0], read_exact("exact_mean")[0], rtol=0.0, atol=1e-9)


def test_stored_exact_log_evidence_regenerates(exact_run0):
    np.testing.assert_allclose(
        exact_run0[1], read_exact("exact_log_evidence")[0], rtol=0.0, atol=1e-9
    )


@pytest.fixture(scope="module")
def table1_runs():
    """pdef's estimates and log-evidences on the ten stored runs at the
    Table-1 setting (grid 100, 16 x 16 branches)."""
    model = benchmark_model()
    cfg = flt.PdefConfig(grid_nodes=100, state_quantiles=16)
    return [pdef_run(model, table1_observations(run), cfg, 16) for run in range(RUNS)]


def test_table1_gap_is_pinned(table1_runs):
    exact = read_exact("exact_mean")
    gaps = [np.mean(np.abs(means - exact[run])) for run, (means, _) in enumerate(table1_runs)]
    gap = float(np.mean(gaps))
    print(f"\npdef gap at the Table-1 setting: {gap:.4f} (bound {TABLE1_GAP_BOUND})")
    assert gap <= TABLE1_GAP_BOUND


def test_table1_evidence_error_is_pinned(table1_runs):
    exact = read_exact("exact_log_evidence")
    errors = np.array([
        abs(float(np.sum(log_evidence - exact[run])))
        for run, (_, log_evidence) in enumerate(table1_runs)
    ])
    print(f"\npdef evidence error at the Table-1 setting: mean {errors.mean():.2f}, "
          f"largest {errors.max():.2f} nats (bounds {TABLE1_EVIDENCE_BOUND['mean']} "
          f"and {TABLE1_EVIDENCE_BOUND['largest']})")
    assert errors.mean() <= TABLE1_EVIDENCE_BOUND["mean"]
    assert errors.max() <= TABLE1_EVIDENCE_BOUND["largest"]


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
    estimates, _ = pdef_run(model, observations, cfg, 16)
    gap = float(np.mean(np.abs(estimates - exact_posterior(model, observations)[0])))
    _, _, _, _, r, d = member
    region = "benchmark-like" if math.sqrt(r) * d >= SHARPNESS_SPLIT else "sharp"
    assert gap <= FAMILY_GAP_BOUND[region], (member, seed, region, gap)


def test_oracle_is_converged_on_a_steep_sensor():
    # the steep-sensor member (0.5, 25, 8, 10, 1, 5), whose likelihood is as
    # sharp as the family allows: 1001 and 2001 nodes on [-50, 50] agreed to
    # 8.8e-9 at seed 0 (at most 2.3e-8 over the family's sharpest members)
    model = family_model(0.5, 25.0, 8.0, 10.0, 1.0, 5.0)
    _, observations = simulate_truth(model, 20, run_seed_streams(0, 0)[0])
    coarse, _ = exact_posterior(model, observations)
    fine, _ = exact_posterior(model, observations, nodes=2001)
    np.testing.assert_allclose(coarse, fine, rtol=0.0, atol=1e-6)


if __name__ == "__main__":
    write_exact()
