"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict
line; each test prints its measured values before asserting, so failures
carry the evidence.
"""

import math

import numpy as np
import pytest

from pdefilter import cli
from pdefilter import density as dn
from pdefilter import filters as flt
from pdefilter.bench import (
    ExperimentConfig,
    TrajectoryRecord,
    benchmark_model,
    rmse,
    run_experiment,
    run_trajectory,
    simulate_truth,
)
from pdefilter.chebyshev import (
    Interval,
    SpectralGrid,
    barycentric_interp,
    cc_weights,
    diff_matrix,
)

from _helpers import gauss_lobatto_nodes, l1_distance
from _oracles import gaussian_pdf, grid_bayes_filter, kalman_filter, taylor_expm


def _criterion(num, name, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def table1_reports():
    # the full benchmark: 50 runs x 50 steps, defaults, seed 42
    return run_experiment(ExperimentConfig())


def test_criterion_01_table1_reproduction(table1_reports):
    means = {r.filter_name: r.mean_rmse for r in table1_reports}
    failed = {r.filter_name: r.runs_failed for r in table1_reports}
    pf, ukf, pdef = means["pf"], means["ukf"], means["pdef"]
    checks = {
        "pf in [3.8, 6.0]": 3.8 <= pf <= 6.0,
        "ukf in [5.5, 9.5]": 5.5 <= ukf <= 9.5,
        "pdef <= ukf": pdef <= ukf,
        "pdef within 35% of pf": abs(pdef - pf) <= 0.35 * pf,
        # Table 1 ranks both PF and PDEF ahead of the UKF; it does not rank
        # PF ahead of PDEF.  On this ensemble the exact grid-Bayes posterior
        # mean (tests/_oracles.grid_bayes_filter, 1001 nodes on [-50, 50])
        # scores 4.522, PDEF 4.590 (1.5% above it), PF 4.755 at 100
        # particles (4.672 at 1000, 4.528 at 5000) and UKF 7.976, so
        # requiring pf <= pdef would demand a worse PDEF.
        "pf <= ukf": pf <= ukf,
    }
    detail = (
        f"mean RMSE ukf={ukf:.3f} pf={pf:.3f} pdef={pdef:.3f}, "
        f"failed runs {failed}, clauses: "
        + ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    )
    _criterion(1, "table-1 reproduction", all(checks.values()), detail)


def _fig2_seed(records, exact):
    """Clauses, RMSE and beat fractions vs the UKF for one seed of
    criterion 02, given the exact filter's per-step means.

    A filter that failed mid-run has no estimate (None) from some step on;
    that is a failed clause naming the filter, its first missing step and
    the reason recorded there.
    """
    truth = np.array([r.truth for r in records])
    estimates = {"exact": np.asarray(exact, dtype=float)}
    clauses = {}
    for name in ("ukf", "pf", "pdef"):
        missing = next((r for r in records if r.estimates[name] is None), None)
        if missing is None:
            estimates[name] = np.array([r.estimates[name] for r in records])
        else:
            reason = missing.failures.get(name, "reason not recorded")
            clauses[
                f"{name} failed mid-run, first missing step {missing.k}: {reason}"
            ] = False
    rmses = {name: rmse(truth, est) for name, est in estimates.items()}
    fractions = {}
    if "ukf" in estimates:
        ukf_err = np.abs(estimates["ukf"] - truth)
        for name in ("pf", "pdef", "exact"):
            if name in estimates:
                clauses[f"rmse({name}) < rmse(ukf)"] = rmses[name] < rmses["ukf"]
                fractions[name] = float(
                    np.mean(np.abs(estimates[name] - truth) < ukf_err)
                )
    return clauses, rmses, fractions


def test_criterion_02_fig2_qualitative():
    # Fig. 2's message: the density and sample filters track the truth where
    # the UKF does not.  Asserted per seed as an RMSE below the UKF's, and
    # the exact Bayes filter is held to the same clause.  Per-step beat
    # fractions are only reported: the posterior mean minimises expected
    # squared error, not the number of steps won, and the sign ambiguity of
    # y = x^2/20 places it between the two modes, so even the exact filter
    # beats the UKF on only 0.50 of the steps of seeds 1 and 4.
    model = benchmark_model()
    failed, rows = [], []
    for seed in (1, 2, 3, 4, 5):
        records = run_trajectory(ExperimentConfig(steps=50, runs=1, seed=seed))
        exact, _, _ = grid_bayes_filter(
            [r.observation for r in records],
            lambda x, k: model.transition(x, k, 0.0),
            lambda x: model.observation(x, 0),
            model.process_noise.variance,
            model.obs_noise.variance,
            model.initial.mean,
            model.initial.variance,
            nodes=1001,
            half_width=50.0,
        )
        clauses, rmses, fractions = _fig2_seed(records, exact)
        failed += [f"seed {seed}: {c}" for c, ok in clauses.items() if not ok]
        rows.append(
            f"seed {seed}: rmse "
            + " ".join(
                f"{n}={rmses[n]:.2f}" if n in rmses else f"{n}=n/a"
                for n in ("ukf", "pf", "pdef", "exact")
            )
            + ", beat fraction "
            + " ".join(f"{n}={v:.2f}" for n, v in fractions.items())
        )
    detail = "; ".join(rows) + "; failed clauses: " + (", ".join(failed) or "none")
    _criterion(2, "fig-2 qualitative check", not failed, detail)


def test_criterion_02_names_filter_failed_mid_run():
    records = [
        TrajectoryRecord(
            k=k,
            truth=float(k),
            observation=0.0,
            estimates={"ukf": k + 3.0, "pf": None if k >= 3 else float(k),
                       "pdef": k + 0.5},
            failures={"pf": "WeightUnderflowError: underflow"} if k == 3 else {},
        )
        for k in range(1, 6)
    ]
    clauses, rmses, fractions = _fig2_seed(records, np.arange(1.0, 6.0))
    assert clauses == {
        "pf failed mid-run, first missing step 3: "
        "WeightUnderflowError: underflow": False,
        "rmse(pdef) < rmse(ukf)": True,
        "rmse(exact) < rmse(ukf)": True,
    }
    assert set(rmses) == {"ukf", "pdef", "exact"}
    assert fractions == {"pdef": 1.0, "exact": 1.0}


def test_criterion_03_matrix_exponential():
    # the shipped propagator against Taylor: _transport of the nodal rows
    # that fold to the unit vectors gives the columns of expm(shift F_N)
    # (row 0 has both ends 1, so its seam value is 1; each result's seam
    # value comes first)
    rng = np.random.default_rng(31)

    def propagator(order, shift):
        basis = np.eye(order + 1)
        basis[0, order] = 1.0
        return np.column_stack(
            [dn._transport(order, basis[j:j + 1], [shift], [0.0])[:-1]
             for j in range(order)]
        )

    worst = ident = 0.0
    for order in range(4, 33):
        unit = dn.folded_generator(order)
        for _ in range(25):
            shift = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0) / np.linalg.norm(unit, 1)
            oracle = taylor_expm(shift * unit)
            got = propagator(order, shift)
            worst = max(worst, np.linalg.norm(got - oracle, 1) / np.linalg.norm(oracle, 1))
        ident = max(ident, np.abs(propagator(order, 0.0) - np.eye(order)).max())
    ok = worst <= 1e-9 and ident <= 1e-14
    _criterion(
        3,
        "propagator exponential",
        ok,
        f"worst rel err vs Taylor {worst:.2e} (<=1e-9), "
        f"|transport at shift 0 - I| {ident:.1e} (<=1e-14), orders 4-32",
    )


def test_criterion_04_spectral_exactness():
    worst_diff = 0.0
    worst_quad = 0.0
    rng = np.random.default_rng(41)
    for order in (4, 8, 16):
        d = diff_matrix(order)
        x = gauss_lobatto_nodes(order)
        w = cc_weights(order)
        for _ in range(40):
            coeffs = rng.normal(size=order + 1)
            p = np.polynomial.chebyshev.chebval(x, coeffs)
            dp = np.polynomial.chebyshev.chebval(
                x, np.polynomial.chebyshev.chebder(coeffs)
            )
            err = np.abs(d @ p - dp).max() / (1.0 + np.abs(dp).max())
            worst_diff = max(worst_diff, err)
        for m in range(order + 1):
            analytic = 0.0 if m % 2 else 2.0 / (m + 1.0)
            worst_quad = max(worst_quad, abs(w @ x**m - analytic))
    ok = worst_diff <= 1e-8 and worst_quad <= 1e-10
    _criterion(
        4,
        "spectral exactness",
        ok,
        f"worst diff err {worst_diff:.2e} (<=1e-8), "
        f"worst quadrature err {worst_quad:.2e} (<=1e-10)",
    )


def test_criterion_05_advection_oracle():
    # unit Gaussian, 6-sigma support inside the domain before and after
    grid = SpectralGrid.build(64, Interval(-13.0, 13.0))
    sigma, center, velocity = 1.0, -3.0, 6.0
    start = dn.normalize(
        dn.GridDensity(grid, gaussian_pdf(grid.nodes, center, sigma**2))
    )
    # one transport of the whole density, ringing clipped
    shift = velocity * dn.affine_scale(grid.domain)
    values = dn._transport(grid.order, start.values[None, :], [shift], [0.0])
    moved = dn.GridDensity(grid, np.maximum(values, 0.0))
    expected = gaussian_pdf(grid.nodes, center + velocity, sigma**2)
    linf = float(np.abs(moved.values - expected).max())
    mass = dn.integrate(moved)
    ok = linf <= 1e-3 and abs(mass - 1.0) <= 0.02
    _criterion(
        5,
        "advection oracle",
        ok,
        f"Linf vs translated Gaussian {linf:.2e} (<=1e-3), "
        f"mass {mass:.6f} (within 2%)",
    )


def test_criterion_06_prior_prediction_mc():
    model = benchmark_model()
    sd = math.sqrt(5.0)
    post_grid = SpectralGrid.build(99, Interval(-8.0 * sd, 8.0 * sd))
    posterior = dn.normalize(
        dn.GridDensity(post_grid, gaussian_pdf(post_grid.nodes, 0.0, 5.0))
    )
    noise = flt.gaussian_quantile_points(16, model.process_noise.variance)
    branches = dn.make_branches(posterior, noise, model, 1, 16)
    domain = dn.prediction_domain(branches, 99, model.process_noise.std)
    grid = SpectralGrid.build(99, domain)
    prior = dn.assemble_prior(branches, grid)

    rng = np.random.default_rng(123456)
    draws = 10**6
    x0 = rng.normal(0.0, sd, draws)
    v = rng.normal(0.0, model.process_noise.std, draws)
    x1 = np.asarray(model.transition(x0, 1, v))
    hist, edges = np.histogram(
        x1, bins=200, range=(domain.lo, domain.hi), density=True
    )
    centers = 0.5 * (edges[:-1] + edges[1:])
    interp = barycentric_interp(grid, prior.values, centers)
    l1 = float(np.sum(np.abs(interp - hist)) * (edges[1] - edges[0]))
    _criterion(
        6,
        "prior-prediction Monte-Carlo oracle",
        l1 <= 0.08,
        f"L1 distance to 1e6-sample histogram {l1:.4f} (<=0.08)",
    )


def test_criterion_07_linear_gaussian_consistency():
    a, c, q, r, p0 = 0.9, 1.0, 1.0, 1.0, 1.0
    model = flt.ScalarStateModel(
        transition=lambda x, k, v: a * x + v,
        observation=lambda x, k: c * x,
        process_noise=flt.GaussianSpec(0.0, q),
        obs_noise=flt.GaussianSpec(0.0, r),
        initial=flt.GaussianSpec(0.0, p0),
    )
    # quantization rich enough that the density filter's discretization
    # error is subdominant (the criterion fixes the tolerance, not the
    # resolution); the unscented filter is exact at any setting
    cfg = flt.PdefConfig(grid_nodes=150, state_quantiles=64)
    noise = flt.gaussian_quantile_points(64, q)
    worst_ukf = 0.0
    worst_pdef = 0.0
    for seed in (2, 11):
        rng = np.random.default_rng(seed)
        _, obs = simulate_truth(model, 50, rng)
        means, _ = kalman_filter(obs, a, c, q, r, 0.0, p0)
        ukf_state = flt.ukf_init(model)
        pdef_state = flt.pdef_init(model, cfg)
        for k in range(1, 51):
            ukf_state = flt.ukf_step(ukf_state, model, k, obs[k - 1])
            pdef_state = flt.pdef_step(pdef_state, model, noise, k, obs[k - 1], cfg)
            worst_ukf = max(worst_ukf, abs(ukf_state.mean - means[k - 1]))
            worst_pdef = max(worst_pdef, abs(flt.estimate(pdef_state) - means[k - 1]))
    ok = worst_ukf <= 1e-8 and worst_pdef <= 0.05
    _criterion(
        7,
        "linear-Gaussian consistency",
        ok,
        f"worst |ukf - kalman| {worst_ukf:.2e} (<=1e-8), "
        f"worst |pdef - kalman| {worst_pdef:.4f} (<=0.05)",
    )


def test_criterion_08_bayes_update_properties():
    grid = SpectralGrid.build(80, Interval(-5.0, 5.0))

    flat = dn.GridDensity(grid, np.full(grid.n_nodes, 0.1))
    lik = gaussian_pdf(grid.nodes, 0.6, 0.4)
    posterior = flt.posterior_update(flat, lik)
    expected = lik / (grid.physical_weights @ lik)
    flat_prior_err = float(np.abs(posterior.values - expected).max())

    model = flt.ScalarStateModel(
        transition=lambda x, k, v: 0.9 * x + v,
        observation=lambda x, k: x,
        process_noise=flt.GaussianSpec(0.0, 1.0),
        obs_noise=flt.GaussianSpec(0.0, 1e12),  # flat likelihood limit
        initial=flt.GaussianSpec(0.0, 1.0),
    )
    cfg = flt.PdefConfig(grid_nodes=100, state_quantiles=16)
    noise = flt.gaussian_quantile_points(16, 1.0)
    state = flt.pdef_init(model, cfg)
    branches = dn.make_branches(state.posterior, noise, model, 1, 16)
    domain = dn.prediction_domain(branches, 99, 1.0)
    prior = dn.assemble_prior(branches, SpectralGrid.build(99, domain))
    stepped = flt.pdef_step(state, model, noise, 1, 0.3, cfg)
    flat_lik_l1 = l1_distance(stepped.posterior, prior)

    base = dn.GridDensity(grid, gaussian_pdf(grid.nodes, -0.2, 0.8))
    scaled = dn.GridDensity(grid, 7.0 * base.values)
    scale_err = float(
        np.abs(
            flt.posterior_update(base, lik).values
            - flt.posterior_update(scaled, lik).values
        ).max()
    )

    ok = flat_prior_err <= 1e-9 and flat_lik_l1 <= 1e-6 and scale_err <= 1e-10
    _criterion(
        8,
        "Bayes update properties",
        ok,
        f"flat-prior {flat_prior_err:.2e} (<=1e-9), "
        f"flat-likelihood L1 {flat_lik_l1:.2e} (<=1e-6), "
        f"scale invariance {scale_err:.2e} (<=1e-10)",
    )


def test_criterion_09_resampling_unbiasedness():
    weights = np.array([0.08, 0.12, 0.2, 0.25, 0.35])
    n_out, trials = 10, 100_000
    rng = np.random.default_rng(91)
    counts = np.zeros((trials, weights.size))
    for t in range(trials):
        idx = flt.systematic_resample(weights, n_out, rng.random())
        counts[t] = np.bincount(idx, minlength=weights.size)
    worst_z = 0.0
    for i in range(weights.size):
        stderr = counts[:, i].std(ddof=1) / math.sqrt(trials)
        z = abs(counts[:, i].mean() - n_out * weights[i]) / max(stderr, 1e-300)
        worst_z = max(worst_z, z)
    _criterion(
        9,
        "resampling unbiasedness",
        worst_z <= 3.0,
        f"worst |mean offspring - n*w| = {worst_z:.2f} standard errors (<=3)",
    )


def test_criterion_10_csv_determinism(tmp_path):
    run_flags = [
        "run", "--steps", "10", "--runs", "3", "--particles", "40",
        "--grid", "60", "--state-quantiles", "8", "--seed", "9",
    ]
    traj_flags = [
        "trajectory", "--steps", "8", "--particles", "40", "--grid", "60",
        "--state-quantiles", "8", "--seed", "9",
    ]
    outs = []
    for tag in ("a", "b"):
        run_out = tmp_path / f"run_{tag}.csv"
        traj_out = tmp_path / f"traj_{tag}.csv"
        assert cli.main(run_flags + ["--out", str(run_out)]) == 0
        assert cli.main(traj_flags + ["--out", str(traj_out)]) == 0
        outs.append(
            (
                run_out.read_bytes(),
                (tmp_path / f"run_{tag}.csv.runs.csv").read_bytes(),
                traj_out.read_bytes(),
            )
        )
    ok = outs[0] == outs[1]
    _criterion(
        10,
        "CSV determinism",
        ok,
        "summary, per-run and trajectory CSVs byte-identical across reruns",
    )
