"""Benchmark model, simulation, RMSE scoring, experiment harness, CSV output."""

import math
import re

import numpy as np
import pytest

from pdefilter import bench
from pdefilter import filters as flt
from pdefilter.bench import ExperimentConfig, RmseReport


def tiny_noise_model():
    base = bench.benchmark_model()
    return flt.ScalarStateModel(
        transition=base.transition,
        observation=base.observation,
        process_noise=flt.GaussianSpec(0.0, 1e-12),
        obs_noise=flt.GaussianSpec(0.0, 1e-4),
        initial=flt.GaussianSpec(0.0, 1e-12),
    )


def exact_observation_model():
    # with one particle, a near-exact observation underflows its only weight
    # at the first step
    base = bench.benchmark_model()
    return flt.ScalarStateModel(
        transition=base.transition,
        observation=base.observation,
        process_noise=base.process_noise,
        obs_noise=flt.GaussianSpec(0.0, 1e-12),
        initial=base.initial,
    )


class TestBenchmarkModel:
    def test_transition_from_origin(self):
        model = bench.benchmark_model()
        assert model.transition(0.0, 1, 0.0) == pytest.approx(
            8.0 * math.cos(1.2), abs=1e-12
        )

    def test_transition_odd_apart_from_forcing(self):
        model = bench.benchmark_model()
        rng = np.random.default_rng(0)
        for k in (1, 3, 9):
            forcing = 8.0 * math.cos(1.2 * k)
            for x in rng.uniform(-20, 20, 10):
                lhs = model.transition(x, k, 0.0) - forcing
                rhs = -(model.transition(-x, k, 0.0) - forcing)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_observation(self):
        model = bench.benchmark_model()
        for k in (1, 7):
            assert model.observation(10.0, k) == 5.0

    def test_noise_specs(self):
        model = bench.benchmark_model()
        assert model.process_noise.variance == 10.0
        assert model.obs_noise.variance == 1.0
        assert model.initial.variance == 10.0


class TestSimulateTruth:
    def test_noiseless_first_step(self):
        base = bench.benchmark_model()
        model = flt.ScalarStateModel(
            transition=base.transition,
            observation=base.observation,
            process_noise=flt.GaussianSpec(0.0, 1e-12),
            obs_noise=flt.GaussianSpec(0.0, 1e-12),
            initial=flt.GaussianSpec(0.0, 1e-12),
        )
        rng = np.random.default_rng(0)
        truth, obs = bench.simulate_truth(model, 1, rng)
        x1 = 8.0 * math.cos(1.2)
        assert truth[0] == pytest.approx(x1, abs=1e-4)
        assert obs[0] == pytest.approx(x1 * x1 / 20.0, abs=1e-4)

    def test_deterministic_given_seed(self):
        model = bench.benchmark_model()
        one = bench.simulate_truth(model, 20, np.random.default_rng(123))
        two = bench.simulate_truth(model, 20, np.random.default_rng(123))
        np.testing.assert_array_equal(one[0], two[0])
        np.testing.assert_array_equal(one[1], two[1])

    def test_process_noise_variance_recovered(self):
        model = bench.benchmark_model()
        truth, _ = bench.simulate_truth(model, 10_000, np.random.default_rng(7))
        residuals = [
            truth[i] - model.transition(truth[i - 1], i + 1, 0.0)
            for i in range(1, truth.size)
        ]
        assert np.var(residuals) == pytest.approx(10.0, rel=0.05)

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            bench.simulate_truth(bench.benchmark_model(), 0, np.random.default_rng(0))


class TestRmse:
    def test_zero_for_exact_estimates(self):
        assert bench.rmse([1.0, -2.0, 3.0], [1.0, -2.0, 3.0]) == 0.0

    def test_constant_error(self):
        assert bench.rmse([0.0, 1.0, 2.0], [1.5, 2.5, 3.5]) == pytest.approx(1.5)

    def test_direct_evaluation(self):
        assert bench.rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            math.sqrt(12.5), abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bench.rmse([1.0, 2.0], [1.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            bench.rmse([], [])


class TestRunSeedStreams:
    def test_pure_in_master_and_run(self):
        one = bench.run_seed_streams(42, 3)
        two = bench.run_seed_streams(42, 3)
        assert one[0].normal() == two[0].normal()
        assert one[1].normal() == two[1].normal()

    def test_distinct_runs_differ(self):
        one = bench.run_seed_streams(42, 0)
        two = bench.run_seed_streams(42, 1)
        assert one[0].normal() != two[0].normal()

    @pytest.mark.parametrize(
        "args, message",
        [((1.5, 0), "master_seed must be an integer, got 1.5"),
         ((1, 0.5), "run_index must be an integer, got 0.5"),
         ((-1, 0), "master_seed must be >= 0, got -1"),
         ((1, -1), "run_index must be >= 0, got -1")],
    )
    def test_bad_seed_or_run_rejected_naming_it(self, args, message):
        with pytest.raises(ValueError, match=message):
            bench.run_seed_streams(*args)

    def test_numpy_integers_give_the_same_streams(self):
        one = bench.run_seed_streams(np.int64(42), np.uint8(3))
        two = bench.run_seed_streams(42, 3)
        assert one[0].normal() == two[0].normal()


class TestRunExperiment:
    def small_cfg(self, **kw):
        defaults = dict(
            steps=6, runs=3, particles=40, grid_nodes=60,
            state_quantiles=8, noise_points=8, seed=5,
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_smoke_all_filters(self):
        reports = bench.run_experiment(self.small_cfg())
        assert [r.filter_name for r in reports] == ["ukf", "pf", "pdef"]
        for report in reports:
            assert report.runs_ok == 3
            assert report.runs_failed == 0
            assert report.mean_rmse >= 0.0

    def test_mean_is_arithmetic_mean(self):
        reports = bench.run_experiment(self.small_cfg())
        for report in reports:
            assert report.mean_rmse == pytest.approx(
                sum(report.per_run) / len(report.per_run), abs=1e-12
            )

    def test_identical_reruns_bitwise(self):
        one = bench.run_experiment(self.small_cfg())
        two = bench.run_experiment(self.small_cfg())
        for r1, r2 in zip(one, two):
            assert r1.per_run == r2.per_run

    def test_truth_independent_of_filter_subset(self):
        pf_only = bench.run_experiment(self.small_cfg(filters=("pf",)))
        all_three = bench.run_experiment(self.small_cfg())
        assert pf_only[0].per_run == all_three[1].per_run

    def test_noiseless_degenerate_all_filters_accurate(self):
        cfg = ExperimentConfig(steps=1, runs=1)
        reports = bench.run_experiment(cfg, model=tiny_noise_model())
        for report in reports:
            assert report.runs_ok == 1
            assert report.mean_rmse < 0.1

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValueError, match="unknown filter"):
            ExperimentConfig(filters=("ekf",))

    @pytest.mark.parametrize(
        "filters, message",
        [(("pf", "pf"), "duplicate filter 'pf'"),
         (("ukf", "pdef", "ukf"), "duplicate filter 'ukf'"),
         ("pf", "filters must be a sequence of names, not the string 'pf'")],
    )
    def test_duplicate_or_bare_string_filters_rejected(self, filters, message):
        # a repeated pf stepped twice on the run's particle stream and
        # reported the second pass for both; "pf" was read as ("p", "f")
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(filters=filters)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(runs=0)

    @pytest.mark.parametrize(
        "field, value",
        [("steps", 2.5), ("runs", 2.5), ("particles", 2.5), ("noise_points", 2.0), ("seed", 1.5),
         ("steps", True)],
    )
    def test_non_integer_count_rejected_naming_its_field(self, field, value):
        # each was accepted and then stopped the run inside numpy; steps=True
        # ran one step
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
            ExperimentConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = ExperimentConfig(steps=np.int64(2), runs=np.int32(1), seed=np.uint64(3))
        assert (cfg.steps, cfg.runs, cfg.seed) == (2, 1, 3)
        assert all(type(v) is int for v in (cfg.steps, cfg.runs, cfg.seed))

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence would raise later, mid-experiment
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ExperimentConfig(seed=-1)
        assert ExperimentConfig(seed=0).seed == 0

    def test_builds_the_pdef_config_it_runs_with(self, monkeypatch):
        cfg = ExperimentConfig(steps=2, runs=1, filters=("pdef",), grid_nodes=40, state_quantiles=6)
        assert cfg.pdef == flt.PdefConfig(grid_nodes=40, state_quantiles=6)
        used = []
        step = flt.pdef_step

        def recording_step(*args):
            used.append(args[-1])
            return step(*args)

        monkeypatch.setattr(flt, "pdef_step", recording_step)
        bench.run_experiment(cfg)
        assert used and all(c is cfg.pdef for c in used)

    @pytest.mark.parametrize(
        "bad, message",
        [({"grid_nodes": 3}, "grid_nodes must be >= 30, got 3"),
         ({"state_quantiles": 0}, "state_quantiles must be >= 1, got 0"),
         ({"grid_nodes": 50.5}, "grid_nodes must be an integer, got 50.5"),
         ({"state_quantiles": 4.5}, "state_quantiles must be an integer, got 4.5")],
    )
    def test_pdef_bounds_come_from_pdef_config(self, bad, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**bad)


class TestReportAccounting:
    def test_failed_runs_kept_out_of_mean_but_counted(self):
        report = RmseReport("pf", steps=10)
        report.rmse_by_run[0] = 4.0
        report.rmse_by_run[2] = 6.0
        report.failures.append((1, "weight underflow"))
        assert report.runs_ok == 2
        assert report.runs_failed == 1
        assert report.mean_rmse == pytest.approx(5.0)
        assert report.per_run == [4.0, 6.0]

    def test_failed_run_note_names_its_step_and_error_type(self, tmp_path):
        cfg = ExperimentConfig(filters=("pf",), steps=4, runs=2, particles=1, seed=3)
        [report] = bench.run_experiment(cfg, model=exact_observation_model())
        reason = "step 1: WeightUnderflowError: all particle likelihoods underflowed at step 1"
        assert report.failures == [(0, reason), (1, reason)]
        path = tmp_path / "runs.csv"
        bench.write_runs_csv(path, [report], "filter=pf")
        assert path.read_text().splitlines()[2:] == [
            f"pf,0,failed,,{reason}", f"pf,1,failed,,{reason}"
        ]

    def test_std_conventions(self):
        report = RmseReport("ukf", steps=5)
        report.rmse_by_run[0] = 3.0
        assert report.std_rmse == 0.0
        report.rmse_by_run[1] = 5.0
        assert report.std_rmse == pytest.approx(np.std([3.0, 5.0], ddof=1))


class TestRunTrajectory:
    def test_contiguous_steps_and_estimates(self):
        cfg = ExperimentConfig(
            steps=5, runs=1, particles=30, grid_nodes=60,
            state_quantiles=8, noise_points=8, seed=7,
        )
        records = bench.run_trajectory(cfg)
        assert [r.k for r in records] == [1, 2, 3, 4, 5]
        for record in records:
            assert set(record.estimates) == {"ukf", "pf", "pdef"}
            for value in record.estimates.values():
                assert value is not None
            assert record.failures == {}

    def test_failure_reason_reaches_records_and_csv(self, tmp_path):
        cfg = ExperimentConfig(
            filters=("ukf", "pf"), steps=4, runs=1, particles=1, seed=3
        )
        records = bench.run_trajectory(cfg, model=exact_observation_model())
        reason = "WeightUnderflowError: all particle likelihoods underflowed at step 1"
        assert records[0].failures == {"pf": reason}
        assert all(r.estimates["pf"] is None for r in records)
        assert all(r.estimates["ukf"] is not None for r in records)
        assert all(r.failures == {} for r in records[1:])
        path = tmp_path / "traj.csv"
        bench.write_trajectory_csv(path, records, "filter=pf")
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + cfg.steps + 1
        assert lines[-1] == f"# failed: pf step 1: {reason}"

    def nan_at_step_3(self, observation):
        # the transition turns NaN at step 3, the simulated truth with it
        base = bench.benchmark_model()
        model = flt.ScalarStateModel(
            transition=lambda x, k, v: base.transition(x, k, v) + (np.nan if k == 3 else 0.0),
            observation=observation or base.observation,
            process_noise=base.process_noise,
            obs_noise=base.obs_noise,
            initial=base.initial,
        )
        cfg = ExperimentConfig(
            steps=4, runs=1, particles=30, grid_nodes=60,
            state_quantiles=8, noise_points=8, seed=7,
        )
        return cfg, model

    def test_non_finite_model_output_is_a_recorded_failure(self):
        # the observation is constant at step 3, so the filters get a finite
        # observation and fail on their own transition call
        cfg, model = self.nan_at_step_3(
            lambda x, k: 0.0 if k == 3 else bench.benchmark_model().observation(x, k)
        )
        records = bench.run_trajectory(cfg, model=model)
        reason = "FilterDivergenceError: model transition returned a non-finite value at step 3"
        assert records[2].failures == {name: reason for name in ("ukf", "pf", "pdef")}
        assert all(value is not None for value in records[1].estimates.values())

    def test_non_finite_simulated_observation_stops_the_run(self):
        # a NaN truth observes NaN; that is bad input to every filter, not a
        # filter failure, so it is raised, not recorded
        cfg, model = self.nan_at_step_3(None)
        with pytest.raises(ValueError, match="observation y_k must be finite, got nan at step 3"):
            bench.run_trajectory(cfg, model=model)


class TestCsvOutput:
    def sample_reports(self):
        report = RmseReport("pf", steps=10)
        report.rmse_by_run[0] = 4.756312
        report.rmse_by_run[1] = 5.25
        report.failures.append((2, "weight underflow"))
        return [report]

    def test_summary_format(self, tmp_path):
        path = tmp_path / "out.csv"
        bench.write_summary_csv(path, self.sample_reports(), "filter=pf seed=1")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config: filter=pf seed=1"
        assert lines[1] == "filter,runs_ok,runs_failed,steps,mean_rmse,std_rmse"
        fields = lines[2].split(",")
        assert fields[:4] == ["pf", "2", "1", "10"]
        assert fields[4] == "5.00316"  # six significant digits
        assert len(lines) == 3

    def test_single_newline_terminators(self, tmp_path):
        path = tmp_path / "out.csv"
        bench.write_summary_csv(path, self.sample_reports(), "x=1")
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")

    def test_runs_csv_includes_failures(self, tmp_path):
        path = tmp_path / "runs.csv"
        bench.write_runs_csv(path, self.sample_reports(), "x=1")
        lines = path.read_text().splitlines()
        assert lines[1] == "filter,run,status,rmse,note"
        assert lines[2].startswith("pf,0,ok,4.75631")
        assert lines[4] == "pf,2,failed,,weight underflow"

    def test_trajectory_columns_and_empty_fields(self, tmp_path):
        records = [
            bench.TrajectoryRecord(1, 1.5, 0.25, {"pf": 1.31}),
            bench.TrajectoryRecord(2, -0.5, 0.1, {"pf": None}),
        ]
        path = tmp_path / "traj.csv"
        bench.write_trajectory_csv(path, records, "filter=pf")
        lines = path.read_text().splitlines()
        assert lines[1] == "k,truth,observation,ukf,pf,pdef"
        assert lines[2] == "1,1.5,0.25,,1.31,"
        assert lines[3] == "2,-0.5,0.1,,,"
        assert len(lines) == 4

    def test_byte_identical_rewrites(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        bench.write_summary_csv(a, self.sample_reports(), "x=1")
        bench.write_summary_csv(b, self.sample_reports(), "x=1")
        assert a.read_bytes() == b.read_bytes()
