"""In-process timings of the density filter's prediction layers, pf_step
and ukf_step.

    PYTHONPATH=src python tools/microbench.py [--repeat N] [--json]

At each of the three benchmark sizes (grid 100 with 16 x 16 branches on the
growth model, grid 150 with 64 x 64 on the linear model, grid 48 with 4 x 4
on the growth model) one pdef run of ``STEPS`` steps at seed ``SEED`` fixes
the inputs: the state entering its last step, that step's observation, and
the branches and grid of that step's ``assemble_prior`` call.  On those
inputs it times

- ``pdef_step``, the whole last step, from the state to the posterior;
- ``prediction_domain``, the step's grid interval from its branches;
- ``assemble_prior``, the whole prior assembly of the step;
- ``_transport``, the transport alone, on the array of the step's nodal
  bumps (one row per start, folded and unfolded inside ``_transport``);
- ``_check_escape``, the escape guard alone, on the same array;
- ``density_quantiles``, the start states of the step;
- ``quantiles, 1e-306``, the same on the step's posterior with each zero
  entry set to 1e-306 before ``GridDensity`` sees it: the far tail that
  ``GridDensity``'s flush stores as 0.0, whose products with the CDF
  kernel would otherwise be subnormal;
- one bump build, ``mollified_delta`` on a center it did not see last;
- one cache hit, ``mollified_delta`` on the center it saw last, timed
  over 100 consecutive hits in a bare loop;

It also times one ``pf_step`` on the growth model at 100 and 10^4
particles (``PF_SIZES``), on the cloud a seeded pf run of ``STEPS`` steps
at seed ``SEED`` holds entering its last step, with that step's
observation; its draws continue that run's particle generator, which
advances from call to call.  Beside them it times one ``ukf_step`` on the
growth model, on the state a seeded ukf run of ``STEPS`` steps at seed
``SEED`` holds entering its last step, with that step's observation.

It prints the best time per call over ``--repeat`` rounds, in
microseconds.  Each round runs as many calls as fill about 0.2 s.  The
script imports the package only, so pointing ``PYTHONPATH`` at another
checkout's ``src`` times that checkout on the same inputs, if its
``_transport`` has this one's signature: ``(order, bumps, shifts,
noise_shifts)`` on nodal rows, with every branch equally weighted, its
``_check_escape`` this one's: ``(grid, bumps, branches)``, its ``pf_step``
this one's: ``(state, model, k, y_k, rng)``, and its ``ukf_step`` this
one's: ``(state, model, k, y_k)``.
"""

from __future__ import annotations

import argparse
import json
import timeit

import numpy as np

from pdefilter import density as dn
from pdefilter import filters as flt
from pdefilter.bench import benchmark_model, run_seed_streams, simulate_truth
from pdefilter.chebyshev import affine_scale

STEPS = 20
SEED = 1

# consecutive cache hits per timed call, as assemble_prior makes them
HITS = range(100)

# (label, model, grid nodes, state quantiles = noise points)
SIZES = (
    ("grid100-16x16", "growth", 100, 16),
    ("grid150-64x64", "linear", 150, 64),
    ("grid48-4x4", "growth", 48, 4),
)

# (label, particles) of the timed pf_step, on the growth model
PF_SIZES = (("pf-100", 100), ("pf-10000", 10_000))


def linear_model() -> flt.ScalarStateModel:
    """x_k = 0.9 x_{k-1} + v, y_k = x_k + n, with unit variances."""
    unit = flt.GaussianSpec(0.0, 1.0)
    return flt.ScalarStateModel(
        transition=lambda x, k, v: 0.9 * x + v,
        observation=lambda x, k: 1.0 * x,
        process_noise=unit,
        obs_noise=unit,
        initial=unit,
    )


def step_inputs(model, cfg, noise):
    """The state entering the last step of a seeded pdef run, that step's
    observation, and the branches and grid of its ``assemble_prior``
    call."""
    _, observations = simulate_truth(model, STEPS, run_seed_streams(SEED, 0)[0])
    calls = []

    def recording(branches, grid):
        prior = dn.assemble_prior(branches, grid)
        calls.append((branches, grid))
        return prior

    original = flt.assemble_prior
    flt.assemble_prior = recording
    try:
        state = flt.pdef_init(model, cfg)
        for k, y in enumerate(observations.tolist(), 1):
            last = state
            state = flt.pdef_step(state, model, noise, k, y, cfg)
    finally:
        flt.assemble_prior = original
    branches, grid = calls[-1]
    return last, y, branches, grid


def best_us(call, repeat: int) -> float:
    """Best time per call over *repeat* rounds, in microseconds."""
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return 1e6 * min(timer.repeat(repeat, number)) / number


def size_timings(model, grid_nodes: int, points: int, repeat: int) -> dict:
    cfg = flt.PdefConfig(grid_nodes=grid_nodes, state_quantiles=points)
    noise = flt.gaussian_quantile_points(points, model.process_noise.variance)
    state, y_last, branches, grid = step_inputs(model, cfg, noise)
    posterior = state.posterior
    tail = posterior.values.copy()
    tail[tail == 0.0] = 1e-306
    tailed = dn.GridDensity(posterior.grid, tail)
    std = model.process_noise.std
    probs = (2.0 * np.arange(points) + 1.0) / (2.0 * points)
    scale = affine_scale(grid.domain)
    starts = branches.start_state.tolist()
    bumps = np.array([dn.mollified_delta(grid, s).values for s in starts])
    # two distinct centers taken in turn miss the one-entry cache every call
    a, b = starts[0], (starts[-1] if starts[-1] != starts[0] else starts[0] + 1e-3)

    def builds():
        dn.mollified_delta(grid, a)
        dn.mollified_delta(grid, b)

    def hits():
        # only the very first call builds (the bump builds leave b cached),
        # and it falls in best_us's untimed autorange calls
        for _ in HITS:
            dn.mollified_delta(grid, a)

    # layer: (timed call, calls of the layer it makes)
    layers = {
        "pdef_step": (lambda: flt.pdef_step(state, model, noise, STEPS, y_last, cfg), 1),
        "prediction_domain": (lambda: dn.prediction_domain(branches, grid.order, std), 1),
        "assemble_prior": (lambda: dn.assemble_prior(branches, grid), 1),
        "_transport": (lambda: dn._transport(
            grid.order, bumps, scale * branches.drift, scale * branches.noise_value
        ), 1),
        "_check_escape": (lambda: dn._check_escape(grid, bumps, branches), 1),
        "density_quantiles": (lambda: dn.density_quantiles(posterior, probs), 1),
        "quantiles, 1e-306": (lambda: dn.density_quantiles(tailed, probs), 1),
        "bump build": (builds, 2),
        "cache hit": (hits, len(HITS)),
    }
    return {name: best_us(call, repeat) / n for name, (call, n) in layers.items()}


def pf_timings(n_particles: int, repeat: int) -> dict:
    """Best time of one ``pf_step`` on the cloud entering the last step of a
    seeded pf run, with that step's observation."""
    model = benchmark_model()
    truth_rng, rng = run_seed_streams(SEED, 0)
    _, observations = simulate_truth(model, STEPS, truth_rng)
    state = flt.pf_init(model, n_particles, rng)
    for k, y in enumerate(observations[:-1].tolist(), 1):
        state = flt.pf_step(state, model, k, y, rng)
    y_last = float(observations[-1])
    return {"pf_step": best_us(lambda: flt.pf_step(state, model, STEPS, y_last, rng), repeat)}


def ukf_timings(repeat: int) -> dict:
    """Best time of one ``ukf_step`` on the state entering the last step of
    a seeded ukf run, with that step's observation."""
    model = benchmark_model()
    _, observations = simulate_truth(model, STEPS, run_seed_streams(SEED, 0)[0])
    state = flt.ukf_init(model)
    for k, y in enumerate(observations[:-1].tolist(), 1):
        state = flt.ukf_step(state, model, k, y)
    y_last = float(observations[-1])
    return {"ukf_step": best_us(lambda: flt.ukf_step(state, model, STEPS, y_last), repeat)}


def print_table(results: dict) -> None:
    names = list(next(iter(results.values())))
    print(f"{'best us per call':<20}" + "".join(f"{label:>16}" for label in results))
    for name in names:
        print(f"{name:<20}" + "".join(f"{r[name]:>16.2f}" for r in results.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="timed rounds per layer (default 7)")
    parser.add_argument("--json", action="store_true", help="print one JSON object instead of a table")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    models = {"growth": benchmark_model, "linear": linear_model}
    results = {
        label: size_timings(models[model](), nodes, points, args.repeat)
        for label, model, nodes, points in SIZES
    }
    pf_results = {label: pf_timings(n, args.repeat) for label, n in PF_SIZES}
    ukf_results = {"ukf": ukf_timings(args.repeat)}
    if args.json:
        every = {**results, **pf_results, **ukf_results}
        print(json.dumps({label: {k: round(v, 3) for k, v in r.items()} for label, r in every.items()}))
        return 0
    print_table(results)
    print()
    print_table(pf_results)
    print()
    print_table(ukf_results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
