"""In-process timings of the density filter's prediction layers, pf_step
and ukf_step, on the benchmark's workloads.

    PYTHONPATH=src python tools/microbench.py [--repeat N] [--json]

For each workload of ``perfbench/workloads.py``, one column each, the three
filters run trajectory 0 of seed ``SEED`` (``trajectory_inputs``) with the
workload's model, noise points, ``PdefConfig`` and particle count.  That
fixes the inputs: each filter's state entering the last step, that step's
observation, and the branches and grid of that step's ``assemble_prior``
call.  On those inputs it times

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
- ``pf_step``, the particle filter's last step on its cloud; its draws
  continue the trajectory's particle generator, which advances from call
  to call;
- ``ukf_step``, the unscented filter's last step.

It prints the best time per call over ``--repeat`` rounds, in
microseconds.  Each round runs as many calls as fill about 0.2 s.  The
script imports the package and ``perfbench/workloads.py`` only, so
pointing ``PYTHONPATH`` at another checkout's ``src`` times that checkout
on the same inputs, if its ``_transport`` has this one's signature:
``(order, bumps, shifts, noise_shifts)`` on nodal rows, with every branch
equally weighted, its ``_check_escape`` this one's: ``(grid, bumps,
branches)``, its ``pf_step`` this one's: ``(state, model, k, y_k, rng)``,
and its ``ukf_step`` this one's: ``(state, model, k, y_k)``.
"""

from __future__ import annotations

import argparse
import json
import sys
import timeit
from pathlib import Path
from unittest import mock

import numpy as np

from pdefilter import density as dn
from pdefilter import filters as flt
from pdefilter.chebyshev import affine_scale

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads as W  # noqa: E402

SEED = 1

# consecutive cache hits per timed call, as assemble_prior makes them
HITS = range(100)


def last_step(s: W.Setting):
    """Each filter's state entering the last step of the trajectory, that
    step's observation, the particle filter's generator, and the branches
    and grid of the step's ``assemble_prior`` call."""
    inputs = W.trajectory_inputs(s.workload, SEED, 0, W.STEPS)
    rng = np.random.default_rng(inputs.pf_seed)
    ukf = flt.ukf_init(s.model)
    pf = flt.pf_init(s.model, s.workload.particles, rng)
    pdef = flt.pdef_init(s.model, s.pdef)
    *head, y_last = inputs.observations.tolist()
    for k, y in enumerate(head, 1):
        ukf = flt.ukf_step(ukf, s.model, k, y)
        pf = flt.pf_step(pf, s.model, k, y, rng)
        pdef = flt.pdef_step(pdef, s.model, s.noise, k, y, s.pdef)
    calls = []

    def recording(branches, grid):
        calls.append((branches, grid))
        return dn.assemble_prior(branches, grid)

    with mock.patch.object(flt, "assemble_prior", recording):
        flt.pdef_step(pdef, s.model, s.noise, W.STEPS, y_last, s.pdef)
    branches, grid = calls[-1]
    return ukf, pf, pdef, y_last, rng, branches, grid


def best_us(call, repeat: int) -> float:
    """Best time per call over *repeat* rounds, in microseconds."""
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return 1e6 * min(timer.repeat(repeat, number)) / number


def timings(s: W.Setting, repeat: int) -> dict:
    model, noise, cfg = s.model, s.noise, s.pdef
    ukf, pf, pdef, y_last, rng, branches, grid = last_step(s)
    posterior = pdef.posterior
    tail = posterior.values.copy()
    tail[tail == 0.0] = 1e-306
    tailed = dn.GridDensity(posterior.grid, tail)
    points = cfg.state_quantiles
    probs = (2.0 * np.arange(points) + 1.0) / (2.0 * points)
    scale = affine_scale(grid.domain)
    starts = branches.start_state.tolist()
    bumps = np.array([dn.mollified_delta(grid, x).values for x in starts])
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

    # row: (timed call, calls of the layer it makes)
    rows = {
        "pdef_step": (lambda: flt.pdef_step(pdef, model, noise, W.STEPS, y_last, cfg), 1),
        "prediction_domain": (
            lambda: dn.prediction_domain(branches, grid.order, model.process_noise.std), 1
        ),
        "assemble_prior": (lambda: dn.assemble_prior(branches, grid), 1),
        "_transport": (lambda: dn._transport(
            grid.order, bumps, scale * branches.drift, scale * branches.noise_value
        ), 1),
        "_check_escape": (lambda: dn._check_escape(grid, bumps, branches), 1),
        "density_quantiles": (lambda: dn.density_quantiles(posterior, probs), 1),
        "quantiles, 1e-306": (lambda: dn.density_quantiles(tailed, probs), 1),
        "bump build": (builds, 2),
        "cache hit": (hits, len(HITS)),
        "pf_step": (lambda: flt.pf_step(pf, model, W.STEPS, y_last, rng), 1),
        "ukf_step": (lambda: flt.ukf_step(ukf, model, W.STEPS, y_last), 1),
    }
    return {name: best_us(call, repeat) / n for name, (call, n) in rows.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="timed rounds per layer (default 7)")
    parser.add_argument("--json", action="store_true", help="print one JSON object instead of a table")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    results = {name: timings(W.setting(w), args.repeat) for name, w in W.WORKLOADS.items()}
    if args.json:
        print(json.dumps({w: {k: round(v, 3) for k, v in r.items()} for w, r in results.items()}))
        return 0
    rows = list(next(iter(results.values())))
    print(f"{'best us per call':<20}" + "".join(f"{name:>16}" for name in results))
    for row in rows:
        print(f"{row:<20}" + "".join(f"{r[row]:>16.2f}" for r in results.values()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
