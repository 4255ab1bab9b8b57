"""Grid densities, mollified deltas, advection and prior assembly."""

import re
import sys
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from pdefilter import density as dn
from pdefilter import linalg
from pdefilter import filters as flt
from pdefilter.bench import benchmark_model, run_seed_streams, simulate_truth
from pdefilter.chebyshev import Interval, SpectralGrid, barycentric_interp
from pdefilter.errors import DomainEscapeError, FilterDivergenceError
from pdefilter.filters import GaussianSpec, ScalarStateModel, gaussian_quantile_points

from _helpers import l1_distance
from _oracles import complex_transport, gaussian_pdf, gaussian_sum_prior


def wide_grid(order=64, half_width=13.0):
    # wide enough that a bump, about one unit wide, keeps far less than 1e-6
    # of its mass past the boundary margin even after a shift of several units
    return SpectralGrid.build(order, Interval(-half_width, half_width))


def gaussian_density(grid, mean, variance):
    return dn.normalize(
        dn.GridDensity(grid, gaussian_pdf(grid.nodes, mean, variance))
    )


def expanded(branches):
    """The S x P branches of a product, start-major: (start, velocity, mass)
    arrays with branch ``s * P + p`` at index ``s * P + p``; every branch
    has the same mass, ``1 / (S P)``."""
    p = branches.noise_value.size
    starts = np.repeat(branches.start_state, p)
    velocity = (branches.drift[:, None] + branches.noise_value[None, :]).ravel()
    mass = np.full(len(branches), 1.0 / len(branches))
    return starts, velocity, mass


def expm_prior(branches, grid):
    """Reference prior: one linalg.expm of the folded generator per branch,
    applied to the folded bump, summed, clipped once and normalized."""
    n = grid.order
    unit = dn.folded_generator(n)
    scale = dn.affine_scale(grid.domain)
    accum = np.zeros(n)
    for start, velocity, mass in zip(*expanded(branches)):
        bump = dn.mollified_delta(grid, start).values
        folded = np.concatenate([[0.5 * (bump[0] + bump[n])], bump[1:n]])
        propagator = linalg.expm((velocity * scale) * unit)
        accum += mass * (propagator @ folded)
    values = np.clip(np.concatenate([accum, accum[:1]]), 0.0, None)
    return dn.normalize(dn.GridDensity(grid, values))


def margin_bounds(grid):
    """The domain less two nominal node spacings at each end: a branch's
    mass shifted past these bounds has escaped."""
    margin = 2.0 * grid.domain.width / grid.order
    return grid.domain.lo + margin, grid.domain.hi - margin


def escaped_mass(grid, bump, shift):
    """The per-branch reference: the mass of *bump* (nodal values) on the
    nodes that *shift* moves past the margin bounds, and the bump's whole
    mass, each a quadrature summed over the nodes in order."""
    lo_bound, hi_bound = margin_bounds(grid)
    mass = bump * grid.physical_weights
    shifted = grid.nodes + shift
    return np.where((shifted < lo_bound) | (shifted > hi_bound), mass, 0.0).sum(), mass.sum()


def check_each_branch(branches, grid, bumps):
    """Raise the escape of the first branch, in order, that carries more
    than 1e-6 of its bump's mass past the margin bounds; *bumps* holds one
    row per branch."""
    _, velocity, _ = expanded(branches)
    for i, (bump, v) in enumerate(zip(bumps, velocity)):
        escaped, total = escaped_mass(grid, bump, v)
        if escaped > 1e-6 * total:
            raise DomainEscapeError(
                f"{escaped / total:.3e} of the advected mass for branch {i} crosses the "
                f"boundary margin of [{grid.domain.lo:.4g}, {grid.domain.hi:.4g}]; "
                "widen the domain selection"
            )


def per_branch_prior(branches, grid):
    """Reference prior without the product: per branch one bump and one
    escape check, then all S x P rows transported by their own velocity in
    a single batch, each of mass ``1 / (S P)``, with a unit noise factor."""
    starts, velocity, _ = expanded(branches)
    bumps = np.array([dn.mollified_delta(grid, start).values for start in starts])
    check_each_branch(branches, grid, bumps)
    values = dn._transport(grid.order, bumps, dn.affine_scale(grid.domain) * velocity, [0.0])
    return dn.normalize(dn.GridDensity(grid, np.clip(values, 0.0, None)))


def advected(density, velocity):
    """*density* moved at *velocity* over unit pseudo-time by the one
    transport, as a single row with a unit noise factor, ringing clipped."""
    grid = density.grid
    shift = velocity * dn.affine_scale(grid.domain)
    values = dn._transport(grid.order, density.values[None, :], [shift], [0.0])
    return dn.GridDensity(grid, np.maximum(values, 0.0))


def fresh_bump(grid, center):
    """``mollified_delta`` built from an emptied cache; the cache entry is
    put back afterwards."""
    saved = dn._last_bump
    dn._last_bump = (None, None, None)
    try:
        return dn.mollified_delta(grid, center)
    finally:
        dn._last_bump = saved


def argmin_sigma(grid, center):
    """The bump width from its definition: 1.5 times the mean of the node
    gaps (``np.diff`` over the whole grid) next to the node that
    ``np.argmin`` of the distances picks."""
    gaps = np.diff(grid.nodes)
    j = int(np.argmin(np.abs(grid.nodes - center)))
    return 1.5 * float(gaps[max(j - 1, 0): j + 1].mean())


def assert_sigma_is_argmin_sigma(grid, center):
    """Strictly inside the domain the width equals its definition; any other
    center, an end node included, is refused."""
    if grid.domain.lo < center < grid.domain.hi:
        assert dn.mollification_sigma(grid, center) == argmin_sigma(grid, center)
    else:
        with pytest.raises(ValueError, match="not strictly inside"):
            dn.mollification_sigma(grid, center)


def counting(monkeypatch, name):
    """Replace ``density.<name>`` by a wrapper that records its calls."""
    calls = []
    original = getattr(dn, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dn, name, wrapper)
    return calls


def branches_of(*pairs):
    """Branches from (start, end) pairs: one start per pair, with drift
    ``end - start``, and a single zero noise point."""
    starts, ends = (np.array(column, dtype=float) for column in zip(*pairs))
    return dn.Branches(starts, ends - starts, [0.0])


def product_of(starts, drifts, noise):
    """Branches of the given starts and noise points."""
    return dn.Branches(starts, drifts, noise)


@st.composite
def random_products(draw):
    """Product branches on :func:`wide_grid`: up to 5 starts (repeats
    likely), up to 5 noise points; every end stays inside [-7, 7]."""
    starts = draw(
        st.lists(st.sampled_from([-1.0, 0.0, 2.5]) | st.floats(-3.0, 3.0), min_size=1, max_size=5)
    )
    drifts = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(starts), max_size=len(starts)))
    noise = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
    return product_of(starts, drifts, noise)


def screenless_prior(branches, grid):
    """Prior assembly without the start screen: one ``mollified_delta``
    call per branch, in order, then every branch checked on its own, in
    order; the transport is :func:`density.assemble_prior`'s."""
    p = branches.noise_value.size
    bumps = []
    for start in branches.start_state.tolist():
        calls = [dn.mollified_delta(grid, start) for _ in range(p)]
        bumps.append(calls[0].values)
    check_each_branch(branches, grid, np.repeat(bumps, p, axis=0))
    scale = dn.affine_scale(grid.domain)
    values = dn._transport(
        grid.order, np.array(bumps), scale * branches.drift, scale * branches.noise_value
    )
    return dn.normalize(dn.GridDensity(grid, np.maximum(values, 0.0)))


def assembly_outcome(assemble, branches, grid):
    """The prior's bytes, or the message of the first escape, and the
    ``mollified_delta`` calls made on the way, as (grid identity, center)
    pairs in call order."""
    with pytest.MonkeyPatch.context() as mp:
        calls = counting(mp, "mollified_delta")
        try:
            result = assemble(branches, grid).values.tobytes()
        except DomainEscapeError as error:
            result = str(error)
    return result, [(id(g), center) for g, center in calls]


@st.composite
def margin_straddling_products(draw):
    """Product branches on :func:`wide_grid` whose starts each carry about
    1e-6 of their bump's mass past the margin at their extreme branch, on
    either side of the limit.  Per start, the k outermost nodes on a drawn
    side are moved past the bound, k drawn around the count at which the
    reference share (summed outward, a close estimate) first exceeds 1e-6;
    the shift sits either between two nodes or exactly where a node meets
    the bound, single roundings either way included, and the drift is
    solved from it and the extreme noise point."""
    grid = wide_grid()
    lo_bound, hi_bound = margin_bounds(grid)
    nodes = grid.nodes.tolist()
    order = grid.order
    starts = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
    noise = draw(st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=5))
    drifts = []
    for start in starts:
        mass = fresh_bump(grid, start).values * grid.physical_weights
        high = draw(st.booleans())
        # shares[k - 1]: the share on the k outermost nodes of the side
        shares = np.cumsum(mass[::-1] if high else mass) / mass.sum()
        first_over = int(np.searchsorted(shares, 1e-6, side="right")) + 1
        k = min(max(first_over + draw(st.integers(-2, 1)), 1), order)
        # the innermost node moved out, and the next one in, which stays
        if high:
            inner, stays = nodes[order + 1 - k], nodes[order - k]
        else:
            inner, stays = nodes[k - 1], nodes[k]
        if draw(st.booleans()):
            offset = 0.5 * (inner - stays)
        else:
            offset = draw(st.sampled_from([0.0, 4e-16, -4e-16]))
        if high:
            drifts.append(hi_bound - inner + offset - max(noise))
        else:
            drifts.append(lo_bound - inner + offset - min(noise))
    return product_of(starts, drifts, noise), grid


@lru_cache(maxsize=None)
def limit_products():
    """Branches of one start on ``wide_grid(137)`` whose branch 1 carries,
    by the per-branch reference, exactly 1e-6 of its bump's mass past the
    high margin bound (rounding 0), one rounding less (-1) or one rounding
    more (1), keyed by ``(rounding, measured)``.

    The drift moves a run of outermost nodes past the high bound, and the
    start is bisected to where the reference share crosses 1e-6 and
    then stepped by single roundings of itself, which move the share by a
    small fraction of one of its own roundings, until the three cases are
    found.  Branch 0 shifts by 0.5 less (``measured`` false: the screen
    decides at the limit) or by enough to carry just over 1e-9 of the mass
    past the low bound (true: the start fails the screen, and branch 1 is
    measured on its own at the limit)."""
    grid = wide_grid(137)
    lo_bound, hi_bound = margin_bounds(grid)
    nodes = grid.nodes.tolist()

    def excess(start, shift):
        escaped, total = escaped_mass(grid, fresh_bump(grid, start).values, shift)
        return escaped - 1e-6 * total

    for j in range(grid.order // 2 + 1, grid.order + 1):
        shift = hi_bound - 0.5 * (nodes[j - 1] + nodes[j])
        a, b = -0.12, 0.12
        rising = excess(a, shift) < 0.0
        if rising == (excess(b, shift) < 0.0):
            continue
        for _ in range(64):
            middle = 0.5 * (a + b)
            if (excess(middle, shift) < 0.0) == rising:
                a = middle
            else:
                b = middle
        found = {}
        for k in range(-400, 400):
            start = a + k * np.spacing(a)
            escaped, total = escaped_mass(grid, fresh_bump(grid, start).values, shift)
            limit = 1e-6 * total
            for rounding in (-1, 0, 1):
                if escaped == (np.nextafter(limit, rounding * np.inf) if rounding else limit):
                    found.setdefault(rounding, start)
        if len(found) < 3:
            continue
        # the low shift that moves the fewest lowest nodes past the low bound
        # for more than 1e-9 of the mass
        bump = fresh_bump(grid, a).values
        low = next(
            v for v in (lo_bound - 0.5 * (nodes[k - 1] + nodes[k]) for k in range(1, grid.order))
            if np.divide(*escaped_mass(grid, bump, v)) > 1e-9
        )
        return {
            (rounding, measured): (
                product_of([start], [shift], [low - shift if measured else -0.5, 0.0]),
                grid,
            )
            for rounding, start in found.items()
            for measured in (False, True)
        }
    raise AssertionError("no start found at the 1e-6 escape limit")


def prediction_step(case):
    """Branches and next grid of one benchmark-sized prediction from a
    Gaussian posterior: 64 x 64 branches on the linear model or 16 x 16 on
    the growth model."""
    if case == "linear-64x64":
        model, quantiles, order = linear_model(0.9), 64, 149
        posterior = gaussian_density(wide_grid(99, 8.0), 0.3, 1.0)
    else:
        model, quantiles, order = benchmark_model(), 16, 99
        posterior = gaussian_density(wide_grid(99, 18.0), 0.0, 5.0)
    noise = gaussian_quantile_points(quantiles, model.process_noise.variance)
    branches = dn.make_branches(posterior, noise, model, 1, quantiles)
    domain = dn.prediction_domain(branches, order, model.process_noise.std)
    return branches, SpectralGrid.build(order, domain)


def linear_model(slope=1.0):
    return ScalarStateModel(
        transition=lambda x, k, v: slope * x + v,
        observation=lambda x, k: x,
        process_noise=GaussianSpec(0.0, 1.0),
        obs_noise=GaussianSpec(0.0, 1.0),
        initial=GaussianSpec(0.0, 1.0),
    )


class TestGridDensity:
    def test_rejects_negative_values(self):
        grid = wide_grid(8)
        values = np.ones(9)
        values[3] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            dn.GridDensity(grid, values)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="nodal values"):
            dn.GridDensity(wide_grid(8), np.ones(5))

    def test_rejects_nan(self):
        values = np.ones(9)
        values[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            dn.GridDensity(wide_grid(8), values)

    @pytest.mark.parametrize(
        "bad", [[np.inf], [-np.inf], [np.nan], [np.nan, -0.5], [-0.5, np.nan]]
    )
    def test_non_finite_values_are_reported_before_negative_ones(self, bad):
        values = np.ones(9)
        values[2:2 + len(bad)] = bad
        with pytest.raises(ValueError, match="^density values must be finite$"):
            dn.GridDensity(wide_grid(8), values)

    def test_subnormal_values_are_stored_as_zero(self):
        # and every value below 2^-900 of the peak, tiny itself included:
        # its products with the CDF kernel or the eigen-coordinate transform
        # would be subnormal
        tiny = np.finfo(float).tiny
        floor = 2.0 ** -900
        values = np.full(9, floor)
        values[[0, 2, 5, 7]] = [1.0, floor / 2.0, tiny, 5e-324]
        density = dn.GridDensity(wide_grid(8), values)
        np.testing.assert_array_equal(
            density.values, [1.0, floor, 0.0, floor, floor, 0.0, floor, 0.0, floor]
        )
        # where 2^-900 of the peak is below tiny, tiny is the floor
        values = np.full(9, 2.0 ** -200)
        values[[2, 5, 7]] = [tiny / 2.0, 5e-324, tiny]
        density = dn.GridDensity(wide_grid(8), values)
        assert density.values[2] == 0.0 and density.values[5] == 0.0
        assert density.values[7] == tiny
        np.testing.assert_array_equal(np.delete(density.values, [2, 5, 7]), 2.0 ** -200)

    @pytest.mark.parametrize("order", [47, 99, 149])
    def test_flush_floor_keeps_products_with_every_factor_normal(self, order):
        # a kept value is at least 2^-900 of the peak; times the smallest
        # nonzero entry of each factor it stays normal for a peak of 2^-60
        # or more, which every normalized density on a domain narrower than
        # 1e18 exceeds
        grid = SpectralGrid.build(order, Interval(-1.0, 1.0))
        for factor in (dn._cdf_kernel(order)[0], dn._eigensystem(order).w,
                       grid.physical_weights):
            smallest = np.abs(factor[factor != 0.0]).min()
            assert smallest * dn._FLUSH * 2.0 ** -60 >= np.finfo(float).tiny


class TestMollifiedDelta:
    def test_unit_mass(self):
        grid = wide_grid()
        bump = dn.mollified_delta(grid, 1.7)
        assert dn.integrate(bump) == pytest.approx(1.0, abs=1e-6)

    def test_peaks_at_center_node(self):
        grid = wide_grid()
        j = 20
        bump = dn.mollified_delta(grid, float(grid.nodes[j]))
        assert int(np.argmax(bump.values)) == j

    def test_first_moment_near_center(self):
        grid = wide_grid()
        center = 0.8
        sigma = dn.mollification_sigma(grid, center)
        bump = dn.mollified_delta(grid, center)
        assert abs(dn.mean(bump) - center) <= sigma / 10.0

    def test_center_outside_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            dn.mollified_delta(wide_grid(), 13.5)

    def test_repeat_call_returns_the_same_bump(self, monkeypatch):
        # the same float object, as assemble_prior passes for each branch
        grid, center = wide_grid(), 0.8
        first = dn.mollified_delta(grid, center)
        builds = counting(monkeypatch, "mollification_sigma")
        assert dn.mollified_delta(grid, center) is first
        assert builds == []
        assert not first.values.flags.writeable

    def test_equal_but_distinct_center_rebuilds_bit_equal(self, monkeypatch):
        # the cache hits on the identity of the center only
        grid = wide_grid()
        first = dn.mollified_delta(grid, 0.8)
        builds = counting(monkeypatch, "mollification_sigma")
        bump = dn.mollified_delta(grid, np.float64(0.8))
        assert bump is not first and len(builds) == 1
        assert bump.values.tobytes() == first.values.tobytes()

    @pytest.mark.parametrize("changed", ["grid", "center"])
    def test_changed_argument_rebuilds_bit_equal(self, monkeypatch, changed):
        # a new grid object with an equal domain is a different grid to the
        # cache: it compares grids by identity
        grid = wide_grid()
        first = dn.mollified_delta(grid, 0.8)
        args = {"grid": (wide_grid(), 0.8), "center": (grid, 0.9)}[changed]
        builds = counting(monkeypatch, "mollification_sigma")
        bump = dn.mollified_delta(*args)
        assert bump is not first and len(builds) == 1
        assert bump.grid is args[0]
        assert bump.values.tobytes() == fresh_bump(*args).values.tobytes()

    def test_float32_center_misses_the_equal_python_float(self):
        # np.float32(0.1) == 0.1 under numpy 2's scalar rules, yet it
        # stands for 0.10000000149..., so it must get its own bump
        grid = wide_grid()
        first = dn.mollified_delta(grid, 0.1)
        bump = dn.mollified_delta(grid, np.float32(0.1))
        expected = fresh_bump(grid, float(np.float32(0.1)))
        assert bump is not first
        assert bump.values.tobytes() == expected.values.tobytes()
        assert bump.values.tobytes() != first.values.tobytes()

    def test_center_outside_rejected_after_a_cached_call(self):
        grid = wide_grid()
        dn.mollified_delta(grid, 0.8)
        with pytest.raises(ValueError, match="inside"):
            dn.mollified_delta(grid, 13.5)
        with pytest.raises(ValueError, match="inside"):
            dn.mollified_delta(grid, np.nan)

    @settings(max_examples=60, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.sampled_from([-2.0, 0.0, 0.8]) | st.floats(-8.9, 8.9),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_any_call_sequence_equals_fresh_builds(self, calls):
        # grids 0 and 1 have equal domains, grid 2 another order and domain
        grids = (wide_grid(), wide_grid(), wide_grid(47, 9.0))
        for g, center in calls:
            bump = dn.mollified_delta(grids[g], center)
            expected = fresh_bump(grids[g], center)
            assert bump.grid is grids[g]
            assert bump.values.tobytes() == expected.values.tobytes()

    def test_concurrent_callers_get_their_own_bump(self):
        # threads switching every microsecond interleave their cache reads
        # and replacements; each must still get the bump it asked for
        grids = (wide_grid(), wide_grid(47, 9.0))
        centers = (-2.0, 0.0, 0.8)
        expected = {
            (g, c): fresh_bump(grids[g], c).values.tobytes() for g in (0, 1) for c in centers
        }
        wrong = []

        def caller(offset):
            for i in range(300):
                g, c = (i + offset) % 2, centers[(i // 2 + offset) % 3]
                bump = dn.mollified_delta(grids[g], c)
                if bump.grid is not grids[g] or bump.values.tobytes() != expected[g, c]:
                    wrong.append((g, c))

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("order", [1, 47, 99, 149])
    def test_sigma_equals_mean_of_all_gaps_formula(self, order):
        # the width once took np.diff over the whole grid and the mean of
        # the adjacent slice; the two-gap form must agree bit for bit
        grid = SpectralGrid.build(order, Interval(-7.3, 19.1))
        rng = np.random.default_rng(order)
        centers = np.concatenate(
            [rng.uniform(-7.3, 19.1, 2000), grid.nodes, 0.5 * (grid.nodes[1:] + grid.nodes[:-1])]
        )
        for center in centers:
            assert_sigma_is_argmin_sigma(grid, center)


class TestMollificationSigma:
    @settings(max_examples=25, deadline=None)
    @given(
        order=st.sampled_from([1, 2, 3, 47, 99, 149]) | st.integers(1, 400),
        lo=st.floats(-1e3, 1e3),
        width=st.floats(1e-3, 1e3),
    )
    def test_equals_argmin_definition_at_nodes_midpoints_and_next_floats(self, order, lo, width):
        grid = SpectralGrid.build(order, Interval(lo, lo + width))
        nodes = grid.nodes
        mids = 0.5 * (nodes[1:] + nodes[:-1])
        centers = np.concatenate(
            [nodes, mids] + [np.nextafter(a, b) for a in (nodes, mids) for b in (-np.inf, np.inf)]
        )
        for center in centers.tolist():
            assert_sigma_is_argmin_sigma(grid, center)

    @pytest.mark.parametrize(
        "center", [np.nan, np.inf, -np.inf, -3.0, 5.0, 1e9], ids=str
    )
    def test_center_not_strictly_inside_rejected(self, center):
        # NaN and far centers once got the end-gap width; the bump builder
        # gets its check, and its message, from here
        grid = SpectralGrid.build(20, Interval(-3.0, 5.0))
        message = re.escape(f"delta center {center} not strictly inside [-3.0, 5.0]")
        with pytest.raises(ValueError, match=message):
            dn.mollification_sigma(grid, center)
        with pytest.raises(ValueError, match=message):
            fresh_bump(grid, center)

    @pytest.mark.parametrize("center", ["0.5", True, np.bool_(True), b"1"], ids=repr)
    def test_center_that_is_not_a_real_number_rejected(self, center):
        # float() parsed the string and took True as 1.0, a center inside
        # the domain
        grid = SpectralGrid.build(20, Interval(-3.0, 5.0))
        message = "^center must be a real number, got "
        with pytest.raises(ValueError, match=message):
            dn.mollification_sigma(grid, center)
        with pytest.raises(ValueError, match=message):
            fresh_bump(grid, center)

    @pytest.mark.parametrize("order", [3, 47, 99])
    def test_exact_tie_takes_the_lower_node(self, order):
        # a midpoint at exactly equal rounded distances from two nodes whose
        # widths differ takes the width of the lower one, as np.argmin does;
        # the node widths come from the definition, which also covers the
        # end nodes that mollification_sigma refuses
        grid = SpectralGrid.build(order, Interval(-7.3, 19.1))
        nodes = grid.nodes.tolist()
        ties = 0
        for lower, upper in zip(nodes, nodes[1:]):
            mid = 0.5 * (lower + upper)
            widths = argmin_sigma(grid, lower), argmin_sigma(grid, upper)
            if mid - lower == upper - mid and widths[0] != widths[1]:
                ties += 1
                assert dn.mollification_sigma(grid, mid) == widths[0]
        assert ties >= order // 3


class TestAdvectStep:
    # one advection step of a whole density through the module's one
    # propagator (advected), with the inputs and bounds these properties
    # have always been checked at
    def test_zero_velocity_is_identity(self):
        grid = wide_grid()
        start = gaussian_density(grid, -2.0, 1.0)
        out = advected(start, 0.0)
        assert np.abs(out.values - start.values).max() <= 1e-10

    def test_translates_gaussian(self):
        grid = wide_grid()
        start = gaussian_density(grid, -3.0, 1.0)
        moved = advected(start, 6.0)
        expected = gaussian_pdf(grid.nodes, 3.0, 1.0)
        assert np.abs(moved.values - expected).max() <= 1e-3

    def test_mass_preserved_within_two_percent(self):
        grid = wide_grid()
        start = gaussian_density(grid, -3.0, 1.0)
        moved = advected(start, 6.0)
        assert dn.integrate(moved) == pytest.approx(1.0, rel=0.02)

    def test_reversibility(self):
        grid = wide_grid()
        start = gaussian_density(grid, -2.0, 1.44)
        back = advected(advected(start, 4.5), -4.5)
        assert np.abs(back.values - start.values).max() <= 1e-6


class TestSpectralPropagator:
    # the cached eigensystem of the unit folded generator F_N is the only
    # transport path; linalg.expm is its reference
    @pytest.mark.parametrize("order", [47, 99, 149])
    @pytest.mark.parametrize("scale", [0.3, 3.0, 30.0])
    def test_matches_expm(self, order, scale):
        expected = linalg.expm(scale * dn.folded_generator(order))
        # nodal rows that fold to the unit vectors: row 0 has both ends 1,
        # so its seam value is 1; each result's seam value comes first
        basis = np.eye(order + 1)
        basis[0, order] = 1.0
        got = np.column_stack(
            [dn._transport(order, basis[j:j + 1], [scale], [0.0])[:-1]
             for j in range(order)]
        )
        rel = linalg.one_norm(got - expected) / linalg.one_norm(expected)
        assert rel <= 1e-9

    @pytest.mark.parametrize("order", [47, 99, 149])
    def test_eigensystem_is_safe_to_exponentiate(self, order):
        # eigenvector exponentials are only trustworthy for a well
        # conditioned V and, for a neutral transport, an imaginary spectrum;
        # this is the decomposition _eigensystem takes
        lam, vecs = np.linalg.eig(dn.folded_generator(order))
        assert np.linalg.cond(vecs) <= 10.0
        assert np.abs(lam.real).max() <= 1e-10

    @pytest.mark.parametrize("order", [*range(3, 41), *range(41, 400, 23), 400])
    def test_spectrum_is_imaginary_to_rounding(self, order):
        # the transport rotates by Im lam alone; the real parts it drops
        # must stay at rounding size
        lam = np.linalg.eig(dn.folded_generator(order))[0]
        assert np.abs(lam.real).max() <= 1e-14 * np.abs(lam).max()

    @pytest.mark.parametrize("starts, noise, nodes", [(16, 16, 100), (64, 64, 150), (4, 4, 48)])
    def test_equals_complex_exponential_oracle(self, starts, noise, nodes):
        # benchmark-sized products: bumps on the unit interval, shifts up
        # to half its width
        order = nodes - 1
        unit = SpectralGrid.build(order, Interval(-1.0, 1.0))
        rng = np.random.default_rng(nodes)
        bumps = np.array([fresh_bump(unit, c).values for c in rng.uniform(-0.5, 0.5, starts)])
        shifts, noise_shifts = rng.uniform(-0.5, 0.5, starts), rng.uniform(-0.3, 0.3, noise)
        weights, noise_weights = np.full(starts, 1.0 / starts), np.full(noise, 1.0 / noise)
        got = dn._transport(order, bumps, shifts, noise_shifts)
        # the oracle works on folded vectors, with every branch's weight
        # explicit: seam value first, then the interior, and it returns the
        # seam value once
        folded = np.column_stack([0.5 * (bumps[:, 0] + bumps[:, -1]), bumps[:, 1:-1]])
        expected = complex_transport(
            dn.folded_generator(order), folded, shifts, weights, noise_shifts, noise_weights
        )
        expected = np.append(expected, expected[0])
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_tangent_rotation_equals_cosine_and_sine(self):
        # random angles up to 1e5, zero, and the odd multiples of pi up to
        # 1e5 with the floats on either side, where the tangent of the half
        # angle is largest
        rng = np.random.default_rng(12)
        odd = np.pi * np.arange(-31831.0, 31832.0, 2.0)
        angles = np.concatenate(
            [
                [0.0, -0.0],
                rng.uniform(-1e5, 1e5, 20000),
                rng.uniform(-7.0, 7.0, 2000),
                odd,
                np.nextafter(odd, np.inf),
                np.nextafter(odd, -np.inf),
            ]
        )
        rotation = dn._rotation(0.5 * angles)
        assert np.abs(rotation.real - np.cos(angles)).max() <= 1e-15
        assert np.abs(rotation.imag - np.sin(angles)).max() <= 1e-15
        assert rotation[0] == 1.0 and rotation[0].imag == 0.0

    def test_eigensystem_is_cached_per_order(self):
        assert dn._eigensystem(47) is dn._eigensystem(47)

    def test_batch_is_weighted_sum_of_single_transports(self):
        # every row moves by its own shift plus each noise shift in turn,
        # and each of the 3 x 4 branches weighs 1/12
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(3, 31))
        shifts = np.array([-0.7, 0.1, 2.5])
        noise_shifts = np.array([-0.4, 0.0, 1.3, 0.6])
        batch = dn._transport(30, rows, shifts, noise_shifts)
        singles = sum(
            dn._transport(30, row[None, :], [t + n], [0.0]) / 12.0
            for row, t in zip(rows, shifts)
            for n in noise_shifts
        )
        assert np.abs(batch - singles).max() <= 1e-12

    @pytest.mark.parametrize("order", [47, 99, 149])
    def test_ends_of_the_result_are_equal(self, order):
        # the two end nodes are one point of the periodic domain
        rng = np.random.default_rng(order)
        rows = rng.uniform(0.0, 1.0, (4, order + 1))
        args = rng.uniform(-0.5, 0.5, 4), [-0.1, 0.2]
        got = dn._transport(order, rows, *args)
        assert got.shape == (order + 1,)
        assert got[0].tobytes() == got[-1].tobytes()

    @pytest.mark.parametrize("order", [47, 99, 149])
    def test_only_the_sum_of_the_end_values_counts(self, order):
        # the two end values enter as their average, so moving mass between
        # them with their float sum unchanged leaves every output byte
        rng = np.random.default_rng(order)
        rows = rng.uniform(0.0, 1.0, (4, order + 1))
        rows[:, [0, -1]] = [[0.25, 0.5], [0.0, 1.0], [1.5, 0.125], [0.375, 0.375]]
        moved = rows.copy()
        moved[:, [0, -1]] = [[0.5, 0.25], [1.0, 0.0], [0.125, 1.5], [0.75, 0.0]]
        assert (moved[:, 0] + moved[:, -1]).tolist() == (rows[:, 0] + rows[:, -1]).tolist()
        args = rng.uniform(-0.5, 0.5, 4), [-0.1, 0.2]
        got = dn._transport(order, moved, *args)
        assert got.tobytes() == dn._transport(order, rows, *args).tobytes()


class TestBranches:
    def test_arrays_are_read_only_and_len_counts_branches(self):
        branches = dn.Branches([0.0, 1.0], [2.0, -2.5], [0.5, 0.0, -0.5])
        assert len(branches) == 6
        with pytest.raises(ValueError):
            branches.start_state[0] = 0.5
        with pytest.raises(ValueError):
            branches.noise_value[0] = 0.5

    def test_rejects_ragged_fields(self):
        with pytest.raises(ValueError, match="start_state and drift of equal length"):
            dn.Branches([0.0, 1.0], [1.0], [0.0])
        with pytest.raises(ValueError, match="must be 1-D arrays"):
            dn.Branches([0.0], [1.0], [[0.0, 1.0]])
        with pytest.raises(ValueError, match="must be 1-D arrays"):
            dn.Branches([[0.0]], [[1.0]], [0.0])

    @pytest.mark.parametrize("field", ["start_state", "drift", "noise_value"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_fields(self, field, bad):
        fields = {"start_state": [0.0, 1.0], "drift": [1.0, 1.0], "noise_value": [0.0, 0.0]}
        fields[field][1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dn.Branches(**fields)

    @pytest.mark.parametrize(
        "fields, name",
        [(([], [], [0.0]), "start_state"), (([0.0], [1.0], []), "noise_value")],
        ids=["no-starts", "no-noise-points"],
    )
    def test_rejects_an_empty_field_naming_it(self, fields, name):
        # an empty noise array once reached prediction_domain and stopped in
        # numpy's argmin of an empty sequence
        with pytest.raises(ValueError, match=f"^branch field {name} must not be empty$"):
            dn.Branches(*fields)

    def test_fields_are_checked_in_order(self):
        # an earlier field's NaN, or emptiness, is reported before a later
        # field's, and the message names the field
        fields = {"start_state": [0.0, 1.0], "drift": [np.nan, 1.0], "noise_value": [np.inf, 0.0]}
        with pytest.raises(ValueError, match="^branch field drift must be finite$"):
            dn.Branches(**fields)
        fields["noise_value"] = []
        with pytest.raises(ValueError, match="^branch field drift must be finite$"):
            dn.Branches(**fields)
        fields["drift"] = [1.0, 1.0]
        with pytest.raises(ValueError, match="^branch field noise_value must not be empty$"):
            dn.Branches(**fields)

    def test_rejects_overflowing_velocity(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="velocity must be finite"):
            dn.Branches([0.0], [1e308], [1e308])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="velocity must be finite"):
            dn.Branches([0.0, 0.0], [-1e308, 0.0], [-1e308, 1.0])


class TestMakeBranches:
    @pytest.mark.parametrize("model", [linear_model(0.9), benchmark_model()])
    def test_equals_scalar_double_loop(self, model):
        # reference: one scalar transition call per (start, noise) pair,
        # start-major, the order the branches are documented in
        grid = wide_grid(99, 20.0)
        posterior = gaussian_density(grid, 1.5, 6.0)
        noise = gaussian_quantile_points(5, model.process_noise.variance)
        branches = dn.make_branches(posterior, noise, model, 3, 7)
        starts = dn.density_quantiles(posterior, (2.0 * np.arange(7) + 1.0) / 14.0)
        rows = [
            (s, v, float(model.transition(float(s), 3, float(v))))
            for s in starts
            for v in noise
        ]
        expected = [np.array(column) for column in zip(*rows)]
        got_starts, velocity, _ = expanded(branches)
        np.testing.assert_array_equal(got_starts, expected[0])
        np.testing.assert_array_equal(np.tile(branches.noise_value, 7), expected[1])
        ends = got_starts + velocity
        assert np.abs(ends - expected[2]).max() <= 1e-12 * np.abs(expected[2]).max()

    @pytest.mark.parametrize("model", [linear_model(0.9), benchmark_model()])
    @pytest.mark.parametrize("k", [1, 4, 50])
    def test_drift_plus_noise_equals_broadcast_transition(self, model, k):
        # the additive-noise contract: start + drift + noise is the S x P
        # transition the branches stand for
        posterior = gaussian_density(wide_grid(99, 30.0), 2.0, 40.0)
        noise = gaussian_quantile_points(16, model.process_noise.variance)
        branches = dn.make_branches(posterior, noise, model, k, 16)
        starts = branches.start_state
        expected = model.transition(starts[:, None], k, noise[None, :])
        ends = (starts + branches.drift)[:, None] + branches.noise_value[None, :]
        assert np.abs(ends - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_one_noise_free_transition_call(self):
        calls = []
        base = benchmark_model()

        def transition(x, k, v):
            calls.append((np.shape(x), v))
            return base.transition(x, k, v)

        model = ScalarStateModel(
            transition, base.observation, base.process_noise, base.obs_noise, base.initial
        )
        posterior = gaussian_density(wide_grid(), 0.0, 3.0)
        noise = gaussian_quantile_points(4, model.process_noise.variance)
        dn.make_branches(posterior, noise, model, 2, 6)
        assert calls == [((6,), 0.0)]

    def test_single_point_degenerate(self):
        grid = wide_grid()
        posterior = gaussian_density(grid, 0.4, 1.0)
        branches = dn.make_branches(posterior, np.array([0.0]), linear_model(), 1, 1)
        assert len(branches) == 1
        # single quantile = posterior median
        assert branches.start_state[0] == pytest.approx(0.4, abs=1e-4)

    def test_symmetric_setup_gives_symmetric_branches(self):
        grid = wide_grid()
        posterior = gaussian_density(grid, 0.0, 2.0)
        noise = np.array([-1.0, 1.0])
        model = ScalarStateModel(
            transition=lambda x, k, v: x**3 / 10.0 + v,  # odd in both args
            observation=lambda x, k: x,
            process_noise=GaussianSpec(0.0, 1.0),
            obs_noise=GaussianSpec(0.0, 1.0),
            initial=GaussianSpec(0.0, 1.0),
        )
        branches = dn.make_branches(posterior, noise, model, 1, 8)
        pairs = sorted((s, v) for s in branches.start_state for v in branches.noise_value)
        mirrored = sorted((-s, -v) for s, v in pairs)
        for (s1, v1), (s2, v2) in zip(pairs, mirrored):
            assert s1 == pytest.approx(s2, abs=1e-6)
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_benchmark_end_state_from_zero(self):
        grid = wide_grid()
        posterior = gaussian_density(grid, 0.0, 10.0)
        branches = dn.make_branches(posterior, np.array([0.0]), benchmark_model(), 1, 1)
        end = branches.start_state[0] + branches.drift[0] + branches.noise_value[0]
        assert end == pytest.approx(8.0 * np.cos(1.2), abs=1e-3)

    def test_masses_sum_to_one(self):
        # every branch weighs 1 / (S P), applied inside the transport: S
        # unit rows held still under P zero noise shifts come back as one
        grid = wide_grid()
        posterior = gaussian_density(grid, 0.0, 3.0)
        noise = np.array([-1.0, 0.0, 1.0])
        branches = dn.make_branches(posterior, noise, linear_model(), 2, 7)
        assert len(branches) == 21
        ones = np.ones((7, grid.n_nodes))
        total = dn._transport(grid.order, ones, np.zeros(7), np.zeros(3))
        assert np.abs(total - 1.0).max() <= 1e-12

    def test_zero_mass_posterior_rejected(self):
        grid = wide_grid()
        zero = dn.GridDensity(grid, np.zeros(grid.n_nodes))
        with pytest.raises(FilterDivergenceError):
            dn.make_branches(zero, np.array([0.0]), linear_model(), 1, 4)


class TestDensityQuantiles:
    @pytest.mark.parametrize(
        "probs", [[1.5, -0.2], [np.nan], [0.5, np.nan], [-1e-300], [1.0 + 2.0**-52]]
    )
    def test_rejects_nan_or_out_of_range_probabilities(self, probs):
        # [1.5, -0.2] once returned the two domain ends and [nan] a NaN start
        posterior = flt.pdef_init(benchmark_model(), flt.PdefConfig()).posterior
        with pytest.raises(ValueError, match=r"probabilities must lie in \[0, 1\]"):
            dn.density_quantiles(posterior, probs)

    def test_end_probabilities_give_the_domain_ends(self):
        posterior = flt.pdef_init(benchmark_model(), flt.PdefConfig()).posterior
        domain = posterior.grid.domain
        got = dn.density_quantiles(posterior, [0.0, 1.0])
        np.testing.assert_allclose(got, [domain.lo, domain.hi], rtol=0, atol=1e-12)

    def test_gaussian_quantiles_match_inverse_cdf(self):
        # each Gaussian sits 8 sigma or more inside [-12, 12], and its
        # +-2 sigma spans 4 to 50 node gaps.  The error is the inversion's:
        # linear interpolation of the trapezoid CDF on the mesh of spacing
        # h = W / (8 N) misplaces a quantile by about h^2 |f' / f| / 8, and
        # measured it is 0.18 to 0.41 h^2 / sigma over these grids
        probs = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
        for nodes in (30, 48, 100, 150, 300):
            grid = wide_grid(nodes - 1, 12.0)
            h = grid.domain.width / (8 * grid.order)
            for mean, variance in ((0.5, 2.0), (0.0, 2.25)):
                got = dn.density_quantiles(gaussian_density(grid, mean, variance), probs)
                sigma = np.sqrt(variance)
                expected = mean + ndtri(probs) * sigma
                np.testing.assert_allclose(
                    got, expected, rtol=0, atol=0.5 * h * h / sigma, err_msg=f"{nodes} nodes"
                )

    @pytest.mark.parametrize("order", [47, 99, 149])
    def test_cached_kernel_matches_interpolation_on_the_physical_mesh(self, order):
        # the kernel is built once per order on [-1, 1]; sampling the
        # interpolant on the physical mesh instead moves the quantiles by
        # rounding only
        grid = SpectralGrid.build(order, Interval(-9.0, 31.0))
        posterior = gaussian_density(grid, 4.0, 12.0)
        probs = (2.0 * np.arange(16) + 1.0) / 32.0
        xf = np.linspace(-9.0, 31.0, 8 * order + 1)
        pf = np.clip(barycentric_interp(grid, posterior.values, xf), 0.0, None)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pf[1:] + pf[:-1]) * np.diff(xf))])
        expected = np.interp(probs, cdf / cdf[-1], xf)
        got = dn.density_quantiles(posterior, probs)
        assert np.abs(got - expected).max() <= 1e-12 * grid.domain.width
        kernel, mesh = dn._cdf_kernel(order)
        assert kernel.shape == (8 * order + 1, order + 1) and mesh.shape == (8 * order + 1,)
        assert dn._cdf_kernel(order) is dn._cdf_kernel(order)


def fixed_margin(branches, order, process_std):
    """The lowest and highest branch start or end, ``lo`` and ``hi``, and
    the margin ``m0 = 4 (process_std + 1.5 (hi - lo) / order)``."""
    starts = branches.start_state
    ends = starts + branches.drift
    lo = min(starts.min(), ends.min() + branches.noise_value.min())
    hi = max(starts.max(), ends.max() + branches.noise_value.max())
    return lo, hi, 4.0 * (process_std + 1.5 * (hi - lo) / order)


def clearances(branches, grid):
    """Per start, the distances in bump widths between the margin bounds
    and its bump's center after its lowest and its highest shift, with the
    width the bump gets on *grid*, and that width; and the rounding of the
    distances."""
    lo_bound, hi_bound = margin_bounds(grid)
    noise_lo, noise_hi = branches.noise_value.min(), branches.noise_value.max()
    out = []
    for start, drift in zip(branches.start_state.tolist(), branches.drift.tolist()):
        sigma = dn.mollification_sigma(grid, start)
        low = (start + drift + noise_lo - lo_bound) / sigma
        high = (hi_bound - (start + drift + noise_hi)) / sigma
        out.append((low, high, sigma))
    # the margin is solved in floating point from the domain's ends, so a
    # binding start clears to within a few roundings of the ends' size
    rounding = 1e-13 * (abs(grid.domain.lo) + abs(grid.domain.hi))
    return out, rounding


@st.composite
def spread_branches(draw):
    """Up to 8 starts spread over a width far beyond the process noise, so
    that the fixed margin is often too narrow and the per-start solve and
    its fallback run."""
    size = draw(st.integers(1, 8))
    center = draw(st.floats(-1e3, 1e3))
    starts = [center + d for d in draw(st.lists(st.floats(-60.0, 60.0), min_size=size, max_size=size))]
    drifts = draw(st.lists(st.floats(-40.0, 40.0), min_size=size, max_size=size))
    noise = draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=5))
    return product_of(starts, drifts, noise)


class TestPredictionDomain:
    @settings(max_examples=150, deadline=None)
    @given(
        branches=spread_branches(),
        order=st.integers(40, 150),
        process_std=st.floats(1e-3, 10.0),
        rounds=st.sampled_from([dn._DOMAIN_ROUNDS, 1, 0]),
    )
    def test_every_start_clears_the_margin_by_5_25_widths(
        self, branches, order, process_std, rounds
    ):
        # rounds 1 and 0 force the fallback to the widest bump's closed form
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dn, "_DOMAIN_ROUNDS", rounds)
            domain = dn.prediction_domain(branches, order, process_std)
        lo, hi, margin = fixed_margin(branches, order, process_std)
        assert domain.lo <= lo - margin and hi + margin <= domain.hi
        grid = SpectralGrid.build(order, domain)
        per_start, rounding = clearances(branches, grid)
        for low, high, sigma in per_start:
            assert low >= 5.25 - rounding / sigma
            assert high >= 5.25 - rounding / sigma

    @pytest.mark.parametrize("case", ["growth-16x16", "linear-64x64"])
    def test_fixed_margin_kept_bit_for_bit_when_the_widest_bump_clears(self, case):
        # a benchmark-sized step: the widest bump of the order clears from the
        # very end at the fixed margin, so the interval is the fixed formula's
        branches, grid = prediction_step(case)
        order = grid.order
        std = 1.0 if case.startswith("linear") else benchmark_model().process_noise.std
        lo, hi, margin = fixed_margin(branches, order, std)
        k_max = dn._reference_clearance(order)[1]
        assert margin >= k_max * (hi - lo + 2.0 * margin)
        assert (grid.domain.lo, grid.domain.hi) == (lo - margin, hi + margin)

    def test_escape_check_stays_quiet_where_five_widths_tripped_it(self):
        # a grid-48, 4 x 4 step of the growth model: at a clearance of 5
        # widths start 1's highest branch sits exactly 5 widths inside the
        # bound, and the quadrature puts 1.003e-6 of its mass past it
        branches = product_of(
            [-3.8748406283054386, 1.5603462353961817, 3.799800917715551, 5.657157101522046],
            [3.569784403603067, 18.2584776663397, 11.934592180283303, 9.13806386815955],
            [-3.6377241469515873, -1.007626142314805, 1.007626142314805, 3.6377241469515873],
        )
        std = benchmark_model().process_noise.std
        # the per-order record caches k_max at the clearance it was built
        # with, so it is rebuilt on entering and on leaving the patch
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dn, "_CLEARANCE", 5.0)
                dn._reference_clearance.cache_clear()
                grid = SpectralGrid.build(47, dn.prediction_domain(branches, 47, std))
                with pytest.raises(DomainEscapeError, match="for branch 7 crosses"):
                    dn.assemble_prior(branches, grid)
        finally:
            dn._reference_clearance.cache_clear()
        grid = SpectralGrid.build(47, dn.prediction_domain(branches, 47, std))
        assert dn.integrate(dn.assemble_prior(branches, grid)) == pytest.approx(1.0)

    def test_widest_width_bounds_every_bump(self):
        # k_max = 2 / order + 5.25 rho_max, with rho_max the largest bump
        # width per unit domain width, read on [-1, 1]; on a physical grid
        # every node's bump is at most it, and the widest is rho_max
        for order in (29, 47, 99, 149):
            k_max = dn._reference_clearance(order)[1]
            grid = SpectralGrid.build(order, Interval(-3.0, 17.0))
            mids = 0.5 * (grid.nodes[1:] + grid.nodes[:-1])
            sigmas = [dn.mollification_sigma(grid, x) for x in grid.nodes[1:-1].tolist() + mids.tolist()]
            widest = max(sigmas) / grid.domain.width
            assert 2.0 / order + 5.25 * widest == pytest.approx(k_max, rel=1e-12)

    @pytest.mark.parametrize("grid_nodes", [4, 16, 28, 29])
    def test_grids_of_29_nodes_or_fewer_are_refused(self, grid_nodes):
        # by checked_grid_nodes, the one refusal of a grid
        branches = product_of([0.0], [1.0], [0.0])
        with pytest.raises(ValueError, match=f"^grid_nodes must be >= 30, got {grid_nodes}: "):
            dn.prediction_domain(branches, grid_nodes - 1, 1.0)
        assert dn._reference_clearance(grid_nodes - 1)[1] is None

    def test_30_nodes_are_served(self):
        branches = product_of([0.0, 2.0], [1.0, -1.0], [-0.5, 0.5])
        domain = dn.prediction_domain(branches, 29, 1.0)
        per_start, rounding = clearances(branches, SpectralGrid.build(29, domain))
        assert all(min(low, high) >= 5.25 - rounding / sigma for low, high, sigma in per_start)


class TestExtremes:
    @pytest.mark.parametrize(
        "values",
        [
            [3.0],
            [np.nan],
            [-0.0],
            [1.0, np.nan, -2.0],
            [np.nan, np.inf, np.nan],
            [np.inf, 0.0],
            [-np.inf, 5.0],
            [2.0, -np.inf, np.inf],
            [-0.0, 0.0],
            [0.0, -0.0],
        ],
        ids=str,
    )
    def test_equals_min_and_max(self, values):
        a = np.array(values)
        np.testing.assert_array_equal(dn._extremes(a), [a.min(), a.max()])

    def test_equals_min_and_max_on_benchmark_sized_arrays(self):
        rng = np.random.default_rng(3)
        for size in (1, 100, 150, 4096):
            a = rng.normal(size=size)
            np.testing.assert_array_equal(dn._extremes(a), [a.min(), a.max()])
            a[rng.integers(size)] = np.nan
            np.testing.assert_array_equal(dn._extremes(a), [np.nan, np.nan])


class TestAssemblePrior:
    def test_zero_velocity_branch_reproduces_delta(self):
        grid = wide_grid()
        prior = dn.assemble_prior(branches_of((1.2, 1.2)), grid)
        bump = dn.mollified_delta(grid, 1.2)
        assert np.abs(prior.values - bump.values).max() <= 1e-8

    def test_symmetric_branches_give_symmetric_prior(self):
        grid = wide_grid()
        branches = branches_of((-1.0, -3.0), (1.0, 3.0))
        prior = dn.assemble_prior(branches, grid)
        assert np.abs(prior.values - prior.values[::-1]).max() <= 1e-9

    def test_valid_density_for_random_configs(self):
        rng = np.random.default_rng(77)
        grid = wide_grid(80, 30.0)
        for _ in range(5):
            n = rng.integers(3, 12)
            branches = branches_of(*[(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(n)])
            prior = dn.assemble_prior(branches, grid)
            assert prior.values.min() >= 0.0
            assert dn.integrate(prior) == pytest.approx(1.0, abs=1e-9)

    def test_prior_mean_matches_weighted_end_states(self):
        grid = wide_grid(80, 30.0)
        branches = branches_of((-2.0, -5.0), (0.5, 2.0), (3.0, 7.5))
        prior = dn.assemble_prior(branches, grid)
        starts, velocity, mass = expanded(branches)
        target = float(mass @ (starts + velocity))
        sigma = dn.mollification_sigma(grid, 0.0)
        assert abs(dn.mean(prior) - target) <= 2.0 * sigma

    def test_matches_per_branch_expm_on_benchmark_step(self):
        # one full benchmark prediction from a Gaussian posterior
        model = benchmark_model()
        start_grid = wide_grid(99, 18.0)
        posterior = gaussian_density(start_grid, 0.0, 5.0)
        noise = gaussian_quantile_points(16, model.process_noise.variance)
        branches = dn.make_branches(posterior, noise, model, 1, 16)
        domain = dn.prediction_domain(branches, 99, model.process_noise.std)
        grid = SpectralGrid.build(99, domain)
        prior = dn.assemble_prior(branches, grid)
        assert l1_distance(prior, expm_prior(branches, grid)) <= 1e-10

    def test_matches_per_branch_expm_on_many_branches(self):
        # 20 x 16 = 320 branches on a small grid
        posterior = gaussian_density(wide_grid(32, 8.0), 0.0, 1.0)
        noise = gaussian_quantile_points(16, 1.0)
        model = linear_model(0.9)
        branches = dn.make_branches(posterior, noise, model, 1, 20)
        assert len(branches) == 320
        domain = dn.prediction_domain(branches, 47, model.process_noise.std)
        grid = SpectralGrid.build(47, domain)
        prior = dn.assemble_prior(branches, grid)
        assert l1_distance(prior, expm_prior(branches, grid)) <= 1e-10

    def test_escape_names_first_offending_branch(self):
        grid = wide_grid()
        branches = branches_of((0.0, 1.0), (3.0, 11.0), (-3.0, -11.0))
        with pytest.raises(DomainEscapeError, match="branch 1 "):
            dn.assemble_prior(branches, grid)

    def test_escape_inside_a_start_group_stops_at_its_branch(self, monkeypatch):
        # the noise points of one start are its group of branches; every
        # branch makes its mollified_delta call, in order, before the escape
        # check names the first offending branch of the group
        bumps = counting(monkeypatch, "mollified_delta")
        grid = wide_grid()
        branches = product_of([0.5], [0.0], [0.5, 10.5, -11.5, -0.5])
        with pytest.raises(DomainEscapeError, match="branch 1 "):
            dn.assemble_prior(branches, grid)
        assert len(bumps) == 4

    def test_escape_label_is_start_major(self, monkeypatch):
        # branch s * P + p: only start 1 with noise point 1 escapes
        bumps = counting(monkeypatch, "mollified_delta")
        branches = product_of([-1.0, 1.0], [0.0, 3.0], [-1.0, 8.0])
        with pytest.raises(DomainEscapeError, match="branch 3 "):
            dn.assemble_prior(branches, wide_grid())
        assert [args[1] for args in bumps] == [-1.0, -1.0, 1.0, 1.0]

    def test_one_bump_per_branch_without_escape(self, monkeypatch):
        bumps = counting(monkeypatch, "mollified_delta")
        branches = product_of([0.5, -1.0], [1.0, -0.5], [-0.5, 0.5])
        dn.assemble_prior(branches, wide_grid())
        assert [args[1] for args in bumps] == [0.5, 0.5, -1.0, -1.0]

    def test_support_over_the_margin_with_negligible_mass_passes(self):
        # a bump's far tail crosses the margin; at most 1e-6 of its mass
        # outside passes, and one node further out raises with its share
        grid = wide_grid()
        bump = dn.mollified_delta(grid, 0.0).values
        hi_bound = margin_bounds(grid)[1]
        nodes = grid.nodes.tolist()
        # shifts moving the k outermost nodes past the high bound, k = 1, 2, ...
        shifts = [hi_bound - 0.5 * (nodes[-k] + nodes[-k - 1]) for k in range(1, grid.order)]
        shares = [np.divide(*escaped_mass(grid, bump, shift)) for shift in shifts]
        over = next(i for i, share in enumerate(shares) if share > 1e-6)
        assert 0.0 < shares[over - 1] <= 1e-6
        prior = dn.assemble_prior(branches_of((0.0, 0.0), (0.0, shifts[over - 1])), grid)
        assert dn.integrate(prior) == pytest.approx(1.0, abs=1e-12)
        message = f"^{shares[over]:.3e} of the advected mass for branch 1 crosses"
        with pytest.raises(DomainEscapeError, match=message):
            dn.assemble_prior(branches_of((0.0, 0.0), (0.0, shifts[over])), grid)

    @pytest.mark.parametrize("case", ["linear-64x64", "growth-16x16"])
    def test_equals_per_branch_reference(self, case):
        branches, grid = prediction_step(case)
        reference = per_branch_prior(branches, grid)
        prior = dn.assemble_prior(branches, grid)
        assert l1_distance(prior, reference) <= 1e-12 * dn.integrate(reference)

    # (model, grid_nodes, state quantiles = noise points) of the benchmark's
    # growth-table1, linear-dense and pf-wide workloads
    @pytest.mark.parametrize(
        "model, grid_nodes, points",
        [(benchmark_model(), 100, 16), (linear_model(0.9), 150, 64), (benchmark_model(), 48, 4)],
        ids=["grid100-16x16", "grid150-64x64", "grid48-4x4"],
    )
    def test_equals_gaussian_sum_oracle_along_a_filter_run(
        self, monkeypatch, model, grid_nodes, points
    ):
        # every prior of a 50-step pdef run is within 5e-5 of its peak of the
        # exact transport of the same bumps (measured: at most 1.3e-5,
        # 2.9e-8 and 2.0e-5 over seven such runs of each), and every start of
        # every step passes the escape screen, so no branch has its escaped
        # mass measured on its own
        priors = []
        measured = counting(monkeypatch, "_escaped_mass")

        def recording_assemble_prior(branches, grid):
            prior = dn.assemble_prior(branches, grid)
            priors.append((branches, grid, prior))
            return prior

        monkeypatch.setattr(flt, "assemble_prior", recording_assemble_prior)
        cfg = flt.PdefConfig(grid_nodes=grid_nodes, state_quantiles=points)
        noise = gaussian_quantile_points(points, model.process_noise.variance)
        _, observations = simulate_truth(model, 50, run_seed_streams(1, 0)[0])
        state = flt.pdef_init(model, cfg)
        for k, y in enumerate(observations, 1):
            state = flt.pdef_step(state, model, noise, k, y, cfg)
        assert len(priors) >= 50
        assert len(measured) == len(priors)
        for branches, grid, prior in priors:
            starts, velocity, mass = expanded(branches)
            sigma = [argmin_sigma(grid, start) for start in branches.start_state]
            variances = np.repeat(np.square(sigma), points)
            exact = gaussian_sum_prior(
                grid.nodes, grid.physical_weights, mass, starts, velocity, variances
            )
            assert np.abs(prior.values - exact).max() <= 5e-5 * prior.values.max()

    def test_one_bump_build_per_start_group(self, monkeypatch):
        # every branch still calls mollified_delta, but only the first call
        # of each start group misses the cache and builds (and only a build
        # computes the width)
        branches, grid = prediction_step("linear-64x64")
        calls = counting(monkeypatch, "mollified_delta")
        builds = counting(monkeypatch, "mollification_sigma")
        dn.assemble_prior(branches, grid)
        assert len(calls) == 4096
        assert len(builds) == 64

    def test_equal_starts_need_not_be_contiguous(self):
        grid = wide_grid()
        branches = branches_of((1.0, 2.0), (-1.0, -1.5), (1.0, 0.0), (1.0, 3.0), (-1.0, 1.0))
        reference = per_branch_prior(branches, grid)
        prior = dn.assemble_prior(branches, grid)
        assert l1_distance(prior, reference) <= 1e-12 * dn.integrate(reference)

    @settings(max_examples=40, deadline=None)
    @given(branches=random_products())
    @example(branches=product_of([0.7], [1.5], [-1.2, 0.0, 0.4, 2.0]))
    @example(branches=product_of([-2.0, 0.3, 2.5], [1.0, -1.5, 0.5], [0.8]))
    @example(branches=product_of([1.0, -1.0, 1.0, 1.0], [0.5, 1.0, -2.0, 0.5], [-1.0, 1.0]))
    def test_random_products_equal_per_branch_expm(self, branches):
        # S = 1, P = 1 and repeated starts are among the explicit examples
        grid = wide_grid()
        prior = dn.assemble_prior(branches, grid)
        assert l1_distance(prior, expm_prior(branches, grid)) <= 1e-10

    @settings(max_examples=80, deadline=None)
    @given(case=margin_straddling_products())
    @example(case=(product_of([0.5, -1.0], [0.0, 0.0], [0.5, 10.5]), wide_grid()))
    @example(case=(product_of([0.0, 0.0], [0.0, 0.0], [0.0, 0.9]), wide_grid()))
    @example(case=(product_of([0.195], [0.0], [-7.51, 7.51]), wide_grid()))
    @example(case=limit_products()[-1, False])
    @example(case=limit_products()[0, False])
    @example(case=limit_products()[1, False])
    @example(case=limit_products()[-1, True])
    @example(case=limit_products()[0, True])
    @example(case=limit_products()[1, True])
    def test_start_screen_equals_per_branch_checks(self, case):
        # the same prior bits, or the same first escape, as measuring every
        # branch on its own; with a prior, after the same mollified_delta
        # calls in the same order
        branches, grid = case
        result, calls = assembly_outcome(dn.assemble_prior, branches, grid)
        expected, expected_calls = assembly_outcome(screenless_prior, branches, grid)
        assert result == expected
        if isinstance(result, bytes):
            assert calls == expected_calls

    def test_a_start_failing_the_screen_is_measured_per_branch(self, monkeypatch):
        # the screen adds the low tail of the lowest branch (1.2e-7 of the
        # mass) to the high tail of the highest (9.7e-7); each branch alone
        # keeps under 1e-6 outside, so the start is measured and passes
        measured = counting(monkeypatch, "_escaped_mass")
        branches, grid = product_of([0.195], [0.0], [-7.51, 7.51]), wide_grid()
        bump = fresh_bump(grid, 0.195).values
        shares = [np.divide(*escaped_mass(grid, bump, v)) for v in (-7.51, 7.51)]
        assert max(shares) <= 1e-6 < sum(shares)
        prior = dn.assemble_prior(branches, grid)
        assert [args[1].ndim for args in measured] == [2, 1]
        assert prior.values.tobytes() == screenless_prior(branches, grid).values.tobytes()

    @pytest.mark.parametrize("measured", [False, True], ids=["screened", "measured"])
    @pytest.mark.parametrize("rounding", [-1, 0, 1])
    def test_limit_is_exactly_one_millionth_of_the_mass(self, monkeypatch, rounding, measured):
        # an escaped share of exactly 1e-6, or one rounding less, passes;
        # one rounding more raises, whether the screen decides or the start
        # falls through to its branches
        branches, grid = limit_products()[rounding, measured]
        calls = counting(monkeypatch, "_escaped_mass")
        if rounding > 0:
            message = "^1.000e-06 of the advected mass for branch 1 "
            with pytest.raises(DomainEscapeError, match=message):
                dn.assemble_prior(branches, grid)
        else:
            assert dn.integrate(dn.assemble_prior(branches, grid)) == pytest.approx(1.0)
        assert len(calls) == (2 if measured else 1 + (rounding > 0))

    @pytest.mark.parametrize("case", ["linear-64x64", "growth-16x16"])
    def test_benchmark_sized_step_equals_screenless_calls_and_bytes(self, case):
        # every start clears the escape screen here, after one call per
        # branch, in order
        branches, grid = prediction_step(case)
        prior, calls = assembly_outcome(dn.assemble_prior, branches, grid)
        assert isinstance(prior, bytes), prior
        assert len(calls) == len(branches)
        assert (prior, calls) == assembly_outcome(screenless_prior, branches, grid)

    def test_empty_branches_rejected(self):
        # no branches can reach assemble_prior: an empty noise array is
        # refused where pdef_step builds its branches
        model, cfg = benchmark_model(), flt.PdefConfig()
        with pytest.raises(ValueError, match="^branch field noise_value must not be empty$"):
            flt.pdef_step(flt.pdef_init(model, cfg), model, np.array([]), 1, 0.5, cfg)


class TestMoments:
    def test_normalized_integral_is_one(self):
        grid = wide_grid()
        density = gaussian_density(grid, 1.0, 2.0)
        assert dn.integrate(density) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_mean(self):
        grid = SpectralGrid.build(64, Interval(-7.0, 11.0))
        density = gaussian_density(grid, 2.0, 1.5)
        assert dn.mean(density) == pytest.approx(2.0, abs=1e-6)

    def test_delta_mean_within_tenth_sigma(self):
        grid = wide_grid()
        center = -4.3
        sigma = dn.mollification_sigma(grid, center)
        bump = dn.mollified_delta(grid, center)
        assert abs(dn.mean(bump) - center) <= sigma / 10.0

    def test_normalize_idempotent(self):
        grid = wide_grid()
        density = gaussian_density(grid, 0.0, 1.0)
        again = dn.normalize(density)
        assert np.abs(again.values - density.values).max() <= 1e-12

    def test_normalize_scale_invariant(self):
        grid = wide_grid()
        raw = gaussian_pdf(grid.nodes, 0.5, 2.0)
        one = dn.normalize(dn.GridDensity(grid, raw))
        other = dn.normalize(dn.GridDensity(grid, 7.0 * raw))
        assert np.abs(one.values - other.values).max() <= 1e-12

    def test_normalize_arbitrary_positive_values(self):
        rng = np.random.default_rng(12)
        grid = wide_grid(32)
        density = dn.normalize(dn.GridDensity(grid, rng.uniform(0.1, 2.0, 33)))
        assert dn.integrate(density) == pytest.approx(1.0, abs=1e-10)

    def test_zero_mass_divergence(self):
        grid = wide_grid(16)
        with pytest.raises(FilterDivergenceError, match="divergence"):
            dn.normalize(dn.GridDensity(grid, np.zeros(17)))
