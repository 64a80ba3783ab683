import functools
import itertools
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from hardylab.generators import b_field, random_smooth_field, step_field
from hardylab import grid, oscillation
from hardylab.grid import (
    Ball,
    GridFunction,
    GridSpec,
    ball_mean,
    dyadic_scales,
    lp_norm,
    region_slices,
    region_values,
)
from hardylab.maximal import bump_profile
from hardylab.orlicz import lphi_star_norm
from hardylab.oscillation import (
    BallFamily,
    bmo_local_norm,
    bmo_report,
    jn_check,
    lmo_norm,
    mean_oscillation,
)
from scalar_oracles import (
    ball_stats, family_norms, family_stats, from_callable, meshes, multiplier_check,
    region_node_count,
)


def _balls(family):
    return [family.ball(i) for i in range(len(family.balls))]


def _former_family(spec):
    """The Ball tuple BallFamily.build held before the family became arrays."""
    step = spec.spacing
    balls = []
    for r in dyadic_scales(4.0 * step, 2.0 * spec.halfwidth):
        stride_steps = max(1, int(round((r / 8.0) / step)))
        centers = np.arange(0, spec.points_per_axis, stride_steps) * step - spec.halfwidth
        balls.extend(Ball(c, r) for c in itertools.product(centers, repeat=spec.dim))
    return balls


def test_family_structure(spec1d, spec2d):
    for spec in (spec1d, spec2d):
        family = BallFamily.build(spec)
        balls = _balls(family)
        assert balls == _former_family(spec)  # same balls, same order
        assert family.balls.shape == (len(balls), spec.dim + 1)
        assert BallFamily.build(spec) is family  # built once per grid
        radii = {b.radius for b in balls}
        for r in radii:
            assert abs(math.log2(r) - round(math.log2(r))) < 1e-12
        small, large = family.halves()
        assert small.any() and large.any()
        # small/large split keyed on the analytic measure; unit balls in both
        for ball, is_small, is_large in zip(balls, small, large):
            assert is_small == (ball.measure <= 1.0 + 1e-9)
            assert is_large == (ball.measure >= 1.0 - 1e-9)
        # no ball is under-resolved: each covers 5 nodes per axis or more
        assert all(region_node_count(spec, b) >= 5**spec.dim for b in balls)
        # each ball's window row is its in-box index slices, in family order
        assert family.starts.shape == family.shapes.shape == (len(balls), spec.dim)
        for ball, start, shape in zip(balls, family.starts.tolist(), family.shapes.tolist()):
            box = tuple(slice(a, a + h) for a, h in zip(start, shape))
            assert region_slices(spec, ball) == box


def _loop_norms(b, family):
    """bmo_report, bmo_local_norm and lmo_norm as the per-norm family loops
    the single statistics pass replaced (per-ball statistics memoized)."""
    stats = functools.cache(lambda ball: ball_stats(b, ball))
    balls = _balls(family)
    small = [ball for ball in balls if ball.measure <= 1.0 + 1e-9]
    large = [ball for ball in balls if ball.measure >= 1.0 - 1e-9]
    best, arg = 0.0, None
    for ball in balls:
        osc = stats(ball)[1]
        if osc > best:
            best, arg = osc, ball
    mean_sup = max((stats(ball)[2] for ball in large), default=0.0)
    bmo_local = max((stats(ball)[1] for ball in small), default=0.0) + mean_sup
    lmo_sup = 0.0
    for ball in small:
        lmo_sup = max(lmo_sup, math.log(math.e + 1.0 / ball.measure) * stats(ball)[1])
    return (best, len(family.balls), arg), bmo_local, lmo_sup + mean_sup


@pytest.mark.parametrize("kind", ["random-smooth", "step", "random-bmo"])
@pytest.mark.parametrize("spec_name", ["spec1d", "spec2d"])
def test_family_norms_match_loops(request, spec_name, kind):
    spec = request.getfixturevalue(spec_name)
    family = BallFamily.build(spec)
    b = b_field(spec, kind, np.random.default_rng(11))
    report = bmo_report(b)
    assert _loop_norms(b, family) == (
        (report.norm, report.family_size, report.argmax_ball),
        bmo_local_norm(b),
        lmo_norm(b),
    )


@pytest.mark.parametrize("spec", [GridSpec(1, 8.0, 2049), GridSpec(2, 4.0, 65)], ids=str)
def test_family_stats_match_ball_stats(spec):
    """Every batched row is the scalar ball_stats row, bit for bit: on
    boundary-clipped balls, on a step (constant halves: exact means and the
    early exit), on a step too small for its oscillation to survive the
    weights, and on shape groups that span more than one batch.  So are the
    one-row ball_mean and mean_oscillation of a sample of the balls."""
    family = BallFamily.build(spec)
    assert any(len(members) * math.prod(shape) > oscillation._BATCH_FLOATS
               for shape, members in grid.shape_groups(family.shapes))
    # on each axis, windows clipped at the low and at the high box edge
    assert (family.starts == 0).any(axis=0).all()
    assert (family.starts + family.shapes == spec.points_per_axis).any(axis=0).all()
    balls = _balls(family)
    flat = {}
    for height in (1.0, 5e-324):
        b = step_field(spec, height)
        stats = family_stats(b, family)
        oracle = np.array([ball_stats(b, ball) for ball in balls])
        assert np.array_equal(stats, oracle)
        for i in range(0, len(balls), 7):
            assert ball_mean(b, balls[i]) == oracle[i, 0]
            assert mean_oscillation(b, balls[i]) == oracle[i, 1]
        flat[height] = stats[:, 1] == 0.0
    assert flat[1.0].any() and not flat[1.0].all()  # balls on one side of the step
    assert flat[5e-324].all()  # every oscillation underflows


@pytest.mark.parametrize("spec", [GridSpec(1, 8.0, 129), GridSpec(2, 8.0, 65)], ids=str)
def test_ball_stats_near_float_max(spec):
    """A finite field near the float maximum has finite ball statistics: its
    weighted sums are taken on values scaled down by a power of two, so the
    BMO norm, its argmax ball, ball_mean and mean_oscillation are 2^k times
    those of the field scaled down by 2^k, bit for bit."""
    big = random_smooth_field(spec, np.random.default_rng(0), amplitude=1e308)
    k = 1000
    small = big.with_values(np.ldexp(big.values, -k))
    report, small_report = bmo_report(big), bmo_report(small)
    assert math.isfinite(report.norm)
    assert report.norm == math.ldexp(small_report.norm, k)
    assert report.argmax_ball == small_report.argmax_ball
    balls = _balls(BallFamily.build(spec))
    for ball in balls[:: max(1, len(balls) // 150)]:
        mean, osc, _ = ball_stats(small, ball)
        assert ball_mean(big, ball) == math.ldexp(mean, k)
        assert mean_oscillation(big, ball) == math.ldexp(osc, k)


def test_bmo_report_groups_its_evaluated_windows(spec2d, monkeypatch):
    """bmo_report groups the windows of exactly the balls it evaluates, and
    those of no other ball."""
    b = b_field(spec2d, "random-bmo", np.random.default_rng(3))
    BallFamily.build(spec2d)
    calls, shape_groups = [], grid.shape_groups

    def counted(shapes):
        calls.append(len(shapes))
        return shape_groups(shapes)

    monkeypatch.setattr(grid, "shape_groups", counted)
    report = bmo_report(b)
    assert sum(calls) == report.balls_evaluated > 0


# the fields of the pruned-sup oracle test: the named generators; a field near
# 1e6, whose variance the centring keeps from cancelling; one near 1e150, whose
# squares the scaling keeps from overflowing; a step of the least subnormal,
# whose every oscillation underflows; and a field near 1 whose |b|-means differ
# by less than the rounding of their bounds, so that the margins decide
PRUNED_FIELDS = {
    "random-smooth": lambda spec, rng: b_field(spec, "random-smooth", rng),
    "random-bmo": lambda spec, rng: b_field(spec, "random-bmo", rng),
    "random-lipschitz": lambda spec, rng: b_field(spec, "random-lipschitz", rng, gamma=0.5),
    "step": lambda spec, rng: step_field(spec),
    "regularized-log": lambda spec, rng: b_field(spec, "regularized-log", rng),
    "constant": lambda spec, rng: GridFunction.constant(spec, -2.5),
    "1e6+smooth": lambda spec, rng: GridFunction(
        spec, 1e6 + 1e-3 * b_field(spec, "random-smooth", rng).values),
    "1e150*bmo": lambda spec, rng: GridFunction(
        spec, 1e150 * b_field(spec, "random-bmo", rng).values),
    "subnormal-step": lambda spec, rng: step_field(spec, 5e-324),
    "1+1e-15*smooth": lambda spec, rng: GridFunction(
        spec, 1.0 + 1e-15 * b_field(spec, "random-smooth", rng).values),
}


@pytest.mark.parametrize("field", PRUNED_FIELDS)
@pytest.mark.parametrize("spec", [
    GridSpec(1, 8.0, 2049),
    GridSpec(2, 4.0, 65),
    GridSpec(2, 8.0, 65),  # no ball of measure <= 1: the small half is empty
    GridSpec(2, 8.0, 129),
], ids=str)
def test_pruned_sups_equal_full_pass(spec, field):
    """The pruned sups are the full pass's floats, and bmo_report's argmax is
    the full pass's first maximum in family order."""
    b = PRUNED_FIELDS[field](spec, np.random.default_rng(7))
    report = bmo_report(b)
    assert ((report.norm, report.argmax_ball), bmo_local_norm(b), lmo_norm(b)) == family_norms(b)
    assert 0 <= report.balls_evaluated <= report.family_size
    if spec == GridSpec(2, 8.0, 65):
        assert not BallFamily.build(spec).halves()[0].any()


def test_pruned_sup_work_guard(monkeypatch):
    """On a smooth field at 2d m=129, bmo_local_norm evaluates windows of under
    5% of the family's total window volume, and bmo_report's balls_evaluated
    counts the windows it evaluates."""
    spec = GridSpec(2, 8.0, 129)
    b = b_field(spec, "random-smooth", np.random.default_rng(5))
    family = BallFamily.build(spec)
    total = int(np.prod(family.shapes, axis=1).sum())
    rows, box_rows = [], grid.box_rows

    def counted(*args):
        for members, vals, w in box_rows(*args):
            rows.append(vals.shape)
            yield members, vals, w

    monkeypatch.setattr(oscillation, "box_rows", counted)
    bmo_local_norm(b)
    assert 0 < sum(math.prod(shape) for shape in rows) < 0.05 * total
    rows.clear()
    report = bmo_report(b)
    assert sum(k for k, _ in rows) == report.balls_evaluated > 0


def test_empty_half_is_not_bounded(monkeypatch):
    """On 2d m=65 over [-8, 8]^2 the small half is empty: bmo_local_norm and
    lmo_norm compute no oscillation bound and evaluate no oscillation, and
    every window they gather is one of the large balls they evaluate."""
    spec = GridSpec(2, 8.0, 65)
    b = b_field(spec, "random-smooth", np.random.default_rng(5))
    small, large = BallFamily.build(spec).halves()
    assert not small.any()
    bounded, evaluated, gathered = [], [], []
    bounds, evaluate, box_rows = oscillation._bounds, oscillation._evaluate, grid.box_rows

    def counted_bounds(b, family, column, *args):
        bounded.append(column)
        return bounds(b, family, column, *args)

    def counted_evaluate(b, family, column, balls, *args):
        evaluated.append((column, balls))
        return evaluate(b, family, column, balls, *args)

    def counted_rows(*args):
        for members, vals, w in box_rows(*args):
            gathered.append(len(vals))
            yield members, vals, w

    monkeypatch.setattr(oscillation, "_bounds", counted_bounds)
    monkeypatch.setattr(oscillation, "_evaluate", counted_evaluate)
    monkeypatch.setattr(oscillation, "box_rows", counted_rows)
    for norm in (bmo_local_norm, lmo_norm):
        bounded.clear(), evaluated.clear(), gathered.clear()
        assert norm(b) > 0
        assert bounded == [2]
        assert all(column == 2 and large[balls].all() for column, balls in evaluated)
        assert sum(gathered) == sum(len(balls) for _, balls in evaluated) > 0


def test_grid_weights_built_once_per_grid():
    """bmo_local_norm, lphi_star_norm, lp_norm and ball_mean on 2d m=65 build
    the grid's weights once between them, however many window groups, cubes
    and regions they read; the weights are read-only."""
    spec = GridSpec(2, 8.0, 65)
    b = b_field(spec, "step", np.random.default_rng(5))
    BallFamily.build(spec)
    GridSpec.weights.cache_clear()
    assert bmo_local_norm(b) > 0 and lphi_star_norm(b) > 0
    assert lp_norm(b, 1.0) > 0 and ball_mean(b, Ball((1.0, 0.0), 2.0)) > 0
    assert GridSpec.weights.cache_info().misses == 1
    with pytest.raises(ValueError):
        spec.weights()[0, 0] = 1.0


def test_family_memory_guard():
    """At 2d m=129 the family holds under 2 MB (its former Ball tuple took
    7.4 MB), and the batched statistics pass peaks under 2 MB above it."""
    spec = GridSpec(2, 8.0, 129)
    b = b_field(spec, "random-smooth", np.random.default_rng(5))
    BallFamily.build(GridSpec(1, 1.0, 16))  # evicts a cached 2d m=129 family
    tracemalloc.start()
    try:
        BallFamily.build(spec)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        bmo_local_norm(b)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert held < 2e6
    assert peak < 2e6


def test_mean_oscillation_constant(spec1d):
    f = GridFunction.constant(spec1d, 4.2)
    assert mean_oscillation(f, Ball((0.5,), 1.0)) == 0.0


def test_mean_oscillation_step(spec1d):
    b = step_field(spec1d)
    r = 1.0
    osc = mean_oscillation(b, Ball((0.0,), r))
    assert osc == pytest.approx(0.5, abs=2 * spec1d.spacing / r)


def test_mean_oscillation_linear(spec1d):
    b = from_callable(spec1d, lambda x: x)
    r = 2.0
    assert mean_oscillation(b, Ball((0.0,), r)) == pytest.approx(
        r / 2.0, abs=spec1d.spacing
    )


def test_bmo_constant_and_shift_invariance(spec1d, rng):
    assert bmo_report(GridFunction.constant(spec1d, -7.0)).norm == 0.0
    b = random_smooth_field(spec1d, rng)
    shifted = b.with_values(b.values + 11.0)
    assert bmo_report(shifted).norm == pytest.approx(
        bmo_report(b).norm, rel=1e-10
    )


def test_bmo_report_argmax(spec1d, rng):
    b = random_smooth_field(spec1d, rng)
    report = bmo_report(b)
    assert report.norm > 0
    assert report.argmax_ball is not None
    assert mean_oscillation(b, report.argmax_ball) == pytest.approx(report.norm)
    doc = asdict(report)
    assert doc["family_size"] == report.family_size


def test_bmo_local_constant(spec1d):
    assert bmo_local_norm(GridFunction.zeros(spec1d)) == 0.0
    assert bmo_local_norm(GridFunction.constant(spec1d, -2.5)) == 2.5


def test_bmo_local_step(spec1d):
    b = step_field(spec1d)
    # oscillation 1/2 on a small ball straddling the jump, |b|-mean 1 on a
    # large ball inside the positive half
    assert bmo_local_norm(b) == pytest.approx(1.5, abs=0.1)


def test_lmo_constant_and_ordering(spec1d, rng):
    assert lmo_norm(GridFunction.zeros(spec1d)) == 0.0
    assert lmo_norm(GridFunction.constant(spec1d, 3.0)) == 3.0
    b = random_smooth_field(spec1d, rng)
    assert lmo_norm(b) >= bmo_local_norm(b)


def test_translation_invariance_exact(spec1d, rng):
    b = random_smooth_field(spec1d, rng)
    shift_nodes = 16
    shifted_vals = np.zeros(spec1d.shape)
    shifted_vals[shift_nodes:] = b.values[:-shift_nodes]
    shifted = GridFunction(spec1d, shifted_vals)
    ball = Ball((-2.0,), 1.0)
    moved = Ball((-2.0 + shift_nodes * spec1d.spacing,), 1.0)
    assert mean_oscillation(shifted, moved) == mean_oscillation(b, ball)


def test_jn_check_constant(spec1d, spec2d):
    b = GridFunction.constant(spec1d, 2.0)
    assert jn_check(b, Ball((0.0,), 0.5), c=1.0) <= 2.0
    for spec in (spec1d, spec2d):
        for value in (2.0, 0.1, -3.7, 7.3):
            b = GridFunction.constant(spec, value)
            for x in (0.0, 0.3, -2.5):
                ball = Ball((x,) * spec.dim, 0.5)
                val = jn_check(b, ball, c=1.0, bmo_local=abs(value))
                # the mean of a constant is exact, so the integrand is exactly 1
                # and the value is the quadrature measure of the ball, which
                # overshoots the analytic unit measure by O(spacing)
                assert val == float(np.sum(region_values(b, ball)[1]))
                assert val == pytest.approx(1.0, abs=4 * spec.spacing)


def test_jn_check_small_bump_bound(spec1d):
    x = meshes(spec1d)[0]
    b = GridFunction(spec1d, 0.1 * bump_profile(x / 2.0))
    ball = Ball((0.0,), 0.5)
    norm = bmo_local_norm(b)
    c = float(np.max(np.abs(b.values))) / norm + 0.1
    assert jn_check(b, ball, c, bmo_local=norm) <= math.e * 1.001


def test_jn_check_errors(spec1d, rng):
    b = random_smooth_field(spec1d, rng)
    with pytest.raises(ValueError):
        jn_check(b, Ball((0.0,), 0.5), c=-1.0)
    with pytest.raises(ValueError, match="unit measure"):
        jn_check(b, Ball((0.0,), 2.0), c=1.0)


def test_multiplier_identity(spec1d, rng):
    b = random_smooth_field(spec1d, rng)
    one = GridFunction.constant(spec1d, 1.0)
    report = multiplier_check(one, b)
    assert report["ratio"] <= 1.0 + 1e-9
    assert report["phi_sup"] == 1.0


def test_multiplier_degenerate(spec1d):
    zero = GridFunction.zeros(spec1d)
    with pytest.raises(ValueError, match="degenerate"):
        multiplier_check(zero, zero)


def test_multiplier_finite_on_pair(spec1d, rng):
    b = random_smooth_field(spec1d, rng)
    x = meshes(spec1d)[0]
    phi_fn = GridFunction(spec1d, bump_profile(x / 4.0))
    report = multiplier_check(phi_fn, b)
    assert np.isfinite(report["ratio"]) and report["ratio"] >= 0
