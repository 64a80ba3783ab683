import itertools
import json
import math

import numpy as np
import pytest

from hardylab import maximal
from hardylab.generators import random_ball
from hardylab.grid import (
    Ball,
    GridFunction,
    GridSpec,
    ball_mean,
    dyadic_scales,
    integrate,
    load_gridfunction,
    lp_norm,
    region_coords,
    region_node_count,
    region_slices,
    region_weights,
    save_gridfunction,
    sup_norm,
    unit_cubes,
)
from hardylab.orlicz import LINEAR, PHI, luxembourg_norm
from hardylab.oscillation import BallFamily, jn_check, mean_oscillation


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(3, 1.0, 64)
    with pytest.raises(ValueError):
        GridSpec(1, -1.0, 64)
    with pytest.raises(ValueError):
        GridSpec(1, 1.0, 8)
    with pytest.raises(ValueError, match="finite"):
        GridSpec(1, math.inf, 64)


def test_gridfunction_rejects_nonfinite():
    spec = GridSpec(1, 1.0, 33)
    vals = np.zeros(33)
    vals[5] = np.nan
    with pytest.raises(ValueError):
        GridFunction(spec, vals)


def test_integrate_constant_unit_box():
    spec = GridSpec(1, 1.0, 101)
    one = GridFunction.constant(spec, 1.0)
    assert integrate(one) == pytest.approx(2.0, abs=1e-12)
    assert integrate(GridFunction.zeros(spec)) == 0.0


def test_integrate_square_closed_form():
    spec = GridSpec(1, 1.0, 201)
    f = GridFunction.from_callable(spec, lambda x: x**2)
    # trapezoid error is O(spacing^2) for smooth integrands
    assert integrate(f) == pytest.approx(2.0 / 3.0, abs=spec.spacing**2)


def test_integrate_linearity(rng):
    spec = GridSpec(1, 2.0, 129)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    g = GridFunction(spec, rng.normal(size=spec.shape))
    lhs = integrate(f.with_values(3.0 * f.values - 2.0 * g.values))
    rhs = 3.0 * integrate(f) - 2.0 * integrate(g)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_integrate_2d_constant():
    spec = GridSpec(2, 2.0, 33)
    one = GridFunction.constant(spec, 1.0)
    assert integrate(one) == pytest.approx(16.0, abs=1e-10)


def test_ball_mean_constant_exact(spec1d):
    f = GridFunction.constant(spec1d, 3.75)
    for ball in (Ball((0.0,), 1.0), Ball((2.5,), 0.5), Ball((-6.0,), 2.0)):
        assert ball_mean(f, ball) == 3.75


def test_ball_mean_of_one_is_one(spec1d, spec2d):
    for spec in (spec1d, spec2d):
        one = GridFunction.constant(spec, 1.0)
        ball = Ball((0.25,) * spec.dim, 1.0)
        assert ball_mean(one, ball) == 1.0


def test_ball_mean_odd_symmetry(spec1d):
    f = GridFunction.from_callable(spec1d, lambda x: x)
    assert abs(ball_mean(f, Ball((0.0,), 2.0))) < 1e-13


def test_ball_mean_square_oracle():
    spec = GridSpec(1, 2.0, 513)
    f = GridFunction.from_callable(spec, lambda x: x**2)
    r = 1.0
    got = ball_mean(f, Ball((0.0,), r))
    # region-restricted weights are flat at the ball edge, so the mean of a
    # smooth function converges at O(spacing) there
    assert got == pytest.approx(r**2 / 3.0, abs=spec.spacing)


def test_ball_mean_under_resolved(spec1d):
    f = GridFunction.constant(spec1d, 1.0)
    with pytest.raises(ValueError, match="under-resolved"):
        # radius below half a spacing captures at most one node
        ball_mean(f, Ball((0.001,), spec1d.spacing / 4.0))


def test_one_row_statistics_leave_f_alone(spec1d, rng):
    """The one-row calls work on copies: on a 1d ball and on the whole box,
    region_values returns a view of f.values, which the rows would overwrite."""
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    before = f.values.copy()
    ball = Ball((0.25,), 0.5)  # unit measure, for jn_check
    ball_mean(f, ball)
    mean_oscillation(f, ball)
    jn_check(f, ball, c=1.0, bmo_local=1.0)
    luxembourg_norm(f, PHI, ball)
    luxembourg_norm(f, PHI)
    luxembourg_norm(f, LINEAR)
    assert f.values.tobytes() == before.tobytes()


def test_region_errors(spec1d):
    with pytest.raises(ValueError, match="empty region"):
        region_slices(spec1d, Ball((20.0,), 0.5))
    with pytest.raises(ValueError):
        region_slices(spec1d, Ball((0.0, 0.0), 1.0))
    with pytest.raises(TypeError):
        region_slices(spec1d, "not a region")


def test_lp_norm_basics(spec1d, rng):
    zero = GridFunction.zeros(spec1d)
    assert lp_norm(zero, 1.0) == 0.0
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    lam = -2.3
    assert lp_norm(f.with_values(lam * f.values), 0.7) == pytest.approx(
        abs(lam) * lp_norm(f, 0.7), rel=1e-12
    )
    with pytest.raises(ValueError):
        lp_norm(f, -1.0)


def test_lp_norm_indicator():
    spec = GridSpec(1, 2.0, 257)
    f = GridFunction.from_callable(
        spec, lambda x: np.where((x >= 0) & (x <= 1), 1.0, 0.0)
    )
    assert lp_norm(f, 1.0) == pytest.approx(1.0, abs=2 * spec.spacing)


def test_lp_norm_monotone(spec1d, rng):
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    g = f.with_values(np.abs(f.values) + 0.5)
    for p in (0.5, 1.0, 2.0):
        assert lp_norm(f, p) <= lp_norm(g, p)


def test_sup_norm_is_lp_inf(spec1d, rng):
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    assert lp_norm(f, math.inf) == sup_norm(f) == float(np.max(np.abs(f.values)))


# the owner search that unit_cubes replaced, kept as its reference


def _former_cubes(spec):  # the former list of unit cubes, in raster order
    js = np.unique(np.floor(spec.axis() + 0.5).astype(int))
    if spec.dim == 1:
        return [(int(j),) for j in js]
    return [(int(j1), int(j2)) for j1 in js for j2 in js]


def _former_cube_box(spec, j):  # the former owner search, on each axis
    owners = np.floor(spec.axis() + 0.5).astype(int)
    return tuple(
        slice(int(np.searchsorted(owners, ji, side="left")),
              int(np.searchsorted(owners, ji, side="right")))
        for ji in j
    )


CUBE_GRIDS = list(itertools.product(
    (1, 2), (16, 17, 33, 65, 100, 129, 257, 1025), (1.0, 3.7, 4.0, 8.0, 8.3)
))


def test_unit_cubes_match_former_owner_search():
    for dim, m, halfwidth in CUBE_GRIDS:
        spec = GridSpec(dim, halfwidth, m)
        cubes = unit_cubes(spec)
        former = {j: _former_cube_box(spec, j) for j in _former_cubes(spec)}
        assert list(cubes.items()) == list(former.items())  # same boxes, raster order
        # the boxes partition the nodes, and cube j holds the nodes with floor(x + 1/2) = j
        assert sum(region_node_count(spec, box) for box in cubes.values()) == m**dim
        for j, box in cubes.items():
            for ji, s in zip(j, box):
                assert np.all(np.floor(spec.axis()[s] + 0.5) == ji)


# the per-dimension branches that region_weights and region_coords replaced,
# kept as their reference; GridSpec.weights was the first on the whole box


def _former_region_weights(spec, slices):
    w = spec.axis_weights()
    if spec.dim == 1:
        return w[slices[0]]
    return np.multiply.outer(w[slices[0]], w[slices[1]])


def _former_region_coords(spec, slices):
    axes = [spec.axis()[s] for s in slices]
    if spec.dim == 1:
        return (axes[0],)
    return tuple(np.meshgrid(*axes, indexing="ij"))


def test_region_helpers_match_former_branches():
    for dim, m, halfwidth in CUBE_GRIDS:
        if dim == 2 and m > 129:  # 2d boxes above m=129 hold nothing new
            continue
        spec = GridSpec(dim, halfwidth, m)
        whole = (slice(None),) * dim
        assert np.array_equal(spec.weights(), _former_region_weights(spec, whole))
        boxes = [whole, *unit_cubes(spec).values()]
        if dim == 1 or m <= 65:  # a 2d m=129 family takes 0.2 s to build
            family = BallFamily.build(spec)
            n = len(family.balls)
            # about 200 balls per family, spread over its radii and centers
            boxes += [region_slices(spec, family.ball(i)) for i in range(0, n, n // 200 + 1)]
        for box in boxes:
            assert np.array_equal(region_weights(spec, box), _former_region_weights(spec, box))
            coords = region_coords(spec, box)
            former = _former_region_coords(spec, box)
            assert len(coords) == len(former) == dim
            assert all(np.array_equal(x, y) for x, y in zip(coords, former))


def test_cubes_partition_nodes(spec1d):
    total = sum(region_node_count(spec1d, c) for c in unit_cubes(spec1d).values())
    assert total == spec1d.points_per_axis


def test_cubes_partition_nodes_2d(spec2d):
    total = sum(region_node_count(spec2d, c) for c in unit_cubes(spec2d).values())
    assert total == spec2d.points_per_axis**2


def test_cube_index_roundtrip(spec1d):
    sl = region_slices(spec1d, unit_cubes(spec1d)[(0,)])
    axis = spec1d.axis()[sl[0]]
    assert np.all(axis >= -0.5) and np.all(axis < 0.5)


def test_serialization_roundtrip(tmp_path, spec1d, rng):
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    base = tmp_path / "field"
    save_gridfunction(f, base)
    header = json.loads(base.with_suffix(".json").read_text())
    assert header == f.spec.to_dict()
    assert GridSpec.from_dict(header) == f.spec
    g = load_gridfunction(base)
    assert g.spec == f.spec
    assert np.array_equal(g.values, f.values)


def test_ball_dilate_translate():
    b = Ball((1.0,), 0.5)
    assert b.dilate(2.0) == Ball((2.0,), 1.0)
    assert b.translate((0.25,)) == Ball((1.25,), 0.5)
    assert b.measure == 1.0
    assert Ball((0.0, 0.0), 1.0).measure == 4.0


# the three dyadic rules that dyadic_scales replaced, kept as its reference


def _former_ladder(spec, truncated):  # ScaleLadder.default; it raised where empty
    t_max = 0.5 if truncated else 2.0 * spec.halfwidth
    j_lo = int(math.ceil(math.log2(2.0 * spec.spacing) - 1e-12))
    j_hi = int(math.floor(math.log2(t_max) + 1e-12))
    return [2.0**j for j in range(j_hi, j_lo - 1, -1)]


def _former_family_radii(spec):  # BallFamily.build
    j_lo = int(math.ceil(math.log2(4.0 * spec.spacing) - 1e-12))
    j_hi = int(math.floor(math.log2(2.0 * spec.halfwidth) + 1e-12))
    return [2.0**j for j in range(j_lo, j_hi + 1)]


def _former_random_ball(spec, rng, r_lo, r_hi):  # generators.random_ball
    j_lo = int(math.ceil(math.log2(r_lo) - 1e-12))
    j_hi = int(math.floor(math.log2(r_hi) + 1e-12))
    r = 2.0 ** int(rng.integers(j_lo, j_hi + 1))
    free = spec.halfwidth - r
    return Ball(tuple(rng.uniform(-free, free) for _ in range(spec.dim)), r)


def test_dyadic_scales_match_former_rules(monkeypatch):
    seen = []
    monkeypatch.setattr(maximal, "convolve_dilated", lambda f, t: seen.append(t) or f)
    grids = itertools.product((1, 2), (16, 17, 33, 65, 129, 257, 1025, 4097), (1.0, 3.7, 4.0, 8.0))
    for dim, m, halfwidth in grids:
        spec = GridSpec(dim, halfwidth, m)
        for local in (False, True):
            former = _former_ladder(spec, local)[::-1]
            if not former:
                with pytest.raises(ValueError, match="empty dyadic range"):
                    maximal.maximal_fn(GridFunction.zeros(spec), local)
            elif dim == 1 or m <= 1025:  # 2d m=4097 takes 134 MB; 1d has its spacing
                seen.clear()
                maximal.maximal_fn(GridFunction.zeros(spec), local)
                assert sorted(seen) == former  # the scale order is free
        radii = dyadic_scales(4.0 * spec.spacing, 2.0 * halfwidth)
        assert radii == _former_family_radii(spec)
        if dim == 1 or m <= 65:  # the 2d family at m=4097 has ~17M balls
            family = BallFamily.build(spec)
            assert list(dict.fromkeys(family.balls[:, -1].tolist())) == radii
        for r_lo, r_hi in ((spec.spacing, halfwidth), (halfwidth / 16.0, halfwidth / 2.0)):
            new_rng, old_rng = np.random.default_rng(m), np.random.default_rng(m)
            for _ in range(20):
                ball = random_ball(spec, new_rng, (r_lo, r_hi))
                assert ball == _former_random_ball(spec, old_rng, r_lo, r_hi)
            assert new_rng.random() == old_rng.random()
    with pytest.raises(ValueError, match="empty dyadic range"):
        dyadic_scales(3.0, 3.5)
    for lo, hi in ((0.0, 1.0), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="finite positive ends"):
            dyadic_scales(lo, hi)
