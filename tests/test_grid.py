import itertools
import json
import math
import sys

import numpy as np
import pytest

from hardylab import maximal
from hardylab.generators import random_ball, random_smooth_field
from hardylab.grid import (
    Ball,
    GridFunction,
    GridSpec,
    _ball_axis_windows,
    ball_mean,
    box_rows,
    dyadic_scales,
    integrate,
    load_gridfunction,
    lp_norm,
    region_coords,
    region_slices,
    region_values,
    save_gridfunction,
    shape_groups,
    sup_norm,
    unit_cube_boxes,
)
from hardylab.orlicz import PHI, luxembourg_norm
from hardylab.oscillation import BallFamily, jn_check, mean_oscillation
from scalar_oracles import (
    LINEAR, MESHGRID_BALLS, ball_axis_slice, from_callable, region_node_count, unit_cubes,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(3, 1.0, 64)
    with pytest.raises(ValueError):
        GridSpec(1, -1.0, 64)
    with pytest.raises(ValueError):
        GridSpec(1, 1.0, 8)
    with pytest.raises(ValueError, match="finite"):
        GridSpec(1, math.inf, 64)


def test_spec_box_width_is_finite():
    """A halfwidth whose widest family ball measure (4 * halfwidth)^dim
    overflows is rejected: with it go the box width 2 * halfwidth, the
    spacing, the node coordinates and, in 2d, the cell measure spacing^2."""
    for dim, halfwidth in ((1, 1e308), (1, 9e307), (1, 8e307), (2, 1e200), (2, 1e154)):
        with pytest.raises(ValueError, match=r"\(4 \* halfwidth\)\^dim finite"):
            GridSpec(dim, halfwidth, 129)
    for dim, halfwidth in ((1, 4e307), (2, 1e153)):  # the widest measures are finite
        spec = GridSpec(dim, halfwidth, 129)
        assert math.isfinite(spec.spacing**dim) and np.all(np.isfinite(spec.axis()))


def test_spec_least_node_weight_is_normal():
    """A grid whose corner node weight (spacing / 2)^dim is not a normal float
    is rejected, and so is a node count beyond float range; at 2d halfwidth
    1e-150 the least weight is normal, and every ball weight sum is positive."""
    for dim, halfwidth, m in ((2, 1e-180, 17), (2, 1e-153, 17), (1, 1e-307, 17),
                              (1, 5e-324, 129), (1, 8.0, 10**400)):
        with pytest.raises(ValueError, match=r"\(spacing / 2\)\^dim must be a normal float"):
            GridSpec(dim, halfwidth, m)
    for dim, halfwidth in ((2, 1e-150), (1, 1e-306)):
        spec = GridSpec(dim, halfwidth, 17)
        assert spec.weights().min() == (spec.spacing / 2.0) ** dim >= sys.float_info.min


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
    f = from_callable(spec, lambda x: x**2)
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
    f = from_callable(spec1d, lambda x: x)
    assert abs(ball_mean(f, Ball((0.0,), 2.0))) < 1e-13


def test_ball_mean_square_oracle():
    spec = GridSpec(1, 2.0, 513)
    f = from_callable(spec, lambda x: x**2)
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
    with pytest.raises(ValueError, match="empty region"):
        region_slices(spec1d, Ball((math.nan,), 0.5))
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
    f = from_callable(
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


def test_lp_norm_of_fields_far_from_one():
    """An integral of |f|^p that underflows or overflows is taken again of
    |f| / max|f|: the L^2 norms of 1e-170 f and 1e200 f, whose plain integrals
    are 0 and inf, are those of f scaled, and the L^5000 norm of f, whose
    powers all underflow, lies between max|f| w_min^(1/p) and max|f| |box|^(1/p).
    An integral in the normal range keeps the plain formula's bytes."""
    spec = GridSpec(1, 8.0, 129)
    w = spec.weights()

    def field(amplitude):
        return random_smooth_field(spec, np.random.default_rng(0), amplitude)

    f = field(1.0)
    norm = lp_norm(f, 2.0)
    assert norm == float(np.sum(w * np.abs(f.values) ** 2.0)) ** 0.5
    for amplitude in (1e-170, 1e200):
        assert lp_norm(field(amplitude), 2.0) == pytest.approx(amplitude * norm, rel=1e-14)
    p, top = 5000.0, sup_norm(f)
    value = lp_norm(f, p)
    assert float(np.sum(w * np.abs(f.values) ** p)) == 0.0
    assert top * w.min() ** (1 / p) * (1 - 1e-15) <= value <= top * 16.0 ** (1 / p) * (1 + 1e-15)
    assert lp_norm(GridFunction.zeros(spec), 2.0) == 0.0


# the owner search that unit_cube_boxes replaced, kept as its reference


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


def test_unit_cube_boxes_match_former_owner_search():
    for dim, m, halfwidth in CUBE_GRIDS:
        spec = GridSpec(dim, halfwidth, m)
        starts, shapes = unit_cube_boxes(spec)
        boxes = [tuple(slice(a, a + n) for a, n in zip(start, shape))
                 for start, shape in zip(starts.tolist(), shapes.tolist())]
        cubes = _former_cubes(spec)
        # same boxes, raster order, and the dict view of the oracles keys them by cube
        assert boxes == [_former_cube_box(spec, j) for j in cubes]
        assert list(unit_cubes(spec).items()) == list(zip(cubes, boxes))
        # the boxes partition the nodes, and cube j holds the nodes with floor(x + 1/2) = j
        assert sum(region_node_count(spec, box) for box in boxes) == m**dim
        for j, box in zip(cubes, boxes):
            for ji, s in zip(j, box):
                assert np.all(np.floor(spec.axis()[s] + 0.5) == ji)


def _former_shape_groups(shapes):  # grouped on np.unique of the rows
    kinds, inverse, counts = np.unique(shapes, axis=0, return_inverse=True, return_counts=True)
    order = np.argsort(inverse.ravel(), kind="stable")
    for shape, members in zip(kinds, np.split(order, np.cumsum(counts)[:-1])):
        yield tuple(int(h) for h in shape), members


def test_shape_groups_match_former_unique_rows(rng):
    """Grouping on one integer key per row gives the groups np.unique(axis=0)
    gave: the same shapes in lexicographic order, with increasing members."""
    cases = [rng.integers(1, 6, size=(n, dim)) for n in (1, 7, 500) for dim in (1, 2)]
    cases.append(np.array([[3, 9], [9, 3], [3, 9], [1, 40], [40, 1]], dtype=np.int32))
    for shapes in cases:
        groups = list(shape_groups(shapes))
        former = list(_former_shape_groups(shapes))
        assert [shape for shape, _ in groups] == [shape for shape, _ in former]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(groups, former))
    for dim in (1, 2):  # no rows give no group
        assert list(shape_groups(np.zeros((0, dim), dtype=int))) == []


@pytest.mark.parametrize("spec", [GridSpec(1, 8.0, 129), GridSpec(2, 4.0, 33)], ids=str)
def test_box_rows_gather_boxes_of_any_shape(spec, rng):
    """Each row of a batch is region_values of its box, ==, on boxes of mixed
    shapes clipped at the box edges; a row's sum is the region's.  The
    batches' members partition the boxes and increase within a batch, a batch
    holds one shape, and only a single box exceeds batch_floats.  No boxes
    give no batch."""
    f = GridFunction(spec, rng.normal(size=spec.shape))
    m, dim, batch_floats = spec.points_per_axis, spec.dim, 64
    lo = rng.integers(-4, m, size=(300, dim))
    hi = np.clip(lo + rng.integers(1, 9, size=lo.shape), 1, m)
    lo = np.clip(lo, 0, m - 1)
    # and the whole box, wider than a batch
    starts = np.vstack([lo, np.zeros((1, dim), dtype=int)])
    shapes = np.vstack([hi - lo, np.full((1, dim), m)])
    assert (starts == 0).any(axis=0).all() and (starts + shapes == m).any(axis=0).all()
    batches = list(box_rows(f, starts, shapes, batch_floats))
    members = np.concatenate([k for k, _, _ in batches])
    assert np.array_equal(np.sort(members), np.arange(len(starts)))
    assert any(len(k) > 1 for k, _, _ in batches)
    for k, vals, w in batches:
        assert np.all(np.diff(k) > 0) and np.all(shapes[k] == shapes[k[0]])
        assert vals.size <= batch_floats or len(k) == 1
        sums = np.add.reduce(w * vals, axis=-1)  # the batch's row reductions
        for i, row_v, row_w, row_sum in zip(k, vals, w, sums):
            v, wi = region_values(f, tuple(slice(a, a + h) for a, h in zip(starts[i], shapes[i])))
            assert np.array_equal(row_v, v.ravel()) and np.array_equal(row_w, wi.ravel())
            assert row_sum == np.sum(wi * v)
    assert list(box_rows(f, starts[:0], shapes[:0], batch_floats)) == []


# the per-dimension branches that GridSpec.weights and region_coords replaced,
# kept as their reference; GridSpec.weights was the first on the whole box


def _former_region_weights(spec, slices):
    w = np.full(spec.points_per_axis, spec.spacing)  # the former axis_weights
    w[0] *= 0.5
    w[-1] *= 0.5
    if spec.dim == 1:
        return w[slices[0]]
    return np.multiply.outer(w[slices[0]], w[slices[1]])


def _former_region_coords(spec, slices):
    axes = [spec.axis()[s] for s in slices]
    if spec.dim == 1:
        return (axes[0],)
    return tuple(np.meshgrid(*axes, indexing="ij"))


def test_region_helpers_match_former_branches():
    """Region weights equal the former outer products, ==, sum to the same
    float and are C-contiguous: a strided view of the grid's weights sums in
    another grouping, which at 2d halfwidth 3.7, m=100 moves some ball sums."""
    for dim, m, halfwidth in CUBE_GRIDS:
        if dim == 2 and m > 129:  # 2d boxes above m=129 hold nothing new
            continue
        spec = GridSpec(dim, halfwidth, m)
        f = GridFunction.zeros(spec)
        whole = (slice(None),) * dim
        assert np.array_equal(spec.weights(), _former_region_weights(spec, whole))
        boxes = [whole, *unit_cubes(spec).values()]
        # a 2d m=129 family takes 0.2 s to build; a strided sum is known to
        # differ on a few balls of the 2d halfwidth 3.7, m=100 family
        strided = (dim, m, halfwidth) == (2, 100, 3.7)
        if dim == 1 or m <= 65 or strided:
            family = BallFamily.build(spec)
            n = len(family.balls)
            # about 200 balls per family (2,000 on the strided one), spread
            # over its radii and centers
            step = n // (2000 if strided else 200) + 1
            boxes += [region_slices(spec, family.ball(i)) for i in range(0, n, step)]
        for box in boxes:
            w, former = region_values(f, box)[1], _former_region_weights(spec, box)
            assert np.array_equal(w, former) and np.sum(w) == np.sum(former)
            assert w.flags.c_contiguous
            # the open per-axis coordinates, broadcast, are the former dense ones
            coords = np.broadcast_arrays(*region_coords(spec, box))
            former = _former_region_coords(spec, box)
            assert len(coords) == len(former) == dim
            assert all(np.array_equal(x, y) for x, y in zip(coords, former))


def test_ball_windows_match_per_center_rule():
    """The vectorized window rule is the one-center rule on every axis, ==:
    for every ball of every family on CUBE_GRIDS, and for single balls in,
    at the edge of, across and outside the box.  A 2d family's centers and
    radii per axis are the 1d family's of the same grid, so the 2d families
    above m=257, 2.5 million balls at m=1025, are not built."""
    for dim, m, halfwidth in CUBE_GRIDS:
        if dim == 2 and m > 257:
            continue
        spec = GridSpec(dim, halfwidth, m)
        family = BallFamily.build(spec)
        assert family.starts.dtype == family.shapes.dtype == np.int32
        for a in range(dim):  # the rule once per distinct (center, radius) on the axis
            keys, inverse = np.unique(family.balls[:, [a, -1]], axis=0, return_inverse=True)
            former = [ball_axis_slice(spec, c, r) for c, r in keys.tolist()]
            start = np.array([s.start for s in former])[inverse.ravel()]
            size = np.array([s.stop - s.start for s in former])[inverse.ravel()]
            assert np.array_equal(family.starts[:, a], start)
            assert np.array_equal(family.shapes[:, a], size)
    for dim in (1, 2):
        spec = GridSpec(dim, 8.0, 65)
        for ball in MESHGRID_BALLS[dim]:
            former = tuple(ball_axis_slice(spec, c, ball.radius) for c in ball.center)
            assert region_slices(spec, ball) == former
    spec = GridSpec(1, 8.0, 65)
    centers = np.array([-9.0, -8.3, -8.0, 0.1, 7.9, 8.0, 8.3, 12.0])
    first, stop = _ball_axis_windows(spec, centers, 0.5)
    former = [ball_axis_slice(spec, c, 0.5) for c in centers.tolist()]
    for a, b, s in zip(first.tolist(), stop.tolist(), former):
        assert a < b and (a, b) == (s.start, s.stop) or b <= a and s.stop <= s.start


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


def test_from_dict_reads_json_numbers():
    """A grid field is a JSON number: a bool or a string is not read as one."""
    header = {"dim": 1, "halfwidth": 8.0, "points_per_axis": 257}
    for key, value, what in (("dim", True, "integer"), ("points_per_axis", "257", "integer"),
                             ("halfwidth", "8", "number"), ("halfwidth", True, "number"),
                             ("halfwidth", None, "number")):
        with pytest.raises(ValueError, match=f"{key} must be an? {what}"):
            GridSpec.from_dict({**header, key: value})


def test_from_dict_integer_fields():
    """An integral float is read as its integer; a fractional or infinite
    dim or point count raises instead of being truncated."""
    header = {"dim": 1.0, "halfwidth": 8, "points_per_axis": 257.0}
    assert GridSpec.from_dict(header) == GridSpec(1, 8.0, 257)
    for key, value in (("dim", 1.5), ("points_per_axis", 257.9),
                       ("points_per_axis", math.inf), ("points_per_axis", math.nan)):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            GridSpec.from_dict({**header, key: value})


def test_ball_measure():
    b = Ball((1.0,), 0.5)
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
    # maximal_fn builds each scale's kernel once; a 1-tap stub keeps the
    # transforms small
    monkeypatch.setattr(
        maximal, "_kernel", lambda spec, t: seen.append(t) or np.ones((1,) * spec.dim)
    )
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
