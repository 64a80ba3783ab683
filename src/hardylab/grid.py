"""Uniform-grid function representation, geometric regions and quadrature.

Everything downstream (maximal operators, Orlicz norms, oscillation
statistics, atoms, product splits) is built on the types here: a function
sampled on a uniform grid over a centered box, sup-norm balls and unit
lattice cubes, and product-trapezoid quadrature restricted to regions.

Conventions
-----------
* The box is ``[-R, R]^n`` with ``n in {1, 2}``; nodes are
  ``x_i = -R + i * spacing`` per axis with ``spacing = 2R / (m - 1)``.
* Balls are sup-norm balls (axis-aligned boxes), so 1d and 2d share code
  and the analytic measure ``(2r)^n`` is exact.
* A box's nodes are products of per-axis data, kept per axis: one open
  coordinate array per axis (`region_coords`, the one coordinate helper),
  broadcast to the box, gives every node the floats of a dense mesh; a
  ball's index window is one per-axis rule over an array of centers.
* Wherever a measure divides an integral (means), the *quadrature* measure
  (sum of node weights in the region) is used, so means of constants are
  exact.  The analytic measure is used for scale factors such as
  ``|B|^{-1/p}``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "as_number",
    "as_integer",
    "GridSpec",
    "GridFunction",
    "Ball",
    "region_slices",
    "region_coords",
    "region_values",
    "box_rows",
    "shape_groups",
    "fewest_ball_nodes",
    "integrate",
    "ball_mean",
    "lp_norm",
    "sup_norm",
    "unit_cube_boxes",
    "dyadic_scales",
    "save_gridfunction",
    "load_gridfunction",
]

# slack, in units of the grid spacing, when deciding whether a node lies
# inside a ball; absorbs roundoff from dyadic center/radius arithmetic
_INDEX_TOL = 1e-9


def as_number(value, name: str) -> float:
    """A JSON number as a float; a bool, a string, null or an integer beyond
    float range raises ValueError instead of being converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} = {value} is beyond float range") from None


def as_integer(value, name: str) -> int:
    """A JSON number as an int; an integral float such as 2.0 is read as 2,
    while a bool, a string, a fractional or a non-finite value raises
    ValueError instead of being converted or truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over the box [-halfwidth, halfwidth]^dim."""

    dim: int
    halfwidth: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        # the widest family ball, of radius up to 2 * halfwidth, has measure
        # (4 * halfwidth)^dim; it bounds the box width, the spacing and the
        # cell measure spacing^dim, so they are finite too
        try:
            widest = (4.0 * self.halfwidth) ** self.dim
        except OverflowError:
            widest = math.inf
        if not (self.halfwidth > 0 and math.isfinite(widest)):
            raise ValueError("halfwidth must be positive, with (4 * halfwidth)^dim finite")
        if self.points_per_axis < 16:
            raise ValueError("points_per_axis must be >= 16")
        # the corner node weight (spacing / 2)^dim is the least one; a ball's
        # weight sum divides its means, so no weight may underflow
        try:
            least = (self.spacing / 2.0) ** self.dim
        except OverflowError:  # a node count beyond float range
            least = 0.0
        if not least >= sys.float_info.min:
            raise ValueError("the least node weight (spacing / 2)^dim must be a normal float")

    def to_dict(self) -> dict:
        """The grid header written next to saved functions and reports."""
        return asdict(self)

    @classmethod
    def from_dict(cls, header: dict) -> "GridSpec":
        return cls(
            as_integer(header["dim"], "dim"),
            as_number(header["halfwidth"], "halfwidth"),
            as_integer(header["points_per_axis"], "points_per_axis"),
        )

    @property
    def spacing(self) -> float:
        return 2.0 * self.halfwidth / (self.points_per_axis - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    def axis(self) -> np.ndarray:
        return np.linspace(-self.halfwidth, self.halfwidth, self.points_per_axis)

    # a lab run uses one grid; the size of 1 bounds memory for grid sweeps
    @functools.lru_cache(maxsize=1)
    def axis_weights(self) -> np.ndarray:
        """The trapezoid weights of one axis, the one quadrature rule: spacing
        inside the box, half of it at the box edges.  Read-only."""
        w = np.full(self.points_per_axis, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.setflags(write=False)
        return w

    @functools.lru_cache(maxsize=1)
    def weights(self) -> np.ndarray:
        """Product-trapezoid weights with the grid's shape: the outer product
        of axis_weights over the axes.  Built once per grid and read-only;
        every region reads its slice."""
        w = functools.reduce(np.multiply.outer, [self.axis_weights()] * self.dim)
        w.setflags(write=False)
        return w


@dataclass(frozen=True)
class GridFunction:
    """A real-valued function sampled on a GridSpec."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("values must be real")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.spec.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid shape {self.spec.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, spec: GridSpec, c: float) -> "GridFunction":
        return cls(spec, np.full(spec.shape, float(c)))

    @classmethod
    def zeros(cls, spec: GridSpec) -> "GridFunction":
        return cls(spec, np.zeros(spec.shape))

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.spec, values)

    def require_same_spec(self, other: "GridFunction") -> None:
        if self.spec != other.spec:
            raise ValueError("grid functions live on different grids")


@dataclass(frozen=True)
class Ball:
    """Sup-norm ball: the axis-aligned box of the given center and radius."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        center = tuple(float(c) for c in np.atleast_1d(self.center))
        object.__setattr__(self, "center", center)
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not (math.isfinite(self.radius) and all(math.isfinite(c) for c in center)):
            raise ValueError("ball radius and center must be finite")

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def measure(self) -> float:
        """Analytic measure (2r)^n."""
        return (2.0 * self.radius) ** self.dim


def _ball_axis_windows(spec: GridSpec, centers, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(first, stop) on one axis, floats in [0, m]: the nodes within the radius of
    each center, up to _INDEX_TOL steps; a window is empty unless first < stop."""
    m, step = spec.points_per_axis, spec.spacing
    lo = (centers - radius + spec.halfwidth) / step
    hi = (centers + radius + spec.halfwidth) / step
    first = np.minimum(np.maximum(np.ceil(lo - _INDEX_TOL), 0.0), m)
    return first, np.maximum(np.minimum(np.floor(hi + _INDEX_TOL) + 1.0, m), 0.0)


def region_slices(spec: GridSpec, region) -> tuple[slice, ...]:
    """Per-axis index slices of the in-box part of a Ball; an index box as is."""
    if isinstance(region, tuple) and all(isinstance(s, slice) for s in region):
        return region
    if not isinstance(region, Ball):
        raise TypeError(f"unsupported region type {type(region).__name__}")
    if region.dim != spec.dim:
        raise ValueError("region dimension does not match grid")
    first, stop = _ball_axis_windows(spec, np.array(region.center), region.radius)
    if not (first < stop).all():  # a NaN center too
        raise ValueError("empty region")
    return tuple(slice(int(a), int(b)) for a, b in zip(first.tolist(), stop.tolist()))


def region_coords(spec: GridSpec, slices: tuple[slice, ...]) -> tuple[np.ndarray, ...]:
    """Node coordinates on a region's slices: open arrays, one per axis."""
    axis = spec.axis()
    return tuple(np.meshgrid(*[axis[s] for s in slices], indexing="ij", sparse=True))


def region_values(f: GridFunction, region=None) -> tuple[np.ndarray, np.ndarray]:
    """(values, quadrature weights) of f on a region, or on the box for None; a
    region's weights are a C-contiguous copy, as a strided view sums otherwise."""
    if region is None:
        return f.values, f.spec.weights()
    slices = region_slices(f.spec, region)
    return f.values[slices], f.spec.weights()[slices].copy()


def box_rows(f: GridFunction, starts: np.ndarray, shapes: np.ndarray, batch_floats: int):
    """(members, values, weights) of f on index boxes of any shapes, in batches.

    Box k starts at node starts[k] and spans shapes[k] nodes per axis.  The
    boxes are grouped by shape_groups, and a batch holds boxes of one shape:
    its `members` are increasing indices into starts, as many as fit in
    batch_floats values (one at least).  It holds one row per box in C order,
    so a row's reduction matches, bit for bit, np.sum over region_values of
    that box.  The rows are fresh arrays that the caller may overwrite; the
    weight rows are gathered from the grid's f.spec.weights().
    """
    weights = f.spec.weights()
    # flat node indices: each box's first node plus the box's offsets in C order
    strides = f.spec.points_per_axis ** np.arange(f.spec.dim - 1, -1, -1)
    first = starts @ strides
    for shape, group in shape_groups(shapes):
        batch = max(1, batch_floats // math.prod(shape))
        offsets = sum(np.ix_(*[np.arange(n) * s for n, s in zip(shape, strides)])).ravel()
        for lo in range(0, len(group), batch):
            members = group[lo : lo + batch]
            index = first[members, None] + offsets
            yield members, f.values.take(index), weights.take(index)


def _row_stats(vals: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, mean oscillation, mean of |f|) of each row of region values and
    weights, with the quadrature measure; overwrites vals.

    Values whose weighted sums could overflow are scaled down by a power of
    two, 2^-e, and the statistics back up: such a scaling leaves every normal
    rounding exact, and values of ordinary size take e = 0 and no scaling."""
    add = np.add.reduce
    wsum = add(w, axis=-1)
    vmax = np.maximum.reduce(vals, axis=-1)
    vmin = np.minimum.reduce(vals, axis=-1)
    # |f| < 2^a and weight sums < 2^b bound every weighted sum, of |f| or of
    # |f - mean|, by 2^(a + b + 1): by 2^1021 once scaled
    amax = max(float(vmax.max()), -float(vmin.min()))
    e = math.frexp(amax)[1] + math.frexp(float(wsum.max()))[1] - 1020
    if e > 0:
        vals = np.ldexp(vals, -e, out=vals)
        vmax, vmin = np.ldexp(vmax, -e), np.ldexp(vmin, -e)
    mean = add(w * vals, axis=-1) / wsum
    # means of constants are exact by contract, not up to rounding
    constant = vmin == vmax
    mean[constant] = vmax[constant]
    dev = np.abs(vals - mean[:, None])
    flat = ~np.logical_or.reduce(dev, axis=-1)
    dev *= w
    osc = add(dev, axis=-1) / wsum
    flat &= osc == 0.0  # f is constant (osc alone can underflow)
    vals = np.abs(vals, out=vals)
    vals *= w
    abs_mean = add(vals, axis=-1) / wsum
    abs_mean[flat] = np.abs(mean[flat])
    if e > 0:
        return np.ldexp(mean, e), np.ldexp(osc, e), np.ldexp(abs_mean, e)
    return mean, osc, abs_mean


def _one_row_stats(vals: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    """_row_stats of one region, run on a copy: the values of a 1d ball or of
    the whole box are a view of f.values, which _row_stats would overwrite."""
    stats = _row_stats(vals.reshape(1, -1).copy(), w.reshape(1, -1))
    return tuple(float(s) for (s,) in stats)


def shape_groups(shapes: np.ndarray):
    """(shape, member indices) for each distinct row of an (n, dim) shape array.

    Members are increasing, and the shapes come in lexicographic order: the
    rows are sorted on one integer key each, their C-order index in a box
    that holds every shape.  No rows give no group.
    """
    if not len(shapes):
        return
    key = np.ravel_multi_index(tuple(shapes.T), tuple(shapes.max(axis=0) + 1))
    order = np.argsort(key, kind="stable")
    for members in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        yield tuple(shapes[members[0]].tolist()), members


def fewest_ball_nodes(spec: GridSpec, radius: float) -> int:
    """The nodes region_slices gives the sparsest placed ball of this radius: no
    in-box ball has fewer, and one with a grid step of room has this many."""
    return math.floor(2.0 * radius / spec.spacing + 2.0 * _INDEX_TOL) ** spec.dim


def integrate(f: GridFunction, region=None) -> float:
    """Quadrature integral of f over the box or over a region's in-box part."""
    vals, w = region_values(f, region)
    return float(np.sum(w * vals))


def ball_mean(f: GridFunction, ball: Ball) -> float:
    """Mean of f on a ball, with the quadrature measure in the denominator."""
    vals, w = region_values(f, ball)
    if vals.size < 2:
        raise ValueError("under-resolved ball")
    return _one_row_stats(vals, w)[0]


def lp_norm(f: GridFunction, p: float, region=None) -> float:
    """(integral of |f|^p)^(1/p); a quasi-norm for p < 1; sup norm for p = inf.

    An integral that underflows to 0 or below the normal range while f is not
    0, or that overflows, is taken again of |f| / max|f|, whose root is then
    scaled back by max|f|; every other integral is taken of |f| as it is."""
    if p == math.inf:
        return sup_norm(f, region)
    if not p > 0:
        raise ValueError("p must be positive")
    vals, w = region_values(f, region)
    scale = 1.0  # a product with 1.0 is exact
    with np.errstate(over="ignore", under="ignore"):
        total = float(np.sum(w * np.abs(vals) ** p))
        if not sys.float_info.min <= total < math.inf and vals.any():
            scale = float(np.max(np.abs(vals)))
            total = float(np.sum(w * (np.abs(vals) / scale) ** p))
    try:
        return scale * total ** (1.0 / p)
    except OverflowError:  # a finite integral whose root is beyond float range
        return math.inf


def sup_norm(f: GridFunction, region=None) -> float:
    vals, _ = region_values(f, region)
    return float(np.max(np.abs(vals)))


def _cube_bins(spec: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(j, first node, node count) of each unit interval j + [-1/2, 1/2) that
    owns a node on one axis, j increasing (floats: j may exceed 2^63)."""
    # nodes are assigned to cubes by nearest-integer binning, which
    # partitions the box exactly (no node counted twice in the cube sum)
    js, first = np.unique(np.floor(spec.axis() + 0.5), return_index=True)
    return js, first, np.diff(first, append=spec.points_per_axis)


def _raster_rows(count: int, dim: int) -> np.ndarray:
    """(count^dim, dim) rows of every multi-index below count, in raster order
    (last axis fastest)."""
    return np.stack(np.unravel_index(np.arange(count**dim), (count,) * dim), axis=-1)


def unit_cube_boxes(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(starts, shapes): the index box of each unit lattice cube j + Q that
    owns a node, as (cubes, dim) arrays of first nodes and node counts, with
    the cubes j in raster order; the boxes partition the nodes."""
    _, first, size = _cube_bins(spec)
    index = _raster_rows(len(first), spec.dim)
    return first[index], size[index]


def dyadic_scales(lo: float, hi: float) -> list[float]:
    """The powers of two in [lo, hi], increasing, with a 1e-12 slack in log2."""
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
        raise ValueError(f"dyadic range needs finite positive ends, got [{lo}, {hi}]")
    j_lo = math.ceil(math.log2(lo) - 1e-12)
    j_hi = math.floor(math.log2(hi) + 1e-12)
    if j_hi < j_lo:
        raise ValueError(f"empty dyadic range [{lo}, {hi}]")
    return [2.0**j for j in range(j_lo, j_hi + 1)]


def save_gridfunction(f: GridFunction, basepath) -> None:
    """Write <base>.json header and <base>.npy values; bit-exact round trip."""
    base = Path(basepath)
    base.with_suffix(".json").write_text(json.dumps(f.spec.to_dict(), indent=2))
    np.save(base.with_suffix(".npy"), f.values)


def load_gridfunction(basepath) -> GridFunction:
    base = Path(basepath)
    spec = GridSpec.from_dict(json.loads(base.with_suffix(".json").read_text()))
    values = np.load(base.with_suffix(".npy"))
    return GridFunction(spec, values)
