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
* Wherever a measure divides an integral (means), the *quadrature* measure
  (sum of node weights in the region) is used, so means of constants are
  exact.  The analytic measure is used for scale factors such as
  ``|B|^{-1/p}``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "GridSpec",
    "GridFunction",
    "Ball",
    "region_slices",
    "region_weights",
    "region_coords",
    "region_values",
    "box_rows",
    "shape_groups",
    "fewest_ball_nodes",
    "integrate",
    "ball_mean",
    "lp_norm",
    "sup_norm",
    "unit_cubes",
    "dyadic_scales",
    "save_gridfunction",
    "load_gridfunction",
]

# slack, in units of the grid spacing, when deciding whether a node lies
# inside a ball; absorbs roundoff from dyadic center/radius arithmetic
_INDEX_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over the box [-halfwidth, halfwidth]^dim."""

    dim: int
    halfwidth: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not (self.halfwidth > 0 and math.isfinite(self.halfwidth)):
            raise ValueError("halfwidth must be positive and finite")
        if self.points_per_axis < 16:
            raise ValueError("points_per_axis must be >= 16")

    def to_dict(self) -> dict:
        """The grid header written next to saved functions and reports."""
        return asdict(self)

    @classmethod
    def from_dict(cls, header: dict) -> "GridSpec":
        return cls(
            int(header["dim"]),
            float(header["halfwidth"]),
            int(header["points_per_axis"]),
        )

    @property
    def spacing(self) -> float:
        return 2.0 * self.halfwidth / (self.points_per_axis - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    def axis(self) -> np.ndarray:
        return np.linspace(-self.halfwidth, self.halfwidth, self.points_per_axis)

    def axis_weights(self) -> np.ndarray:
        """1d trapezoid weights: spacing inside, half at the box edges."""
        w = np.full(self.points_per_axis, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def weights(self) -> np.ndarray:
        """Product-trapezoid weights with the grid's shape."""
        return region_weights(self, (slice(None),) * self.dim)

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays, one per axis, each with the grid's shape."""
        return region_coords(self, (slice(None),) * self.dim)


@dataclass(frozen=True)
class GridFunction:
    """A real-valued function sampled on a GridSpec."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.spec.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid shape {self.spec.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, spec: GridSpec, fn) -> "GridFunction":
        return cls(spec, fn(*spec.meshes()))

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

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def measure(self) -> float:
        """Analytic measure (2r)^n."""
        return (2.0 * self.radius) ** self.dim

    def dilate(self, factor: float) -> "Ball":
        return Ball(tuple(factor * c for c in self.center), factor * self.radius)

    def translate(self, shift) -> "Ball":
        shift = np.atleast_1d(shift)
        return Ball(tuple(c + s for c, s in zip(self.center, shift)), self.radius)


def _ball_axis_slice(spec: GridSpec, center: float, radius: float) -> slice:
    step = spec.spacing
    lo = (center - radius + spec.halfwidth) / step
    hi = (center + radius + spec.halfwidth) / step
    i_lo = max(0, int(math.ceil(lo - _INDEX_TOL)))
    i_hi = min(spec.points_per_axis - 1, int(math.floor(hi + _INDEX_TOL)))
    return slice(i_lo, i_hi + 1)


def region_slices(spec: GridSpec, region) -> tuple[slice, ...]:
    """Per-axis index slices of the in-box part of a Ball; an index box as is."""
    if isinstance(region, tuple) and all(isinstance(s, slice) for s in region):
        return region
    if not isinstance(region, Ball):
        raise TypeError(f"unsupported region type {type(region).__name__}")
    if region.dim != spec.dim:
        raise ValueError("region dimension does not match grid")
    slices = tuple(_ball_axis_slice(spec, c, region.radius) for c in region.center)
    if any(s.stop <= s.start for s in slices):
        raise ValueError("empty region")
    return slices


def region_weights(spec: GridSpec, slices: tuple[slice, ...]) -> np.ndarray:
    w = spec.axis_weights()
    return functools.reduce(np.multiply.outer, [w[s] for s in slices])


def region_coords(spec: GridSpec, slices: tuple[slice, ...]) -> tuple[np.ndarray, ...]:
    """Node coordinates on a region's slices, one array per axis."""
    axes = [spec.axis()[s] for s in slices]
    return tuple(np.meshgrid(*axes, indexing="ij"))


def region_values(f: GridFunction, region=None) -> tuple[np.ndarray, np.ndarray]:
    """(values, quadrature weights) of f on a region, or on the box for None."""
    if region is None:
        return f.values, f.spec.weights()
    slices = region_slices(f.spec, region)
    return f.values[slices], region_weights(f.spec, slices)


def box_rows(f: GridFunction, starts: np.ndarray, shape: tuple[int, ...], batch_floats: int):
    """(members, values, weights) of f on index boxes of one shape, in batches.

    Box k starts at node starts[k].  A batch takes the boxes in `members` (a
    slice of the starts), as many as fit in batch_floats values (one at
    least), and holds one row per box in C order, so a row's reduction
    matches, bit for bit, np.sum over region_values of that box.  The rows
    are fresh arrays that the caller may overwrite.
    """
    size = math.prod(shape)
    batch = max(1, batch_floats // size)
    values = sliding_window_view(f.values, shape)
    weights = sliding_window_view(f.spec.weights(), shape)
    for lo in range(0, len(starts), batch):
        members = slice(lo, lo + batch)
        index = tuple(starts[members].T)
        yield members, values[index].reshape(-1, size), weights[index].reshape(-1, size)


def _row_stats(vals: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, mean oscillation, mean of |f|) of each row of region values and
    weights, with the quadrature measure; overwrites vals."""
    add = np.add.reduce
    wsum = add(w, axis=-1)
    mean = add(w * vals, axis=-1) / wsum
    # means of constants are exact by contract, not up to rounding
    vmax = np.maximum.reduce(vals, axis=-1)
    constant = np.minimum.reduce(vals, axis=-1) == vmax
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
    return mean, osc, abs_mean


def _one_row_stats(vals: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    """_row_stats of one region, run on a copy: the values of a 1d ball or of
    the whole box are a view of f.values, which _row_stats would overwrite."""
    stats = _row_stats(vals.reshape(1, -1).copy(), w.reshape(1, -1))
    return tuple(float(s) for (s,) in stats)


def shape_groups(shapes: np.ndarray):
    """(shape, member indices) for each distinct row of an (n, dim) shape array.

    Members are increasing, and the shapes come in lexicographic order.
    """
    kinds, inverse, counts = np.unique(
        shapes, axis=0, return_inverse=True, return_counts=True
    )
    order = np.argsort(inverse.ravel(), kind="stable")
    for shape, members in zip(kinds, np.split(order, np.cumsum(counts)[:-1])):
        yield tuple(int(h) for h in shape), members


def region_node_count(spec: GridSpec, region) -> int:
    slices = region_slices(spec, region)
    n = 1
    for s in slices:
        n *= s.stop - s.start
    return n


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
    """(integral of |f|^p)^(1/p); a quasi-norm for p < 1; sup norm for p = inf."""
    if p == math.inf:
        return sup_norm(f, region)
    if not p > 0:
        raise ValueError("p must be positive")
    vals, w = region_values(f, region)
    total = float(np.sum(w * np.abs(vals) ** p))
    return total ** (1.0 / p)


def sup_norm(f: GridFunction, region=None) -> float:
    vals, _ = region_values(f, region)
    return float(np.max(np.abs(vals)))


def unit_cubes(spec: GridSpec) -> dict[tuple[int, ...], tuple[slice, ...]]:
    """Index box of each unit lattice cube j + Q owning a node, in raster order."""
    # nodes are assigned to cubes by nearest-integer binning, which
    # partitions the box exactly (no node counted twice in the cube sum)
    js, starts = np.unique(np.floor(spec.axis() + 0.5), return_index=True)
    stops = [*starts[1:], spec.points_per_axis]
    axis = [(int(j), slice(int(a), int(b))) for j, a, b in zip(js, starts, stops)]
    return {
        tuple(j for j, _ in cube): tuple(s for _, s in cube)
        for cube in itertools.product(axis, repeat=spec.dim)
    }


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
