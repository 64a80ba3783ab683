"""Ball oscillations and the BMO / bmo / lmo norms with their checks.

Suprema over "all balls" are taken over a finite dyadic family: dyadic radii
in [4*spacing, 2R], centers on a sub-lattice of stride max(spacing, r/8).
The family density is the accuracy knob and is reported with every norm.
The family depends only on the grid, so it is built once per grid.

The family is held as arrays in family order: one row of center coordinates
and radius per ball, and, built with it, the start and shape of every ball's
clipped index window.  An evaluation gathers the windows of the balls it
wants with `grid.box_rows`, in small batches of one window shape, with their
weights cut from the grid's `GridSpec.weights` (built once per grid), and
reduces them row by row by `grid._row_stats`, the one rule for a ball's mean,
oscillation and |f|-mean; `mean_oscillation` and `jn_check` read a one-row
call of it.

Each family norm is a sup of one statistic over one half of the family, and
is found by an exact bound-and-prune; a sup over an empty half is 0 and
builds nothing.  Summed-area tables give every ball of the half an upper
bound of its statistic in O(1), read in runs of the family order: the
mean oscillation is at most s times the weighted standard deviation of
d = (b - c) / s (Cauchy-Schwarz), with c the midrange of b and s its
half-range, and the |b|-mean is bounded by its box-sum estimate.  The margin
of a bound covers the rounding of the tables (proportional to m eps times the
grid's weight over the window weight) and of `_row_stats` on the window
(n eps max|b| for n nodes); the oracle test of the pruned sups fails once the
margins shrink about 300-fold.  The balls of the largest bounds are evaluated
first, then every ball whose bound is >= the best value so far, so every ball
that attains the sup is evaluated: the sup is the same float, and `bmo_report`
the same first maximum, as a pass over every ball.  That full pass and the
one-ball loop are the `==` oracles of the test suite (`tests/scalar_oracles.py`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Ball,
    GridFunction,
    GridSpec,
    _ball_axis_windows,
    _one_row_stats,
    _raster_rows,
    _row_stats,
    box_rows,
    dyadic_scales,
    region_values,
)

__all__ = [
    "BallFamily",
    "mean_oscillation",
    "bmo_local_norm",
    "lmo_norm",
    "jn_check",
    "NormReport",
]

_MEASURE_TOL = 1e-9

# values per batch of same-shape windows; a batch's temporaries stay in the
# tens of kilobytes, so the statistics pass adds little to the peak memory
_BATCH_FLOATS = 8192

# the balls of the largest bounds that a pruned sup evaluates first
_SEEDS = 64

# balls per run of the bound pass; its temporaries stay near 100 KB
_RUN = 1024

_EPS = float(np.finfo(float).eps)
_TINY = math.ulp(0.0)  # an underflow rounds by less than this


@dataclass(frozen=True)
class NormReport:
    norm: float
    family_size: int
    balls_evaluated: int
    argmax_ball: Ball | None


@dataclass(frozen=True, eq=False)
class BallFamily:
    """Dyadic-radius ball family split by analytic measure below/above 1.

    balls: (n, dim + 1) rows of center coordinates, then radius.  The radii
    increase, and the centers of one radius run in raster order (last axis
    fastest).  starts, shapes: (n, dim) rows of the first node and the node
    count per axis of each ball's clipped index window, in the same order.
    """

    balls: np.ndarray
    starts: np.ndarray
    shapes: np.ndarray

    def __post_init__(self):
        if not len(self.balls):
            raise ValueError("ball family must be nonempty")

    # a lab run uses one grid; the size of 1 bounds memory for grid sweeps
    @classmethod
    @functools.lru_cache(maxsize=1)
    def build(cls, spec: GridSpec) -> "BallFamily":
        # every center is a node and r >= 4 * spacing, so each ball covers
        # at least 5 nodes per axis and none is under-resolved
        step = spec.spacing
        balls, starts, shapes = [], [], []
        for r in dyadic_scales(4.0 * step, 2.0 * spec.halfwidth):
            stride_steps = max(1, int(round((r / 8.0) / step)))
            centers = np.arange(0, spec.points_per_axis, stride_steps) * step - spec.halfwidth
            first, stop = _ball_axis_windows(spec, centers, r)
            axis = np.column_stack([first, stop - first]).astype(np.int32)
            # one row per ball, in raster order: the index of its center on each axis
            index = _raster_rows(len(centers), spec.dim)
            balls.append(np.column_stack([centers[index], np.full(len(index), r)]))
            starts.append(axis[index, 0])
            shapes.append(axis[index, 1])
        return cls(np.concatenate(balls), np.concatenate(starts), np.concatenate(shapes))

    @property
    def dim(self) -> int:
        return self.balls.shape[1] - 1

    def ball(self, i: int) -> Ball:
        *center, radius = self.balls[i].tolist()
        return Ball(tuple(center), radius)

    def halves(self) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the small (|B| <= 1) and large (|B| >= 1) balls; |B| = 1 is in both."""
        measure = (2.0 * self.balls[:, -1]) ** self.dim
        return measure <= 1.0 + _MEASURE_TOL, measure >= 1.0 - _MEASURE_TOL


def _bounds(b: GridFunction, family: BallFamily, column: int, mask: np.ndarray) -> np.ndarray:
    """Upper bound, per ball in family order, of the `column` statistic that
    `_row_stats` computes on the ball's window: the mean oscillation (1) or the
    |b|-mean (2); 0 outside the mask.  The tables are built from the grid's
    weights w.  The masked balls are read in runs of _RUN, in family order.

    The bounds come from box sums of summed-area tables.  The oscillation is
    at most s times the standard deviation of d = (b - c) / s (Cauchy-Schwarz),
    from tables of w, w d and w d^2, with c the midrange of b and s its
    half-range: centring keeps the variance from cancelling, and scaling keeps
    d^2 from overflowing.  The |b|-mean bound is its estimate from tables of w
    and w |b| / max|b|.  The margins cover the rounding of the tables (rho,
    the error of a box sum over the window weight) and of `_row_stats` on a
    window of n nodes (slack: n roundings of max|b| and n underflows).
    """
    bound = np.zeros(len(family.balls))
    masked = np.flatnonzero(mask)
    lo, hi = float(np.min(b.values)), float(np.max(b.values))
    amax = max(-lo, hi)
    if lo == hi:  # every window is flat: oscillation 0 and |b|-mean |b|, exactly
        bound[masked] = 0.0 if column == 1 else amax
        return bound
    spec, w = b.spec, b.spec.weights()
    if column == 1:
        c = 0.5 * lo + 0.5 * hi
        s = max(hi - c, c - lo)
        d = (b.values - c) / s
        terms = [w, w * d, w * d * d]
    else:
        terms = [w, w * (np.abs(b.values) / amax)]
    tables = np.zeros((len(terms),) + tuple(m + 1 for m in spec.shape))
    tables[(slice(None),) + (slice(1, None),) * spec.dim] = terms
    del terms  # the tables hold them now; this keeps the peak memory down
    for axis in range(1, spec.dim + 1):
        np.cumsum(tables, axis=axis, out=tables)
    # the error of a box sum: each of its 2^dim table entries sums, over m nodes
    # per axis, terms of total at most the grid's weight, and each term may
    # underflow once
    total = float(tables[(0,) + (-1,) * spec.dim])
    m, n_corners = spec.points_per_axis, 2**spec.dim
    error = n_corners * ((spec.dim * m + n_corners) * _EPS * total + m**spec.dim * _TINY)
    # box sums by inclusion-exclusion over the window corners, at flat indices
    flat = tables.reshape(len(tables), -1)
    strides = np.array(tables.strides[1:])[:, None] // tables.itemsize
    corners = [(corner, (-1.0) ** (spec.dim - sum(corner)))
               for corner in np.ndindex((2,) * spec.dim)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for first in range(0, len(masked), _RUN):
            run = masked[first : first + _RUN]
            # one row per axis; `take` gathers rows several times faster than
            # fancy indexing does
            shapes = family.shapes.take(run, axis=0).T
            origin = sum(family.starts.take(run, axis=0).T * strides)
            extent = shapes * strides
            wsum, *sums = sum(
                sign * flat.take(origin + sum(e for e, c in zip(extent, corner) if c), axis=1)
                for corner, sign in corners
            )
            rho = np.where(wsum > error, error / (wsum - error), np.inf)
            slack = 8.0 * math.prod(shapes) * (_EPS * amax + _TINY / wsum)
            if column == 1:
                d_mean = sums[0] / wsum
                var = np.maximum(sums[1] / wsum - d_mean * d_mean, 0.0)
                bound[run] = s * np.sqrt(var + 16.0 * rho) + slack
            else:
                bound[run] = amax * (sums[0] / wsum + 4.0 * rho) + slack
    return bound


def _evaluate(b: GridFunction, family: BallFamily, column: int, balls: np.ndarray) -> np.ndarray:
    """The `column` statistic of `_row_stats` of the given balls (family
    indices): their windows only, gathered by `box_rows` in batches of one
    shape."""
    values = np.empty(len(balls))
    starts, shapes = family.starts.take(balls, axis=0), family.shapes.take(balls, axis=0)
    for members, vals, w in box_rows(b, starts, shapes, _BATCH_FLOATS):
        values[members] = _row_stats(vals, w)[column]
    return values


def _candidates(
    b: GridFunction,
    family: BallFamily,
    column: int,
    mask: np.ndarray,
    weight: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(balls, values) of every masked ball that can attain the sup of the
    `column` statistic of `_row_stats`, times weight, over the mask.

    The masked balls of the largest bounds are evaluated first; then every
    other masked ball whose bound is >= the best value so far, so every ball
    that attains the sup is evaluated, ties included.  A non-finite bound is
    always evaluated, and a bound of 0 never is: the value under it is 0.
    """

    def evaluate(balls):
        values = _evaluate(b, family, column, balls)
        return values if weight is None else weight[balls] * values

    bound = _bounds(b, family, column, mask)
    if weight is not None:
        bound *= weight  # rounds up from weight * value, which is below it
    bound[np.isnan(bound)] = np.inf
    top = min(_SEEDS, len(bound))
    seeds = np.argpartition(bound, -top)[-top:]
    seeds = np.sort(seeds[bound[seeds] > 0.0])
    values = evaluate(seeds)
    bound[seeds] = 0.0
    # bound >= _TINY is bound > 0, for when the seeds' values are all 0
    rest = np.flatnonzero(bound >= max(values.max(initial=0.0), _TINY))
    return np.concatenate([seeds, rest]), np.concatenate([values, evaluate(rest)])


def _sup(
    b: GridFunction,
    family: BallFamily,
    column: int,
    mask: np.ndarray,
    weight: np.ndarray | None = None,
) -> float:
    """The sup over the mask of the `column` statistic times weight, 0 over no
    ball."""
    if not mask.any():
        return 0.0
    return float(np.max(_candidates(b, family, column, mask, weight)[1], initial=0.0))


def mean_oscillation(b: GridFunction, ball: Ball) -> float:
    """(1/|B|) integral over B of |b - b_B|, with the quadrature measure."""
    vals, w = region_values(b, ball)
    if vals.size < 2:
        raise ValueError("under-resolved ball")
    return _one_row_stats(vals, w)[1]


def bmo_report(b: GridFunction) -> NormReport:
    """Sup of the mean oscillation over the full ball family."""
    family = BallFamily.build(b.spec)
    balls, osc = _candidates(b, family, 1, np.ones(len(family.balls), dtype=bool))
    norm = float(np.max(osc, initial=0.0))
    if not norm > 0:
        return NormReport(0.0, len(family.balls), len(balls), None)
    first = int(np.min(balls[osc == norm]))  # the first maximum in family order
    return NormReport(norm, len(family.balls), len(balls), family.ball(first))


def bmo_local_norm(b: GridFunction) -> float:
    """Oscillation sup over small balls plus |b|-mean sup over large balls."""
    family = BallFamily.build(b.spec)
    small, large = family.halves()
    return _sup(b, family, 1, small) + _sup(b, family, 2, large)


def lmo_norm(b: GridFunction) -> float:
    """Log-weighted small-ball oscillation sup plus large-ball |b|-mean sup."""
    family = BallFamily.build(b.spec)
    small, large = family.halves()
    # the weight log(e + 1/|B|), once per radius
    radii, per_ball = np.unique(family.balls[:, -1], return_inverse=True)
    weight = [math.log(math.e + 1.0 / (2.0 * r) ** family.dim) for r in radii.tolist()]
    return _sup(b, family, 1, small, np.array(weight)[per_ball]) + _sup(b, family, 2, large)


def jn_check(
    b: GridFunction,
    ball: Ball,
    c: float,
    bmo_local: float | None = None,
) -> float:
    """Integral over B of exp(|b - b_B| / (c * ||b||_bmo)) for |B| = 1.

    The caller inspects whether the value is <= 2 (the exponential-class
    statement); this routine only evaluates the integral.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    if abs(ball.measure - 1.0) > 1e-6:
        raise ValueError("ball must have unit measure")
    if bmo_local is None:
        bmo_local = bmo_local_norm(b)
    if bmo_local <= 0:
        raise ValueError("bmo-local norm must be positive")
    vals, w = region_values(b, ball)
    mean = _one_row_stats(vals, w)[0]
    return float(np.sum(w * np.exp(np.abs(vals - mean) / (c * bmo_local))))
