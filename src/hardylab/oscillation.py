"""Ball oscillations and the BMO / bmo / lmo norms with their checks.

Suprema over "all balls" are taken over a finite dyadic family: dyadic radii
in [4*spacing, 2R], centers on a sub-lattice of stride max(spacing, r/8).
The family density is the accuracy knob and is reported with every norm.
The family depends only on the grid, so it is built once per grid.

The family is held as arrays: one row of center coordinates and radius per
ball, and its shape groups, built with it: the balls whose clipped index
windows share a shape, with the start of each window.  A statistics pass only
reads them: it gathers each group's windows in small batches and reduces them
row by row by `grid._row_stats`, the one rule for a ball's mean, oscillation
and |f|-mean; `mean_oscillation` and `jn_check` read a one-row call of it.
The bit-for-bit oracle of the batched pass is a one-ball loop in the test
suite (`tests/scalar_oracles.py`).
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
    _ball_axis_slice,
    _one_row_stats,
    _row_stats,
    box_rows,
    dyadic_scales,
    region_node_count,
    region_values,
    shape_groups,
)

__all__ = [
    "BallFamily",
    "mean_oscillation",
    "bmo_local_norm",
    "lmo_norm",
    "jn_check",
    "multiplier_check",
    "NormReport",
]

_MEASURE_TOL = 1e-9

# values per batch of same-shape windows; a batch's temporaries stay in the
# tens of kilobytes, so the statistics pass adds little to the peak memory
_BATCH_FLOATS = 8192


@dataclass(frozen=True)
class NormReport:
    norm: float
    family_size: int
    argmax_ball: Ball | None


@dataclass(frozen=True, eq=False)
class BallFamily:
    """Dyadic-radius ball family split by analytic measure below/above 1.

    balls: (n, dim + 1) rows of center coordinates, then radius.  The radii
    increase, and the centers of one radius run in raster order (last axis
    fastest).  groups: (family indices, window starts, window shape) of each
    set of balls whose clipped index windows share a shape, the shapes in
    lexicographic order and the indices increasing.
    """

    balls: np.ndarray
    groups: tuple[tuple[np.ndarray, np.ndarray, tuple[int, ...]], ...]

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
            slices = [_ball_axis_slice(spec, c, r) for c in centers.tolist()]
            axis = np.array([(s.start, s.stop - s.start) for s in slices], dtype=np.int32)
            # one row per ball, in raster order: the index of its center on each axis
            grid = np.meshgrid(*[np.arange(len(centers))] * spec.dim, indexing="ij")
            index = np.stack([g.ravel() for g in grid], axis=-1)
            balls.append(np.column_stack([centers[index], np.full(len(index), r)]))
            starts.append(axis[index, 0])
            shapes.append(axis[index, 1])
        starts = np.concatenate(starts)
        groups = tuple(
            (members.astype(np.int32), starts[members], shape)
            for shape, members in shape_groups(np.concatenate(shapes))
        )
        return cls(np.concatenate(balls), groups)

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


def _family_stats(b: GridFunction, family: BallFamily) -> np.ndarray:
    """One (mean, oscillation, |f|-mean) row per ball, in family order."""
    stats = np.empty((len(family.balls), 3))
    for index, starts, shape in family.groups:
        for members, vals, w in box_rows(b, starts, shape, _BATCH_FLOATS):
            rows = index[members]
            for column, values in enumerate(_row_stats(vals, w)):
                stats[rows, column] = values
    return stats


def _sup(values: np.ndarray, mask: np.ndarray) -> float:
    """Largest of the masked values, 0 when the mask selects none."""
    return float(np.max(values[mask], initial=0.0))


def mean_oscillation(b: GridFunction, ball: Ball) -> float:
    """(1/|B|) integral over B of |b - b_B|, with the quadrature measure."""
    if region_node_count(b.spec, ball) < 2:
        raise ValueError("under-resolved ball")
    return _one_row_stats(*region_values(b, ball))[1]


def bmo_report(b: GridFunction) -> NormReport:
    """Sup of the mean oscillation over the full ball family."""
    family = BallFamily.build(b.spec)
    osc = _family_stats(b, family)[:, 1]
    i = int(np.argmax(osc))  # the first maximum
    arg = family.ball(i) if osc[i] > 0 else None
    return NormReport(float(osc[i]), len(family.balls), arg)


def bmo_local_norm(b: GridFunction) -> float:
    """Oscillation sup over small balls plus |b|-mean sup over large balls."""
    family = BallFamily.build(b.spec)
    stats = _family_stats(b, family)
    small, large = family.halves()
    return _sup(stats[:, 1], small) + _sup(stats[:, 2], large)


def lmo_norm(b: GridFunction) -> float:
    """Log-weighted small-ball oscillation sup plus large-ball |b|-mean sup."""
    family = BallFamily.build(b.spec)
    stats = _family_stats(b, family)
    small, large = family.halves()
    # the weight log(e + 1/|B|), once per radius
    radii, per_ball = np.unique(family.balls[:, -1], return_inverse=True)
    weight = [math.log(math.e + 1.0 / (2.0 * r) ** family.dim) for r in radii.tolist()]
    return _sup(np.array(weight)[per_ball] * stats[:, 1], small) + _sup(stats[:, 2], large)


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


def multiplier_check(phi_fn: GridFunction, b: GridFunction) -> dict:
    """Discrete multiplier constant for pointwise multiplication on bmo.

    Returns the ratio ||b*phi||_bmo / (||b||_bmo * (||phi||_inf + ||phi||_lmo)),
    together with the pieces, as a report dictionary.
    """
    phi_fn.require_same_spec(b)
    b_norm = bmo_local_norm(b)
    phi_sup = float(np.max(np.abs(phi_fn.values)))
    phi_lmo = lmo_norm(phi_fn)
    denom = b_norm * (phi_sup + phi_lmo)
    if denom == 0:
        raise ValueError("degenerate inputs")
    product = b.with_values(b.values * phi_fn.values)
    num = bmo_local_norm(product)
    return {
        "ratio": num / denom,
        "product_bmo_local": num,
        "b_bmo_local": b_norm,
        "phi_sup": phi_sup,
        "phi_lmo": phi_lmo,
        "family_size": len(BallFamily.build(b.spec).balls),
    }
