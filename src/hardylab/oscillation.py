"""Ball oscillations and the BMO / bmo / lmo norms with their checks.

Suprema over "all balls" are taken over a finite dyadic family: dyadic radii
in [4*spacing, 2R], centers on a sub-lattice of stride max(spacing, r/8).
The family density is the accuracy knob and is reported with every norm.
The family depends only on the grid, so it is built once per grid.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Ball,
    GridFunction,
    GridSpec,
    _quadrature_mean,
    dyadic_scales,
    region_node_count,
    region_values,
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


@dataclass(frozen=True)
class NormReport:
    norm: float
    family_size: int
    argmax_ball: Ball | None


@dataclass(frozen=True)
class BallFamily:
    """Dyadic-radius ball family split by analytic measure below/above 1."""

    balls: tuple[Ball, ...]

    def __post_init__(self):
        if not self.balls:
            raise ValueError("ball family must be nonempty")

    # a lab run uses one grid; the size of 1 bounds memory for grid sweeps
    @classmethod
    @functools.lru_cache(maxsize=1)
    def build(cls, spec: GridSpec) -> "BallFamily":
        # every center is a node and r >= 4 * spacing, so each ball covers
        # at least 5 nodes per axis and none is under-resolved
        step = spec.spacing
        balls: list[Ball] = []
        for r in dyadic_scales(4.0 * step, 2.0 * spec.halfwidth):
            stride_steps = max(1, int(round((r / 8.0) / step)))
            centers = np.arange(0, spec.points_per_axis, stride_steps) * step - spec.halfwidth
            balls.extend(Ball(c, r) for c in itertools.product(centers, repeat=spec.dim))
        return cls(tuple(balls))

    def halves(self) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the small (|B| <= 1) and large (|B| >= 1) balls; |B| = 1 is in both."""
        measure = np.array([ball.measure for ball in self.balls])
        return measure <= 1.0 + _MEASURE_TOL, measure >= 1.0 - _MEASURE_TOL


def _ball_stats(f: GridFunction, ball: Ball) -> tuple[float, float, float]:
    """(mean of f, mean oscillation of f, mean of |f|) on the ball."""
    vals, w = region_values(f, ball)
    wsum = float(np.sum(w))
    mean = _quadrature_mean(vals, w, wsum)
    dev = np.abs(vals - mean)
    osc = float(np.sum(w * dev) / wsum)
    if osc == 0.0 and not dev.any():  # f is constant (osc alone can underflow)
        return mean, 0.0, abs(mean)
    return mean, osc, float(np.sum(w * np.abs(vals)) / wsum)


def _family_stats(b: GridFunction, family: BallFamily) -> np.ndarray:
    """One _ball_stats row per ball of the family, in family order."""
    rows = (_ball_stats(b, ball) for ball in family.balls)
    return np.fromiter(rows, np.dtype((float, 3)), len(family.balls))


def _sup(values: np.ndarray, mask: np.ndarray) -> float:
    """Largest of the masked values, 0 when the mask selects none."""
    return float(np.max(values[mask], initial=0.0))


def mean_oscillation(b: GridFunction, ball: Ball) -> float:
    """(1/|B|) integral over B of |b - b_B|, with the quadrature measure."""
    if region_node_count(b.spec, ball) < 2:
        raise ValueError("under-resolved ball")
    return _ball_stats(b, ball)[1]


def bmo_report(b: GridFunction) -> NormReport:
    """Sup of the mean oscillation over the full ball family."""
    family = BallFamily.build(b.spec)
    osc = _family_stats(b, family)[:, 1]
    i = int(np.argmax(osc))  # the first maximum
    arg = family.balls[i] if osc[i] > 0 else None
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
    weight = np.array([math.log(math.e + 1.0 / ball.measure) for ball in family.balls])
    return _sup(weight * stats[:, 1], small) + _sup(stats[:, 2], large)


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
    mean = _quadrature_mean(vals, w, np.sum(w))
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
