"""Ball oscillations and the BMO / bmo / lmo norms with their checks.

Suprema over "all balls" are taken over a finite dyadic family: dyadic radii
in [4*spacing, 2R], centers on a sub-lattice of stride max(spacing, r/8).
The family density is the accuracy knob and is reported with every norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Ball,
    GridFunction,
    GridSpec,
    region_node_count,
    region_values,
)

__all__ = [
    "BallFamily",
    "mean_oscillation",
    "bmo_norm",
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

    def to_dict(self) -> dict:
        ball = None
        if self.argmax_ball is not None:
            ball = {
                "center": list(self.argmax_ball.center),
                "radius": self.argmax_ball.radius,
            }
        return {
            "norm": self.norm,
            "family_size": self.family_size,
            "argmax_ball": ball,
        }


@dataclass(frozen=True)
class BallFamily:
    """Dyadic-radius ball family split by analytic measure below/above 1."""

    balls: tuple[Ball, ...]

    def __post_init__(self):
        if not self.balls:
            raise ValueError("ball family must be nonempty")

    @classmethod
    def build(cls, spec: GridSpec) -> "BallFamily":
        step = spec.spacing
        j_lo = int(math.ceil(math.log2(4.0 * step) - 1e-12))
        j_hi = int(math.floor(math.log2(2.0 * spec.halfwidth) + 1e-12))
        balls: list[Ball] = []
        for j in range(j_lo, j_hi + 1):
            r = 2.0**j
            stride_steps = max(1, int(round((r / 8.0) / step)))
            centers = np.arange(0, spec.points_per_axis, stride_steps) * step - spec.halfwidth
            if spec.dim == 1:
                candidates = [(c,) for c in centers]
            else:
                candidates = [(c1, c2) for c1 in centers for c2 in centers]
            for center in candidates:
                ball = Ball(center, r)
                try:
                    if region_node_count(spec, ball) >= 2:
                        balls.append(ball)
                except ValueError:
                    continue
        return cls(tuple(balls))

    def small(self) -> list[Ball]:
        return [b for b in self.balls if b.measure <= 1.0 + _MEASURE_TOL]

    def large(self) -> list[Ball]:
        return [b for b in self.balls if b.measure >= 1.0 - _MEASURE_TOL]


def _ball_stats(f: GridFunction, ball: Ball) -> tuple[float, float, float]:
    """(mean of f, mean oscillation of f, mean of |f|) on the ball."""
    vals, w = region_values(f, ball)
    wsum = float(np.sum(w))
    if float(np.min(vals)) == float(np.max(vals)):
        v = float(vals.flat[0])
        return v, 0.0, abs(v)
    mean = float(np.sum(w * vals) / wsum)
    osc = float(np.sum(w * np.abs(vals - mean)) / wsum)
    abs_mean = float(np.sum(w * np.abs(vals)) / wsum)
    return mean, osc, abs_mean


def mean_oscillation(b: GridFunction, ball: Ball) -> float:
    """(1/|B|) integral over B of |b - b_B|, with the quadrature measure."""
    if region_node_count(b.spec, ball) < 2:
        raise ValueError("under-resolved ball")
    return _ball_stats(b, ball)[1]


def _default_family(b: GridFunction, family: BallFamily | None) -> BallFamily:
    return family if family is not None else BallFamily.build(b.spec)


def bmo_norm(b: GridFunction, family: BallFamily | None = None) -> float:
    return bmo_report(b, family).norm


def bmo_report(b: GridFunction, family: BallFamily | None = None) -> NormReport:
    """Sup of the mean oscillation over the full ball family."""
    family = _default_family(b, family)
    best, arg = 0.0, None
    for ball in family.balls:
        osc = _ball_stats(b, ball)[1]
        if osc > best:
            best, arg = osc, ball
    return NormReport(best, len(family.balls), arg)


def bmo_local_norm(b: GridFunction, family: BallFamily | None = None) -> float:
    """Oscillation sup over small balls plus |b|-mean sup over large balls."""
    family = _default_family(b, family)
    osc_sup = max((_ball_stats(b, ball)[1] for ball in family.small()), default=0.0)
    mean_sup = max((_ball_stats(b, ball)[2] for ball in family.large()), default=0.0)
    return osc_sup + mean_sup


def lmo_norm(b: GridFunction, family: BallFamily | None = None) -> float:
    """Log-weighted small-ball oscillation sup plus large-ball |b|-mean sup."""
    family = _default_family(b, family)
    osc_sup = 0.0
    for ball in family.small():
        weight = math.log(math.e + 1.0 / ball.measure)
        osc_sup = max(osc_sup, weight * _ball_stats(b, ball)[1])
    mean_sup = max((_ball_stats(b, ball)[2] for ball in family.large()), default=0.0)
    return osc_sup + mean_sup


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
    mean = float(np.sum(w * vals) / np.sum(w))
    return float(np.sum(w * np.exp(np.abs(vals - mean) / (c * bmo_local))))


def multiplier_check(phi_fn: GridFunction, b: GridFunction) -> dict:
    """Discrete multiplier constant for pointwise multiplication on bmo.

    Returns the ratio ||b*phi||_bmo / (||b||_bmo * (||phi||_inf + ||phi||_lmo)),
    together with the pieces, as a report dictionary.
    """
    phi_fn.require_same_spec(b)
    family = BallFamily.build(b.spec)
    b_norm = bmo_local_norm(b, family)
    phi_sup = float(np.max(np.abs(phi_fn.values)))
    phi_lmo = lmo_norm(phi_fn, family)
    denom = b_norm * (phi_sup + phi_lmo)
    if denom == 0:
        raise ValueError("degenerate inputs")
    product = b.with_values(b.values * phi_fn.values)
    num = bmo_local_norm(product, family)
    return {
        "ratio": num / denom,
        "product_bmo_local": num,
        "b_bmo_local": b_norm,
        "phi_sup": phi_sup,
        "phi_lmo": phi_lmo,
        "family_size": len(family.balls),
    }
