"""Scalar oracles for the batched library code.

The library computes each Luxembourg norm with the lockstep bisection
`orlicz._luxembourg_rows` and each ball statistic with `grid._row_stats`; a
single region is a one-row call of them.  The routines here handle one region
at a time, in Python floats where they can, so that the tests compare the
batched rows with an independent scalar path under `==`, not with themselves.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from hardylab.grid import Ball, GridFunction, region_values
from hardylab.orlicz import _REL_TOL, OrliczFunction, _bracket


def luxembourg_bisection(f: GridFunction, P: OrliczFunction, region=None) -> float:
    """inf{k > 0 : integral_region P(|f|/k) <= 1}: _bracket, then bisection on
    log k in Python floats, one gauge evaluation per step."""
    v, w = region_values(f, region)
    v = np.abs(v)
    vmax = float(v.max(initial=0.0))
    if vmax == 0.0:
        return 0.0

    def gauge(k: float) -> float:
        return float(np.sum(w * P(v / k)))

    k_lo, k_hi = _bracket(gauge, vmax)
    while k_hi - k_lo > _REL_TOL * k_hi:
        prod = k_lo * k_hi
        if sys.float_info.min <= prod < math.inf:
            k_mid = math.sqrt(prod)
        else:  # the product under- or overflows: split the root
            k_mid = math.sqrt(k_lo) * math.sqrt(k_hi)
        if not k_lo < k_mid < k_hi:
            break  # no float left between the bracket ends
        if gauge(k_mid) <= 1.0:
            k_hi = k_mid
        else:
            k_lo = k_mid
    return k_hi


def ball_stats(f: GridFunction, ball: Ball) -> tuple[float, float, float]:
    """(mean of f, mean oscillation of f, mean of |f|) on the ball, with the
    quadrature measure; the mean of a constant is that constant, exactly."""
    vals, w = region_values(f, ball)
    wsum = float(np.sum(w))
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    mean = vmax if vmin == vmax else float(np.sum(w * vals) / wsum)
    dev = np.abs(vals - mean)
    osc = float(np.sum(w * dev) / wsum)
    if osc == 0.0 and not dev.any():  # f is constant (osc alone can underflow)
        return mean, 0.0, abs(mean)
    return mean, osc, float(np.sum(w * np.abs(vals)) / wsum)
