"""Smooth maximal operators over a dyadic ladder of dilation scales.

The kernel is the standard radial bump supported in the unit ball.  At each
scale the sampled kernel is renormalized so that its discrete mass is exactly
one, which makes constants fixed points of the convolution and keeps the
maximal function free of spurious inflation at coarse scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import convolve

from .grid import GridFunction, GridSpec

__all__ = [
    "ScaleLadder",
    "convolve_dilated",
    "maximal_fn",
    "truncated_maximal_fn",
]


def bump_profile(s: np.ndarray) -> np.ndarray:
    """exp(-1/(1-s^2)) for |s| < 1, zero otherwise (unnormalized)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def _kernel(spec: GridSpec, t: float) -> np.ndarray:
    """Sampled, discretely renormalized dilated kernel (odd-sized, centered)."""
    step = spec.spacing
    if t < 2.0 * step:
        raise ValueError("scale below resolution")
    k_max = int(math.ceil(t / step)) - 1
    offsets = np.arange(-k_max, k_max + 1) * step
    if spec.dim == 1:
        vals = bump_profile(offsets / t)
    else:
        xx, yy = np.meshgrid(offsets, offsets, indexing="ij")
        vals = bump_profile(np.sqrt(xx**2 + yy**2) / t)
    total = vals.sum()
    if total <= 0:
        raise ValueError("scale below resolution")
    return vals / total


def convolve_dilated(f: GridFunction, t: float) -> GridFunction:
    """Discrete convolution with the dilated bump; f is zero outside the box."""
    kern = _kernel(f.spec, t)
    # scipy keeps the "same" output aligned with the first argument even
    # when the dilated kernel is wider than the sampled function
    out = convolve(f.values, kern, mode="same", method="direct")
    return f.with_values(out)


def _is_dyadic(t: float) -> bool:
    if t <= 0:
        return False
    e = math.log2(t)
    return abs(e - round(e)) < 1e-12


@dataclass(frozen=True)
class ScaleLadder:
    """Finite decreasing list of dyadic dilation scales."""

    scales: tuple[float, ...]

    def __post_init__(self):
        scales = tuple(float(t) for t in self.scales)
        if not scales:
            raise ValueError("ladder must be nonempty")
        if any(not _is_dyadic(t) for t in scales):
            raise ValueError("scales must be dyadic")
        if list(scales) != sorted(scales, reverse=True):
            raise ValueError("scales must be strictly decreasing")
        object.__setattr__(self, "scales", scales)

    @classmethod
    def default(cls, spec: GridSpec, truncated: bool = False) -> "ScaleLadder":
        """All dyadic t in [2*spacing, 2R], or in [2*spacing, 1) if truncated."""
        t_min = 2.0 * spec.spacing
        t_max = 0.5 if truncated else 2.0 * spec.halfwidth
        j_lo = int(math.ceil(math.log2(t_min) - 1e-12))
        j_hi = int(math.floor(math.log2(t_max) + 1e-12))
        if j_hi < j_lo:
            raise ValueError("grid too coarse for any admissible scale")
        return cls(tuple(2.0**j for j in range(j_hi, j_lo - 1, -1)))

    @property
    def is_truncated(self) -> bool:
        return all(0.0 < t < 1.0 for t in self.scales)


def maximal_fn(f: GridFunction, ladder: ScaleLadder | None = None) -> GridFunction:
    """Pointwise sup over the ladder of |f * phi_t|."""
    if ladder is None:
        ladder = ScaleLadder.default(f.spec)
    out = np.zeros(f.spec.shape)
    for t in ladder.scales:
        np.maximum(out, np.abs(convolve_dilated(f, t).values), out=out)
    return f.with_values(out)


def truncated_maximal_fn(
    f: GridFunction, ladder: ScaleLadder | None = None
) -> GridFunction:
    """Maximal function restricted to scales below 1."""
    if ladder is None:
        ladder = ScaleLadder.default(f.spec, truncated=True)
    if not ladder.is_truncated:
        raise ValueError("ladder not truncated")
    return maximal_fn(f, ladder)
