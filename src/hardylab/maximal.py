"""Smooth maximal operators over the dyadic dilation scales of the grid.

The kernel is the standard radial bump supported in the unit ball.  At each
scale the sampled kernel is renormalized so that its discrete mass is exactly
one, which makes constants fixed points of the convolution and keeps the
maximal function free of spurious inflation at coarse scales.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridFunction, GridSpec, dyadic_scales

__all__ = [
    "convolve_dilated",
    "maximal_fn",
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
    padded = np.pad(f.values, kern.shape[0] // 2)
    out = np.zeros(f.spec.shape)
    # the kernel is symmetric, so this correlation is the convolution
    for tap in zip(*np.nonzero(kern)):
        window = tuple(slice(k, k + n) for k, n in zip(tap, f.spec.shape))
        out += kern[tap] * padded[window]
    return f.with_values(out)


def maximal_fn(f: GridFunction, local: bool = False) -> GridFunction:
    """Pointwise sup of |f * phi_t| over dyadic t in [2*spacing, 2R]; t < 1 if local."""
    t_max = 0.5 if local else 2.0 * f.spec.halfwidth
    out = np.zeros(f.spec.shape)
    for t in dyadic_scales(2.0 * f.spec.spacing, t_max):
        np.maximum(out, np.abs(convolve_dilated(f, t).values), out=out)
    return f.with_values(out)
