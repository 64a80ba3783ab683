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
    "maximal_scales",
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
    """Sampled, discretely renormalized dilated kernel (odd-sized, centered).

    Offsets are divided by t before they are squared, so no square overflows.
    At the power-of-two t of maximal_fn that division is exact: the radius is
    bitwise sqrt(|x|^2)/t wherever |x|^2 is a normal float, and |x/t| in 1d.
    """
    step = spec.spacing
    if t < 2.0 * step:
        raise ValueError("scale below resolution")
    k_max = int(math.ceil(t / step)) - 1
    offsets = np.arange(-k_max, k_max + 1) * step
    mesh = np.meshgrid(*[offsets] * spec.dim, indexing="ij")
    vals = bump_profile(np.sqrt(sum((x / t) ** 2 for x in mesh)))
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


def maximal_scales(spec: GridSpec, local: bool) -> list[float]:
    """The dyadic t in [2*spacing, 2R], t < 1 if local; ValueError when none."""
    return dyadic_scales(2.0 * spec.spacing, 0.5 if local else 2.0 * spec.halfwidth)


def maximal_fn(f: GridFunction, local: bool = False) -> GridFunction:
    """Pointwise sup of |f * phi_t| over the scales of maximal_scales."""
    out = np.zeros(f.spec.shape)
    for t in maximal_scales(f.spec, local):
        np.maximum(out, np.abs(convolve_dilated(f, t).values), out=out)
    return f.with_values(out)
