"""Smooth maximal operators over the dyadic dilation scales of the grid.

The kernel is the standard radial bump supported in the unit ball.  At each
scale the sampled kernel is renormalized so that its discrete mass is exactly
one, which makes constants fixed points of the convolution and keeps the
maximal function free of spurious inflation at coarse scales.

The local ladder is convolved as a sum over the kernel's nonzero taps
(`convolve_dilated`).  The full ladder, whose widest kernel is twice as wide
as the box, goes through one forward `numpy.fft` transform of f per call.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .grid import GridFunction, GridSpec, dyadic_scales

__all__ = [
    "convolution_path",
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


def convolution_path(local: bool) -> str:
    """The one path rule of maximal_fn: "taps" for the local ladder, "fft" for the full one.

    The rule goes by ladder, not by t, so a grid rescaled by 2^e takes the same
    path and gives the same bits.
    """
    return "taps" if local else "fft"


def _smooth_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, a length numpy.fft transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _fft_ladder(f: GridFunction, scales: list[float]) -> np.ndarray:
    """max_t |f * phi_t| from one transform of f, zero wherever no tap reaches."""
    m, dim = f.spec.points_per_axis, f.spec.dim
    axes = tuple(range(dim))
    kernels = (_kernel(f.spec, t) for t in reversed(scales))
    widest = next(kernels)
    # the window [h, h + m) of a cyclic convolution of length L >= m + h is
    # free of wrap-around for every kernel of half-width h
    shape = (_smooth_length(m + widest.shape[0] // 2),) * dim

    def convolve(transform: np.ndarray, kern: np.ndarray) -> np.ndarray:
        h = kern.shape[0] // 2
        spectrum = transform * np.fft.rfftn(kern, s=shape, axes=axes)
        return np.fft.irfftn(spectrum, s=shape, axes=axes)[(slice(h, h + m),) * dim]

    transform = np.fft.rfftn(f.values, s=shape, axes=axes)
    out = np.zeros(f.spec.shape)
    for kern in itertools.chain([widest], kernels):
        np.maximum(out, np.abs(convolve(transform, kern)), out=out)
    # round-off fills the nodes where the tap sum is exactly 0; the widest
    # kernel's taps cover every narrower kernel's, and this count of nonzero
    # taps on nonzero values is an integer, so < 0.5 means none
    reach = convolve(np.fft.rfftn(f.values != 0, s=shape, axes=axes), widest != 0)
    out[reach < 0.5] = 0.0
    return out


def maximal_fn(f: GridFunction, local: bool = False) -> GridFunction:
    """Pointwise sup of |f * phi_t| over the scales of maximal_scales.

    The path is convolution_path(local).  The tap sum's error is relative at
    each node.  The FFT's is absolute, about 1e-17 to 1e-15 of max|Mf| at every
    node the kernels reach, so small values in the tail of Mf carry a large
    relative error: an L^p quasi-norm of Mf at small p, which weights that
    tail, moves by about 4e-9 relative at p = 0.5, 6e-6 at p = 0.3 and 6e-3 at
    p = 0.1 (a 2d m=65 mean-zero bump, against an extended-precision tap sum).
    Nodes no tap reaches stay exactly 0 on both paths.
    """
    scales = maximal_scales(f.spec, local)
    if convolution_path(local) == "fft":
        return f.with_values(_fft_ladder(f, scales))
    out = np.zeros(f.spec.shape)
    for t in scales:
        np.maximum(out, np.abs(convolve_dilated(f, t).values), out=out)
    return f.with_values(out)
