"""Smooth maximal operators over the dyadic dilation scales of the grid.

The kernel is the standard radial bump supported in the unit ball.  At each
scale the sampled kernel is renormalized so that its discrete mass is exactly
one, which makes constants fixed points of the convolution and keeps the
maximal function free of spurious inflation at coarse scales.

Both ladders, the full one and the local one (scales below 1), go through one
forward `numpy.fft` transform of f per call, padded for the ladder's widest
kernel.  `convolve_dilated`, a sum over one kernel's nonzero taps, is the
reference the transform is tested against.
"""

from __future__ import annotations

import itertools
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
    axes = np.meshgrid(*[offsets] * spec.dim, indexing="ij", sparse=True)
    vals = bump_profile(np.sqrt(sum((x / t) ** 2 for x in axes)))
    total = vals.sum()
    if total <= 0:
        raise ValueError("scale below resolution")
    return vals / total


def convolve_dilated(f: GridFunction, t: float) -> GridFunction:
    """Discrete convolution with the dilated bump; f is zero outside the box.

    Only the tests call it, as the FFT path's oracle; it stays in the library
    because the benchmark's tracer times it by its name here."""
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


def maximal_fn(f: GridFunction, local: bool = False) -> GridFunction:
    """Pointwise sup of |f * phi_t| over the scales of maximal_scales.

    The FFT's error is absolute, about 1e-17 to 1e-15 of max|Mf| at every node
    the kernels reach, on either ladder, so small values in the tail of Mf
    carry a large relative error: an L^p quasi-norm of Mf at small p, which
    weights that tail, moves by about 4e-9 relative at p = 0.5, 6e-6 at
    p = 0.3 and 6e-3 at p = 0.1 (a 2d m=65 mean-zero bump, against an
    extended-precision tap sum).  A node is exactly 0 when no tap of the widest
    kernel meets a nonzero value of f.  A tap sum can also give 0 where every
    product underflows; such a node keeps its round-off here (5.1e-19 at one
    of 1,050,625 nodes of a 2d m=1025 `p1_local` h2, seed 3).
    """
    m, dim = f.spec.points_per_axis, f.spec.dim
    axes = tuple(range(dim))
    kernels = (_kernel(f.spec, t) for t in reversed(maximal_scales(f.spec, local)))
    widest = next(kernels)
    # the window [h, h + m) of a cyclic convolution of length L >= m + h is
    # free of wrap-around for every kernel of half-width h
    shape = (_smooth_length(m + widest.shape[0] // 2),) * dim

    def convolve(transform: np.ndarray, kern: np.ndarray) -> np.ndarray:
        h = kern.shape[0] // 2
        spectrum = transform * np.fft.rfftn(kern, s=shape, axes=axes)
        return np.fft.irfftn(spectrum, s=shape, axes=axes)[(slice(h, h + m),) * dim]

    # f is transformed as f / 2^e, with max|f| < 2^e, so that no sum of the
    # transform overflows; a power of two scales every normal rounding exactly
    e = int(np.frexp(np.max(np.abs(f.values)))[1])
    transform = np.fft.rfftn(np.ldexp(f.values, -e), s=shape, axes=axes)
    out = np.zeros(f.spec.shape)
    for kern in itertools.chain([widest], kernels):
        np.maximum(out, np.abs(convolve(transform, kern)), out=out)
    out = np.ldexp(out, e)
    # round-off fills the nodes where the tap sum is exactly 0; the widest
    # kernel's taps cover every narrower kernel's, and this count of nonzero
    # taps on nonzero values is an integer, so < 0.5 means none
    reach = convolve(np.fft.rfftn(f.values != 0, s=shape, axes=axes), widest != 0)
    out[reach < 0.5] = 0.0
    return f.with_values(out)
