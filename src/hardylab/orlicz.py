"""Orlicz function Phi, Luxembourg norms, cube-summed norms and Hardy layers.

The Luxembourg norm inf{k > 0 : integral of P(|f|/k) <= 1} is located by
bisection on log k, written once: `_luxembourg_rows` runs the bracket and the
bisection on many rows in lockstep.  `luxembourg_norm` is its one-row call,
and the cube-summed norm calls it on all cubes of one shape at once.  A dense
log-spaced scan oracle is provided separately so tests can cross-check the
bisection against an independent search path; the bit-for-bit oracle of the
lockstep bisection is a scalar one in the test suite (`tests/scalar_oracles.py`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, box_rows, lp_norm, region_values, shape_groups, unit_cubes
from .maximal import maximal_fn

__all__ = [
    "OrliczFunction",
    "PHI",
    "phi",
    "luxembourg_norm",
    "luxembourg_scan_oracle",
    "lphi_star_norm",
    "hardy_quasinorm",
    "hardy_phi_star_quasinorm",
]

_REL_TOL = 1e-9


# a class, not a bare function: perfbench's tracer counts gauge evaluations by
# patching the `eval` attribute of PHI
@dataclass(frozen=True)
class OrliczFunction:
    """Continuous increasing map [0, inf) -> [0, inf), zero at zero."""

    eval: callable

    def __call__(self, t):
        return self.eval(np.asarray(t, dtype=float))


def phi(t):
    """t / log(e + t), elementwise; rejects negative input."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("phi is defined on nonnegative arguments")
    return t / np.log(math.e + t)


PHI = OrliczFunction(phi)

LINEAR = OrliczFunction(lambda t: np.asarray(t, dtype=float))


def _bracket(gauge, k0: float) -> tuple[float, float]:
    """Expand from k0 to [k_lo, k_hi] with gauge(k_lo) > 1 >= gauge(k_hi).

    At the ends of the float range the bracket closes on 0 or inf, where
    the gauge is taken as infinite and as 0.
    """
    k_hi = k0
    while k_hi < math.inf and not gauge(k_hi) <= 1.0:
        k_hi *= 2.0
    k_lo = k_hi / 2.0 if k_hi < math.inf else sys.float_info.max
    while not (k_lo == 0.0 or gauge(k_lo) > 1.0):
        k_hi = k_lo
        k_lo /= 2.0
    return k_lo, k_hi


def _luxembourg_rows(v: np.ndarray, w: np.ndarray, P: OrliczFunction) -> np.ndarray:
    """Luxembourg norm under P of each row of |values| v with weights w.

    The two loops of _bracket and the bisection on log k each run on all rows
    in lockstep: per round, the rows still in the loop evaluate their gauge in
    one P call, and each row leaves a loop on its own test, so a row's norm
    does not depend on the rows batched with it; `luxembourg_norm` is the
    one-row call.
    """

    def within(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        """gauge(k) <= 1 for the given rows, one k each."""
        return (w[rows] * P(v[rows] / k[:, None])).sum(axis=-1) <= 1.0

    k_hi = v.max(axis=-1, initial=0.0)
    rows = np.flatnonzero(k_hi > 0.0)  # the norm of a zero row is 0
    todo = rows
    with np.errstate(over="ignore"):  # k_hi doubles up to inf, as a float does
        while len(todo := todo[k_hi[todo] < math.inf]):
            todo = todo[~within(todo, k_hi[todo])]
            k_hi[todo] *= 2.0
    k_lo = np.where(k_hi < math.inf, k_hi / 2.0, sys.float_info.max)
    todo = rows
    while len(todo := todo[k_lo[todo] != 0.0]):
        todo = todo[within(todo, k_lo[todo])]
        k_hi[todo] = k_lo[todo]
        k_lo[todo] /= 2.0
    todo = rows
    while True:
        lo, hi = k_lo[todo], k_hi[todo]
        with np.errstate(over="ignore", under="ignore"):
            prod = lo * hi
            normal = (sys.float_info.min <= prod) & (prod < math.inf)
            # where the product under- or overflows: split the root
            mid = np.where(normal, np.sqrt(prod), np.sqrt(lo) * np.sqrt(hi))
        keep = (hi - lo > _REL_TOL * hi) & (lo < mid) & (mid < hi)
        todo, mid = todo[keep], mid[keep]
        if not len(todo):
            return k_hi
        inside = within(todo, mid)
        k_hi[todo[inside]] = mid[inside]
        k_lo[todo[~inside]] = mid[~inside]


def luxembourg_norm(f: GridFunction, P: OrliczFunction, region=None) -> float:
    """inf{k > 0 : integral_region P(|f|/k) <= 1}, by bisection on log k.

    Returns 0 iff f vanishes on the region.  The returned k satisfies
    gauge(k) <= 1 with relative bracket width below 1e-9 whenever k is a
    normal float; a subnormal k is bracketed to 1e-9 or to adjacent floats.
    """
    v, w = region_values(f, region)
    return float(_luxembourg_rows(np.abs(v).reshape(1, -1), w.reshape(1, -1), P)[0])


def luxembourg_scan_oracle(
    f: GridFunction,
    P: OrliczFunction,
    region=None,
    points: int = 64,
    passes: int = 5,
) -> float:
    """Log-spaced scan for the Luxembourg norm, independent of bisection.

    Each pass evaluates the gauge on `points` log-spaced k values and keeps
    the bracketing pair, shrinking the factor-2 start bracket by points - 1
    in log k; five passes of 64 leave a relative width near 7e-10.
    """
    v, w = region_values(f, region)
    v = np.abs(v)
    vmax = float(v.max(initial=0.0))
    if vmax == 0.0:
        return 0.0

    def gauge(k: float) -> float:
        return float(np.sum(w * P(v / k)))

    k_lo, k_hi = _bracket(gauge, vmax)
    for _ in range(passes):
        ks = np.geomspace(k_lo, k_hi, points)
        vals = np.array([gauge(k) for k in ks])
        idx = int(np.searchsorted(vals <= 1.0, True))  # gauge is decreasing
        if idx == 0:
            return float(ks[0])
        k_lo, k_hi = float(ks[idx - 1]), float(ks[idx])
    return k_hi


def lphi_star_norm(f: GridFunction) -> float:
    """Sum over unit lattice cubes of the per-cube Luxembourg norms under PHI."""
    boxes = list(unit_cubes(f.spec).values())
    starts = np.array([[s.start for s in box] for box in boxes])
    shapes = np.array([[s.stop - s.start for s in box] for box in boxes])
    norms = np.empty(len(boxes))
    for shape, cubes in shape_groups(shapes):
        # the cubes partition the grid: one batch holds no more than f does
        for members, v, w in box_rows(f, starts[cubes], shape, f.values.size):
            norms[cubes[members]] = _luxembourg_rows(np.abs(v), w, PHI)
    # summed in raster order, as the one-cube norms were
    return sum(norms.tolist())


def hardy_quasinorm(
    f: GridFunction,
    p: float,
    local: bool = False,
) -> float:
    """L^p quasi-norm of the (possibly truncated) maximal function."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    mf = maximal_fn(f, local)
    return lp_norm(mf, p)


def hardy_phi_star_quasinorm(
    f: GridFunction,
    local: bool = False,
) -> float:
    """Cube-summed Luxembourg norm of the (possibly truncated) maximal function."""
    mf = maximal_fn(f, local)
    return lphi_star_norm(mf)
