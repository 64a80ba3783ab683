"""Orlicz function Phi, Luxembourg norms, cube-summed norms and Hardy layers.

The Luxembourg norm inf{k > 0 : integral of P(|f|/k) <= 1} is located by
bisection on log k, written once: `_luxembourg_rows` runs the bracket and the
bisection on many rows in lockstep, held as blocks of same-width rows, with
one P call per round.  `luxembourg_norm` is its one-row call, and the
cube-summed norm bisects all cubes in one lockstep, one block per cube shape,
so it makes as many P calls as its slowest cube takes rounds (36 on a 2d m=65
maximal function), not one set of rounds per cube shape.  The test suite
(`tests/scalar_oracles.py`) holds the bit-for-bit oracle of the lockstep
bisection, a scalar one, and a dense log-spaced scan that cross-checks the
bisection against an independent search path.
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


def _luxembourg_rows(blocks, P: OrliczFunction) -> np.ndarray:
    """Luxembourg norm under P of each row of the blocks, in block order.

    A block is a pair (v, w) of C-contiguous (rows, n) arrays: |values| and
    weights, n nodes per row.  The two loops of _bracket and the bisection on
    log k each run on all rows in lockstep.  Per round, the values of the rows
    still in the loop, each divided by its k, go through one P call, and each
    block that still holds such a row sums its rows' terms on a (rows, n)
    array: every row gets numpy's pairwise sum of its own n terms, as a
    one-row call does.  Zero-padding rows to one width would regroup those
    sums and move the last bits.  Each row leaves a loop on its own test, so a
    row's norm does not depend on the rows batched with it.
    """
    first = np.cumsum([0] + [len(v) for v, _ in blocks]).tolist()

    def within(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        """gauge(k) <= 1 for the given rows (increasing), one k each."""
        cuts = np.searchsorted(rows, first).tolist()
        parts = []
        for (v, w), start, lo, hi in zip(blocks, first, cuts, cuts[1:]):
            if lo == hi:
                continue  # no row of this block is in play
            # a block all of whose rows are in play is read in place
            local = slice(None) if hi - lo == len(v) else rows[lo:hi] - start
            parts.append((w[local], v[local] / k[lo:hi, None]))
        terms = P(np.concatenate([t.ravel() for _, t in parts]))
        gauge, end = [], 0
        for w, t in parts:
            gauge.append((w * terms[end : end + t.size].reshape(t.shape)).sum(axis=-1))
            end += t.size
        return np.concatenate(gauge) <= 1.0

    k_hi = np.concatenate([v.max(axis=-1, initial=0.0) for v, _ in blocks])
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
    row = (np.abs(v).reshape(1, -1), w.reshape(1, -1))
    return float(_luxembourg_rows([row], P)[0])


def lphi_star_norm(f: GridFunction) -> float:
    """Sum over unit lattice cubes of the per-cube Luxembourg norms under PHI,
    all cubes in one lockstep: one block of rows per cube shape."""
    boxes = list(unit_cubes(f.spec).values())
    starts = np.array([[s.start for s in box] for box in boxes])
    shapes = np.array([[s.stop - s.start for s in box] for box in boxes])
    order, blocks = [], []
    for shape, cubes in shape_groups(shapes):
        # the cubes partition the grid: one batch holds every cube of a shape
        ((_, v, w),) = box_rows(f, starts[cubes], shape, f.values.size)
        order.append(cubes)
        blocks.append((np.abs(v, out=v), w))
    norms = np.empty(len(boxes))
    norms[np.concatenate(order)] = _luxembourg_rows(blocks, PHI)
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
