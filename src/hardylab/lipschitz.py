"""Iterated difference operators and the Lipschitz norms built from them.

Displacements are restricted to whole numbers of grid steps so the
alternating binomial sums are exact; nodes whose stencil leaves the box are
dropped (domain shrink) rather than padded.

The seminorm is an exact branch-and-bound over the half-space of
displacements.  It visits them in increasing |delta|^2 (a stable sort, so
ties keep the raster order of `_half_space`), and two bounds on
D(delta) = max|D^(k+1)_delta f|, the computed float, decide which it
evaluates.

The cap.  The scan stops before the first delta with
cap / (spacing |delta|)^gamma <= best, where

    cap = 2^k (max f - min f) + 2^(k+1) max|f| 1e-12.

D^(k+1)_delta annihilates constants, so |D^(k+1)_delta f| = |D^(k+1)_delta
(f - c)| <= 2^(k+1) (max f - min f) / 2 for the midrange c; the 1e-12 term
covers the rounding of the (k+2)-term alternating sum and of max - min.  The
denominators are nondecreasing along the visiting order, so no later quotient
can exceed best.

For a constant c and k + 1 <= 2 the cap is 0, as c - c and c - 2c + c are
exact zeros while 2|c| is finite: the scan evaluates no displacement.

The chain.  Let e be the unit axis step with the sign of a nonzero component
delta_i, and delta' = delta - e; where delta' leaves the half-space, -delta'
stands for it, with the same exact D.  |delta'| < |delta|, so delta' comes
first in the visiting order.  The domain of delta lies in that of delta',
because x + (k+1) delta' lies in the box spanned by x and x + (k+1) delta.  On
it D^(k+1)_delta f(x) - D^(k+1)_delta' f(x) is the sum over s of
(-1)^(k+1-s) C(k+1, s) (f(y + s e) - f(y)), y = x + s delta', and telescoping
along e gives |f(y + s e) - f(y)| <= s D1(e), D1(e) = max|f(x + e) - f(x)|
over the box.  With sum_s s C(k+1, s) = (k+1) 2^k, in exact arithmetic

    D(delta) <= D(delta') + (k+1) 2^k D1(e).

The scan carries a bound for every delta it processes: D itself where it
evaluated D, and otherwise the least over the nonzero components of

    (bound(delta') + (k+1) 2^k D1(e)) (1 + 1e-12) + 2^(k+2) 1e-12 max|f|,

and it skips delta when bound / (spacing |delta|)^gamma <= best.  The last
term is twice the rounding error a computed D can carry: the (k+2)-term sum
and its float coefficients err by at most (k+3) 2^-53 2^(k+1) max|f|, below
2^(k+1) 1e-12 max|f| for every order whose coefficients are floats (k + 1
below about 1030).  Where the slack underflows, 2^(k+1) max|f| is below about
2^-1036, so every term and partial sum is subnormal and the sum is exact.  The
factor 1 + 1e-12 covers the rounding of D1, of its product and of the sums,
compounded along the chain.  So by induction along the visiting order every
bound is at least the computed D of its delta, and a skipped quotient cannot
exceed best.  Where the growth (k+1) 2^k D1(e), the slack or a sum overflows,
the bound is inf and prunes nothing.

Each quotient that is evaluated is computed as in the full scan, and a max
does not depend on the order of its terms: the result is the same float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec

__all__ = [
    "LipschitzOrder",
    "difference_op",
    "lambda_gamma_norm",
    "SeminormScan",
    "seminorm_scan",
]


@dataclass(frozen=True)
class LipschitzOrder:
    """Order gamma > 0 with its integer part k = floor(gamma + 1e-12): a gamma within
    1e-12 below an integer, as rounding in dual_to can leave it, reads as that integer."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")

    @classmethod
    def dual_to(cls, p: float, dim: int) -> "LipschitzOrder":
        """The order gamma = n(1/p - 1) of Lambda_gamma, the dual of H^p for p < 1."""
        return cls(dim * (1.0 / p - 1.0))

    @property
    def k(self) -> int:
        return math.floor(self.gamma + 1e-12)

    @property
    def min_atom_s(self) -> int:
        """2k: the vanishing moments the projection split needs of its atoms."""
        return 2 * self.k

    def fits(self, spec: GridSpec) -> bool:
        """Whether a (k+1)-th difference stencil of one grid step fits in the box,
        i.e. whether the seminorm has a displacement to measure."""
        return spec.points_per_axis - 1 >= self.k + 2


def _as_steps(delta, dim: int) -> tuple[int, ...]:
    arr = np.atleast_1d(delta)
    if arr.shape != (dim,):
        raise ValueError("off-lattice displacement")
    steps = []
    for v in arr:
        r = round(float(v))
        if abs(float(v) - r) > 1e-9:
            raise ValueError("off-lattice displacement")
        steps.append(int(r))
    return tuple(steps)


def difference_op(f: GridFunction, delta, k: int) -> np.ndarray:
    """k-th iterated difference with lattice displacement delta (grid steps).

    Returns the values of sum_s (-1)^(k+s) C(k,s) f(x + s*delta) on the
    shrunken domain of nodes whose whole stencil stays in the box.  The
    returned array may be empty when the displacement is too large.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    steps = _as_steps(delta, f.spec.dim)
    if all(s == 0 for s in steps):
        raise ValueError("displacement must be nonzero")
    m = f.spec.points_per_axis

    def axis_slice(step: int, s: int) -> slice:
        # base nodes i with i + k*step in [0, m-1]; shifted by s*step
        lo = max(0, -k * step)
        hi = m - max(0, k * step)
        return slice(lo + s * step, hi + s * step)

    try:
        coeffs = [(-1.0) ** (k + s) * math.comb(k, s) for s in range(k + 1)]
    except OverflowError as exc:
        raise ValueError(f"difference of order {k}: C({k}, s) is beyond float range") from exc
    shape = tuple(max(0, m - k * abs(s)) for s in steps)
    out = np.zeros(shape)
    if 0 in shape:
        return out
    for s, coeff in enumerate(coeffs):
        sel = tuple(axis_slice(st, s) for st in steps)
        out += coeff * f.values[sel]
    return out


def _reach(spec: GridSpec, k: int) -> int:
    """The most steps a component of a candidate displacement takes."""
    return (spec.points_per_axis - 1) // (k + 1)


def _half_space(spec: GridSpec, k: int) -> np.ndarray:
    """The nonzero lattice displacements delta > 0 (lexicographically) with no
    component beyond _reach, one row each, in raster order."""
    reach = _reach(spec, k)
    width = 2 * reach + 1
    after_zero = np.arange(width**spec.dim // 2 + 1, width**spec.dim)
    return np.stack(np.unravel_index(after_zero, (width,) * spec.dim), axis=1) - reach


def _visiting_steps(spec: GridSpec, k: int) -> np.ndarray:
    """_half_space by increasing |delta|^2; ties keep the raster order."""
    steps = _half_space(spec, k)
    return steps[np.argsort(np.sum(steps * steps, axis=1), kind="stable")]


def _difference_cap(f: GridFunction, k: int) -> float:
    """A bound on every computed |D^(k+1)_delta f|; inf where 2^(k+1) overflows."""
    vmax, vmin = float(np.max(f.values)), float(np.min(f.values))
    if vmax == vmin and k <= 1 and math.isfinite(2.0 * vmax):
        return 0.0  # c - c and c - 2c + c are exact zeros
    try:
        return 2.0**k * (vmax - vmin) + 2.0 ** (k + 1) * max(vmax, -vmin) * 1e-12
    except OverflowError:
        return math.inf


def _chain_terms(f: GridFunction, k: int) -> tuple[list[float], float]:
    """(per axis i, the growth (k+1) 2^k max|f(x + e_i) - f(x)| over the box; the
    slack 2^(k+2) 1e-12 max|f|) of the chain rule; inf where they overflow."""
    with np.errstate(over="ignore"):  # a difference of values near +-1e308 is inf
        growth = [
            float(np.ldexp(np.max(np.abs(np.diff(f.values, axis=i))) * (k + 1), k))
            for i in range(f.spec.dim)
        ]
        # 1e-12 is scaled first: the slack overflows only where it is beyond float range
        slack = float(np.ldexp(1e-12, k + 2)) * float(np.max(np.abs(f.values)))
    return growth, slack


def _rows(*columns):
    """zip of the columns' rows as Python values, converted 4096 at a time, so
    a scan that stops early converts few of them."""
    for lo in range(0, len(columns[0]), 4096):
        yield from zip(*(column[lo : lo + 4096].tolist() for column in columns))


@dataclass(frozen=True)
class SeminormScan:
    """The seminorm, with the displacements its scan evaluated out of the candidates."""

    value: float
    visited: int
    displacements: int


def seminorm_scan(f: GridFunction, order: LipschitzOrder) -> SeminormScan:
    """sup over lattice delta != 0 and nodes of |D^(k+1) f| / |delta|^gamma.

    Displacements are visited by increasing |delta| until the cap of the
    module docstring shows that none of the longer ones can win; on the way,
    those whose chain bound cannot beat the best quotient are not evaluated.
    """
    k1 = order.k + 1
    spec = f.spec
    steps = _visiting_steps(spec, k1)
    if not len(steps):
        raise ValueError(
            f"gamma = {order.gamma}: no lattice displacement fits a difference of "
            f"order {k1} on {spec.points_per_axis} points per axis"
        )
    cap = _difference_cap(f, order.k)
    growth, slack = _chain_terms(f, order.k)
    # one bound slot per displacement of the box [-reach, reach]^dim, raster order;
    # delta and -delta share a value, and the zero slot is never set
    width = 2 * _reach(spec, k1) + 1
    strides = width ** np.arange(spec.dim - 1, -1, -1)
    zero = width**spec.dim // 2
    slots = steps @ strides + zero
    # delta - e_i for the unit step e_i signed as delta_i; delta itself (still
    # unset) where delta_i = 0
    chains = slots[:, None] - np.sign(steps) * strides
    bounds = [math.inf] * (2 * zero + 1)
    best, visited = 0.0, 0
    spacing = spec.spacing
    for delta, slot, chain in _rows(steps, slots, chains):
        try:  # the power overflows, or underflows to 0
            scale = (spacing * math.hypot(*delta)) ** order.gamma
            none_left_can_win = cap / scale <= best
        except (OverflowError, ZeroDivisionError) as exc:
            raise ValueError(
                f"gamma = {order.gamma}: (spacing |delta|)^gamma is beyond float range"
            ) from exc
        if none_left_can_win:
            break
        bound = min([bounds[c] + g for c, g in zip(chain, growth)]) * (1.0 + 1e-12) + slack
        if not bound / scale <= best:
            diff = difference_op(f, delta, k1)  # a module lookup, so a patched counter sees it
            bound = float(np.max(np.abs(diff)))
            best = max(best, bound / scale)
            visited += 1
        bounds[slot] = bounds[2 * zero - slot] = bound
    return SeminormScan(best, visited, len(steps))


def lambda_gamma_norm(f: GridFunction, order: LipschitzOrder) -> float:
    """Sup norm plus the homogeneous difference-quotient seminorm."""
    return float(np.max(np.abs(f.values))) + seminorm_scan(f, order).value
