"""Iterated difference operators and the Lipschitz norms built from them.

Displacements are restricted to whole numbers of grid steps so the
alternating binomial sums are exact; nodes whose stencil leaves the box are
dropped (domain shrink) rather than padded.

The seminorm is an exact branch-and-bound over the half-space of
displacements.  It visits them in increasing |delta|^2 (a stable sort, so
ties keep the raster order of `_delta_candidates`) and stops before the first
delta with cap / (spacing |delta|)^gamma <= best, where

    cap = 2^k (max f - min f) + 2^(k+1) max|f| 1e-12.

D^(k+1)_delta annihilates constants, so |D^(k+1)_delta f| = |D^(k+1)_delta
(f - c)| <= 2^(k+1) (max f - min f) / 2 for the midrange c; the 1e-12 term
covers the rounding of the (k+2)-term alternating sum and of max - min.  The
denominators are nondecreasing along the visiting order, so no later quotient
can exceed best.  Each quotient is computed as in the full scan and a max does
not depend on the order of its terms: the result is the same float.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec

__all__ = [
    "LipschitzOrder",
    "difference_op",
    "lambda_gamma_norm",
    "homogeneous_seminorm",
]


@dataclass(frozen=True)
class LipschitzOrder:
    """Order gamma > 0 with its integer part k = floor(gamma)."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

    @classmethod
    def dual_to(cls, p: float, dim: int) -> "LipschitzOrder":
        """The order gamma = n(1/p - 1) of Lambda_gamma, the dual of H^p for p < 1."""
        return cls(dim * (1.0 / p - 1.0))

    @property
    def k(self) -> int:
        return int(math.floor(self.gamma))

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


def _delta_candidates(f: GridFunction, k: int):
    """Half-space of nonzero lattice displacements with a valid domain."""
    m = f.spec.points_per_axis
    max_step = (m - 1) // (k + 1)
    for steps in itertools.product(range(-max_step, max_step + 1), repeat=f.spec.dim):
        if steps > (0,) * f.spec.dim:
            yield steps


def _visiting_order(f: GridFunction, k: int) -> list[tuple[int, ...]]:
    """_delta_candidates by increasing |delta|^2; ties keep the raster order."""
    return sorted(_delta_candidates(f, k), key=lambda steps: sum(s * s for s in steps))


def _difference_cap(f: GridFunction, k: int) -> float:
    """A bound on every computed |D^(k+1)_delta f|; inf where 2^(k+1) overflows."""
    vmax, vmin = float(np.max(f.values)), float(np.min(f.values))
    try:
        return 2.0**k * (vmax - vmin) + 2.0 ** (k + 1) * max(vmax, -vmin) * 1e-12
    except OverflowError:
        return math.inf


def homogeneous_seminorm(f: GridFunction, order: LipschitzOrder) -> float:
    """sup over lattice delta != 0 and nodes of |D^(k+1) f| / |delta|^gamma.

    Displacements are visited by increasing |delta| until the cap of the
    module docstring shows that none of the longer ones can win.
    """
    k1 = order.k + 1
    step = f.spec.spacing
    candidates = _visiting_order(f, k1)
    if not candidates:
        raise ValueError(
            f"gamma = {order.gamma}: no lattice displacement fits a difference of "
            f"order {k1} on {f.spec.points_per_axis} points per axis"
        )
    cap = _difference_cap(f, order.k)
    best = 0.0
    for steps in candidates:
        try:  # the power overflows, or underflows to 0
            scale = (step * math.hypot(*steps)) ** order.gamma
            none_left_can_win = cap / scale <= best
        except (OverflowError, ZeroDivisionError) as exc:
            raise ValueError(
                f"gamma = {order.gamma}: (spacing |delta|)^gamma is beyond float range"
            ) from exc
        if none_left_can_win:
            break
        diff = difference_op(f, steps, k1)  # a module lookup, so a patched counter sees it
        best = max(best, float(np.max(np.abs(diff))) / scale)
    return best


def lambda_gamma_norm(f: GridFunction, order: LipschitzOrder) -> float:
    """Sup norm plus the homogeneous difference-quotient seminorm."""
    return float(np.max(np.abs(f.values))) + homogeneous_seminorm(f, order)
