"""Iterated difference operators and the Lipschitz norms built from them.

Displacements are restricted to whole numbers of grid steps so the
alternating binomial sums are exact; nodes whose stencil leaves the box are
dropped (domain shrink) rather than padded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction

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

    shape = tuple(max(0, m - k * abs(s)) for s in steps)
    out = np.zeros(shape)
    if 0 in shape:
        return out
    for s in range(k + 1):
        coeff = (-1.0) ** (k + s) * math.comb(k, s)
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


def homogeneous_seminorm(f: GridFunction, order: LipschitzOrder) -> float:
    """sup over lattice delta != 0 and nodes of |D^(k+1) f| / |delta|^gamma."""
    k1 = order.k + 1
    step = f.spec.spacing
    best = 0.0
    for steps in _delta_candidates(f, k1):
        diff = difference_op(f, steps, k1)
        delta_len = step * math.hypot(*steps)
        best = max(best, float(np.max(np.abs(diff))) / delta_len**order.gamma)
    return best


def lambda_gamma_norm(f: GridFunction, order: LipschitzOrder) -> float:
    """Sup norm plus the homogeneous difference-quotient seminorm."""
    return float(np.max(np.abs(f.values))) + homogeneous_seminorm(f, order)
