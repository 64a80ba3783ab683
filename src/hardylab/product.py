"""Constructive splits of the product b x h and their verification.

For h = sum lambda_j a_j, the split subtracts from b, on each atom's ball,
its degree-k projection P_j b (`poly_project`; degree 0 is the quadrature
mean), k = LipschitzOrder.k the integer part of gamma = n(1/p - 1) and 0 at
p = 1: one subtractor for every regime.  The difference part lands in L^1
and the remainder in the target Hardy-type space:

    h1 = sum_j lambda_j (b - P_j b) a_j,     h2 = b*h - h1.

An atom holds only its window's values, so h = synthesize(decomp), h1 and
h2 all vanish off the windows.  Each term is accumulated on its atom's
window, with the projection's window slices, into grid-wide sums allocated
once per split.  h2 is stored as the pointwise complement of h1 in the
product, which makes the reconstruction identity h1 + h2 = b * synthesize(decomp)
exact by construction.  sum_j lambda_j (P_j b) a_j, accumulated
independently, is checked to agree with h2 to a few ulps of the working
precision.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .atoms import AtomicDecomposition, synthesize, validate_atom
from .grid import Ball, GridFunction, integrate, lp_norm
from .lipschitz import LipschitzOrder, lambda_gamma_norm
from .orlicz import PHI, hardy_phi_star_quasinorm, hardy_quasinorm, luxembourg_norm
from .oscillation import bmo_local_norm
from .projection import poly_project

__all__ = [
    "Regime",
    "REGIMES",
    "ProductSplit",
    "SplitReport",
    "truncate",
    "pairing_limit_check",
    "duality_identity_check",
    "split_bmo",
    "split_lipschitz",
    "exp_class_product_bound",
    "verify_split",
]


@dataclass(frozen=True)
class Regime:
    """A split regime: what is subtracted on each ball, and where atoms live."""

    name: str  # the library name, written to rows.csv
    kind: str  # "p1", "mean" or "projection"
    local: bool

    def admits(self, p: float, dim: int) -> bool:
        """Whether the exponent p lies in this regime's range in dimension dim."""
        if self.kind == "p1" or abs(p - 1.0) <= 1e-12 or not 0.0 < p < 1.0:
            return self.kind == "p1" and abs(p - 1.0) <= 1e-12
        try:  # a gamma beyond float range is above every integer
            return (LipschitzOrder.dual_to(p, dim).k == 0) == (self.kind == "mean")
        except ValueError:
            return self.kind == "projection"


# the CLI regime names and the library regimes they select
REGIMES = {
    "p1": Regime("p1_bmo", "p1", False),
    "p1_local": Regime("p1_bmo_local", "p1", True),
    "mean": Regime("p_lt1_mean", "mean", False),
    "mean_local": Regime("p_lt1_mean_local", "mean", True),
    "projection": Regime("p_lt1_proj", "projection", False),
    "projection_local": Regime("p_lt1_proj_local", "projection", True),
}


def _regime(kind: str, local: bool) -> Regime:
    return REGIMES[f"{kind}_local" if local else kind]


@dataclass(frozen=True)
class ProductSplit:
    h1: GridFunction
    h2: GridFunction
    regime: Regime


def truncate(b: GridFunction, level: float) -> GridFunction:
    """Three-case clamp of b to [-level, level]."""
    if not level > 0:
        raise ValueError("truncation level must be positive")
    return b.with_values(np.clip(b.values, -level, level))


def pairing_limit_check(b: GridFunction, h: GridFunction, levels) -> dict:
    """Truncated pairings against h and their gaps to the full pairing."""
    b.require_same_spec(h)
    full = integrate(b.with_values(b.values * h.values))
    pairings = [
        integrate(b.with_values(truncate(b, k).values * h.values)) for k in levels
    ]
    gaps = [abs(v - full) for v in pairings]
    return {
        "levels": list(levels),
        "pairings": pairings,
        "full_pairing": full,
        "gaps": gaps,
        "b_sup": float(np.max(np.abs(b.values))),
    }


def duality_identity_check(
    b: GridFunction, h: GridFunction, testfn: GridFunction
) -> float:
    """|<b*h, phi> - <b*phi, h>| for a test function; pointwise associativity."""
    b.require_same_spec(h)
    b.require_same_spec(testfn)
    left = integrate(b.with_values((b.values * h.values) * testfn.values))
    right = integrate(b.with_values((b.values * testfn.values) * h.values))
    return abs(left - right)


def _validate_terms(decomp: AtomicDecomposition, allow_local: bool) -> None:
    for idx, (_, atom) in enumerate(decomp.terms):
        if atom.local and not allow_local:
            raise ValueError(f"atom {idx} is local but the split is not")
        report = validate_atom(atom)
        if not report.passed:
            raise ValueError(
                f"atom {idx} fails validation: {', '.join(report.failures)}"
            )


def _assemble(
    b: GridFunction,
    decomp: AtomicDecomposition,
    regime: Regime,
    subtracted,
) -> ProductSplit:
    """Accumulate h1 in fixed term order on each atom's window and store h2 as
    its complement in b * h on the grid.

    subtracted yields one (window slices, P_j b on the window) per term."""
    h = synthesize(decomp, b.spec)
    prod = b.values * h.values
    h1 = np.zeros(b.spec.shape)
    mean_part = np.zeros(b.spec.shape)
    scale = 0.0
    for (lam, atom), (slices, m_vals) in zip(decomp.terms, subtracted):
        a, b_win = atom.values, b.values[slices]
        m_a = m_vals * a
        h1[slices] += lam * ((b_win - m_vals) * a)
        mean_part[slices] += lam * m_a
        scale += abs(lam) * (np.max(np.abs(b_win * a)) + np.max(np.abs(m_a)))
    h2 = prod - h1
    # the independently accumulated projection part must agree with the stored
    # complement at rounding level, which scales with the terms however much
    # they cancel; anything larger means a logic error
    drift = np.max(np.abs(mean_part - h2), initial=0.0)
    if drift > 1e-9 * max(scale, 1.0):
        raise AssertionError("split rearrangement leaked mass")
    return ProductSplit(
        h1=GridFunction(b.spec, h1), h2=GridFunction(b.spec, h2), regime=regime
    )


def _split(b: GridFunction, decomp: AtomicDecomposition, regime: Regime, k: int) -> ProductSplit:
    """Subtract the degree-k projection of b under each atom, one at a time."""
    projections = (poly_project(b, atom.ball, k) for _, atom in decomp.terms)
    return _assemble(b, decomp, regime, projections)


def split_bmo(
    b: GridFunction, decomp: AtomicDecomposition, local: bool = False
) -> ProductSplit:
    """p = 1 split: subtract the ball mean of b (k = 0) under each atom."""
    if not REGIMES["p1"].admits(decomp.p, b.spec.dim):
        raise ValueError("split_bmo requires p = 1")
    _validate_terms(decomp, allow_local=local)
    return _split(b, decomp, _regime("p1", local), 0)


def split_lipschitz(
    b: GridFunction,
    decomp: AtomicDecomposition,
    local: bool = False,
) -> ProductSplit:
    """p < 1 split: subtract the degree-k projection, the ball mean where k = 0."""
    if REGIMES["p1"].admits(decomp.p, b.spec.dim):
        raise ValueError(f"p = {decomp.p} reads as p = 1, which split_bmo splits")
    order = LipschitzOrder.dual_to(decomp.p, b.spec.dim)  # b in Lambda_gamma
    _validate_terms(decomp, allow_local=local)
    for idx, (_, atom) in enumerate(decomp.terms):
        if not atom.local and atom.s < order.min_atom_s:
            raise ValueError(f"need s >= 2k = {order.min_atom_s}, k = {order.k} (atom {idx})")
    return _split(b, decomp, _regime("projection" if order.k else "mean", local), order.k)


def exp_class_product_bound(
    b: GridFunction, psi: GridFunction, ball: Ball
) -> float:
    """Luxembourg norm of b*psi on a unit ball against the L^1 mass of psi.

    Requires the exponential-class hypothesis: integral over B of exp|b|
    bounded by 2.
    """
    b.require_same_spec(psi)
    if abs(ball.measure - 1.0) > 1e-6:
        raise ValueError("ball must have unit measure")
    exp_mass = integrate(b.with_values(np.exp(np.abs(b.values))), ball)
    if exp_mass > 2.0 * (1.0 + 1e-9):
        raise ValueError("hypothesis violated: integral of exp|b| exceeds 2")
    denom = integrate(psi.with_values(np.abs(psi.values)), ball)
    if denom <= 0:
        raise ValueError("psi vanishes on the ball")
    num = luxembourg_norm(b.with_values(b.values * psi.values), PHI, ball)
    return num / denom


@dataclass(frozen=True)
class SplitReport:
    """One rows.csv row. The fields are its columns, by name and in order: the
    names are a fixed external format, read by the benchmark checks and references."""

    regime: str
    p: float
    gamma: float | None
    norm_h1_L1: float
    norm_h2_target: float
    b_scale: float
    lambda_sum: float
    lambda_p_sum: float
    C1: float
    C2: float
    grid_dim: int
    grid_halfwidth: float
    grid_points: int

    def to_csv_row(self) -> list:
        return ["" if v is None else v for v in astuple(self)]


def _ratio(num: float, scale: float, weight: float) -> float:
    """num / (scale * weight), with 0 / 0 read as 0; a product beyond float
    range divides num one factor at a time instead of reading as infinite."""
    denom = scale * weight
    if denom == 0.0:
        return 0.0 if num == 0.0 else math.inf
    if denom == math.inf:
        return num / scale / weight
    return num / denom


def verify_split(
    split: ProductSplit,
    b: GridFunction,
    decomp: AtomicDecomposition,
) -> SplitReport:
    """Measure ||h1||_1, the regime's target quasi-norm of h2 and the norm of b
    in the dual of H^p: bmo at p = 1, Lambda_gamma with gamma = n(1/p - 1) below."""
    local = split.regime.local
    h1_norm = lp_norm(split.h1, 1.0)
    if split.regime.kind == "p1":
        h2_norm = hardy_phi_star_quasinorm(split.h2, local=local)
        b_scale = bmo_local_norm(b)
        lam_scale = decomp.lambda_sum
        gamma = None
    else:
        h2_norm = hardy_quasinorm(split.h2, decomp.p, local=local)
        order = LipschitzOrder.dual_to(decomp.p, b.spec.dim)
        b_scale = lambda_gamma_norm(b, order)
        lam_scale = decomp.lambda_p_sum
        gamma = order.gamma
    return SplitReport(
        regime=split.regime.name,
        p=decomp.p,
        gamma=gamma,
        norm_h1_L1=h1_norm,
        norm_h2_target=h2_norm,
        b_scale=b_scale,
        lambda_sum=decomp.lambda_sum,
        lambda_p_sum=decomp.lambda_p_sum,
        C1=_ratio(h1_norm, b_scale, decomp.lambda_sum),
        C2=_ratio(h2_norm, b_scale, lam_scale),
        grid_dim=split.h1.spec.dim,
        grid_halfwidth=split.h1.spec.halfwidth,
        grid_points=split.h1.spec.points_per_axis,
    )
