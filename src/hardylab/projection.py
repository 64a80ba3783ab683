"""Discrete L^2(B) projection onto polynomials and the estimates built on it.

The basis is the shifted-scaled monomials ((x - x_B)/r)^alpha, |alpha| <= k,
which keeps the normal equations well conditioned independently of where the
ball sits and how large it is.  The least-squares problem carries the
quadrature weights, so the residual is quadrature-orthogonal to the basis.
Degree 0 is the quadrature mean of `grid.ball_mean`, exact on constants.
Each routine resolves its ball's window once and fits on the window's values,
weights and open coordinates (`_fit`, which `atoms.make_atom` shares).
`poly_project` returns the fit extended by zero to the grid: the one
subtractor of every product split, under each atom.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .grid import Ball, GridFunction, _one_row_stats, region_coords, region_slices, region_values
from .lipschitz import LipschitzOrder, lambda_gamma_norm

__all__ = [
    "poly_project",
    "projection_sup_ratio",
    "campanato_ratio",
    "multi_indices",
    "monomial_terms",
    "enough_nodes",
]


def multi_indices(dim: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent multi-indices with |alpha| <= degree, graded order."""
    return [
        alpha
        for total in range(degree + 1)
        for alpha in itertools.product(range(total + 1), repeat=dim)
        if sum(alpha) == total
    ]


def monomial_terms(
    start: np.ndarray, coords: tuple[np.ndarray, ...], center, degree: int, unit: float
) -> list[np.ndarray]:
    """start * ((x - center)/unit)^alpha on a window's nodes, in multi_indices order.

    The powers are taken on the window's open per-axis coordinates (`coords`,
    from `region_coords`) once and broadcast: every node sees the operations
    of a power on its own coordinates, and the product runs over the axes in
    order, skipping those with alpha_i = 0.  `start` is window-shaped, so
    every term is too; the term of alpha = 0 is `start` itself.
    """
    powers = []
    for x, c in zip(coords, center):
        u = (x - c) / unit
        powers.append([None] + [u**a for a in range(1, degree + 1)])
    terms = []
    for alpha in multi_indices(len(coords), degree):
        term = start
        for axis_powers, a in zip(powers, alpha):
            if a:
                term = term * axis_powers[a]
        terms.append(term)
    return terms


def enough_nodes(dim: int, degree: int, nodes: int) -> bool:
    """Whether a ball of this many nodes resolves a degree-k projection: twice its basis."""
    return nodes >= 2 * len(multi_indices(dim, degree))


def _fit(vals: np.ndarray, w: np.ndarray, coords: tuple, ball: Ball, degree: int) -> np.ndarray:
    """The window-shaped weighted least-squares fit of a window's values by
    polynomials of degree <= k, on its weights and coords; at degree 0 the
    quadrature mean, as grid.ball_mean takes it."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if not enough_nodes(len(coords), degree, vals.size):
        raise ValueError("under-resolved ball")
    if degree == 0:
        return np.full(vals.shape, _one_row_stats(vals, w)[0])
    terms = monomial_terms(np.ones(vals.shape), coords, ball.center, degree, ball.radius)
    A = np.column_stack([t.ravel() for t in terms])
    sw = np.sqrt(w).ravel()
    coeffs, _, rank, _ = np.linalg.lstsq(A * sw[:, None], vals.ravel() * sw, rcond=None)
    if rank < A.shape[1]:
        raise ValueError("degenerate node set")
    return sum(coeff * term for coeff, term in zip(coeffs, terms))


def _window(f: GridFunction, ball: Ball) -> tuple:
    """(values, weights, open coordinates) of f on the ball's window, resolved once."""
    slices = region_slices(f.spec, ball)
    return (*region_values(f, slices), region_coords(f.spec, slices))


def poly_project(f: GridFunction, ball: Ball, degree: int) -> GridFunction:
    """Weighted least-squares projection of f onto polynomials of degree <= k on
    B, extended by zero to the grid."""
    slices = region_slices(f.spec, ball)
    vals = np.zeros(f.spec.shape)
    vals[slices] = _fit(*region_values(f, slices), region_coords(f.spec, slices), ball, degree)
    return GridFunction(f.spec, vals)


def projection_sup_ratio(f: GridFunction, ball: Ball, degree: int) -> float:
    """Sup norm of the projection on B over the sup norm of f on B."""
    vals, w, coords = _window(f, ball)
    f_sup = float(np.max(np.abs(vals)))
    if f_sup == 0:
        raise ValueError("f vanishes on the ball")
    fit = _fit(vals, w, coords, ball, degree)
    return float(np.max(np.abs(fit))) / f_sup


def campanato_ratio(
    f: GridFunction,
    ball: Ball,
    order: LipschitzOrder,
    degree: int | None = None,
    lambda_norm: float | None = None,
) -> float:
    """Mean projection residual on B against ||f||_Lambda * |B|^(gamma/n).

    `degree` defaults to ceil(gamma), the smallest integer >= gamma.  A
    precomputed Lipschitz norm may be passed to avoid the delta scan.
    """
    if degree is None:
        degree = int(math.ceil(order.gamma))
    if degree < order.gamma:
        raise ValueError("projection degree must be >= gamma")
    if lambda_norm is None:
        lambda_norm = lambda_gamma_norm(f, order)
    if lambda_norm <= 0:
        raise ValueError("degenerate Lipschitz norm")
    vals, w, coords = _window(f, ball)
    fit = _fit(vals, w, coords, ball, degree)
    resid = np.abs(vals - fit)
    mean_resid = float(np.sum(w * resid) / np.sum(w))
    scale = ball.measure ** (order.gamma / f.spec.dim)
    return mean_resid / (lambda_norm * scale)
