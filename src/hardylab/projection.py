"""Discrete L^2(B) projection onto polynomials and the estimates built on it.

The basis is the shifted-scaled monomials ((x - x_B)/r)^alpha, |alpha| <= k,
which keeps the normal equations well conditioned independently of where the
ball sits and how large it is.  The least-squares problem carries the
quadrature weights, so the residual is quadrature-orthogonal to the basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Ball,
    GridFunction,
    GridSpec,
    region_coords,
    region_slices,
    region_values,
    sup_norm,
)
from .lipschitz import LipschitzOrder, lambda_gamma_norm

__all__ = [
    "PolyProjection",
    "poly_project",
    "projection_sup_ratio",
    "campanato_ratio",
    "multi_indices",
]


def multi_indices(dim: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent multi-indices with |alpha| <= degree, graded order."""
    return [
        alpha
        for total in range(degree + 1)
        for alpha in itertools.product(range(total + 1), repeat=dim)
        if sum(alpha) == total
    ]


@dataclass(frozen=True)
class PolyProjection:
    """Polynomial in the shifted-scaled monomial basis on a ball."""

    ball: Ball
    degree: int
    coefficients: np.ndarray

    def evaluate(self, spec: GridSpec) -> np.ndarray:
        """Values of the polynomial at the grid nodes in the ball (ball-shaped)."""
        terms = _monomials(spec, self.ball, self.degree)
        out = np.zeros(terms[0].shape)
        for coeff, term in zip(self.coefficients, terms):
            out += coeff * term
        return out

    def as_gridfunction(self, spec: GridSpec) -> GridFunction:
        """The polynomial on the ball, extended by zero to the whole grid."""
        vals = np.zeros(spec.shape)
        vals[region_slices(spec, self.ball)] = self.evaluate(spec)
        return GridFunction(spec, vals)


def _monomials(spec: GridSpec, ball: Ball, degree: int) -> list[np.ndarray]:
    """Basis monomials on the ball's nodes, in multi_indices order."""
    coords = region_coords(spec, region_slices(spec, ball))
    scaled = [(x - c) / ball.radius for x, c in zip(coords, ball.center)]
    terms = []
    for alpha in multi_indices(spec.dim, degree):
        term = np.ones(scaled[0].shape)
        for u, a in zip(scaled, alpha):
            if a:
                term = term * u**a
        terms.append(term)
    return terms


def poly_project(f: GridFunction, ball: Ball, degree: int) -> PolyProjection:
    """Weighted least-squares projection of f onto polynomials of degree <= k on B."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    vals, w = region_values(f, ball)
    basis_size = len(multi_indices(f.spec.dim, degree))
    if vals.size < 2 * basis_size:
        raise ValueError("under-resolved ball")
    A = np.column_stack([t.ravel() for t in _monomials(f.spec, ball, degree)])
    sw = np.sqrt(w).ravel()
    coeffs, _, rank, _ = np.linalg.lstsq(A * sw[:, None], vals.ravel() * sw, rcond=None)
    if rank < basis_size:
        raise ValueError("degenerate node set")
    return PolyProjection(ball=ball, degree=degree, coefficients=coeffs)


def projection_sup_ratio(f: GridFunction, ball: Ball, degree: int) -> float:
    """Sup norm of the projection on B over the sup norm of f on B."""
    f_sup = sup_norm(f, ball)
    if f_sup == 0:
        raise ValueError("f vanishes on the ball")
    proj = poly_project(f, ball, degree)
    p_sup = float(np.max(np.abs(proj.evaluate(f.spec))))
    return p_sup / f_sup


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
    vals, w = region_values(f, ball)
    proj = poly_project(f, ball, degree)
    resid = np.abs(vals - proj.evaluate(f.spec))
    mean_resid = float(np.sum(w * resid) / np.sum(w))
    scale = ball.measure ** (order.gamma / f.spec.dim)
    return mean_resid / (lambda_norm * scale)
