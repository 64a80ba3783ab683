"""Discrete L^2(B) projection onto polynomials and the estimates built on it.

A ball is a box and its quadrature weights are a product of per-axis
trapezoid weights (`GridSpec.axis_weights`), so the weighted least-squares
fit of degree <= k on a ball's window is built one axis at a time (`_fit`):
per-axis polynomials orthonormal under each axis's weights, from an Arnoldi
recurrence in u = (x - x_B)/r that stays well conditioned at high degree
where monomials do not (Brubeck, Nakatsukasa and Trefethen, "Vandermonde
with Arnoldi", SIAM Review 63(2), 2021), and contractions with them by
elementwise products and sums, with no BLAS or LAPACK routine.  The residual
is quadrature-orthogonal to every polynomial of degree <= k.  A window with
at most k nodes on some axis is a degenerate node set.  Degree 0 is the
quadrature mean of `grid.ball_mean`, exact on constants.  Each routine
resolves its ball's window once and fits on the window's values (`_fit`,
which `atoms.make_atom` shares).  `poly_project` returns the window's slices
and the window-shaped fit: the one subtractor of every product split, under
each atom.  `_contract` is also the engine of `atoms`' moment sums.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .grid import Ball, GridFunction, GridSpec, _one_row_stats, region_slices, region_values
from .lipschitz import LipschitzOrder, lambda_gamma_norm

__all__ = [
    "poly_project",
    "projection_sup_ratio",
    "campanato_ratio",
    "multi_indices",
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


def enough_nodes(dim: int, degree: int, nodes: int) -> bool:
    """Whether a ball of this many nodes resolves a degree-k projection: twice its basis."""
    return nodes >= 2 * len(multi_indices(dim, degree))


def _axis_basis(u: np.ndarray, w: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, w * q): (degree + 1, nodes) rows q_0, ..., q_k of polynomials in u of
    degrees 0..k, orthonormal under the weights w, by Arnoldi.  q_0 is the
    constant, and q_j is u * q_(j-1) orthogonalised twice against q_0, ...,
    q_(j-1), then scaled to unit norm."""
    add = np.add.reduce
    q = np.empty((degree + 1, u.size))
    wq = np.empty_like(q)
    q[0] = 1.0 / math.sqrt(add(w))
    wq[0] = w * q[0]
    for j in range(1, degree + 1):
        v = u * q[j - 1]
        for _ in range(2):
            v -= add(add(wq[:j] * v, axis=1)[:, None] * q[:j], axis=0)
        q[j] = v / math.sqrt(add(w * v * v))
        wq[j] = w * q[j]
    return q, wq


def _contract(a: np.ndarray, m: np.ndarray, axis: int) -> np.ndarray:
    """The sum over j of m[l, j] * a[..., j, ...], with l in place of j at `axis`:
    an elementwise product and a reduction, no BLAS routine."""
    trailing = (1,) * (a.ndim - axis - 1)
    return np.add.reduce(np.expand_dims(a, axis) * m.reshape(m.shape + trailing), axis=axis + 1)


def _fit(vals: np.ndarray, spec: GridSpec, slices: tuple, ball: Ball, degree: int) -> np.ndarray:
    """The window-shaped weighted least-squares fit of a window's values by
    polynomials of degree <= k, under the grid's quadrature weights.

    Degree 0 is the quadrature mean, as grid.ball_mean takes it.  From degree 1
    on, each axis of the window has its Arnoldi basis q of polynomials
    orthonormal under its trapezoid weights w (`_axis_basis`, in
    u = (x - x_B)/r; "Vandermonde with Arnoldi"); the values are contracted
    with w * q along every axis, the coefficients of total degree above k are
    zeroed, and the rest contracted back with q.  The products q_a(x) q_b(y) of
    degree <= k are orthonormal under the product weights and span the
    polynomials of degree <= k, so this is the weighted projection.  A window
    with at most k nodes on some axis cannot tell the polynomials of degree
    <= k apart: "degenerate node set", exactly where the monomial design
    matrix loses rank.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if not enough_nodes(spec.dim, degree, vals.size):
        raise ValueError("under-resolved ball")
    if degree == 0:
        return np.full(vals.shape, _one_row_stats(vals, spec.weights()[slices])[0])
    if min(vals.shape) <= degree:
        raise ValueError("degenerate node set")
    axis, axis_w = spec.axis(), spec.axis_weights()
    bases = [
        _axis_basis((axis[s] - c) / ball.radius, axis_w[s], degree)
        for s, c in zip(slices, ball.center)
    ]
    coeffs = vals
    for i, (_, wq) in enumerate(bases):
        coeffs = _contract(coeffs, wq, i)
    coeffs[sum(np.ix_(*[np.arange(degree + 1)] * spec.dim)) > degree] = 0.0
    fit = coeffs
    for i, (q, _) in enumerate(bases):
        fit = _contract(fit, q.T, i)
    return fit


def poly_project(f: GridFunction, ball: Ball, degree: int) -> tuple[tuple[slice, ...], np.ndarray]:
    """(window slices, fit): the weighted least-squares projection of f onto
    polynomials of degree <= k on B, on B's window of the grid."""
    slices = region_slices(f.spec, ball)
    return slices, _fit(f.values[slices], f.spec, slices, ball, degree)


def projection_sup_ratio(f: GridFunction, ball: Ball, degree: int) -> float:
    """Sup norm of the projection on B over the sup norm of f on B."""
    slices = region_slices(f.spec, ball)
    vals = f.values[slices]
    f_sup = float(np.max(np.abs(vals)))
    if f_sup == 0:
        raise ValueError("f vanishes on the ball")
    fit = _fit(vals, f.spec, slices, ball, degree)
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
    slices = region_slices(f.spec, ball)
    vals, w = region_values(f, slices)
    fit = _fit(vals, f.spec, slices, ball, degree)
    resid = np.abs(vals - fit)
    mean_resid = float(np.sum(w * resid) / np.sum(w))
    scale = ball.measure ** (order.gamma / f.spec.dim)
    return mean_resid / (lambda_norm * scale)
