import numpy as np
import pytest

from hardylab.generators import random_smooth_field
from hardylab.grid import (
    Ball, GridFunction, GridSpec, ball_mean, region_coords, region_slices, region_values,
)
from hardylab.lipschitz import LipschitzOrder
from hardylab.projection import (
    campanato_ratio,
    monomial_terms,
    multi_indices,
    poly_project,
    projection_sup_ratio,
)
from scalar_oracles import MESHGRID_BALLS, from_callable, monomials_meshgrid


def test_multi_indices_counts():
    assert multi_indices(1, 2) == [(0,), (1,), (2,)]
    assert len(multi_indices(2, 2)) == 6
    assert multi_indices(2, 1)[0] == (0, 0)


def _former_multi_indices(dim, degree):  # the per-dimension rule, kept as reference
    if dim == 1:
        return [(a,) for a in range(degree + 1)]
    return [
        (a1, a2)
        for total in range(degree + 1)
        for a1 in range(total + 1)
        for a2 in [total - a1]
    ]


def test_multi_indices_match_former_branches():
    for dim in (1, 2):
        for degree in range(7):
            assert multi_indices(dim, degree) == _former_multi_indices(dim, degree)


@pytest.mark.parametrize("dim, m", [(1, 65), (1, 257), (2, 17), (2, 65)])
def test_monomial_terms_equal_meshgrid_powers(dim, m):
    """Powers on the 1d axes, broadcast: the meshgrid terms bit for bit."""
    spec = GridSpec(dim, 8.0, m)
    for ball in MESHGRID_BALLS[dim]:
        coords = region_coords(spec, region_slices(spec, ball))
        shape = np.broadcast_shapes(*(x.shape for x in coords))
        for degree in range(9):
            terms = monomial_terms(np.ones(shape), coords, ball.center, degree, ball.radius)
            oracle = monomials_meshgrid(spec, ball, degree)
            assert len(terms) == len(oracle) == len(multi_indices(dim, degree))
            for term, expected in zip(terms, oracle):
                assert term.shape == expected.shape
                assert np.array_equal(term, expected)


def test_degree_zero_is_ball_mean(spec1d, rng):
    f = random_smooth_field(spec1d, rng)
    ball = Ball((1.0,), 2.0)
    proj = poly_project(f, ball, 0)
    assert proj.coefficients[0] == pytest.approx(ball_mean(f, ball), rel=1e-10)


def test_reproduces_polynomials(spec1d):
    f = from_callable(spec1d, lambda x: 1.0 - 2.0 * x + 0.5 * x**2)
    ball = Ball((0.5,), 2.0)
    proj = poly_project(f, ball, 2)
    sl = region_slices(spec1d, ball)
    err = np.max(np.abs(proj.values - f.values[sl]))
    assert err < 1e-10


def test_cubic_closed_form_oracle():
    """Projection of x^3 onto degree 2 on [-r, r] is (3 r^2 / 5) x."""
    spec = GridSpec(1, 2.0, 513)
    f = from_callable(spec, lambda x: x**3)
    r = 1.0
    proj = poly_project(f, Ball((0.0,), r), 2)
    # basis is ((x - 0)/r)^a, so the linear coefficient carries 3 r^3 / 5
    coeffs = proj.coefficients
    # discrete moments differ from the continuous ones by O(spacing) at the
    # ball edge, which propagates into the fitted coefficient
    assert coeffs[1] == pytest.approx(3.0 * r**3 / 5.0, rel=4.0 * spec.spacing)
    assert abs(coeffs[0]) < 1e-10 and abs(coeffs[2]) < 1e-10


def test_idempotence(spec1d, rng):
    f = random_smooth_field(spec1d, rng)
    ball = Ball((-1.0,), 2.0)
    proj = poly_project(f, ball, 2)
    extended = proj.as_gridfunction(spec1d)
    again = poly_project(extended, ball, 2)
    assert np.max(np.abs(again.coefficients - proj.coefficients)) < 1e-10 * (
        1.0 + np.max(np.abs(proj.coefficients))
    )
    outside = np.ones(spec1d.shape, dtype=bool)
    outside[region_slices(spec1d, ball)] = False
    assert np.all(extended.values[outside] == 0.0)


def test_residual_orthogonality(spec1d, rng):
    f = random_smooth_field(spec1d, rng)
    ball = Ball((0.0,), 2.0)
    proj = poly_project(f, ball, 2)
    sl = region_slices(spec1d, ball)
    w = region_values(f, sl)[1]
    resid = f.values[sl] - proj.values
    x = spec1d.axis()[sl[0]]
    scale = np.sum(w * np.abs(f.values[sl]))
    for a in range(3):
        ip = float(np.sum(w * resid * ((x - 0.0) / ball.radius) ** a))
        assert abs(ip) < 1e-10 * max(scale, 1.0)


def test_best_approximation(spec1d, rng):
    f = random_smooth_field(spec1d, rng)
    ball = Ball((0.0,), 2.0)
    proj = poly_project(f, ball, 1)
    sl = region_slices(spec1d, ball)
    w = region_values(f, sl)[1]
    x = spec1d.axis()[sl[0]]
    best = float(np.sum(w * (f.values[sl] - proj.values) ** 2))
    for _ in range(20):
        c0, c1 = rng.normal(size=2)
        probe = c0 + c1 * (x / ball.radius)
        err = float(np.sum(w * (f.values[sl] - probe) ** 2))
        assert best <= err + 1e-12


def test_under_resolved_error(spec1d, rng):
    f = random_smooth_field(spec1d, rng)
    with pytest.raises(ValueError, match="under-resolved"):
        poly_project(f, Ball((0.0,), 2.1 * spec1d.spacing), 3)


def test_sup_ratio_constant(spec1d):
    f = GridFunction.constant(spec1d, 3.0)
    assert projection_sup_ratio(f, Ball((1.0,), 1.0), 1) == pytest.approx(1.0, abs=1e-12)


def test_sup_ratio_zero_error(spec1d):
    with pytest.raises(ValueError, match="vanishes"):
        projection_sup_ratio(GridFunction.zeros(spec1d), Ball((0.0,), 1.0), 0)


def test_sup_ratio_translation_invariance(spec1d, rng):
    f = random_smooth_field(spec1d, rng)
    shift_nodes = 32
    shifted_vals = np.zeros(spec1d.shape)
    shifted_vals[shift_nodes:] = f.values[:-shift_nodes]
    shifted = GridFunction(spec1d, shifted_vals)
    ball = Ball((-3.0,), 1.0)
    moved = Ball((-3.0 + shift_nodes * spec1d.spacing,), 1.0)
    for k in (0, 1, 2):
        a = projection_sup_ratio(f, ball, k)
        b = projection_sup_ratio(shifted, moved, k)
        assert b == pytest.approx(a, rel=1e-6)


def test_campanato_constant_and_polynomial(spec1d):
    order = LipschitzOrder(0.5)
    c = GridFunction.constant(spec1d, 2.0)
    assert campanato_ratio(c, Ball((0.0,), 1.0), order) < 1e-12
    f = from_callable(spec1d, lambda x: 0.25 * x)
    assert campanato_ratio(f, Ball((0.0,), 1.0), LipschitzOrder(1.0)) < 1e-10


def test_campanato_abs_value_oracle():
    """Mean residual of |x| against its degree-1 fit on [-r, r] is r/4."""
    spec = GridSpec(1, 2.0, 1025)
    f = from_callable(spec, lambda x: np.abs(x))
    r = 1.0
    ball = Ball((0.0,), r)
    proj = poly_project(f, ball, 1)
    sl = region_slices(spec, ball)
    w = region_values(f, sl)[1]
    resid = np.abs(f.values[sl] - proj.values)
    mean_resid = float(np.sum(w * resid) / np.sum(w))
    assert mean_resid == pytest.approx(r / 4.0, rel=0.02)


def test_campanato_degree_validation(spec1d, rng):
    f = random_smooth_field(spec1d, rng)
    with pytest.raises(ValueError, match="degree"):
        campanato_ratio(f, Ball((0.0,), 1.0), LipschitzOrder(1.5), degree=1)
