import numpy as np
import pytest

from hardylab.generators import random_smooth_field
from hardylab.grid import (
    Ball, GridFunction, GridSpec, ball_mean, region_coords, region_slices, region_values,
)
from hardylab.lipschitz import LipschitzOrder
from hardylab.projection import (
    _fit,
    campanato_ratio,
    enough_nodes,
    multi_indices,
    poly_project,
    projection_sup_ratio,
)
from scalar_oracles import (
    MESHGRID_BALLS, from_callable, least_squares_fit, monomial_terms, monomials_meshgrid,
    poly_project_grid,
)


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


def test_enough_nodes_is_twice_the_basis():
    """The binomial count of the basis is twice the multi-indices, to the node."""
    for dim in (1, 2):
        for degree in range(21):
            nodes = 2 * len(multi_indices(dim, degree))
            assert enough_nodes(dim, degree, nodes) and not enough_nodes(dim, degree, nodes - 1)


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


@pytest.mark.parametrize("dim, m", [(1, 257), (2, 65)])
def test_degree_zero_is_ball_mean(dim, m, rng):
    """The degree-0 projection is the quadrature mean, by ball_mean's rule: the
    same float on every node of the window, and the constant itself on a constant."""
    spec = GridSpec(dim, 8.0, m)
    f = random_smooth_field(spec, rng)
    for ball in (Ball((1.0,) * dim, 2.0), Ball((-7.3,) * dim, 0.5), Ball((0.0,) * dim, 8.0)):
        window = poly_project_grid(f, ball, 0).values[region_slices(spec, ball)]
        assert np.all(window == ball_mean(f, ball))
        const = poly_project_grid(GridFunction.constant(spec, 0.1), ball, 0)
        assert np.all(const.values[region_slices(spec, ball)] == 0.1)


# an interior window and two clipped at the box edge, whose end nodes carry
# half weights; the last is clipped to u = (x - x_B)/r in [-0.03, 1] or
# [-1, 0.03] on each axis.  Every one holds enough nodes for degree 8.
ORACLE_WINDOWS = {
    1: (GridSpec(1, 8.0, 257), (Ball((0.3,), 2.0), Ball((7.5,), 2.0), Ball((-7.9,), 3.0))),
    2: (GridSpec(2, 8.0, 65), (Ball((0.3, -1.1), 2.0), Ball((7.5, 0.0), 2.0), Ball((-7.9, 7.9), 3.0))),
}


def _oracle_fit(vals, spec, slices, ball, degree):
    return least_squares_fit(vals, spec.weights()[slices], region_coords(spec, slices), degree)


@pytest.mark.parametrize("degree", range(1, 9))
@pytest.mark.parametrize("dim", [1, 2])
def test_fit_matches_least_squares_oracle(dim, degree, rng):
    """The per-axis fit is the least-squares fit of the monomial basis, to
    1e-12 of max|vals|, on interior windows and on windows clipped at the box."""
    spec, balls = ORACLE_WINDOWS[dim]
    for ball in balls:
        slices = region_slices(spec, ball)
        assert (spec.weights()[slices].min() < spec.spacing**dim) == (ball is not balls[0])
        vals = rng.normal(size=tuple(s.stop - s.start for s in slices))
        fit = _fit(vals, spec, slices, ball, degree)
        oracle = _oracle_fit(vals, spec, slices, ball, degree)
        assert fit.shape == oracle.shape == vals.shape
        assert np.max(np.abs(fit - oracle)) <= 1e-12 * np.max(np.abs(vals))


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_degenerate_node_set_is_an_axis_of_k_nodes(axis, degree, rng):
    """A window with k nodes on one axis cannot carry a degree-k fit, and the
    oracle's rank test says so too; with k + 1 nodes both fit, and agree."""
    spec = GridSpec(2, 8.0, 65)
    ball = Ball((0.0, 0.0), 4.0)
    for nodes in (degree, degree + 1):
        slices = [slice(16, 49)] * 2
        slices[axis] = slice(30, 30 + nodes)
        slices = tuple(slices)
        vals = rng.normal(size=tuple(s.stop - s.start for s in slices))
        if nodes == degree:
            for fit in (_fit, _oracle_fit):
                with pytest.raises(ValueError, match="degenerate node set"):
                    fit(vals, spec, slices, ball, degree)
        else:
            diff = _fit(vals, spec, slices, ball, degree) - _oracle_fit(vals, spec, slices, ball, degree)
            assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(vals))


def test_reproduces_polynomials(spec1d):
    f = from_callable(spec1d, lambda x: 1.0 - 2.0 * x + 0.5 * x**2)
    ball = Ball((0.5,), 2.0)
    proj = poly_project_grid(f, ball, 2)
    sl = region_slices(spec1d, ball)
    err = np.max(np.abs(proj.values[sl] - f.values[sl]))
    assert err < 1e-10


def test_cubic_closed_form_oracle():
    """Projection of x^3 onto degree 2 on [-r, r] is (3 r^2 / 5) x."""
    spec = GridSpec(1, 2.0, 513)
    f = from_callable(spec, lambda x: x**3)
    r = 1.0
    ball = Ball((0.0,), r)
    proj = poly_project_grid(f, ball, 2)
    sl = region_slices(spec, ball)
    x = spec.axis()[sl[0]]
    assert np.array_equal(x, -x[::-1])  # the window is symmetric about 0
    window = proj.values[sl]
    # the even part is the constant and quadratic terms, the odd part the linear one
    even = (window + window[::-1]) / 2.0
    odd = (window - window[::-1]) / 2.0
    assert np.max(np.abs(even)) < 2e-10
    # discrete moments differ from the continuous ones by O(spacing) at the
    # ball edge, which propagates into the fitted slope
    nonzero = x != 0.0
    slope = odd[nonzero] / x[nonzero]
    assert slope == pytest.approx(np.full(slope.shape, 3.0 * r**2 / 5.0), rel=4.0 * spec.spacing)


def test_idempotence(spec1d, rng):
    f = random_smooth_field(spec1d, rng)
    ball = Ball((-1.0,), 2.0)
    proj = poly_project_grid(f, ball, 2)
    again = poly_project_grid(proj, ball, 2)
    assert np.max(np.abs(again.values - proj.values)) < 1e-10 * (
        1.0 + np.max(np.abs(proj.values))
    )
    outside = np.ones(spec1d.shape, dtype=bool)
    outside[region_slices(spec1d, ball)] = False
    assert np.all(proj.values[outside] == 0.0)
    assert np.all(again.values[outside] == 0.0)


def test_residual_orthogonality(spec1d, rng):
    f = random_smooth_field(spec1d, rng)
    ball = Ball((0.0,), 2.0)
    proj = poly_project_grid(f, ball, 2)
    sl = region_slices(spec1d, ball)
    w = region_values(f, sl)[1]
    resid = f.values[sl] - proj.values[sl]
    x = spec1d.axis()[sl[0]]
    scale = np.sum(w * np.abs(f.values[sl]))
    for a in range(3):
        ip = float(np.sum(w * resid * ((x - 0.0) / ball.radius) ** a))
        assert abs(ip) < 1e-10 * max(scale, 1.0)


def test_best_approximation(spec1d, rng):
    f = random_smooth_field(spec1d, rng)
    ball = Ball((0.0,), 2.0)
    proj = poly_project_grid(f, ball, 1)
    sl = region_slices(spec1d, ball)
    w = region_values(f, sl)[1]
    x = spec1d.axis()[sl[0]]
    best = float(np.sum(w * (f.values[sl] - proj.values[sl]) ** 2))
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
    proj = poly_project_grid(f, ball, 1)
    sl = region_slices(spec, ball)
    w = region_values(f, sl)[1]
    resid = np.abs(f.values[sl] - proj.values[sl])
    mean_resid = float(np.sum(w * resid) / np.sum(w))
    assert mean_resid == pytest.approx(r / 4.0, rel=0.02)


def test_campanato_degree_validation(spec1d, rng):
    f = random_smooth_field(spec1d, rng)
    with pytest.raises(ValueError, match="degree"):
        campanato_ratio(f, Ball((0.0,), 1.0), LipschitzOrder(1.5), degree=1)
