import numpy as np
import pytest

from hardylab.grid import GridFunction, GridSpec
from hardylab.lipschitz import (
    LipschitzOrder,
    _delta_candidates,
    difference_op,
    homogeneous_seminorm,
    lambda_gamma_norm,
)


def test_order_fields():
    assert LipschitzOrder(0.3).k == 0
    assert LipschitzOrder(1.0).k == 1
    assert LipschitzOrder(1.5).k == 1
    with pytest.raises(ValueError):
        LipschitzOrder(0.0)


def test_first_difference_of_identity(spec1d):
    f = GridFunction.from_callable(spec1d, lambda x: x)
    d = 5
    out = difference_op(f, (d,), 1)
    delta = d * spec1d.spacing
    assert np.max(np.abs(out - delta)) < 1e-12


def test_second_difference_of_square(spec1d):
    f = GridFunction.from_callable(spec1d, lambda x: x**2)
    d = 3
    out = difference_op(f, (d,), 2)
    delta = d * spec1d.spacing
    assert np.max(np.abs(out - 2.0 * delta**2)) < 1e-10


def test_second_difference_annihilates_affine(spec1d):
    f = GridFunction.from_callable(spec1d, lambda x: 3.0 * x - 1.0)
    out = difference_op(f, (4,), 2)
    assert np.max(np.abs(out)) < 1e-12


def test_difference_domain_shrink(spec1d):
    f = GridFunction.from_callable(spec1d, lambda x: x)
    m = spec1d.points_per_axis
    out = difference_op(f, (10,), 2)
    assert out.shape == (m - 20,)
    big = difference_op(f, (m,), 1)
    assert big.size == 0


def test_off_lattice_rejected(spec1d):
    f = GridFunction.zeros(spec1d)
    with pytest.raises(ValueError, match="off-lattice"):
        difference_op(f, (0.5,), 1)
    with pytest.raises(ValueError):
        difference_op(f, (0,), 1)


def test_difference_2d_mixed(spec2d):
    f = GridFunction.from_callable(spec2d, lambda x, y: x + 2.0 * y)
    out = difference_op(f, (1, 2), 2)
    assert np.max(np.abs(out)) < 1e-12


def test_lambda_norm_constant(spec1d):
    f = GridFunction.constant(spec1d, -4.0)
    order = LipschitzOrder(0.5)
    assert homogeneous_seminorm(f, order) == 0.0
    assert lambda_gamma_norm(f, order) == 4.0


def test_lambda_norm_homogeneity(spec1d, rng):
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    order = LipschitzOrder(0.7)
    lam = 2.0
    assert lambda_gamma_norm(f.with_values(lam * f.values), order) == pytest.approx(
        lam * lambda_gamma_norm(f, order), rel=1e-12
    )


def test_seminorm_below_norm(spec1d, rng):
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    order = LipschitzOrder(0.5)
    assert homogeneous_seminorm(f, order) <= lambda_gamma_norm(f, order)


def test_linear_function_zero_seminorm(spec1d):
    # gamma in (1, 2) uses second differences, which kill affine functions
    f = GridFunction.from_callable(spec1d, lambda x: 2.0 * x)
    assert homogeneous_seminorm(f, LipschitzOrder(1.5)) < 1e-10


def test_abs_refinement_stability():
    """sup ratio for |x| at gamma = 1/2, stable across a grid refinement."""
    vals = []
    for m in (129, 257):
        spec = GridSpec(1, 1.0, m)
        f = GridFunction.from_callable(spec, lambda x: np.abs(x))
        vals.append(lambda_gamma_norm(f, LipschitzOrder(0.5)))
    assert vals[1] == pytest.approx(vals[0], rel=0.15)


def test_cusp_family_distinguishes_spaces():
    # x|x|^(gamma-1) has finite seminorm but sup norm growing with the box
    gamma = 0.5
    order = LipschitzOrder(gamma)
    semis, sups = [], []
    for R in (1.0, 4.0):
        spec = GridSpec(1, R, 257)
        f = GridFunction.from_callable(
            spec, lambda x: np.sign(x) * np.abs(x) ** gamma
        )
        semis.append(homogeneous_seminorm(f, order))
        sups.append(float(np.max(np.abs(f.values))))
    assert sups[1] > 1.5 * sups[0]
    assert semis[1] == pytest.approx(semis[0], rel=0.5)


def _former_delta_candidates(f, k):  # the per-dimension half-space, kept as reference
    m = f.spec.points_per_axis
    max_step = (m - 1) // (k + 1)
    if f.spec.dim == 1:
        for d in range(1, max_step + 1):
            yield (d,)
        return
    for d1 in range(0, max_step + 1):
        lo = 1 if d1 == 0 else -max_step
        for d2 in range(lo, max_step + 1):
            if d1 == 0 and d2 <= 0:
                continue
            yield (d1, d2)


@pytest.mark.parametrize("dim, m", [(1, 16), (1, 17), (1, 257), (2, 16), (2, 17), (2, 65)])
def test_delta_candidates_match_former_branches(dim, m):
    f = GridFunction.zeros(GridSpec(dim, 1.0, m))
    for k in (1, 2, 3):
        candidates = list(_delta_candidates(f, k))
        assert candidates == list(_former_delta_candidates(f, k))
        # no stencil spans the box, so no difference has an empty domain
        assert all(difference_op(f, steps, k).size > 0 for steps in candidates)
