import math

import numpy as np
import pytest

from hardylab import lipschitz
from hardylab.generators import b_field
from hardylab.grid import GridFunction, GridSpec
from hardylab.lipschitz import (
    LipschitzOrder,
    SeminormScan,
    _chain_terms,
    _difference_cap,
    difference_op,
    lambda_gamma_norm,
    seminorm_scan,
)
from scalar_oracles import _delta_candidates, _visiting_order, from_callable, seminorm_full_scan


def test_order_fields():
    assert LipschitzOrder(0.3).k == 0
    assert LipschitzOrder(1.0).k == 1
    assert LipschitzOrder(1.5).k == 1
    with pytest.raises(ValueError):
        LipschitzOrder(0.0)


def test_first_difference_of_identity(spec1d):
    f = from_callable(spec1d, lambda x: x)
    d = 5
    out = difference_op(f, (d,), 1)
    delta = d * spec1d.spacing
    assert np.max(np.abs(out - delta)) < 1e-12


def test_second_difference_of_square(spec1d):
    f = from_callable(spec1d, lambda x: x**2)
    d = 3
    out = difference_op(f, (d,), 2)
    delta = d * spec1d.spacing
    assert np.max(np.abs(out - 2.0 * delta**2)) < 1e-10


def test_second_difference_annihilates_affine(spec1d):
    f = from_callable(spec1d, lambda x: 3.0 * x - 1.0)
    out = difference_op(f, (4,), 2)
    assert np.max(np.abs(out)) < 1e-12


def test_difference_domain_shrink(spec1d):
    f = from_callable(spec1d, lambda x: x)
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
    f = from_callable(spec2d, lambda x, y: x + 2.0 * y)
    out = difference_op(f, (1, 2), 2)
    assert np.max(np.abs(out)) < 1e-12


def test_lambda_norm_constant(spec1d):
    f = GridFunction.constant(spec1d, -4.0)
    order = LipschitzOrder(0.5)
    assert seminorm_scan(f, order).value == 0.0
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
    assert seminorm_scan(f, order).value <= lambda_gamma_norm(f, order)


def test_linear_function_zero_seminorm(spec1d):
    # gamma in (1, 2) uses second differences, which kill affine functions
    f = from_callable(spec1d, lambda x: 2.0 * x)
    assert seminorm_scan(f, LipschitzOrder(1.5)).value < 1e-10


def test_abs_refinement_stability():
    """sup ratio for |x| at gamma = 1/2, stable across a grid refinement."""
    vals = []
    for m in (129, 257):
        spec = GridSpec(1, 1.0, m)
        f = from_callable(spec, lambda x: np.abs(x))
        vals.append(lambda_gamma_norm(f, LipschitzOrder(0.5)))
    assert vals[1] == pytest.approx(vals[0], rel=0.15)


def test_cusp_family_distinguishes_spaces():
    # x|x|^(gamma-1) has finite seminorm but sup norm growing with the box
    gamma = 0.5
    order = LipschitzOrder(gamma)
    semis, sups = [], []
    for R in (1.0, 4.0):
        spec = GridSpec(1, R, 257)
        f = from_callable(
            spec, lambda x: np.sign(x) * np.abs(x) ** gamma
        )
        semis.append(seminorm_scan(f, order).value)
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


def _field(spec, kind, gamma):
    if kind == "affine":
        return from_callable(
            spec, lambda *x: 0.5 + sum((j + 1.5) * xj for j, xj in enumerate(x))
        )
    params = {"random-lipschitz": {"gamma": gamma}, "constant": {"value": -3.0}}.get(kind, {})
    return b_field(spec, kind, np.random.default_rng(7), **params)


# the constant and affine fields visit every displacement, so they skip the costly
# m=129; the step and regularized-log fields skip it too, for time
ORACLE_CASES = [
    (dim, m, gamma, kind)
    for dim, m in [(1, 4097), (2, 65), (2, 129)]
    for gamma in (0.5, 1.5, 2.0, 3.0)
    for kind in (
        "random-smooth", "random-lipschitz", "random-bmo", "constant", "affine", "step",
        "regularized-log",
    )
    if m < 129 or kind.startswith("random")
]


@pytest.mark.parametrize("dim, m, gamma, kind", ORACLE_CASES)
def test_seminorm_equals_full_scan(dim, m, gamma, kind):
    """The branch-and-bound returns the full raster scan's float."""
    f = _field(GridSpec(dim, 8.0, m), kind, gamma)
    order = LipschitzOrder(gamma)
    assert seminorm_scan(f, order).value == seminorm_full_scan(f, order)


def _visits(monkeypatch, f, order):
    calls = []

    def counted(g, delta, k):
        calls.append(delta)
        return difference_op(g, delta, k)

    monkeypatch.setattr(lipschitz, "difference_op", counted)
    seminorm_scan(f, order).value
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("dim, m", [(1, 1025), (2, 65)])
def test_seminorm_stops_early_on_rough_fields(monkeypatch, dim, m):
    """A random-bmo field wins at the shortest displacements and the cap ends the
    scan there.  A constant field's differences of order k + 1 <= 2 are exact
    zeros, so its cap is 0 and the scan visits none; at higher orders it never
    beats 0, and the scan visits every one."""
    spec = GridSpec(dim, 8.0, m)
    order = LipschitzOrder(0.5)
    total = len(list(_delta_candidates(GridFunction.zeros(spec), order.k + 1)))
    assert _visits(monkeypatch, _field(spec, "random-bmo", 0.5), order) < total // 100
    for gamma in (0.5, 1.5, 2.0):
        order = LipschitzOrder(gamma)
        total = len(_delta_candidates(GridFunction.zeros(spec), order.k + 1))
        visits = 0 if gamma < 2 else total
        f = _field(spec, "constant", gamma)
        assert seminorm_scan(f, order) == SeminormScan(0.0, visits, total)
        assert _visits(monkeypatch, f, order) == visits


def test_constant_cap_is_zero_while_exact():
    """The cap of a constant is 0 for k + 1 <= 2 while 2|c| is a float, and the
    former cap at k + 1 = 3, or where 2|c| overflows (there 2^2 |c| does too)."""
    spec = GridSpec(1, 8.0, 129)
    for c in (-3.0, 0.0, 8e307):
        assert _difference_cap(GridFunction.constant(spec, c), 0) == 0.0
        assert _difference_cap(GridFunction.constant(spec, c), 1) == 0.0
    assert _difference_cap(GridFunction.constant(spec, -3.0), 2) == 8 * 3.0 * 1e-12
    assert _difference_cap(GridFunction.constant(spec, 1e308), 1) == math.inf


@pytest.mark.parametrize("kind", ["random-smooth", "random-lipschitz"])
@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_chain_bound_prunes_smooth_fields(monkeypatch, kind, gamma):
    """On smooth and Lipschitz fields the chain bound leaves fewer than 5% of the
    displacements to evaluate, and the scan reports what it evaluated."""
    spec = GridSpec(2, 8.0, 65)
    order = LipschitzOrder(gamma)
    f = _field(spec, kind, gamma)
    total = len(_delta_candidates(f, order.k + 1))
    visits = _visits(monkeypatch, f, order)
    assert visits < 0.05 * total
    scan = seminorm_scan(f, order)
    assert scan == SeminormScan(scan.value, visits, total)


@pytest.mark.parametrize("dim, m", [(1, 17), (1, 4097), (2, 17), (2, 65), (2, 129)])
def test_denominators_nondecreasing_in_visiting_order(dim, m):
    """(spacing |delta|)^gamma never falls along the visiting order, and ties in
    |delta|^2 give equal floats: the stop rule relies on both."""
    spec = GridSpec(dim, 8.0, m)
    f = GridFunction.zeros(spec)
    for gamma in (0.3, 0.5, 0.999, 1.0, 1.5, 2.0, 2.7, 3.9):
        order = LipschitzOrder(gamma)
        pairs = [
            (sum(s * s for s in steps), (spec.spacing * math.hypot(*steps)) ** gamma)
            for steps in _visiting_order(f, order.k + 1)
        ]
        for (n0, d0), (n1, d1) in zip(pairs, pairs[1:]):
            assert n0 <= n1 and d0 <= d1
            assert n0 < n1 or d0 == d1


@pytest.mark.parametrize("dim, m", [(1, 16), (1, 257), (2, 16), (2, 17), (2, 65)])
def test_visiting_order_matches_former_sort(dim, m):
    """The numpy stable argsort gives the order of Python's stable sort of the
    raster candidates by |delta|^2."""
    f = GridFunction.zeros(GridSpec(dim, 8.0, m))
    for k in (1, 2, 3):
        former = sorted(_delta_candidates(f, k), key=lambda steps: sum(s * s for s in steps))
        assert _visiting_order(f, k) == former


def test_visiting_order_is_a_stable_sort():
    """Increasing |delta|^2, ties in the raster order of _delta_candidates."""
    f = GridFunction.zeros(GridSpec(2, 8.0, 17))
    order = _visiting_order(f, 2)
    assert sorted(order) == sorted(_delta_candidates(f, 2))
    assert order[:10] == [
        (0, 1), (1, 0), (1, -1), (1, 1), (0, 2), (2, 0), (1, -2), (1, 2), (2, -1), (2, 1),
    ]


def test_seminorm_without_displacements_raises():
    """gamma too large for the grid: no stencil fits, and 0 would be no answer."""
    spec = GridSpec(1, 8.0, 129)
    f = from_callable(spec, lambda x: x**2)
    for gamma in (127.5, 1e300):
        assert not LipschitzOrder(gamma).fits(spec)
        with pytest.raises(ValueError, match="no lattice displacement"):
            seminorm_scan(f, LipschitzOrder(gamma)).value
    assert LipschitzOrder(126.5).fits(spec)  # one displacement, of one step
    assert seminorm_scan(f, LipschitzOrder(126.5)).value >= 0.0


@pytest.mark.parametrize("m", [16, 17, 129])
def test_fits_matches_candidates(m):
    for dim in (1, 2):
        spec = GridSpec(dim, 8.0, m)
        f = GridFunction.zeros(spec)
        for gamma in (0.5, 1.0, 1.5, m - 3.5, m - 2.5, m - 1.5, m + 0.5):
            order = LipschitzOrder(gamma)
            assert order.fits(spec) == bool(list(_delta_candidates(f, order.k + 1)))


def test_cap_overflow_means_full_scan():
    """Where 2^(k+1) overflows the cap is inf: no displacement is pruned."""
    # spacing 1, and values small enough that C(1024, 512) ~ 4e305 times them is finite
    f = GridFunction(GridSpec(1, 549.5, 1100), 1e-300 * np.random.default_rng(3).normal(size=1100))
    assert _difference_cap(f, 1023) == math.inf
    assert _difference_cap(f, 10**6) == math.inf
    order = LipschitzOrder(1023.5)
    assert seminorm_scan(f, order).value == seminorm_full_scan(f, order)


@pytest.mark.parametrize("amplitude, visits", [(1e-300, 1), (1e-3, 2)])
def test_chain_overflow_prunes_nothing(monkeypatch, amplitude, visits):
    """At k = 1023 the growth (k+1) 2^k D1 of the chain is a float for values
    near 1e-300, and the chain skips the second of the two displacements; for
    values near 1e-3 it overflows to inf, which prunes nothing, and no overflow
    warning escapes.  The cap is inf in both."""
    # spacing 1: (spacing |delta|)^1023.5 is a float for |delta| = 1 and 2
    spec = GridSpec(1, 1025.0, 2051)
    f = GridFunction(spec, amplitude * np.random.default_rng(3).normal(size=spec.shape))
    order = LipschitzOrder(1023.5)
    assert len(_delta_candidates(f, order.k + 1)) == 2
    assert _difference_cap(f, order.k) == math.inf
    assert (_chain_terms(f, order.k)[0] == [math.inf]) == (visits == 2)
    assert seminorm_scan(f, order).value == seminorm_full_scan(f, order)
    assert _visits(monkeypatch, f, order) == visits


@pytest.mark.parametrize("dim, m", [(1, 257), (2, 33)])
@pytest.mark.parametrize("gamma, amplitude", [(0.5, 8e307), (1.5, 4e307)])
@pytest.mark.parametrize("kind", ["random-smooth", "random-bmo"])
def test_chain_bound_near_float_max(dim, m, gamma, amplitude, kind):
    """Values near +-1e308 whose differences are still floats: a sum of the chain
    can overflow to inf, which prunes nothing, no overflow warning escapes, and
    the float is the full scan's."""
    spec = GridSpec(dim, 0.5 * (m - 1), m)  # spacing 1, so no quotient exceeds its D
    g = _field(spec, kind, gamma).values
    f = GridFunction(spec, amplitude / np.max(np.abs(g)) * g)
    order = LipschitzOrder(gamma)
    assert seminorm_scan(f, order).value == seminorm_full_scan(f, order)


def test_difference_coefficients_beyond_float_range():
    f = GridFunction.zeros(GridSpec(1, 8.0, 4097))
    with pytest.raises(ValueError, match="beyond float range"):
        difference_op(f, (1,), 1101)


@pytest.mark.parametrize("halfwidth, m, gamma", [(8.0, 4097, 200.5), (1e10, 129, 40.0)])
def test_denominator_beyond_float_range_raises(halfwidth, m, gamma):
    """(spacing |delta|)^gamma underflows to 0 or overflows at the first
    displacement: no quotient is a float."""
    f = from_callable(GridSpec(1, halfwidth, m), lambda x: np.cos(x / halfwidth))
    with pytest.raises(ValueError, match="beyond float range"):
        seminorm_scan(f, LipschitzOrder(gamma)).value
