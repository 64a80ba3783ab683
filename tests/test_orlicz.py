import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from hardylab.atoms import synthesize
from hardylab.generators import random_decomposition
from hardylab.grid import (
    Ball,
    GridFunction,
    GridSpec,
    box_rows,
    integrate,
    lp_norm,
    unit_cubes,
)
from hardylab.lipschitz import LipschitzOrder
from hardylab.maximal import maximal_fn
from hardylab import orlicz
from hardylab.orlicz import (
    _certificate,
    _luxembourg_rows,
    PHI,
    hardy_phi_star_quasinorm,
    hardy_quasinorm,
    lphi_star_norm,
    luxembourg_norm,
    phi,
)
from scalar_oracles import (
    LINEAR,
    bisect,
    luxembourg_bisection,
    luxembourg_row,
    luxembourg_scan_oracle,
    maximal_taps,
)


def test_phi_values():
    assert phi(0.0) == 0.0
    assert phi(1.0) == pytest.approx(1.0 / math.log(math.e + 1.0))
    t = math.e**2 - math.e
    assert phi(t) == pytest.approx(t / 2.0)
    with pytest.raises(ValueError):
        phi(-1.0)


def test_phi_monotone_and_below_identity():
    t = np.linspace(0, 50, 1001)
    vals = phi(t)
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals <= t + 1e-15)


def test_luxembourg_zero(spec1d):
    assert luxembourg_norm(GridFunction.zeros(spec1d), PHI) == 0.0


def test_luxembourg_linear_is_l1(spec1d, rng):
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    assert luxembourg_norm(f, LINEAR) == pytest.approx(lp_norm(f, 1.0), rel=1e-9)


def test_luxembourg_homogeneity(spec1d, rng):
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    lam = 3.7
    assert luxembourg_norm(f.with_values(lam * f.values), PHI) == pytest.approx(
        lam * luxembourg_norm(f, PHI), rel=1e-8
    )


def test_luxembourg_constant_on_cube_root_oracle(spec1d):
    """c * 1_Q has norm c/t* where Phi(t*) = 1; t* from an independent root."""
    cube = unit_cubes(spec1d)[(0,)]
    c = 5.0
    vals = np.zeros(spec1d.shape)
    vals[cube] = c
    f = GridFunction(spec1d, vals)
    t_star = brentq(lambda t: t / math.log(math.e + t) - 1.0, 1.0, 10.0, xtol=1e-12)
    assert luxembourg_norm(f, PHI, cube) == pytest.approx(c / t_star, rel=1e-6)


def test_luxembourg_gauge_at_norm(spec1d, rng):
    f = GridFunction(spec1d, np.abs(rng.normal(size=spec1d.shape)) + 0.1)
    k = luxembourg_norm(f, PHI)
    w = spec1d.weights()
    gauge = float(np.sum(w * PHI(np.abs(f.values) / k)))
    assert 1.0 - 1e-6 <= gauge <= 1.0


def test_luxembourg_matches_scan_oracle(spec1d, rng):
    for _ in range(5):
        f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
        a = luxembourg_norm(f, PHI)
        b = luxembourg_scan_oracle(f, PHI)
        assert a == pytest.approx(b, rel=1e-6)


def _spike(spec, value, count=1):
    """`count` consecutive interior nodes (in raster order) at `value`."""
    vals = np.zeros(spec.shape).ravel()
    vals[100 : 100 + count] = value
    return GridFunction(spec, vals.reshape(spec.shape))


def _gauge(f, k):
    return float(np.sum(f.spec.weights() * PHI(np.abs(f.values) / k)))


def test_luxembourg_tiny_norm_oracles(spec1d):
    """At 1e-160 the bracket-end product underflows; the norm stays exact."""
    value = 1e-160
    f = _spike(spec1d, value)
    k = luxembourg_norm(f, PHI)
    assert k > 0 and _gauge(f, k) <= 1.0
    oracle = luxembourg_scan_oracle(f, PHI, points=1000, passes=3)
    assert k == pytest.approx(oracle, rel=1e-6)
    # one node of weight w: w * Phi(value / k) = 1
    w = spec1d.spacing
    t_star = brentq(lambda t: w * t / math.log(math.e + t) - 1.0, 1.0, 1e4, xtol=1e-12)
    assert k == pytest.approx(value / t_star, rel=1e-6)


@pytest.mark.parametrize("value", [1e-160, 1e-300, 2e-306, 1e300])
def test_luxembourg_extreme_scale_homogeneity(spec1d, value):
    """The relative bracket stays below 1e-9 wherever k is a normal float."""
    k = luxembourg_norm(_spike(spec1d, value), PHI)
    unit = luxembourg_norm(_spike(spec1d, 1.0), PHI)
    assert k >= sys.float_info.min
    assert k == pytest.approx(value * unit, rel=2e-9)


def _regions_at_spike(spec):
    """The box (None), a ball and the unit cube around node 100 of _spike."""
    node = np.unravel_index(100, spec.shape)
    center = tuple(spec.axis()[i] for i in node)
    (cube,) = [
        box for box in unit_cubes(spec).values()
        if all(s.start <= i < s.stop for s, i in zip(box, node))
    ]
    return [None, Ball(center, 0.75), cube]


@pytest.mark.parametrize(
    "spec_name, value, count",
    [
        ("spec1d", 1e-310, 1),
        ("spec1d", 1e-322, 1),
        ("spec2d", 1e-320, 40),
        ("spec1d", 1e308, 257),
        *[(name, value, 1) for name in ("spec1d", "spec2d")
          for value in (0.0, 1e-194, 2.4e-321, 1e300)],
    ],
)
def test_luxembourg_float_range_ends(request, spec_name, value, count):
    """Subnormal norms and norms beyond the float range still give gauge(k) <= 1.
    On the box, a ball and a unit cube, under PHI and LINEAR, the one-row
    lockstep bisection equals the scalar bisection bit for bit."""
    spec = request.getfixturevalue(spec_name)
    f = _spike(spec, value, count)
    k = luxembourg_norm(f, PHI)
    if value == 0.0:
        assert k == 0.0
    else:
        assert k > 0 and _gauge(f, k) <= 1.0
    for region in _regions_at_spike(spec):
        for P in (PHI, LINEAR):
            assert luxembourg_norm(f, P, region) == luxembourg_bisection(f, P, region)


def test_luxembourg_huge_box():
    """A constant 1 on a box of measure 4e200 has norm near that measure, which
    takes far more than 200 doublings to bracket from the sup of f."""
    f = GridFunction.constant(GridSpec(2, 1e100, 17), 1.0)
    assert luxembourg_norm(f, PHI) == pytest.approx(integrate(f), rel=1e-6)


def test_quasi_subadditivity_spot(spec1d, rng):
    for _ in range(20):
        f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
        g = GridFunction(spec1d, rng.normal(size=spec1d.shape))
        s = luxembourg_norm(f.with_values(f.values + g.values), PHI)
        assert s <= 4.0 * (luxembourg_norm(f, PHI) + luxembourg_norm(g, PHI))


def test_lphi_star_zero_and_single_cube(spec1d):
    assert lphi_star_norm(GridFunction.zeros(spec1d)) == 0.0
    cube = unit_cubes(spec1d)[(2,)]
    vals = np.zeros(spec1d.shape)
    vals[cube] = 1.5
    f = GridFunction(spec1d, vals)
    assert lphi_star_norm(f) == luxembourg_bisection(f, PHI, cube)


@pytest.mark.parametrize("spec", ["spec1d", "spec2d", GridSpec(2, 8.0, 65)], ids=str)
def test_lphi_star_lockstep_matches_cube_loop(request, spec, rng):
    """The lockstep bisection gives every cube its scalar-bisection norm, bit
    for bit: on a maximal function, on all-zero cubes and on the two underflow
    cases of the bracket (one node at 1e-194, and one at the subnormal
    2.4e-321).  So it does with every cube shape in one call, as
    lphi_star_norm makes it, and with one shape per call; 2d m=65 on
    [-8, 8]^2 has 9 cube shapes."""
    if isinstance(spec, str):
        spec = request.getfixturevalue(spec)
    boxes = list(unit_cubes(spec).values())
    vals = np.array(maximal_fn(GridFunction(spec, rng.normal(size=spec.shape))).values)
    for box in boxes[:2] + boxes[-2:]:
        vals[box] = 0.0
    for box, tiny in zip(boxes[1:3], (1e-194, 2.4e-321)):
        vals[box] = 0.0
        vals[box][(1,) * spec.dim] = tiny
    f = GridFunction(spec, vals)
    norms = [luxembourg_bisection(f, PHI, box) for box in boxes]
    assert norms[0] == 0.0 and 0.0 < norms[2] < sys.float_info.min
    assert lphi_star_norm(f) == sum(norms)
    # and cube by cube: the lockstep rows are the scalar norms
    starts = np.array([[s.start for s in box] for box in boxes])
    shapes = np.array([[s.stop - s.start for s in box] for box in boxes])
    batches = list(box_rows(f, starts, shapes, f.values.size))
    if spec == GridSpec(2, 8.0, 65):
        assert len(batches) == 9
    blocks = []
    for cubes, v, w in batches:
        blocks.append((np.abs(v), w))
        assert _luxembourg_rows(blocks[-1:], PHI).tolist() == [norms[i] for i in cubes]
    order = np.concatenate([cubes for cubes, _, _ in batches])
    assert _luxembourg_rows(blocks, PHI).tolist() == [norms[i] for i in order]


@pytest.mark.parametrize("m", [65, 257])
def test_lphi_star_gauge_work_guard(m):
    """The certificate decides almost every step of the replayed bisection: on
    2d m=65 and m=257 over [-8, 8]^2, one lphi_star_norm evaluates PHI at most
    10 times (the lockstep without it takes 36 rounds at m=65)."""
    spec = GridSpec(2, 8.0, m)
    f = maximal_fn(synthesize(random_decomposition(spec, np.random.default_rng(3), p=1.0, s=0)))
    calls, gauge = [], PHI.eval

    def counted(t):
        calls.append(1)
        return gauge(t)

    # PHI is frozen: patch its eval in place, as perfbench counts gauge evaluations
    object.__setattr__(PHI, "eval", counted)
    try:
        assert lphi_star_norm(f) > 0
    finally:
        object.__setattr__(PHI, "eval", gauge)
    assert 0 < len(calls) <= 10


def _no_certificate(blocks, P):
    rows = sum(len(v) for v, _ in blocks)
    return np.full(rows, np.nan), np.full(rows, np.nan)


@pytest.mark.parametrize("vmax", [1.0, 3.7, 1e-100])
@pytest.mark.parametrize("step", [0, 5, 20])
@pytest.mark.parametrize("n", [1, 7, 30])
def test_certificate_leaves_a_root_on_a_midpoint_to_the_gauge(monkeypatch, vmax, step, n):
    """A constant row vmax with weights 1 / (n Phi(t*)) has its norm at
    vmax / t*, within rounding; t* is chosen so that this is the midpoint the
    bisection tries at the given step.  The certificate brackets that
    midpoint, so the gauge decides it, and the norm is the scalar
    bisection's, with the certificate and without it."""
    mids = []
    bisect(lambda k: 0.5 if k >= 0.8 * vmax else 2.0, vmax, mids)
    k_star = mids[step]
    t_star = vmax / k_star
    v = np.full((1, n), vmax)
    w = np.full((1, n), 1.0 / (n * float(PHI(t_star))))
    tried = []
    bisect(lambda k: float(np.sum(w * PHI(v / k))), vmax, tried)
    assert tried[step] == k_star
    lo, hi = _certificate([(v, w)], PHI)
    assert lo[0] < k_star < hi[0]
    # beside a row the certificate decides throughout
    blocks = [(np.vstack([v, 2.0 * v]), np.vstack([w, w]))]
    oracle = [luxembourg_row(row, weights, PHI) for row, weights in zip(*blocks[0])]
    assert _luxembourg_rows(blocks, PHI).tolist() == oracle
    monkeypatch.setattr(orlicz, "_certificate", _no_certificate)
    assert _luxembourg_rows(blocks, PHI).tolist() == oracle


def _certificate_cases(spec, rng):
    """The maximal function of a random field at scales from 1e-300 to 1e300
    and at a subnormal max, each with one all-zero cube."""
    f = maximal_fn(GridFunction(spec, rng.normal(size=spec.shape)))
    for scale in (1.0, 3.7, 1e-150, 1e150, 1e-300, 1e300, 5e-320 / f.values.max()):
        vals = f.values * scale
        vals[unit_cubes(spec)[(0,) * spec.dim]] = 0.0
        yield GridFunction(spec, vals)


@pytest.mark.parametrize("spec", ["spec1d", "spec2d", GridSpec(2, 8.0, 65)], ids=str)
def test_certificate_moves_no_float(request, monkeypatch, spec, rng):
    """lphi_star_norm and luxembourg_norm under PHI and LINEAR give the same
    floats with the certificate and without it; at unit scale the certificate
    covers every nonzero cube."""
    if isinstance(spec, str):
        spec = request.getfixturevalue(spec)
    cases = list(_certificate_cases(spec, rng))

    def norms():
        return [(lphi_star_norm(f), luxembourg_norm(f, PHI), luxembourg_norm(f, LINEAR))
                for f in cases]

    certified, certificate = [], orlicz._certificate

    def recorded(blocks, P):
        lo, hi = certificate(blocks, P)
        certified.append(np.count_nonzero(lo < hi))
        return lo, hi

    monkeypatch.setattr(orlicz, "_certificate", recorded)
    with_certificate = norms()
    assert certified[0] == len(unit_cubes(spec)) - 1
    monkeypatch.setattr(orlicz, "_certificate", _no_certificate)
    assert norms() == with_certificate


def test_lphi_star_translation_additivity(spec1d):
    """Equal mass on two interior unit cubes doubles the single-cube value."""
    c = 2.0
    single = np.zeros(spec1d.shape)
    single[unit_cubes(spec1d)[(0,)]] = c
    double = np.array(single)
    double[unit_cubes(spec1d)[(-1,)]] = c
    one = lphi_star_norm(GridFunction(spec1d, single))
    two = lphi_star_norm(GridFunction(spec1d, double))
    assert two == pytest.approx(2.0 * one, rel=1e-9)


def test_lphi_star_dominated_by_l1_side(spec1d, rng):
    # Phi(t) <= t makes each per-cube norm at least the zero norm; the sum is
    # finite on anything bounded, and the ratio against L^Phi is logged
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    whole = luxembourg_norm(f, PHI)
    star = lphi_star_norm(f)
    assert np.isfinite(star) and star > 0
    assert star >= whole * 0.5


def test_hardy_quasinorm_basics(spec1d, rng):
    assert hardy_quasinorm(GridFunction.zeros(spec1d), 1.0) == 0.0
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    lam = 2.5
    assert hardy_quasinorm(f.with_values(lam * f.values), 0.8) == pytest.approx(
        lam * hardy_quasinorm(f, 0.8), rel=1e-10
    )
    with pytest.raises(ValueError):
        hardy_quasinorm(f, 1.5)


def test_hardy_phi_star_zero(spec1d):
    assert hardy_phi_star_quasinorm(GridFunction.zeros(spec1d)) == 0.0


def test_hardy_local_below_full(spec1d, rng):
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    assert hardy_quasinorm(f, 1.0, local=True) <= hardy_quasinorm(f, 1.0) + 1e-12


@pytest.mark.parametrize("p", [1.0, 0.8, 0.5, 0.4])
@pytest.mark.parametrize("spec_name", ["spec1d", "spec2d"])
def test_hardy_norms_match_tap_sum_oracle(request, spec_name, p):
    """The FFT maximal function's absolute round-off leaves the Hardy norms of a
    random decomposition within 1e-12 relative of the tap sum's, down to p = 0.4."""
    spec = request.getfixturevalue(spec_name)
    s = 0 if p == 1.0 else LipschitzOrder.dual_to(p, spec.dim).min_atom_s
    h = synthesize(random_decomposition(spec, np.random.default_rng(7), p=p, s=s))
    mf = maximal_taps(h)
    assert hardy_quasinorm(h, p) == pytest.approx(lp_norm(mf, p), rel=1e-12)
    assert hardy_phi_star_quasinorm(h) == pytest.approx(lphi_star_norm(mf), rel=1e-12)
