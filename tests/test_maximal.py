import itertools
import math

import numpy as np
import pytest
from scipy.signal import convolve

from hardylab.generators import random_smooth_field, step_field
from hardylab.grid import GridFunction, GridSpec, dyadic_scales
from hardylab.maximal import _kernel, bump_profile, convolve_dilated, maximal_fn
from scalar_oracles import from_callable, maximal_taps, meshes


def _indicator(spec, lo, hi):
    return from_callable(
        spec, lambda x: np.where((x >= lo) & (x <= hi), 1.0, 0.0)
    )


def test_bump_profile_support():
    s = np.array([-1.5, -1.0, 0.0, 0.5, 1.0, 2.0])
    vals = bump_profile(s)
    assert vals[0] == vals[1] == vals[4] == vals[5] == 0.0
    assert vals[2] == pytest.approx(np.exp(-1.0))
    assert vals[3] > 0


def test_kernel_discrete_mass(spec1d, spec2d):
    for spec in (spec1d, spec2d):
        for t in dyadic_scales(2.0 * spec.spacing, 2.0 * spec.halfwidth):
            kern = _kernel(spec, t)
            assert kern.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.all(kern >= 0)


def test_convolve_reproduces_constants(spec1d):
    one = GridFunction.constant(spec1d, 1.0)
    t = 1.0
    out = convolve_dilated(one, t)
    # interior nodes further than t from the boundary see the whole kernel
    x = spec1d.axis()
    interior = np.abs(x) < spec1d.halfwidth - t
    assert np.max(np.abs(out.values[interior] - 1.0)) < 1e-12


def test_convolve_zero(spec1d):
    zero = GridFunction.zeros(spec1d)
    out = convolve_dilated(zero, 0.5)
    assert np.all(out.values == 0.0)


def test_convolve_support_arithmetic(spec1d):
    f = _indicator(spec1d, -1.0, 1.0)
    out = convolve_dilated(f, 0.5)
    x = spec1d.axis()
    at0 = out.values[np.argmin(np.abs(x))]
    at3 = out.values[np.argmin(np.abs(x - 3.0))]
    assert at0 == pytest.approx(1.0, abs=1e-12)
    assert at3 == 0.0


def test_convolve_matches_scipy_direct(spec1d, spec2d, rng):
    """The tap sum against scipy's direct convolution, the path it replaced."""
    specs = (
        spec2d,
        GridSpec(dim=2, halfwidth=8.0, points_per_axis=33),
        spec1d,
        GridSpec(dim=1, halfwidth=8.0, points_per_axis=1025),
    )
    for spec in specs:
        fields = (
            random_smooth_field(spec, rng),
            step_field(spec),
            GridFunction(spec, rng.normal(size=spec.shape)),
        )
        for f in fields:
            for t in dyadic_scales(2.0 * spec.spacing, 2.0 * spec.halfwidth):
                oracle = convolve(f.values, _kernel(spec, t), mode="same", method="direct")
                out = convolve_dilated(f, t).values
                if spec.dim == 2:
                    assert np.array_equal(out, oracle)
                else:
                    # scipy sums 1d kernels that fit in the grid in another order
                    assert np.max(np.abs(out - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_convolve_scale_below_resolution(spec1d):
    f = GridFunction.constant(spec1d, 1.0)
    with pytest.raises(ValueError, match="scale below resolution"):
        convolve_dilated(f, spec1d.spacing)


def test_ladder_validation(spec1d):
    full = dyadic_scales(2.0 * spec1d.spacing, 2.0 * spec1d.halfwidth)
    local = dyadic_scales(2.0 * spec1d.spacing, 0.5)
    assert max(local) < 1.0 <= max(full)
    assert set(local) <= set(full)
    assert max(full) == 2.0 * spec1d.halfwidth


def test_maximal_zero_and_homogeneity(spec1d, rng):
    assert np.all(maximal_fn(GridFunction.zeros(spec1d)).values == 0.0)
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    lam = -3.0
    a = maximal_fn(f.with_values(lam * f.values)).values
    b = np.abs(lam) * maximal_fn(f).values
    assert np.max(np.abs(a - b)) < 1e-12 * np.max(b)


def test_maximal_fine_ladder_oracle(spec1d):
    """Dyadic-ladder sup against a 10x finer scale grid at one point."""
    f = _indicator(spec1d, -1.0, 1.0)
    x = spec1d.axis()
    i3 = int(np.argmin(np.abs(x - 3.0)))
    scales = dyadic_scales(2.0 * spec1d.spacing, 2.0 * spec1d.halfwidth)
    coarse = maximal_fn(f).values[i3]
    fine_ts = np.geomspace(2.0 * spec1d.spacing, 2.0 * spec1d.halfwidth,
                           10 * len(scales))
    fine = max(abs(convolve_dilated(f, t).values[i3]) for t in fine_ts)
    # the dyadic ladder samples log t at unit stride, so it can undershoot
    # the continuous sup by the variation over one octave
    assert coarse == pytest.approx(fine, rel=0.15)
    assert coarse <= fine + 1e-12


def test_maximal_sublinear(spec1d, rng):
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    g = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    both = maximal_fn(f.with_values(f.values + g.values)).values
    split = maximal_fn(f).values + maximal_fn(g).values
    assert np.all(both <= split + 1e-12)


def test_truncated_below_full(spec1d, rng):
    f = GridFunction(spec1d, rng.normal(size=spec1d.shape))
    trunc = maximal_fn(f, local=True).values
    full = maximal_fn(f).values
    assert np.all(trunc <= full + 1e-12)


def test_separated_bumps_truncated_gap(spec1d):
    """Truncated maximal cannot reach across a gap wider than its scales."""
    x = meshes(spec1d)[0]
    vals = bump_profile((x - 6.0) / 0.5) + bump_profile((x + 6.0) / 0.5)
    f = GridFunction(spec1d, vals)
    i0 = int(np.argmin(np.abs(x)))
    assert maximal_fn(f, local=True).values[i0] == 0.0
    assert maximal_fn(f).values[i0] > 0.0


# the per-dimension kernel that _kernel replaced, kept as its reference: in 2d
# it squared the raw offsets, which overflow or underflow on a rescaled grid


def _former_kernel(spec, t):
    step = spec.spacing
    k_max = int(math.ceil(t / step)) - 1
    offsets = np.arange(-k_max, k_max + 1) * step
    if spec.dim == 1:
        vals = bump_profile(offsets / t)
    else:
        xx, yy = np.meshgrid(offsets, offsets, indexing="ij")
        vals = bump_profile(np.sqrt(xx**2 + yy**2) / t)
    return vals / vals.sum()


def test_kernel_matches_former_branches():
    grids = itertools.product(
        (1, 2), (16, 17, 33, 65, 100, 129, 257, 1025), (1.0, 3.7, 4.0, 8.0, 8.3)
    )
    for dim, m, halfwidth in grids:
        if dim == 2 and m > 129:  # the 2d m=1025 kernel at t = 2R has 2047^2 taps
            continue
        spec = GridSpec(dim, halfwidth, m)
        for t in dyadic_scales(2.0 * spec.spacing, 2.0 * spec.halfwidth):
            assert np.array_equal(_kernel(spec, t), _former_kernel(spec, t))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("m", [17, 65])
def test_dyadic_rescaling_is_exact(dim, m):
    """A grid scaled by 2^e has the same kernels and the same maximal function."""
    spec = GridSpec(dim, 8.0, m)
    f = GridFunction(spec, np.random.default_rng(m).normal(size=spec.shape))
    scales = dyadic_scales(2.0 * spec.spacing, 2.0 * spec.halfwidth)
    kernels = [_kernel(spec, t) for t in scales]
    mf = maximal_fn(f).values
    # a 2d grid ends where (4 * halfwidth)^2 overflows, near 2^507, and where
    # its least node weight (spacing / 2)^2 is no longer a normal float
    for e in (-600, 600) if dim == 1 else (-500, 500):
        scaled = GridSpec(dim, 8.0 * 2.0**e, m)
        for t, kern in zip(scales, kernels):
            assert np.array_equal(_kernel(scaled, t * 2.0**e), kern)
        assert np.array_equal(maximal_fn(GridFunction(scaled, f.values)).values, mf)


def _fft_cases():
    """All three fields up to m=65 and in 1d, one field per halfwidth at 2d
    m=129, where each full-ladder tap-sum oracle takes about a second; each on
    both ladders, the local one where the grid has a scale below 1."""
    kinds = ("random-smooth", "step", "white-noise")
    halfwidths = (1.0, 3.7, 8.0)
    for dim, m, halfwidth in itertools.product((1, 2), (16, 17, 65, 129), halfwidths):
        spec = GridSpec(dim, halfwidth, m)
        for (i, kind), local in itertools.product(enumerate(kinds), (False, True)):
            if local and spec.spacing > 0.25:  # no power of two in [2 * spacing, 1/2]
                continue
            if dim == 1 or m < 129 or i == halfwidths.index(halfwidth):
                name = f"{dim}d-m{m}-R{halfwidth}-{kind}" + ("-local" if local else "")
                yield pytest.param(spec, kind, local, id=name)


@pytest.mark.parametrize("spec, kind, local", _fft_cases())
def test_fft_ladder_matches_tap_sum(spec, kind, local):
    """Either ladder's FFT path against the max over scales of the tap sum."""
    rng = np.random.default_rng(spec.points_per_axis)
    f = {
        "random-smooth": lambda: random_smooth_field(spec, rng),
        "step": lambda: step_field(spec),
        "white-noise": lambda: GridFunction(spec, rng.normal(size=spec.shape)),
    }[kind]()
    oracle = maximal_taps(f, local).values
    out = maximal_fn(f, local).values
    assert np.max(np.abs(out - oracle)) <= 1e-13 * np.max(oracle)
    assert np.array_equal(out == 0.0, oracle == 0.0)


def test_fft_keeps_exact_zeros_beyond_reach():
    """A bump near one corner: the widest kernel of either ladder (t = 2R, or
    t = 1/2 for the local one) does not reach the far nodes, where the tap sum is
    exactly 0.  FFT round-off alone would fill them."""
    spec = GridSpec(2, 8.0, 65)
    x, y = meshes(spec)
    f = GridFunction(spec, bump_profile(np.hypot(x - 7.0, y - 7.0) / 0.5))
    for local, zeros in ((False, 468), (True, 4200)):
        oracle = maximal_taps(f, local).values
        out = maximal_fn(f, local).values
        assert np.count_nonzero(oracle == 0.0) == zeros
        assert np.array_equal(out == 0.0, oracle == 0.0)
        assert np.max(np.abs(out - oracle)) <= 1e-13 * np.max(oracle)


@pytest.mark.parametrize("spec", [GridSpec(1, 8.0, 129), GridSpec(2, 8.0, 65)], ids=str)
@pytest.mark.parametrize("local", [False, True])
def test_fft_ladder_near_the_float_maximum(spec, local):
    """A field whose max|f| is within a factor 4 of the float maximum (5.7e307
    in 1d, 7.7e307 in 2d): the sums of its transform would overflow, the
    transform of f / 2^e does not, and Mf is the tap sum's to round-off."""
    f = random_smooth_field(spec, np.random.default_rng(0), amplitude=1e308)
    assert np.max(np.abs(f.values)) > 2.0**1021
    oracle = maximal_taps(f, local).values
    out = maximal_fn(f, local).values
    assert np.max(np.abs(out - oracle)) <= 1e-13 * np.max(oracle)
    assert np.array_equal(out == 0.0, oracle == 0.0)
