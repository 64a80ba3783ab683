import json
import math

import numpy as np
import pytest

from hardylab import atoms
from hardylab.atoms import (
    Atom,
    AtomicDecomposition,
    load_decomposition,
    make_atom,
    make_local_atom,
    moment_tolerance,
    resolves_atom,
    save_decomposition,
    synthesize,
    validate_atom,
)
from hardylab.generators import _random_modulation
from hardylab.grid import Ball, GridFunction, GridSpec, integrate, region_coords, region_slices
from scalar_oracles import (
    MESHGRID_BALLS, atom_grid, bump_on_ball_grid, bump_on_ball_meshgrid, make_atom_grid,
    make_local_atom_grid, meshes, moment_residuals, moment_residuals_meshgrid, region_node_count,
)


def _sign_atom(spec, ball, p):
    """Odd two-level profile: passes (p, inf, 0) by symmetry."""
    x = meshes(spec)[0]
    sl = region_slices(spec, ball)
    vals = np.sign(x[sl[0]] - ball.center[0])
    vals *= ball.measure ** (-1.0 / p)
    return Atom(spec, ball, sl, vals, p, 0)


def test_atom_holds_finite_values_of_its_window_shape(spec1d):
    """An atom's values have its window's shape and are finite, its leakage is
    finite and nonnegative, and its s is an integer, not a bool."""
    atom = _sign_atom(spec1d, Ball((0.0,), 1.0), 1.0)
    cases = [(np.zeros(spec1d.shape), "window shape"), (atom.values[1:], "window shape"),
             (atom.values[:, None], "window shape"), (np.full_like(atom.values, np.nan), "finite"),
             (np.full_like(atom.values, np.inf), "finite")]
    for vals, match in cases:
        with pytest.raises(ValueError, match=match):
            Atom(spec1d, atom.ball, atom.slices, vals, 1.0, 0)
    with pytest.raises(ValueError, match="s must be"):
        Atom(spec1d, atom.ball, atom.slices, atom.values, 1.0, True)
    for leakage in (math.nan, math.inf, -1e-15):
        with pytest.raises(ValueError, match="leakage finite"):
            Atom(spec1d, atom.ball, atom.slices, atom.values, 1.0, 0, leakage=leakage)


def test_validate_two_level_atom(spec1d):
    atom = _sign_atom(spec1d, Ball((0.0,), 1.0), 1.0)
    report = validate_atom(atom)
    assert report.passed, report.failures
    assert report.size_ratio <= 1.0 + 1e-9


def test_validate_indicator_fails_moment(spec1d):
    ball = Ball((0.0,), 1.0)
    sl = region_slices(spec1d, ball)
    vals = np.full(sl[0].stop - sl[0].start, ball.measure ** (-1.0))
    atom = Atom(spec1d, ball, sl, vals, 1.0, 0)
    report = validate_atom(atom)
    assert "moment (0,)" in report.failures


def test_validate_oversized_fails_size(spec1d):
    atom = _sign_atom(spec1d, Ball((0.0,), 1.0), 1.0)
    big = Atom(atom.spec, atom.ball, atom.slices, 2.0 * atom.values, atom.p, atom.s)
    report = validate_atom(big)
    assert "size" in report.failures
    assert report.size_ratio == pytest.approx(2.0, rel=1e-9)


def test_validate_support_leakage(spec1d, tmp_path):
    atom = _sign_atom(spec1d, Ball((0.0,), 1.0), 1.0)
    save_decomposition(AtomicDecomposition(p=1.0, terms=((1.0, atom),)), tmp_path / "d")
    ref = tmp_path / "d_atom0000.npy"
    leaky_vals = np.load(ref)
    leaky_vals[0] = 1e-3
    np.save(ref, leaky_vals)
    leaky = load_decomposition(tmp_path / "d").terms[0][1]
    assert "support" in validate_atom(leaky).failures
    # values on slices other than the ball's window leave the ball's support
    shifted = tuple(slice(sl.start + 1, sl.stop + 1) for sl in atom.slices)
    assert "support" in validate_atom(Atom(spec1d, atom.ball, shifted, atom.values, 1.0, 0)).failures


def test_make_atom_mean_zero(spec1d):
    ball = Ball((1.0,), 1.0)
    atom = make_atom(ball, 1.0, 0, spec1d)
    sup = float(np.max(np.abs(atom.values)))
    assert sup == pytest.approx(ball.measure ** (-1.0), rel=1e-12)
    mass = integrate(atom_grid(atom), ball)
    assert abs(mass) <= 1e-12 * sup * ball.measure


def test_make_atom_higher_moments(spec1d):
    ball = Ball((-2.0,), 2.0)
    atom = make_atom(ball, 0.6, 2, spec1d)
    report = validate_atom(atom)
    assert report.passed, report.failures
    res = moment_residuals(atom_grid(atom), ball, 2)
    sup = float(np.max(np.abs(atom.values)))
    for alpha, value in res.items():
        assert abs(value) <= moment_tolerance(sup, ball, sum(alpha))


@pytest.mark.parametrize("dim, m", [(1, 65), (1, 257), (2, 17), (2, 65)])
def test_moment_residuals_equal_meshgrid_powers(dim, m):
    """Moments contracted along each axis with its powers: in 1d the meshgrid
    moments bit for bit.  In 2d the contraction sums each axis in turn, a
    regrouping of the meshgrid's one sum over the n = n_x * n_y window nodes.
    With S the sum of the terms' absolute values (taken by the oracle for
    each alpha) and u = eps / 2, the standard summation bound puts the
    meshgrid's two products and n - 1 additions within (n + 1) u S of the
    exact moment, and the contraction's two products and n_x + n_y - 2
    additions within (n_x + n_y) u S, so the two agree within the sum of
    the two bounds (below n * eps * S once each axis has 3 nodes)."""
    spec = GridSpec(dim, 8.0, m)
    f = GridFunction(spec, np.random.default_rng(m).normal(size=spec.shape))
    for ball in MESHGRID_BALLS[dim]:
        counts = [sl.stop - sl.start for sl in region_slices(spec, ball)]
        rel = (math.prod(counts) + 1 + sum(counts)) * np.finfo(float).eps / 2
        for s in range(9):
            moments = moment_residuals(f, ball, s)
            oracle = moment_residuals_meshgrid(f, ball, s)
            if dim == 1:
                assert moments == oracle
                continue
            bound = moment_residuals_meshgrid(f, ball, s, absolute=True)
            assert moments.keys() == oracle.keys()
            for alpha, value in moments.items():
                assert abs(value - oracle[alpha]) <= rel * bound[alpha]


@pytest.mark.parametrize("dim, m", [(1, 65), (1, 257), (2, 17), (2, 65)])
def test_atoms_equal_meshgrid_bumps(dim, m):
    """The bump on the window's open coordinates, extended by zero, is the
    grid-shaped bump and the dense-meshgrid bump, ==, with and without a
    modulation; make_atom's and make_local_atom's atoms are those of the
    builders on grid-shaped temporaries (the projection on the grid, from
    poly_project_grid), built on either bump."""
    spec = GridSpec(dim, 8.0, m)
    rng = np.random.default_rng(m)
    resolved = 0
    for ball in MESHGRID_BALLS[dim]:
        slices = region_slices(spec, ball)
        for modulate in (None, _random_modulation(rng)):
            bump = np.zeros(spec.shape)
            bump[slices] = atoms._bump_on_ball(region_coords(spec, slices), ball, modulate)
            assert bump.tobytes() == bump_on_ball_grid(spec, ball, modulate).tobytes()
            assert bump.tobytes() == bump_on_ball_meshgrid(spec, ball, modulate).tobytes()
            local = atom_grid(make_local_atom(ball, 0.5, spec, modulate)).values
            for former in (bump_on_ball_grid, bump_on_ball_meshgrid):
                grid_local = make_local_atom_grid(ball, 0.5, spec, modulate, former)
                assert local.tobytes() == grid_local.tobytes()
            if not resolves_atom(dim, 2, region_node_count(spec, ball)):
                continue
            resolved += 1
            atom = atom_grid(make_atom(ball, 0.5, 2, spec, modulate)).values
            for former in (bump_on_ball_grid, bump_on_ball_meshgrid):
                assert atom.tobytes() == make_atom_grid(ball, 0.5, 2, spec, modulate, former).tobytes()
    assert resolved


def test_make_atom_under_resolved(spec1d):
    with pytest.raises(ValueError, match="under-resolved"):
        make_atom(Ball((0.0,), spec1d.spacing), 1.0, 4, spec1d)


def test_make_atom_dilation_covariance(spec1d):
    p = 0.8
    small = make_atom(Ball((0.0,), 1.0), p, 0, spec1d)
    big = make_atom(Ball((0.0,), 2.0), p, 0, spec1d)
    sup_small = float(np.max(np.abs(small.values)))
    sup_big = float(np.max(np.abs(big.values)))
    assert sup_big / sup_small == pytest.approx(2.0 ** (-1.0 / p), rel=1e-6)


def test_local_atom(spec1d):
    ball = Ball((0.0,), 2.0)
    atom = make_local_atom(ball, 1.0, spec1d)
    assert atom.local
    sup = float(np.max(np.abs(atom.values)))
    assert sup == pytest.approx(ball.measure ** (-1.0), rel=1e-12)
    assert validate_atom(atom).passed
    # local atoms carry mass: no moment cancellation happened
    assert abs(integrate(atom_grid(atom), ball)) > 1e-6


def test_local_atom_requires_large_ball(spec1d):
    with pytest.raises(ValueError, match="not a large ball"):
        make_local_atom(Ball((0.0,), 0.25), 1.0, spec1d)


def test_decomposition_consistency(spec1d):
    a = make_atom(Ball((0.0,), 1.0), 1.0, 0, spec1d)
    with pytest.raises(ValueError, match="exponent"):
        AtomicDecomposition(p=0.5, terms=((1.0, a),))
    decomp = AtomicDecomposition(p=1.0, terms=((2.0, a), (-1.0, a)))
    assert decomp.lambda_sum == 3.0
    assert decomp.lambda_p_sum == 3.0
    # a NaN exponent compares unequal to every atom's, and the empty
    # decomposition still needs p in (0, 1]
    for p in (math.nan, 0.0, 2.0):
        with pytest.raises(ValueError):
            AtomicDecomposition(p=p, terms=((1.0, a),))
        with pytest.raises(ValueError, match="p must lie"):
            AtomicDecomposition(p=p, terms=())
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda must be finite"):
            AtomicDecomposition(p=1.0, terms=((lam, a),))


def test_size_bound_beyond_float_range_is_a_value_error():
    """|B|^(-1/p) of a tiny ball overflows: ValueError from the atom's bound and
    from the builder, not OverflowError."""
    spec = GridSpec(1, 1e-250, 129)
    ball = Ball((0.0,), 16 * spec.spacing)
    with pytest.raises(ValueError, match="beyond float range"):
        sl = region_slices(spec, ball)
        Atom(spec, ball, sl, np.zeros(sl[0].stop - sl[0].start), p=0.8, s=0).size_bound
    with pytest.raises(ValueError, match="beyond float range"):
        make_atom(ball, 0.8, 0, spec)


def test_synthesize(spec1d):
    empty = AtomicDecomposition(p=1.0, terms=())
    assert np.all(synthesize(empty, spec1d).values == 0.0)
    with pytest.raises(ValueError):
        synthesize(empty)
    a = make_atom(Ball((1.0,), 1.0), 1.0, 0, spec1d)
    single = AtomicDecomposition(p=1.0, terms=((1.0, a),))
    assert np.array_equal(synthesize(single).values, atom_grid(a).values)


def test_save_load_roundtrip(tmp_path, spec1d):
    a = make_atom(Ball((0.5,), 1.0), 1.0, 0, spec1d)
    b = make_local_atom(Ball((-2.0,), 2.0), 1.0, spec1d)
    decomp = AtomicDecomposition(p=1.0, terms=((0.5, a), (-1.5, b)))
    base = tmp_path / "decomp"
    save_decomposition(decomp, base)
    header = json.loads(base.with_suffix(".json").read_text())["grid"]
    assert header == spec1d.to_dict()
    assert GridSpec.from_dict(header) == spec1d
    loaded = load_decomposition(base)
    assert loaded.p == decomp.p
    assert all(atom.spec == spec1d for _, atom in loaded.terms)
    for (lam0, a0), (lam1, a1) in zip(decomp.terms, loaded.terms):
        assert lam0 == lam1
        assert a0.ball == a1.ball
        assert (a0.p, a0.s, a0.local) == (a1.p, a1.s, a1.local)
        assert a0.slices == a1.slices and a1.leakage == 0.0
        assert np.array_equal(a0.values, a1.values)
