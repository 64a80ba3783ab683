import json

import numpy as np
import pytest

from hardylab import atoms
from hardylab.atoms import (
    Atom,
    AtomicDecomposition,
    load_decomposition,
    make_atom,
    make_local_atom,
    moment_residuals,
    moment_tolerance,
    resolves_atom,
    save_decomposition,
    synthesize,
    validate_atom,
)
from hardylab.generators import _random_modulation
from hardylab.grid import Ball, GridFunction, GridSpec, integrate, region_coords, region_slices
from scalar_oracles import (
    MESHGRID_BALLS, bump_on_ball_grid, bump_on_ball_meshgrid, make_atom_grid, make_local_atom_grid,
    meshes, moment_residuals_meshgrid, region_node_count,
)


def _sign_atom(spec, ball, p):
    """Odd two-level profile: passes (p, inf, 0) by symmetry."""
    x = meshes(spec)[0]
    vals = np.zeros(spec.shape)
    sl = region_slices(spec, ball)
    vals[sl] = np.sign(x[sl[0]] - ball.center[0])
    vals *= ball.measure ** (-1.0 / p)
    return Atom(GridFunction(spec, vals), ball, p, 0)


def test_validate_two_level_atom(spec1d):
    atom = _sign_atom(spec1d, Ball((0.0,), 1.0), 1.0)
    report = validate_atom(atom)
    assert report.passed, report.failures
    assert report.size_ratio <= 1.0 + 1e-9


def test_validate_indicator_fails_moment(spec1d):
    ball = Ball((0.0,), 1.0)
    vals = np.zeros(spec1d.shape)
    vals[region_slices(spec1d, ball)] = ball.measure ** (-1.0)
    atom = Atom(GridFunction(spec1d, vals), ball, 1.0, 0)
    report = validate_atom(atom)
    assert "moment (0,)" in report.failures


def test_validate_oversized_fails_size(spec1d):
    atom = _sign_atom(spec1d, Ball((0.0,), 1.0), 1.0)
    big = Atom(
        atom.values.with_values(2.0 * atom.values.values),
        atom.ball, atom.p, atom.s,
    )
    report = validate_atom(big)
    assert "size" in report.failures
    assert report.size_ratio == pytest.approx(2.0, rel=1e-9)


def test_validate_support_leakage(spec1d):
    atom = _sign_atom(spec1d, Ball((0.0,), 1.0), 1.0)
    leaky_vals = np.array(atom.values.values)
    leaky_vals[0] = 1e-3
    leaky = Atom(GridFunction(spec1d, leaky_vals), atom.ball, 1.0, 0)
    assert "support" in validate_atom(leaky).failures


def test_make_atom_mean_zero(spec1d):
    ball = Ball((1.0,), 1.0)
    atom = make_atom(ball, 1.0, 0, spec1d)
    sup = float(np.max(np.abs(atom.values.values)))
    assert sup == pytest.approx(ball.measure ** (-1.0), rel=1e-12)
    mass = integrate(atom.values, ball)
    assert abs(mass) <= 1e-12 * sup * ball.measure


def test_make_atom_higher_moments(spec1d):
    ball = Ball((-2.0,), 2.0)
    atom = make_atom(ball, 0.6, 2, spec1d)
    report = validate_atom(atom)
    assert report.passed, report.failures
    res = moment_residuals(atom.values, ball, 2)
    sup = float(np.max(np.abs(atom.values.values)))
    for alpha, value in res.items():
        assert abs(value) <= moment_tolerance(sup, ball, sum(alpha))


@pytest.mark.parametrize("dim, m", [(1, 65), (1, 257), (2, 17), (2, 65)])
def test_moment_residuals_equal_meshgrid_powers(dim, m):
    """Moments from the 1d axis powers, broadcast: the meshgrid moments bit for bit."""
    spec = GridSpec(dim, 8.0, m)
    f = GridFunction(spec, np.random.default_rng(m).normal(size=spec.shape))
    for ball in MESHGRID_BALLS[dim]:
        for s in range(9):
            assert moment_residuals(f, ball, s) == moment_residuals_meshgrid(f, ball, s)


@pytest.mark.parametrize("dim, m", [(1, 65), (1, 257), (2, 17), (2, 65)])
def test_atoms_equal_meshgrid_bumps(dim, m):
    """The bump on the window's open coordinates, extended by zero, is the
    grid-shaped bump and the dense-meshgrid bump, ==, with and without a
    modulation; make_atom's and make_local_atom's atoms are those of the
    builders on grid-shaped temporaries (the projection through poly_project
    and as_gridfunction), built on either bump."""
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
            local = make_local_atom(ball, 0.5, spec, modulate).values.values
            for former in (bump_on_ball_grid, bump_on_ball_meshgrid):
                grid_local = make_local_atom_grid(ball, 0.5, spec, modulate, former)
                assert local.tobytes() == grid_local.tobytes()
            if not resolves_atom(dim, 2, region_node_count(spec, ball)):
                continue
            resolved += 1
            atom = make_atom(ball, 0.5, 2, spec, modulate).values.values
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
    sup_small = float(np.max(np.abs(small.values.values)))
    sup_big = float(np.max(np.abs(big.values.values)))
    assert sup_big / sup_small == pytest.approx(2.0 ** (-1.0 / p), rel=1e-6)


def test_local_atom(spec1d):
    ball = Ball((0.0,), 2.0)
    atom = make_local_atom(ball, 1.0, spec1d)
    assert atom.local
    sup = float(np.max(np.abs(atom.values.values)))
    assert sup == pytest.approx(ball.measure ** (-1.0), rel=1e-12)
    assert validate_atom(atom).passed
    # local atoms carry mass: no moment cancellation happened
    assert abs(integrate(atom.values, ball)) > 1e-6


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


def test_synthesize(spec1d):
    empty = AtomicDecomposition(p=1.0, terms=())
    assert np.all(synthesize(empty, spec1d).values == 0.0)
    with pytest.raises(ValueError):
        synthesize(empty)
    a = make_atom(Ball((1.0,), 1.0), 1.0, 0, spec1d)
    single = AtomicDecomposition(p=1.0, terms=((1.0, a),))
    assert np.array_equal(synthesize(single).values, a.values.values)


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
        assert np.array_equal(a0.values.values, a1.values.values)
