import numpy as np
import pytest

from hardylab.atoms import validate_atom
from hardylab.generators import (
    B_GENERATORS,
    b_field,
    random_ball,
    random_decomposition,
)
from hardylab.grid import GridSpec
from scalar_oracles import FORMER_GENERATORS


def test_b_field_kinds(spec1d):
    rng = np.random.default_rng(1)
    for kind in ("constant", "step", "regularized-log", "random-smooth", "random-bmo"):
        f = b_field(spec1d, kind, rng)
        assert f.spec == spec1d
    f = b_field(spec1d, "random-lipschitz", rng, gamma=0.5)
    assert np.all(np.isfinite(f.values))
    with pytest.raises(ValueError, match="unknown"):
        b_field(spec1d, "nope", rng)


# parameters per kind: the defaults, then others
GENERATOR_PARAMS = {
    "constant": [{}, {"value": -2.5}],
    "step": [{}, {"height": 3.0}],
    "regularized-log": [{}, {"scale": -0.7}],
    "random-smooth": [{}, {"amplitude": 1e300}],
    "random-lipschitz": [{"gamma": 0.5}, {"gamma": 1.5, "levels": 9}],
    "random-bmo": [{}, {"levels": 8}],
}


@pytest.mark.parametrize("spec", [GridSpec(1, 8.0, 257), GridSpec(1, 3.7, 100),
                                  GridSpec(2, 8.0, 65), GridSpec(2, 3.7, 100)], ids=str)
def test_generators_equal_meshgrid_bodies(spec):
    """Every b generator on the open per-axis coordinates gives the field of
    its former body on the dense coordinate mesh, byte for byte, and draws the
    same random numbers."""
    assert FORMER_GENERATORS.keys() == B_GENERATORS.keys() == GENERATOR_PARAMS.keys()
    for kind, cases in GENERATOR_PARAMS.items():
        for params in cases:
            rng, former_rng = np.random.default_rng(11), np.random.default_rng(11)
            f = b_field(spec, kind, rng, **params)
            former = FORMER_GENERATORS[kind](spec, former_rng, params)
            assert f.values.tobytes() == former.values.tobytes(), (kind, params)
            assert f.values.flags.c_contiguous
            assert rng.random() == former_rng.random()


def test_random_bmo_levels_bounded():
    """random-bmo takes the levels whose intervals are at least half the grid
    spacing, 2^(levels - 1) <= 2 (m - 1), and rejects a finer one before it
    draws a coin."""
    for m, finest in ((16, 5), (65, 8), (129, 9), (257, 10)):
        spec = GridSpec(1, 8.0, m)
        b_field(spec, "random-bmo", np.random.default_rng(1), levels=finest)
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="levels"):
            b_field(spec, "random-bmo", rng, levels=finest + 1)
        assert rng.bit_generator.state == state
    b_field(GridSpec(1, 8.0, 16), "random-bmo", np.random.default_rng(1))  # the default, 5


def test_generators_resolution_independent():
    """Same seed must describe the same function at any resolution."""
    coarse = GridSpec(1, 8.0, 129)
    fine = GridSpec(1, 8.0, 257)
    for kind, params in (
        ("random-smooth", {}),
        ("random-bmo", {}),
        ("random-lipschitz", {"gamma": 0.5}),
    ):
        a = b_field(coarse, kind, np.random.default_rng(7), **params)
        b = b_field(fine, kind, np.random.default_rng(7), **params)
        # coarse nodes are every second fine node
        assert np.allclose(a.values, b.values[::2], atol=1e-12)


def test_random_ball_inside_box(spec1d):
    rng = np.random.default_rng(3)
    for _ in range(50):
        ball = random_ball(spec1d, rng, (0.25, 4.0))
        lo = ball.center[0] - ball.radius
        hi = ball.center[0] + ball.radius
        assert lo >= -spec1d.halfwidth - 1e-12
        assert hi <= spec1d.halfwidth + 1e-12


def test_random_decomposition_atoms_valid(spec1d):
    rng = np.random.default_rng(11)
    decomp = random_decomposition(spec1d, rng, p=1.0, s=0, n_atoms=5)
    assert len(decomp.terms) == 5
    for _, atom in decomp.terms:
        assert validate_atom(atom).passed


def test_random_decomposition_local(spec1d):
    rng = np.random.default_rng(13)
    decomp = random_decomposition(
        spec1d, rng, p=1.0, s=0, n_atoms=6, radius_range=(1.0, 4.0), local=True
    )
    assert any(atom.local for _, atom in decomp.terms)
    for _, atom in decomp.terms:
        assert validate_atom(atom).passed
