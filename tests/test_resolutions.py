"""Each one-ball routine of `atoms` and `projection` resolves its ball's index
window once (`grid.region_slices` on a `Ball`) and then works on the window;
an atom holds no grid-shaped function, and a split builds none per atom.

`resolutions` counts those calls the way perfbench's count wrapper does: it
replaces `region_slices` in every `hardylab` module that binds it.
`grid_functions` counts the `GridFunction`s built, each one grid-shaped.
"""

import json
import sys
from collections import Counter

import numpy as np
import pytest

from hardylab import cli, grid
from hardylab.atoms import (
    AtomicDecomposition, make_atom, make_local_atom, validate_atom,
)
from hardylab.generators import random_decomposition, random_smooth_field
from hardylab.grid import Ball, GridFunction, GridSpec
from hardylab.lipschitz import LipschitzOrder
from hardylab.product import split_bmo, split_lipschitz
from hardylab.projection import campanato_ratio, poly_project, projection_sup_ratio


@pytest.fixture
def resolutions(monkeypatch):
    """A Counter of the Ball arguments of grid.region_slices, by ball."""
    calls = Counter()
    original = grid.region_slices

    def counted(spec, region):
        if isinstance(region, Ball):
            calls[region] += 1
        return original(spec, region)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hardylab" and getattr(module, "region_slices", None) is original:
            monkeypatch.setattr(module, "region_slices", counted)
    return calls


@pytest.fixture
def grid_functions(monkeypatch):
    """A list that grows by one for every GridFunction built."""
    built = []
    original = GridFunction.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GridFunction, "__post_init__", counted)
    return built


@pytest.mark.parametrize("spec", [GridSpec(1, 8.0, 257), GridSpec(2, 8.0, 65)], ids=str)
def test_one_ball_routines_resolve_their_ball_once(spec, resolutions):
    ball = Ball((0.5,) * spec.dim, 2.0)
    f = random_smooth_field(spec, np.random.default_rng(3))
    atom = make_atom(ball, 0.5, 2, spec)
    local = make_local_atom(ball, 0.5, spec)
    order = LipschitzOrder.dual_to(0.5, spec.dim)
    calls = [
        lambda: make_atom(ball, 0.5, 2, spec),
        lambda: make_local_atom(ball, 0.5, spec),
        lambda: validate_atom(atom),
        lambda: validate_atom(local),
        lambda: poly_project(f, ball, 2),
        lambda: projection_sup_ratio(f, ball, 2),
        lambda: campanato_ratio(f, ball, order, lambda_norm=1.0),
    ]
    for call in calls:
        resolutions.clear()
        call()
        assert resolutions == {ball: 1}


@pytest.mark.parametrize("regime, p", [
    ("p1", 1.0), ("p1_local", 1.0), ("mean", 0.8), ("mean_local", 0.9),
    ("projection", 0.5), ("projection_local", 0.5),
])
def test_split_draw_resolutions_per_atom(tmp_path, resolutions, regime, p):
    """One 2d m=65 `lab split` draw resolves each atom's ball at most 3 times,
    in every regime: make_atom, validate_atom and poly_project, the split's one
    subtractor (of degree 0 in the p1 and mean regimes)."""
    count, per_atom = 4, 3
    config = tmp_path / "split.json"
    config.write_text(json.dumps({
        "grid": {"dim": 2, "halfwidth": 8.0, "points_per_axis": 65}, "regime": regime, "p": p,
        "draws": 1, "seed": 11, "atoms": {"count": count}, "output_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["split", "--config", str(config)]) == 0
    assert 0 < sum(resolutions.values()) <= per_atom * count
    assert max(resolutions.values()) <= per_atom


@pytest.mark.parametrize("spec", [GridSpec(1, 8.0, 257), GridSpec(2, 8.0, 65)], ids=str)
def test_random_decomposition_builds_no_grid_function(grid_functions, spec):
    """An atom is its window: random_decomposition of 1, 2 and 4 atoms, moment
    atoms and local ones, and validate_atom of each atom build no GridFunction."""
    for n in (1, 2, 4):
        for local in (False, True):
            decomp = random_decomposition(spec, np.random.default_rng(n), 0.5, 2, n, local=local)
            for _, atom in decomp.terms:
                validate_atom(atom)
    assert grid_functions == []


@pytest.mark.parametrize("p", [1.0, 0.8, 0.5])
def test_split_builds_no_grid_function_per_atom(grid_functions, p):
    """split_bmo and split_lipschitz build h, h1 and h2 on the grid whatever the
    number of atoms: each term is accumulated on its atom's window."""
    spec = GridSpec(2, 8.0, 65)
    b = random_smooth_field(spec, np.random.default_rng(3))
    s = 0 if p == 1.0 else LipschitzOrder.dual_to(p, spec.dim).min_atom_s
    atoms = [make_atom(Ball((c, -c), 1.5), p, s, spec) for c in (-5.0, -2.0, 1.0, 4.0)]
    split = split_bmo if p == 1.0 else split_lipschitz
    for n in (1, 2, 4):
        decomp = AtomicDecomposition(p, tuple((0.5, atom) for atom in atoms[:n]))
        grid_functions.clear()
        split(b, decomp)
        assert len(grid_functions) == 3
