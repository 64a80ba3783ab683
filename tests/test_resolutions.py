"""Each one-ball routine of `atoms` and `projection` resolves its ball's index
window once (`grid.region_slices` on a `Ball`) and then works on the window.

`resolutions` counts those calls the way perfbench's count wrapper does: it
replaces `region_slices` in every `hardylab` module that binds it.
"""

import json
import sys
from collections import Counter

import numpy as np
import pytest

from hardylab import cli, grid
from hardylab.atoms import make_atom, make_local_atom, moment_residuals, validate_atom
from hardylab.generators import random_smooth_field
from hardylab.grid import Ball, GridSpec
from hardylab.lipschitz import LipschitzOrder
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
        lambda: moment_residuals(atom.values, ball, 2),
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
