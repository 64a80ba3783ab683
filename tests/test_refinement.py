"""2d refinement of the measured split constants: one draw set, two grids.

With a fixed `atoms.radius_range` of [2, 4], a seed fixes the b field (a
`random-smooth` field of a few modes) and every atom's ball and modulation
independently of m, so 2d m=129, 257 and 513 measure the same draws on
three grids.  The ratio of max C1, and of max C2, over 10 draws then reads
the discretisation, not the draw.  Measured at 2d halfwidth 8, seed 11:

    regime               129 -> 257 (C1, C2)   257 -> 513 (C1, C2)
    p1                   1.013, 1.040          1.002, 1.002
    mean, p = 0.8        1.007, 1.040          1.000, 0.999
    projection, p = 0.5  0.814, 0.911          0.868, 0.924

`projection` converges at first order: its s = 4 atoms take their sup at a
window edge node.  A ratio outside [0.75, 1.25] is a finding about the
splits, not a tolerance to retune.  The 257 -> 513 check takes about 50 s
and is marked slow: run it with `pytest -m slow tests/test_refinement.py`.
"""

import json

import pytest

from hardylab import cli


def _maxima(tmp_path, m: int, regime: str, p: float) -> tuple[float, float]:
    out_dir = tmp_path / f"{regime}-{m}"
    config = tmp_path / f"{regime}-{m}.json"
    config.write_text(json.dumps({
        "grid": {"dim": 2, "halfwidth": 8.0, "points_per_axis": m},
        "regime": regime, "p": p, "draws": 10, "seed": 11,
        "b_generator": {"kind": "random-smooth"},
        "atoms": {"radius_range": [2, 4]},
        "output_dir": str(out_dir),
    }))
    assert cli.main(["split", "--config", str(config)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    return summary["C1_max"], summary["C2_max"]


def _check_refinement(tmp_path, coarse_m: int, regime: str, p: float) -> None:
    coarse = _maxima(tmp_path, coarse_m, regime, p)
    fine = _maxima(tmp_path, 2 * coarse_m - 1, regime, p)
    for name, c, f in zip(("C1", "C2"), coarse, fine):
        assert 0.75 <= f / c <= 1.25, (name, c, f)


REGIMES = [("p1", 1.0), ("mean", 0.8), ("projection", 0.5)]


@pytest.mark.parametrize("regime, p", REGIMES)
def test_split_constants_refine_from_129_to_257(tmp_path, regime, p):
    _check_refinement(tmp_path, 129, regime, p)


@pytest.mark.slow
@pytest.mark.parametrize("regime, p", REGIMES)
def test_split_constants_refine_from_257_to_513(tmp_path, regime, p):
    _check_refinement(tmp_path, 257, regime, p)
