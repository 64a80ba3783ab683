import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardylab import cli
from hardylab.atoms import AtomicDecomposition, make_atom, make_local_atom, save_decomposition
from hardylab.generators import b_field
from hardylab.grid import Ball, GridFunction, GridSpec, save_gridfunction
from hardylab.lipschitz import LipschitzOrder, lambda_gamma_norm
from hardylab.product import SplitReport

GRID = {"dim": 1, "halfwidth": 8.0, "points_per_axis": 129}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(args):
    return cli.main(args)


def test_norm_constant_bmo(tmp_path):
    out = tmp_path / "report.json"
    cfg = _write(tmp_path, "cfg.json", {
        "grid": GRID,
        "input": {"generator": "constant", "params": {"value": 3.0}},
        "which": "bmo",
        "output": str(out),
    })
    assert _run(["norm", "--config", cfg]) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == 0.0
    assert doc["which"] == "bmo"
    # every oscillation bound of a constant is 0: no ball is evaluated
    assert doc["balls_evaluated"] == 0 < doc["family_size"]


def test_norm_zero_function(tmp_path):
    out = tmp_path / "report.json"
    cfg = _write(tmp_path, "cfg.json", {
        "grid": GRID,
        "input": {"generator": "constant", "params": {"value": 0.0}},
        "which": "lp",
        "params": {"p": 1.0},
        "output": str(out),
    })
    assert _run(["norm", "--config", cfg]) == 0
    assert json.loads(out.read_text())["value"] == 0.0


def test_norm_refinement_stability(tmp_path):
    values = []
    for m in (129, 257):
        out = tmp_path / f"report{m}.json"
        cfg = _write(tmp_path, f"cfg{m}.json", {
            "grid": {**GRID, "points_per_axis": m},
            "input": {"generator": "regularized-log"},
            "which": "bmo",
            "output": str(out),
        })
        assert _run(["norm", "--config", cfg]) == 0
        doc = json.loads(out.read_text())
        assert 0 < doc["balls_evaluated"] < doc["family_size"]
        values.append(doc["value"])
    assert values[1] == pytest.approx(values[0], rel=0.25)


@pytest.mark.parametrize("local, scales", [
    (False, [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]),
    (True, [0.25, 0.5]),
])
def test_norm_hardy_reports_ladder(tmp_path, local, scales):
    out = tmp_path / "report.json"
    cfg = _write(tmp_path, "cfg.json", {
        "grid": GRID,
        "input": {"generator": "step"},
        "which": "hardy",
        "params": {"p": 1.0, "local": local},
        "output": str(out),
    })
    assert _run(["norm", "--config", cfg]) == 0
    doc = json.loads(out.read_text())
    assert doc["maximal_scales"] == scales
    assert doc["value"] > 0.0


@pytest.mark.parametrize("which, params, grid", [
    pytest.param("hardy", {"p": 1.0}, {"dim": 1, "halfwidth": 8.0, "points_per_axis": 17},
                 id="hardy"),
    pytest.param("hardy", {"p": 1.0, "local": True},
                 {"dim": 1, "halfwidth": 8.0, "points_per_axis": 17}, id="hardy-local"),
    pytest.param("bmo_local", {}, {"dim": 2, "halfwidth": 8.0, "points_per_axis": 17},
                 id="bmo_local"),
    pytest.param("lambda_gamma", {"gamma": 0.5},
                 {"dim": 1, "halfwidth": 4.0, "points_per_axis": 257}, id="lambda_gamma"),
])
def test_norm_input_file_on_another_grid_exit2(tmp_path, capsys, which, params, grid):
    """A report states the config's grid, so an input file on another grid is a
    config error, and nothing is written; the same file under its own grid is read."""
    spec = GridSpec.from_dict(grid)
    base = tmp_path / "field"
    save_gridfunction(b_field(spec, "step", None), base)
    out = tmp_path / "report.json"
    doc = {"input": {"file": str(base)}, "which": which, "params": params, "output": str(out)}
    cfg = _write(tmp_path, "cfg.json", {**doc, "grid": {**GRID, "points_per_axis": 257}})
    assert _run(["norm", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: input file")
    assert not out.exists()
    if not params.get("local"):  # the local ladder has no scale on the m=17 grid
        cfg = _write(tmp_path, "cfg.json", {**doc, "grid": grid})
        assert _run(["norm", "--config", cfg]) == 0
        assert json.loads(out.read_text())["grid"] == grid


@pytest.mark.parametrize("generator", ["random-smooth", "constant"])
def test_norm_lambda_gamma_reports_displacements(tmp_path, generator):
    """The Lipschitz norm says how many displacements its scan evaluated, out of
    how many: a constant's first differences are exact zeros, so it evaluates
    none."""
    out = tmp_path / "report.json"
    cfg = _write(tmp_path, "cfg.json", {
        "grid": GRID,
        "input": {"generator": generator},
        "which": "lambda_gamma",
        "params": {"gamma": 0.5},
        "output": str(out),
    })
    assert _run(["norm", "--config", cfg]) == 0
    doc = json.loads(out.read_text())
    spec = GridSpec.from_dict(GRID)
    f = b_field(spec, generator, np.random.default_rng(0))
    assert doc["value"] == lambda_gamma_norm(f, LipschitzOrder(0.5))
    assert doc["displacements"] == 64  # (129 - 1) // 2 steps
    if generator == "constant":
        assert doc["displacements_visited"] == 0
    else:
        assert 0 < doc["displacements_visited"] < 64


def test_norm_unknown_tag_exit2(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {
        "grid": GRID,
        "input": {"generator": "constant"},
        "which": "nope",
    })
    assert _run(["norm", "--config", cfg]) == 2


def test_missing_config_exit1(tmp_path):
    assert _run(["norm", "--config", str(tmp_path / "absent.json")]) == 1


def test_malformed_config_exit1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert _run(["norm", "--config", str(path)]) == 1


def test_split_constant_b_gives_zero_c1(tmp_path):
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path, "cfg.json", {
        "grid": GRID,
        "regime": "p1",
        "p": 1.0,
        "draws": 1,
        "seed": 5,
        "atoms": {"count": 2, "s": 0},
        "b_generator": {"kind": "constant", "params": {"value": 2.0}},
        "output_dir": str(out_dir),
    })
    assert _run(["split", "--config", cfg]) == 0
    rows = (out_dir / "rows.csv").read_text().strip().splitlines()
    assert len(rows) == 2
    header = rows[0].split(",")
    row = rows[1].split(",")
    assert float(row[header.index("C1")]) == 0.0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["C1_max"] == 0.0


def test_split_deterministic_bytes(tmp_path):
    outputs = []
    for run in range(2):
        out_dir = tmp_path / f"out{run}"
        cfg = _write(tmp_path, f"cfg{run}.json", {
            "grid": GRID,
            "regime": "mean",
            "p": 0.8,
            "draws": 2,
            "seed": 42,
            "atoms": {"count": 2, "s": 0},
            "b_generator": {"kind": "random-lipschitz", "params": {"gamma": 0.25}},
            "output_dir": str(out_dir),
        })
        assert _run(["split", "--config", cfg]) == 0
        outputs.append((out_dir / "rows.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_split_unknown_regime_exit2(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"grid": GRID, "regime": "bogus"})
    assert _run(["split", "--config", cfg]) == 2


INF_GRID = {**GRID, "halfwidth": "inf"}
GRID_257 = {**GRID, "points_per_axis": 257}
GRID_65 = {**GRID, "points_per_axis": 65}
# spacing 1: (spacing |delta|)^gamma stays in float range at any gamma, so a large
# gamma reaches the binomial coefficients of the difference
GRID_4097_UNIT = {**GRID, "halfwidth": 2048.0, "points_per_axis": 4097}
GRID_2D_HUGE = {"dim": 2, "halfwidth": 1e200, "points_per_axis": 17}
GRID_2D_TINY = {"dim": 2, "halfwidth": 1e-180, "points_per_axis": 17}
GRID_2D = {"dim": 2, "halfwidth": 8.0, "points_per_axis": 65}
USAGE = "usage: lab {norm,split,validate} --config PATH\n"

# (command, config, exit code, regime name written to rows.csv)
EXIT_CASES = [
    ("norm", {"grid": INF_GRID, "input": {"generator": "constant"}, "which": "lp"}, 2, None),
    ("split", {"grid": INF_GRID, "regime": "p1"}, 2, None),
    ("split", {"grid": GRID, "regime": "projection", "p": 0.8}, 2, None),
    ("split", {"grid": GRID, "regime": "mean", "p": 0.4}, 2, None),
    ("split", {"grid": GRID, "regime": "mean", "p": 0.8}, 0, "p_lt1_mean"),
    ("split", {"grid": GRID, "regime": "projection", "p": 0.4}, 0, "p_lt1_proj"),
    # the endpoint p = n/(n+1), gamma = 1, is the projection split's, with k = 1 and atoms
    # of s >= 2, also where rounding leaves gamma = 0.9999999999999996 (2d p = 0.6666666666666667)
    ("split", {"grid": GRID_257, "regime": "mean", "p": 0.5}, 2, None),
    ("split", {"grid": GRID_257, "regime": "projection", "p": 0.5}, 0, "p_lt1_proj"),
    ("split", {"grid": GRID_257, "regime": "projection", "p": 0.5, "atoms": {"s": 1}}, 2, None),
    ("split", {"grid": GRID_2D, "regime": "projection", "p": 0.6666666666666667},
     0, "p_lt1_proj"),
    ("split", {"grid": GRID_2D, "regime": "mean", "p": 0.6666666666666667}, 2, None),
    # a p within 1e-12 of 1 is p = 1, and only p1's
    ("split", {"grid": GRID, "regime": "mean", "p": 0.9999999999999}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "p": 0.9999999999999}, 0, "p1_bmo"),
    ("split", {"grid": GRID, "regime": ["p1"]}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "draws": 0}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "draws": -1}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "p": "one"}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "b_generator": {}}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "b_generator": {"kind": "nope"}}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "b_generator": {"kind": "random-lipschitz"}},
     2, None),
    ("norm", {"grid": GRID, "input": {"generator": "nope"}, "which": "lp"}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "random-smooth"}, "which": "lambda_gamma"},
     2, None),
    ("split", {"grid": GRID, "regime": "p1", "atoms": "x"}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "atoms": {"radius_range": ["a", 1]}}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "atoms": {"radius_range": [1]}}, 2, None),
    # the norm overflows to inf, which strict JSON cannot hold
    ("norm", {"grid": GRID, "input": {"generator": "constant", "params": {"value": 1e308}},
              "which": "luxembourg"}, 1, None),
    # the atoms section is checked before the first draw
    ("split", {"grid": GRID, "regime": "p1", "atoms": {"radius_range": [16, 16]}}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "atoms": {"count": 0}}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "atoms": {"count": -3}}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "atoms": {"s": -1}}, 2, None),
    # the default atom radii [max(8 * spacing, R/32), R/2] = [8, 4] hold no power of two
    ("split", {"grid": {**GRID, "points_per_axis": 17}, "regime": "p1"}, 2, None),
    # the Luxembourg bracket walks to the ends of the float range: a norm of
    # about 4e200 is found; a grid whose cell measure (infinite weights) would
    # overflow is rejected
    ("norm", {"grid": {"dim": 2, "halfwidth": 1e100, "points_per_axis": 17},
              "input": {"generator": "constant"}, "which": "luxembourg"}, 0, None),
    # a field near the float maximum: 1e308 times its normal draw of -1.85
    # overflows, while 1e308 times that draw over 8 does not
    ("norm", {"grid": GRID, "input": {"generator": "random-smooth", "seed": 11,
              "params": {"amplitude": 1e308}}, "which": "bmo"}, 0, None),
    # an L^2 integral beyond float range of a field whose L^2 norm, 8.6e199, is not
    ("norm", {"grid": GRID, "input": {"generator": "random-smooth",
              "params": {"amplitude": 1e200}}, "which": "lp", "params": {"p": 2}}, 0, None),
    ("norm", {"grid": GRID_2D_HUGE, "input": {"generator": "constant"}, "which": "luxembourg"},
     2, None),
    # a misspelled generator parameter is not silently replaced by its default
    ("split", {"grid": GRID, "regime": "p1",
               "b_generator": {"kind": "random-smooth", "params": {"amplitde": 5.0}}}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "constant", "params": {"valeu": 5}},
              "which": "lp"}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "b_generator": {
        "kind": "random-lipschitz", "params": {"gamma": 0.5, "target_norm": 1.0}}}, 2, None),
    # a parameter whose powers 2^(-gamma j) overflow
    ("split", {"grid": GRID, "regime": "mean", "p": 0.8, "b_generator": {
        "kind": "random-lipschitz", "params": {"gamma": -2000}}}, 2, None),
    ("split", {"grid": GRID, "regime": "mean", "p": 0.8, "b_generator": {
        "kind": "random-lipschitz", "params": {"gamma": 0.5, "levels": 1100}}}, 2, None),
    # spacing 1/2: the local maximal ladder [2 * spacing, 1/2] holds no power of two
    ("split", {"grid": {**GRID, "points_per_axis": 33}, "regime": "p1_local"}, 2, None),
    ("split", {"grid": {**GRID, "points_per_axis": 33}, "regime": "projection_local",
               "p": 0.4}, 2, None),
    ("norm", {"grid": {**GRID, "points_per_axis": 33}, "input": {"generator": "step"},
              "which": "hardy", "params": {"p": 1.0, "local": True}}, 2, None),
    # params is an object and local a boolean: the string "false" is not false
    ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "hardy", "params": [1]},
     2, None),
    ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "hardy",
              "params": {"p": 1.0, "local": "false"}}, 2, None),
    # the norm tag and the hardy flag are checked before the (absent) input is read
    ("norm", {"grid": GRID, "input": {"file": "no-such-field"}, "which": "nope"}, 2, None),
    ("norm", {"grid": GRID, "input": {"file": "no-such-field"}, "which": "hardy",
              "params": {"p": 1.0, "local": "false"}}, 2, None),
    # atoms.s is checked before the first draw: below 2k = 2 at p = 0.4, or
    # above what the sparsest ball of the smallest radius, 0.5, resolves: it holds 16
    # nodes, and degree s needs twice its s + 1 monomials (s = 8: 18; s = 7: 16)
    ("split", {"grid": GRID_257, "regime": "projection", "p": 0.4, "atoms": {"s": 0}}, 2, None),
    ("split", {"grid": GRID_257, "regime": "p1", "atoms": {"count": 2, "s": 8}}, 2, None),
    ("split", {"grid": GRID_257, "regime": "p1", "atoms": {"count": 2, "s": 7}}, 0, "p1_bmo"),
    # the split projects b by degree k on every ball, local ones too, so the sparsest
    # ball of the smallest radius must resolve it: at 1d m=65 a radius-1 ball holds 8
    # nodes, against the 20 of k = 9 (p = 0.1) and the 100 of k = 49 (p = 0.02); at 2d
    # m=65 it holds 64, against the 30 of k = 4 (p = 0.3)
    ("split", {"grid": GRID_65, "regime": "projection_local", "p": 0.1,
               "atoms": {"radius_range": [1, 1]}}, 2, None),
    ("split", {"grid": GRID_65, "regime": "projection_local", "p": 0.02,
               "atoms": {"radius_range": [1, 4]}}, 2, None),
    ("split", {"grid": GRID_2D, "regime": "projection_local", "p": 0.3,
               "atoms": {"radius_range": [1, 1]}}, 0, "p_lt1_proj_local"),
    # the decomposition path is a string
    ("validate", {}, 2, None),
    ("validate", {"decomposition": 5}, 2, None),
    # an integer field is finite and integral: neither an overflow nor truncated
    ("split", {"grid": GRID, "regime": "p1", "draws": float("inf")}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "draws": 2.5}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "seed": 1e400}, 2, None),
    # a seed is nonnegative
    ("split", {"grid": GRID, "regime": "p1", "seed": -1}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "random-smooth", "seed": -3},
              "which": "lp"}, 2, None),
    # random-bmo levels finer than half the spacing: 2^69 coins are never drawn
    ("split", {"grid": GRID, "regime": "p1",
               "b_generator": {"kind": "random-bmo", "params": {"levels": 70}}}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "random-bmo", "params": {"levels": 70}},
              "which": "lp"}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "atoms": {"count": float("inf")}}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "atoms": {"count": 2.5}}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "random-smooth", "seed": float("inf")},
              "which": "lp"}, 2, None),
    ("split", {"grid": {**GRID, "points_per_axis": float("inf")}, "regime": "p1"}, 2, None),
    ("split", {"grid": {**GRID, "points_per_axis": 257.9}, "regime": "p1"}, 2, None),
    ("split", {"grid": {**GRID, "dim": 1.5}, "regime": "p1"}, 2, None),
    # a norm's exponent or order outside its range is a config error
    ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "lp",
              "params": {"p": 0}}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "lp",
              "params": {"p": -1.0}}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "lp",
              "params": {"p": float("nan")}}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "hardy",
              "params": {"p": 1.5}}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "hardy",
              "params": {"p": 0}}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "lambda_gamma",
              "params": {"gamma": 0}}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "lambda_gamma",
              "params": {"gamma": -0.5}}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "lambda_gamma",
              "params": {"gamma": float("inf")}}, 2, None),
    # an order with no difference stencil on the grid, or with binomial coefficients
    # C(1101, s) beyond float range, and a gamma that no comparison can match
    ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "lambda_gamma",
              "params": {"gamma": 1e300}}, 2, None),
    ("norm", {"grid": GRID_4097_UNIT, "input": {"generator": "step"}, "which": "lambda_gamma",
              "params": {"gamma": 1100}}, 1, None),
    ("split", {"grid": GRID, "regime": "mean", "p": 0.8, "gamma": float("nan")}, 2, None),
    # (spacing |delta|)^gamma beyond float range: 1.6e8^40 overflows
    ("norm", {"grid": {**GRID, "halfwidth": 1e10}, "input": {"generator": "step"},
              "which": "lambda_gamma", "params": {"gamma": 40}}, 1, None),
    # a number is a JSON number: neither a bool nor a string, nor beyond float range
    ("split", {"grid": GRID, "regime": "p1", "p": True}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "draws": "1"}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "draws": True}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "seed": True}, 2, None),
    ("split", {"grid": {**GRID, "dim": True}, "regime": "p1"}, 2, None),
    ("split", {"grid": {**GRID, "halfwidth": "8", "points_per_axis": "129"}, "regime": "p1"},
     2, None),
    ("split", {"grid": {**GRID, "points_per_axis": "129"}, "regime": "p1"}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "atoms": {"count": True}}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "atoms": {"radius_range": [True, "4"]}}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "p": 10**400}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "random-smooth", "seed": True},
              "which": "lp"}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "lp",
              "params": {"p": True}}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "lambda_gamma",
              "params": {"gamma": "1"}}, 2, None),
    # a box width 2 * halfwidth beyond float range
    ("norm", {"grid": {"dim": 1, "halfwidth": 1e308, "points_per_axis": 129},
              "input": {"generator": "step"}, "which": "lp"}, 2, None),
    # a cell measure spacing^2 and a widest ball measure (4 * halfwidth)^2 beyond it
    ("norm", {"grid": GRID_2D_HUGE, "input": {"generator": "step"}, "which": "lmo"}, 2, None),
    ("norm", {"grid": GRID_2D_HUGE, "input": {"generator": "step"}, "which": "bmo_local"},
     2, None),
    # a cell measure spacing^2 below the least normal float
    ("norm", {"grid": GRID_2D_TINY, "input": {"generator": "step"}, "which": "lmo"}, 2, None),
    ("norm", {"grid": GRID_2D_TINY, "input": {"generator": "step"}, "which": "bmo_local"},
     2, None),
]


@pytest.mark.parametrize("command, doc, code, regime_name", EXIT_CASES)
def test_config_exit_codes(tmp_path, command, doc, code, regime_name):
    out_dir = tmp_path / "out"
    report = tmp_path / "report.json"
    campaign = {
        "draws": 1, "seed": 3, "atoms": {"count": 2},
        "output_dir": str(out_dir), "output": str(report),
    }
    cfg = _write(tmp_path, "cfg.json", {**campaign, **doc})
    assert _run([command, "--config", cfg]) == code
    if code != 0:  # a rejected config writes nothing
        assert not (out_dir / "rows.csv").exists()
        assert not report.exists()
    if regime_name is not None:
        with (out_dir / "rows.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["regime"] for row in rows} == {regime_name}
        # gamma is n(1/p - 1) as computed (1.0 at 1d p = 0.5), and empty at p = 1
        for row in rows:
            if row["gamma"]:
                assert float(row["gamma"]) == int(row["grid_dim"]) * (1.0 / float(row["p"]) - 1.0)


def test_split_rows_header(tmp_path):
    """The rows.csv header is a fixed external format: SplitReport's field names."""
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path, "cfg.json", {
        "grid": GRID, "regime": "p1", "draws": 1, "seed": 3,
        "atoms": {"count": 2}, "output_dir": str(out_dir),
    })
    assert _run(["split", "--config", cfg]) == 0
    header = (out_dir / "rows.csv").read_text().splitlines()[0]
    assert header == (
        "draw,regime,p,gamma,norm_h1_L1,norm_h2_target,b_scale,lambda_sum,"
        "lambda_p_sum,C1,C2,grid_dim,grid_halfwidth,grid_points"
    )


def test_norm_failed_write_keeps_old_output(tmp_path, monkeypatch):
    """The output file is replaced whole or not at all."""
    out = tmp_path / "report.json"
    out.write_text("old")
    cfg = _write(tmp_path, "cfg.json", {
        "grid": GRID, "input": {"generator": "constant"}, "which": "lp",
        "output": str(out),
    })

    def fail_replace(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(cli.os, "replace", fail_replace)
    assert _run(["norm", "--config", cfg]) == 1
    assert out.read_text() == "old"


def test_split_gamma_mismatch_exit2(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "grid": GRID,
        "regime": "mean",
        "p": 0.8,
        "gamma": 0.5,
        "draws": 1,
        "seed": 1,
    })
    assert _run(["split", "--config", cfg]) == 2


def _sample_decomposition(tmp_path, corrupt=False, local=False):
    spec = GridSpec.from_dict(GRID)
    a = make_atom(Ball((0.0,), 1.0), 1.0, 0, spec)
    terms = [(1.0, a)]
    if local:
        terms.append((0.5, make_local_atom(Ball((2.0,), 2.0), 1.0, spec)))
    decomp = AtomicDecomposition(p=1.0, terms=tuple(terms))
    base = tmp_path / "decomp"
    save_decomposition(decomp, base)
    if corrupt:
        ref = tmp_path / "decomp_atom0000.npy"
        vals = np.load(ref)
        vals[len(vals) // 2] += 0.1 * np.max(np.abs(vals))
        np.save(ref, vals)
    return str(base)


def test_validate_all_pass(tmp_path):
    base = _sample_decomposition(tmp_path, local=True)
    out = tmp_path / "validation.json"
    cfg = _write(tmp_path, "cfg.json", {"decomposition": base, "output": str(out)})
    assert _run(["validate", "--config", cfg]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is True
    by_local = {row["local"]: row for row in doc["atoms"]}
    assert by_local[True]["max_moment_residual"] is None
    assert by_local[False]["max_moment_residual"] is not None


def test_validate_corrupted_moment(tmp_path):
    base = _sample_decomposition(tmp_path, corrupt=True)
    out = tmp_path / "validation.json"
    cfg = _write(tmp_path, "cfg.json", {"decomposition": base, "output": str(out)})
    assert _run(["validate", "--config", cfg]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is False
    assert any("moment" in f for row in doc["atoms"] for f in row["failures"])


def test_validate_missing_file_exit1(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"decomposition": str(tmp_path / "absent")})
    assert _run(["validate", "--config", cfg]) == 1


def _with_term(**edit):
    return lambda doc: {**doc, "terms": [{**doc["terms"][0], **edit}]}


# edits of a saved one-atom decomposition document, each malformed
MALFORMED_DECOMPOSITIONS = {
    "grid-null": lambda doc: {**doc, "grid": None},
    "p-string": _with_term(p="one"),
    "terms-string": lambda doc: {**doc, "terms": "x"},
    "list-document": lambda doc: [doc],
    "s-float": _with_term(s=1.5),
    "finite-q": _with_term(q=2.0),  # only (p, inf, s)-atoms are read
    # a ball center of Infinity or NaN (JSON as Python writes it) has no window
    "center-infinite": _with_term(ball={"center": [math.inf], "radius": 1.0}),
    "center-nan": _with_term(ball={"center": [math.nan], "radius": 1.0}),
    # each rejected as it is read, before any atom is validated
    "p-nan": lambda doc: {**doc, "p": math.nan},
    "p-above-one": lambda doc: {**doc, "p": 2.0, "terms": []},
    "radius-infinite": _with_term(ball={"center": [0.0], "radius": math.inf}),
    "lambda-infinite": _with_term(**{"lambda": math.inf}),
    "local-string": _with_term(local="yes"),
    "terms-object": lambda doc: {**doc, "terms": {}},
}


def _malformed_decomposition(tmp_path, name):
    base = Path(_sample_decomposition(tmp_path))
    doc = json.loads(base.with_suffix(".json").read_text())
    base.with_suffix(".json").write_text(json.dumps(MALFORMED_DECOMPOSITIONS[name](doc)))
    return str(base)


@pytest.mark.parametrize("name", MALFORMED_DECOMPOSITIONS)
def test_validate_malformed_decomposition(tmp_path, capsys, name):
    """A malformed decomposition exits 1 with one error line, not a traceback."""
    out = tmp_path / "validation.json"
    cfg = _write(tmp_path, "cfg.json", {
        "decomposition": _malformed_decomposition(tmp_path, name), "output": str(out),
    })
    assert _run(["validate", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_lab_process_never_prints_a_traceback(tmp_path):
    """What the terminal shows of malformed decompositions, a non-object params,
    an infinite draw count, an input file that is not a path, two Lipschitz
    orders too large for the grid or for float binomial coefficients, a
    halfwidth whose box width overflows, one whose cell measure does, one
    whose cell measure underflows, a generator parameter that overflows, a
    field near the float maximum, an infinite dual order, an atom size bound
    beyond float range, a complex input file and a malformed command line: one
    error line on failure, and nothing on success, numpy warnings included."""
    huge = {"generator": "random-smooth", "params": {"amplitude": 1e308}}  # max|f| 5.7e307
    complex_file = tmp_path / "complex"
    save_gridfunction(GridFunction(GridSpec.from_dict(GRID), np.zeros(129)), complex_file)
    np.save(complex_file.with_suffix(".npy"), np.full(129, 1.0 + 1.0j))
    decompositions = [
        ("validate", {"decomposition": _malformed_decomposition(tmp_path / name, name)}, 1)
        for name in ("grid-null", "p-nan", "radius-infinite", "local-string")
    ]
    cases = decompositions + [
        ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "hardy",
                  "params": [1]}, 2),
        ("split", {"grid": GRID, "regime": "p1", "draws": float("inf"),
                   "output_dir": str(tmp_path / "out")}, 2),
        ("norm", {"grid": GRID, "input": {"file": 5}, "which": "lp"}, 2),
        # the order is checked against the grid before the (absent) input is read
        ("norm", {"grid": GRID, "input": {"file": str(tmp_path / "absent.npz")},
                  "which": "lambda_gamma", "params": {"gamma": 1e300}}, 2),
        ("norm", {"grid": GRID_4097_UNIT, "input": {"generator": "step"},
                  "which": "lambda_gamma", "params": {"gamma": 1100}}, 1),
        # the box width overflows: rejected before numpy warns of inf in the nodes
        ("norm", {"grid": {"dim": 1, "halfwidth": 1e308, "points_per_axis": 129},
                  "input": {"generator": "step"}, "which": "lp"}, 2),
        # the cell measure overflows: rejected before numpy warns, or (2r)^2 raises
        ("norm", {"grid": GRID_2D_HUGE, "input": {"generator": "step"}, "which": "lmo"}, 2),
        ("norm", {"grid": GRID_2D_HUGE, "input": {"generator": "step"},
                  "which": "bmo_local"}, 2),
        # the cell measure underflows: rejected before a ball weight sum is 0
        ("norm", {"grid": GRID_2D_TINY, "input": {"generator": "step"}, "which": "lmo"}, 2),
        ("norm", {"grid": GRID_2D_TINY, "input": {"generator": "step"},
                  "which": "bmo_local"}, 2),
        # a generator parameter whose powers overflow
        ("split", {"grid": GRID, "regime": "mean", "p": 0.8, "b_generator": {
            "kind": "random-lipschitz", "params": {"gamma": 0.5, "levels": 1100}},
            "output_dir": str(tmp_path / "out")}, 2),
        # a finite field whose norm overflows, or whose norm does not
        ("norm", {"grid": GRID, "input": huge, "which": "lp"}, 1),
        ("norm", {"grid": GRID, "input": huge, "which": "lp", "params": {"p": 0.5}}, 1),
        ("norm", {"grid": GRID, "input": huge, "which": "hardy", "params": {"p": 0.5}}, 1),
        ("norm", {"grid": GRID, "input": huge, "which": "bmo_local",
                  "output": str(tmp_path / "report.json")}, 0),
        ("split", {"grid": GRID, "regime": "p1", "b_generator": {"kind": "random-smooth",
                   "params": {"amplitude": 1e308}}, "output_dir": str(tmp_path / "out")}, 0),
        # gamma = n(1/p - 1) is infinite: rejected before its integer part k raises
        ("split", {"grid": GRID_2D, "regime": "projection", "p": 1e-310,
                   "output_dir": str(tmp_path / "out")}, 2),
        ("split", {"grid": GRID_2D, "regime": "projection", "p": 5e-324,
                   "output_dir": str(tmp_path / "out")}, 2),
        # |B|^(-1/p) of the smallest ball overflows: rejected before a draw
        ("split", {"grid": {**GRID, "halfwidth": 1e-250}, "regime": "mean", "p": 0.8,
                   "output_dir": str(tmp_path / "out")}, 2),
        ("norm", {"grid": GRID, "input": {"file": str(complex_file)}, "which": "lp"}, 1),
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    cfg = _write(tmp_path, "cfg.json", {})
    usage = [[], ["split"], ["split", "--config"], ["split", f"--config={cfg}"],
             ["split", "--conf", cfg], ["nope", "--config", cfg], ["split", "--config", cfg, "x"]]
    runs = [([command, "--config", _write(tmp_path, f"cfg{i}.json", doc)], code)
            for i, (command, doc, code) in enumerate(cases)] + [(args, 2) for args in usage]
    for args, code in runs:
        done = subprocess.run([sys.executable, "-m", "hardylab.cli", *args],
                              env=env, capture_output=True, text=True)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        if code == 0:
            assert done.stderr == ""
        else:
            assert len(done.stderr.splitlines()) == 1, done.stderr
            assert done.stderr.startswith("error:")


def _modules_loaded_by_cli(package):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = ("import sys, hardylab.cli; "
             f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only: the `lab` command runs on numpy."""
    assert _modules_loaded_by_cli("scipy") == "[]"


def test_cli_import_loads_no_argparse():
    """`lab` parses its one grammar itself: no argparse, nor its gettext lookups."""
    assert _modules_loaded_by_cli("argparse") == "[]"


@pytest.mark.parametrize("args", [[], ["split"], ["split", "--config"], ["split", "--config=x"],
                                  ["norm", "-c", "x"], ["split", "--config", "x", "--config", "y"],
                                  ["-h", "split"], ["split", "--help"]])
def test_usage_error_is_one_line_exit2(capsys, args):
    """Anything but `COMMAND --config PATH` is a usage error, returned, not raised."""
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {USAGE}"


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage(capsys, flag):
    assert cli.main([flag]) == 0
    captured = capsys.readouterr()
    assert captured.out == USAGE and captured.err == ""


@pytest.mark.parametrize("command", ["norm", "split"])
def test_memory_error_is_one_line_exit1(tmp_path, capsys, monkeypatch, command):
    """A field too large for memory exits 1 with one error line and writes nothing."""
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "b_field", out_of_memory)
    out = tmp_path / "out"
    cfg = _write(tmp_path, "cfg.json", {
        "grid": GRID, "input": {"generator": "random-smooth"}, "which": "lp",
        "output": str(out), "regime": "p1", "output_dir": str(out),
    })
    assert _run([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: Unable to allocate 7.28 TiB for an array"]
    assert not out.exists()


def test_split_rerun_failure_keeps_old_outputs(tmp_path, monkeypatch):
    """A campaign that fails while writing leaves the previous outputs whole."""
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path, "cfg.json", {
        "grid": GRID, "regime": "p1", "draws": 2, "seed": 3,
        "atoms": {"count": 2}, "output_dir": str(out_dir),
    })
    assert _run(["split", "--config", cfg]) == 0
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    assert set(before) == {"rows.csv", "summary.json"}
    to_csv_row = SplitReport.to_csv_row
    rows_written = []

    def fail_on_second_row(report):
        rows_written.append(report)
        if len(rows_written) == 2:
            raise OSError("no space left on device")
        return to_csv_row(report)

    monkeypatch.setattr(SplitReport, "to_csv_row", fail_on_second_row)
    assert _run(["split", "--config", cfg]) == 1
    assert len(rows_written) == 2
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before


# a path or a section of the wrong JSON type, and a generator parameter that
# is not a finite number: each is a config error (exit 2) with one error line
WRONG_TYPES = {
    "norm-output": ("norm", {"grid": GRID, "input": {"generator": "step"}, "which": "lp",
                             "output": 5}),
    "validate-output": ("validate", {"output": 5}),
    "norm-input-string": ("norm", {"grid": GRID, "input": "generator", "which": "lp"}),
    "norm-input-list": ("norm", {"grid": GRID, "input": ["file"], "which": "lp"}),
    "norm-input-file-number": ("norm", {"grid": GRID, "input": {"file": 5}, "which": "lp"}),
    "norm-input-file-list": ("norm", {"grid": GRID, "input": {"file": ["a"]}, "which": "lp"}),
    "split-output_dir": ("split", {"grid": GRID, "regime": "p1", "output_dir": 5}),
    "split-param-string": ("split", {"grid": GRID, "regime": "p1", "b_generator": {
        "kind": "step", "params": {"height": "x"}}}),
    "norm-param-string": ("norm", {"grid": GRID, "which": "lp", "input": {
        "generator": "constant", "params": {"value": "2"}}}),
    "norm-param-nan": ("norm", {"grid": GRID, "which": "lp", "input": {
        "generator": "constant", "params": {"value": float("nan")}}}),
}


@pytest.mark.parametrize("name", WRONG_TYPES)
def test_wrong_type_is_one_error_line(tmp_path, capsys, monkeypatch, name):
    command, doc = WRONG_TYPES[name]
    if command == "validate":
        doc = {**doc, "decomposition": _sample_decomposition(tmp_path)}
    if name == "split-output_dir":  # rejected before the first draw
        monkeypatch.setattr(cli, "_run_draw", lambda *args: pytest.fail("a draw ran"))
    cfg = _write(tmp_path, "cfg.json", {"draws": 1, "atoms": {"count": 2}, **doc})
    assert _run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
