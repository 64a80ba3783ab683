import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardylab import cli
from hardylab.atoms import AtomicDecomposition, make_atom, make_local_atom, save_decomposition
from hardylab.grid import Ball, GridSpec
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
        values.append(json.loads(out.read_text())["value"])
    assert values[1] == pytest.approx(values[0], rel=0.25)


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

# (command, config, exit code, regime name written to rows.csv)
EXIT_CASES = [
    ("norm", {"grid": INF_GRID, "input": {"generator": "constant"}, "which": "lp"}, 2, None),
    ("split", {"grid": INF_GRID, "regime": "p1"}, 2, None),
    ("split", {"grid": GRID, "regime": "projection", "p": 0.8}, 2, None),
    ("split", {"grid": GRID, "regime": "mean", "p": 0.4}, 2, None),
    ("split", {"grid": GRID, "regime": "mean", "p": 0.8}, 0, "p_lt1_mean"),
    ("split", {"grid": GRID, "regime": "projection", "p": 0.4}, 0, "p_lt1_proj"),
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
    # about 4e200 is found, and an infinite one (infinite weights) exits 1
    ("norm", {"grid": {"dim": 2, "halfwidth": 1e100, "points_per_axis": 17},
              "input": {"generator": "constant"}, "which": "luxembourg"}, 0, None),
    pytest.param(
        "norm", {"grid": {"dim": 2, "halfwidth": 1e200, "points_per_axis": 17},
                 "input": {"generator": "constant"}, "which": "luxembourg"}, 1, None,
        marks=pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
    ),
    # a misspelled generator parameter is not silently replaced by its default
    ("split", {"grid": GRID, "regime": "p1",
               "b_generator": {"kind": "random-smooth", "params": {"amplitde": 5.0}}}, 2, None),
    ("norm", {"grid": GRID, "input": {"generator": "constant", "params": {"valeu": 5}},
              "which": "lp"}, 2, None),
    ("split", {"grid": GRID, "regime": "p1", "b_generator": {
        "kind": "random-lipschitz", "params": {"gamma": 0.5, "target_norm": 1.0}}}, 2, None),
    # spacing 1/2: the local maximal ladder [2 * spacing, 1/2] holds no power of two
    ("split", {"grid": {**GRID, "points_per_axis": 33}, "regime": "p1_local"}, 2, None),
    ("split", {"grid": {**GRID, "points_per_axis": 33}, "regime": "projection_local",
               "p": 0.4}, 2, None),
    ("norm", {"grid": {**GRID, "points_per_axis": 33}, "input": {"generator": "step"},
              "which": "hardy", "params": {"p": 1.0, "local": True}}, 2, None),
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
            assert {row["regime"] for row in csv.DictReader(fh)} == {regime_name}


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


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only: the `lab` command runs on numpy."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = ("import sys, hardylab.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


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
