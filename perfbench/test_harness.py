"""Tests of the benchmark's own harness.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""

import csv
import io
import json
import math
import sys

import pytest

import checks
import run
import tracer


def test_self_time_arithmetic():
    # root [0, 10] with children [1, 4] and [3, 6] overlapping on [3, 4],
    # a grandchild [2, 3] inside the first child, and a child [9, 12]
    # reaching past the root's end
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["c", 9.0, 12.0, 0, 1],
    ]
    assert tracer.self_times(spans) == [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0]
    totals = tracer.layer_totals(spans + [["a", 20.0, 20.5, None, 1]])
    assert totals["a"] == {"calls": 2, "self_s": 2.5}
    assert totals["root"] == {"calls": 1, "self_s": 4.0}


def test_per_layer_sums_campaigns_separately():
    # parent indices refer to the campaign's own span list
    spans = [["cli.main", 0.0, 4.0, None, -1], ["maximal.maximal_fn", 1.0, 2.0, 0, 0]]
    counts = {"orlicz.PHI.eval": 30, "maximal.direct_madds": 7}
    config = {"draws": 2}
    campaigns = [
        run.Campaign(0, False, config, {"campaign_s": 2.0, "exit_code": 0}, "", 0, [], None),
        run.Campaign(0, True, config, {"campaign_s": 4.0, "exit_code": 0}, "", 0, [], {"spans": spans, "counts": counts}),
        run.Campaign(1, True, config, {"campaign_s": 4.0, "exit_code": 0}, "", 0, [], {"spans": spans, "counts": counts}),
    ]
    values, detail = run.per_layer(campaigns)
    assert values["cli.main.self_s"] == 1.5
    assert values["maximal.maximal_fn.self_s"] == 0.5
    assert values["maximal.direct_madds"] == 3.5
    assert values["orlicz.gauge_evals"] == 15.0
    assert values["orlicz.luxembourg_norm.calls"] == 0.0
    assert values["trace.overhead"] == 1.0
    assert detail["self_s_sum_per_draw"] == 2.0
    assert set(values) == set(run.per_layer_units())


def _reference_text(name="split-2d-p1", seed=run.DEFAULT_SEED, campaign=0):
    """rows.csv text of one reference campaign, as `lab split` writes it."""
    path = run.REFERENCE_DIR / f"{name}.seed{seed}.csv"
    out = io.StringIO()
    writer = csv.writer(out)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        writer.writerow(next(reader)[1:])
        writer.writerows(r[1:] for r in reader if int(r[0]) == campaign)
    return out.getvalue()


def _config(name="split-2d-p1", seed=run.DEFAULT_SEED, campaign=0):
    return run.campaign_config(run.WORKLOADS[name], seed, campaign)


def _scale(text, draw, fields, factor):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    for name in fields:
        col = header.index(name)
        rows[draw + 1][col] = repr(float(rows[draw + 1][col]) * factor)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def test_reference_rows_pass():
    reference = run.reference_rows("split-2d-p1", run.DEFAULT_SEED)
    assert len(reference) == run.REFERENCE_CAMPAIGNS
    assert checks.check_campaign(_reference_text(), _config(), reference[0]) == (0, [])


def test_reference_check_flags_perturbed_c2():
    reference = run.reference_rows("split-2d-p1", run.DEFAULT_SEED)[0]
    # scaling norm_h2_target with C2 keeps the ratio identity, so only the
    # comparison with the reference can see it
    text = _scale(_reference_text(), 1, ("C2", "norm_h2_target"), 1.0 + 1e-4)
    assert checks.check_campaign(text, _config(), None) == (0, [])
    failed, problems = checks.check_campaign(text, _config(), reference)
    assert failed == 1
    assert any(p.startswith("draw 1: C2") for p in problems)


def test_structural_checks_flag_broken_rows():
    config = _config()
    assert checks.check_campaign(None, config, None)[0] == config["draws"]
    text = _reference_text()
    assert checks.check_campaign(text.replace("C2", "C3"), config, None)[0] == 2
    assert checks.check_campaign(_scale(text, 0, ("C2",), 1.01), config, None)[0] == 1
    lines = text.splitlines()
    assert checks.check_campaign("\n".join(lines[:-1]) + "\n", config, None)[0] == 2
    nan = _scale(text, 0, ("b_scale",), math.nan)
    assert checks.check_campaign(nan, config, None) == (1, ["draw 0: non-finite value"])


def _bindings():
    """Every attribute the tracer may patch, by identity."""
    seen = {}
    for module_name, module in list(sys.modules.items()):
        if module_name == "hardylab" or module_name.startswith("hardylab."):
            for name, value in vars(module).items():
                seen[(module_name, name)] = value
    from hardylab.orlicz import PHI
    from hardylab.oscillation import BallFamily

    seen["BallFamily.build"] = vars(BallFamily)["build"]
    seen["PHI.eval"] = vars(PHI)["eval"]
    return seen


def test_wrappers_leave_nothing_patched():
    pytest.importorskip("hardylab.cli")
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        during = _bindings()
        patched = {k for k in before if during[k] is not before[k]}
        # maximal_fn is bound in maximal and orlicz; both are wrapped
        assert {("hardylab.maximal", "maximal_fn"), ("hardylab.orlicz", "maximal_fn"),
                ("hardylab.cli", "main"), "BallFamily.build", "PHI.eval"} <= patched
    finally:
        t.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_campaign_matches_untraced(tmp_path):
    cli = pytest.importorskip("hardylab.cli")
    config = run.campaign_config(run.Workload(dim=1, points=257, regime="p1", draws=2), 0, 0)
    texts = []
    t = tracer.Tracer()
    for traced in (False, True):
        out = tmp_path / f"out{int(traced)}"
        path = tmp_path / f"config{int(traced)}.json"
        path.write_text(json.dumps(dict(config, output_dir=str(out))))
        if traced:
            t.install()
        try:
            assert cli.main(["split", "--config", str(path)]) == 0
        finally:
            t.restore()
        texts.append((out / "rows.csv").read_bytes())
    assert texts[0] == texts[1]
    roots = [s for s in t.spans if s[3] is None]
    assert [s[0] for s in roots] == ["cli.main"]
    # self times partition the root span
    assert math.isclose(sum(tracer.self_times(t.spans)), roots[0][2] - roots[0][1])
    assert {s[4] for s in t.spans if s[0] == "generators.b_field"} == {0, 1}
    assert t.counts["oscillation.balls_scanned"] > 0
    assert t.counts["orlicz.PHI.eval"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) - set(
        run.NOT_IN_BENCHMARK
    )
