"""Benchmark: `lab split` campaigns, each in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One operation is one `lab split`
campaign: `hardylab.cli.main(["split", "--config", ...])` in a child
interpreter that starts with cold caches, as a real `lab` run does.
Campaigns run back to back from one client (closed loop, one at a time),
with BLAS pinned to one thread, until S seconds have passed.  Campaign i
takes its config seed from (N, i); the library sees only the config.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each campaign
twice, untraced and then traced with the wrappers of tracer.py, checks that
both write byte-identical rows.csv, and reports per-layer metrics per draw.
Every rows.csv is checked (checks.py).  The last line of stdout is the JSON
result; a result file with provenance goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
REFERENCE_DIR = HERE / "reference"

# the workload seed the reference rows were made for, and one held out
DEFAULT_SEED = 0
HELDOUT_SEED = 1
REFERENCE_CAMPAIGNS = 24

# A campaign takes a few seconds; one still running after CAMPAIGN_TIMEOUT_S
# is killed and its draws count as failed.  A run must end within 180 s, so
# no campaign may run past HARD_DEADLINE_S.
CAMPAIGN_TIMEOUT_S = 30.0
HARD_DEADLINE_S = 160.0

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    dim: int
    points: int
    regime: str
    draws: int
    p: float | None = None
    halfwidth: float = 8.0
    atoms: int = 4


WORKLOADS = {
    # headline: maximal (full-ladder 2d direct convolution) and oscillation
    # (per-ball loop, family rebuilt every draw) share the draw time
    "split-2d-p1": Workload(dim=2, points=65, regime="p1", draws=2),
    # maximal dominates; no ball family and no Luxembourg norm
    "split-2d-projection": Workload(
        dim=2, points=65, regime="projection", draws=3, p=0.5
    ),
    # oscillation dominates; the truncated ladder has only small kernels
    "split-1d-p1-local": Workload(dim=1, points=4097, regime="p1_local", draws=6),
}

# Runnable, but not in BENCHMARK.json: about one campaign in a hundred fails
# at the seed code because orlicz.luxembourg_norm underflows (README.md).
NOT_IN_BENCHMARK = ("split-1d-p1-local",)

END_TO_END = {
    "setup_s": "s",
    "campaign_s.p50": "s",
    "draws_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metrics: span self times and call counts, counters, ratios
SELF_S = tracer.SPAN_TARGETS
CALLS = (
    "maximal.convolve_dilated",
    "oscillation.BallFamily.build",
    "orlicz.luxembourg_norm",
    "projection.poly_project",
)
COUNTERS = {
    "grid.region_slices.calls": "grid.region_slices",
    "lipschitz.difference_op.calls": "lipschitz.difference_op",
    "orlicz.gauge_evals": "orlicz.PHI.eval",
    "maximal.direct_madds": "maximal.direct_madds",
    "oscillation.balls_scanned": "oscillation.balls_scanned",
}


def per_layer_units() -> dict:
    units = {f"{name}.self_s": "s" for name in SELF_S}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({name: "count" for name in COUNTERS})
    units["orlicz.gauge_evals_per_norm"] = "count"
    units["trace.overhead"] = "ratio"
    return units


def config_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def campaign_config(workload: Workload, seed: int, index: int) -> dict:
    """The `lab split` config of campaign `index`, without its output_dir."""
    config = {
        "grid": {
            "dim": workload.dim,
            "halfwidth": workload.halfwidth,
            "points_per_axis": workload.points,
        },
        "regime": workload.regime,
        "draws": workload.draws,
        "seed": config_seed(seed, index),
        "atoms": {"count": workload.atoms},
        "b_generator": {"kind": "random-smooth"},
    }
    if workload.p is not None:
        config["p"] = workload.p
    return config


def reference_rows(name: str, seed: int) -> dict:
    path = REFERENCE_DIR / f"{name}.seed{seed}.csv"
    return checks.load_reference(path) if path.is_file() else {}


@dataclass
class Campaign:
    index: int
    traced: bool
    config: dict
    report: dict | None
    rows_text: str | None
    failed: int
    problems: list
    spans: dict | None


def run_campaign(run_dir: Path, config: dict, index: int, traced: bool,
                 reference: list | None, deadline: float) -> Campaign:
    tag = f"c{index}-{'t' if traced else 'u'}"
    cdir = run_dir / tag
    cdir.mkdir(parents=True)
    config = dict(config, output_dir=str(cdir / "out"))
    config_path, report_path, spans_path = (
        cdir / "config.json", cdir / "report.json", cdir / "spans.json"
    )
    config_path.write_text(json.dumps(config))
    cmd = [sys.executable, str(HERE / "child.py"), str(config_path), str(report_path)]
    if traced:
        cmd.append(str(spans_path))
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    problems = []
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, min(CAMPAIGN_TIMEOUT_S, deadline - time.perf_counter())),
        )
        if proc.returncode != 0:
            problems.append(f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    except subprocess.TimeoutExpired:
        problems.append(f"campaign killed after {CAMPAIGN_TIMEOUT_S:.0f} s")
    report = json.loads(report_path.read_text()) if report_path.is_file() else None
    rows_path = cdir / "out" / "rows.csv"
    rows_text = rows_path.read_text() if rows_path.is_file() else None
    spans = json.loads(spans_path.read_text()) if spans_path.is_file() else None
    if report is not None and report["exit_code"] != 0:
        problems.append(f"cli.main exit {report['exit_code']}: {report['error']}")
    if problems:
        failed = config["draws"]
    else:
        failed, problems = checks.check_campaign(rows_text, config, reference)
    return Campaign(index, traced, config, report, rows_text, failed, problems, spans)


def provenance(args, workload: Workload, campaigns: int, reference_checked: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hardylab").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        usable_cpus = os.cpu_count()
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "nproc": usable_cpus,
        "workload": args.workload,
        "workload_seed": args.seed,
        "grid": {"dim": workload.dim, "halfwidth": workload.halfwidth,
                 "points_per_axis": workload.points},
        "regime": workload.regime,
        "p": workload.p,
        "draws_per_campaign": workload.draws,
        "campaigns": campaigns,
        "campaigns_reference_checked": reference_checked,
        "campaigns_structural_only": campaigns - reference_checked,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one campaign at a time",
    }


def _completed(campaigns: list) -> list:
    return [c for c in campaigns if c.report is not None and c.report["exit_code"] == 0]


def end_to_end(campaigns: list) -> tuple[dict, dict]:
    reports = [c.report for c in _completed(campaigns)]
    campaign_s = [r["campaign_s"] for r in reports]
    passed = sum(c.config["draws"] - c.failed for c in campaigns)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "campaign_s.p50": statistics.median(campaign_s),
        "draws_per_s": passed / sum(campaign_s),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }
    samples = {"setup_s": len(reports), "campaign_s.p50": len(campaign_s)}
    return values, {"samples": samples}


def per_layer(campaigns: list) -> tuple[dict, dict]:
    completed = _completed(campaigns)
    traced = [c for c in completed if c.traced and c.spans is not None]
    plain = [c.report["campaign_s"] for c in completed if not c.traced]
    draws = sum(c.config["draws"] for c in traced)
    # span parents index into their own campaign's list
    totals: dict = {}
    counts: dict = {}
    for c in traced:
        for name, t in tracer.layer_totals(c.spans["spans"]).items():
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += t["calls"]
            entry["self_s"] += t["self_s"]
        for name, n in c.spans["counts"].items():
            counts[name] = counts.get(name, 0) + n
    zero = {"calls": 0, "self_s": 0.0}
    values = {f"{n}.self_s": totals.get(n, zero)["self_s"] / draws for n in SELF_S}
    values.update({f"{n}.calls": totals.get(n, zero)["calls"] / draws for n in CALLS})
    values.update({m: counts.get(src, 0) / draws for m, src in COUNTERS.items()})
    norms = totals.get("orlicz.luxembourg_norm", zero)["calls"]
    values["orlicz.gauge_evals_per_norm"] = (
        counts.get("orlicz.PHI.eval", 0) / norms if norms else 0.0
    )
    traced_s = [c.report["campaign_s"] for c in traced]
    values["trace.overhead"] = statistics.median(traced_s) / statistics.median(plain) - 1.0
    detail = {
        "samples": {"traced_campaigns": len(traced), "untraced_campaigns": len(plain),
                    "traced_draws": draws},
        # the self times partition cli.main, so this sum should match the
        # traced campaign time per draw
        "self_s_sum_per_draw": sum(v for k, v in values.items() if k.endswith(".self_s")),
        "traced_campaign_s_per_draw": sum(traced_s) / draws,
        "layers": totals,
        "counts": counts,
    }
    return values, detail


def run_campaigns(args, workload: Workload, reference: dict, run_dir: Path) -> list:
    """Campaigns back to back (untraced, then traced in trace mode) for
    about args.seconds."""
    campaigns: list[Campaign] = []
    start = time.perf_counter()
    deadline = start + HARD_DEADLINE_S
    index = 0
    while True:
        step_start = time.perf_counter()
        config = campaign_config(workload, args.seed, index)
        ref = reference.get(index)
        plain = run_campaign(run_dir, config, index, False, ref, deadline)
        campaigns.append(plain)
        if args.trace:
            traced = run_campaign(run_dir, config, index, True, ref, deadline)
            if traced.rows_text != plain.rows_text and not traced.problems:
                traced.failed = config["draws"]
                traced.problems.append("traced rows.csv differs from untraced")
            campaigns.append(traced)
        index += 1
        now = time.perf_counter()
        # stop where the next step would end further past the budget than
        # this one ends before it
        if now - start + (now - step_start) / 2 >= args.seconds or now >= deadline:
            return campaigns


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hardylab" / "cli.py").is_file():
        print(f"error: no hardylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    reference = reference_rows(args.workload, args.seed)
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        campaigns = run_campaigns(args, workload, reference, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    completed = _completed(campaigns)
    if not completed or (args.trace and not any(c.traced and c.spans for c in completed)):
        for c in campaigns[:3]:
            print(f"campaign {c.index}: {'; '.join(c.problems)}", file=sys.stderr)
        print("error: no campaign completed; nothing was measured", file=sys.stderr)
        return 1

    attempted = sum(c.config["draws"] for c in campaigns)
    failed = sum(c.failed for c in campaigns)
    indices = sorted({c.index for c in campaigns})
    checked = sum(1 for i in indices if i in reference)
    if checked == len(indices):
        reference_check = "reference rows"
    elif checked:
        reference_check = f"reference rows for {checked} of {len(indices)} campaigns, structural for the rest"
    else:
        reference_check = "structural only"
    if args.trace:
        values, detail = per_layer(campaigns)
        units = per_layer_units()
    else:
        values, detail = end_to_end(campaigns)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result_doc = {
        "metrics": metrics,
        **detail,
        "draws_attempted": attempted,
        "draws_failed": failed,
        "fail_share": failed / attempted,
        "reference_check": reference_check,
        "provenance": {
            **provenance(args, workload, len(indices), checked),
            "versions": completed[0].report["versions"],
            "blas": completed[0].report["blas"],
        },
        "campaigns": [
            {
                "index": c.index,
                "traced": c.traced,
                "config_seed": c.config["seed"],
                **{k: c.report and c.report[k] for k in ("setup_s", "campaign_s", "peak_rss_mb")},
                "failed_draws": c.failed,
                "problems": c.problems,
            }
            for c in campaigns
        ],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    result_path.write_text(json.dumps(result_doc, indent=2, sort_keys=True))

    for c in campaigns:
        for problem in c.problems:
            print(f"campaign {c.index}{' traced' if c.traced else ''}: {problem}")
    print(
        f"{args.workload} seed {args.seed}: {len(indices)} campaigns x {workload.draws} draws,"
        f" samples {detail['samples']}, failed draws {failed}/{attempted}"
        f" (fail_share {failed / attempted:.3g}), checked against {reference_check};"
        f" {result_path.relative_to(ROOT)}"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
