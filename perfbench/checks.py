"""Correctness checks on the `rows.csv` a `lab split` campaign writes.

Every campaign gets the structural checks: the header, one row per draw in
draw order, finite values, the grid columns of its config, and the two
ratio identities C1 = ||h1||_1 / (b_scale * lambda_sum) and
C2 = target(h2) / (b_scale * lambda_p_sum) (for p = 1 the two lambda sums
coincide).  Campaigns that have reference rows are also compared with them
field by field.
"""

from __future__ import annotations

import csv
import io
import math

HEADER = (
    "draw",
    "regime",
    "p",
    "gamma",
    "norm_h1_L1",
    "norm_h2_target",
    "b_scale",
    "lambda_sum",
    "lambda_p_sum",
    "C1",
    "C2",
    "grid_dim",
    "grid_halfwidth",
    "grid_points",
)

# the fields compared with the reference rows
REFERENCE_FIELDS = ("C1", "C2", "norm_h1_L1", "norm_h2_target", "b_scale")

# Relative tolerance against the reference and in the ratio identities.
# Reordered floating-point sums move these values by ~1e-12 relative, and
# the Luxembourg bisection stops on a 1e-9 relative bracket, so a rounding
# change can move norm_h2_target by a bracket width.  Any wrong answer
# (kernel, family, projection or quadrature) moves them by far more.
RTOL = 1e-6

_FLOAT_FIELDS = (
    "p",
    "norm_h1_L1",
    "norm_h2_target",
    "b_scale",
    "lambda_sum",
    "lambda_p_sum",
    "C1",
    "C2",
    "grid_halfwidth",
)


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def _row(fields: list[str]) -> dict:
    if len(fields) != len(HEADER):
        raise ValueError(f"row with {len(fields)} fields")
    row = dict(zip(HEADER, fields))
    for name in _FLOAT_FIELDS:
        row[name] = float(row[name])
    row["gamma"] = None if row["gamma"] == "" else float(row["gamma"])
    for name in ("draw", "grid_dim", "grid_points"):
        row[name] = int(row[name])
    return row


def parse_rows(text: str) -> list[dict]:
    """Rows of a rows.csv text as dicts; raises ValueError if malformed."""
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader, ()))
    if header != HEADER:
        raise ValueError(f"unexpected header {header}")
    return [_row(fields) for fields in reader]


def row_problems(row: dict, config: dict, reference: dict | None) -> list[str]:
    """Why one parsed row is wrong; empty when it passes."""
    problems = []
    values = [row[name] for name in _FLOAT_FIELDS]
    if row["gamma"] is not None:
        values.append(row["gamma"])
    if not all(math.isfinite(v) for v in values):
        return ["non-finite value"]
    grid = config["grid"]
    if (row["grid_dim"], row["grid_halfwidth"], row["grid_points"]) != (
        grid["dim"],
        grid["halfwidth"],
        grid["points_per_axis"],
    ):
        problems.append("grid columns differ from the config")
    if row["p"] != config.get("p", 1.0):
        problems.append("p column differs from the config")
    for ratio, num, lam in (
        ("C1", "norm_h1_L1", "lambda_sum"),
        ("C2", "norm_h2_target", "lambda_p_sum"),
    ):
        denom = row["b_scale"] * row[lam]
        if denom <= 0 or not close(row[ratio], row[num] / denom):
            problems.append(f"{ratio} is not {num} / (b_scale * {lam})")
    if reference is not None:
        for name in REFERENCE_FIELDS:
            if not close(row[name], reference[name]):
                problems.append(f"{name} {row[name]!r} != reference {reference[name]!r}")
    return problems


def load_reference(path) -> dict[int, list[dict]]:
    """{campaign index: rows} from a reference file: rows.csv with a leading
    `campaign` column."""
    campaigns: dict[int, list[dict]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != ("campaign",) + HEADER:
            raise ValueError(f"{path}: unexpected header")
        for fields in reader:
            campaigns.setdefault(int(fields[0]), []).append(_row(fields[1:]))
    return campaigns


def check_campaign(text: str | None, config: dict, reference: list[dict] | None):
    """(number of failed draws, problem strings) for one campaign's rows.csv.

    `reference` holds the reference rows of this campaign, or None when only
    the structural checks apply.
    """
    draws = int(config["draws"])
    if text is None:
        return draws, ["rows.csv missing"]
    try:
        rows = parse_rows(text)
    except ValueError as exc:
        return draws, [f"rows.csv malformed: {exc}"]
    if [row["draw"] for row in rows] != list(range(draws)):
        return draws, [f"rows.csv has draws {[row['draw'] for row in rows]}"]
    failed, problems = 0, []
    for draw, row in enumerate(rows):
        found = row_problems(row, config, None if reference is None else reference[draw])
        if found:
            failed += 1
            problems.extend(f"draw {draw}: {p}" for p in found)
    return failed, problems
