"""Batch front-end: `lab norm`, `lab split`, `lab validate`.

Each subcommand takes a single --config JSON document; no flag overrides,
so a config plus its seeds reproduces every report byte for byte.
Exit codes: 0 success, 1 input/parse failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import statistics
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .atoms import load_decomposition, validate_atom
from .generators import B_GENERATORS, atom_radii, b_field, random_decomposition
from .grid import GridFunction, GridSpec, load_gridfunction, lp_norm
from .lipschitz import LipschitzOrder, lambda_gamma_norm
from .maximal import maximal_scales
from .orlicz import PHI, hardy_quasinorm, lphi_star_norm, luxembourg_norm
from .oscillation import BallFamily, bmo_local_norm, bmo_report, lmo_norm
from .product import REGIMES, Regime, SplitReport, split_bmo, split_lipschitz, verify_split

USAGE_ERROR = 2
PARSE_ERROR = 1


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FileNotFoundError(f"cannot read config {path}: {exc}") from exc


def _grid_from(config: dict) -> GridSpec:
    try:
        return GridSpec.from_dict(config["grid"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid section: {exc}") from exc


def _number(section: dict, key: str, default, kind=float):
    """section[key] (or the default) as a number of the given kind."""
    value = section.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc


def _generate(spec: GridSpec, section, key: str, rng: np.random.Generator) -> GridFunction:
    """The field named by section[key], one of the generators in B_GENERATORS."""
    kind = section.get(key) if isinstance(section, dict) else None
    if not isinstance(kind, str) or kind not in B_GENERATORS:
        raise ConfigError(f"unknown generator {kind!r}; known: {sorted(B_GENERATORS)}")
    try:
        return b_field(spec, kind, rng, **section.get("params", {}))
    except TypeError as exc:  # a missing, unknown or malformed parameter
        raise ConfigError(f"bad params for generator {kind!r}: {exc!r}") from exc


def _input_function(config: dict, spec: GridSpec) -> GridFunction:
    section = config.get("input", {})
    if "file" in section:
        return load_gridfunction(section["file"])
    if "generator" in section:
        rng = np.random.default_rng(_number(section, "seed", 0, int))
        return _generate(spec, section, "generator", rng)
    raise ConfigError("input section needs 'file' or 'generator'")


def _json_text(doc: dict) -> str:
    """Strict JSON text of a report; a NaN or infinite value raises ValueError."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _write_atomic(path: Path, text: str) -> None:
    """Write text to path via a temp file beside it that replaces it whole."""
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text(text, newline="")
    os.replace(tmp, path)


def _emit(doc: dict, out) -> None:
    """Write the report to the path out, or print it when out is not set."""
    text = _json_text(doc)
    if out:
        _write_atomic(Path(out), text)
    else:
        print(text)


def _require_local_scales(spec: GridSpec) -> None:
    """A local maximal function needs a scale on the grid; ConfigError if none."""
    try:
        maximal_scales(spec, local=True)
    except ValueError as exc:
        raise ConfigError(f"grid too coarse for a local maximal function: {exc}") from exc


def cmd_norm(config: dict) -> int:
    spec = _grid_from(config)
    f = _input_function(config, spec)
    which = config.get("which")
    params = config.get("params", {})
    extra: dict = {}
    if which == "lp":
        value = lp_norm(f, _number(params, "p", 1.0))
    elif which == "luxembourg":
        value = luxembourg_norm(f, PHI)
    elif which == "lphi_star":
        value = lphi_star_norm(f)
    elif which == "hardy":
        local = bool(params.get("local", False))
        if local:
            _require_local_scales(spec)
        value = hardy_quasinorm(f, _number(params, "p", 1.0), local=local)
    elif which == "bmo":
        report = bmo_report(f)
        value = report.norm
        extra = asdict(report)
    elif which == "bmo_local":
        value = bmo_local_norm(f)
        extra = {"family_size": len(BallFamily.build(spec).balls)}
    elif which == "lmo":
        value = lmo_norm(f)
    elif which == "lambda_gamma":
        value = lambda_gamma_norm(f, LipschitzOrder(_number(params, "gamma", None)))
    else:
        raise ConfigError(f"unknown norm tag {which!r}")
    doc = {
        "which": which,
        "value": value,
        "grid": spec.to_dict(),
        **extra,
    }
    _emit(doc, config.get("output"))
    return 0


def _split_config(spec: GridSpec, config: dict) -> tuple[Regime, LipschitzOrder | None, dict]:
    """(regime, Lipschitz order of b or None at p = 1, random_decomposition keywords)."""
    name = config.get("regime")
    if not isinstance(name, str) or name not in REGIMES:
        raise ConfigError(f"unknown regime {name!r}")
    regime = REGIMES[name]
    p = _number(config, "p", 1.0)
    if not regime.admits(p, spec.dim):
        raise ConfigError(f"p = {p} is outside the range of regime {name!r}")
    if regime.local:
        _require_local_scales(spec)
    atoms_cfg = config.get("atoms", {})
    if not isinstance(atoms_cfg, dict):
        raise ConfigError(f"atoms must be an object, got {atoms_cfg!r}")
    radius_range = atoms_cfg.get("radius_range")
    try:  # the default range too: a coarse grid can leave it without a radius
        if radius_range is not None:
            if not isinstance(radius_range, list):
                raise TypeError("not a list")
            radius_range = tuple(float(v) for v in radius_range)
        atom_radii(spec, radius_range)
    except (TypeError, ValueError) as exc:
        shown = atoms_cfg.get("radius_range", "default")
        raise ConfigError(f"bad atoms.radius_range {shown!r}: {exc}") from exc
    order, s_default = None, 0
    if regime.kind != "p1":
        order = LipschitzOrder.dual_to(p, spec.dim)
        if config.get("gamma") is not None and abs(_number(config, "gamma", None) - order.gamma) > 1e-12:
            raise ConfigError(f"gamma must equal n(1/p - 1) = {order.gamma}")
        s_default = 2 * order.k if regime.kind == "projection" else 0
    s = _number(atoms_cfg, "s", s_default, int)
    count = _number(atoms_cfg, "count", 4, int)
    if count < 1 or s < 0:
        raise ConfigError(f"atoms need count >= 1 and s >= 0, got count {count}, s {s}")
    atoms = {
        "p": 1.0 if order is None else p,
        "s": s,
        "n_atoms": count,
        "radius_range": radius_range,
        "local": regime.local,
    }
    return regime, order, atoms


def _run_draw(
    spec: GridSpec, regime: Regime, order, atoms: dict, b_section, rng: np.random.Generator
) -> SplitReport:
    b = _generate(spec, b_section, "kind", rng)
    decomp = random_decomposition(spec, rng, **atoms)
    if order is None:
        split = split_bmo(b, decomp, local=regime.local)
        b_scale = bmo_local_norm(b)
    else:
        split = split_lipschitz(b, decomp, local=regime.local)
        b_scale = lambda_gamma_norm(b, order)
    return verify_split(split, b_scale, decomp)


def cmd_split(config: dict) -> int:
    spec = _grid_from(config)
    regime, order, atoms = _split_config(spec, config)
    b_section = config.get("b_generator", {"kind": "random-smooth"})
    draws = _number(config, "draws", 1, int)
    if draws < 1:
        raise ConfigError(f"draws must be at least 1, got {draws}")
    seed = _number(config, "seed", 0, int)
    rng = np.random.default_rng(seed)
    reports = [_run_draw(spec, regime, order, atoms, b_section, rng) for _ in range(draws)]
    c1s = [r.C1 for r in reports]
    c2s = [r.C2 for r in reports]
    summary = _json_text({
        "regime": config["regime"],
        "draws": draws,
        "seed": seed,
        "C1_max": max(c1s),
        "C1_median": statistics.median(c1s),
        "C2_max": max(c2s),
        "C2_median": statistics.median(c2s),
    })
    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(["draw"] + [f.name for f in fields(SplitReport)])
    for draw, report in enumerate(reports):
        writer.writerow([draw] + report.to_csv_row())
    # created once every draw has succeeded and both outputs are built (so a
    # failed run writes nothing), each replaced whole
    out_dir = Path(config.get("output_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in (("rows.csv", rows.getvalue()), ("summary.json", summary)):
        _write_atomic(out_dir / name, text)
    return 0


def cmd_validate(config: dict) -> int:
    try:
        decomp = load_decomposition(config["decomposition"])
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot load decomposition: {exc}", file=sys.stderr)
        return PARSE_ERROR
    rows = []
    for idx, (lam, atom) in enumerate(decomp.terms):
        report = validate_atom(atom)
        rows.append(
            {
                "index": idx,
                "lambda": lam,
                "local": atom.local,
                "passed": report.passed,
                "failures": list(report.failures),
                "support_leakage": report.support_leakage,
                "size_ratio": report.size_ratio,
                "max_moment_residual": max(
                    (abs(v) for v in report.moment_residuals.values()), default=None
                ),
            }
        )
    doc = {"p": decomp.p, "atoms": rows, "all_passed": all(r["passed"] for r in rows)}
    _emit(doc, config.get("output"))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("norm", "split", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    handlers = {"norm": cmd_norm, "split": cmd_split, "validate": cmd_validate}
    try:
        return handlers[args.command](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
