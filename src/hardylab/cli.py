"""Batch front-end: `lab norm`, `lab split`, `lab validate`.

usage: lab {norm,split,validate} --config PATH

Each subcommand takes a single --config JSON document; no flag overrides,
so a config plus its seeds reproduces every report byte for byte.
Exit codes: 0 success, 1 any other failure (an unreadable input, a malformed
file, a field or a norm out of float range, memory), 2 usage or config error.
Every failure prints one `error:` line on stderr.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import statistics
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .atoms import _size_bound, load_decomposition, resolves_atom, validate_atom
from .generators import B_GENERATORS, b_field, moment_radius, random_decomposition
from .grid import (
    Ball, GridFunction, GridSpec, as_integer, as_number, fewest_ball_nodes, load_gridfunction,
    lp_norm, sup_norm,
)
from .lipschitz import LipschitzOrder, seminorm_scan
from .maximal import maximal_scales
from .orlicz import PHI, hardy_quasinorm, lphi_star_norm, luxembourg_norm
from .oscillation import BallFamily, bmo_local_norm, bmo_report, lmo_norm
from .product import REGIMES, Regime, SplitReport, split_bmo, split_lipschitz, verify_split

USAGE_ERROR = 2
PARSE_ERROR = 1
_USAGE = "usage: lab {norm,split,validate} --config PATH"

_NORMS = ("lp", "luxembourg", "lphi_star", "hardy", "bmo", "bmo_local", "lmo", "lambda_gamma")


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FileNotFoundError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return config


def _grid_from(config: dict) -> GridSpec:
    try:
        return GridSpec.from_dict(config["grid"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid section: {exc}") from exc


def _number(section: dict, key: str, default, kind=float):
    """section[key] (or the default) as a JSON number of the given kind: a
    bool or a string is not a number, and an int must be finite and integral."""
    try:
        return (as_integer if kind is int else as_number)(section.get(key, default), key)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _seed(section: dict, key: str) -> int:
    """section["seed"] (0 by default) as a nonnegative integer, named key in errors."""
    seed = _number(section, "seed", 0, int)
    if seed < 0:
        raise ConfigError(f"{key} must be a nonnegative integer, got {seed}")
    return seed


def _generate(spec: GridSpec, section, key: str, rng: np.random.Generator) -> GridFunction:
    """The field named by section[key], one of the generators in B_GENERATORS."""
    kind = section.get(key) if isinstance(section, dict) else None
    if not isinstance(kind, str) or kind not in B_GENERATORS:
        raise ConfigError(f"unknown generator {kind!r}; known: {sorted(B_GENERATORS)}")
    params = section.get("params", {})
    if isinstance(params, dict) and not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        for v in params.values()
    ):
        raise ConfigError(f"params of generator {kind!r} must be finite numbers, got {params!r}")
    try:  # numpy overflows raise, as Python's 2.0 ** n does, and print no warning
        with np.errstate(over="raise", invalid="raise"):
            return b_field(spec, kind, rng, **params)
    # a missing, unknown or malformed parameter, one out of its range, or one
    # whose field overflows
    except (TypeError, ValueError, OverflowError, FloatingPointError) as exc:
        raise ConfigError(f"bad params for generator {kind!r}: {exc!r}") from exc


def _path(config: dict, key: str) -> str | None:
    """config[key] as a path, None when it is not set; ConfigError otherwise."""
    value = config.get(key)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{key} must be a path, got {value!r}")
    return value


def _input_function(config: dict, spec: GridSpec) -> GridFunction:
    section = config.get("input", {})
    if not isinstance(section, dict):
        raise ConfigError(f"input must be an object, got {section!r}")
    path = _path(section, "file")
    if path is not None:
        loaded = load_gridfunction(path)
        if loaded.spec != spec:  # the report states the config's grid
            raise ConfigError(f"input file {path} holds grid {loaded.spec.to_dict()}, "
                              f"not the config's grid {spec.to_dict()}")
        return loaded
    if "generator" in section:
        rng = np.random.default_rng(_seed(section, "input.seed"))
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
    out = _path(config, "output")
    which = config.get("which")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"params must be an object, got {params!r}")
    # the tag, the exponent and order ranges and the hardy flag are checked
    # before the input is read
    if which not in _NORMS:
        raise ConfigError(f"unknown norm tag {which!r}")
    if which in ("lp", "hardy"):
        p = _number(params, "p", 1.0)
        if not (p > 0 and (which == "lp" or p <= 1)):
            raise ConfigError(f"p = {p} is outside the range of norm {which!r}")
    if which == "lambda_gamma":
        gamma = _number(params, "gamma", None)
        if not 0 < gamma < math.inf:
            raise ConfigError(f"gamma = {gamma} is not a finite positive order")
        order = LipschitzOrder(gamma)
        if not order.fits(spec):
            raise ConfigError(f"gamma = {gamma} is too large for {spec.points_per_axis} "
                              "points per axis: no difference stencil fits")
    if which == "hardy":
        local = params.get("local", False)
        if not isinstance(local, bool):
            raise ConfigError(f"local must be true or false, got {local!r}")
        if local:
            _require_local_scales(spec)
    f = _input_function(config, spec)
    extra: dict = {}
    if which == "lp":
        value = lp_norm(f, p)
    elif which == "luxembourg":
        value = luxembourg_norm(f, PHI)
    elif which == "lphi_star":
        value = lphi_star_norm(f)
    elif which == "hardy":
        value = hardy_quasinorm(f, p, local=local)
        extra = {"maximal_scales": maximal_scales(spec, local)}
    elif which == "bmo":
        report = bmo_report(f)
        value = report.norm
        extra = asdict(report)
    elif which == "bmo_local":
        value = bmo_local_norm(f)
        extra = {"family_size": len(BallFamily.build(spec).balls)}
    elif which == "lmo":
        value = lmo_norm(f)
    else:  # lambda_gamma
        scan = seminorm_scan(f, order)
        value = sup_norm(f) + scan.value  # lambda_gamma_norm, with the scan's counts
        extra = {"displacements_visited": scan.visited, "displacements": scan.displacements}
    doc = {
        "which": which,
        "value": value,
        "grid": spec.to_dict(),
        **extra,
    }
    _emit(doc, out)
    return 0


def _split_config(spec: GridSpec, config: dict) -> tuple[Regime, dict]:
    """(regime, random_decomposition keywords), checked so that every draw can run."""
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
            radius_range = tuple(as_number(v, "radius_range") for v in radius_range)
        radius = moment_radius(spec, radius_range, regime.local)
    except (TypeError, ValueError) as exc:
        shown = atoms_cfg.get("radius_range", "default")
        raise ConfigError(f"bad atoms.radius_range {shown!r}: {exc}") from exc
    s_min = 0
    if regime.kind != "p1":
        try:
            order = LipschitzOrder.dual_to(p, spec.dim)
        except ValueError as exc:  # gamma = n(1/p - 1) beyond float range
            raise ConfigError(f"p = {p} gives no Lipschitz order: {exc}") from exc
        # `not <=` so that a NaN gamma, which compares False, is rejected too
        if config.get("gamma") is not None and not abs(_number(config, "gamma", None) - order.gamma) <= 1e-12:
            raise ConfigError(f"gamma must equal n(1/p - 1) = {order.gamma}")
        s_min = order.min_atom_s  # 0 in the mean regimes, where k = 0
    s = _number(atoms_cfg, "s", s_min, int)
    count = _number(atoms_cfg, "count", 4, int)
    if count < 1 or s < 0:
        raise ConfigError(f"atoms need count >= 1 and s >= 0, got count {count}, s {s}")
    if radius is not None and s < s_min:  # None: every atom is local and takes no moments
        raise ConfigError(f"atoms.s must be at least 2k = {s_min}, got {s}")
    if radius is not None and not resolves_atom(spec.dim, s, fewest_ball_nodes(spec, radius)):
        raise ConfigError(f"atoms.s = {s} is too large for a ball of the smallest radius {radius}")
    atom_p = 1.0 if regime.kind == "p1" else p
    if radius is not None:  # the smallest ball has the largest size bound
        try:
            _size_bound(Ball((0.0,) * spec.dim, radius), atom_p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    atoms = {
        "p": atom_p,
        "s": s,
        "n_atoms": count,
        "radius_range": radius_range,
        "local": regime.local,
    }
    return regime, atoms


def _run_draw(
    spec: GridSpec, regime: Regime, atoms: dict, b_section, rng: np.random.Generator
) -> SplitReport:
    b = _generate(spec, b_section, "kind", rng)
    decomp = random_decomposition(spec, rng, **atoms)
    if regime.kind == "p1":
        split = split_bmo(b, decomp, local=regime.local)
    else:
        split = split_lipschitz(b, decomp, local=regime.local)
    return verify_split(split, b, decomp)


def cmd_split(config: dict) -> int:
    spec = _grid_from(config)
    out_dir = Path(_path(config, "output_dir") or ".")
    regime, atoms = _split_config(spec, config)
    b_section = config.get("b_generator", {"kind": "random-smooth"})
    draws = _number(config, "draws", 1, int)
    if draws < 1:
        raise ConfigError(f"draws must be at least 1, got {draws}")
    seed = _seed(config, "seed")
    rng = np.random.default_rng(seed)
    reports = [_run_draw(spec, regime, atoms, b_section, rng) for _ in range(draws)]
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
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in (("rows.csv", rows.getvalue()), ("summary.json", summary)):
        _write_atomic(out_dir / name, text)
    return 0


def cmd_validate(config: dict) -> int:
    path = config.get("decomposition")
    if not isinstance(path, str):
        raise ConfigError(f"decomposition must be a path, got {path!r}")
    out = _path(config, "output")
    decomp = load_decomposition(path)  # OSError or ValueError: exit 1
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
    _emit(doc, out)
    return 0


def main(argv=None) -> int:
    """Run `lab COMMAND --config PATH` and return its exit code; never raises SystemExit."""
    args = sys.argv[1:] if argv is None else list(argv)
    if args in (["-h"], ["--help"]):
        print(_USAGE)
        return 0
    handlers = {"norm": cmd_norm, "split": cmd_split, "validate": cmd_validate}
    if len(args) != 3 or args[0] not in handlers or args[1] != "--config":
        print(f"error: {_USAGE}", file=sys.stderr)
        return USAGE_ERROR
    # numpy reports no floating-point warning on stderr: a non-finite result
    # still fails the GridFunction and strict-JSON checks, with one error line
    try:  # a config that cannot be read is an OSError: exit 1
        with np.errstate(all="ignore"):
            return handlers[args[0]](_load_config(args[2]))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # a bad input file, a range failure, memory: one line, exit 1
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
