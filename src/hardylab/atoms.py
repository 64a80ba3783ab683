"""(p, inf, s)-atoms: validation, construction and atomic decompositions.

Atoms are built from a smooth bump on the ball's window: the discrete L^2(B)
projection onto polynomials of degree <= s is subtracted (exact discrete
moment cancellation), then the result is rescaled so the size condition
||a||_inf <= |B|^(-1/p) is tight and extended by zero, the one grid-shaped
array a builder allocates.  Large-ball "local" atoms skip the moment step.
Each one-ball routine resolves its ball's window once; the moments contract
the window with per-axis powers (`projection._contract`).  Decompositions are
inputs assembled by helpers, not computed from arbitrary functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import (
    Ball,
    GridFunction,
    GridSpec,
    region_coords,
    region_slices,
    region_values,
)
from .maximal import bump_profile
from .projection import _contract, _fit, enough_nodes, multi_indices

__all__ = [
    "Atom",
    "AtomicDecomposition",
    "AtomReport",
    "moment_residuals",
    "moment_tolerance",
    "validate_atom",
    "make_atom",
    "make_local_atom",
    "resolves_atom",
    "synthesize",
    "save_decomposition",
    "load_decomposition",
]

MOMENT_SLACK = 1e-10


def _size_bound(ball: Ball, p: float) -> float:
    """|B|^(-1/p) with the analytic ball measure; ValueError beyond float range."""
    try:
        return ball.measure ** (-1.0 / p)
    except OverflowError:
        raise ValueError(f"the size bound |B|^(-1/p) of a ball of radius {ball.radius} "
                         f"at p = {p} is beyond float range") from None


@dataclass(frozen=True)
class Atom:
    """A GridFunction tagged with its ball and (p, inf, s) metadata."""

    values: GridFunction
    ball: Ball
    p: float
    s: int
    local: bool = False

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if not (isinstance(self.s, int) and self.s >= 0):
            raise ValueError("s must be a nonnegative integer")

    @property
    def spec(self) -> GridSpec:
        return self.values.spec

    @property
    def size_bound(self) -> float:
        """|B|^(-1/p) with the analytic ball measure."""
        return _size_bound(self.ball, self.p)


@dataclass(frozen=True)
class AtomicDecomposition:
    """Exponent p with a finite ordered list of (lambda_j, atom_j) pairs."""

    p: float
    terms: tuple[tuple[float, Atom], ...]

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        terms = tuple((float(lam), atom) for lam, atom in self.terms)
        object.__setattr__(self, "terms", terms)
        for lam, atom in terms:
            if not math.isfinite(lam):
                raise ValueError("lambda must be finite")
            if not abs(atom.p - self.p) <= 1e-12:
                raise ValueError("atom exponent does not match decomposition")
        specs = {atom.spec for _, atom in terms}
        if len(specs) > 1:
            raise ValueError("atoms live on different grids")

    @property
    def lambda_sum(self) -> float:
        return sum(abs(lam) for lam, _ in self.terms)

    @property
    def lambda_p_sum(self) -> float:
        return sum(abs(lam) ** self.p for lam, _ in self.terms) ** (1.0 / self.p)


def moment_tolerance(atom_sup: float, ball: Ball, order: int) -> float:
    """Scale-aware moment tolerance: slack * ||a||_inf * |B| * r^|alpha|."""
    return MOMENT_SLACK * atom_sup * ball.measure * ball.radius**order


def _moment_sums(values: GridFunction, slices: tuple[slice, ...], ball: Ball, s: int) -> dict:
    """moment_residuals on the ball's window, resolved by the caller: w * a
    contracted along each axis with the powers (x_i - c_i)^j, j <= s; the
    plain sum of w * a at s = 0, as projection._fit's degree 0 is the mean."""
    vals, w = region_values(values, slices)
    sums = vals * w
    if s == 0:
        return {(0,) * values.spec.dim: float(np.sum(sums))}
    axis = values.spec.axis()
    for i, (sl, c) in enumerate(zip(slices, ball.center)):
        u = axis[sl] - c
        sums = _contract(sums, np.array([u**j for j in range(s + 1)]), i)
    return {alpha: float(sums[alpha]) for alpha in multi_indices(values.spec.dim, s)}


def moment_residuals(values: GridFunction, ball: Ball, s: int) -> dict:
    """Discrete moments of values * (x - x_B)^alpha for |alpha| <= s."""
    return _moment_sums(values, region_slices(values.spec, ball), ball, s)


@dataclass(frozen=True)
class AtomReport:
    support_leakage: float
    size_ratio: float
    moment_residuals: dict
    moment_slacks: dict
    passed: bool
    failures: tuple[str, ...]


def validate_atom(atom: Atom) -> AtomReport:
    """Report support, size and moment conditions with their measured slack."""
    spec = atom.spec
    failures: list[str] = []

    slices = region_slices(spec, atom.ball)
    outside = np.array(atom.values.values, copy=True)
    outside[slices] = 0.0
    sup = float(np.max(np.abs(atom.values.values)))
    leakage = float(np.max(np.abs(outside)))
    if leakage > 1e-14 * max(sup, 1.0):
        failures.append("support")

    size = float(np.max(np.abs(atom.values.values[slices])))
    size_ratio = size / atom.size_bound if atom.size_bound > 0 else math.inf
    if size_ratio > 1.0 + 1e-9:
        failures.append("size")

    residuals: dict = {}
    slacks: dict = {}
    if atom.local:
        if atom.ball.measure <= 1.0:
            failures.append("local atom needs a large ball")
    else:
        residuals = _moment_sums(atom.values, slices, atom.ball, atom.s)
        for alpha, res in residuals.items():
            tol = moment_tolerance(sup, atom.ball, sum(alpha))
            slacks[alpha] = tol
            if abs(res) > tol:
                failures.append(f"moment {alpha}")

    return AtomReport(
        support_leakage=leakage,
        size_ratio=size_ratio,
        moment_residuals=residuals,
        moment_slacks=slacks,
        passed=not failures,
        failures=tuple(failures),
    )


def _bump_on_ball(coords: tuple[np.ndarray, ...], ball: Ball, modulate=None) -> np.ndarray:
    """Smooth bump supported strictly inside the ball, optionally modulated, on
    the open coordinates of the ball's window; window-shaped."""
    scaled = [(x - c) / ball.radius for x, c in zip(coords, ball.center)]
    r = np.sqrt(sum(u**2 for u in scaled)) / math.sqrt(len(coords))
    bump = bump_profile(r)
    if modulate is not None:
        bump = bump * modulate(*scaled)
    return bump


def _scaled_atom(spec: GridSpec, slices: tuple, profile: np.ndarray, ball: Ball, p: float,
                 s: int, local: bool = False) -> Atom:
    """The atom of a window's profile scaled to the sup |B|^(-1/p), extended by zero."""
    sup = float(np.max(np.abs(profile)))
    if sup <= 0:
        raise ValueError("degenerate profile: it vanishes on the ball")
    vals = np.zeros(spec.shape)
    vals[slices] = profile * (_size_bound(ball, p) / sup)
    return Atom(values=GridFunction(spec, vals), ball=ball, p=p, s=s, local=local)


def resolves_atom(dim: int, s: int, nodes: int) -> bool:
    """Whether a ball of this many nodes carries make_atom's degree-s atom."""
    return nodes >= (s + 2) ** dim and enough_nodes(dim, s, nodes)


def make_atom(
    ball: Ball,
    p: float,
    s: int,
    spec: GridSpec,
    modulate=None,
) -> Atom:
    """Construct a (p, inf, s)-atom on the ball with tight size condition."""
    slices = region_slices(spec, ball)
    bump = _bump_on_ball(region_coords(spec, slices), ball, modulate)
    if not resolves_atom(spec.dim, s, bump.size):
        raise ValueError("under-resolved ball")
    fit = _fit(bump, spec, slices, ball, s)
    return _scaled_atom(spec, slices, bump - fit, ball, p, s)


def make_local_atom(
    ball: Ball,
    p: float,
    spec: GridSpec,
    modulate=None,
) -> Atom:
    """Large-ball (p, inf) atom with tight size condition and no moment subtraction."""
    if ball.measure <= 1.0:
        raise ValueError("not a large ball")
    slices = region_slices(spec, ball)
    bump = _bump_on_ball(region_coords(spec, slices), ball, modulate)
    return _scaled_atom(spec, slices, bump, ball, p, 0, local=True)


def synthesize(decomp: AtomicDecomposition, spec: GridSpec | None = None) -> GridFunction:
    """Pointwise sum of lambda_j * a_j in term order."""
    if not decomp.terms:
        if spec is None:
            raise ValueError("empty decomposition needs an explicit grid spec")
        return GridFunction.zeros(spec)
    first_spec = decomp.terms[0][1].spec
    if spec is not None and spec != first_spec:
        raise ValueError("grid spec mismatch")
    out = np.zeros(first_spec.shape)
    for lam, atom in decomp.terms:
        out += lam * atom.values.values
    return GridFunction(first_spec, out)


def save_decomposition(decomp: AtomicDecomposition, basepath) -> None:
    """Write <base>.json plus one .npy value file per atom."""
    base = Path(basepath)
    base.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx, (lam, atom) in enumerate(decomp.terms):
        ref = f"{base.name}_atom{idx:04d}.npy"
        np.save(base.parent / ref, atom.values.values)
        entries.append(
            {
                "lambda": lam,
                "ball": {"center": list(atom.ball.center), "radius": atom.ball.radius},
                "p": atom.p,
                "q": None,
                "s": atom.s,
                "local": atom.local,
                "values_ref": ref,
            }
        )
    spec = decomp.terms[0][1].spec if decomp.terms else None
    doc = {
        "p": decomp.p,
        "grid": None if spec is None else spec.to_dict(),
        "terms": entries,
    }
    base.with_suffix(".json").write_text(json.dumps(doc, indent=2))


def load_decomposition(basepath) -> AtomicDecomposition:
    """Read what save_decomposition wrote: (p, inf, s)-atoms. ValueError if malformed."""
    base = Path(basepath)
    doc = json.loads(base.with_suffix(".json").read_text())
    try:  # only the terms need the grid; save_decomposition writes null without them
        if not isinstance(doc["terms"], list):
            raise TypeError(f"terms must be a list, got {doc['terms']!r}")
        spec = GridSpec.from_dict(doc["grid"]) if doc["terms"] else None
        terms = []
        for entry in doc["terms"]:
            if entry["q"] is not None:
                raise ValueError(f"atoms are (p, inf, s)-atoms, got q = {entry['q']!r}")
            if not isinstance(entry["local"], bool):
                raise TypeError(f"local must be true or false, got {entry['local']!r}")
            values = np.load(base.parent / entry["values_ref"])
            atom = Atom(
                values=GridFunction(spec, values),
                ball=Ball(tuple(entry["ball"]["center"]), entry["ball"]["radius"]),
                p=entry["p"],
                s=entry["s"],
                local=entry["local"],
            )
            terms.append((entry["lambda"], atom))
        return AtomicDecomposition(p=doc["p"], terms=tuple(terms))
    except (KeyError, TypeError) as exc:  # a missing key or a value of the wrong type
        raise ValueError(f"malformed decomposition {base}: {exc!r}") from exc
