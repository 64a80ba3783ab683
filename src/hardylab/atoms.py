"""(p, q, s)-atoms: validation, construction and atomic decompositions.

Atoms are built from a smooth bump on the ball: the discrete L^2(B)
projection onto polynomials of degree <= s is subtracted (exact discrete
moment cancellation), then the result is rescaled so the size condition
||a||_q <= |B|^(1/q - 1/p) is tight.  Large-ball "local" atoms skip the
moment step.  Decompositions are inputs assembled by helpers, not computed
from arbitrary functions.
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
    lp_norm,
    region_coords,
    region_node_count,
    region_slices,
    region_values,
)
from .maximal import bump_profile
from .projection import multi_indices, poly_project

__all__ = [
    "Atom",
    "AtomicDecomposition",
    "AtomReport",
    "moment_residuals",
    "moment_tolerance",
    "validate_atom",
    "make_atom",
    "make_local_atom",
    "synthesize",
    "save_decomposition",
    "load_decomposition",
]

MOMENT_SLACK = 1e-10


@dataclass(frozen=True)
class Atom:
    """A GridFunction tagged with its ball and (p, q, s) metadata."""

    values: GridFunction
    ball: Ball
    p: float
    q: float
    s: int
    local: bool = False

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if not self.q > self.p:
            raise ValueError("q must exceed p")
        if self.s < 0:
            raise ValueError("s must be a nonnegative integer")

    @property
    def spec(self) -> GridSpec:
        return self.values.spec

    @property
    def size_bound(self) -> float:
        """|B|^(1/q - 1/p) with the analytic ball measure."""
        inv_q = 0.0 if self.q == math.inf else 1.0 / self.q
        return self.ball.measure ** (inv_q - 1.0 / self.p)


@dataclass(frozen=True)
class AtomicDecomposition:
    """Exponent p with a finite ordered list of (lambda_j, atom_j) pairs."""

    p: float
    terms: tuple[tuple[float, Atom], ...]

    def __post_init__(self):
        terms = tuple((float(lam), atom) for lam, atom in self.terms)
        object.__setattr__(self, "terms", terms)
        for _, atom in terms:
            if abs(atom.p - self.p) > 1e-12:
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


def moment_residuals(values: GridFunction, ball: Ball, s: int) -> dict:
    """Discrete moments of values * (x - x_B)^alpha for |alpha| <= s."""
    spec = values.spec
    vals, w = region_values(values, ball)
    coords = region_coords(spec, region_slices(spec, ball))
    centered = [x - c for x, c in zip(coords, ball.center)]
    out = {}
    for alpha in multi_indices(spec.dim, s):
        term = vals * w
        for u, a in zip(centered, alpha):
            if a:
                term = term * u**a
        out[alpha] = float(np.sum(term))
    return out


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

    outside = np.array(atom.values.values, copy=True)
    slices = region_slices(spec, atom.ball)
    outside[slices] = 0.0
    sup = float(np.max(np.abs(atom.values.values)))
    leakage = float(np.max(np.abs(outside)))
    if leakage > 1e-14 * max(sup, 1.0):
        failures.append("support")

    size = lp_norm(atom.values, atom.q, atom.ball)
    size_ratio = size / atom.size_bound if atom.size_bound > 0 else math.inf
    if size_ratio > 1.0 + 1e-9:
        failures.append("size")

    residuals: dict = {}
    slacks: dict = {}
    if atom.local:
        if atom.ball.measure <= 1.0:
            failures.append("local atom needs a large ball")
    else:
        residuals = moment_residuals(atom.values, atom.ball, atom.s)
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


def _bump_on_ball(spec: GridSpec, ball: Ball, modulate=None) -> np.ndarray:
    """Smooth bump supported strictly inside the ball, optionally modulated."""
    slices = region_slices(spec, ball)
    coords = region_coords(spec, slices)
    scaled = [(x - c) / ball.radius for x, c in zip(coords, ball.center)]
    r = np.sqrt(sum(u**2 for u in scaled)) / math.sqrt(spec.dim)
    local = bump_profile(r)
    if modulate is not None:
        local = local * modulate(*scaled)
    vals = np.zeros(spec.shape)
    vals[slices] = local
    return vals


def make_atom(
    ball: Ball,
    p: float,
    s: int,
    spec: GridSpec,
    modulate=None,
) -> Atom:
    """Construct a (p, inf, s)-atom on the ball with tight size condition."""
    if region_node_count(spec, ball) < (s + 2) ** spec.dim:
        raise ValueError("under-resolved ball")
    base = GridFunction(spec, _bump_on_ball(spec, ball, modulate))
    proj = poly_project(base, ball, s)
    resid = base.values - proj.as_gridfunction(spec).values
    sup = float(np.max(np.abs(resid)))
    if sup <= 0:
        raise ValueError("degenerate profile: projection removed the bump")
    target = ball.measure ** (-1.0 / p)
    vals = resid * (target / sup)
    return Atom(
        values=GridFunction(spec, vals), ball=ball, p=p, q=math.inf, s=s
    )


def make_local_atom(
    ball: Ball,
    p: float,
    spec: GridSpec,
    modulate=None,
) -> Atom:
    """Large-ball (p, inf) atom with tight size condition and no moment subtraction."""
    if ball.measure <= 1.0:
        raise ValueError("not a large ball")
    vals = _bump_on_ball(spec, ball, modulate)
    f = GridFunction(spec, vals)
    bound = ball.measure ** (-1.0 / p)
    current = lp_norm(f, math.inf, ball)
    if current <= 0:
        raise ValueError("under-resolved ball")
    return Atom(
        values=GridFunction(spec, vals * (bound / current)),
        ball=ball,
        p=p,
        q=math.inf,
        s=0,
        local=True,
    )


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
                "q": None if atom.q == math.inf else atom.q,
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
    base = Path(basepath)
    doc = json.loads(base.with_suffix(".json").read_text())
    spec = None if doc["grid"] is None else GridSpec.from_dict(doc["grid"])
    terms = []
    for entry in doc["terms"]:
        values = np.load(base.parent / entry["values_ref"])
        atom = Atom(
            values=GridFunction(spec, values),
            ball=Ball(tuple(entry["ball"]["center"]), entry["ball"]["radius"]),
            p=entry["p"],
            q=math.inf if entry["q"] is None else entry["q"],
            s=entry["s"],
            local=entry["local"],
        )
        terms.append((entry["lambda"], atom))
    return AtomicDecomposition(p=doc["p"], terms=tuple(terms))
