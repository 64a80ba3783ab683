"""(p, inf, s)-atoms: validation, construction and atomic decompositions.

An atom is its ball's window: the window's slices and values, with no
grid-shaped array.  The builders take a smooth bump on the window, subtract
its discrete L^2(B) projection onto polynomials of degree <= s (exact discrete
moment cancellation; "local" atoms on large balls skip it) and rescale it so
the size condition ||a||_inf <= |B|^(-1/p) is tight.  Each one-ball routine
resolves its ball's window once; the moments contract the window with
per-axis powers (`projection._contract`).  Files hold atoms extended by zero;
loading keeps the window and records the largest |value| off it as `leakage`.
Decompositions are inputs assembled by helpers, not from arbitrary functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import Ball, GridFunction, GridSpec, as_integer, as_number, region_coords, region_slices
from .maximal import bump_profile
from .projection import _contract, _fit, enough_nodes, multi_indices

__all__ = [
    "Atom",
    "AtomicDecomposition",
    "AtomReport",
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
    """A (p, inf, s)-atom on a grid: its values on the window `slices` of its
    ball, zero off it; `leakage` is the largest |value| off the window of an
    atom read from a file, 0 for one built here."""

    spec: GridSpec
    ball: Ball
    slices: tuple[slice, ...]
    values: np.ndarray
    p: float
    s: int
    local: bool = False
    leakage: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if isinstance(self.s, bool) or not (isinstance(self.s, int) and self.s >= 0):
            raise ValueError("s must be a nonnegative integer")
        if np.iscomplexobj(self.values):
            raise ValueError("values must be real")
        vals = np.asarray(self.values, dtype=float)
        window = tuple(len(range(self.spec.points_per_axis)[sl]) for sl in self.slices)
        if vals.shape != window:
            raise ValueError(f"values shape {vals.shape} does not match window shape {window}")
        if not (np.all(np.isfinite(vals)) and 0.0 <= self.leakage < math.inf):
            raise ValueError("values must be finite, and leakage finite and >= 0")
        object.__setattr__(self, "values", vals)

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


def _moment_sums(spec: GridSpec, vals: np.ndarray, slices: tuple, ball: Ball, s: int) -> dict:
    """The moments of a * (x - x_B)^alpha, |alpha| <= s, of the values a on a
    ball's window: w * a contracted along each axis with the powers
    (x_i - c_i)^j, j <= s; the plain sum at s = 0 (projection._fit's mean)."""
    sums = vals * spec.weights()[slices]
    if s == 0:
        return {(0,) * spec.dim: float(np.sum(sums))}
    axis = spec.axis()
    for i, (sl, c) in enumerate(zip(slices, ball.center)):
        u = axis[sl] - c
        sums = _contract(sums, np.array([u**j for j in range(s + 1)]), i)
    return {alpha: float(sums[alpha]) for alpha in multi_indices(spec.dim, s)}


@dataclass(frozen=True)
class AtomReport:
    support_leakage: float
    size_ratio: float
    moment_residuals: dict
    moment_slacks: dict
    passed: bool
    failures: tuple[str, ...]


def validate_atom(atom: Atom) -> AtomReport:
    """Report support, size and moment conditions with their measured slack,
    from the atom's window and leakage; support fails unless the slices are the
    ball's window and the leakage is within 1e-14 * max(sup, 1)."""
    failures: list[str] = []

    size = float(np.max(np.abs(atom.values)))
    sup = max(size, atom.leakage)
    window = atom.slices == region_slices(atom.spec, atom.ball)
    if not window or atom.leakage > 1e-14 * max(sup, 1.0):
        failures.append("support")

    size_ratio = size / atom.size_bound if atom.size_bound > 0 else math.inf
    if size_ratio > 1.0 + 1e-9:
        failures.append("size")

    residuals: dict = {}
    slacks: dict = {}
    if atom.local:
        if atom.ball.measure <= 1.0:
            failures.append("local atom needs a large ball")
    else:
        residuals = _moment_sums(atom.spec, atom.values, atom.slices, atom.ball, atom.s)
        for alpha, res in residuals.items():
            tol = moment_tolerance(sup, atom.ball, sum(alpha))
            slacks[alpha] = tol
            if abs(res) > tol:
                failures.append(f"moment {alpha}")

    return AtomReport(
        support_leakage=atom.leakage,
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
    """The atom of a window's profile scaled to the sup |B|^(-1/p)."""
    sup = float(np.max(np.abs(profile)))
    if sup <= 0:
        raise ValueError("degenerate profile: it vanishes on the ball")
    return Atom(spec, ball, slices, profile * (_size_bound(ball, p) / sup), p, s, local)


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
    """Pointwise sum of lambda_j * a_j in term order, each on its window."""
    if not decomp.terms:
        if spec is None:
            raise ValueError("empty decomposition needs an explicit grid spec")
        return GridFunction.zeros(spec)
    first_spec = decomp.terms[0][1].spec
    if spec is not None and spec != first_spec:
        raise ValueError("grid spec mismatch")
    out = np.zeros(first_spec.shape)
    for lam, atom in decomp.terms:
        out[atom.slices] += lam * atom.values
    return GridFunction(first_spec, out)


def save_decomposition(decomp: AtomicDecomposition, basepath) -> None:
    """Write <base>.json plus one .npy value file per atom, extended by zero to the grid."""
    base = Path(basepath)
    base.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx, (lam, atom) in enumerate(decomp.terms):
        ref = f"{base.name}_atom{idx:04d}.npy"
        vals = np.zeros(atom.spec.shape)
        vals[atom.slices] = atom.values
        np.save(base.parent / ref, vals)
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
    """Read what save_decomposition wrote: (p, inf, s)-atoms on their windows, each
    with its largest |value| off the window as leakage. ValueError if malformed."""
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
            values = GridFunction(spec, np.load(base.parent / entry["values_ref"])).values
            center = tuple(as_number(c, "center") for c in entry["ball"]["center"])
            ball = Ball(center, as_number(entry["ball"]["radius"], "radius"))
            slices = region_slices(spec, ball)
            window = values[slices].copy()
            values[slices] = 0.0  # what is left off the window is the leak
            atom = Atom(spec, ball, slices, window, as_number(entry["p"], "p"),
                        as_integer(entry["s"], "s"), entry["local"], float(np.max(np.abs(values))))
            terms.append((as_number(entry["lambda"], "lambda"), atom))
        return AtomicDecomposition(p=as_number(doc["p"], "p"), terms=tuple(terms))
    except (KeyError, TypeError) as exc:  # a missing key or a value of the wrong type
        raise ValueError(f"malformed decomposition {base}: {exc!r}") from exc
