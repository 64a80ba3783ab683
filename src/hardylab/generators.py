"""Deterministic test-function and decomposition generators.

Every generator is resolution independent: randomness is spent on the
parameters of a closed-form function of x, which is then sampled on whatever
grid is asked for.  That way refinement studies (m -> 2m) see the same
underlying b and atoms, and a fixed seed reproduces a campaign bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .atoms import AtomicDecomposition, make_atom, make_local_atom
from .grid import Ball, GridFunction, GridSpec, dyadic_scales, region_coords

__all__ = [
    "constant_field",
    "step_field",
    "regularized_log_field",
    "random_smooth_field",
    "random_lipschitz_field",
    "random_bmo_field",
    "B_GENERATORS",
    "b_field",
    "atom_radii",
    "moment_radius",
    "random_ball",
    "random_decomposition",
]


def _box_coords(spec: GridSpec) -> tuple[np.ndarray, ...]:
    """The open per-axis node coordinates of the whole box (grid.region_coords)."""
    return region_coords(spec, (slice(None),) * spec.dim)


def constant_field(spec: GridSpec, value: float = 1.0) -> GridFunction:
    return GridFunction.constant(spec, value)


def step_field(spec: GridSpec, height: float = 1.0) -> GridFunction:
    """height * indicator of {x_1 >= 0}."""
    x = _box_coords(spec)[0]  # the zeros broadcast the field to the grid's shape
    return GridFunction(spec, np.where(x >= 0, float(height), np.zeros(spec.shape)))


def regularized_log_field(spec: GridSpec, scale: float = 1.0) -> GridFunction:
    """log|x| clipped at grid scale: log(max(|x|, spacing))."""
    r = np.sqrt(sum(x**2 for x in _box_coords(spec)))
    return GridFunction(spec, scale * np.log(np.maximum(r, spec.spacing)))


def random_smooth_field(
    spec: GridSpec, rng: np.random.Generator, amplitude: float = 1.0
) -> GridFunction:
    """Random low-frequency trigonometric series of 8 modes; smooth and bounded."""
    n_modes = 8
    freqs = rng.integers(1, 6, n_modes)
    amps = amplitude * rng.normal(size=n_modes) / n_modes
    phases = rng.uniform(0, 2 * math.pi, n_modes)
    x, *y = _box_coords(spec)
    vals = np.zeros(spec.shape)
    for a, f, ph in zip(amps, freqs, phases):
        vals += a * np.cos(math.pi * f * x / spec.halfwidth + ph)
    if y:
        vals = vals + amplitude * 0.2 * np.cos(math.pi * y[0] / spec.halfwidth)
    return GridFunction(spec, vals)


def random_lipschitz_field(
    spec: GridSpec,
    rng: np.random.Generator,
    gamma: float,
    levels: int = 7,
) -> GridFunction:
    """Random self-similar lacunary series with roughness matched to gamma.

    sum_j 2^(-gamma j) cos(2^j pi x / R + phase_j) with random signs and
    phases; its Lambda_gamma norm is finite and roughly scale invariant.
    Callers rescale it to a target norm themselves (the norm scan is expensive).
    """
    x = _box_coords(spec)[0]
    vals = np.zeros(spec.shape)
    for j in range(levels):
        sign = rng.choice([-1.0, 1.0])
        phase = rng.uniform(0, 2 * math.pi)
        vals += sign * 2.0 ** (-gamma * j) * np.cos(
            2.0**j * math.pi * x / spec.halfwidth + phase
        )
    return GridFunction(spec, vals)


def random_bmo_field(
    spec: GridSpec, rng: np.random.Generator, levels: int = 5
) -> GridFunction:
    """Random dyadic martingale sum: +-coin per dyadic interval and level.

    Level j cuts the box into 2^j intervals and draws 2^j coins.  Levels whose
    intervals are narrower than half the grid spacing (2^(levels - 1) >
    2 (m - 1)) are a ValueError, raised before anything is drawn: most of
    their intervals hold no node."""
    finest = (2 * (spec.points_per_axis - 1)).bit_length()
    if levels > finest:
        raise ValueError(f"levels = {levels} is finer than the grid resolves: at most "
                         f"{finest} levels on {spec.points_per_axis} points per axis")
    x = _box_coords(spec)[0]
    vals = np.zeros(spec.shape)
    R = spec.halfwidth
    for level in range(levels):
        n_int = 2**level
        signs = rng.choice([-1.0, 1.0], size=n_int)
        width = 2.0 * R / n_int
        idx = np.clip(((x + R) / width).astype(int), 0, n_int - 1)
        vals += signs[idx]
    return GridFunction(spec, vals)


# the named b generators used by campaigns: kind -> field of (spec, rng, params);
# the defaults live in the field functions, so an unknown parameter is a TypeError
B_GENERATORS = {
    "constant": lambda spec, rng, kw: constant_field(spec, **kw),
    "step": lambda spec, rng, kw: step_field(spec, **kw),
    "regularized-log": lambda spec, rng, kw: regularized_log_field(spec, **kw),
    "random-smooth": lambda spec, rng, kw: random_smooth_field(spec, rng, **kw),
    "random-lipschitz": lambda spec, rng, kw: random_lipschitz_field(spec, rng, **kw),
    "random-bmo": lambda spec, rng, kw: random_bmo_field(spec, rng, **kw),
}


def b_field(
    spec: GridSpec, kind: str, rng: np.random.Generator, **params
) -> GridFunction:
    """Dispatch for the named b generators used by campaigns."""
    if kind not in B_GENERATORS:
        raise ValueError(f"unknown b generator {kind!r}")
    return B_GENERATORS[kind](spec, rng, params)


def atom_radii(spec: GridSpec, radius_range: tuple[float, float] | None = None) -> list[float]:
    """Dyadic radii in radius_range, by default [max(8 * spacing, R/32), R/2].

    Raises ValueError when the range holds no power of two or its largest
    radius exceeds the halfwidth, so that every ball fits in the box.
    """
    if radius_range is None:
        radius_range = (max(8 * spec.spacing, spec.halfwidth / 32.0), spec.halfwidth / 2.0)
    radii = dyadic_scales(*radius_range)
    if radii[-1] > spec.halfwidth:
        raise ValueError(f"radius {radii[-1]} larger than the halfwidth {spec.halfwidth}")
    return radii


def moment_radius(spec: GridSpec, radius_range, local: bool) -> float | None:
    """The smallest radius random_decomposition gives a moment atom (make_atom),
    or None when every ball it can draw takes a local atom."""
    smallest = Ball((0.0,) * spec.dim, atom_radii(spec, radius_range)[0])
    return None if local and smallest.measure > 1.0 else smallest.radius


def random_ball(
    spec: GridSpec,
    rng: np.random.Generator,
    radius_range: tuple[float, float] | None = None,
) -> Ball:
    """Ball of a random radius from atom_radii, placed so it stays inside the box."""
    radii = atom_radii(spec, radius_range)
    r = radii[rng.integers(len(radii))]
    free = spec.halfwidth - r
    center = tuple(rng.uniform(-free, free) for _ in range(spec.dim))
    return Ball(center, r)


def _random_modulation(rng: np.random.Generator):
    """Mild random polynomial modulation of the atom profile."""
    coeffs = 0.3 * rng.normal(size=3)

    def modulate(*scaled):
        u = scaled[0]
        out = 1.0 + coeffs[0] * u + coeffs[1] * u**2 + coeffs[2] * u**3
        if len(scaled) == 2:
            out = out + 0.5 * coeffs[0] * scaled[1]
        return out

    return modulate


def random_decomposition(
    spec: GridSpec,
    rng: np.random.Generator,
    p: float,
    s: int,
    n_atoms: int = 4,
    radius_range: tuple[float, float] | None = None,
    local: bool = False,
) -> AtomicDecomposition:
    """Random finite decomposition with bump-based atoms and random weights.

    With local=True, large balls (|B| > 1) produce moment-free local atoms,
    mirroring the atomic decomposition of the local Hardy spaces.
    """
    terms = []
    for _ in range(n_atoms):
        ball = random_ball(spec, rng, radius_range)
        modulate = _random_modulation(rng)
        if local and ball.measure > 1.0:
            atom = make_local_atom(ball, p, spec, modulate=modulate)
        else:
            atom = make_atom(ball, p, s, spec, modulate=modulate)
        lam = float(rng.normal())
        terms.append((lam, atom))
    return AtomicDecomposition(p=p, terms=tuple(terms))
