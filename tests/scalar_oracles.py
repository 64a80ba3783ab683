"""Scalar and full-pass oracles for the batched and pruned library code.

The library computes each Luxembourg norm with the lockstep bisection
`orlicz._luxembourg_rows`, which replays the bisection's decisions from a
certified root bracket and evaluates the gauge only where the bracket cannot
decide, and each ball statistic with `grid._row_stats`; a single region is a
one-row call of them.  The routines here handle one region at a time, in
Python floats where they can, so that the tests compare the batched rows with
an independent scalar path under `==`, not with themselves:
`luxembourg_bisection` evaluates the gauge at every step of the bisection, so
it is the oracle of the replay; `_bracket` is the scalar bracket expansion it
and the scan start from.
`luxembourg_scan_oracle` is a log-spaced scan that finds the Luxembourg norm
by another search than bisection, to within its scan width; `LINEAR` is the
identity gauge, whose Luxembourg norm is the L^1 norm.  `maximal_taps` is the
tap-sum maximal function, on either ladder, that the FFT path replaced; the two
agree to round-off, not bit for bit.  `seminorm_full_scan` is the Lipschitz scan over
every displacement, in raster order, that the branch-and-bound
`lipschitz.seminorm_scan` replaced; they agree under `==`.
`_delta_candidates` and `_visiting_order` are the displacement arrays of the
scan, `lipschitz._half_space` and `_visiting_steps`, as lists of tuples.
`monomial_terms` is one window-shaped term per multi-index, the powers taken
on the open per-axis coordinates of `grid.region_coords` and broadcast; the
library's moments used it until they contracted the window per axis
(`projection._contract`), and `least_squares_fit` builds its design matrix
with it.  `monomials_meshgrid` and `moment_residuals_meshgrid` take the
powers of the polynomial basis and of the moments on the dense meshgrid of a
ball's coordinates, node by node: the former agrees with `monomial_terms`
under `==`, the latter with `moment_residuals` under `==` in 1d and within
the summation bound in 2d, where the contraction regroups the sums.
`moment_residuals` reads a grid function's moments on a ball through the
library's window sums (`atoms._moment_sums`, which `validate_atom` runs on
an atom's window); only the tests read them off a grid function.
In the same way `FORMER_GENERATORS` (the b generators) and
`bump_on_ball_meshgrid` (the atoms' bump) compute on the dense coordinate
mesh, and `ball_axis_slice` is the one-center window rule that
`grid._ball_axis_windows` runs over an array of centers; all agree under `==`.
`poly_project_grid` extends `projection.poly_project`'s window fit by zero
to a grid function, and `atom_grid` an atom's window values.
`bump_on_ball_grid`, `make_atom_grid` and `make_local_atom_grid` are the atom
builders on grid-shaped temporaries that the window-only builders of `atoms`
replaced: the bump embedded in the grid, and its projection on the grid
(`poly_project_grid`) subtracted; they agree under `==` with the atoms
extended by zero (`atom_grid`).
`least_squares_fit` is the weighted least-squares fit by `np.linalg.lstsq`
on the dense design matrix of the monomials, with its rank test, that the
per-axis `projection._fit` replaced; they agree to round-off, not bit for bit.
`region_node_count` counts the nodes of a region's window.
`family_stats` is the statistics pass over every ball of the family, and
`family_norms` the BMO, bmo and lmo norms read from it, that the pruned sups
of `oscillation` replaced; they agree under `==`, the argmax ball included.

The rest serve only the tests, so they live here, not in the library:
`meshes` is the dense coordinate mesh of the whole grid, one grid-shaped
array per axis, and `from_callable` samples a function on it; `unit_cubes` is
the dict view of `grid.unit_cube_boxes`, cube j to its index box; and
`multiplier_check` reports the discrete constant of pointwise multiplication
on bmo.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from hardylab.atoms import _moment_sums
from hardylab.grid import (
    _INDEX_TOL, Ball, GridFunction, GridSpec, _cube_bins, _row_stats, box_rows, region_coords,
    region_slices, region_values, sup_norm,
)
from hardylab.lipschitz import LipschitzOrder, _half_space, _visiting_steps, difference_op
from hardylab.maximal import bump_profile, convolve_dilated, maximal_scales
from hardylab.orlicz import _REL_TOL, OrliczFunction
from hardylab.oscillation import _BATCH_FLOATS, BallFamily, bmo_local_norm, lmo_norm
from hardylab.projection import multi_indices, poly_project


LINEAR = OrliczFunction(lambda t: np.asarray(t, dtype=float))


def meshes(spec: GridSpec) -> tuple[np.ndarray, ...]:
    """The dense coordinate mesh of the grid: one array per axis, each with the
    grid's shape, whose floats are those of `grid.region_coords` broadcast."""
    return tuple(np.meshgrid(*[spec.axis()] * spec.dim, indexing="ij"))


def from_callable(spec: GridSpec, fn) -> GridFunction:
    """fn of the coordinate arrays of `meshes`, sampled as a grid function."""
    return GridFunction(spec, fn(*meshes(spec)))


def unit_cubes(spec: GridSpec) -> dict[tuple[int, ...], tuple[slice, ...]]:
    """Index box of each unit lattice cube j + Q owning a node, in raster order:
    the dict view of the boxes of `grid.unit_cube_boxes`."""
    js, first, size = (a.tolist() for a in _cube_bins(spec))
    axis = [(int(j), slice(a, a + n)) for j, a, n in zip(js, first, size)]
    return {
        tuple(j for j, _ in cube): tuple(s for _, s in cube)
        for cube in itertools.product(axis, repeat=spec.dim)
    }


def multiplier_check(phi_fn: GridFunction, b: GridFunction) -> dict:
    """Discrete multiplier constant for pointwise multiplication on bmo.

    Returns the ratio ||b*phi||_bmo / (||b||_bmo * (||phi||_inf + ||phi||_lmo)),
    together with the pieces, as a report dictionary.
    """
    phi_fn.require_same_spec(b)
    b_norm = bmo_local_norm(b)
    phi_sup = float(np.max(np.abs(phi_fn.values)))
    phi_lmo = lmo_norm(phi_fn)
    denom = b_norm * (phi_sup + phi_lmo)
    if denom == 0:
        raise ValueError("degenerate inputs")
    product = b.with_values(b.values * phi_fn.values)
    num = bmo_local_norm(product)
    return {
        "ratio": num / denom,
        "product_bmo_local": num,
        "b_bmo_local": b_norm,
        "phi_sup": phi_sup,
        "phi_lmo": phi_lmo,
        "family_size": len(BallFamily.build(b.spec).balls),
    }


def luxembourg_bisection(f: GridFunction, P: OrliczFunction, region=None) -> float:
    """inf{k > 0 : integral_region P(|f|/k) <= 1}: luxembourg_row of the
    region's values and weights."""
    v, w = region_values(f, region)
    return luxembourg_row(v, w, P)


def luxembourg_row(v: np.ndarray, w: np.ndarray, P: OrliczFunction) -> float:
    """inf{k > 0 : sum of w P(|v|/k) <= 1}: the bisection on the gauge."""
    v = np.abs(v)
    vmax = float(v.max(initial=0.0))
    if vmax == 0.0:
        return 0.0
    return bisect(lambda k: float(np.sum(w * P(v / k))), vmax)


def _bracket(gauge, k0: float) -> tuple[float, float]:
    """Expand from k0 to [k_lo, k_hi] with gauge(k_lo) > 1 >= gauge(k_hi).

    At the ends of the float range the bracket closes on 0 or inf, where
    the gauge is taken as infinite and as 0.
    """
    k_hi = k0
    while k_hi < math.inf and not gauge(k_hi) <= 1.0:
        k_hi *= 2.0
    k_lo = k_hi / 2.0 if k_hi < math.inf else sys.float_info.max
    while not (k_lo == 0.0 or gauge(k_lo) > 1.0):
        k_hi = k_lo
        k_lo /= 2.0
    return k_lo, k_hi


def bisect(gauge, vmax: float, mids: list | None = None) -> float:
    """_bracket from vmax, then bisection on log k in Python floats, one gauge
    evaluation per step; the midpoints tried are appended to `mids`."""
    k_lo, k_hi = _bracket(gauge, vmax)
    while k_hi - k_lo > _REL_TOL * k_hi:
        prod = k_lo * k_hi
        if sys.float_info.min <= prod < math.inf:
            k_mid = math.sqrt(prod)
        else:  # the product under- or overflows: split the root
            k_mid = math.sqrt(k_lo) * math.sqrt(k_hi)
        if not k_lo < k_mid < k_hi:
            break  # no float left between the bracket ends
        if mids is not None:
            mids.append(k_mid)
        if gauge(k_mid) <= 1.0:
            k_hi = k_mid
        else:
            k_lo = k_mid
    return k_hi


def luxembourg_scan_oracle(
    f: GridFunction,
    P: OrliczFunction,
    region=None,
    points: int = 64,
    passes: int = 5,
) -> float:
    """Log-spaced scan for the Luxembourg norm, independent of bisection.

    Each pass evaluates the gauge on `points` log-spaced k values and keeps
    the bracketing pair, shrinking the factor-2 start bracket by points - 1
    in log k; five passes of 64 leave a relative width near 7e-10.
    """
    v, w = region_values(f, region)
    v = np.abs(v)
    vmax = float(v.max(initial=0.0))
    if vmax == 0.0:
        return 0.0

    def gauge(k: float) -> float:
        return float(np.sum(w * P(v / k)))

    k_lo, k_hi = _bracket(gauge, vmax)
    for _ in range(passes):
        ks = np.geomspace(k_lo, k_hi, points)
        vals = np.array([gauge(k) for k in ks])
        idx = int(np.searchsorted(vals <= 1.0, True))  # gauge is decreasing
        if idx == 0:
            return float(ks[0])
        k_lo, k_hi = float(ks[idx - 1]), float(ks[idx])
    return k_hi


def ball_stats(f: GridFunction, ball: Ball) -> tuple[float, float, float]:
    """(mean of f, mean oscillation of f, mean of |f|) on the ball, with the
    quadrature measure; the mean of a constant is that constant, exactly."""
    vals, w = region_values(f, ball)
    wsum = float(np.sum(w))
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    mean = vmax if vmin == vmax else float(np.sum(w * vals) / wsum)
    dev = np.abs(vals - mean)
    osc = float(np.sum(w * dev) / wsum)
    if osc == 0.0 and not dev.any():  # f is constant (osc alone can underflow)
        return mean, 0.0, abs(mean)
    return mean, osc, float(np.sum(w * np.abs(vals)) / wsum)


def maximal_taps(f: GridFunction, local: bool = False) -> GridFunction:
    """max over the ladder of |convolve_dilated(f, t)|, scale by scale."""
    out = np.zeros(f.spec.shape)
    for t in maximal_scales(f.spec, local):
        np.maximum(out, np.abs(convolve_dilated(f, t).values), out=out)
    return f.with_values(out)


def _delta_candidates(f: GridFunction, k: int) -> list[tuple[int, ...]]:
    """lipschitz._half_space as a list: the nonzero displacements delta > 0, in
    raster order."""
    return [tuple(steps) for steps in _half_space(f.spec, k).tolist()]


def _visiting_order(f: GridFunction, k: int) -> list[tuple[int, ...]]:
    """lipschitz._visiting_steps as a list: _delta_candidates by increasing
    |delta|^2, ties in raster order."""
    return [tuple(steps) for steps in _visiting_steps(f.spec, k).tolist()]


def seminorm_full_scan(f: GridFunction, order: LipschitzOrder) -> float:
    """max over every displacement of _delta_candidates, in raster order, of
    max|D^(k+1) f| / (spacing |delta|)^gamma."""
    k1 = order.k + 1
    step = f.spec.spacing
    best = 0.0
    for steps in _delta_candidates(f, k1):
        diff = difference_op(f, steps, k1)
        delta_len = step * math.hypot(*steps)
        best = max(best, float(np.max(np.abs(diff))) / delta_len**order.gamma)
    return best


# balls on [-8, 8]^dim to check the meshgrid oracles on: an interior ball, balls
# clipped at one edge and at a corner, and one wider than the box
MESHGRID_BALLS = {
    1: [Ball((0.3,), 1.7), Ball((7.2,), 2.5), Ball((-7.9,), 0.6), Ball((1.0,), 9.0)],
    2: [Ball((0.3, -1.1), 1.7), Ball((7.2, 0.4), 2.5), Ball((-7.9, 7.6), 0.9),
        Ball((-0.5, 2.0), 9.0)],
}


def meshgrid_coords(spec: GridSpec, slices: tuple[slice, ...]) -> tuple[np.ndarray, ...]:
    """Node coordinates on a region's slices as a dense meshgrid, one array per
    axis with the region's shape."""
    return tuple(np.meshgrid(*[spec.axis()[s] for s in slices], indexing="ij"))


def monomial_terms(
    start: np.ndarray, coords: tuple[np.ndarray, ...], center, degree: int, unit: float
) -> list[np.ndarray]:
    """start * ((x - center)/unit)^alpha on a window's nodes, in multi_indices order.

    The powers are taken on the window's open per-axis coordinates (`coords`,
    from `region_coords`) once and broadcast: every node sees the operations
    of a power on its own coordinates, and the product runs over the axes in
    order, skipping those with alpha_i = 0.  `start` is window-shaped, so
    every term is too; the term of alpha = 0 is `start` itself.
    """
    powers = []
    for x, c in zip(coords, center):
        u = (x - c) / unit
        powers.append([None] + [u**a for a in range(1, degree + 1)])
    terms = []
    for alpha in multi_indices(len(coords), degree):
        term = start
        for axis_powers, a in zip(powers, alpha):
            if a:
                term = term * axis_powers[a]
        terms.append(term)
    return terms


def monomials_meshgrid(spec: GridSpec, ball: Ball, degree: int) -> list[np.ndarray]:
    """((x - x_B)/r)^alpha on the ball's nodes, in multi_indices order: the
    powers taken on the meshgrid of the ball's coordinates, term by term."""
    coords = meshgrid_coords(spec, region_slices(spec, ball))
    scaled = [(x - c) / ball.radius for x, c in zip(coords, ball.center)]
    terms = []
    for alpha in multi_indices(spec.dim, degree):
        term = np.ones(scaled[0].shape)
        for u, a in zip(scaled, alpha):
            if a:
                term = term * u**a
        terms.append(term)
    return terms


def moment_residuals(values: GridFunction, ball: Ball, s: int) -> dict:
    """Discrete moments of values * (x - x_B)^alpha for |alpha| <= s: the
    library's moment sums (`atoms._moment_sums`) on the ball's window."""
    slices = region_slices(values.spec, ball)
    return _moment_sums(values.spec, values.values[slices], slices, ball, s)


def moment_residuals_meshgrid(values: GridFunction, ball: Ball, s: int, absolute=False) -> dict:
    """Discrete moments of values * (x - x_B)^alpha for |alpha| <= s, the
    powers taken on the meshgrid of the ball's coordinates; with `absolute`,
    the sums of the terms' absolute values, the scale of their rounding."""
    spec = values.spec
    vals, w = region_values(values, ball)
    coords = meshgrid_coords(spec, region_slices(spec, ball))
    centered = [x - c for x, c in zip(coords, ball.center)]
    out = {}
    for alpha in multi_indices(spec.dim, s):
        term = vals * w
        for u, a in zip(centered, alpha):
            if a:
                term = term * u**a
        out[alpha] = float(np.sum(np.abs(term) if absolute else term))
    return out


def family_stats(b: GridFunction, family: BallFamily) -> np.ndarray:
    """One (mean, oscillation, |f|-mean) row per ball, in family order: every
    ball's window through the batches of `box_rows` and `_row_stats`."""
    stats = np.empty((len(family.balls), 3))
    for members, vals, w in box_rows(b, family.starts, family.shapes, _BATCH_FLOATS):
        stats[members] = np.column_stack(_row_stats(vals, w))
    return stats


def family_norms(b: GridFunction):
    """((BMO norm, its first argmax ball or None), bmo norm, lmo norm) from the
    statistics of every family ball: the full pass the pruned sups replaced."""
    family = BallFamily.build(b.spec)
    stats = family_stats(b, family)
    small, large = family.halves()

    def sup(values, mask):
        return float(np.max(values[mask], initial=0.0))

    osc = stats[:, 1]
    i = int(np.argmax(osc))
    bmo = (float(osc[i]), family.ball(i) if osc[i] > 0 else None)
    radii, per_ball = np.unique(family.balls[:, -1], return_inverse=True)
    weight = [math.log(math.e + 1.0 / (2.0 * r) ** family.dim) for r in radii.tolist()]
    mean_sup = sup(stats[:, 2], large)
    bmo_local = sup(osc, small) + mean_sup
    lmo = sup(np.array(weight)[per_ball] * osc, small) + mean_sup
    return bmo, bmo_local, lmo


def bump_on_ball_grid(spec: GridSpec, ball: Ball, modulate=None, coords=region_coords) -> np.ndarray:
    """The bump of atoms._bump_on_ball embedded in a grid-shaped array of zeros,
    on the open per-axis coordinates of the ball's window, or on the coordinates
    that `coords` gives for the window's slices."""
    slices = region_slices(spec, ball)
    scaled = [(x - c) / ball.radius for x, c in zip(coords(spec, slices), ball.center)]
    r = np.sqrt(sum(u**2 for u in scaled)) / math.sqrt(spec.dim)
    local = bump_profile(r)
    if modulate is not None:
        local = local * modulate(*scaled)
    vals = np.zeros(spec.shape)
    vals[slices] = local
    return vals


def bump_on_ball_meshgrid(spec: GridSpec, ball: Ball, modulate=None) -> np.ndarray:
    """bump_on_ball_grid on the dense meshgrid of the ball's coordinates."""
    return bump_on_ball_grid(spec, ball, modulate, meshgrid_coords)


def atom_grid(atom) -> GridFunction:
    """The window values of an atoms.Atom extended by zero to the grid."""
    vals = np.zeros(atom.spec.shape)
    vals[atom.slices] = atom.values
    return GridFunction(atom.spec, vals)


def poly_project_grid(f: GridFunction, ball: Ball, degree: int) -> GridFunction:
    """The window fit of projection.poly_project extended by zero to the grid."""
    slices, fit = poly_project(f, ball, degree)
    vals = np.zeros(f.spec.shape)
    vals[slices] = fit
    return GridFunction(f.spec, vals)


def make_atom_grid(
    ball: Ball, p: float, s: int, spec: GridSpec, modulate=None, bump=bump_on_ball_grid
) -> np.ndarray:
    """The values of atoms.make_atom on grid-shaped temporaries: the bump in the
    grid, minus its projection extended by zero, scaled to the sup |B|^(-1/p)."""
    base = GridFunction(spec, bump(spec, ball, modulate))
    resid = base.values - poly_project_grid(base, ball, s).values
    return resid * (ball.measure ** (-1.0 / p) / float(np.max(np.abs(resid))))


def make_local_atom_grid(
    ball: Ball, p: float, spec: GridSpec, modulate=None, bump=bump_on_ball_grid
) -> np.ndarray:
    """The values of atoms.make_local_atom on the grid-shaped bump."""
    vals = bump(spec, ball, modulate)
    return vals * (ball.measure ** (-1.0 / p) / sup_norm(GridFunction(spec, vals), ball))


def least_squares_fit(vals: np.ndarray, w: np.ndarray, coords: tuple, degree: int) -> np.ndarray:
    """The window-shaped weighted least-squares fit of a window's values by
    polynomials of degree <= k >= 1, on its product weights and open coords:
    `np.linalg.lstsq` on the monomials of u, each row scaled by the square
    root of its weight.  u maps each axis of the window onto [-1, 1], so a
    window clipped at the box keeps the conditioning of an interior one (on
    the ball's own (x - x_B)/r, a window clipped to [-0.03, 1] put the fit up
    to 2.7e-12 of max|vals| off at degree 8).  A rank below the basis size
    raises "degenerate node set"."""
    unit = []
    for x in coords:
        half = (x.max() - x.min()) / 2.0
        unit.append((x - (x.max() + x.min()) / 2.0) / (half if half > 0 else 1.0))
    terms = monomial_terms(np.ones(vals.shape), unit, (0.0,) * len(coords), degree, 1.0)
    A = np.column_stack([t.ravel() for t in terms])
    sw = np.sqrt(w).ravel()
    coeffs, _, rank, _ = np.linalg.lstsq(A * sw[:, None], vals.ravel() * sw, rcond=None)
    if rank < A.shape[1]:
        raise ValueError("degenerate node set")
    return sum(coeff * term for coeff, term in zip(coeffs, terms))


def region_node_count(spec: GridSpec, region) -> int:
    """The number of nodes in a region's window."""
    return math.prod(s.stop - s.start for s in region_slices(spec, region))


def ball_axis_slice(spec: GridSpec, center: float, radius: float) -> slice:
    """The index window, on one axis, of the ball of this radius about one
    center, in Python ints: the nodes within the radius, with a slack of
    _INDEX_TOL grid steps, clipped to the box."""
    step = spec.spacing
    lo = (center - radius + spec.halfwidth) / step
    hi = (center + radius + spec.halfwidth) / step
    i_lo = max(0, int(math.ceil(lo - _INDEX_TOL)))
    i_hi = min(spec.points_per_axis - 1, int(math.floor(hi + _INDEX_TOL)))
    return slice(i_lo, i_hi + 1)


# the b generators on the dense coordinate mesh of meshes(spec), one per kind
# of generators.B_GENERATORS, each of (spec, rng, params)


def _step_field(spec, height=1.0):
    x = meshes(spec)[0]
    return GridFunction(spec, np.where(x >= 0, float(height), 0.0))


def _regularized_log_field(spec, scale=1.0):
    r = np.sqrt(sum(x**2 for x in meshes(spec)))
    return GridFunction(spec, scale * np.log(np.maximum(r, spec.spacing)))


def _random_smooth_field(spec, rng, amplitude=1.0):
    n_modes = 8
    freqs = rng.integers(1, 6, n_modes)
    amps = amplitude * rng.normal(size=n_modes) / n_modes
    phases = rng.uniform(0, 2 * math.pi, n_modes)
    x = meshes(spec)[0]
    vals = np.zeros(spec.shape)
    for a, f, ph in zip(amps, freqs, phases):
        vals += a * np.cos(math.pi * f * x / spec.halfwidth + ph)
    if spec.dim == 2:
        y = meshes(spec)[1]
        vals = vals + amplitude * 0.2 * np.cos(math.pi * y / spec.halfwidth)
    return GridFunction(spec, vals)


def _random_lipschitz_field(spec, rng, gamma, levels=7):
    x = meshes(spec)[0]
    vals = np.zeros(spec.shape)
    for j in range(levels):
        sign = rng.choice([-1.0, 1.0])
        phase = rng.uniform(0, 2 * math.pi)
        vals += sign * 2.0 ** (-gamma * j) * np.cos(2.0**j * math.pi * x / spec.halfwidth + phase)
    return GridFunction(spec, vals)


def _random_bmo_field(spec, rng, levels=5):
    x = meshes(spec)[0]
    vals = np.zeros(spec.shape)
    R = spec.halfwidth
    for level in range(levels):
        n_int = 2**level
        signs = rng.choice([-1.0, 1.0], size=n_int)
        width = 2.0 * R / n_int
        idx = np.clip(((x + R) / width).astype(int), 0, n_int - 1)
        vals += signs[idx]
    return GridFunction(spec, vals)


FORMER_GENERATORS = {
    "constant": lambda spec, rng, kw: GridFunction.constant(spec, kw.get("value", 1.0)),
    "step": lambda spec, rng, kw: _step_field(spec, **kw),
    "regularized-log": lambda spec, rng, kw: _regularized_log_field(spec, **kw),
    "random-smooth": lambda spec, rng, kw: _random_smooth_field(spec, rng, **kw),
    "random-lipschitz": lambda spec, rng, kw: _random_lipschitz_field(spec, rng, **kw),
    "random-bmo": lambda spec, rng, kw: _random_bmo_field(spec, rng, **kw),
}
