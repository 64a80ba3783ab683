"""Orlicz function Phi, Luxembourg norms, cube-summed norms and Hardy layers.

The Luxembourg norm inf{k > 0 : integral of P(|f|/k) <= 1} is located by
bisection on log k, written once: `_luxembourg_rows` runs the bracket and the
bisection on many rows in lockstep, held as blocks of same-width rows.
`luxembourg_norm` is its one-row call, and the cube-summed norm bisects all
cubes in one lockstep, one block per cube shape.  Under PHI, `_certificate`
first gives each row a bracket [a, b] of its root, of relative half-width
about 1e-12, outside which the float gauge's side of 1 is certain (a margin
covers its rounding).  The bisection then takes the same steps, but answers
a step from the bracket where it can, so only the few steps within the
bracket evaluate the gauge: on a 2d m=65 maximal function one cube-summed
norm makes 5 or 6 P calls (four Newton passes, the certifying pass and the
undecided steps), where the 36 rounds of the bisection made 36.  The test
suite (`tests/scalar_oracles.py`) holds the bit-for-bit oracle of the
replayed bisection, a scalar one that evaluates the gauge at every step, and
a dense log-spaced scan that cross-checks the bisection against an
independent search path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, box_rows, lp_norm, region_values, unit_cube_boxes
from .maximal import maximal_fn

__all__ = [
    "OrliczFunction",
    "PHI",
    "phi",
    "luxembourg_norm",
    "lphi_star_norm",
    "hardy_quasinorm",
    "hardy_phi_star_quasinorm",
]

_REL_TOL = 1e-9

# _certificate: rows whose max lies in this range, far from both ends of the
# float range, get a certificate; its Newton passes and its least relative
# half-width
_CERT_MIN, _CERT_MAX = 2.0**-512, 2.0**512
_NEWTON_PASSES = 4
_CERT_EPS = 1e-12
_U = 2.0**-53  # unit roundoff of float64
_TINY = math.ulp(0.0)


# a class, not a bare function: perfbench's tracer counts gauge evaluations by
# patching the `eval` attribute of PHI
@dataclass(frozen=True)
class OrliczFunction:
    """Continuous increasing map [0, inf) -> [0, inf), zero at zero."""

    eval: callable

    def __call__(self, t):
        return self.eval(np.asarray(t, dtype=float))


def phi(t):
    """t / log(e + t), elementwise; rejects negative input."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("phi is defined on nonnegative arguments")
    return t / np.log(math.e + t)


PHI = OrliczFunction(phi)


def _certificate(blocks, P: OrliczFunction) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) per row, in block order, with float gauge(k) > 1 for every
    k <= a and float gauge(k) <= 1 for every k >= b; NaN where no certificate.

    Only rows gauged by PHI whose max lies in [_CERT_MIN, _CERT_MAX] get one.
    Each takes _NEWTON_PASSES lockstep Newton passes on ln g against ln k from
    k0 = L1 / log(e + vmax / L1), where t P'(t) = P(t) (1 - P(t) / (e + t)),
    so a pass makes one P call; then one P call evaluates the gauge G at
    a = k(1 - eps) and b = k(1 + eps).  The float gauge of a row of n terms is
    within mu G + tau of the true one at every k where it is finite:
    mu = 2 (n + 12) u with u = 2^-53 counts, per term, the roundings of v / k,
    of e + t (2u in the argument of log), of numpy's float64 log (assumed
    within 4 ulp, 8u, and log >= 1 turns the argument's error into an
    absolute one), of t / log and of w P (13u), plus the n - 1 additions of
    the sum in any order (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 4.2, of which numpy's pairwise sum is one); the factor 2
    covers the second-order terms and is the safety factor.
    tau = 2 ulp(0) (sum w + n) covers the underflows of t, t / log and w P.
    A row is certified when G(a) > 1 + 4 (mu + tau) and G(b) < 1 - 4 (mu +
    tau), which is more than (1 + tau)(1 + mu) / (1 - mu) + tau and less than
    (1 - tau)(1 - mu) / (1 + mu) - tau.  The true gauge decreases strictly in
    k, so the float gauge is then > 1 at every k <= a and <= 1 at every
    k >= b; where a smaller k overflows, the gauge is inf or NaN, and a NaN
    gauge fails `<= 1` too.  eps = max(1e-12, 16 (mu + tau)) leaves room for
    that margin, since |d ln G / d ln k| >= 0.68.  The rows are zero-padded
    to the widest block's n here: a padded term is an exact 0, and n counts
    it, so the margin holds for the unpadded sums of the bisection too.
    """
    count = sum(len(v) for v, _ in blocks)
    a, b = np.full(count, np.nan), np.full(count, np.nan)
    if P is not PHI:
        return a, b
    n = max(v.shape[1] for v, _ in blocks)
    v_all, w_all = np.zeros((count, n)), np.zeros((count, n))
    first = 0
    for v, w in blocks:
        v_all[first : first + len(v), : v.shape[1]] = v
        w_all[first : first + len(v), : v.shape[1]] = w
        first += len(v)
    vmax = v_all.max(axis=1)
    rows = np.flatnonzero((_CERT_MIN <= vmax) & (vmax <= _CERT_MAX))
    v, w, vmax = v_all[rows], w_all[rows], vmax[rows]
    margin = 4.0 * (2.0 * (n + 12) * _U + 2.0 * _TINY * (w.sum(axis=1) + n))
    eps = np.maximum(_CERT_EPS, 4.0 * margin)
    with np.errstate(all="ignore"):  # a row that over- or underflows fails the test
        l1 = (w * v).sum(axis=1)
        k = l1 / np.log(math.e + vmax / l1)
        for _ in range(_NEWTON_PASSES):
            t = v / k[:, None]
            pt = P(t)
            g = (w * pt).sum(axis=1)
            slope = (w * pt * (1.0 - pt / (math.e + t))).sum(axis=1)
            k = k * np.exp(np.log(g) * g / slope)
        lo, hi = ends = np.stack([k * (1.0 - eps), k * (1.0 + eps)])
        g_lo, g_hi = (w * P(v / ends[:, :, None])).sum(axis=-1)
    ok = (g_lo > 1.0 + margin) & (g_hi < 1.0 - margin)
    a[rows[ok]], b[rows[ok]] = lo[ok], hi[ok]
    return a, b


def _luxembourg_rows(blocks, P: OrliczFunction) -> np.ndarray:
    """Luxembourg norm under P of each row of the blocks, in block order.

    A block is a pair (v, w) of C-contiguous (rows, n) arrays: |values| and
    weights, n nodes per row.  The bracket (k doubled from max|v| until
    gauge(k) <= 1, then halved until gauge(k) > 1) and the bisection on log k
    each run on all rows in lockstep.  Per round, a row still in the
    loop takes its test gauge(k) <= 1 from its certificate when k lies outside
    its bracket (a row without one never does); the values of the other rows,
    each divided by its k, go through one P call, and none is made when no
    such row is left.  Each block that holds such a row sums its rows' terms
    on a (rows, n) array: every row gets numpy's pairwise sum of its own n
    terms, as a one-row call does.  Zero-padding rows to one width would
    regroup those sums and move the last bits.  Each row leaves a loop on its
    own test, so a row's norm does not depend on the rows batched with it.
    """
    first = np.cumsum([0] + [len(v) for v, _ in blocks]).tolist()
    cert_lo, cert_hi = _certificate(blocks, P)

    def within(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        """gauge(k) <= 1 for the given rows (increasing), one k each: from the
        certificate where it decides, else from the gauge."""
        inside = k >= cert_hi[rows]
        open_ = np.flatnonzero(~inside & ~(k <= cert_lo[rows]))
        if len(open_):
            inside[open_] = gauge_within(rows[open_], k[open_])
        return inside

    def gauge_within(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        """gauge(k) <= 1 for the given rows (increasing), one k each."""
        cuts = np.searchsorted(rows, first).tolist()
        parts = []
        for (v, w), start, lo, hi in zip(blocks, first, cuts, cuts[1:]):
            if lo == hi:
                continue  # no row of this block is in play
            # a block all of whose rows are in play is read in place
            local = slice(None) if hi - lo == len(v) else rows[lo:hi] - start
            parts.append((w[local], v[local] / k[lo:hi, None]))
        terms = P(np.concatenate([t.ravel() for _, t in parts]))
        gauge, end = [], 0
        for w, t in parts:
            gauge.append((w * terms[end : end + t.size].reshape(t.shape)).sum(axis=-1))
            end += t.size
        return np.concatenate(gauge) <= 1.0

    k_hi = np.concatenate([v.max(axis=-1, initial=0.0) for v, _ in blocks])
    rows = np.flatnonzero(k_hi > 0.0)  # the norm of a zero row is 0
    todo = rows
    with np.errstate(over="ignore"):  # k_hi doubles up to inf, as a float does
        while len(todo := todo[k_hi[todo] < math.inf]):
            todo = todo[~within(todo, k_hi[todo])]
            k_hi[todo] *= 2.0
    k_lo = np.where(k_hi < math.inf, k_hi / 2.0, sys.float_info.max)
    todo = rows
    while len(todo := todo[k_lo[todo] != 0.0]):
        todo = todo[within(todo, k_lo[todo])]
        k_hi[todo] = k_lo[todo]
        k_lo[todo] /= 2.0
    # the bisection holds the brackets of the rows still in it; the rows start
    # from factor-2 brackets and leave within a round or two of each other
    todo = rows
    lo, hi = k_lo[todo], k_hi[todo]
    # a product or a gauge that over- or underflows is taken as the float it is
    with np.errstate(over="ignore", under="ignore"):
        while len(todo):
            prod = lo * hi
            mid = np.sqrt(prod)
            split = ~((sys.float_info.min <= prod) & (prod < math.inf))
            if split.any():  # where the product under- or overflows: split the root
                mid[split] = np.sqrt(lo[split]) * np.sqrt(hi[split])
            keep = (hi - lo > _REL_TOL * hi) & (lo < mid) & (mid < hi)
            if not keep.all():  # these rows leave with their k_hi
                k_hi[todo[~keep]] = hi[~keep]
                todo, lo, hi = todo[keep], lo[keep], hi[keep]
                continue
            inside = within(todo, mid)
            hi = np.where(inside, mid, hi)
            lo = np.where(inside, lo, mid)
    return k_hi


def luxembourg_norm(f: GridFunction, P: OrliczFunction, region=None) -> float:
    """inf{k > 0 : integral_region P(|f|/k) <= 1}, by bisection on log k.

    Returns 0 iff f vanishes on the region.  The returned k satisfies
    gauge(k) <= 1 with relative bracket width below 1e-9 whenever k is a
    normal float; a subnormal k is bracketed to 1e-9 or to adjacent floats.
    """
    v, w = region_values(f, region)
    row = (np.abs(v).reshape(1, -1), w.reshape(1, -1))
    return float(_luxembourg_rows([row], P)[0])


def lphi_star_norm(f: GridFunction) -> float:
    """Sum over unit lattice cubes of the per-cube Luxembourg norms under PHI,
    all cubes in one lockstep: one block of rows per cube shape, gathered by
    `box_rows`, and one certificate per cube."""
    starts, shapes = unit_cube_boxes(f.spec)
    order, blocks = [], []
    # the cubes partition the grid: one batch holds every cube of a shape
    for cubes, v, w in box_rows(f, starts, shapes, f.values.size):
        order.append(cubes)
        blocks.append((np.abs(v, out=v), w))
    norms = np.empty(len(starts))
    norms[np.concatenate(order)] = _luxembourg_rows(blocks, PHI)
    # summed in raster order, as the one-cube norms were
    return sum(norms.tolist())


def hardy_quasinorm(
    f: GridFunction,
    p: float,
    local: bool = False,
) -> float:
    """L^p quasi-norm of the (possibly truncated) maximal function."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    mf = maximal_fn(f, local)
    return lp_norm(mf, p)


def hardy_phi_star_quasinorm(
    f: GridFunction,
    local: bool = False,
) -> float:
    """Cube-summed Luxembourg norm of the (possibly truncated) maximal function."""
    mf = maximal_fn(f, local)
    return lphi_star_norm(mf)
