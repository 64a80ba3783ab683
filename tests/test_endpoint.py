"""The regime endpoint p = n/(n+1) belongs to the projection split.

There gamma = n(1/p - 1) = 1, and Lambda_1 is the Zygmund class: second
differences are O(|delta|), while first differences, and with them a
function's oscillation on a ball of radius r, can be O(r log(1/r)) (Zygmund,
Duke Math. J. 1945).  Whitney's inequality (J. Math. Pures Appl. 1957)
bounds the best degree-1 fit on the ball by the second modulus, O(r).  So
against the Zygmund norm the mean split's L^1 constant grows like log(1/r),
and the degree-1 projection's does not.

The field b = x log|x| is the model Zygmund function.  At 1d m=8193 on
halfwidth 8, Lambda_1(b) = 18.398, and C1 = ||h1||_1 / Lambda_1(b) for one
atom on B(0, r), lambda = 1, p = 0.5, reads

    r                          1       1/2     1/4     1/8     1/16    1/32
    mean, s = 0 atom           0.0029  0.0083  0.0137  0.0194  0.0256  0.0330
    projection, s = 2 atom     0.0007  0.0007  0.0007  0.0008  0.0009  0.0011

r = 1/32 is 16 spacings; at 8 spacings both columns jump, so the radii stop
there.  The 2d counterpart, p = 2/3 and b = x_1 log|x| at m=513, is a slow
check (`pytest -m slow`).  A bound that fails is a finding about the splits,
not a tolerance to retune.
"""

import numpy as np
import pytest

from hardylab import product
from hardylab.atoms import AtomicDecomposition, make_atom
from hardylab.grid import Ball, GridFunction, GridSpec, lp_norm
from hardylab.lipschitz import LipschitzOrder, lambda_gamma_norm
from hardylab.product import REGIMES, split_lipschitz

def _c1_columns(spec, p, radii):
    """C1 = ||h1||_1 / Lambda_1(b) of one atom on B(0, r), lambda = 1, for the
    mean subtraction (s = 0 atom) and split_lipschitz (s = 2k atom), with b =
    x_1 log max(|x|, spacing)."""
    axes = np.meshgrid(*[spec.axis()] * spec.dim, indexing="ij", sparse=True)
    radius = np.sqrt(sum(x**2 for x in axes))
    b = GridFunction(spec, axes[0] * np.log(np.maximum(radius, spec.spacing)))
    order = LipschitzOrder.dual_to(p, spec.dim)
    scale = lambda_gamma_norm(b, order)
    mean, projection = [], []
    for r in radii:
        ball = Ball((0.0,) * spec.dim, r)
        d_mean = AtomicDecomposition(p=p, terms=((1.0, make_atom(ball, p, 0, spec)),))
        split = product._split(b, d_mean, REGIMES["mean"], 0)
        mean.append(lp_norm(split.h1, 1.0) / scale)
        atom = make_atom(ball, p, order.min_atom_s, spec)
        split = split_lipschitz(b, AtomicDecomposition(p=p, terms=((1.0, atom),)))
        assert split.regime == REGIMES["projection"]
        projection.append(lp_norm(split.h1, 1.0) / scale)
    return order, scale, mean, projection


def test_endpoint_takes_the_projection_split_and_its_c1_stays_level():
    spec = GridSpec(dim=1, halfwidth=8.0, points_per_axis=8193)
    radii = [2.0**-j for j in range(6)]
    assert min(radii) == 16 * spec.spacing
    order, scale, mean, projection = _c1_columns(spec, 0.5, radii)
    assert (order.gamma, order.k, order.min_atom_s) == (1.0, 1, 2)
    assert abs(scale - 18.398) < 1e-3
    # the mean subtraction gains at least 0.004 per halving of r: log(1/r) growth
    assert min(later - earlier for earlier, later in zip(mean, mean[1:])) >= 0.004, mean
    # the degree-1 projection stays below twice its r = 1 value
    assert max(projection) < 2.0 * projection[0], projection


@pytest.mark.slow
def test_endpoint_2d_projection_c1_stays_level():
    """The 2d endpoint p = 2/3 at m=513 (about 10 s): Lambda_1(b) = 21.171, and

        r                          1       1/2     1/4
        mean, s = 0 atom           0.0015  0.0044  0.0097
        projection, s = 2 atom     0.0003  0.0003  0.0004
    """
    spec = GridSpec(dim=2, halfwidth=8.0, points_per_axis=513)
    radii = [1.0, 0.5, 0.25]
    assert min(radii) == 8 * spec.spacing
    order, scale, mean, projection = _c1_columns(spec, 2 / 3, radii)
    assert (order.k, order.min_atom_s) == (1, 2)
    assert abs(scale - 21.171) < 1e-3
    assert min(later - earlier for earlier, later in zip(mean, mean[1:])) >= 0.002, mean
    assert max(projection) < 2.0 * projection[0], projection
