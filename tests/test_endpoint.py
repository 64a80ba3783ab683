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
there.  A bound that fails is a finding about the splits, not a tolerance to
retune.
"""

import numpy as np

from hardylab import product
from hardylab.atoms import AtomicDecomposition, make_atom
from hardylab.grid import Ball, GridFunction, GridSpec, lp_norm
from hardylab.lipschitz import LipschitzOrder, lambda_gamma_norm
from hardylab.product import REGIMES, split_lipschitz

P = 0.5  # n/(n+1) in 1d
RADII = [2.0**-j for j in range(6)]


def _c1_columns():
    spec = GridSpec(dim=1, halfwidth=8.0, points_per_axis=8193)
    x = spec.axis()
    b = GridFunction(spec, x * np.log(np.maximum(np.abs(x), spec.spacing)))
    order = LipschitzOrder.dual_to(P, spec.dim)
    scale = lambda_gamma_norm(b, order)
    mean, projection = [], []
    for r in RADII:
        ball = Ball((0.0,), r)
        assert r >= 16 * spec.spacing
        d_mean = AtomicDecomposition(p=P, terms=((1.0, make_atom(ball, P, 0, spec)),))
        split = product._split_mean(b, d_mean, REGIMES["mean"])
        mean.append(lp_norm(split.h1, 1.0) / scale)
        atom = make_atom(ball, P, order.min_atom_s, spec)
        split = split_lipschitz(b, AtomicDecomposition(p=P, terms=((1.0, atom),)))
        assert split.regime == REGIMES["projection"]
        projection.append(lp_norm(split.h1, 1.0) / scale)
    return order, scale, mean, projection


def test_endpoint_takes_the_projection_split_and_its_c1_stays_level():
    order, scale, mean, projection = _c1_columns()
    assert (order.gamma, order.k, order.min_atom_s) == (1.0, 1, 2)
    assert abs(scale - 18.398) < 1e-3
    # the mean subtraction gains at least 0.004 per halving of r: log(1/r) growth
    assert min(later - earlier for earlier, later in zip(mean, mean[1:])) >= 0.004, mean
    # the degree-1 projection stays below twice its r = 1 value
    assert max(projection) < 2.0 * projection[0], projection
