"""Sharpness of the target space, 1d: at p = 1 the H^1 constant grows like
log(1/r) and the H^Phi constant does not.

b is the model BMO function log|x| (John-Nirenberg 1961), clipped at grid
scale; h is one p = 1, s = 0 atom on B(0, r), lambda = 1, split by split_bmo.
At 1d m=4097 on halfwidth 8, bmo_local_norm(b) = 2.969, and the two ratios
||h2|| / bmo_local_norm(b) read

    r             1      1/2    1/4    1/8    1/16   1/32
    H^1 ratio     0.239  0.407  0.576  0.751  0.935  1.130
    H^Phi ratio   0.157  0.263  0.354  0.387  0.383  0.371

So b x h leaves H^1 but stays in H^Phi (Bonami-Iwaniec-Jones-Zinsmeister,
Ann. Inst. Fourier 2007).  The p < 1 control, b = |x|^gamma at 1d m=8193
with gamma = 1/p - 1, shows no such growth: hardy_quasinorm(h2, p) /
Lambda_gamma(b) falls from r = 1 to r = 1/128, 0.257 -> 0.0868 at p = 0.8
and 0.00882 -> 2.41e-05 at p = 0.4.  A bound that fails is a finding, not a
tolerance to retune.
"""

import numpy as np
import pytest

from hardylab.atoms import AtomicDecomposition, make_atom
from hardylab.generators import regularized_log_field
from hardylab.grid import Ball, GridFunction, GridSpec
from hardylab.lipschitz import LipschitzOrder, lambda_gamma_norm
from hardylab.orlicz import hardy_phi_star_quasinorm, hardy_quasinorm
from hardylab.oscillation import bmo_local_norm
from hardylab.product import split_bmo, split_lipschitz


def _one_atom(r: float, p: float, s: int, spec: GridSpec) -> AtomicDecomposition:
    return AtomicDecomposition(p=p, terms=((1.0, make_atom(Ball((0.0,), r), p, s, spec)),))


def test_p1_h1_ratio_grows_and_h_phi_ratio_stays_bounded():
    spec = GridSpec(dim=1, halfwidth=8.0, points_per_axis=4097)
    b = regularized_log_field(spec)
    scale = bmo_local_norm(b)
    assert abs(scale - 2.969) < 1e-3
    h1_ratios, phi_ratios = [], []
    for j in range(6):
        h2 = split_bmo(b, _one_atom(2.0**-j, 1.0, 0, spec)).h2
        h1_ratios.append(hardy_quasinorm(h2, 1.0) / scale)
        phi_ratios.append(hardy_phi_star_quasinorm(h2) / scale)
    # the H^1 ratio rises by at least 0.1 per halving of r
    rises = [later - earlier for earlier, later in zip(h1_ratios, h1_ratios[1:])]
    assert min(rises) >= 0.1, h1_ratios
    assert max(phi_ratios) < 0.5, phi_ratios


@pytest.mark.parametrize("p", [0.8, 0.4])
def test_p_lt1_control_ratio_does_not_grow(p):
    spec = GridSpec(dim=1, halfwidth=8.0, points_per_axis=8193)
    order = LipschitzOrder.dual_to(p, spec.dim)
    b = GridFunction(spec, np.abs(spec.axis()) ** order.gamma)
    scale = lambda_gamma_norm(b, order)
    ratios = [
        hardy_quasinorm(split_lipschitz(b, _one_atom(2.0**-j, p, order.min_atom_s, spec)).h2, p)
        / scale
        for j in range(8)
    ]
    assert max(ratios[1:]) <= ratios[0], ratios
