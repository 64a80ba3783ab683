import dataclasses
import math

import numpy as np
import pytest

from hardylab.atoms import (
    Atom,
    AtomicDecomposition,
    make_atom,
    moment_residuals,
    moment_tolerance,
    synthesize,
)
from hardylab.generators import (
    b_field,
    random_decomposition,
    random_lipschitz_field,
    random_smooth_field,
    regularized_log_field,
)
from hardylab.grid import Ball, GridFunction, ball_mean
from hardylab import product
from hardylab.maximal import bump_profile
from hardylab.orlicz import PHI
from hardylab.product import (
    REGIMES,
    duality_identity_check,
    exp_class_product_bound,
    pairing_limit_check,
    split_bmo,
    split_lipschitz,
    truncate,
    verify_split,
)
from hardylab.projection import poly_project
from scalar_oracles import from_callable, luxembourg_scan_oracle, meshes


def test_truncate(spec1d, rng):
    b = random_smooth_field(spec1d, rng)
    sup = float(np.max(np.abs(b.values)))
    assert np.array_equal(truncate(b, sup + 1.0).values, b.values)
    flat = truncate(GridFunction.constant(spec1d, 4.0), 2.0)
    assert np.all(flat.values == 2.0)
    with pytest.raises(ValueError):
        truncate(b, 0.0)


def test_pairing_gap_closes_exactly(spec1d, rng):
    b = random_smooth_field(spec1d, rng)
    h = random_smooth_field(spec1d, rng)
    sup = float(np.max(np.abs(b.values)))
    report = pairing_limit_check(b, h, [sup / 4.0, sup / 2.0, sup, 2.0 * sup])
    assert report["gaps"][-1] == 0.0
    assert report["gaps"][-2] == 0.0


def test_pairing_zero_h(spec1d, rng):
    b = random_smooth_field(spec1d, rng)
    report = pairing_limit_check(b, GridFunction.zeros(spec1d), [1.0, 2.0])
    assert report["full_pairing"] == 0.0
    assert all(g == 0.0 for g in report["gaps"])


def test_pairing_monotone_for_log(spec1d):
    b = regularized_log_field(spec1d)
    x = meshes(spec1d)[0]
    h = GridFunction(spec1d, bump_profile(x / 2.0))
    sup = float(np.max(np.abs(b.values)))
    levels = [sup / 8, sup / 4, sup / 2, sup]
    gaps = pairing_limit_check(b, h, levels)["gaps"]
    assert all(a >= b_ - 1e-15 for a, b_ in zip(gaps, gaps[1:]))
    assert gaps[-1] == 0.0


def test_duality_identity(spec1d, rng):
    x = meshes(spec1d)[0]
    test = GridFunction(spec1d, bump_profile(x / 3.0))
    for _ in range(10):
        b = random_smooth_field(spec1d, rng)
        h = random_smooth_field(spec1d, rng)
        gap = duality_identity_check(b, h, test)
        scale = (
            np.max(np.abs(b.values))
            * np.max(np.abs(h.values))
            * np.max(np.abs(test.values))
            * (2.0 * spec1d.halfwidth)
        )
        assert gap <= 1e-12 * scale
    assert duality_identity_check(b, h, GridFunction.zeros(spec1d)) == 0.0


def test_split_bmo_constant_b(spec1d, rng):
    decomp = random_decomposition(spec1d, rng, p=1.0, s=0)
    b = GridFunction.constant(spec1d, 3.0)
    split = split_bmo(b, decomp)
    assert split.regime == REGIMES["p1"]
    assert np.all(split.h1.values == 0.0)
    prod = b.values * synthesize(decomp).values
    assert np.array_equal(split.h2.values, prod)


def test_split_bmo_zero_mean_single_atom(spec1d):
    atom = make_atom(Ball((0.0,), 1.0), 1.0, 0, spec1d)
    decomp = AtomicDecomposition(p=1.0, terms=((1.0, atom),))
    b = from_callable(spec1d, lambda x: x)
    assert abs(ball_mean(b, atom.ball)) < 1e-13
    split = split_bmo(b, decomp)
    assert np.max(np.abs(split.h2.values)) < 1e-12


def test_split_bmo_requires_p1(spec1d, rng):
    decomp = random_decomposition(spec1d, rng, p=0.8, s=0)
    b = random_smooth_field(spec1d, rng)
    with pytest.raises(ValueError, match="p = 1"):
        split_bmo(b, decomp)


def test_split_rejects_invalid_atom(spec1d, rng):
    good = make_atom(Ball((0.0,), 1.0), 1.0, 0, spec1d)
    bad_vals = good.values.with_values(good.values.values * 3.0)
    bad = Atom(bad_vals, good.ball, 1.0, 0)
    decomp = AtomicDecomposition(p=1.0, terms=((1.0, good), (1.0, bad)))
    b = random_smooth_field(spec1d, rng)
    with pytest.raises(ValueError, match="atom 1"):
        split_bmo(b, decomp)


def test_split_reconstruction_is_complement(spec1d, rng):
    decomp = random_decomposition(spec1d, rng, p=1.0, s=0)
    b = b_field(spec1d, "random-bmo", rng)
    split = split_bmo(b, decomp)
    prod = b.values * synthesize(decomp, spec1d).values
    assert np.array_equal(prod - split.h1.values, split.h2.values)
    recon = split.h1.values + split.h2.values
    tol = 4.0 * np.spacing(
        np.maximum.reduce([np.abs(prod), np.abs(split.h1.values), np.abs(split.h2.values)])
    )
    assert np.all(np.abs(recon - prod) <= tol)


def _cancelling_pair(spec, lam):
    """One atom taken with lambda and -lambda (1 + 1e-15): b*h and h1 nearly
    vanish, while each term's rounding error scales with lambda."""
    atom = make_atom(Ball((0.3,), 1.0), 1.0, 0, spec)
    return AtomicDecomposition(p=1.0, terms=((lam, atom), (-lam * (1.0 + 1e-15), atom)))


@pytest.mark.parametrize("lam", [1e7, 1e9])
def test_split_near_cancelling_terms(spec1d, lam):
    """The drift check scales with the terms, not with the cancelled sums, so
    rounding does not read as leaked mass."""
    for kind, seed in (("random-bmo", 0), ("random-smooth", 0), ("random-smooth", 1)):
        b = b_field(spec1d, kind, np.random.default_rng(seed))
        split = split_bmo(b, _cancelling_pair(spec1d, lam))
        assert np.isfinite(split.h2.values).all()


def test_split_leak_still_raises(spec1d):
    """A list of projections that misses the last term leaves that term's whole
    product in h2 but out of the projection part: a real leak, caught also
    where the terms nearly cancel."""
    b = b_field(spec1d, "random-bmo", np.random.default_rng(0))
    for decomp in (random_decomposition(spec1d, np.random.default_rng(1), p=1.0, s=0),
                   _cancelling_pair(spec1d, 1e7)):
        means = [poly_project(b, atom.ball, 0).values for _, atom in decomp.terms]
        with pytest.raises(AssertionError, match="leaked mass"):
            product._assemble(b, decomp, REGIMES["p1"], means[:-1])


def test_split_bilinearity_power_of_two(spec1d, rng):
    decomp = random_decomposition(spec1d, rng, p=1.0, s=0)
    b = random_smooth_field(spec1d, rng)
    base = split_bmo(b, decomp)
    doubled = split_bmo(b.with_values(2.0 * b.values), decomp)
    assert np.array_equal(doubled.h1.values, 2.0 * base.h1.values)
    assert np.array_equal(doubled.h2.values, 2.0 * base.h2.values)
    scaled = AtomicDecomposition(
        p=1.0, terms=tuple((2.0 * lam, a) for lam, a in decomp.terms)
    )
    relam = split_bmo(b, scaled)
    assert np.array_equal(relam.h1.values, 2.0 * base.h1.values)
    assert np.array_equal(relam.h2.values, 2.0 * base.h2.values)


BOUNDARY_PS = [1.0, 1 - 1e-13, 0.9999999, 0.8, 0.6666666666666667, 2 / 3, 0.6666666666666665,
               0.5000000000000001, 0.5, 0.4999999999999999, 0.4, 1e-310, 5e-324]


@pytest.mark.parametrize("dim", [1, 2])
def test_regimes_are_disjoint(dim):
    """Each p in (0, 1] lies in exactly one of p1, mean and projection, and in
    exactly one of their _local forms; a p outside lies in none."""
    for p in BOUNDARY_PS:
        for names in (["p1", "mean", "projection"], ["p1_local", "mean_local", "projection_local"]):
            assert sum(REGIMES[name].admits(p, dim) for name in names) == 1, (p, names)
    for p in [0.0, -0.5, 1.5, math.nan]:
        assert not any(regime.admits(p, dim) for regime in REGIMES.values()), p


@pytest.mark.parametrize("p", [1.0, 1 - 1e-13])
def test_split_lipschitz_rejects_p1(spec1d, rng, p):
    """A p within 1e-12 of 1 is p1's, as Regime.admits reads it: split_bmo
    takes it, and split_lipschitz does not split it again as the mean regime."""
    atom = make_atom(Ball((0.3,), 1.0), p, 0, spec1d)
    decomp = AtomicDecomposition(p=p, terms=((1.0, atom),))
    b = random_smooth_field(spec1d, rng)
    assert split_bmo(b, decomp).regime == REGIMES["p1"]
    with pytest.raises(ValueError, match="split_bmo"):
        split_lipschitz(b, decomp)


def test_split_lipschitz_mean_regime(spec1d, rng):
    p = 0.8
    gamma = 1.0 / p - 1.0
    decomp = random_decomposition(spec1d, rng, p=p, s=0)
    b = random_lipschitz_field(spec1d, rng, gamma)
    split = split_lipschitz(b, decomp)
    assert split.regime == REGIMES["mean"]
    # h1 = sum_j lambda_j (b - m_j) a_j with m_j the ball mean, in term order
    h1 = sum(lam * ((b.values - ball_mean(b, atom.ball)) * atom.values.values)
             for lam, atom in decomp.terms)
    assert np.array_equal(split.h1.values, h1)


def test_split_lipschitz_projection_regime(spec1d, rng):
    p = 0.4
    gamma = 1.0 / p - 1.0  # 1.5, so k = 1 and s must reach 2
    decomp = random_decomposition(spec1d, rng, p=p, s=2)
    b = random_lipschitz_field(spec1d, rng, gamma)
    split = split_lipschitz(b, decomp)
    assert split.regime == REGIMES["projection"]
    # m_j is the degree-1 projection of b on the atom's ball: h1 subtracts it,
    # and m_j a_j keeps the atom's vanishing moments up to degree 1
    h1 = np.zeros(spec1d.shape)
    for lam, atom in decomp.terms:
        m = poly_project(b, atom.ball, 1).values
        h1 += lam * ((b.values - m) * atom.values.values)
        term = atom.values.with_values(m * atom.values.values)
        term_sup = float(np.max(np.abs(term.values)))
        for alpha, value in moment_residuals(term, atom.ball, 1).items():
            assert abs(value) <= moment_tolerance(term_sup, atom.ball, sum(alpha))
    assert np.array_equal(split.h1.values, h1)


def test_split_lipschitz_needs_moments(spec1d, rng):
    p = 0.4
    decomp = random_decomposition(spec1d, rng, p=p, s=0)
    b = random_lipschitz_field(spec1d, rng, 1.5)
    with pytest.raises(ValueError, match="need s >="):
        split_lipschitz(b, decomp)


def test_split_lipschitz_constant_b_projection(spec1d, rng):
    p = 0.4
    decomp = random_decomposition(spec1d, rng, p=p, s=2)
    b = GridFunction.constant(spec1d, 2.0)
    split = split_lipschitz(b, decomp)
    sup_scale = float(np.max(np.abs(split.h2.values)))
    assert np.max(np.abs(split.h1.values)) <= 1e-10 * max(sup_scale, 1.0)


def test_exp_class_bound(spec1d, rng):
    ball = Ball((0.0,), 0.5)
    zero = GridFunction.zeros(spec1d)
    x = meshes(spec1d)[0]
    psi = GridFunction(spec1d, 1.0 + 0.2 * np.cos(x))
    assert exp_class_product_bound(zero, psi, ball) == 0.0
    with pytest.raises(ValueError, match="unit measure"):
        exp_class_product_bound(zero, psi, Ball((0.0,), 2.0))
    big = GridFunction.constant(spec1d, 5.0)
    with pytest.raises(ValueError, match="hypothesis violated"):
        exp_class_product_bound(big, psi, ball)
    with pytest.raises(ValueError, match="vanishes"):
        exp_class_product_bound(zero, zero, ball)


def test_exp_class_constant_oracle(spec1d):
    ball = Ball((0.0,), 0.5)
    # leave O(spacing) headroom: the quadrature measure of the unit ball
    # overshoots 1 slightly, and the hypothesis is checked with it
    level = math.log(2.0) * 0.9
    b = GridFunction.constant(spec1d, level)
    x = meshes(spec1d)[0]
    psi = GridFunction(spec1d, 1.0 + 0.1 * np.sin(x))
    got = exp_class_product_bound(b, psi, ball)
    prod = b.with_values(b.values * psi.values)
    from hardylab.grid import integrate

    expect = luxembourg_scan_oracle(prod, PHI, ball) / integrate(
        psi.with_values(np.abs(psi.values)), ball
    )
    assert got == pytest.approx(expect, rel=1e-6)


def test_verify_split_empty(spec1d):
    decomp = AtomicDecomposition(p=1.0, terms=())
    b = GridFunction.constant(spec1d, 1.0)
    split = split_bmo(b, decomp)
    report = verify_split(split, b, decomp)
    assert report.norm_h1_L1 == 0.0
    assert report.norm_h2_target == 0.0
    assert report.C1 == 0.0 and report.C2 == 0.0


def test_verify_split_report_fields(spec1d, rng):
    decomp = random_decomposition(spec1d, rng, p=1.0, s=0)
    b = b_field(spec1d, "random-bmo", rng)
    split = split_bmo(b, decomp)
    report = verify_split(split, b, decomp)
    assert report.regime == REGIMES["p1"].name == "p1_bmo"
    assert report.C1 >= 0 and np.isfinite(report.C1)
    assert report.C2 >= 0 and np.isfinite(report.C2)
    row = report.to_csv_row()
    assert len(row) == len(dataclasses.fields(report))


def test_verify_split_local_regimes(spec1d, rng):
    decomp = random_decomposition(spec1d, rng, p=1.0, s=0, local=True)
    b = b_field(spec1d, "random-bmo", rng)
    split = split_bmo(b, decomp, local=True)
    assert split.regime.local
    report = verify_split(split, b, decomp)
    assert np.isfinite(report.C2)


def test_pointwise_maximal_domination(spec1d, rng):
    """M h2 is dominated by the weighted sum of per-atom maximal functions."""
    from hardylab.maximal import maximal_fn

    decomp = random_decomposition(spec1d, rng, p=1.0, s=0, n_atoms=3)
    b = random_smooth_field(spec1d, rng)
    split = split_bmo(b, decomp)
    bound = np.zeros(spec1d.shape)
    for lam, atom in decomp.terms:
        m = ball_mean(b, atom.ball)
        bound += abs(lam) * abs(m) * maximal_fn(atom.values).values
    lhs = maximal_fn(split.h2).values
    assert np.all(lhs <= bound + 1e-9 * np.max(bound, initial=1.0))


def test_ratio_of_an_overflowing_denominator():
    """C = num / (scale * weight), 0 / 0 read as 0: a product beyond float range
    (b_scale 6.8e307 of a field near the float maximum) divides num one factor
    at a time, where num / inf would report C = 0."""
    num, scale, weight = 1.6e307, 6.8e307, 3.27
    assert product._ratio(num, scale, weight) == num / scale / weight > 0.0
    assert product._ratio(1.0, 2.0, 3.0) == 1.0 / (2.0 * 3.0)
    assert product._ratio(0.0, 0.0, 3.0) == 0.0
    assert product._ratio(1.0, 0.0, 3.0) == math.inf
