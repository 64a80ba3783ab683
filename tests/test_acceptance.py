"""Acceptance gate: one test per published guarantee, one verdict line each.

Each test registers a pass/fail line through conftest.record_criterion before
asserting, so the summary block always lists every criterion even when one of
them fails.  Seeds and grid sizes are fixed; the whole module is deterministic.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from hardylab.atoms import (
    make_atom,
    moment_residuals,
    moment_tolerance,
    synthesize,
    validate_atom,
)
from hardylab.generators import (
    _random_modulation,
    b_field,
    random_ball,
    random_decomposition,
    random_smooth_field,
)
from hardylab.grid import Ball, GridFunction, GridSpec, ball_mean, integrate, lp_norm
from hardylab.lipschitz import LipschitzOrder, difference_op, lambda_gamma_norm
from hardylab.maximal import maximal_fn
from hardylab.orlicz import PHI, luxembourg_norm
from hardylab.oscillation import bmo_local_norm, jn_check
from hardylab.product import (
    duality_identity_check,
    exp_class_product_bound,
    pairing_limit_check,
    split_bmo,
    split_lipschitz,
    verify_split,
)
from hardylab.projection import campanato_ratio, poly_project, projection_sup_ratio
from scalar_oracles import LINEAR, luxembourg_scan_oracle, meshes


def _spread(values) -> tuple[float, float]:
    """(min/median, max/median) of a positive sample."""
    arr = np.asarray(values, dtype=float)
    med = float(np.median(arr))
    return float(arr.min() / med), float(arr.max() / med)


def test_criterion_01_reconstruction_identity():
    """h1 + h2 reproduces b * synthesize(decomp) bitwise, all four regimes.

    h2 is stored as the complement prod - h1, so recomputing the product with
    the same expression and summation order must match it bit for bit; the
    naive float sum h1 + h2 is additionally held to a one-ulp envelope.
    """
    spec = GridSpec(1, 8.0, 1025)
    rng = np.random.default_rng(12)
    t0 = time.time()
    mismatches = 0
    ulp_worst = 0.0
    for i in range(200):
        regime = i % 4
        if regime in (0, 1):
            b = b_field(spec, "random-bmo", rng)
            decomp = random_decomposition(spec, rng, p=1.0, s=0, local=(regime == 1))
            split = split_bmo(b, decomp, local=(regime == 1))
        elif regime == 2:
            b = b_field(spec, "random-lipschitz", rng, gamma=0.25, levels=6)
            decomp = random_decomposition(spec, rng, p=0.8, s=0)
            split = split_lipschitz(b, decomp)
        else:
            b = b_field(spec, "random-lipschitz", rng, gamma=1.5, levels=6)
            decomp = random_decomposition(spec, rng, p=0.4, s=2)
            split = split_lipschitz(b, decomp)
        prod = b.values * synthesize(decomp, spec).values
        if not np.array_equal(prod - split.h1.values, split.h2.values):
            mismatches += 1
        recon = split.h1.values + split.h2.values
        scale = np.maximum.reduce(
            [np.abs(prod), np.abs(split.h1.values), np.abs(split.h2.values)]
        )
        dev = np.abs(recon - prod)
        ulps = np.where(dev > 0, dev / np.spacing(np.maximum(scale, 1e-300)), 0.0)
        ulp_worst = max(ulp_worst, float(ulps.max()))
    elapsed = time.time() - t0
    ok = mismatches == 0 and ulp_worst <= 2.0 and elapsed <= 120.0
    record_criterion(
        1,
        "reconstruction identity",
        ok,
        f"200 draws, {mismatches} bitwise mismatches, "
        f"naive sum within {ulp_worst:.1f} ulp, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert ulp_worst <= 2.0
    assert elapsed <= 120.0


def test_criterion_02_quasi_subadditivity():
    spec = GridSpec(1, 8.0, 257)
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = 0.0
    for i in range(500):
        kind_f = ("random-smooth", "random-bmo")[i % 2]
        kind_g = ("random-bmo", "random-smooth")[i % 2]
        f = b_field(spec, kind_f, rng)
        g = b_field(spec, kind_g, rng)
        both = luxembourg_norm(f.with_values(f.values + g.values), PHI)
        parts = luxembourg_norm(f, PHI) + luxembourg_norm(g, PHI)
        worst = max(worst, both / parts)
    elapsed = time.time() - t0
    ok = worst <= 4.0 and elapsed <= 60.0
    record_criterion(
        2,
        "quasi-subadditivity",
        ok,
        f"500 pairs, worst ratio {worst:.3f} (soft cap 4, hard cap 8), {elapsed:.1f}s",
    )
    assert worst <= 8.0, "hard failure: quasi-triangle constant exceeded 8"
    assert worst <= 4.0
    assert elapsed <= 60.0


def test_criterion_03_luxembourg_correctness():
    spec = GridSpec(1, 8.0, 257)
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    for i in range(100):
        kind = ("random-smooth", "random-bmo", "random-lipschitz")[i % 3]
        params = {"gamma": 0.5} if kind == "random-lipschitz" else {}
        f = b_field(spec, kind, rng, **params)
        bisect = luxembourg_norm(f, PHI)
        scan = luxembourg_scan_oracle(f, PHI)
        worst_rel = max(worst_rel, abs(bisect - scan) / scan)
    worst_l1 = 0.0
    for _ in range(20):
        f = random_smooth_field(spec, rng)
        lux = luxembourg_norm(f, LINEAR)
        l1 = lp_norm(f, 1.0)
        worst_l1 = max(worst_l1, abs(lux - l1) / l1)
    ok = worst_rel <= 1e-6 and worst_l1 <= 1e-9
    record_criterion(
        3,
        "Luxembourg norm correctness",
        ok,
        f"scan-oracle rel dev {worst_rel:.2e}, linear-case L1 dev {worst_l1:.2e}",
    )
    assert worst_rel <= 1e-6
    assert worst_l1 <= 1e-9


def test_criterion_04_atom_machinery():
    spec = GridSpec(1, 8.0, 513)
    rng = np.random.default_rng(11)
    all_valid = True
    failures = []
    for radius in (0.5, 1.0, 2.0, 4.0):
        for p in (0.4, 0.6, 0.8, 1.0):
            for s in (0, 1, 2):
                ball = Ball((float(rng.uniform(-2, 2)),), radius)
                atom = make_atom(ball, p, s, spec, modulate=_random_modulation(rng))
                report = validate_atom(atom)
                if not report.passed:
                    all_valid = False
                    failures.append((radius, p, s, report.failures))
                for alpha, res in report.moment_residuals.items():
                    if abs(res) > report.moment_slacks[alpha]:
                        all_valid = False
    # dilation covariance: doubling the ball and the box with the same node
    # layout scales the sup norm by exactly 2^(-1/p) in one dimension
    worst_cov = 0.0
    spec2 = GridSpec(1, 16.0, 513)
    for p in (0.4, 0.6, 0.8, 1.0):
        a1 = make_atom(Ball((0.0,), 1.0), p, 1, spec)
        a2 = make_atom(Ball((0.0,), 2.0), p, 1, spec2)
        sup1 = float(np.max(np.abs(a1.values.values)))
        sup2 = float(np.max(np.abs(a2.values.values)))
        worst_cov = max(worst_cov, abs(sup2 / sup1 - 2.0 ** (-1.0 / p)) * 2.0 ** (1.0 / p))
    ok = all_valid and worst_cov <= 1e-6
    record_criterion(
        4,
        "atom construction sweep",
        ok,
        f"48 (radius, p, s) combos valid, dilation covariance dev {worst_cov:.2e}",
    )
    assert all_valid, f"atom validation failures: {failures}"
    assert worst_cov <= 1e-6


def test_criterion_05_uniform_maximal_atom_constant():
    spec = GridSpec(1, 8.0, 513)
    rng = np.random.default_rng(2201)
    radii = (0.5, 1.0, 2.0)
    norms = []
    for i in range(50):
        r = radii[i % 3]
        free = spec.halfwidth - r
        c = float(rng.uniform(-free, free))
        atom = make_atom(Ball((c,), r), 1.0, 0, spec, modulate=_random_modulation(rng))
        norms.append(lp_norm(maximal_fn(atom.values), 1.0))
    lo, hi = _spread(norms)
    ok = lo >= 0.8 and hi <= 1.2
    record_criterion(
        5,
        "uniform maximal-atom constant",
        ok,
        f"50 atoms over 3 scales, spread [{lo:.3f}, {hi:.3f}] of median (cap 0.8..1.2)",
    )
    assert ok, f"spread {lo:.3f}..{hi:.3f} leaves the +-20% band"


def test_criterion_06_campanato_estimate():
    spec = GridSpec(1, 8.0, 513)
    x = meshes(spec)[0]
    details = []
    ok = True
    for gamma in (0.3, 0.5, 1.0, 1.5):
        order = LipschitzOrder(gamma)
        rng = np.random.default_rng(4000)
        corpus = []
        for i in range(20):
            if i % 2 == 0:
                amp = float(rng.uniform(0.5, 2.0))
                slope = float(rng.normal(0, 0.1))
                corpus.append(GridFunction(spec, amp * np.abs(x) ** gamma + slope * x))
            else:
                corpus.append(b_field(spec, "random-lipschitz", rng, gamma=gamma))
        norms = [lambda_gamma_norm(f, order) for f in corpus]
        constants = []
        for r in (0.5, 1.0, 2.0, 4.0):
            ball = Ball((0.0,), r)
            constants.append(
                max(
                    campanato_ratio(f, ball, order, lambda_norm=n)
                    for f, n in zip(corpus, norms)
                )
            )
        lo, hi = _spread(constants)
        if lo < 0.75 or hi > 1.25:
            ok = False
        details.append(f"g={gamma}: [{lo:.2f},{hi:.2f}]")
    record_criterion(
        6,
        "Campanato-ratio stability",
        ok,
        "spread across 4 dyadic radii, 20-fn corpus: " + ", ".join(details),
    )
    assert ok, "measured Campanato constant left the +-25% band: " + ", ".join(details)


def _projection_corpus_max(m: int, k: int, seed: int) -> float:
    spec = GridSpec(1, 8.0, m)
    rng = np.random.default_rng(seed)
    best = 0.0
    kinds = ("random-smooth", "random-bmo", "random-lipschitz")
    for i in range(50):
        kind = kinds[i % 3]
        params = {"gamma": 0.5} if kind == "random-lipschitz" else {}
        f = b_field(spec, kind, rng, **params)
        ball = random_ball(spec, rng, (0.5, 4.0))
        best = max(best, projection_sup_ratio(f, ball, k))
    return best


def test_criterion_07_projection_lemma():
    # invariance under joint lattice translation and exact dilation
    spec = GridSpec(1, 8.0, 257)
    rng = np.random.default_rng(7)
    f = random_smooth_field(spec, rng)
    ball = Ball((-1.5,), 1.0)
    worst_inv = 0.0
    for k in (0, 1, 2):
        base = projection_sup_ratio(f, ball, k)
        shift = 24
        shifted = np.zeros(spec.shape)
        shifted[shift:] = f.values[:-shift]
        trans = projection_sup_ratio(
            GridFunction(spec, shifted), Ball((-1.5 + shift * spec.spacing,), 1.0), k
        )
        spec2 = GridSpec(1, 16.0, 257)
        dil = projection_sup_ratio(GridFunction(spec2, f.values), Ball((-3.0,), 2.0), k)
        worst_inv = max(worst_inv, abs(trans - base) / base, abs(dil - base) / base)
    # corpus max defines C_k; refinement m -> 2m must keep it within +-10%
    worst_ref = 0.0
    ratios = []
    for k in (0, 1, 2):
        coarse = _projection_corpus_max(257, k, 901)
        fine = _projection_corpus_max(513, k, 901)
        ratios.append(fine / coarse)
        worst_ref = max(worst_ref, abs(fine / coarse - 1.0))
    ok = worst_inv <= 1e-6 and worst_ref <= 0.10
    record_criterion(
        7,
        "projection sup-ratio stability",
        ok,
        f"invariance dev {worst_inv:.2e}, refinement ratios "
        + ", ".join(f"{r:.3f}" for r in ratios),
    )
    assert worst_inv <= 1e-6
    assert worst_ref <= 0.10


def _p1_campaign(m: int, seed: int, draws: int = 50):
    spec = GridSpec(1, 8.0, m)
    rng = np.random.default_rng(seed)
    c1s, c2s = [], []
    for i in range(draws):
        if i % 10 == 0:
            b = b_field(spec, "constant", rng, value=2.0)
        else:
            b = b_field(spec, "random-bmo", rng)
        decomp = random_decomposition(spec, rng, p=1.0, s=0)
        split = split_bmo(b, decomp)
        report = verify_split(split, b, decomp)
        c1s.append(report.C1)
        c2s.append(report.C2)
    return c1s, c2s


def test_criterion_08_p1_split():
    c1_coarse, c2_coarse = _p1_campaign(257, 31)
    c1_fine, c2_fine = _p1_campaign(513, 31)
    finite = all(map(math.isfinite, c1_coarse + c2_coarse + c1_fine + c2_fine))
    r1 = max(c1_fine) / max(c1_coarse)
    r2 = max(c2_fine) / max(c2_coarse)
    const_zero = all(c1_coarse[i] == 0.0 for i in range(0, 50, 10)) and all(
        c1_fine[i] == 0.0 for i in range(0, 50, 10)
    )
    ok = finite and 0.75 <= r1 <= 1.25 and 0.75 <= r2 <= 1.25 and const_zero
    record_criterion(
        8,
        "p=1 product split",
        ok,
        f"50 draws, maxC1 ratio {r1:.3f}, maxC2 ratio {r2:.3f}, "
        f"constant-b C1==0: {const_zero}",
    )
    assert finite
    assert 0.75 <= r1 <= 1.25 and 0.75 <= r2 <= 1.25
    assert const_zero


def _p_lt1_campaign(m: int, seed: int, p: float, s: int, draws: int = 50):
    spec = GridSpec(1, 8.0, m)
    gamma = 1.0 / p - 1.0
    order = LipschitzOrder(gamma)
    rng = np.random.default_rng(seed)
    c1s, c2s = [], []
    worst_moment = 0.0
    for _ in range(draws):
        b = b_field(spec, "random-lipschitz", rng, gamma=gamma, levels=6)
        decomp = random_decomposition(spec, rng, p=p, s=s)
        split = split_lipschitz(b, decomp)
        report = verify_split(split, b, decomp)
        c1s.append(report.C1)
        c2s.append(report.C2)
        # the moments of each subtracted part m_j * a_j, with m_j derived
        # through the calls the split makes
        for _, atom in decomp.terms:
            if split.regime.kind == "mean":
                m = ball_mean(b, atom.ball)
            else:
                m = poly_project(b, atom.ball, order.k).as_gridfunction(spec).values
            term = atom.values.with_values(m * atom.values.values)
            residuals = moment_residuals(term, atom.ball, order.k)
            sup = float(np.max(np.abs(term.values)))
            for alpha, res in residuals.items():
                tol = moment_tolerance(sup, atom.ball, sum(alpha))
                if tol > 0:
                    worst_moment = max(worst_moment, abs(res) / tol)
    return c1s, c2s, worst_moment


def test_criterion_09_p_lt1_splits():
    ok = True
    details = []
    for p, s in ((0.8, 0), (0.4, 2)):
        c1a, c2a, wa = _p_lt1_campaign(257, 77, p, s)
        c1b, c2b, wb = _p_lt1_campaign(513, 77, p, s)
        finite = all(map(math.isfinite, c1a + c2a + c1b + c2b))
        r1 = max(c1b) / max(c1a)
        r2 = max(c2b) / max(c2a)
        moments = max(wa, wb) <= 1.0
        if not (finite and moments and 0.75 <= r1 <= 1.25 and 0.75 <= r2 <= 1.25):
            ok = False
        details.append(
            f"p={p}: C1 ratio {r1:.3f}, C2 ratio {r2:.3f}, "
            f"h2 moments at {max(wa, wb):.1e} of tolerance"
        )
    record_criterion(9, "p<1 product splits", ok, "; ".join(details))
    assert ok, "; ".join(details)


def _admissible_exp_field(spec: GridSpec, rng) -> tuple[GridFunction, Ball]:
    """Smooth field scaled so the exp integral over a unit ball stays below 2."""
    g = random_smooth_field(spec, rng)
    ball = Ball((float(rng.uniform(-6, 6)),), 0.5)
    lo, hi = 0.0, 5.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        val = integrate(g.with_values(np.exp(mid * np.abs(g.values))), ball)
        if val <= 1.95:
            lo = mid
        else:
            hi = mid
    return g.with_values(lo * 0.99 * g.values), ball


def _exp_class_campaign(m: int, seed: int) -> tuple[float, bool]:
    spec = GridSpec(1, 8.0, m)
    rng = np.random.default_rng(seed)
    best = 0.0
    jn_ok = True
    for _ in range(30):
        b, ball = _admissible_exp_field(spec, rng)
        psi = random_smooth_field(spec, rng)
        psi = psi.with_values(np.abs(psi.values) + 0.1)
        best = max(best, exp_class_product_bound(b, psi, ball))
        # a large enough c always tames the integral; confirm one exists
        norm = bmo_local_norm(b)
        c = float(np.max(np.abs(b.values))) / norm + 1.0
        if jn_check(b, ball, c, bmo_local=norm) > 2.0:
            jn_ok = False
    return best, jn_ok


def test_criterion_10_exp_class_bound():
    coarse, jn_a = _exp_class_campaign(257, 500)
    fine, jn_b = _exp_class_campaign(513, 500)
    ratio = fine / coarse
    ok = 0.75 <= ratio <= 1.25 and jn_a and jn_b
    record_criterion(
        10,
        "exponential-class product bound",
        ok,
        f"30 triples, measured C {coarse:.4f} -> {fine:.4f} "
        f"(ratio {ratio:.3f}), admissible c found: {jn_a and jn_b}",
    )
    assert 0.75 <= ratio <= 1.25
    assert jn_a and jn_b


def test_criterion_11_pairing_collapse_and_duality():
    spec = GridSpec(1, 8.0, 257)
    rng = np.random.default_rng(303)
    gap_ok = True
    for _ in range(20):
        b = random_smooth_field(spec, rng)
        h = b_field(spec, "random-bmo", rng)
        sup = float(np.max(np.abs(b.values)))
        report = pairing_limit_check(b, h, levels=(sup / 2.0, sup, 2.0 * sup))
        # truncation at or above the sup returns b unchanged, so the gap must
        # collapse to exactly zero, not merely something small
        if report["gaps"][1] != 0.0 or report["gaps"][2] != 0.0:
            gap_ok = False
    worst_dual = 0.0
    for _ in range(100):
        b = b_field(spec, "random-smooth", rng)
        h = b_field(spec, "random-bmo", rng)
        phi_fn = b_field(spec, "random-smooth", rng)
        scale = integrate(
            b.with_values(np.abs(b.values * h.values * phi_fn.values))
        )
        dev = duality_identity_check(b, h, phi_fn)
        worst_dual = max(worst_dual, dev / max(scale, 1e-300))
    ok = gap_ok and worst_dual <= 1e-12
    record_criterion(
        11,
        "pairing collapse and duality",
        ok,
        f"gap exactly 0 at k >= sup|b|: {gap_ok}, duality rel dev {worst_dual:.1e}",
    )
    assert gap_ok
    assert worst_dual <= 1e-12


def test_criterion_12_difference_annihilation():
    spec = GridSpec(1, 8.0, 257)
    rng = np.random.default_rng(606)
    x = meshes(spec)[0]
    worst = 0.0
    for k in (0, 1, 2):
        for d in range(1, 11):
            coeffs = rng.normal(size=k + 1)
            vals = sum(c * x**j for j, c in enumerate(coeffs))
            f = GridFunction(spec, np.asarray(vals, dtype=float))
            out = difference_op(f, (d,), k + 1)
            scale = float(np.max(np.abs(f.values)))
            if out.size:
                worst = max(worst, float(np.max(np.abs(out))) / scale)
    ok = worst <= 1e-10
    record_criterion(
        12,
        "difference operators annihilate polynomials",
        ok,
        f"k in {{0,1,2}}, 10 lattice steps, worst rel residual {worst:.1e}",
    )
    assert worst <= 1e-10
