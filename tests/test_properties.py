"""Property tests over random grids and fields: the unit-cube partition, the
fewest nodes of a ball, the positive homogeneity of the norms, the bmo norm of
constants, exact lattice-translation invariance of the ball statistics,
constants as fixed points of the dilated convolution, the pruned Lipschitz
scan against the full one, the replayed Luxembourg
bisection against the scalar one, the FFT maximal function against the tap
sum, and the product splits
(exact reconstruction, C1 = 0 for constant b).  Examples are
derandomized, so every run checks the same cases.  A last test checks that a
failing property test under the repo's pytest config fails alone and does not
end the session."""

import functools
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hardylab.atoms import synthesize
from hardylab.generators import b_field, random_decomposition
from hardylab.grid import (
    Ball,
    GridFunction,
    GridSpec,
    dyadic_scales,
    fewest_ball_nodes,
    unit_cubes,
)
from hardylab.lipschitz import LipschitzOrder, homogeneous_seminorm, lambda_gamma_norm
from hardylab.maximal import convolve_dilated, maximal_fn
from hardylab.orlicz import PHI, _luxembourg_rows, hardy_quasinorm, lphi_star_norm
from hardylab.oscillation import BallFamily, bmo_local_norm, lmo_norm
from hardylab.product import REGIMES, split_bmo, split_lipschitz, verify_split
from scalar_oracles import (
    family_stats, luxembourg_row, maximal_taps, region_node_count, seminorm_full_scan,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
# a norm example scans a ball family or bisects every unit cube: tens of ms
NORM_PROPERTY = settings(PROPERTY, max_examples=10)


def _specs(halfwidths):
    return st.one_of(
        st.builds(GridSpec, st.just(1), halfwidths, st.integers(16, 257)),
        st.builds(GridSpec, st.just(2), halfwidths, st.integers(16, 33)),
    )


# halfwidth >= 1 keeps balls of measure >= 1 in the family
specs = _specs(st.floats(1.0, 8.0))
kinds = st.sampled_from(["random-smooth", "step", "random-bmo"])
seeds = st.integers(0, 2**32 - 1)
fields = st.tuples(kinds, seeds)
scales = st.floats(-1e3, 1e3).filter(lambda lam: abs(lam) >= 1e-3)
local_hardy = functools.partial(hardy_quasinorm, p=1.0, local=True)


@PROPERTY
@given(_specs(st.floats(0.1, 20.0)))
# cube indices beyond 2^63 stay exact: they are not cast to int64 (2d grids
# end where (4 * halfwidth)^2 overflows, near halfwidth 3e153)
@example(GridSpec(1, 1e19, 17))
@example(GridSpec(2, 1e150, 17))
def test_unit_cubes_partition_nodes(spec):
    hits = np.zeros(spec.shape, dtype=int)
    for j, box in unit_cubes(spec).items():
        hits[box] += 1
        for ji, s in zip(j, box):
            assert np.all(np.floor(spec.axis()[s] + 0.5) == ji)
    assert np.all(hits == 1)


@NORM_PROPERTY
@given(specs, fields, scales)
@pytest.mark.parametrize(
    "norm, rel",
    [
        (lphi_star_norm, 1e-8),
        (bmo_local_norm, 1e-9),
        (lmo_norm, 1e-9),
        pytest.param(functools.partial(hardy_quasinorm, p=0.5), 1e-9, id="hardy_p0.5"),
        pytest.param(local_hardy, 1e-9, id="hardy_p1_local"),
        pytest.param(
            functools.partial(lambda_gamma_norm, order=LipschitzOrder(0.5)), 1e-9, id="lambda_0.5"
        ),
        pytest.param(
            functools.partial(lambda_gamma_norm, order=LipschitzOrder(1.5)), 1e-9, id="lambda_1.5"
        ),
    ],
)
def test_positive_homogeneity(norm, rel, spec, field, lam):
    # the local ladder, scales in [2 * spacing, 1/2], is empty on coarser grids
    assume(norm is not local_hardy or spec.spacing <= 0.25)
    kind, seed = field
    f = b_field(spec, kind, np.random.default_rng(seed))
    assert norm(f.with_values(lam * f.values)) == pytest.approx(abs(lam) * norm(f), rel=rel)


@NORM_PROPERTY
@given(specs, st.floats(-1e6, 1e6))
def test_bmo_local_of_constant(spec, c):
    assert bmo_local_norm(b_field(spec, "constant", None, value=c)) == abs(c)


@NORM_PROPERTY
@given(
    st.one_of(
        st.builds(GridSpec, st.just(1), st.floats(1.0, 8.0), st.integers(33, 257)),
        st.builds(GridSpec, st.just(2), st.floats(1.0, 8.0), st.integers(33, 49)),
    ),
    st.integers(0, 2**32 - 1),
    st.integers(0, 1),
    st.integers(1, 8),
)
def test_family_rows_are_lattice_translation_invariant(spec, seed, axis, nodes):
    """A field moved by whole nodes along an axis has, on each family ball moved
    with it, the batched row of the original ball, bit for bit.  Both balls hold
    interior nodes only, so their windows carry the same weights."""
    axis %= spec.dim
    m = spec.points_per_axis
    vals = np.zeros(spec.shape)
    inner = (slice(1, m - 1 - nodes),) * spec.dim  # room to move, away from the edge
    vals[inner] = np.random.default_rng(seed).normal(size=vals[inner].shape)
    family = BallFamily.build(spec)
    before = family_stats(GridFunction(spec, vals), family)
    after = family_stats(GridFunction(spec, np.roll(vals, nodes, axis=axis)), family)
    ball_at = {}  # (window start, window shape) -> a family ball with that window
    for i, (start, shape) in enumerate(zip(family.starts.tolist(), family.shapes.tolist())):
        ball_at[(tuple(start), tuple(shape))] = i
    move = np.eye(spec.dim, dtype=int)[axis] * nodes
    pairs = []
    for (start, shape), i in ball_at.items():
        moved = tuple(np.add(start, move).tolist())
        interior = min(start) >= 1 and max(np.add(moved, shape)) <= m - 1
        if interior and (moved, shape) in ball_at:
            pairs.append((i, ball_at[(moved, shape)]))
    assert pairs
    i, j = np.array(pairs).T
    assert np.array_equal(after[j], before[i])


@PROPERTY
@given(specs, st.floats(-1e6, 1e6).filter(lambda c: c != 0))
def test_convolution_fixes_constants(spec, c):
    """Nodes farther than t from the boundary see the whole kernel, of mass 1."""
    f = b_field(spec, "constant", None, value=c)
    for t in dyadic_scales(2.0 * spec.spacing, 2.0 * spec.halfwidth):
        inside = np.all([np.abs(x) < spec.halfwidth - t for x in spec.meshes()], axis=0)
        out = convolve_dilated(f, t).values[inside]
        assert np.all(np.abs(out - c) <= 1e-12 * abs(c))


@NORM_PROPERTY
@given(specs, fields, st.booleans())
def test_fft_maximal_matches_tap_sum(spec, field, local):
    """Either ladder through numpy.fft is the tap-sum maximal function up to
    1e-13 of its maximum, with the same exact zeros."""
    # the local ladder, scales in [2 * spacing, 1/2], is empty on coarser grids
    assume(not local or spec.spacing <= 0.25)
    kind, seed = field
    f = b_field(spec, kind, np.random.default_rng(seed))
    oracle = maximal_taps(f, local).values
    out = maximal_fn(f, local).values
    assert np.max(np.abs(out - oracle)) <= 1e-13 * np.max(oracle, initial=0.0)
    assert np.array_equal(out == 0.0, oracle == 0.0)


@settings(PROPERTY, max_examples=60)
@given(
    st.one_of(
        st.builds(GridSpec, st.just(1), st.floats(1.0, 8.0), st.integers(16, 64)),
        st.builds(GridSpec, st.just(2), st.floats(1.0, 8.0), st.integers(16, 24)),
    ),
    st.floats(0.0, 4.0, exclude_min=True, exclude_max=True),
    st.tuples(st.sampled_from(["random-smooth", "step", "random-bmo", "regularized-log"]), seeds),
    st.sampled_from([1e-150, 1.0, 1e150]),
)
def test_seminorm_matches_full_scan(spec, gamma, field, scale):
    """The pruned Lipschitz scan (cap and chain bound) gives the full raster
    scan's float, for every order below 4 and fields far from unit size."""
    order = LipschitzOrder(gamma)
    assume(order.fits(spec))
    kind, seed = field
    f = b_field(spec, kind, np.random.default_rng(seed))
    f = f.with_values(scale * f.values)
    assert homogeneous_seminorm(f, order) == seminorm_full_scan(f, order)


# |values| from 1e-200 to 1e200, a third of them zero, and positive weights
_row_values = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-200, 199)),
)
_blocks = st.integers(1, 30).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.lists(_row_values, min_size=n, max_size=n),
            st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
        ),
        min_size=1,
        max_size=4,
    )
)


@settings(PROPERTY, max_examples=100)
@given(st.lists(_blocks, min_size=1, max_size=3))
def test_luxembourg_rows_match_scalar_bisection(blocks):
    """The replayed lockstep bisection gives each row of each block the scalar
    bisection's norm, bit for bit."""
    blocks = [tuple(np.array(side) for side in zip(*rows)) for rows in blocks]
    oracle = [luxembourg_row(*row, PHI) for v, w in blocks for row in zip(v, w)]
    assert _luxembourg_rows(blocks, PHI).tolist() == oracle


@PROPERTY
@given(specs, st.integers(1, 64))
def test_fewest_ball_nodes_is_the_minimum_over_centres(spec, eighths):
    """No in-box ball of the radius holds fewer nodes, and some placement holds that few.

    The node count is periodic in the centre with period one grid step, and the
    radius, a multiple of spacing/8, leaves each count on an interval of at least
    spacing/4, so 41 centres across one step see both counts.
    """
    radius = eighths * spec.spacing / 8.0
    free = spec.halfwidth - radius
    assume(free >= spec.spacing)
    counts = []
    for c in -free + spec.spacing * np.linspace(0.0, 1.0, 41):
        try:
            counts.append(region_node_count(spec, Ball((c,) * spec.dim, radius)))
        except ValueError:  # a ball narrower than a step can miss every node
            counts.append(0)
    assert min(counts) == fewest_ball_nodes(spec, radius)


# a split example draws four atoms on a small grid; a verify_split example also
# measures b and h2 (a ball-family scan or a difference scan, and a maximal function)
SPLIT_PROPERTY = settings(PROPERTY, max_examples=4)
split_specs = st.sampled_from([GridSpec(1, 8.0, 129), GridSpec(2, 4.0, 33)])


def _split(b, p, rng):
    """A random decomposition at p, with the moments its regime needs, and its split of b."""
    s = 0 if p == 1.0 else LipschitzOrder.dual_to(p, b.spec.dim).min_atom_s
    decomp = random_decomposition(b.spec, rng, p=p, s=s)
    return decomp, (split_bmo if p == 1.0 else split_lipschitz)(b, decomp)


@SPLIT_PROPERTY
@given(split_specs, kinds, seeds)
@pytest.mark.parametrize("p, regime", [(1.0, "p1"), (0.8, "mean"), (0.4, "projection")])
def test_split_h2_is_the_exact_complement(p, regime, spec, kind, seed):
    """h2 is b * h - h1 bit for bit."""
    rng = np.random.default_rng(seed)
    b = b_field(spec, kind, rng)
    decomp, split = _split(b, p, rng)
    assert split.regime == REGIMES[regime]
    assert np.array_equal(split.h2.values, b.values * synthesize(decomp).values - split.h1.values)


@SPLIT_PROPERTY
@given(split_specs, st.floats(-1e3, 1e3), seeds)
@pytest.mark.parametrize("p", [1.0, 0.8])
def test_constant_b_gives_zero_c1(p, spec, c, seed):
    """A constant b is its own mean on every ball, so h1 and C1 vanish."""
    b = b_field(spec, "constant", None, value=c)
    decomp, split = _split(b, p, np.random.default_rng(seed))
    assert verify_split(split, b, decomp).C1 == 0.0


FAILING_PROPERTY_MODULE = textwrap.dedent("""
    from hypothesis import given, settings, strategies as st


    @settings(database=None, derandomize=True)
    @given(st.integers())
    def test_fails(n):
        assert n < 10


    def test_passes():
        pass
""")


def test_failing_property_does_not_end_the_session(tmp_path):
    """hypothesis explains a failing example, and the repo's warning filters
    still let it: the session reports the failure and runs the next test."""
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY_MODULE)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert done.returncode == 1
