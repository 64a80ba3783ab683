"""Property tests over random grids and fields: the unit-cube partition, the
positive homogeneity of the cube-summed and family norms, and the bmo norm of
constants.  Examples are derandomized, so every run checks the same cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.generators import b_field
from hardylab.grid import GridSpec, unit_cubes
from hardylab.orlicz import lphi_star_norm
from hardylab.oscillation import bmo_local_norm, lmo_norm

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
fields = st.tuples(kinds, st.integers(0, 2**32 - 1))
scales = st.floats(-1e3, 1e3).filter(lambda lam: abs(lam) >= 1e-3)


@PROPERTY
@given(_specs(st.floats(0.1, 20.0)))
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
    "norm, rel", [(lphi_star_norm, 1e-8), (bmo_local_norm, 1e-9), (lmo_norm, 1e-9)]
)
def test_positive_homogeneity(norm, rel, spec, field, lam):
    kind, seed = field
    f = b_field(spec, kind, np.random.default_rng(seed))
    assert norm(f.with_values(lam * f.values)) == pytest.approx(abs(lam) * norm(f), rel=rel)


@NORM_PROPERTY
@given(specs, st.floats(-1e6, 1e6))
def test_bmo_local_of_constant(spec, c):
    assert bmo_local_norm(b_field(spec, "constant", None, value=c)) == abs(c)
