"""The automorphism rule of `AmbientCase` against the per-family branches.

`involutions_reference` keeps the code that branched on flip versus
symmetric quadrics; here both are run on the same cases and weights.
"""

import functools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from smt_kit import extend as X, involutions as I

import involutions_reference as R

CASES = ("flip-sl2", "flip-sl3", "flip-sl4", "flip-sp4", "flip-sp6",
         "flip-so-odd5", "flip-so-odd7", "sym-quadrics2", "sym-quadrics3",
         "sym-quadrics5")

@functools.cache
def _case(name):
    return I.AmbientCase(name)


# integral or half-integral coordinates, delta in 1/2 Z
halves = st.integers(-8, 8).map(lambda k: Q(k, 2))
integers = st.integers(-4, 4).map(Q)


def ambient_weights(case):
    n = case.amb.real.n
    coords = st.one_of(st.lists(integers, min_size=n, max_size=n),
                       st.lists(halves, min_size=n, max_size=n))
    return st.builds(case.amb.real.weight, coords, halves)


@pytest.mark.parametrize("name", CASES)
def test_nodes_base_and_weight_map_match_reference(name):
    case = _case(name)
    assert case.base == R.base_gcm(case)
    assert case.record.weight_map == R.weight_map(case)
    for i in range(case.rank + 1):
        assert case.preimage_nodes(i) == R.preimage_nodes(case, i)


@pytest.mark.parametrize("name", CASES)
def test_weight_map_splits_to_the_tier_basis(name):
    # eps_i embedded in the extension splits to e_eps_i on nodes 1..l; the
    # node-0 coordinate is the pairing with the node-0 coroot, so the
    # comparison on the whole weight goes through the split normal form
    case = _case(name)
    for i in range(1, case.rank + 1):
        s = case.split_to_tier(case.eps_ambient_ext(i))
        assert s.coords[1:] == case.tier.e_eps(i).coords[1:]
        nf = X.split_normal_form(case.tier, s)
        assert nf.eps_coords == tuple(Q(int(j == i)) for j in range(case.rank + 1))
        assert nf.delta == 0


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sigma_and_split_match_reference(name, data):
    case = _case(name)
    v = data.draw(ambient_weights(case))
    assert case.sigma(v) == R.sigma(case, v)
    assert case.sigma(case.sigma(v)) == v
    assert case.split_to_tier(v) == R.split_to_tier(case, v)
