"""The automorphism rule of `AmbientCase` against the per-family branches,
and its integer kernels against the `WeightVec` code they replaced.

`involutions_reference` keeps the code that branched on flip versus
symmetric quadrics; here both are run on the same cases and weights.  The
split map and the reflection-lift check run on integer vectors and
`dim_eps_sum` on the integer rows of the weight map: they are compared with
the reference split, with the Fraction Weyl dimension of the reference
`restricted_to_ambient` weight, and, for the lift check, shown to refuse a
wrong lift.  The memoised `tau_lift` is compared with a freshly reduced
w_Delta tau_hat_lift.  The lift rule (a tier word lifts letter by letter,
each reflection lift built once per case) is compared with the telescoping
recursion it replaced, and checked to intertwine the split map.
"""

import functools
import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from smt_kit import extend as X, involutions as I, weyl as W

import cartan_reference as CR
import involutions_reference as R

CASES = ("flip-sl2", "flip-sl3", "flip-sl4", "flip-sp4", "flip-sp6",
         "flip-so-odd5", "flip-so-odd7", "sym-quadrics2", "sym-quadrics3",
         "sym-quadrics5")

@functools.cache
def _case(name):
    return I.AmbientCase(name)


# integral or half-integral coordinates, delta in 1/2 Z
halves = st.integers(-8, 8).map(lambda k: Q(k, 2))
nonzero_halves = halves.filter(bool)
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
        assert case.fibres[i] == R.preimage_nodes(case, i)


@pytest.mark.parametrize("name", CASES)
def test_weight_map_splits_to_the_tier_basis(name):
    # eps_i embedded in the extension splits to e_eps_i on nodes 1..l; the
    # node-0 coordinate is the pairing with the node-0 coroot, so the
    # comparison on the whole weight goes through the split normal form
    case = _case(name)
    for i in range(1, case.rank + 1):
        s = case.split_to_tier(R.eps_ambient_ext(case, i))
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
    assert R.automorphism_sigma(case, v) == R.sigma(case, v)
    assert R.automorphism_sigma(case, R.automorphism_sigma(case, v)) == v
    assert case.split_to_tier(v) == R.split_to_tier(case, v)
    # the integer split keeps a nonzero delta as it is
    w = case.amb.real.weight(v.coords, data.draw(nonzero_halves))
    assert case.split_to_tier(w) == R.split_to_tier(case, w)
    assert case.split_to_tier(w).delta == w.delta


# one case of each implemented row: flip-sl, flip-sp, flip-so-odd, sym-quadrics
ROWS = ("flip-sl3", "flip-sp4", "flip-so-odd5", "sym-quadrics3")


@pytest.mark.parametrize("name", CASES)
def test_dim_eps_sum_matches_the_fraction_weyl_dim(name):
    """Every multiset of eps indices up to degree 3."""
    case = _case(name)
    for degree in range(4):
        for indices in itertools.combinations_with_replacement(range(1, case.rank + 1), degree):
            coeffs = [indices.count(i) for i in range(1, case.rank + 1)]
            want = CR.weyl_dim(case.base, R.restricted_to_ambient(case.record, coeffs))
            assert case.dim_eps_sum(indices) == want, indices


@pytest.mark.parametrize("name", ROWS)
def test_reflection_lift_check_refuses_a_wrong_lift(name, monkeypatch):
    """The identity, and on a flip the longest element on one node of the
    fibre only, must fail the integer check of `reflection_lift`."""
    case = I.AmbientCase(name)
    assert all(case.reflection_lift(i) for i in range(case.rank + 1))
    monkeypatch.setattr(I, "longest_parabolic", lambda real, nodes: W.WeylWord(real, ()))
    for i in range(case.rank + 1):
        with pytest.raises(AssertionError, match="lifted reflection does not restrict"):
            case.reflection_lift(i)
    if name.startswith("flip"):
        monkeypatch.setattr(I, "longest_parabolic",
                            lambda real, nodes: W.longest_parabolic(real, tuple(nodes)[:1]))
        for i in range(1, case.rank + 1):
            with pytest.raises(AssertionError, match="lifted reflection does not restrict"):
                case.reflection_lift(i)


@pytest.mark.parametrize("name", CASES)
def test_tau_lift_is_the_reduced_product(name):
    case = I.AmbientCase(name)
    real = case.amb.real
    w_delta = W.longest_parabolic(real, range(1, real.n))
    for m in range(case.rank + 1):
        fresh = (w_delta * case.tau_hat_lift(m)).reduce()
        assert case.tau_lift(m).letters == fresh
        assert case.tau_lift(m) is case.tau_lift(m)


@pytest.mark.parametrize("name", ("flip-sp4", "flip-sp6", "flip-so-odd7"))
def test_each_reflection_lift_is_built_once(name, monkeypatch):
    calls = {}
    build = I.AmbientCase.reflection_lift

    def counted(self, i):
        calls[i] = calls.get(i, 0) + 1
        return build(self, i)

    monkeypatch.setattr(I.AmbientCase, "reflection_lift", counted)
    case = I.AmbientCase(name)
    for m in range(case.rank + 1):
        case.tau_hat_lift(m)
        case.tau_lift(m)
    assert calls and max(calls.values()) == 1, calls


@pytest.mark.parametrize("name", CASES)
def test_tau_lifts_match_the_reference_recursion(name):
    case = I.AmbientCase(name)
    w_delta = W.longest_parabolic(case.amb.real, range(1, case.amb.real.n))
    for m in range(case.rank + 1):
        want = R.tau_hat_lift(case, m)
        assert case.tau_hat_lift(m).letters == want.letters
        assert case.tau_lift(m).letters == (w_delta * want).reduce()


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lift_intertwines_the_split_map(name, data):
    """split(lift(w) v) = w split(v) for a tier word w of length 0-8."""
    case = _case(name)
    letters = data.draw(st.lists(st.integers(0, case.rank), max_size=8))
    w = W.WeylWord(case.tier.real, letters)
    v = data.draw(ambient_weights(case))
    assert case.split_to_tier(case.lift(w).act(v)) == w.act(case.split_to_tier(v))


def test_lift_refuses_a_word_of_another_realization():
    case = _case("flip-sp4")
    assert case.lift(W.WeylWord(case.tier.real, (0,))).letters == (0,)
    with pytest.raises(ValueError, match="lift takes a word of the tier"):
        case.lift(W.WeylWord(case.amb.real, (0,)))
