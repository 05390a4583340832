"""The polynomial LS-path kernels against the brute-force reference kernels.

Covers read off the letter drops against the pairwise Bruhat search at
adjacent lengths, cover pairings read off the covering roots on integer
weights against the content of the Fraction weight difference and the
search over its divisors, memoised chain gcds against the depth-first walk over every chain, the
enumeration over down-sets against testing every coset, the pairwise
standardness test against every order of the factors, the forward
pass over sub-multisets against the backtracking over every arrangement,
the multichain count against testing every multiset, and the integer
`act_letters` walk against the Fraction reflection loop.  Monomials of
degree <= 3 come from the path pools of five symmetric pairs; words and
weights are random on a finite, an affine, a restricted-tier (delta
coefficient 2) and an indefinite GCM.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import cartan_reference as CR
import lspath_reference as R
from smt_kit import cartan as C, extend as X, involutions as I, lspath as L, smt as S
from smt_kit import weyl as W

Q = Fraction


def _finite(name):
    return C.Realization(C.build_cartan(C.FinTypeLabel.parse(name)), name)


REALIZATIONS = {
    "B3": _finite("B3"),
    "G2": _finite("G2"),
    "C2^(1)": C.Realization.standard(C.build_affine_cartan("C2^(1)"), "C2aff"),
    "tier(C2)": X.extend_restricted(C.FinTypeLabel("C", 2)).real,
    "indefinite": C.Realization(C.GCM(((2, -3), (-3, 2))), "hyp33"),
}
assert REALIZATIONS["tier(C2)"].delta_coeff == 2

# (case, m): the pools of the standardness and count tests
CASES = (("flip-sl2", 1), ("flip-sl3", 2), ("flip-sp4", 2), ("flip-so-odd5", 2),
         ("sym-quadrics3", 2))


def _base_pools(case):
    """The base-path pools of `two_basis_counts`, its block index and one
    set of fibre lifts shared by every example."""
    pools = {i: case.base_paths(i) for i in range(1, case.rank + 1)}
    shape_index = {case.eps_base_weight(i).coords: i for i in pools}
    return pools, (lambda f: shape_index[f.shape.coords]), L.FibreLifts(case.base_realization())


GRADED = {(name, m): S.GradedCounts(I.AmbientCase(name), m) for name, m in CASES}
BASE_POOLS = {name: _base_pools(gc.case) for (name, _), gc in GRADED.items()}


# ---------------------------------------------------------------------------
# act_letters

HALVES = st.integers(-6, 6).map(lambda k: Q(k, 2))
THIRDS = st.integers(-6, 6).map(lambda k: Q(k, 3))


@st.composite
def actions(draw):
    name = draw(st.sampled_from(sorted(REALIZATIONS)))
    real = REALIZATIONS[name]
    word = draw(st.lists(st.integers(0, real.n - 1), max_size=10))
    coords = draw(st.lists(st.one_of(HALVES, THIRDS), min_size=real.n, max_size=real.n))
    return real, word, real.weight(coords, draw(st.one_of(HALVES, THIRDS)))


@settings(max_examples=200, deadline=None)
@given(actions())
def test_act_letters_agrees(case):
    real, word, v = case
    assert real.act_letters(word, v) == CR.act_letters(real, word, v)
    assert W.WeylWord(real, word).act(v) == CR.act_letters(real, word, v)


# ---------------------------------------------------------------------------
# cover pairings and cut values


def _covers_agree(data) -> list[int]:
    """Every cover set and every pairing against the pairwise search, each
    pairing also against the divisor search; the pairings."""
    assert data._covers_below == R.cover_search(data)
    weights = R.direction_weights(data)
    pairings = []
    for upper, covers in data._covers_below.items():
        for lower, n in covers:
            assert n == R.cover_pairing(data.real, weights, upper, lower), (upper, lower)
            pairings.append(n)
    return pairings


def test_cover_pairings_agree_below_tau():
    pairings = [n for (name, m), gc in GRADED.items()
                for n in _covers_agree(L.ChainData(gc.case.amb.e_omega0(),
                                                   gc.case.tau_coset(m)))]
    assert max(pairings) > 1


@st.composite
def cover_intervals(draw):
    name = draw(st.sampled_from(sorted(REALIZATIONS)))
    real = REALIZATIONS[name]
    coords = draw(st.lists(st.integers(0, 3), min_size=real.n, max_size=real.n))
    word = draw(st.lists(st.integers(0, real.n - 1), max_size=6))
    return real.weight(coords), W.WeylWord(real, word)


@settings(max_examples=150, deadline=None)
@given(cover_intervals())
def test_cover_pairings_agree_on_random_intervals(case):
    """On the finite, affine, tier and indefinite GCMs."""
    shape, word = case
    _covers_agree(L.ChainData(shape, W.CosetRep(word, L.stabilizer_nodes(shape))))



def _cut_values_or_cap(kernel, data, upper, lower):
    """The cut values, or "cap" where a denominator exceeds `denom_cap` (which
    of several such denominators the error names depends on set order)."""
    try:
        return kernel(data, upper, lower)
    except ValueError as exc:
        assert str(exc).startswith("cut denominator ")
        return "cap"


def _all_cut_values_agree(data):
    n = len(data.poset.elements)
    for upper in range(n):
        for lower in range(n):
            assert (_cut_values_or_cap(L.ChainData.cut_values, data, upper, lower)
                    == _cut_values_or_cap(R.cut_values, data, upper, lower)), (upper, lower)


def test_cut_values_agree_below_tau():
    for (name, m), gc in GRADED.items():
        _all_cut_values_agree(L.ChainData(gc.case.amb.e_omega0(), gc.case.tau_coset(m)))


@st.composite
def intervals(draw):
    name = draw(st.sampled_from(["B3", "G2", "C2^(1)", "tier(C2)"]))
    real = REALIZATIONS[name]
    coords = draw(st.lists(st.integers(0, 3), min_size=real.n, max_size=real.n))
    word = draw(st.lists(st.integers(0, real.n - 1), max_size=6))
    denom_cap = draw(st.integers(1, 4))
    return real.weight(coords), W.WeylWord(real, word), denom_cap


@settings(max_examples=80, deadline=None)
@given(intervals())
def test_cut_values_agree_on_random_intervals(case):
    shape, word, denom_cap = case
    top = W.CosetRep(word, L.stabilizer_nodes(shape))
    _all_cut_values_agree(L.ChainData(shape, top, denom_cap=denom_cap))


def _paths_or_cap(enumerate_paths, shape, top, denom_cap):
    try:
        return enumerate_paths(shape, top, denom_cap=denom_cap)
    except ValueError as exc:
        assert str(exc).startswith("cut denominator ")
        return "cap"


@settings(max_examples=80, deadline=None)
@given(intervals())
def test_enumeration_agrees_on_random_intervals(case):
    """The same paths in the same order."""
    shape, word, denom_cap = case
    top = W.CosetRep(word, L.stabilizer_nodes(shape))
    assert (_paths_or_cap(L.enumerate_paths, shape, top, denom_cap)
            == _paths_or_cap(R.enumerate_paths, shape, top, denom_cap))


def test_enumeration_agrees_below_tau():
    for (name, m), gc in GRADED.items():
        assert gc.paths == R.enumerate_paths(gc.case.amb.e_omega0(), gc.case.tau_coset(m))


# ---------------------------------------------------------------------------
# standardness from above and below, graded counts


@st.composite
def above_monomials(draw):
    paths = GRADED[draw(st.sampled_from(CASES))].paths
    picks = draw(st.lists(st.integers(0, len(paths) - 1), min_size=1, max_size=3))
    return L.PathMonomial(tuple(paths[t] for t in picks))


@settings(max_examples=300, deadline=None)
@given(above_monomials())
def test_standard_above_agrees(mono):
    assert L.is_standard_above(mono) == R.is_standard_above(mono)


@st.composite
def below_monomials(draw):
    name, _ = draw(st.sampled_from(CASES))
    pools, block_index, lifts = BASE_POOLS[name]
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        pool = pools[draw(st.sampled_from(sorted(pools)))]
        factors.append(pool[draw(st.integers(0, len(pool) - 1))])
    return L.PathMonomial(tuple(factors)), block_index, lifts


@settings(max_examples=300, deadline=None)
@given(below_monomials())
def test_standard_below_agrees(case):
    mono, block_index, lifts = case
    want = R.is_standard_below(mono, block_index)
    keys = [block_index(f) for f in mono.factors]
    assert L.is_standard_below(mono, keys, lifts) == want
    assert L.is_standard_below(mono, keys) == want


def test_standard_below_agrees_with_default_blocks():
    pools, _, _ = BASE_POOLS["flip-sp4"]
    mixed = [pools[1][0], pools[2][3], pools[1][5], pools[2][0]]
    for k in range(1, len(mixed) + 1):
        mono = L.PathMonomial(tuple(mixed[:k]))
        assert L.is_standard_below(mono) == R.is_standard_below(mono)


def test_graded_counts_agree():
    for (name, m), top in zip(CASES, (3, 3, 3, 2, 3)):
        gc = GRADED[name, m]
        for locus in ("S", "R"):
            for n in range(top + 1):
                assert gc.count(n, locus) == R.graded_count(gc, n, locus), (name, locus, n)
