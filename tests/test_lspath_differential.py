"""The polynomial LS-path kernels against the brute-force reference kernels.

The order of a coset interval read off its down-set table against
`bruhat_leq` on every pair, covers read off the letter drops against the pairwise Bruhat search at
adjacent lengths, cover pairings read off the covering roots on integer
weights against the content of the Fraction weight difference and the
search over its divisors, memoised chain gcds against the depth-first walk over every chain, the
enumeration over down-sets against testing every coset, the pairwise
standardness test against every order of the factors, the forward
pass over sub-multisets against the backtracking over every arrangement
and against the list-based forward pass it replaced, the down-set and
up-set bitsets of the fibre lifts against `bruhat_leq`, the minimal lift that
`FibreLifts.place` keeps against the set-valued placement it replaced,
the comparability table read off the interval against one `bruhat_leq`
per pair of cosets, the lift order of `TwoBases` against one
`bruhat_leq` per pair of lifted directions, the `two_basis_counts`
reports against the earlier per-monomial code, the multichain count
against testing every multiset, and the integer `act_letters` walk
against the Fraction reflection loop.  Monomials of degree <= 3 come from
the path pools of five symmetric pairs; words and weights are random on a
finite, an affine, a restricted-tier (delta coefficient 2) and an
indefinite GCM; the paths whose kinds the minimal lift places, and the
cosets whose lifts are checked, are random on four finite ones.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import cartan_reference as CR
import lspath_reference as R
import smt_reference as SR
import weyl_reference as WR
from smt_kit import cartan as C, extend as X, involutions as I, lspath as L, smt as S
from smt_kit import weyl as W
from smt_kit.caps import CAPS

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
# `FibreLifts` numbers the whole Weyl group, so its tests draw finite ones only
FIBRE_REALIZATIONS = {name: REALIZATIONS.get(name) or _finite(name)
                      for name in ("A3", "B3", "C3", "G2")}

# (case, m): the pools of the standardness and count tests
CASES = (("flip-sl2", 1), ("flip-sl3", 2), ("flip-sp4", 2), ("flip-so-odd5", 2),
         ("sym-quadrics3", 2))


def _base_pools(case):
    """The base-path pools of `two_basis_counts`, its block index and one
    owner of fibre lifts, and one of the list-based reference, shared by
    every example: the numbered lifts and their down-sets then carry over
    between monomials drawn in random order."""
    pools = {i: case.base_paths(i) for i in range(1, case.rank + 1)}
    shape_index = {case.eps_base_weight(i).coords: i for i in pools}
    real = case.base_realization()
    return (pools, (lambda f: shape_index[f.shape.coords]), L.FibreLifts(real),
            R.FibreLifts(real))


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
# the order of a coset interval


@st.composite
def coset_tops(draw):
    """A top coset modulo a random parabolic, on any of the realizations."""
    name = draw(st.sampled_from(sorted(REALIZATIONS)))
    real = REALIZATIONS[name]
    J = draw(st.sets(st.integers(0, real.n - 1), max_size=real.n))
    word = draw(st.lists(st.integers(0, real.n - 1), max_size=7))
    return W.CosetRep(W.WeylWord(real, word), J)


@settings(max_examples=150, deadline=None)
@given(coset_tops())
def test_coset_poset_order_agrees(top):
    """`CosetPoset.leq`, read off the down-set table, against `bruhat_leq`
    on every ordered pair of the interval."""
    poset = W.coset_interval(top)
    for a in poset:
        for b in poset:
            assert poset.leq(a, b) == W.bruhat_leq(a, b), (a, b)


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
    """The library's increasing tuple against the reference set, sorted."""
    n = len(data.poset.elements)
    reference = lambda *args: tuple(sorted(R.cut_values(*args)))
    for upper in range(n):
        for lower in range(n):
            assert (_cut_values_or_cap(L.ChainData.cut_values, data, upper, lower)
                    == _cut_values_or_cap(reference, data, upper, lower)), (upper, lower)


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
    with mock.patch.dict(CAPS, cut_denominator=denom_cap):
        _all_cut_values_agree(L.ChainData(shape, top))


def _paths_or_cap(enumerate_paths, shape, top, denom_cap):
    try:
        with mock.patch.dict(CAPS, cut_denominator=denom_cap):
            return enumerate_paths(shape, top)
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
# the path layer against its quadratic kernels


@st.composite
def layer_intervals(draw):
    """A shape, a top word and a denominator cap on any of the realizations."""
    name = draw(st.sampled_from(sorted(REALIZATIONS)))
    real = REALIZATIONS[name]
    coords = draw(st.lists(st.integers(0, 3), min_size=real.n, max_size=real.n))
    word = draw(st.lists(st.integers(0, real.n - 1), max_size=7))
    return real.weight(coords), W.WeylWord(real, word), draw(st.integers(1, 4))


def _chain_paths_or_cap(kernel, data):
    try:
        return kernel(data)
    except ValueError as exc:
        assert str(exc).startswith("cut denominator cap exceeded: ")
        return "cap"


@settings(max_examples=150, deadline=None)
@given(layer_intervals())
def test_path_layer_agrees_with_the_quadratic_kernels(case):
    """The memoised drop images against the drop walk that images every
    drop from scratch (elements, covers with their letter positions,
    down-sets); the images and pairings taken up the interval against one
    whole-word image per coset and the prefix-word covering roots; the cut
    values of every pair, or the cap error, off the divisor bitsets against
    the chain gcds; and the paths, in order, against extending to every
    coset below the last direction."""
    shape, word, denom_cap = case
    top = W.CosetRep(word, L.stabilizer_nodes(shape))
    with mock.patch.dict(CAPS, cut_denominator=denom_cap):
        data, fresh = L.ChainData(shape, top), L.ChainData(shape, top)
    poset, walk = data.poset, WR.drop_walk(top)
    assert ([c.word.letters for c in poset.elements]
            == [c.word.letters for c in walk.elements])
    assert poset.elements == walk.elements
    assert poset.lower_covers == walk.lower_covers
    assert poset.down == walk.down
    assert list(map(list, data._images)) == R.images(data)
    assert data._covers_below == R.prefix_pairings(data)
    n, memo = len(poset.elements), {}
    for upper in range(n):
        for lower in range(n):
            assert (_cut_values_or_cap(L.ChainData.cut_values, data, upper, lower)
                    == _cut_values_or_cap(lambda *args: R.gcd_cut_values(*args, memo),
                                          data, upper, lower)), (upper, lower)
    assert (_chain_paths_or_cap(L.chain_paths, fresh)
            == _chain_paths_or_cap(R.chain_paths, fresh))


def test_path_layer_agrees_below_tau():
    """The same comparisons below tau_m of the five symmetric pairs."""
    for (name, m), gc in GRADED.items():
        top = gc.case.tau_coset(m)
        data = L.ChainData(gc.case.amb.e_omega0(), top)
        walk = WR.drop_walk(top)
        assert [c.word.letters for c in data.poset] == [c.word.letters for c in walk]
        assert (data.poset.lower_covers, data.poset.down) == (walk.lower_covers, walk.down)
        assert list(map(list, data._images)) == R.images(data)
        assert data._covers_below == R.prefix_pairings(data)
        assert L.chain_paths(data) == R.chain_paths(data) == gc.paths


# ---------------------------------------------------------------------------
# standardness from above and below, graded counts


@st.composite
def above_monomials(draw):
    paths = GRADED[draw(st.sampled_from(CASES))].paths
    picks = draw(st.lists(st.integers(0, len(paths) - 1), min_size=1, max_size=3))
    return tuple(paths[t] for t in picks)


@settings(max_examples=300, deadline=None)
@given(above_monomials())
def test_standard_above_agrees(mono):
    assert L.is_standard_above(mono) == R.is_standard_above(mono)


@st.composite
def below_monomials(draw):
    name, _ = draw(st.sampled_from(CASES))
    pools, block_index, lifts, reference_lifts = BASE_POOLS[name]
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        pool = pools[draw(st.sampled_from(sorted(pools)))]
        factors.append(pool[draw(st.integers(0, len(pool) - 1))])
    return tuple(factors), block_index, lifts, reference_lifts


@settings(max_examples=300, deadline=None)
@given(below_monomials())
def test_standard_below_agrees(case):
    """Also with the blocks in reverse order and with all factors in one
    block: the same kinds then place in other orders on the shared owner's
    lifts."""
    mono, block_index, lifts, reference_lifts = case
    want = R.is_standard_below(mono, block_index)
    keys = [block_index(f) for f in mono]
    assert R.forward_standard_below(mono, keys, reference_lifts) == want
    assert L.is_standard_below(mono, keys, lifts) == want
    assert L.is_standard_below(mono, keys) == want
    assert (L.is_standard_below(mono, [-k for k in keys], lifts)
            == R.is_standard_below(mono, lambda f: -block_index(f)))
    assert (L.is_standard_below(mono, [0] * len(keys), lifts)
            == R.is_standard_below(mono, lambda f: 0))


def test_standard_below_agrees_with_default_blocks():
    """Blocks by basis index, and blocks by the coordinate sum of the shape
    (the reference's default), each against the reference.  Every eps_i of
    flip-sp4 has coordinate sum 2, so the sums put all factors in one
    block; the last monomial is standard in one block but not by index."""
    pools, block_index, _, _ = BASE_POOLS["flip-sp4"]
    mixed = [pools[1][0], pools[2][3], pools[1][5], pools[2][0]]
    verdicts = []
    for factors in [mixed[:k] for k in range(1, len(mixed) + 1)] + [[pools[1][4], pools[2][0]]]:
        mono = tuple(factors)
        by_index = L.is_standard_below(mono, [block_index(f) for f in factors])
        by_sum = L.is_standard_below(mono, [sum(f.shape.coords) for f in factors])
        assert by_index == R.is_standard_below(mono, block_index)
        assert by_sum == R.is_standard_below(mono) == R.forward_standard_below(mono)
        verdicts.append((by_index, by_sum))
    assert verdicts[-1] == (False, True)


@pytest.mark.parametrize("name", ("C2^(1)", "tier(C2)", "indefinite"))
def test_fibre_lifts_refuse_an_infinite_weyl_group(name):
    """No longest element, so no interval to number the group on."""
    with pytest.raises(ValueError, match=r"^longest_parabolic: nodes \[0, 1(, 2)?\] are not of "
                                         r"finite type$"):
        L.FibreLifts(REALIZATIONS[name])


def test_fibre_lifts_obey_the_coset_interval_cap():
    """The 48 elements of B3 are one capped interval."""
    real = FIBRE_REALIZATIONS["B3"]
    with mock.patch.dict(CAPS, coset_interval=48):
        assert len(L.FibreLifts(real).down) == 48
    with mock.patch.dict(CAPS, coset_interval=47), \
            pytest.raises(ValueError, match=r"^coset interval cap exceeded: cap=47, "
                                            r"\d+ cosets reached$"):
        L.FibreLifts(real)


@st.composite
def fibre_cosets(draw):
    """Up to three cosets of one finite realization with one stabilizer J."""
    real = FIBRE_REALIZATIONS[draw(st.sampled_from(sorted(FIBRE_REALIZATIONS)))]
    J = frozenset(draw(st.sets(st.integers(0, real.n - 1), max_size=real.n)))
    words = draw(st.lists(st.lists(st.integers(0, real.n - 1), max_size=5),
                          min_size=1, max_size=3))
    return real, J, [W.CosetRep(W.WeylWord(real, w), J) for w in words]


@settings(max_examples=80, deadline=None)
@given(fibre_cosets())
def test_fibre_lift_order_agrees(case):
    """The lifts of every coset are c.word * u, u in W_J, the minimal
    representative the lowest bit, and on every pair of lifts the down-set
    and up-set bitsets give `bruhat_leq`, also across cosets."""
    real, J, cosets = case
    lifts = L.FibreLifts(real)
    fibre = R._parabolic_elements(real, sorted(J))
    words = {}
    for c in cosets:
        got = list(L._bits(lifts(c, J)))
        want = {lifts.number(c.word * u): c.word * u for u in fibre}
        assert got == sorted(want) and got[0] == lifts.number(c.word)
        words.update(want)
    for a, x in words.items():
        for b, y in words.items():
            assert (lifts.down[b] >> a & 1) == (lifts.up[a] >> b & 1) == W.bruhat_leq(x, y), \
                (x, y)


@st.composite
def fibre_kinds(draw):
    """Paths of one or two shapes, each below a random top, drawn from the
    enumerated pools of one finite realization."""
    real = FIBRE_REALIZATIONS[draw(st.sampled_from(sorted(FIBRE_REALIZATIONS)))]
    paths = []
    for _ in range(draw(st.integers(1, 2))):
        shape = real.weight(draw(st.lists(st.sampled_from((0, 0, 1, 2)), min_size=real.n,
                                          max_size=real.n)))
        J = L.stabilizer_nodes(shape)
        word = W.WeylWord(real, draw(st.lists(st.integers(0, real.n - 1), max_size=5)))
        try:                        # the cut denominator cap
            pool = L.enumerate_paths(shape, W.CosetRep(word, J))
        except ValueError:
            assume(False)
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
        paths += [pool[t] for t in picks]
    return real, paths


@settings(max_examples=200, deadline=None)
@given(fibre_kinds())
def test_minimal_lift_agrees_with_the_bitset_fold(case):
    """From every end that some fold of the drawn kinds reaches, the
    identity included, `FibreLifts.place` returns None exactly when the
    set-valued placement of `lspath_reference.bitset_place` is empty, and
    otherwise an element whose up-set among the lifts of the last direction
    is that set; `bruhat_leq` puts the end below it and it below every lift
    of the set, apart from the bitsets."""
    real, paths = case
    lifts = L.FibreLifts(real)
    words = {0: W.WeylWord(real, ())}
    fibres = {}
    for path in paths:
        J = L.stabilizer_nodes(path.shape)
        fibre = fibres.setdefault(J, R._parabolic_elements(real, sorted(J)))
        words.update((lifts.number(d.word * u), d.word * u) for d in path.dirs for u in fibre)
    kinds = sorted({lifts.kind(p) for p in paths})
    reached, todo = {0}, [0]
    while todo:
        end = todo.pop()
        for k in kinds:
            got = lifts.place(end, k)
            want = R.bitset_place(lifts, 1 << end, k)
            assert (got is None) == (want == 0), (end, k)
            if got is None:
                continue
            last = lifts._steps[k][-1]
            assert want == sum(1 << z for z in L._bits(last) if lifts.down[z] >> got & 1), \
                (end, k)
            assert W.bruhat_leq(words[end], words[got])
            assert all(W.bruhat_leq(words[got], words[z]) for z in L._bits(want))
            if got not in reached:
                reached.add(got)
                todo.append(got)


def test_graded_counts_above_table_agrees():
    for gc in GRADED.values():
        assert [sorted(row) for row in gc.above] == [sorted(row) for row in R.above_table(gc)]


def test_lift_order_agrees():
    """`TwoBases.leq`, read off the comparability table of `GradedCounts`,
    against one `bruhat_leq` per pair of a top and a bottom direction."""
    for gc in GRADED.values():
        assert gc.case.two_bases.leq == SR.lift_order(gc.case), gc.case.record.name


TWO_BASIS_DEGREES = {"flip-sl2": (1, 2, 3, 4, 5), "flip-sl3": (1, 2, 3),
                     "flip-sp4": (1, 2, 3), "flip-so-odd5": (2,), "sym-quadrics3": (2,)}


@pytest.mark.parametrize("name", sorted(TWO_BASIS_DEGREES))
def test_two_basis_reports_agree(name):
    case = I.AmbientCase(name)
    for degree in TWO_BASIS_DEGREES[name]:
        assert S.two_basis_counts(case, degree) == SR.two_basis_counts(case, degree), degree


def test_graded_counts_agree():
    for (name, m), top in zip(CASES, (3, 3, 3, 2, 3)):
        gc = GRADED[name, m]
        for locus in ("S", "R"):
            for n in range(top + 1):
                assert gc.count(n, locus) == R.graded_count(gc, n, locus), (name, locus, n)
