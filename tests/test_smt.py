"""Straightening systems, minuscule posets, graded counts."""

import functools
import itertools
import random
import time
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import lspath_reference as LR
import quadlat_reference as QR
import weyl_reference as WR
from smt_kit import cartan as C, involutions as I, lspath as L, quadlat as QL, smt as S
from smt_kit.caps import CAPS


def diamond_system():
    """Poset a < b, c < d with b, c incomparable; one relation bc = ad."""
    order = {("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")}
    leq = lambda x, y: x == y or (x, y) in order
    grade = {"a": 0, "b": 1, "c": 1, "d": 2}
    relations = {frozenset(("b", "c")): [(Q(1), ("a", "d"))]}
    return S.StraighteningSystem("abcd", leq, grade, relations)


def test_straighten_diamond():
    sys_ = diamond_system()
    assert S.straighten(("a", "d"), sys_) == {("a", "d"): Q(1)}
    assert S.straighten(("b", "c"), sys_) == {("a", "d"): Q(1)}
    # degree three, one rewrite (bc -> ad) needed
    nf = S.straighten(("b", "c", "b"), sys_)
    assert nf == {("a", "b", "d"): Q(1)}
    # brute-force check in the quotient space: monomials of degree 2 modulo
    # the single relation have the standard monomials as a basis
    deg2 = list(itertools.combinations_with_replacement("abcd", 2))
    standard = [m for m in deg2 if sys_.is_standard(m)]
    assert len(standard) == len(deg2) - 1


def test_straighten_missing_relation():
    order = {("a", "b")}
    leq = lambda x, y: x == y or (x, y) in order
    sys_ = S.StraighteningSystem("abc", leq, {"a": 0, "b": 1, "c": 1}, {})
    with pytest.raises(ValueError):
        S.straighten(("b", "c"), sys_)


def test_system_refuses_a_relation_keyed_on_one_generator_twice():
    leq = lambda x, y: x == y
    with pytest.raises(ValueError, match=r"^relation keyed on a comparable pair$"):
        S.StraighteningSystem("ab", leq, {"a": 1, "b": 1}, {("a", "a"): []})


def test_straighten_allows_max_steps_rewrites_and_names_the_cap():
    sys_, xs, ys = S.e7_system()
    standard = sys_.sort_mono((xs[0], ys[0]))
    with mock.patch.dict(CAPS, straighten_rewrites=0):
        assert S.straighten(standard, sys_) == {standard: Q(1)}
    want = {sys_.sort_mono((xs[k], ys[k])): Q((-1) ** k) for k in range(5)}
    with mock.patch.dict(CAPS, straighten_rewrites=1):
        assert S.straighten((xs[5], ys[5]), sys_) == want
    with mock.patch.dict(CAPS, straighten_rewrites=0), \
            pytest.raises(ValueError, match=r"^straighten cap exceeded: max_steps=0, "
                                            r"1 non-standard monomials left after 0 rewrites$"):
        S.straighten((xs[5], ys[5]), sys_)


def test_system_rejects_nondecreasing_relation():
    order = {("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")}
    leq = lambda x, y: x == y or (x, y) in order
    grade = {"a": 0, "b": 1, "c": 1, "d": 2}
    with pytest.raises(ValueError):
        S.StraighteningSystem("abcd", leq, grade,
                              {frozenset(("b", "c")): [(Q(1), ("d", "d"))]})


def test_confluence_random_orders():
    # rewriting in arbitrary pair order reaches the same normal form
    sys_ = diamond_system()
    rng = random.Random(5)

    def straighten_random(mono):
        work = {sys_.sort_mono(mono): Q(1)}
        while True:
            bad = [m for m in work if not sys_.is_standard(m)]
            if not bad:
                return work
            target = rng.choice(bad)
            coef = work.pop(target)
            pairs = [p for p in itertools.combinations(target, 2)
                     if not sys_.comparable(*p)]
            a, b = rng.choice(pairs)
            rest = list(target)
            rest.remove(a)
            rest.remove(b)
            for c, mono2 in sys_.relations[frozenset((a, b))]:
                key = sys_.sort_mono(tuple(rest) + tuple(mono2))
                work[key] = work.get(key, Q(0)) + coef * c
                if not work[key]:
                    del work[key]

    for mono in [("b", "c"), ("c", "b", "b"), ("b", "c", "c", "b")]:
        expected = S.straighten(mono, sys_)
        for _ in range(5):
            assert straighten_random(mono) == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=4),
       st.lists(st.integers(0, 5), min_size=1, max_size=4),
       st.lists(st.integers(0, 5), min_size=0, max_size=3))
def test_monomial_order_axioms(m1, m2, m):
    # multiplicativity and positivity of the monomial order key
    leq = lambda x, y: x == y
    grade = {i: i % 3 for i in range(6)}
    sys_ = S.StraighteningSystem(range(6), leq, grade, {})
    k = sys_.monomial_key
    if k(tuple(m1)) < k(tuple(m2)):
        assert k(tuple(m1) + tuple(m)) < k(tuple(m2) + tuple(m))
    assert k(()) < k(tuple(m1))


def test_minuscule_poset_examples():
    p = S.minuscule_poset(C.FinTypeLabel("A", 2), 0)
    assert len(p) == 3
    assert all(p.leq(i, j) for i in range(3) for j in range(3) if i <= j)
    c3 = S.minuscule_poset(C.FinTypeLabel("C", 3), 0)
    assert len(c3) == 6
    assert S.count_standard_pairs(c3) == (21, 0)
    # 21 = dim S^2 V = dim V_{2 omega_1} for the symplectic vector module
    real = C.Realization(C.build_cartan(C.FinTypeLabel("C", 3)), "C3")
    assert C.weyl_dim(C.FinTypeLabel("C", 3), real.fundamental(0).scale(2)) == 21
    with pytest.raises(ValueError, match="^weight is not minuscule"):
        S.minuscule_poset(C.FinTypeLabel("C", 3), 1)
    with mock.patch.dict(CAPS, orbit_weights=5), \
            pytest.raises(ValueError, match="^orbit cap exceeded: cap=5, 5 weights reached$"):
        S.minuscule_poset(C.FinTypeLabel("C", 3), 0)


def test_e7_poset_and_free_monoids_skip_the_fraction_kernels(monkeypatch):
    """The E7 poset is built from integer orbit vectors and integer depths,
    and the monoid of a diagonal HNF (P of D4, P = Q of F4) is read off
    without listing its dominant points."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(C.Realization, "root_coords",
                        counting("root_coords", C.Realization.root_coords))
    monkeypatch.setattr(C.Realization, "reflect", counting("reflect", C.Realization.reflect))
    monkeypatch.setattr(QL, "_dominant_points", counting("_dominant_points",
                                                         QL._dominant_points))
    assert len(S.e7_minuscule.__wrapped__()) == 56     # a fresh build, not the cached poset
    for name in ("D4", "F4"):
        P = QL.full_weight_lattice(C.FinTypeLabel.parse(name))
        assert [w.coords for w in QL.monoid_basis(P, 12)] == \
            [tuple(int(i == j) for j in range(4)) for i in range(4)]
    assert calls == []


def test_minuscule_poset_refuses_an_out_of_range_node():
    for label, node in ((C.FinTypeLabel("E", 7), 9), (C.FinTypeLabel("A", 3), -1)):
        hi = label.rank - 1
        with pytest.raises(ValueError, match=rf"^node {node} out of range 0\.\.{hi}$"):
            S.minuscule_poset(label, node)
        with pytest.raises(ValueError, match=rf"^node {node} out of range 0\.\.{hi}$"):
            C.Realization(C.build_cartan(label), str(label)).fundamental(node)


def test_minuscule_index_answers_int_and_fraction_coordinates():
    p = S.e7_minuscule()
    assert sorted(p.index.values()) == list(range(len(p)))
    for k, i in p.index.items():
        assert all(type(c) is int for c in k)
        assert p.index[tuple(Q(c) for c in k)] == i
    assert p.index[p.highest.coords] == p.index[(1,) + (0,) * 6] == 0


def test_three_chain_pairs():
    p = S.minuscule_poset(C.FinTypeLabel("A", 2), 0)
    assert S.count_standard_pairs(p) == (6, 0)


def test_e7_counts():
    p = S.e7_minuscule()
    assert len(p) == 56
    assert S.e7_minuscule() is p and S.e7_system()[0]._leq == p.leq
    assert S.count_standard_pairs(p) == (1463, 133)


def test_e7_grading_split():
    # degrees (1, 27, 27, 1): top line, two 27-dimensional middle layers,
    # bottom line -- the codimension-one picture for the exceptional row
    from collections import Counter
    p = S.e7_minuscule()
    grades = Counter(p.d_degree(i) for i in range(len(p)))
    assert dict(grades) == {0: 1, 1: 27, 2: 27, 3: 1}
    e6 = C.build_cartan(C.FinTypeLabel("E", 6))
    r6 = C.Realization(e6, "E6")
    assert C.weyl_dim(e6, r6.fundamental(0)) == 27
    # |F| - |F_0| = 2 with the two extreme lines removed
    assert len(p) - (grades[1] + grades[2]) == 2


def test_e7_straighten():
    sys_, xs, ys = S.e7_system()
    nf = S.straighten((xs[5], ys[5]), sys_)
    want = {sys_.sort_mono((xs[k], ys[k])): Q((-1) ** k) for k in range(5)}
    assert nf == want
    assert S.straighten((xs[0], ys[0]), sys_) == {sys_.sort_mono((xs[0], ys[0])): Q(1)}
    # grades follow the distinguished-root coefficient
    assert [sys_.grade[i] for i in xs] == [0, 1, 1, 1, 1, 1]
    assert [sys_.grade[i] for i in ys] == [2, 1, 1, 1, 1, 1]


def test_graded_counts_small():
    case = I.AmbientCase("flip-sl2")
    gc = S.GradedCounts(case, 1)
    assert gc.count(1, "S") == S.expected(case, 1, 1, "S") == 5
    assert gc.count(1, "R") == S.expected(case, 1, 1, "R") == 4
    assert gc.count(2, "S") == S.expected(case, 1, 2, "S") == 14
    assert gc.count(2, "R") == S.expected(case, 1, 2, "R") == 9
    assert gc.count(3, "S") == S.expected(case, 1, 3, "S") == 30
    assert gc.count(3, "R") == S.expected(case, 1, 3, "R") == 16
    assert gc.count(0, "R") == 1


def test_graded_counts_sp4_m1():
    case = I.AmbientCase("flip-sp4")
    gc = S.GradedCounts(case, 1)
    assert gc.degree_split() == {0: 1, 1: case.dim_eps_sum([1])}


def test_two_basis_counts_quadrics():
    # the non-minuscule tier: the zero-weight path has an interior cut and
    # still lifts compatibly
    case = I.AmbientCase("sym-quadrics2")
    for deg, want in ((2, 5), (3, 7)):
        rep = S.two_basis_counts(case, deg)
        assert rep["ok"] and rep["below_total"] == want


# (case, degree, monomials): the criterion-7 rows above degree 2, and flip-sp6 at 2
FOLD_ROWS = (("flip-sp4", 3, 12341), ("flip-sp4", 4, 135751), ("flip-sp6", 2, 91806),
             ("flip-so-odd5", 3, 333375), ("sym-quadrics3", 3, 364))


@pytest.mark.parametrize("name, degree, monomials", FOLD_ROWS,
                         ids=[f"{n}-{d}" for n, d, _ in FOLD_ROWS])
def test_fixed_order_fold_is_the_union_over_orders(name, degree, monomials):
    """The order claim behind `TwoBases.counts`, on every monomial: with
    blocks following shape, the up-set, among the lifts of the last
    direction, of the minimal lift that folding `FibreLifts.place` along
    the pool order ends in is the bitset state that `lspath.is_standard_below`
    takes as the union over all orders inside each block
    (`lspath_reference.union_state`, the set-valued fold, on one memo for
    every monomial).

    The claim needs the blocks.  With every block key 0, so that paths of
    shapes eps_1 and eps_2 of flip-sp4 share one block ordered by
    `FibreLifts.order_key` and kind number, the fold at degree 3 gives
    another state on 1,595 monomials and another verdict on 288 of them."""
    table = I.AmbientCase(name).two_bases
    lifts = table.lifts
    place = functools.lru_cache(maxsize=None)(lifts.place)

    def fold(kinds):
        end = 0
        for k in kinds:
            end = place(end, k)
            if end is None:
                return 0
        return sum(1 << z for z in L._bits(lifts._steps[kinds[-1]][-1])
                   if lifts.down[z] >> end & 1)

    one_block = (name, degree) == ("flip-sp4", 3)
    memo: dict = {}
    seen = states = verdicts = 0
    for mono in itertools.combinations_with_replacement(range(len(table.kinds)), degree):
        kinds = [table.kinds[b] for b in mono]
        placed = tuple(sorted((table.blocks[b], table.kinds[b]) for b in mono))
        assert LR.union_state(lifts, placed, memo) == fold(kinds), mono
        seen += 1
        if one_block:
            state = fold(sorted(kinds, key=lambda k: (lifts.order_key(k), k)))
            union = LR.union_state(lifts, tuple((0, k) for k in sorted(kinds)), memo)
            states += state != union
            verdicts += (state != 0) != (union != 0)
    assert seen == monomials
    if one_block:
        assert (states, verdicts) == (1595, 288)


def test_two_basis_tables_make_no_bruhat_comparison(monkeypatch):
    """The lift order is read off the `GradedCounts` table, so building the
    tables of flip-sl2, flip-sp4 and flip-sp6 calls `bruhat_leq` (in lspath
    and weyl) not once; one comparison per pair of a top and a bottom
    direction took 11, 576 and 31,886 calls."""
    from smt_kit import weyl as W
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    assert not hasattr(S, "bruhat_leq")
    for module in (L, W):
        monkeypatch.setattr(module, "bruhat_leq", counted(module.bruhat_leq))
    for name in ("flip-sl2", "flip-sp4", "flip-sp6"):
        case = I.AmbientCase(name)
        S.TwoBases(case)
    assert calls == []
    e = W.WeylWord(case.amb.real, ())
    L.bruhat_leq(e, e)
    assert len(calls) == 1                  # the counter is live


def test_two_basis_tables_are_built_once_per_case(monkeypatch):
    """Degrees asked in any order on one case give the reports of fresh
    cases, and the case lifts each of its 4 pool paths once in all."""
    lifted = []
    lift = I.AmbientCase.lift_to_grassmannian

    def counted(self, path, i):
        lifted.append(self)
        return lift(self, path, i)

    monkeypatch.setattr(I.AmbientCase, "lift_to_grassmannian", counted)
    case = I.AmbientCase("flip-sl2")
    for degree in (5, 2, 4, 3):
        assert S.two_basis_counts(case, degree) == \
            S.two_basis_counts(I.AmbientCase("flip-sl2"), degree), degree
    assert sum(owner is case for owner in lifted) == 4


def test_proctor_agreement_small():
    # weight-side order equals word-side Bruhat order on a minuscule quotient
    from smt_kit import weyl as W
    case = I.AmbientCase("flip-sl3")
    p = S.MinusculePoset(case.amb.real, 0)
    J = case.grassmann_parabolic()
    reps = [W.CosetRep(W.WeylWord(case.amb.real, WR.coset_from_weight(
        case.amb.real, J, p.highest, w).word.letters), J) for w in QR.minuscule_weights(p)]
    for i, j in itertools.product(range(len(p)), repeat=2):
        assert p.leq(i, j) == W.bruhat_leq(reps[i], reps[j])


def test_minuscule_poset_refuses_a_non_finite_realization_at_once():
    real = I.AmbientCase("flip-sp4").amb.real           # affine
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"^finite-type GCM required$"):
        S.MinusculePoset(real, 0)
    assert time.perf_counter() - t0 < 0.1


def test_finite_case_structure_rejects_non_a():
    case = I.AmbientCase("flip-sp4")
    with pytest.raises(ValueError):
        S.finite_case_structure(case)


def test_finite_case_structure_interval_obeys_smt_kit_cap(monkeypatch):
    """SMT_KIT_CAP caps every coset interval, also the tier orbit poset of
    the finite structure: 16 cosets on flip-sl4 (C4 modulo A3)."""
    case = I.AmbientCase("flip-sl4")
    monkeypatch.setenv("SMT_KIT_CAP", "16")
    assert S.finite_case_structure(case)["tier_poset_size"] == 16
    monkeypatch.setenv("SMT_KIT_CAP", "3")
    with pytest.raises(ValueError, match=r"^coset interval cap exceeded: cap=3, "
                                         r"\d+ cosets reached$"):
        S.finite_case_structure(case)


def test_remark48():
    for name in ("C2", "B2", "BC2"):
        rep = S.remark48_report(C.FinTypeLabel.parse(name))
        assert rep["agrees_mod_delta"]


def test_graded_count_rejects_negative_degree():
    gc = S.GradedCounts(I.AmbientCase("flip-sl2"), 1)
    assert gc.count(0) == 1
    with pytest.raises(ValueError, match=r"^degree -1 out of range: must be >= 0$"):
        gc.count(-1)
