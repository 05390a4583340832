"""The integer lattice kernels against the Fraction reference kernels.

Every intermediate lattice Q <= L <= P of A1-A4, B2-B4, C2-C4, BC1-BC4 (whose
root rows come from a halved column), D4, G2 and F4: HNF membership against
the coefficient solve on random points, the dominant points read off the HNF
against the box points that pass the coefficient solve, the coin-change
monoid count against the pairwise test and memoised expansion count at small
bounds and at the classification bounds, and the root descent of
`_dominant_below` below every sum of two basis elements and below half of
it.  At rank 5 (A5, B5, C5, BC5) the descent is compared with the whole-box
integer walk.  The integer height form is compared with the per-call solve
on random weights over full and partial bases, through `hgt` and, on an
integral basis, as `is_quadratic` builds it; and the integer class map of
P/Q, with its subgroups closed from at most two classes, with the
solve-based one and its subset walk, through the generators of every
intermediate lattice of every finite label up to rank 10.  On the
minuscule posets of A_n, C3, D4, D5, E6, E7 and the flip ambients, the
up-set order is compared with the root-coordinate order on
every pair, the lowering table with the Fraction subtraction, the
popcount pair counts with a count over every pair, and the depths counted
along the lowering steps with the `root_coords` reading.  The free monoid
read off a diagonal HNF is compared with the search on every diagonal
lattice between Q and P of A1-A4, B1-B5, C2-C4, BC1-BC3, D4, G2 and F4, at
bounds 0-5, below and above its generators.

The descent is also compared, in order, with the whole-box walk and with
the pruned walk it replaced, below every omega_i + omega_j of the full
weight lattices of D5 and E6 and below half of it.  The one walk per
lattice that `is_quadratic` runs, its seen set passed from pair to pair,
is compared pair by pair with the per-top descent it replaced, on every
lattice above with a monoid basis and on the full weight lattices of D5
and E6: each pair lists the reference down-set less the union of the
earlier ones, in the reference order.  The monoid search that
stops at its first double factorization is compared with the full reference
search on every non-diagonal lattice above at every bound from 1 to 12, and
the D4 index-2 searches are shown to list no point above height 4.
"""

import itertools
import json
import math
from fractions import Fraction as Q
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

import cartan_reference as CR
import quadlat_reference as R
import weyl_reference as WR
from smt_kit import cartan as C, involutions as I, quadlat as QL, smt as S

NAMES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
         "BC1", "BC2", "BC3", "BC4", "D4", "G2", "F4"]
LATTICES = [(f"{name} |L/Q|={order}", lat) for name in NAMES
            for order, lat in QL._intermediate_lattices(C.FinTypeLabel.parse(name))]
assert len(LATTICES) == 32
FINITE_UP_TO_RANK_10 = [C.FinTypeLabel(family, rank) for family, ranks in (
    ("A", range(1, 11)), ("B", range(1, 11)), ("C", range(2, 11)), ("BC", range(1, 11)),
    ("D", range(2, 11)), ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,))) for rank in ranks]


@st.composite
def points(draw):
    k = draw(st.integers(0, len(LATTICES) - 1))
    lat = LATTICES[k][1]
    denominator = draw(st.sampled_from([1, 1, 1, 2]))
    coords = draw(st.lists(st.integers(-15, 15), min_size=lat.gcm.n, max_size=lat.gcm.n))
    return k, C.WeightVec(lat.basis_id, tuple(Q(c, denominator) for c in coords))


@settings(max_examples=400, deadline=None)
@given(points())
def test_contains_agrees(case):
    k, lam = case
    lat = LATTICES[k][1]
    assert lat.contains(lam) == R.contains(lat, lam), LATTICES[k][0]


def test_dominant_points_agree():
    """The points read off the HNF are the box points that pass membership,
    each once: bound 12 up to rank 3, bound 8 at rank 4."""
    for name, lat in LATTICES:
        bound = 12 if lat.gcm.n <= 3 else 8
        got = QL._dominant_points(lat, bound)
        want = {tuple(int(c) for c in v.coords) for v in R.dominant_points(lat, bound)}
        assert len(got) == len(set(got)) and set(got) == want, (name, bound)


def test_monoid_basis_agrees_at_small_bounds():
    for name, lat in LATTICES:
        for bound in range(1, 2 * lat.gcm.n + 1):
            assert QL.monoid_basis(lat, bound) == R.monoid_basis(lat, bound), (name, bound)


def test_monoid_basis_agrees_at_classification_bounds():
    """Bound 12 (criterion 2 and the benchmark) up to rank 3, bound 8 at rank 4."""
    by_rank = {3: 0, 4: 0}
    for name, lat in LATTICES:
        rank = lat.gcm.n
        bound = 12 if rank <= 3 else 8
        assert QL.monoid_basis(lat, bound) == R.monoid_basis(lat, bound), (name, bound)
        by_rank[max(rank, 3)] += 1
    assert by_rank == {3: 19, 4: 13}


BASES = [(name, basis) for name, lat in LATTICES
         if (basis := QL.monoid_basis(lat, 12)) is not None]
BASES += [(name, C.quadratic_basis(C.FinTypeLabel.parse(name)))
          for name in ("A3", "B2", "B4", "C3", "BC2")]


@st.composite
def heights(draw):
    name, basis = BASES[draw(st.integers(0, len(BASES) - 1))]
    n = len(basis)
    # a partial basis leaves most weights out of its span; a halved element
    # gives the basis matrix a denominator
    keep = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    basis = [basis[k] for k in sorted(keep)]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(basis) - 1))
        basis[k] = basis[k].scale(Q(1, 2))
    if draw(st.booleans()):
        coefs = draw(st.lists(st.integers(-6, 6), min_size=len(basis), max_size=len(basis)))
        lam = C.WeightVec(basis[0].basis_id, (Q(0),) * n)
        for c, b in zip(coefs, basis):
            lam = lam + b.scale(c)
    else:
        denominator = draw(st.sampled_from([1, 1, 2]))
        coords = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        lam = C.WeightVec(basis[0].basis_id, tuple(Q(c, denominator) for c in coords))
    return name, basis, lam


@settings(max_examples=400, deadline=None)
@given(heights())
def test_hgt_agrees(case):
    """`hgt`, and on an integral basis also the integer height form over the
    basis as integer tuples that `is_quadratic` builds, against the solve."""
    name, basis, lam = case
    integral = all(c.denominator == 1 for b in basis for c in b.coords)
    form = QL._height_form([tuple(map(int, b.coords)) for b in basis], len(lam.coords))
    try:
        want = R.hgt(lam, basis)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            QL.hgt(lam, basis)
        if integral:
            with pytest.raises(ValueError, match=str(exc)):
                QL._height(form, lam.coords)
    else:
        assert QL.hgt(lam, basis) == want, name
        if integral:
            assert Q(QL._height(form, lam.coords), form.d) == want, name


def test_intermediate_lattices_agree():
    """The closures of at most two classes against the subset walk, on every
    finite label up to rank 10."""
    for label in FINITE_UP_TO_RANK_10:
        name = str(label)
        got = [(order, lat.generators) for order, lat in QL._intermediate_lattices(label)]
        want = [(order, lat.generators) for order, lat in R.intermediate_lattices(label)]
        assert got == want, name


def _ints(weights) -> list[tuple[int, ...]]:
    """The integer coordinates of integral weights, the form `_dominant_below` yields."""
    return [tuple(int(c) for c in w.coords) for w in weights]


def test_dominant_below_agrees_on_sums_of_two_basis_elements():
    compared = 0
    for name, lat in LATTICES:
        basis = QL.monoid_basis(lat, 12)
        if basis is None:
            continue
        for e, f in itertools.combinations_with_replacement(basis, 2):
            # a half-integral top takes the scaled (d = 2) path of the box
            for top in (e + f, (e + f).scale(Q(1, 2))):
                assert list(QL._dominant_below(lat, top)) == \
                    _ints(R.dominant_below(lat, top)), (name, top)
            compared += 1
    assert compared > 100


RANK5 = [(f"{name} |L/Q|={order}", lat) for name in ("A5", "B5", "C5", "BC5")
         for order, lat in QL._intermediate_lattices(C.FinTypeLabel.parse(name))]


def test_dominant_below_agrees_at_rank_5():
    """The root descent against the whole-box walk below every sum of two
    bound-8 basis elements (and half of it) of every rank-5 lattice with a
    free monoid, in order; on A5 also against the Fraction box."""
    compared = 0
    for name, lat in RANK5:
        basis = QL.monoid_basis(lat, 8)
        if basis is None:
            continue
        for e, f in itertools.combinations_with_replacement(basis, 2):
            for top in (e + f, (e + f).scale(Q(1, 2))):
                got = list(QL._dominant_below(lat, top))
                assert got == _ints(R.dominant_below_box(lat, top)), (name, top)
                if name.startswith("A5"):
                    assert got == _ints(R.dominant_below(lat, top)), (name, top)
            compared += 1
    assert compared == 5 * 15


def test_dominant_below_agrees_on_d5_and_e6():
    """The root descent against the whole-box walk and the pruned walk below
    every omega_i + omega_j of the full weight lattices of D5 and E6 and
    below half of it, in order."""
    listed = {}
    for name in ("D5", "E6"):
        lat = QL.full_weight_lattice(C.FinTypeLabel.parse(name))
        n = lat.gcm.n
        omega = [C.WeightVec(name, tuple(Q(int(i == j)) for j in range(n))) for i in range(n)]
        listed[name] = 0
        for e, f in itertools.combinations_with_replacement(omega, 2):
            for top in (e + f, (e + f).scale(Q(1, 2))):
                got = QL._dominant_below(lat, top)
                assert got == _ints(R.dominant_below_box(lat, top)), (name, top)
                assert got == list(R.dominant_below_walk(lat, top)), (name, top)
                listed[name] += len(got)
    assert listed == {"D5": 68, "E6": 169}


def _shared_walk_cases():
    """(name, lattice, basis) for every lattice of LATTICES with a monoid basis
    at bound 12, and the full weight lattices of D5 and E6 with the omega_i."""
    for name, lat in LATTICES:
        basis = QL.monoid_basis(lat, 12)
        if basis is not None:
            yield name, lat, basis
    for name in ("D5", "E6"):
        lat = QL.full_weight_lattice(C.FinTypeLabel.parse(name))
        yield name, lat, QL.monoid_basis(lat, 1)


def test_one_walk_per_lattice_agrees_with_the_per_top_descent():
    """Each pair of basis elements, in `is_quadratic`'s order and with the
    seen set of the pairs before it, lists the per-top reference down-set
    of e + f less the union of the earlier down-sets, in the reference
    order; so its first weight of height above 2 is the reference's."""
    lattices = pairs = listed = walked = 0
    for name, lat, basis in _shared_walk_cases():
        steps, seen, union = QL._root_steps(lat.gcm), set(), set()
        for e, f in itertools.combinations_with_replacement(basis, 2):
            want = R.dominant_below_descent(lat, e + f)
            top = tuple(int(c) for c in (e + f).coords)
            got = QL._descend(steps, top, seen)
            assert got == [v for v in want if v not in union], (name, top)
            union.update(want)
            assert seen == union, (name, top)
            pairs += 1
            listed += len(got)
            walked += len(want)
        lattices += 1
    # 22 of the 32 lattices have a monoid basis at bound 12
    assert (lattices, pairs, listed, walked) == (22 + 2, 124 + 15 + 21, 301, 969)


def test_minuscule_leq_agrees_on_every_e7_pair():
    p = S.e7_minuscule()
    assert len(p) == 56
    for i, j in itertools.product(range(len(p)), repeat=2):
        assert p.leq(i, j) == R.minuscule_leq(p, i, j), (i, j)
    for i, w in enumerate(R.minuscule_weights(p)):
        assert list(p.depth[i]) == [int(c) for c in p.real.root_coords(p.highest - w)], i
        assert p.d_degree(i) == p.depth[i][0]


def _minuscule_cases():
    for name, nodes in (("A1", [0]), ("A3", [0, 1, 2]), ("A4", [0, 1, 2, 3]), ("C3", [0]),
                        ("D4", [0, 2, 3]), ("D5", [0, 3, 4]), ("E6", [0, 5])):
        label = C.FinTypeLabel.parse(name)
        for node in nodes:
            yield f"{name}@{node}", S.minuscule_poset(label, node)
    yield "E7", S.e7_minuscule()
    for name in ("flip-sl2", "flip-sl3", "flip-sl4"):
        yield name, S.MinusculePoset(I.AmbientCase(name).amb.real, 0)


def test_minuscule_order_lowering_and_pair_counts_agree():
    for name, p in _minuscule_cases():
        n = len(p)
        leq = [[R.minuscule_leq(p, i, j) for j in range(n)] for i in range(n)]
        assert [[p.leq(i, j) for j in range(n)] for i in range(n)] == leq, name
        for i, node in itertools.product(range(n), range(p.real.n)):
            assert p.lower(i, node) == R.minuscule_lower(p, i, node), (name, i, node)
        assert S.count_standard_pairs(p) == R.count_standard_pairs(leq), name


def test_minuscule_depths_agree():
    compared = 0
    for name, p in _minuscule_cases():
        want = R.minuscule_depths(p)
        weights = R.minuscule_weights(p)
        assert [want[w.coords] for w in weights] == p.depth, name
        orbit = WR.orbit_bfs(p.real, range(p.real.n), p.highest)
        assert {(w.coords, w.delta) for w in weights} == orbit, name
        compared += len(p)
    assert compared == (2 + (4 + 6 + 4) + (5 + 10 + 10 + 5) + 6 + 3 * 8 + (10 + 16 + 16)
                        + 2 * 27 + 56 + (6 + 20 + 70))


def _diagonal_lattices():
    """Every lattice sum of m_i Z omega_i between Q and P: m_i divides the
    gcd g_i of column i of the root rows."""
    for name in ["A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4", "B5", "C2", "C3", "C4",
                 "BC1", "BC2", "BC3", "D4", "G2", "F4"]:
        label = C.FinTypeLabel.parse(name)
        rows = CR.root_rows(C.build_cartan(label))
        n = len(rows)
        gcds = [math.gcd(*(int(row[j]) for row in rows)) for j in range(n)]
        for ms in itertools.product(*([m for m in range(1, g + 1) if g % m == 0]
                                      for g in gcds)):
            gens = [C.WeightVec(name, tuple(m if j == i else 0 for j in range(n)))
                    for i, m in enumerate(ms)]
            yield f"{name} m={ms}", QL.SubLattice(label, gens)


def test_monoid_basis_on_diagonal_lattices_agrees():
    seen = set()
    for name, lat in _diagonal_lattices():
        ms = tuple(lat._hnf[i][i] for i in range(lat.gcm.n))
        for bound in range(0, 6):
            assert QL.monoid_basis(lat, bound) == R.monoid_basis(lat, bound), (name, bound)
            seen.add(max(ms) > bound)
    assert seen == {True, False}


NON_DIAGONAL = [(name, lat) for name, lat in LATTICES
                if any(x for i, row in enumerate(lat._hnf) for x in row[i + 1:])]


def test_monoid_basis_agrees_on_non_diagonal_lattices_at_every_bound():
    """The search that stops at its first double factorization against the
    full reference search, at every bound from 1 to 12."""
    assert len(NON_DIAGONAL) == 10
    for name, lat in NON_DIAGONAL:
        for bound in range(1, 13):
            assert QL.monoid_basis(lat, bound) == R.monoid_basis(lat, bound), (name, bound)


def test_d4_index_2_searches_list_no_point_above_height_4(monkeypatch):
    """Each D4 index-2 lattice shows a double factorization at height 4, so
    its search at bound 12 lists the points up to heights 1, 2 and 4 only."""
    bounds = []

    def points(lat, bound):
        bounds.append(bound)
        return dominant_points(lat, bound)

    dominant_points = QL._dominant_points
    monkeypatch.setattr(QL, "_dominant_points", points)
    lattices = [lat for order, lat in QL._intermediate_lattices(C.FinTypeLabel("D", 4))
                if order == 2]
    assert len(lattices) == 3
    for lat in lattices:
        bounds.clear()
        assert QL.monoid_basis(lat, 12) is None
        assert bounds == [1, 2, 4]


def test_minuscule_posets_and_e7_straightening_match_the_golden_file():
    """The standard-pair counts of every poset above, the linear extension of
    the E7 system and the normal form of every x_k y_k on it, as recorded
    from the Fraction-weight poset with a componentwise depth order."""
    golden = json.loads((Path(__file__).parent / "golden" /
                         "minuscule_straighten.json").read_text())
    assert {name: list(S.count_standard_pairs(p)) for name, p in _minuscule_cases()} == \
        golden["standard_pairs"]
    sys_, xs, ys = S.e7_system()
    assert (xs, ys) == (golden["e7_x"], golden["e7_y"])
    assert sorted(sys_.lin, key=sys_.lin.get) == golden["e7_lin"]
    for k in range(6):
        nf = S.straighten((xs[k], ys[k]), sys_)
        assert [[list(m), str(c)] for m, c in sorted(nf.items())] == \
            golden["e7_straighten"][f"x{k},y{k}"], k
