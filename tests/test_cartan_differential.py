"""The integer weight kernels against the Fraction reference kernels.

Demazure characters, simple-root expansions, reflections, the real-root
test and Weyl dimensions on a finite, an affine, a restricted-tier (delta
coefficient 2), an indefinite and a singular realization (an affine matrix
without a delta node): the integer-tuple character loop, the integer left
inverse, the integer reflection, the integer height descent and the
integer product must give exactly what the Fraction code they replaced
gives, and the integer Demazure dimension
must be the sum of the character's multiplicities.  On weights with a zero
coordinate `demazure_dim` runs along the minimal coset representative, and
must still give the sum of the reference character, which runs along w;
so it must below tau_2 of flip-sp4 (degrees 1-3) and tau_3 of flip-sp6.  The dominance order on
A-BC, D4, G2, F4, the non-singular indefinite type and three affine types,
through the one cached integer root inverse per GCM (with its delta slot),
must agree with the per-call solve on random weight pairs, and on the
affine types that inverse must give the root coordinates of the standard
realization.
The positive-root closure must list the positive roots of the full closure
on every finite type up to E8, F4 and G2, and the integer characteristic
polynomial and sign classification must agree with the Fraction ones on
random integer matrices and random GCMs (finite, affine, indefinite and
non-symmetrizable).  The integer left inverse must read the solution of
`linalg.solve` on random square, rectangular and singular integer
matrices, and refuse exactly the systems the solve finds inconsistent.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cartan_reference as CR
import weyl_reference as WR
from smt_kit import cartan as C, extend as X, involutions as I, linalg, smt as S, weyl as W

Q = Fraction


def _finite(name):
    return C.Realization(C.build_cartan(C.FinTypeLabel.parse(name)), name)


REALIZATIONS = {
    "B3": _finite("B3"),
    "G2": _finite("G2"),
    "C2^(1)": C.Realization.standard(C.build_affine_cartan("C2^(1)"), "C2aff"),
    "tier(C2)": X.extend_restricted(C.FinTypeLabel("C", 2)).real,
    "indefinite": C.Realization(C.GCM(((2, -3), (-3, 2))), "hyp33"),
    "singular": C.Realization(C.build_affine_cartan("C2^(1)"), "C2sing"),
}
assert REALIZATIONS["tier(C2)"].delta_coeff == 2
assert REALIZATIONS["singular"].delta_node is None

HALVES = st.integers(-6, 6).map(lambda k: Q(k, 2))


def _reference_word(name, word):
    """The reference kernel's word.  Its descent test expands roots over the
    simple roots, which the singular realization cannot do uniquely (the
    reference reduction does not terminate there); the same Coxeter group
    has the standard affine realization, whose reduced word serves."""
    real = REALIZATIONS[name]
    if name != "singular":
        return WR.WeylWord(real, word)
    reduced = WR.WeylWord(REALIZATIONS["C2^(1)"], word).reduce()
    w = W.WeylWord(real, reduced)
    assert w.reduce() == reduced
    return w


@st.composite
def characters(draw):
    name = draw(st.sampled_from(sorted(REALIZATIONS)))
    n = REALIZATIONS[name].n
    word = draw(st.lists(st.integers(0, n - 1), max_size=5))
    coords = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return name, word, coords, draw(HALVES)


@settings(max_examples=120, deadline=None)
@given(characters())
def test_demazure_characters_agree(case):
    name, word, coords, delta = case
    real = REALIZATIONS[name]
    lam = real.weight(coords, delta)
    new = W.demazure_character(W.WeylWord(real, word), lam)
    old = WR.demazure_character(_reference_word(name, word), lam)
    assert list(new.items()) == list(old.items())
    assert all(type(c) is Fraction for coords, delta in new for c in coords + (delta,))


@settings(max_examples=120, deadline=None)
@given(characters())
def test_demazure_dim_is_the_sum_of_the_character(case):
    name, word, coords, delta = case
    real = REALIZATIONS[name]
    w, lam = W.WeylWord(real, word), real.weight(coords, delta)
    assert W.demazure_dim(w, lam) == sum(W.demazure_character(w, lam).values())


@st.composite
def stabilized_characters(draw):
    """A `characters` case whose weight has at least one zero coordinate, so
    that its stabilizer is a nonempty parabolic."""
    name, word, coords, delta = draw(characters())
    coords[draw(st.integers(0, len(coords) - 1))] = 0
    return name, word, coords, delta


@settings(max_examples=150, deadline=None)
@given(stabilized_characters())
def test_demazure_dim_on_the_coset_is_the_reference_sum(case):
    """`demazure_dim` runs along the minimal representative of w W_lam; the
    reference character runs along a reduced word of w itself."""
    name, word, coords, delta = case
    real = REALIZATIONS[name]
    lam = real.weight(coords, delta)
    want = sum(WR.demazure_character(_reference_word(name, word), lam).values())
    assert W.demazure_dim(W.WeylWord(real, word), lam) == want


@settings(max_examples=150, deadline=None)
@given(stabilized_characters())
def test_coset_subword_is_the_minimal_representative(case):
    """The subword of w's reduced word that `demazure_dim` runs along is a
    reduced word of the minimal representative that `CosetRep` peels."""
    name, word, coords, _ = case
    real = REALIZATIONS[name]
    w = W.WeylWord(real, word)
    J = [j for j, c in enumerate(coords) if c == 0]
    rep = W.CosetRep(w, J)
    sub = W.WeylWord(real, W.coset_subword(w, J))
    assert sub.length() == len(sub.letters) == rep.length()
    assert W.CosetRep(sub, J) == rep


@pytest.mark.parametrize("name, m, degrees", [("flip-sp4", 2, (1, 2, 3)),
                                              ("flip-sp6", 3, (1,))])
def test_demazure_dim_below_tau_is_the_reference_sum(name, m, degrees):
    """n e_omega_0 is fixed by the base nodes that pair to zero with it, so
    the coset word of tau_m is strictly shorter than its reduced word."""
    case = I.AmbientCase(name)
    w, om = case.tau_lift(m), case.amb.e_omega0()
    stabilizer = [j for j, c in enumerate(om.coords) if c == 0]
    assert len(W.CosetRep(w, stabilizer).word.letters) < len(w.reduce())
    for n in degrees:
        lam = om.scale(n)
        want = sum(WR.demazure_character(WR.WeylWord(w.real, w.letters), lam).values())
        assert W.demazure_dim(w, lam) == want == S.expected(case, m, n, "S")


@st.composite
def expansions(draw):
    """A weight in the span (an integral or half-integral combination of the
    simple roots) or an arbitrary, possibly out-of-span, weight."""
    name = draw(st.sampled_from(sorted(REALIZATIONS)))
    real = REALIZATIONS[name]
    n = real.n
    if draw(st.booleans()):
        v = real.weight([0] * n)
        for i, c in enumerate(draw(st.lists(HALVES, min_size=n, max_size=n))):
            v = v + CR.simple_root(real, i).scale(c)
    else:
        v = real.weight(draw(st.lists(HALVES, min_size=n, max_size=n)), draw(HALVES))
    return name, v


@settings(max_examples=300, deadline=None)
@given(expansions())
def test_root_coords_agree(case):
    name, v = case
    real = REALIZATIONS[name]
    assert real.root_coords(v) == CR.root_coords(real, v)


WEIGHT_PARTS = st.one_of(HALVES, st.integers(-6, 6).map(lambda k: Q(k, 3)))


@st.composite
def reflections(draw):
    name = draw(st.sampled_from(sorted(REALIZATIONS)))
    real = REALIZATIONS[name]
    coords = draw(st.lists(WEIGHT_PARTS, min_size=real.n, max_size=real.n))
    return real, draw(st.integers(0, real.n - 1)), real.weight(coords, draw(WEIGHT_PARTS))


@settings(max_examples=300, deadline=None)
@given(reflections())
def test_reflect_agrees(case):
    real, i, v = case
    assert real.reflect(i, v) == CR.reflect(real, i, v)


@st.composite
def root_candidates(draw):
    """k * w(alpha_i) for a random word w, or a weight from `expansions`."""
    name = draw(st.sampled_from(sorted(REALIZATIONS)))
    real = REALIZATIONS[name]
    if draw(st.booleans()):
        word = draw(st.lists(st.integers(0, real.n - 1), max_size=6))
        alpha = CR.simple_root(real, draw(st.integers(0, real.n - 1)))
        k = draw(st.sampled_from([Q(1), Q(-1), Q(2), Q(-2), Q(1, 2)]))
        return name, real.act_letters(word, alpha).scale(k)
    return draw(expansions())


@settings(max_examples=300, deadline=None)
@given(root_candidates())
def test_is_real_root_agrees(case):
    name, v = case
    real = REALIZATIONS[name]
    assert real.is_real_root(v) == CR.is_real_root(real, v)


def test_root_coords_out_of_span_and_singular():
    """delta is outside the span of a finite type's roots and of a
    realization without a delta node; the singular matrix leaves one
    coordinate free, which both kernels set to zero."""
    for name in ("B3", "G2", "indefinite", "singular"):
        real = C.Realization(REALIZATIONS[name].gcm, name)
        assert real.root_coords(real.delta()) is None
        assert CR.root_coords(real, real.delta()) is None
    sing = C.Realization(C.build_affine_cartan("C2^(1)"), "fresh")
    alpha = [CR.simple_root(sing, i) for i in range(3)]
    v = alpha[0].scale(Q(1, 2)) + alpha[1].scale(3)
    assert sing.root_coords(v) == CR.root_coords(sing, v) == (Q(1, 2), 3, 0)
    w = v + alpha[2]                        # alpha_2 = -alpha_0 - 2 alpha_1
    assert sing.root_coords(w) == CR.root_coords(sing, w) == (Q(-1, 2), 1, 0)
    assert sing.root_coords(sing.fundamental(0)) is None
    assert CR.root_coords(sing, sing.fundamental(0)) is None


DOMINANCE_GCMS = {name: C.build_cartan(C.FinTypeLabel.parse(name))
                  for name in ["A1", "A3", "A4", "B2", "B3", "C3", "BC1", "BC2", "BC3",
                               "D4", "G2", "F4"]}
DOMINANCE_GCMS["hyp33"] = REALIZATIONS["indefinite"].gcm
# a marked column with an odd entry: its halved root rows need the scale 2
DOMINANCE_GCMS["C2-marked"] = C.GCM(C.build_cartan(C.FinTypeLabel("C", 2)).entries, {1})
AFFINE_NAMES = ["C2^(1)", "A4^(2)", "A5^(2)"]
DOMINANCE_GCMS.update((name, C.build_affine_cartan(name)) for name in AFFINE_NAMES)


@st.composite
def dominance_pairs(draw):
    """(lam, mu) with mu - lam a random combination of the simple roots
    (mostly nonnegative integers, sometimes a negative or a half) or an
    arbitrary half-integral weight, now and then with a delta part; on an
    affine type the combination carries the delta of its node-0 root."""
    name = draw(st.sampled_from(sorted(DOMINANCE_GCMS)))
    gcm = DOMINANCE_GCMS[name]
    n = gcm.n
    lam = C.WeightVec(name, tuple(draw(st.lists(HALVES, min_size=n, max_size=n))))
    delta = draw(st.sampled_from([0, 0, 0, 1]))
    if draw(st.booleans()):
        rows = CR.root_rows(gcm)
        ks = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, -1, Q(1, 2)]),
                           min_size=n, max_size=n))
        diff = tuple(sum(k * rows[i][j] for i, k in enumerate(ks)) for j in range(n))
        if name in AFFINE_NAMES:
            delta += ks[0]
    else:
        diff = tuple(draw(st.lists(HALVES, min_size=n, max_size=n)))
    return gcm, lam, C.WeightVec(name, tuple(a + b for a, b in zip(lam.coords, diff)), delta)


@settings(max_examples=400, deadline=None)
@given(dominance_pairs())
def test_dominant_leq_agrees(case):
    gcm, lam, mu = case
    assert C.dominant_leq(lam, mu, gcm) == CR.dominant_leq(lam, mu, gcm)
    assert C.dominant_leq(mu, lam, gcm) == CR.dominant_leq(mu, lam, gcm)


FINITE_TYPES = [f"{fam}{rank}" for fam, rank in itertools.product("ABCD", range(1, 5))
                if not (fam in "CD" and rank == 1)] + ["G2", "F4", "E7"]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FINITE_TYPES), st.lists(st.integers(0, 3), min_size=7, max_size=7))
def test_weyl_dim_agrees(name, coords):
    label = C.FinTypeLabel.parse(name)
    lam = C.WeightVec(name, tuple(coords[:label.rank]))
    assert C.weyl_dim(label, lam) == CR.weyl_dim(label, lam)


def test_weyl_dim_rejections_agree():
    bc = C.FinTypeLabel("BC", 2)
    for kernel in (C.weyl_dim, CR.weyl_dim):
        with pytest.raises(ValueError):
            kernel(bc, C.WeightVec("BC2", (Q(1), Q(0))))
        with pytest.raises(ValueError):
            kernel(C.FinTypeLabel("C", 2), C.WeightVec("C2", (Q(-1), Q(0))))
        with pytest.raises(ValueError):
            kernel(C.FinTypeLabel("C", 2), C.WeightVec("C2", (Q(1, 2), Q(0))))


ALL_FINITE_TYPES = ([f"{fam}{rank}" for fam in ("A", "B", "C", "D", "BC") for rank in range(1, 9)
                     if not (fam == "C" and rank == 1) and not (fam == "D" and rank < 3)]
                    + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", ALL_FINITE_TYPES)
def test_finite_roots_agree(name):
    gcm = C.build_cartan(C.FinTypeLabel.parse(name))
    got = C.finite_roots.__wrapped__(gcm)
    assert len(got) == len(set(got))
    assert set(got) == set(CR.finite_roots(gcm))


def test_finite_roots_reject_non_finite_types():
    for gcm in (C.build_affine_cartan("C2^(1)"), C.GCM(((2, -3), (-3, 2)))):
        for kernel in (C.finite_roots.__wrapped__, CR.finite_roots):
            with pytest.raises(ValueError, match="finite-type GCM required"):
                kernel(gcm)


@st.composite
def linear_systems(draw):
    """(A, b): an integer m x n matrix, m and n in 1..5, and an integer
    right side, half the time A times an integer vector; a third of the
    matrices get a first row that is a multiple of another row."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.integers(-4, 4)
    a = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    if m > 1 and draw(st.integers(0, 2)) == 0:
        k, j = draw(st.integers(-2, 2)), draw(st.integers(1, m - 1))
        a[0] = [k * y for y in a[j]]
    if draw(st.booleans()):
        x = draw(st.lists(entries, min_size=n, max_size=n))
        b = [sum(r * t for r, t in zip(row, x)) for row in a]
    else:
        b = draw(st.lists(entries, min_size=m, max_size=m))
    return a, b


@settings(max_examples=400, deadline=None)
@given(linear_systems())
def test_left_inverse_reads_the_solution(case):
    a, b = case
    inv = linalg.left_inverse(a)
    want = linalg.solve(a, b)
    got = inv.expand(b)
    if want is None:
        assert got is None
    else:
        assert [Q(c, inv.d) for c in got] == want
    assert tuple(inv) == (inv.left, inv.span, inv.d)        # unpacks as (L, C, d)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(AFFINE_NAMES),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=5, max_size=5), st.booleans())
def test_root_inverse_matches_the_standard_realization(name, ks, noise, in_span):
    """On an affine type the one inverse per GCM reads the root coordinates
    of the standard realization: on sums of simple roots, and None on both
    off their span."""
    gcm = DOMINANCE_GCMS[name]
    n = gcm.n
    real = C.Realization.standard(gcm, name)
    x = [0] * (n + 1)
    for i, k in enumerate(ks[:n]):
        for j, a in real.int_roots[i]:
            x[j] += k * a
    if not in_span:
        x = [t + e for t, e in zip(x, noise)]
    by_gcm, by_real = C.root_inverse(gcm), real.inverse
    got, want = by_gcm.expand(x), by_real.expand(x)
    assert (got is None) == (want is None)
    if got is not None:
        assert [Q(c, by_gcm.d) for c in got] == [Q(c, by_real.d) for c in want]
    if in_span:
        assert [Q(c, by_gcm.d) for c in got] == ks[:n]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_char_poly_agrees(rows):
    got = linalg.char_poly(rows)
    assert got == CR.char_poly([[Q(x) for x in row] for row in rows])
    assert all(type(c) is int for c in got)


@st.composite
def gcms(draw):
    """A random GCM of rank 1-4: each off-diagonal pair is both zero or
    both negative, so many are non-symmetrizable from rank 3 on."""
    n = draw(st.integers(1, 4))
    ent = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            ent[i][j] = -draw(st.integers(1, 4))
            ent[j][i] = -draw(st.integers(1, 4))
    return C.GCM(tuple(map(tuple, ent)))


NAMED_GCMS = ([C.build_cartan(C.FinTypeLabel.parse(name)) for name in ALL_FINITE_TYPES]
              + [C.build_affine_cartan(name) for name in
                 ("C2^(1)", "C3^(1)", "A2^(2)", "A4^(2)", "A6^(2)", "A3^(2)", "A5^(2)")]
              + [X.extend_restricted(C.FinTypeLabel.parse(name)).extended
                 for name in ("A2", "B3", "C3", "BC2")]
              + [REALIZATIONS["indefinite"].gcm])


@settings(max_examples=300, deadline=None)
@given(gcms())
def test_classify_agrees(gcm):
    try:
        want = CR.classify(gcm)
    except ValueError as exc:
        assert str(exc) == "non-symmetrizable GCM"
        with pytest.raises(ValueError, match="^non-symmetrizable GCM$"):
            C.classify.__wrapped__(gcm)
        return
    assert C.classify.__wrapped__(gcm) == want


def test_classify_agrees_on_named_gcms():
    kinds = {CR.classify(gcm) for gcm in NAMED_GCMS}
    assert kinds == {C.FINITE, C.AFFINE, C.INDEFINITE}
    assert all(C.classify.__wrapped__(gcm) == CR.classify(gcm) for gcm in NAMED_GCMS)
    witness = C.GCM(((2, -1, -2), (-1, 2, -1), (-1, -1, 2)))
    with pytest.raises(ValueError, match="^non-symmetrizable GCM$"):
        C.classify.__wrapped__(witness)
    with pytest.raises(ValueError, match="^non-symmetrizable GCM$"):
        CR.classify(witness)


def test_classify_agrees_on_the_elimination_branches():
    """One GCM per way the elimination ends: a second null direction, a
    null direction beside a definite block, a negative pivot, and a zero
    diagonal left with a nonzero off-diagonal entry (the hyperbolic matrix
    4I - 2J, whose Schur complement after one pivot is (0 -8; -8 0))."""
    c2_1, a4_2 = C.build_affine_cartan("C2^(1)"), C.build_affine_cartan("A4^(2)")
    cases = [(c2_1.block_sum(a4_2), C.INDEFINITE),
             (c2_1.block_sum(C.build_cartan(C.FinTypeLabel("A", 2))), C.AFFINE),
             (C.GCM(((2, -3), (-3, 2))), C.INDEFINITE),
             (C.GCM(((2, -2, -2), (-2, 2, -2), (-2, -2, 2))), C.INDEFINITE)]
    for gcm, want in cases:
        assert CR.classify(gcm) == want
        assert C.classify.__wrapped__(gcm) == want


def test_classify_computes_no_characteristic_polynomial(monkeypatch):
    def refuse(rows):
        raise AssertionError("classify called linalg.char_poly")

    monkeypatch.setattr(linalg, "char_poly", refuse)
    assert {C.classify.__wrapped__(gcm) for gcm in NAMED_GCMS} == \
        {C.FINITE, C.AFFINE, C.INDEFINITE}
