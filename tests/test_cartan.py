"""Cartan matrices, classification, dominance and the dimension formula."""

import itertools
from fractions import Fraction as Q

import pytest

from smt_kit import cartan as C, extend as X

A2 = C.FinTypeLabel("A", 2)
C2 = C.FinTypeLabel("C", 2)


def lab(s):
    return C.FinTypeLabel.parse(s)


def test_build_cartan_examples():
    assert C.build_cartan(A2).entries == ((2, -1), (-1, 2))
    assert C.build_cartan(C2).entries == ((2, -1), (-2, 2))
    bc1 = C.build_cartan(lab("BC1"))
    assert bc1.entries == ((2,),) and bc1.nonreduced_nodes == frozenset({0})
    assert C.build_cartan(lab("B3")).entries == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    # BC matches B except for the marker
    assert C.build_cartan(lab("BC3")).entries == C.build_cartan(lab("B3")).entries


def test_is_gcm():
    assert C.is_gcm([[2]])
    assert not C.is_gcm([[2, -1], [0, 2]])     # asymmetric zero pattern
    assert not C.is_gcm([[2, 1], [1, 2]])      # positive off-diagonal
    with pytest.raises(ValueError):
        C.GCM(((2, -1), (0, 2)))


def test_symmetrizer():
    assert C.symmetrizer(C.build_cartan(A2)) == [1, 1]
    d = C.symmetrizer(C.build_cartan(C2))
    m = C.build_cartan(C2).entries
    assert sorted(d) == [1, 2]
    assert all(d[i] * m[i][j] == d[j] * m[j][i] for i in range(2) for j in range(2))
    # odd cycle with mismatched products is not symmetrizable
    witness = C.GCM(((2, -1, -2), (-1, 2, -1), (-1, -1, 2)))
    assert C.symmetrizer(witness) is None
    with pytest.raises(ValueError):
        C.classify(witness)


def test_classify():
    assert C.classify(C.build_cartan(lab("C3"))) == C.FINITE
    assert C.classify(C.build_affine_cartan("C2^(1)")) == C.AFFINE
    assert C.classify(C.GCM(((2, -3), (-3, 2)))) == C.INDEFINITE
    for name in ("A2", "B4", "C3", "D4", "E6", "E7", "E8", "F4", "G2", "BC2"):
        assert C.classify(C.build_cartan(lab(name))) == C.FINITE
    for name in ("C2^(1)", "C4^(1)", "A2^(2)", "A4^(2)", "A3^(2)", "A5^(2)", "A7^(2)"):
        assert C.classify(C.build_affine_cartan(name)) == C.AFFINE


def test_classify_cache_matches_uncached():
    tier = X.extend_restricted(lab("C2")).real.gcm
    for m in (C.build_cartan(lab("F4")), C.build_affine_cartan("C2^(1)"), tier,
              C.GCM(((2, -3), (-3, 2)))):
        for _ in range(2):
            assert C.classify(m) == C.classify.__wrapped__(m)
    # a raised error is not cached: every call raises again
    witness = C.GCM(((2, -1, -2), (-1, 2, -1), (-1, -1, 2)))
    for _ in range(3):
        with pytest.raises(ValueError, match="non-symmetrizable"):
            C.classify(witness)


def test_affine_orientation():
    a22 = C.build_affine_cartan("A2^(2)")
    assert a22.entries == ((2, -4), (-1, 2))
    for name in ("C3^(1)", "A4^(2)", "A5^(2)"):
        m = C.build_affine_cartan(name)
        assert all(m.entries[i][0] in (0, -1) for i in range(1, m.n))


def test_realization_integer_roots():
    m = C.build_affine_cartan("C2^(1)")
    real = C.Realization(m, "C2aff", delta_node=0, delta_coeff=2)
    assert real.int_roots[0] == ((0, 2), (1, -2), (3, 2))
    assert real.int_roots[2] == ((1, -2), (2, 2))
    with pytest.raises(ValueError, match="not an integer"):
        C.Realization(m, "C2aff", delta_node=0, delta_coeff=Q(1, 2))


def test_identify_label():
    assert C.identify_label(C.build_affine_cartan("C2^(1)")) == "C2^(1)"
    assert C.identify_label(C.build_cartan(C2)) == "C2"
    assert C.identify_label(C.GCM(((2, -3), (-3, 2)))) == "indefinite"
    # invariance under permutation
    e6 = C.build_cartan(lab("E6"))
    perm = (3, 0, 5, 2, 1, 4)
    shuffled = C.GCM(tuple(tuple(e6.entries[perm[i]][perm[j]] for j in range(6))
                           for i in range(6)))
    assert C.identify_label(shuffled) == "E6"


def test_dominant_leq():
    gcm = C.build_cartan(lab("C3"))
    w = C.Realization(gcm, "C3")
    eps = [w.fundamental(i) for i in range(3)]
    lam = eps[1]
    assert C.dominant_leq(lam, lam, gcm)
    # eps_i <= eps_1 + eps_{i-1} in the quadratic basis
    assert C.dominant_leq(eps[2], eps[0] + eps[1], gcm)
    # in the B_2 root lattice eps_2 is not below eps_1
    b2 = C.build_cartan(lab("B2"))
    wb = C.Realization(b2, "B2")
    e1, e2 = wb.fundamental(0), wb.weight((0, 2))
    assert not C.dominant_leq(e2, e1, b2)
    aff = C.build_affine_cartan("C2^(1)")
    two = aff.block_sum(aff)                # indefinite, with dependent roots
    zero = C.WeightVec("t", (Q(0),) * two.n)
    with pytest.raises(ValueError, match="linearly independent"):
        C.dominant_leq(zero, zero, two)


def test_dominant_leq_partial_order():
    gcm = C.build_cartan(C2)
    real = C.Realization(gcm, "C2")
    weights = [real.weight(c) for c in itertools.product(range(-1, 3), repeat=2)]
    for a in weights:
        assert C.dominant_leq(a, a, gcm)
    for a, b in itertools.permutations(weights, 2):
        if C.dominant_leq(a, b, gcm) and C.dominant_leq(b, a, gcm):
            assert a == b
    import random
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = rng.sample(weights, 3)
        if C.dominant_leq(a, b, gcm) and C.dominant_leq(b, c, gcm):
            assert C.dominant_leq(a, c, gcm)


def test_weyl_dim():
    real = C.Realization(C.build_cartan(C2), "C2")
    zero = real.weight((0, 0))
    assert C.weyl_dim(C2, zero) == 1
    assert C.weyl_dim(C2, real.fundamental(0)) == 4
    # brute-force oracle for the vector representation: minuscule orbit size
    orbit = {real.fundamental(0).coords}
    frontier = [real.fundamental(0)]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(2):
                im = real.reflect(i, v)
                if im.coords not in orbit:
                    orbit.add(im.coords)
                    nxt.append(im)
        frontier = nxt
    assert len(orbit) == 4

    e7 = C.build_cartan(lab("E7"))
    re7 = C.Realization(e7, "E7")
    assert C.weyl_dim(e7, re7.fundamental(0)) == 133
    assert C.weyl_dim(e7, re7.fundamental(6)) == 56

    with pytest.raises(ValueError):
        C.weyl_dim(lab("BC2"), C.WeightVec("BC2", (Q(1), Q(0))))
    with pytest.raises(ValueError):
        C.weyl_dim(C2, real.weight((-1, 0)))
    # a coordinate count other than the rank is refused, not zipped short
    for coords in ((1,), (1, 0, 5)):
        with pytest.raises(ValueError, match="coordinates given, 2 expected"):
            real.weight(coords)
        with pytest.raises(ValueError, match="coordinates given, 2 expected"):
            C.weyl_dim(C2, C.WeightVec("C2", coords))


def test_finite_roots_are_integer_and_counted():
    counts = {"A4": 10, "B4": 16, "D4": 12, "G2": 6, "F4": 24, "E7": 63}
    for name, count in counts.items():
        roots = C.finite_roots(C.build_cartan(lab(name)))
        assert len(roots) == count, name
        assert all(type(x) is int for pair in roots for vec in pair for x in vec), name


def test_quadratic_basis():
    assert [w.coords for w in C.quadratic_basis(A2)] == [(1, 0), (0, 1)]
    assert [w.coords for w in C.quadratic_basis(lab("B2"))] == [(1, 0), (0, 2)]
    assert [w.coords for w in C.quadratic_basis(lab("B1"))] == [(2,)]
    with pytest.raises(ValueError):
        C.quadratic_basis(lab("D4"))


def test_weightvec_coordinate_counts_must_match():
    a, b = C.WeightVec("A2", (1, 0)), C.WeightVec("A2", (1,))
    for op in (lambda: a + b, lambda: b - a):
        with pytest.raises(ValueError, match="2 vs 1|1 vs 2"):
            op()
    with pytest.raises(ValueError, match="2 vs 1"):
        C.dominant_leq(a, b, C.build_cartan(lab("A2")))


def test_weightvec_json_roundtrip():
    v = C.WeightVec("X", (Q(1, 2), Q(-3)), Q(2, 7))
    assert v.to_json() == {"basis": "X", "coords": ["1/2", "-3"], "delta": "2/7"}
    g = C.build_affine_cartan("A4^(2)")
    assert C.GCM.from_json(g.to_json()) == g


def test_labels():
    with pytest.raises(ValueError):
        C.FinTypeLabel("E", 5)
    with pytest.raises(ValueError):
        C.FinTypeLabel("C", 1)
    assert str(C.FinTypeLabel.parse("BC3")) == "BC3"
    for text in ("", "  ", "_"):
        with pytest.raises(ValueError, match="empty type label"):
            C.FinTypeLabel.parse(text)
