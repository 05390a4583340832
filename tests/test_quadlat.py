"""Quadratic lattice machinery: heights, monoid bases, classification."""

import json
from fractions import Fraction as Q
from pathlib import Path
from unittest import mock

import pytest

from smt_kit import cartan as C, quadlat as QL
from smt_kit.caps import CAPS


def lab(s):
    return C.FinTypeLabel.parse(s)


def test_hgt():
    b2 = lab("B2")
    basis = C.quadratic_basis(b2)
    assert QL.hgt(basis[0], basis) == 1
    assert QL.hgt(basis[0].scale(0), basis) == 0
    # alpha_1 = 2 eps_1 - eps_2 over (omega_1, 2 omega_2)
    alpha1 = C.WeightVec("B2", (Q(2), Q(-2)))
    assert QL.hgt(alpha1, basis) == 1
    with pytest.raises(ValueError):
        QL.hgt(C.WeightVec("B2", (Q(1), Q(1))), [basis[1]])


def test_monoid_basis():
    P = QL.full_weight_lattice(lab("A2"))
    assert [w.coords for w in QL.monoid_basis(P, 6)] == [(1, 0), (0, 1)]
    Qb2 = QL.root_lattice(lab("B2"))
    assert [w.coords for w in QL.monoid_basis(Qb2, 6)] == [(1, 0), (0, 2)]
    Qa2 = QL.root_lattice(lab("A2"))
    assert QL.monoid_basis(Qa2, 6) is None   # two factorizations of (3,0)+(0,3) vs 3(1,1)


def test_monoid_basis_cap_names_value_and_size():
    P = QL.full_weight_lattice(lab("A2"))
    # the box of A2 at bound 6 holds C(8, 2) = 28 points, the zero point included
    with mock.patch.dict(CAPS, monoid_points=27), \
            pytest.raises(ValueError, match=r"^monoid_basis cap exceeded: cap=27, "
                                            r"box of 28 points at bound 6$"):
        QL.monoid_basis(P, 6)
    with mock.patch.dict(CAPS, monoid_points=28):
        assert [w.coords for w in QL.monoid_basis(P, 6)] == [(1, 0), (0, 1)]


def test_type_a_has_one_lattice_per_divisor():
    """P/Q of A_n is cyclic of order n + 1: one lattice per divisor, of
    that order, also where a walk over the subsets of P/Q could not end."""
    for n in range(1, 41):
        orders = [order for order, _ in QL._intermediate_lattices(lab(f"A{n}"))]
        assert orders == [d for d in range(1, n + 2) if (n + 1) % d == 0], n


def test_monoid_basis_is_fundamental_for_P():
    for name in ("A3", "C3", "BC3"):
        P = QL.full_weight_lattice(lab(name))
        basis = QL.monoid_basis(P, 5)
        assert [w.coords for w in basis] == [tuple(Q(1) if j == i else Q(0)
                                                   for j in range(3))
                                             for i in range(3)]


def test_is_quadratic():
    ok, _ = QL.is_quadratic(QL.full_weight_lattice(lab("A3")), 8)
    assert ok
    ok, rep = QL.is_quadratic(QL.full_weight_lattice(lab("D4")), 8)
    assert not ok
    # the ramification node carries the negative height
    assert rep["certificate"]["simple_root"] == 1
    ok, _ = QL.is_quadratic(QL.root_lattice(lab("B3")), 8)
    assert ok
    with pytest.raises(ValueError):
        QL.is_quadratic(QL.root_lattice(lab("A2")), 6)


def test_bound_below_one_is_an_error_not_a_verdict():
    P = QL.full_weight_lattice(lab("A2"))
    for bound in (0, -1):
        with pytest.raises(ValueError, match=f"got {bound}"):
            QL.is_quadratic(P, bound)
        # only "not free within bound" becomes a verdict
        with pytest.raises(ValueError, match=f"got {bound}"):
            QL.classify_quadratic(lab("A2"), bound)
    with pytest.raises(QL.MonoidNotFree):
        QL.is_quadratic(QL.root_lattice(lab("A2")), 6)
    rows = QL.classify_quadratic(lab("A2"), 6)
    assert rows[1] == ("Q", False, {"bound": 6,
                                    "certificate": "monoid not free within bound"})


def test_bound_below_a_basis_height_is_an_error_not_a_verdict():
    """Q(B2) has the basis (1,0), (0,2); bound 1 reaches only (1,0), and
    fewer irreducibles than the rank can only mean the bound is too small."""
    Q_B2 = QL.root_lattice(lab("B2"))
    with pytest.raises(ValueError, match="height bound 1 too small: 1 irreducible"):
        QL.is_quadratic(Q_B2, 1)
    with pytest.raises(ValueError, match="height bound 1 too small"):
        QL.classify_quadratic(lab("B2"), 1)
    ok, rep = QL.is_quadratic(Q_B2, 2)
    assert ok and rep["basis"] == [["1", "0"], ["0", "2"]]


def test_classify_quadratic_table():
    expected = {
        "A1": {"P": True, "Q": True},
        "A2": {"P": True, "Q": False},
        "A3": {"P": True, "index-2": False, "Q": False},
        "B1": {"P": True, "Q": True},
        "B3": {"P": False, "Q": True},
        "C3": {"P": True, "Q": False},
        "G2": {"P=Q": False},
        "BC2": {"P=Q": True},
    }
    for name, want in expected.items():
        got = {n: v for n, v, _ in QL.classify_quadratic(lab(name), 10)}
        assert got == want, name


# every label of criterion 2 (`criteria.prop5` at its default rank 6) and D5, D6, E6
GOLDEN_LABELS = ([f"{fam}{r}" for fam in ("A", "B", "C", "BC")
                  for r in range(2 if fam == "C" else 1, 7)]
                 + ["D4", "G2", "F4", "D5", "D6", "E6"])


def test_classify_quadratic_reports_match_the_golden_file():
    """The full reports at bound 12 (verdicts, bases and certificates, which
    name the first weight found) against a file written by the pruned-walk,
    full-bound-search code that the root descent and the early stop
    replaced, so neither may change which certificate is chosen."""
    golden = json.loads((Path(__file__).parent / "golden" /
                         "classify_quadratic_bound12.json").read_text())
    assert sorted(golden) == sorted(GOLDEN_LABELS)
    for name in GOLDEN_LABELS:
        rows = QL.classify_quadratic(lab(name), 12)
        assert json.loads(json.dumps(rows)) == golden[name], name


DEFAULT_BOUND_LABELS = ["A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4", "C2", "C3", "C4",
                        "BC1", "BC2", "BC3", "BC4", "G2", "D4", "F4"]


def test_classify_quadratic_reports_at_the_default_bound_match_the_golden_file():
    """The full reports at the command line's default bound, 6 times the
    rank, against a file written by the per-top descent with Fraction
    heights that one walk per lattice replaced."""
    golden = json.loads((Path(__file__).parent / "golden" /
                         "classify_quadratic_default_bound.json").read_text())
    assert list(golden) == DEFAULT_BOUND_LABELS
    for name in DEFAULT_BOUND_LABELS:
        rows = QL.classify_quadratic(lab(name))
        assert {r["bound"] for _, _, r in rows} == {6 * lab(name).rank}, name
        assert json.loads(json.dumps(rows)) == golden[name], name


def test_dominant_below_refuses_a_non_dominant_top():
    lat = QL.full_weight_lattice(lab("A2"))
    with pytest.raises(ValueError, match=r"^top \['2', '-1'\] is not dominant$"):
        QL._dominant_below(lat, C.WeightVec("A2", (Q(2), Q(-1))))
    assert QL._dominant_below(lat, C.WeightVec("A2", (Q(2), Q(0)))) == [(2, 0), (0, 1)]


def test_d4_has_five_lattices():
    rows = QL.classify_quadratic(lab("D4"), 8)
    assert [n for n, _, _ in rows].count("index-2") == 3
    assert all(not v for _, v, _ in rows)


def test_check_lemma7():
    for name in ("A3", "B3", "C3", "BC3"):
        rep = QL.check_lemma7(lab(name))
        assert rep["part_i"] and rep["part_ii"], name
    # B: full chain; C: every other basis element
    b = QL.check_lemma7(lab("B3"))
    assert b["downsets"][3] == [(0, 0, 0), (0, 0, 2), (0, 1, 0), (1, 0, 0)]
    c = QL.check_lemma7(lab("C3"))
    assert c["downsets"][3] == [(0, 0, 1), (1, 0, 0)]
    assert c["downsets"][2] == [(0, 0, 0), (0, 1, 0)]


def test_sublattice_refuses_generators_of_another_rank_or_basis():
    a2 = lab("A2")
    with pytest.raises(ValueError, match=r"^coordinate count mismatch: 3 vs rank 2 of A2$"):
        QL.SubLattice(a2, [C.WeightVec("A2", (1, 0, 0)), C.WeightVec("A2", (0, 1, 0))])
    with pytest.raises(ValueError, match=r"^coordinate count mismatch: 2 vs 3$"):
        QL.SubLattice(a2, [C.WeightVec("A2", (1, 0)), C.WeightVec("A2", (0, 1, 5))])
    with pytest.raises(ValueError, match=r"^basis mismatch: A2 vs X$"):
        QL.SubLattice(a2, [C.WeightVec("A2", (1, 0)), C.WeightVec("X", (0, 1))])
    assert QL.SubLattice(a2, [C.WeightVec("A2", (1, 0)), C.WeightVec("A2", (0, 1))]).basis_id \
        == "A2"


def test_contains_refuses_a_weight_of_another_rank_or_basis():
    lat = QL.full_weight_lattice(lab("A2"))
    with pytest.raises(ValueError, match=r"^coordinate count mismatch: 2 vs 3$"):
        lat.contains(C.WeightVec("A2", (1, 0, 0)))
    with pytest.raises(ValueError, match=r"^basis mismatch: A2 vs B2$"):
        lat.contains(C.WeightVec("B2", (1, 0)))
    assert lat.contains(C.WeightVec("A2", (1, 0)))
    assert not lat.contains(C.WeightVec("A2", (Q(1, 2), 0)))


def test_monoid_basis_refuses_a_negative_bound():
    P = QL.full_weight_lattice(lab("A2"))
    with pytest.raises(ValueError, match=r"^height bound must be nonnegative, got -3$"):
        QL.monoid_basis(P, -3)
    assert QL.monoid_basis(P, 0) == []


def test_sublattice_validation():
    with pytest.raises(ValueError):
        QL.SubLattice(lab("A2"), [C.WeightVec("A2", (Q(1), Q(0))),
                                  C.WeightVec("A2", (Q(2), Q(0)))])
    with pytest.raises(ValueError):
        # fails to contain the root lattice
        QL.SubLattice(lab("A2"), [C.WeightVec("A2", (Q(3), Q(0))),
                                  C.WeightVec("A2", (Q(0), Q(3)))])
