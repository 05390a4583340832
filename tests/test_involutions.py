"""Catalog rows, the weight dictionary, and ambient/tier compatibility."""

from fractions import Fraction as Q

import pytest

from smt_kit import cartan as C, extend as X, involutions as I, weyl as W

import cartan_reference as CR
import involutions_reference as IR


def test_lookup_rows():
    rec = I.lookup("flip-sl3")
    assert rec.restricted == C.FinTypeLabel("A", 2) and rec.isogeny == "SC"
    rec = I.lookup("flip-sp4")
    assert rec.restricted == C.FinTypeLabel("C", 2) and rec.implemented
    rec = I.lookup("flip-so-odd5")
    assert rec.restricted == C.FinTypeLabel("B", 2) and rec.isogeny == "ADJ"
    # B-type quadratic basis doubles the last node on both copies
    assert [w.coords for w in rec.weight_map] == [(1, 0, 1, 0), (0, 2, 0, 2)]
    rec = I.lookup("sym-quadrics4")
    assert rec.restricted == C.FinTypeLabel("A", 3)
    assert [w.coords for w in rec.weight_map] == [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    rec = I.lookup("e6-f4")
    assert rec.restricted == C.FinTypeLabel("A", 2) and not rec.implemented
    with pytest.raises(KeyError):
        I.lookup("no-such-family7")


def test_lookup_refuses_a_number_after_a_parameterless_family():
    """A row without a parameter keeps its own restricted rank: a trailing
    number raises a KeyError that names the family."""
    plain = [row for row in I._catalog() if not row["param"]]
    assert {row["key"] for row in plain} == {"e6-so10", "e6-f4", "e7-e6", "f4-so9"}
    for row in plain:
        assert I.lookup(row["key"]).restricted.rank == int(row["restricted_rank"])
        for suffix in ("3", "-3", "-5"):
            with pytest.raises(KeyError, match=f"^'{row['key']} takes no parameter'$"):
                I.lookup(row["key"] + suffix)


def test_restricted_to_ambient():
    """The reference sum of the weight map, which the tests compare
    `AmbientCase.dim_eps_sum` with."""
    rec = I.lookup("flip-sp4")
    v = IR.restricted_to_ambient(rec, [1, 0])
    assert v.coords == (1, 0, 1, 0)
    assert IR.restricted_to_ambient(rec, [0, 0]) == C.WeightVec("C2+C2", (0, 0, 0, 0))
    with pytest.raises(ValueError):
        IR.restricted_to_ambient(I.lookup("sp-gl3"), [1, 0, 0])


def test_quadratic_verdicts():
    assert I.quadratic_verdict(I.lookup("flip-sl3"))       # (A, SC)
    assert I.quadratic_verdict(I.lookup("flip-so-odd7"))   # (B, ADJ)
    assert I.quadratic_verdict(I.lookup("flip-sp6"))       # (C, SC)
    assert I.quadratic_verdict(I.lookup("sl-grassmannian2"))  # (BC,*)
    # a hypothetical D row would fail
    fake = I.InvolutionRecord("fake", "D4", "x", C.FinTypeLabel("D", 4), "SC", False)
    assert not I.quadratic_verdict(fake)


def test_catalog_rows_all_quadratic():
    for row in I._catalog():
        if not row["param"]:
            rec = I.lookup(row["key"])
        else:
            for n in (3, 4, 5, 2):
                try:
                    rec = I.lookup(row["key"] + str(n))
                    break
                except KeyError:
                    continue
        assert I.quadratic_verdict(rec), row["key"]


def test_flip_dimension_multiplicative():
    case = I.AmbientCase("flip-sp4")
    c2 = C.build_cartan(C.FinTypeLabel("C", 2))
    r = C.Realization(c2, "C2")
    for i in (1, 2):
        single = C.weyl_dim(c2, r.fundamental(i - 1))
        assert case.dim_eps_sum([i]) == single ** 2


def test_flip_so_odd_lifts():
    from smt_kit.weyl import tau_hat
    case = I.AmbientCase("flip-so-odd5")
    for m in range(case.rank + 1):
        amb = case.tau_hat_lift(m).act(case.amb.e_omega0())
        tier = tau_hat(m, case.tier).act(case.tier.e_omega0())
        assert case.split_to_tier(amb) == tier
    b2 = C.build_cartan(C.FinTypeLabel("B", 2))
    r = C.Realization(b2, "B2")
    assert case.dim_eps_sum([2]) == C.weyl_dim(b2, r.weight((0, 2))) ** 2


def test_tau_lifts_reject_m_outside_0_to_rank():
    case = I.AmbientCase("flip-sl2")
    assert case.tau_hat_lift(case.rank).act(case.amb.e_omega0()) is not None
    for m in (-1, 2, 9):
        for lift in (case.tau_hat_lift, case.tau_lift, case.tau_coset):
            with pytest.raises(ValueError, match=f"m out of range: {m} not in 0..1"):
                lift(m)


def test_lift_of_a_word_with_a_letter_out_of_range_names_it():
    """A tier word with a letter outside 0..n-1 is refused with a ValueError
    that names the letter and the range, before its key can alias the
    identity; n is the tier's rank plus one."""
    case = I.AmbientCase("flip-sl2")
    tier = case.tier.real
    for letters in ((-1,), (tier.n,), (0, 1, -1), (tier.n + 5, -2)):
        bad = next(i for i in letters if not 0 <= i < tier.n)
        with pytest.raises(ValueError, match=rf"^letter {bad} out of range 0\.\.{tier.n - 1}$"):
            case.lift(W.WeylWord(tier, letters))
    assert case.lift(W.WeylWord(tier, (0, 1))).length() > 0


def test_ambient_reduction_matches_tier():
    # twice the split image of each ambient simple root is the tier root
    for name in ("flip-sl2", "flip-sl3", "flip-sp4", "sym-quadrics3",
                 "flip-so-odd5"):
        case = I.AmbientCase(name)
        tier = case.tier.real
        for i in range(case.rank + 1):
            amb_root = CR.simple_root(case.amb.real, case.fibres[i][0])
            assert case.split_to_tier(amb_root).scale(2) == CR.simple_root(tier, i), (name, i)


def test_extension_invariants():
    # symmetrizable and of the right class for every supported family
    for fam, rk in (("A", 3), ("B", 3), ("C", 3), ("D", 4), ("BC", 3)):
        datum = X.extend_restricted(C.FinTypeLabel(fam, rk))
        assert C.symmetrizer(datum.extended) is not None
        if fam == "A":
            assert datum.classification == C.FINITE
        else:
            assert datum.classification == C.AFFINE


def test_extend_ambient_zero_weight():
    base = C.build_cartan(C.FinTypeLabel("A", 2))
    datum = X.extend_ambient(base, C.WeightVec("A2", (Q(0), Q(0))))
    assert datum.extended.entries[0] == (2, 0, 0)
    assert all(datum.extended.entries[i][0] == 0 for i in (1, 2))
    with pytest.raises(ValueError):
        X.extend_ambient(base, C.WeightVec("A2", (Q(-1), Q(0))))


def test_extend_ambient_rank1_double():
    base = C.build_cartan(C.FinTypeLabel("A", 1))
    datum = X.extend_ambient(base, C.WeightVec("A1", (Q(2),)))
    assert datum.extended.entries == ((2, -2), (-1, 2))
    assert C.gcm_equiv(datum.extended, C.build_affine_cartan("A2^(2)")) is False
    # single node with <eps, a^vee> = 2 is the finite C_2 shape
    assert C.identify_label(datum.extended) == "C2"


def test_affine_cross_check_table():
    # the stored affine matrices agree with the extension rule up to relabeling
    pairs = [("C2^(1)", ("C", 2)), ("A2^(2)", ("B", 1)), ("A4^(2)", ("BC", 2)),
             ("A3^(2)", ("D", 2)), ("A5^(2)", ("D", 3))]
    for name, (fam, rk) in pairs:
        stored = C.build_affine_cartan(name)
        derived = X.extend_restricted(C.FinTypeLabel(fam, rk)).extended
        assert C.gcm_equiv(stored, derived), name


def test_non_involutive_summand_permutation_refused():
    # sigma = -P is an involution only if P is; a 3-cycle of summands is not
    with pytest.raises(ValueError, match="not an involution"):
        I._diagram_permutation("A1+A1+A1", [1, 2, 0])
    assert I._diagram_permutation("A1+A1+A1", [1, 0, 2]) == (1, 0, 2)
    assert I._diagram_permutation("C2+C2", [1, 0]) == (2, 3, 0, 1)
