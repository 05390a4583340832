"""LS paths: validation, enumeration, standardness, lifting, tensor rule."""

import itertools
import random
from fractions import Fraction as Q
from unittest import mock

import pytest

from smt_kit import cartan as C, involutions as I, lspath as L, weyl as W
from smt_kit.caps import CAPS

import lspath_reference as LR


def model(name, coords):
    gcm = C.build_cartan(C.FinTypeLabel.parse(name))
    real = C.Realization(gcm, name)
    lam = real.weight([Q(c) for c in coords])
    J = L.stabilizer_nodes(lam)
    top = W.CosetRep(W.longest_parabolic(real, range(real.n)), J)
    return gcm, real, lam, top


def tau_hat_coset(case, m):
    return W.CosetRep(case.tau_hat_lift(m), case.grassmann_parabolic())


def test_straight_path_is_ls():
    gcm, real, lam, top = model("A2", (1, 1))
    for c in W.coset_interval(top):
        assert LR.is_lspath(LR.straight_path(lam, c))


def test_bad_cut_rejected():
    gcm, real, lam, top = model("A2", (1, 0))
    poset = W.coset_interval(top)
    chain = sorted(poset.elements, key=lambda c: c.length())
    # pairing along the minuscule chain is 1, so an interior 1/2 cut fails
    cand = L.LSPath(lam, (chain[1], chain[0]), (Q(0), Q(1, 2), Q(1)))
    assert not LR.is_lspath(cand)


def test_is_lspath_brute_force_count():
    # all candidates over the coset chain of shape rho in A_2: accepted = dim
    gcm, real, lam, top = model("A2", (1, 1))
    poset = W.coset_interval(top)
    els = poset.elements
    count = 0
    cuts_pool = [Q(n, d) for d in (2, 3) for n in range(1, d)]
    for r in (1, 2):
        for dirs in itertools.permutations(els, r):
            if r == 1:
                count += LR.is_lspath(L.LSPath(lam, dirs, (Q(0), Q(1))))
                continue
            for a in sorted(set(cuts_pool)):
                cand = L.LSPath(lam, dirs, (Q(0), a, Q(1)))
                count += LR.is_lspath(cand)
    assert count == C.weyl_dim(gcm, lam) == 8


def test_is_lspath_refuses_a_repeated_or_rising_direction():
    """A cut value exists only from a coset down to a strictly lower one, so
    the cut check alone refuses a repeated direction; a direction that does
    not lie below the first gives False, not a KeyError."""
    gcm, real, lam, top = model("B2", (1, 1))
    paths = [p for p in L.enumerate_paths(lam, top) if len(p.dirs) == 2]
    assert paths
    for p in paths:
        assert LR.is_lspath(p)
        upper, lower = p.dirs
        for dirs in ((upper, upper), (lower, lower), (lower, upper)):
            assert not LR.is_lspath(L.LSPath(lam, dirs, p.cuts)), dirs
        # a third direction repeating the last, with a valid cut pattern
        cuts = (Q(0), p.cuts[1] / 2, p.cuts[1], Q(1))
        assert not LR.is_lspath(L.LSPath(lam, (upper, upper, lower), cuts))
        assert not LR.is_lspath(L.LSPath(lam, (upper, lower, lower), cuts))


def test_enumerate_bottom_coset():
    gcm, real, lam, _ = model("C2", (1, 1))
    bottom = W.CosetRep(W.WeylWord(real, ()), L.stabilizer_nodes(lam))
    paths = L.enumerate_paths(lam, bottom)
    assert len(paths) == 1 and len(paths[0].dirs) == 1


def test_d_degree():
    case = I.AmbientCase("flip-sp4")
    om = case.amb.e_omega0()
    straight = LR.straight_path(om, W.CosetRep(W.WeylWord(case.amb.real, ()),
                                               case.grassmann_parabolic()))
    assert L.d_degree(straight) == 0
    for i in range(3):
        p = LR.straight_path(om, tau_hat_coset(case, i))
        assert L.d_degree(p) == i
    # additivity over concatenation = additivity of the root coefficient
    p1 = LR.straight_path(om, tau_hat_coset(case, 1))
    p2 = LR.straight_path(om, tau_hat_coset(case, 2))
    total = (om.scale(2) - p1.endpoint() - p2.endpoint())
    coords = case.amb.real.root_coords(total)
    assert coords[0] == L.d_degree(p1) + L.d_degree(p2)


def test_is_G_dominant():
    case = I.AmbientCase("flip-sp4")
    om = case.amb.e_omega0()
    straight = LR.straight_path(om, W.CosetRep(W.WeylWord(case.amb.real, ()),
                                               case.grassmann_parabolic()))
    assert L.is_G_dominant(straight)
    bad = LR.straight_path(om, W.CosetRep(W.WeylWord(case.amb.real, (1, 0)),
                                          case.grassmann_parabolic()))
    assert not L.is_G_dominant(bad)


def test_path_leq_and_mutual():
    gcm, real, lam, top = model("C2", (0, 1))
    paths = L.enumerate_paths(lam, top)
    for p, q in itertools.product(paths, repeat=2):
        if L.path_leq(p, q) and L.path_leq(q, p):
            assert len(p.dirs) == len(q.dirs) == 1 and p == q
    with pytest.raises(ValueError):
        L.path_leq(paths[0], LR.straight_path(real.weight((1, 0)),
                                              W.CosetRep(W.WeylWord(real, ()),
                                                         frozenset({1}))))


def test_standard_below_single_factor():
    case = I.AmbientCase("flip-sp4")
    for i in (1, 2):
        for p in case.base_paths(i):
            assert L.is_standard_below((p,), [i])


def test_lift_straight_paths():
    case = I.AmbientCase("flip-sp4")
    for i in (1, 2):
        real = case.base_realization()
        shape = case.eps_base_weight(i)
        straight = LR.straight_path(shape,
                                    W.CosetRep(W.WeylWord(real, ()),
                                               L.stabilizer_nodes(shape)))
        lifted = case.lift_to_grassmannian(straight, i)
        assert LR.is_lspath(lifted)
        assert lifted.dirs == (tau_hat_coset(case, i),)
        assert L.d_degree(lifted) == i


def test_lifts_are_ls_paths():
    case = I.AmbientCase("flip-sp4")
    for i in (1, 2):
        for p in case.base_paths(i):
            assert LR.is_lspath(case.lift_to_grassmannian(p, i))


def test_tensor_rule_c2_table():
    gcm = C.build_cartan(C.FinTypeLabel("C", 2))
    real = C.Realization(gcm, "C2")
    funds = [real.fundamental(0), real.fundamental(1)]
    for lam, mu in itertools.product(funds, repeat=2):
        total = 0
        for coords in itertools.product(range(5), repeat=2):
            nu = real.weight([Q(c) for c in coords])
            m = L.tensor_multiplicity(lam, mu, nu, gcm)
            total += m * C.weyl_dim(gcm, nu)
        assert total == C.weyl_dim(gcm, lam) * C.weyl_dim(gcm, mu)
    # highest component always multiplicity one
    assert L.tensor_multiplicity(funds[0], funds[1],
                                 funds[0] + funds[1], gcm) == 1


def test_weight_multisets_match_demazure():
    from collections import Counter
    for name, coords, word in (("A2", (1, 1), ()), ("C2", (0, 1), (1, 0)),
                               ("B3", (0, 0, 1), (2, 1, 0))):
        gcm, real, lam, _ = model(name, coords)
        w = W.WeylWord(real, word) if word else \
            W.longest_parabolic(real, range(real.n))
        top = W.CosetRep(w, L.stabilizer_nodes(lam))
        paths = L.enumerate_paths(lam, top)
        got = Counter((p.endpoint().coords, p.endpoint().delta) for p in paths)
        want = Counter(dict(W.demazure_character(w, lam)))
        assert got == +want, name


def test_tensor_rule_c3_chain():
    # multiplicity one of eps_{i+1} in eps_1 (x) eps_i along the whole chain
    gcm = C.build_cartan(C.FinTypeLabel("C", 3))
    real = C.Realization(gcm, "C3")
    w = [real.fundamental(i) for i in range(3)]
    assert L.tensor_multiplicity(w[0], w[0], w[1], gcm) == 1
    assert L.tensor_multiplicity(w[0], w[1], w[2], gcm) == 1


def test_enumeration_cap_diagnostic():
    gcm, real, lam, top = model("A2", (1, 1))
    with mock.patch.dict(CAPS, coset_interval=2), pytest.raises(ValueError):
        L.enumerate_paths(lam, top)
    import os
    os.environ["SMT_KIT_CAP"] = "2"
    try:
        with pytest.raises(ValueError):
            L.enumerate_paths(lam, top)
    finally:
        del os.environ["SMT_KIT_CAP"]


def test_cut_denominator_cap_diagnostic():
    # an interior cut of denominator 3 exists for shape 3*omega in rank one;
    # capping below that must raise rather than silently drop paths
    gcm, real, lam, top = model("A1", (3,))
    assert len(L.enumerate_paths(lam, top)) == 4
    with mock.patch.dict(CAPS, cut_denominator=2), pytest.raises(ValueError):
        L.enumerate_paths(lam, top)


def test_cut_denominator_cap_names_cap_and_denominator():
    gcm, real, lam, top = model("A1", (3,))
    with mock.patch.dict(CAPS, cut_denominator=2), \
            pytest.raises(ValueError, match=r"^cut denominator cap exceeded: cap=2, "
                                            r"denominator 3 reached$"):
        L.enumerate_paths(lam, top)


def test_tensor_requires_finite():
    aff = C.build_affine_cartan("C2^(1)")
    v = C.WeightVec("x", (Q(1), Q(0), Q(0)))
    with pytest.raises(ValueError):
        L.tensor_multiplicity(v, v, v, aff)


def test_coset_interval_cap_names_cap_and_size():
    gcm, real, lam, top = model("A2", (1, 1))
    with mock.patch.dict(CAPS, coset_interval=5), \
            pytest.raises(ValueError, match=r"^coset interval cap exceeded: "
                                            r"cap=5, 6 cosets reached$"):
        L.enumerate_paths(lam, top)
    with mock.patch.dict(CAPS, coset_interval=6):
        assert len(W.coset_interval(top)) == 6


def test_chain_data_cap_zero_is_a_cap():
    # cap=0 is a cap of zero cosets, not the default
    gcm, real, lam, top = model("A2", (1, 1))
    bottom = W.CosetRep(W.WeylWord(real, ()), L.stabilizer_nodes(lam))
    for t in (top, bottom):
        with mock.patch.dict(CAPS, coset_interval=0), \
                pytest.raises(ValueError, match=r"^coset interval cap exceeded: cap=0, "):
            L.ChainData(lam, t)


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", " 7", "²"])
def test_smt_kit_cap_must_be_a_positive_integer(value, monkeypatch):
    gcm, real, lam, top = model("A2", (1, 1))
    monkeypatch.setenv("SMT_KIT_CAP", value)
    with pytest.raises(ValueError) as err:
        L.enumerate_paths(lam, top)
    assert str(err.value) == f"SMT_KIT_CAP={value!r}: expected a positive integer"


def test_smt_kit_cap_positive_integer(monkeypatch):
    gcm, real, lam, top = model("A2", (1, 1))
    monkeypatch.setenv("SMT_KIT_CAP", "6")
    assert len(L.enumerate_paths(lam, top)) == 8
    monkeypatch.setenv("SMT_KIT_CAP", "5")
    with pytest.raises(ValueError, match=r"^coset interval cap exceeded: cap=5, "):
        L.enumerate_paths(lam, top)


def test_interval_order_questions_make_no_bruhat_walk(monkeypatch):
    """The interval's down-set table answers every order question on it:
    `CosetPoset.leq` on every pair, a `GradedCounts` with its comparability
    table, `is_lspath` on every path of B2 at rho and the whole `prop47`
    suite call `bruhat_leq` (in lspath and weyl) not once; the suite made
    28 calls when `CosetPoset.leq` walked a reduced word."""
    from smt_kit import criteria, smt as S
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    for module in (L, W):
        monkeypatch.setattr(module, "bruhat_leq", counted(module.bruhat_leq))
    _, _, lam, top = model("B2", (1, 1))
    poset = W.coset_interval(top)
    # dihedral of order 8: u <= v iff u = v or l(u) < l(v)
    assert sum(poset.leq(a, b) for a in poset for b in poset) == 33
    assert all(LR.is_lspath(p) for p in L.enumerate_paths(lam, top))
    S.GradedCounts(I.AmbientCase("flip-sp4"), 2)
    assert all(row["pass"] for row in criteria.prop47())
    assert calls == []
    L.bruhat_leq(top, top)
    assert len(calls) == 1                  # the counter is live


def test_chain_data_reads_covers_off_the_letter_drops(monkeypatch):
    """Building a ChainData makes no pairwise Bruhat search and expands no
    weight difference: `bruhat_leq` (in lspath and weyl),
    `Realization.root_coords` and `Realization.is_real_root` are never
    called, below tau_2 of flip-sp4 and for G2 at rho."""
    case = I.AmbientCase("flip-sp4")
    _, _, rho, g2_top = model("G2", (1, 1))
    builds = [(case.amb.e_omega0(), case.tau_coset(2)), (rho, g2_top)]
    calls = dict.fromkeys(("bruhat_leq", "root_coords", "is_real_root"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (L, W):
        monkeypatch.setattr(module, "bruhat_leq", counted("bruhat_leq", module.bruhat_leq))
    for name in ("root_coords", "is_real_root"):
        monkeypatch.setattr(L.Realization, name, counted(name, getattr(L.Realization, name)))
    for shape, top in builds:
        data = L.ChainData(shape, top)
        assert any(data._covers_below.values())
    assert calls == {"bruhat_leq": 0, "root_coords": 0, "is_real_root": 0}
    # the counters are live
    L.bruhat_leq(g2_top, g2_top)
    g2_top.real.root_coords(rho)
    g2_top.real.is_real_root(rho)
    assert calls == {"bruhat_leq": 1, "root_coords": 1, "is_real_root": 1}


# (type, shape coordinates, Weyl dimension): the path models at scale
SCALE_MODELS = [("E6", (0, 1, 0, 0, 0, 0), 78), ("F4", (0, 0, 0, 1), 26),
                ("D5", (0, 1, 0, 0, 0), 45), ("A4", (1, 1, 1, 1), 1024),
                ("B3", (1, 1, 1), 512)]


@pytest.mark.parametrize("name,coords,dim", SCALE_MODELS)
def test_path_counts_at_scale_are_weyl_and_demazure_dimensions(name, coords, dim):
    """Below the longest coset the paths number dim V(lam); below three
    random Schubert cosets they number the Demazure dimension."""
    gcm, real, lam, top = model(name, coords)
    assert C.weyl_dim(gcm, lam) == dim
    assert len(L.enumerate_paths(lam, top)) == dim
    rng = random.Random(f"{name}{coords}")
    for _ in range(3):
        word = W.WeylWord(real, [rng.randrange(real.n) for _ in range(rng.randint(3, 12))])
        coset = W.CosetRep(word, L.stabilizer_nodes(lam))
        assert len(L.enumerate_paths(lam, coset)) == W.demazure_dim(word, lam), word
