"""Weyl words, Bruhat order, cosets, Demazure characters, special elements."""

import itertools
import random
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from smt_kit import cartan as C, extend as X, involutions as I, weyl as W
from smt_kit.caps import CAPS

import cartan_reference as CR
import involutions_reference as R
import weyl_reference as WR


def real_of(name):
    gcm = C.build_cartan(C.FinTypeLabel.parse(name))
    return C.Realization(gcm, name)


def test_act_identity_and_longest():
    real = real_of("A2")
    lam = real.weight((1, 1))
    assert W.WeylWord(real, ()).act(lam) == lam
    w0 = W.longest_parabolic(real, range(2))
    # brute force over the 6-element group
    elements = {W.WeylWord(real, w).key: w for n in range(4)
                for w in itertools.product(range(2), repeat=n)}
    assert len(elements) == 6
    assert w0.act(real.fundamental(0)) == -real.fundamental(1)


def test_tier_s0_action():
    datum = X.extend_restricted(C.FinTypeLabel("C", 2))
    om = datum.e_omega0()
    img = W.WeylWord(datum.real, (0,)).act(om)
    assert img == datum.e_eps(1) - om - datum.real.delta()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=6), st.lists(st.integers(0, 2), max_size=6))
def test_act_is_group_action(u_letters, v_letters):
    real = real_of("B3")
    lam = real.weight((1, 2, 3))
    u, v = W.WeylWord(real, u_letters), W.WeylWord(real, v_letters)
    assert (u * v).act(lam) == u.act(v.act(lam))


def test_reduce_idempotent_and_minimal():
    real = real_of("C2")
    # brute-force shortest words in the order-8 group
    shortest = {}
    for n in range(9):
        for w in itertools.product(range(2), repeat=n):
            k = W.WeylWord(real, w).key
            shortest.setdefault(k, len(w))
    rng = random.Random(0)
    for _ in range(50):
        letters = [rng.randrange(2) for _ in range(rng.randint(0, 8))]
        ww = W.WeylWord(real, letters)
        red = ww.reduce()
        assert len(red) == shortest[ww.key]
        again = W.WeylWord(real, red)
        assert again.reduce() == red
        assert again == ww


def test_affine_reduce():
    real = C.Realization.standard(C.build_affine_cartan("C2^(1)"), "C2aff")
    w = W.WeylWord(real, (0, 1, 0, 0, 1, 2, 2, 0))
    red = W.WeylWord(real, w.reduce())
    assert red == w and len(red.letters) <= 8


def test_longest_parabolic_refuses_an_infinite_parabolic(monkeypatch):
    """The affine Weyl group of C2^(1), a hyperbolic rank-2 group and the
    group of a non-symmetrizable GCM are infinite: each is refused off its
    matrix, naming the nodes, before any letter is taken.  The finite
    parabolic C2 inside C2^(1) is four letters long, and no node at all
    gives the identity."""
    affine = C.Realization.standard(C.build_affine_cartan("C2^(1)"), "C2aff")
    hyperbolic = C.Realization(C.GCM(((2, -3), (-3, 2))), "H")
    skew = C.Realization(C.GCM(((2, -1, -1), (-2, 2, -1), (-1, -1, 2))), "S")
    assert C.symmetrizer(skew.gcm) is None
    assert len(W.longest_parabolic(affine, {1, 2}).letters) == 4
    assert W.longest_parabolic(hyperbolic, ()).letters == ()

    def no_walk(*args):
        raise AssertionError("letter walk on an infinite parabolic")

    monkeypatch.setattr(C.Realization, "image", no_walk)
    for real, nodes, named in ((affine, {2, 0, 1}, "0, 1, 2"), (hyperbolic, range(2), "0, 1"),
                               (skew, (2, 1, 0), "0, 1, 2")):
        with pytest.raises(ValueError, match=rf"^longest_parabolic: nodes \[{named}\] "
                                             r"are not of finite type$"):
            W.longest_parabolic(real, nodes)


def test_coset_rep_minimality():
    real = real_of("A3")
    w = W.longest_parabolic(real, range(3))
    c = W.CosetRep(w, {1, 2})
    # no right descent in J: w^{-1}(rho) is positive on J
    inverse = W.WeylWord(real, tuple(reversed(c.word.letters)))
    assert all(inverse.key[0][j] > 0 for j in (1, 2))
    lam = real.weight((0, 1, 1))  # stabilizer parabolic {0}? no: zero coords -> {0}
    found = WR.coset_from_weight(real, frozenset({0}), lam, w.act(lam))
    c2 = W.CosetRep(W.WeylWord(real, found.word.letters), {0})
    assert c2.word.act(lam) == w.act(lam)


def test_bruhat_and_interval():
    datum = X.extend_restricted(C.FinTypeLabel("C", 2))
    J = frozenset({1, 2})
    taus = [W.CosetRep(W.tau_hat(m, datum), J) for m in range(3)]
    assert W.bruhat_leq(taus[0], taus[1]) and W.bruhat_leq(taus[1], taus[2])
    assert not W.bruhat_leq(taus[2], taus[1])
    e = W.CosetRep(W.WeylWord(datum.real, ()), J)
    assert len(W.coset_interval(e)) == 1
    poset = W.coset_interval(taus[2])
    covers = [(poset.elements[j], b) for b, below in zip(poset, poset.lower_covers)
              for j, _ in below]
    # graded: covers differ by one in length
    for a, b in covers:
        assert b.length() - a.length() == 1
    # the unique coset covered by [tau_hat_2] is [s_0 tau_hat_2]
    top = taus[2]
    covered = [a for a, b in covers if b == top]
    s0tau = W.CosetRep(W.WeylWord(datum.real, (0,) + W.tau_hat(2, datum).letters), J)
    assert covered == [s0tau]


def test_dominant_restriction_members():
    # S+(tau_m) = {[tau_hat_0..m]}: the base-dominant weights below [tau_m]
    case = I.AmbientCase("flip-sp4")
    m = 2
    poset = W.coset_interval(case.tau_coset(m))
    om = case.amb.e_omega0()
    dominant = [c for c in poset
                if all(c.word.act(om).coords[j] >= 0
                       for j in range(1, case.amb.real.n))]
    want = {W.CosetRep(case.tau_hat_lift(h), case.grassmann_parabolic()).key
            for h in range(m + 1)}
    assert {c.key for c in dominant} == want


def test_demazure_basics():
    real = real_of("C2")
    lam = real.weight((2, 0))
    assert W.demazure_character(W.WeylWord(real, ()), lam) == {(lam.coords, Q(0)): 1}
    # rank-1 string
    char = W.demazure_character(W.WeylWord(real, (0,)), lam)
    alpha = CR.simple_root(real, 0)
    want = {( (lam - alpha.scale(t)).coords, Q(0)): 1 for t in range(3)}
    assert char == want
    with pytest.raises(ValueError):
        W.demazure_character(W.WeylWord(real, (0,)), real.weight((Q(1, 2), 0)))


def test_demazure_cap_names_value_and_size():
    real = real_of("C2")
    word = W.WeylWord(real, (0,))
    with mock.patch.dict(CAPS, demazure_weights=3):
        assert len(W.demazure_character(word, real.weight((2, 0)))) == 3
    with mock.patch.dict(CAPS, demazure_weights=2), \
            pytest.raises(ValueError, match="demazure_character cap exceeded: cap=2, "
                                            "3 weights at letter 1 of 1"):
        W.demazure_character(word, real.weight((2, 0)))


def test_orbit_cap_names_value_and_size():
    real = real_of("C2")
    with mock.patch.dict(CAPS, orbit_weights=8):
        assert len(W.orbit_bfs(real, range(2), real.rho())) == 8
    with mock.patch.dict(CAPS, orbit_weights=5), \
            pytest.raises(ValueError, match="orbit cap exceeded: cap=5, 5 weights reached"):
        W.orbit_bfs(real, range(2), real.rho())


def test_demazure_dim_flip_sl2():
    # dim Y_{tau_m} = sum of dim V_{eps_i} over i <= m
    case = I.AmbientCase("flip-sl2")
    om = case.amb.e_omega0()
    for m in range(2):
        dims = 1 + sum(case.dim_eps_sum([i]) for i in range(1, m + 1))
        assert W.demazure_dim(case.tau_lift(m), om) == dims


def test_interval_size_vs_demazure_on_minuscule():
    # extremal-weight count below a coset = Demazure dimension when the
    # shape is minuscule (multiplicity-free modules)
    case = I.AmbientCase("flip-sl2")
    om = case.amb.e_omega0()
    for m in range(2):
        c = W.CosetRep(case.tau_hat_lift(m), case.grassmann_parabolic())
        interval = W.coset_interval(c)
        assert len(interval) == W.demazure_dim(case.tau_hat_lift(m), om)


def test_tau_hat_and_orbit():
    for name, rk in (("A", 2), ("C", 2)):
        datum = X.extend_restricted(C.FinTypeLabel(name, rk))
        om = datum.e_omega0()
        reps = [W.tau_hat(m, datum).act(om) for m in range(rk + 1)]
        for m, v in enumerate(reps):
            want = om if m == 0 else datum.e_eps(m) - om
            if m and datum.is_affine():
                want = want - datum.real.delta().scale(m)
            assert v == want
        # BFS orbit of the subgroup on s_0..s_{l-1} contains exactly these
        orbit = W.orbit_bfs(datum.real, range(rk), om, delta_cap=Q(rk + 2))
        dom = {k for k in orbit
               if all(C.WeightVec(datum.real.basis_id, k[0], k[1]).coords[j] >= 0
                      for j in range(1, rk + 1))}
        assert {(v.coords, v.delta) for v in reps} == dom
        with pytest.raises(ValueError):
            W.tau_hat(rk + 1, datum)


def test_lift_restricted_reflection():
    case = I.AmbientCase("flip-sl2")
    w0 = case.reflection_lift(0)
    assert w0.reduce() == (0,)
    # flip SL(2): w_1 acts on split weights as the nontrivial tier reflection
    w1 = case.reflection_lift(1)
    tier = case.tier.real
    v = case.amb.real.fundamental(1)
    assert case.split_to_tier(w1.act(v)) == tier.reflect(1, case.split_to_tier(v))
    # r(w_i) fixes the other tier fundamental weights
    case2 = I.AmbientCase("flip-sp4")
    for i in range(case2.rank + 1):
        wi = case2.reflection_lift(i)
        for h in range(case2.rank + 1):
            if h == i:
                continue
            fund = case2.tier.real.fundamental(h)
            # lift any ambient vector with that split image and compare
            # directly on the tier via the asserted intertwining
            assert case2.tier.real.reflect(i, fund) == fund


def test_cor30_dominant_conjugation():
    # split weights of the ambient lattice conjugate into the tier orbit
    case = I.AmbientCase("flip-sp4")
    amb = case.amb.real
    tier = case.tier.real
    rng = random.Random(3)
    eps_ext = [R.eps_ambient_ext(case, i) for i in (1, 2)]
    for _ in range(6):
        lam = case.amb.e_omega0()
        for e in eps_ext:
            lam = lam + e.scale(rng.randint(-1, 1))
        lam = lam + amb.delta().scale(rng.randint(-1, 1))
        dom, letters = CR.dominant_conjugate(amb, lam)
        # the result stays in the integral split lattice
        nf = X.split_normal_form(case.tier, case.split_to_tier(dom))
        assert all(c.denominator == 1 for c in nf.eps_coords)
        assert nf.gamma.denominator == 1 and nf.delta.denominator == 1
        # and is reachable from the split image by the tier group
        start = case.split_to_tier(lam)
        target = case.split_to_tier(dom)
        cap = max(abs(start.delta), abs(target.delta)) + 3
        orbit = W.orbit_bfs(tier, range(tier.n), start, delta_cap=cap)
        assert (target.coords, target.delta) in orbit
