"""The integer rho-image Weyl kernel against the Fraction reference kernel.

Random words on a finite, an affine, a restricted-tier (delta coefficient 2)
and an indefinite GCM: both kernels must give the same reduced words,
equalities, left descents, minimal coset words, Bruhat comparisons, and
the covers of a coset interval (read off its letter drops against the
pairwise search, and its memoised drop images against imaging every drop
from scratch).  The integer orbit search
must give the Fraction one's orbit, under the delta cap on the affine and
the tier realization, and the same cap error on the indefinite one.
The second half guards against reductions leaking between Realizations.
"""

import gc
import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import weyl_reference as R
from smt_kit import cartan as C, extend as X, weyl as W
from smt_kit.caps import CAPS


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


@st.composite
def cases(draw, max_len=7):
    name = draw(st.sampled_from(sorted(REALIZATIONS)))
    n = REALIZATIONS[name].n
    word = st.lists(st.integers(0, n - 1), max_size=max_len)
    parabolic = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return name, draw(word), draw(word), parabolic


@settings(max_examples=150, deadline=None)
@given(cases())
def test_kernels_agree(case):
    name, u_letters, v_letters, parabolic = case
    real = REALIZATIONS[name]
    u, v = W.WeylWord(real, u_letters), W.WeylWord(real, v_letters)
    ru, rv = R.WeylWord(real, u_letters), R.WeylWord(real, v_letters)
    assert u.reduce() == ru.reduce() and v.reduce() == rv.reduce()
    assert (u == v) == (ru == rv)
    assert u.left_descent() == ru.left_descent()
    assert W.bruhat_leq(u, v) == R.bruhat_leq(ru, rv)
    assert W.bruhat_leq(v, u) == R.bruhat_leq(rv, ru)
    cu, cv = W.CosetRep(u, parabolic), W.CosetRep(v, parabolic)
    rcu, rcv = R.CosetRep(ru, parabolic), R.CosetRep(rv, parabolic)
    assert cu.word.letters == rcu.word.letters and cv.word.letters == rcv.word.letters
    assert (cu == cv) == (rcu == rcv)
    assert W.bruhat_leq(cu, cv) == R.bruhat_leq(rcu, rcv)
    assert W.bruhat_leq(cv, cu) == R.bruhat_leq(rcv, rcu)


@settings(max_examples=100, deadline=None)
@given(cases(max_len=6))
def test_interval_covers_agree(case):
    name, _, v_letters, parabolic = case
    top = W.CosetRep(W.WeylWord(REALIZATIONS[name], v_letters), parabolic)
    poset = W.coset_interval(top)
    covers = [(poset.elements[j], b) for b, below in zip(poset, poset.lower_covers)
              for j, _ in below]
    assert covers == R.covers(poset)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_interval_agrees_with_the_drop_walk(case):
    """The memoised drop images against imaging every drop from rho_J:
    the same cosets in the same order, the same covers with the same
    letter positions, the same down-sets."""
    name, u_letters, v_letters, parabolic = case
    top = W.CosetRep(W.WeylWord(REALIZATIONS[name], u_letters + v_letters), parabolic)
    poset, walk = W.coset_interval(top), R.drop_walk(top)
    assert [c.word.letters for c in poset] == [c.word.letters for c in walk]
    assert poset.elements == walk.elements
    assert (poset.lower_covers, poset.down) == (walk.lower_covers, walk.down)


def test_longest_parabolic_agrees():
    for name, real in REALIZATIONS.items():
        for size in range(1, 3):
            for nodes in itertools.combinations(range(real.n), size):
                if name == "indefinite" and size == 2:
                    continue                       # infinite group
                new = W.longest_parabolic(real, nodes)
                assert new.letters == R.longest_parabolic(real, nodes).letters


@st.composite
def orbit_starts(draw):
    """A start weight with integral, half or third coordinates; a delta cap
    of 0 to 3 above the start's |delta| on the affine and tier realizations,
    a small weight cap on the indefinite one (most of its orbits are
    infinite); the weight cap is the one of the table otherwise."""
    name = draw(st.sampled_from(sorted(REALIZATIONS)))
    real = REALIZATIONS[name]
    part = st.sampled_from([Fraction(k, q) for q in (1, 2, 3) for k in range(-2 * q, 2 * q + 1)])
    coords = draw(st.lists(part, min_size=real.n, max_size=real.n))
    start = real.weight(coords, draw(part))
    gens = sorted(draw(st.sets(st.integers(0, real.n - 1), min_size=1)))
    if name in ("C2^(1)", "tier(C2)"):
        cap = abs(start.delta) + Fraction(draw(st.integers(0, 6)), 2)
        return real, gens, start, {"delta_cap": cap}, CAPS["orbit_weights"]
    if name == "indefinite":
        return real, gens, start, {}, draw(st.integers(1, 60))
    return real, gens, start, {}, CAPS["orbit_weights"]


def _orbit_or_error(kernel, real, gens, start, kwargs):
    try:
        return kernel(real, gens, start, **kwargs)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(orbit_starts())
def test_orbit_bfs_agrees(case):
    real, gens, start, kwargs, cap = case
    with mock.patch.dict(CAPS, orbit_weights=cap):
        got = _orbit_or_error(W.orbit_bfs, real, gens, start, kwargs)
    assert got == _orbit_or_error(R.orbit_bfs, real, gens, start, {**kwargs, "cap": cap})
    if isinstance(got, set):
        assert all(type(c) is Fraction for coords, delta in got for c in coords + (delta,))


def _bfs_lengths(gcm):
    """Length of every element of a finite Weyl group, by breadth-first
    search over the Fraction orbit of rho, keyed by that image."""
    real = C.Realization(gcm, "bfs")
    rho = real.rho()
    dist = {rho: 0}
    frontier = [rho]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(real.n):
                im = real.reflect(i, v)
                if im not in dist:
                    dist[im] = dist[v] + 1
                    nxt.append(im)
        frontier = nxt
    return real, dist


WORDS = [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1), (0, 1, 0, 1),
         (1, 0, 1, 0, 1), (0, 1, 0, 1, 0, 1), (1, 1, 0, 1, 0, 0), (0, 1, 0, 1, 0, 1, 0)]


def test_no_reductions_leak_between_realizations():
    """Many short-lived Realizations of two groups, none kept alive: each
    must reduce the fixed words to their brute-force lengths.  C2 and G2
    share the matrix row of node 0, and some of their elements act alike
    on the fundamental weights (s_1 s_0 s_1 in C2 and s_1 s_0 s_1 s_0 s_1 in
    G2), so a reduction cached under a reused id would give a wrong length."""
    expected = {}
    for name in ("C2", "G2"):
        gcm = C.build_cartan(C.FinTypeLabel.parse(name))
        real, dist = _bfs_lengths(gcm)
        assert len(dist) == {"C2": 8, "G2": 12}[name]
        expected[name] = (gcm, [dist[real.act_letters(w, real.rho())] for w in WORDS])
    for k in range(2000):
        name = ("C2", "G2")[k % 2]
        gcm, lengths = expected[name]
        real = C.Realization(gcm, name)
        assert [W.WeylWord(real, w).length() for w in WORDS] == lengths
        del real
        if k % 500 == 0:
            gc.collect()
    containers = [name for name, value in vars(W).items()
                  if not name.startswith("__") and isinstance(value, (dict, list, set))]
    assert containers == []


def test_reference_reduce_is_bounded_on_a_singular_realization():
    """Without a delta node the simple roots of C2^(1) are linearly
    dependent, the reference descent test reads signs of a solve that sets
    the free coordinate to zero, and its reduction used to run forever."""
    real = C.Realization(C.build_affine_cartan("C2^(1)"), "C2aff-singular")
    with pytest.raises(AssertionError, match=r"no reduction within len\(word\) steps"):
        R.WeylWord(real, (0, 1, 0, 1, 0)).reduce()
