"""The Fraction Weyl kernel that `smt_kit.weyl` replaced, kept as a test oracle.

An element is keyed by the Fraction images of all n fundamental weights
(and their delta coordinates); descents are found by expanding w^{-1}(alpha_i)
over the simple roots with an exact linear solve, and Bruhat order is the
memoised subword recursion.  It is slow but shares no arithmetic with the
integer rho-image kernel, which makes it a differential oracle for
`tests/test_weyl_differential.py`.

The code is the earlier `smt_kit.weyl` kernel with two changes that alter
no answer: the negative-root test that `Realization` used to carry lives
here as `is_negative_root_vec`, on the `linalg.solve` expansion of
`cartan_reference`, and the reduction cache is held per live Realization
(a WeakKeyDictionary) instead of under `id(realization)`, whose reuse after
garbage collection used to return another group's reductions.  Every
action is the Fraction reflection loop `cartan_reference.act_letters`, so
the kernel does not lean on the integer walk of `Realization.act_letters`.
`demazure_character` is the divided-difference loop on Fraction
`WeightVec`s that the integer-tuple loop of `smt_kit.weyl` replaced, and
`coset_from_weight` the capped Fraction reflection loop that the library
once kept (it has no copy now, so the tests that need a coset from a
weight use this one), and `covers` the pairwise search for the covering
pairs that `coset_interval` now records among its letter drops
(`CosetPoset.lower_covers`).  `orbit_bfs` is the orbit search on
Fraction `WeightVec`s that the integer search of `smt_kit.weyl` replaced.
`drop_walk` is the letter-drop walk of `coset_interval` before it
memoised the drop images: every drop is imaged from rho_J through the
whole shortened word, O(l^2) reflections per coset.
"""

from __future__ import annotations

import weakref

import cartan_reference
from cartan_reference import simple_root
from smt_kit import weyl
from smt_kit.cartan import Realization, WeightVec


def is_negative_root_vec(real: Realization, v: WeightVec) -> bool:
    c = cartan_reference.root_coords(real, v)
    return c is not None and all(x <= 0 for x in c) and any(x < 0 for x in c)


class WeylWord:
    """A word in simple reflections of one realization.

    Two words are equal iff their actions on the fundamental weights (and
    delta) agree; reduce() peels left descents against that action.
    """

    def __init__(self, real: Realization, letters):
        self.real = real
        self.letters = tuple(int(i) for i in letters)
        self._key = None
        self._reduced: tuple[int, ...] | None = None

    def _images(self):
        real = self.real
        return tuple(cartan_reference.act_letters(real, self.letters, real.fundamental(j))
                     for j in range(real.n))

    @property
    def key(self):
        if self._key is None:
            self._key = tuple((im.coords, im.delta) for im in self._images())
        return self._key

    def __eq__(self, other):
        return isinstance(other, WeylWord) and self.real is other.real and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"WeylWord({list(self.letters)})"

    def act(self, v: WeightVec) -> WeightVec:
        return cartan_reference.act_letters(self.real, self.letters, v)

    def is_identity(self) -> bool:
        real = self.real
        return all(self.act(real.fundamental(j)) == real.fundamental(j)
                   for j in range(real.n))

    def left_descent(self) -> int | None:
        """Smallest i with length(s_i w) < length(w); None for the identity."""
        real = self.real
        inv = tuple(reversed(self.letters))
        for i in range(real.n):
            image = cartan_reference.act_letters(real, inv, simple_root(real, i))
            if is_negative_root_vec(real, image):
                return i
        return None

    def right_descent_in(self, nodes) -> int | None:
        real = self.real
        for j in sorted(nodes):
            if is_negative_root_vec(real, self.act(simple_root(real, j))):
                return j
        return None

    def reduce(self) -> tuple[int, ...]:
        """A reduced word for the same element (deterministic, idempotent)."""
        if self._reduced is None:
            cache = _reduce_cache.setdefault(self.real, {})
            key = self.key
            if key not in cache:
                out: list[int] = []
                cur = self
                while True:
                    i = cur.left_descent()
                    if i is None:
                        if not cur.is_identity():
                            raise AssertionError("descent-free non-identity element")
                        break
                    out.append(i)
                    if len(out) > len(self.letters):
                        # each genuine descent shortens the element by one
                        raise AssertionError("no reduction within len(word) steps")
                    cur = WeylWord(self.real, (i,) + cur.letters)
                cache[key] = tuple(out)
            self._reduced = cache[key]
        return self._reduced

    def length(self) -> int:
        return len(self.reduce())


_reduce_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def longest_parabolic(real: Realization, nodes, cap: int = 4096) -> WeylWord:
    """Longest element of the (finite) parabolic generated by the given nodes."""
    w = WeylWord(real, ())
    for _ in range(cap):
        j = next((j for j in sorted(nodes)
                  if not is_negative_root_vec(real, w.act(simple_root(real, j)))), None)
        if j is None:
            return WeylWord(real, w.reduce())
        w = WeylWord(real, w.letters + (j,))
    raise ValueError("parabolic not finite within cap")


class CosetRep:
    """Minimal-length representative of w W_J for a parabolic J."""

    def __init__(self, word: WeylWord, parabolic):
        self.parabolic = frozenset(parabolic)
        w = WeylWord(word.real, word.reduce())
        while True:
            j = w.right_descent_in(self.parabolic)
            if j is None:
                break
            w = WeylWord(word.real, WeylWord(word.real, w.letters + (j,)).reduce())
        self.word = w
        self.real = word.real

    @property
    def key(self):
        return (self.word.key, self.parabolic)

    def __eq__(self, other):
        return isinstance(other, CosetRep) and self.real is other.real and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def length(self) -> int:
        return len(self.word.letters)


_COSET_FROM_WEIGHT_CAP = 10000


def coset_from_weight(real: Realization, parabolic, dominant: WeightVec,
                      target: WeightVec) -> CosetRep:
    """The coset whose minimal representative sends `dominant` to `target`,
    by reflecting `target` down one Fraction reflection at a time."""
    cap = _COSET_FROM_WEIGHT_CAP
    v = target
    letters: list[int] = []
    while v != dominant:
        i = next((j for j in range(real.n) if v.coords[j] < 0), None)
        if i is None:
            raise ValueError("target not in the orbit of the dominant weight")
        if len(letters) >= cap:
            raise ValueError(f"coset_from_weight cap exceeded: cap={cap}, "
                             f"{len(letters)} reflections taken")
        v = cartan_reference.reflect(real, i, v)
        letters.append(i)
    return CosetRep(WeylWord(real, tuple(letters)), parabolic)


def bruhat_leq(u, v) -> bool:
    """Bruhat order; on CosetReps compares minimal representatives (subword rule)."""
    if isinstance(u, CosetRep):
        if not isinstance(v, CosetRep) or u.parabolic != v.parabolic:
            raise ValueError("mismatched parabolic")
        u, v = u.word, v.word
    uw, vw = u.reduce(), v.reduce()
    real = u.real
    memo: dict[tuple, bool] = {}

    def leq(u_elem: WeylWord, pos: int) -> bool:
        ul = u_elem.reduce()
        if not ul:
            return True
        if len(ul) > len(vw) - pos:
            return False
        key = (u_elem.key, pos)
        if key not in memo:
            s = vw[pos]
            su = WeylWord(real, (s,) + ul)
            if len(su.reduce()) < len(ul):
                memo[key] = leq(su, pos + 1)
            else:
                memo[key] = leq(u_elem, pos + 1)
        return memo[key]

    return leq(WeylWord(real, uw), 0)


def covers(poset) -> list[tuple]:
    """(lower, upper) pairs of a library `CosetPoset`, by upper then lower:
    every pair at adjacent lengths (W/W_J is graded) compared by the
    subword rule on the reference cosets."""
    def ref(c):
        return CosetRep(WeylWord(c.real, c.word.letters), c.parabolic)

    return [(a, b) for b in poset.elements for a in poset.elements
            if a.length() == b.length() - 1 and bruhat_leq(ref(a), ref(b))]


def drop_walk(v, cap: int = 10 ** 6):
    """The library `CosetPoset` of the cosets <= the library coset v, found
    by the breadth-first walk that images every letter drop of every coset
    from scratch and keys it by `CosetRep.key`; more than `cap` cosets raise
    the library's ValueError."""
    real, parabolic = v.real, v.parabolic
    rho_j = weyl._rho_j(real, parabolic)
    seen = {v.key: v}
    drops: dict[tuple, list[tuple[int, tuple]]] = {}
    frontier = [v]
    while frontier:
        nxt = []
        for c in frontier:
            word = c.word.letters
            covered = drops[c.key] = []
            for p in range(len(word)):
                letters = word[:p] + word[p + 1:]
                image = real.image(letters, rho_j)
                key = ((tuple(image[:-1]), image[-1]), parabolic)
                sub = seen.get(key)
                if sub is None:
                    sub = seen[key] = weyl.CosetRep(weyl.WeylWord(real, letters), parabolic)
                    nxt.append(sub)
                if sub.length() == len(word) - 1:
                    covered.append((p, key))
            if len(seen) > cap:
                raise ValueError(f"coset interval cap exceeded: cap={cap}, "
                                 f"{len(seen)} cosets reached")
        frontier = nxt
    return weyl.CosetPoset(seen, drops)


def demazure_character(w, lam: WeightVec) -> dict[tuple, int]:
    """Weight multiplicities of the Demazure module generated from e^lam.

    Applies D_i f = (f - e^{-alpha_i} s_i f) / (1 - e^{-alpha_i}) along a
    reduced word of w, rightmost letter first.  Keys are (coords, delta)
    tuples; lam must pair integrally with every simple coroot.
    """
    real = w.real
    if not all(c.denominator == 1 for c in lam.coords):
        raise ValueError("integral weight required for divided differences")
    char: dict[tuple, int] = {(lam.coords, lam.delta): 1}
    for i in reversed(w.reduce()):
        alpha = simple_root(real, i)
        nxt: dict[tuple, int] = {}

        def add(v: WeightVec, mult: int):
            k = (v.coords, v.delta)
            nxt[k] = nxt.get(k, 0) + mult
            if nxt[k] == 0:
                del nxt[k]

        for (coords, delta), mult in char.items():
            mu = WeightVec(lam.basis_id, coords, delta)
            k = mu.coords[i]
            assert k.denominator == 1
            k = int(k)
            if k >= 0:
                for t in range(k + 1):
                    add(mu - alpha.scale(t), mult)
            else:
                for t in range(1, -k):
                    add(mu + alpha.scale(t), -mult)
        char = nxt
    return char


def orbit_bfs(real: Realization, gens, start: WeightVec, delta_cap=None,
              cap: int = 200000) -> set:
    """Orbit of `start` under the listed simple reflections, one Fraction
    reflection per letter; delta_cap bounds |delta coordinate|."""
    seen = {(start.coords, start.delta)}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i in gens:
                im = cartan_reference.reflect(real, i, v)
                if delta_cap is not None and abs(im.delta) > delta_cap:
                    continue
                k = (im.coords, im.delta)
                if k not in seen:
                    if len(seen) >= cap:
                        raise ValueError(f"orbit cap exceeded: cap={cap}, "
                                         f"{len(seen)} weights reached")
                    seen.add(k)
                    nxt.append(im)
        frontier = nxt
    return seen
