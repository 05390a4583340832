"""Weyl groups of symmetrizable GCMs: words, Bruhat order, Demazure characters.

Elements are words in simple reflections of a Realization.  An element w
is keyed by the integer vector w(rho), rho = (1, ..., 1): rho is regular
dominant, so the key is faithful, and the negative coordinates of w(rho)
are exactly the left descents of w.  Reduction peels the smallest of them
until rho is reached; a coset w W_J is found the same way from
w(rho_J), rho_J = sum of omega_j for j not in J, whose stabilizer is W_J.
Bruhat order is decided by Deodhar's Z-property (Bjorner-Brenti,
Combinatorics of Coxeter Groups, Prop. 2.2.7): if s v < v, then u <= v iff
min(u, s u) <= s v.  A coset interval is closed under letter drops, and by
the strong exchange property the drops one shorter than a coset are
exactly its covers, so `coset_interval` records the covers, each with the
position of its dropped letter, without a Bruhat comparison, and images
each drop with one reflection off the drops of s_{l_0} c; its
`CosetPoset` keeps the order as one down-set bitset per coset.  The
divided-difference character of a Schubert cell runs on integer tuples
(coordinates, then delta times its denominator) and builds its Fraction
keys once, on return, and so does the orbit search `orbit_bfs` around its
integer core `orbit_keys`.  A Demazure module
depends only on the coset w W_lam, W_lam generated by the s_j with
<lam, alpha_j^vee> = 0, so `demazure_dim` runs along the minimal
representative, a subword of w's reduced word (`coset_subword`);
`demazure_character` keeps the reduced word of w, whose key order its
callers see.  The telescoping words tau_hat_m and tau_m = w_Delta tau_hat_m
of a restricted tier live here only, with the one range check of m;
`involutions.AmbientCase` lifts them letter by letter.  The integer
reflection, the peel and the word action are `cartan.reflect_int` (with
its tuple form `reflected_int`), `cartan.peel` and `Realization.image`,
the only copies in the package.
Weights handed in and out stay exact Fraction `WeightVec`s: `WeylWord.act`
goes through `Realization.act_letters`, one walk on an integer vector.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import caps
from .cartan import (FINITE, GCM, Realization, WeightVec, _scaled, classify, peel, reflect_int,
                     reflected_int, symmetrizer)

Q = Fraction


def _peel(real: Realization, v: list[int], bound: int, target: list[int],
          what: str) -> tuple[int, ...]:
    """Letters i_1, ..., i_k of `cartan.peel` with s_{i_k} ... s_{i_1} v =
    target; w = s_{i_1} ... s_{i_k} is then reduced.  Each peel shortens w,
    so more than `bound` peels, or a descent-free end other than `target`,
    is an internal error."""
    v = list(v)
    out = peel(real.int_roots, v, bound)
    if v != target:
        raise AssertionError(what)
    return tuple(out)


def _rho(real: Realization) -> list[int]:
    return [1] * real.n + [0]


def _rho_j(real: Realization, parabolic: frozenset) -> list[int]:
    return [0 if j in parabolic else 1 for j in range(real.n)] + [0]


class WeylWord:
    """A word in simple reflections of one realization.

    Two words are equal iff they send rho to the same weight; reduce()
    peels left descents, the negative coordinates of that weight.  A letter
    outside 0..n-1 raises ValueError.
    """

    def __init__(self, real: Realization, letters):
        self.real = real
        self.letters = letters = tuple(map(int, letters))
        if letters and (min(letters) < 0 or max(letters) >= len(real.int_roots)):
            bad = next(i for i in letters if not 0 <= i < real.n)
            raise ValueError(f"letter {bad} out of range 0..{real.n - 1}")
        self._key = None
        self._reduced: tuple[int, ...] | None = None

    @property
    def key(self):
        """w(rho) as (integer coordinates, integer delta coordinate)."""
        if self._key is None:
            v = self.real.image(self.letters, _rho(self.real))
            self._key = (tuple(v[:-1]), v[-1])
        return self._key

    def __eq__(self, other):
        return isinstance(other, WeylWord) and self.real is other.real and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"WeylWord({list(self.letters)})"

    def act(self, v: WeightVec) -> WeightVec:
        return self.real.act_letters(self.letters, v)

    def __mul__(self, other: "WeylWord") -> "WeylWord":
        if self.real is not other.real:
            raise ValueError("mixed realizations")
        return WeylWord(self.real, self.letters + other.letters)

    def left_descent(self) -> int | None:
        """Smallest i with length(s_i w) < length(w); None for the identity."""
        return next((i for i, c in enumerate(self.key[0]) if c < 0), None)

    def reduce(self) -> tuple[int, ...]:
        """A reduced word for the same element (deterministic, idempotent)."""
        if self._reduced is None:
            coords, delta = self.key
            self._reduced = _peel(self.real, list(coords) + [delta], len(self.letters),
                                  _rho(self.real), "descent-free non-identity element")
        return self._reduced

    def length(self) -> int:
        return len(self.reduce())


@functools.lru_cache(maxsize=256)
def _finite_parabolic(gcm: GCM, nodes: tuple[int, ...]) -> bool:
    """W_J is finite iff A_J is of finite type (Humphreys, Reflection Groups
    and Coxeter Groups, Sec. 6.4), which a non-symmetrizable A_J is not."""
    sub = GCM(tuple(tuple(gcm.entries[i][j] for j in nodes) for i in nodes))
    return symmetrizer(sub) is not None and classify(sub) == FINITE


def longest_parabolic(real: Realization, nodes) -> WeylWord:
    """Longest element of the parabolic generated by the given nodes, which
    must be finite; ValueError names the nodes otherwise.

    Grows w by a letter that is not yet a right descent, at most |Phi+_J|
    times; `inv` is the key of w^{-1}, whose negative coordinates are the
    right descents of w.
    """
    nodes = sorted(nodes)
    if nodes and not _finite_parabolic(real.gcm, tuple(nodes)):
        raise ValueError(f"longest_parabolic: nodes {nodes} are not of finite type")
    letters: list[int] = []
    inv = _rho(real)
    while (j := next((j for j in nodes if inv[j] > 0), None)) is not None:
        letters.append(j)
        inv = real.image((j,), inv)
    return WeylWord(real, WeylWord(real, letters).reduce())


class CosetRep:
    """Minimal-length representative of w W_J for a parabolic J.

    Keyed by w(rho_J), which only depends on the coset; peeling its
    negative coordinates gives the same reduced word that reduce() gives
    for the minimal representative.
    """

    def __init__(self, word: WeylWord, parabolic):
        self.parabolic = frozenset(parabolic)
        self.real = real = word.real
        rho_j = _rho_j(real, self.parabolic)
        image = real.image(word.letters, rho_j)
        letters = _peel(real, image, len(word.letters), rho_j,
                        "coset peeling did not reach rho_J")
        self.word = WeylWord(real, letters)
        self._rho_j_key = (tuple(image[:-1]), image[-1])

    @property
    def key(self):
        return (self._rho_j_key, self.parabolic)

    def __eq__(self, other):
        return isinstance(other, CosetRep) and self.real is other.real and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"CosetRep({list(self.word.letters)}, J={sorted(self.parabolic)})"

    def length(self) -> int:
        return len(self.word.letters)


def bruhat_leq(u, v) -> bool:
    """Bruhat order; on CosetReps compares minimal representatives.

    Walks a reduced word of v from the left: by the Z-property, u <= s v'
    (with s v' reduced) iff min(u, s u) <= v', and s u < u iff
    u(rho) has a negative s-coordinate.  u <= v iff u ends at the identity.
    """
    if isinstance(u, CosetRep):
        if not isinstance(v, CosetRep) or u.parabolic != v.parabolic:
            raise ValueError("mismatched parabolic")
        u, v = u.word, v.word
    roots = u.real.int_roots
    coords, delta = u.key
    x = list(coords) + [delta]
    for s in v.reduce():
        if x[s] < 0:
            reflect_int(roots, x, s)
    return x[-1] == 0 and x.count(1) == len(x) - 1      # x == rho


class CosetPoset:
    """The interval {eta <= top} in W/W_J, sorted by length and word, with
    its covering relations and its order.

    `lower_covers[i]` lists (j, p), in increasing j, for each coset j that
    element i covers: p is the index in i's reduced word l_0 l_1 ... of the
    letter whose drop gives j, so that j = s_beta i for the covering root
    beta = s_{l_0} ... s_{l_{p-1}}(alpha_{l_p}).  `down[i]`, the down-set of
    i as an int bitset over the indices, is 1 << i ORed with the down-sets
    of the covers of i, which come before it: every relation in the
    interval is a chain of covers (Bjorner-Brenti, op. cit., Sec. 2.5).
    """

    def __init__(self, seen: dict[tuple, CosetRep],
                 drops: dict[tuple, list[tuple[int, tuple]]]):
        order = sorted(seen, key=lambda k: (seen[k].length(), seen[k].word.letters))
        at = {k: i for i, k in enumerate(order)}
        self.elements = [seen[k] for k in order]
        self.index = {c.key: i for i, c in enumerate(self.elements)}
        self.lower_covers = [sorted((at[sub], p) for p, sub in drops[k]) for k in order]
        self.down: list[int] = []
        for i, covered in enumerate(self.lower_covers):
            mask = 1 << i
            for j, _ in covered:
                mask |= self.down[j]
            self.down.append(mask)

    def leq(self, a: CosetRep, b: CosetRep) -> bool:
        """Bruhat order off b's down-set; both cosets must lie in the interval."""
        return bool(self.down[self.index[b.key]] >> self.index[a.key] & 1)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _drop_images(memo: dict[tuple, list], roots, image: tuple, word: tuple[int, ...]) -> list:
    """The images of rho_J under `word` with letter p dropped, p = 0, 1, ...,
    for the coset with image `image` and reduced word `word`: walks down the
    suffixes of the word to a memoised one, then back up, one reflection
    per drop."""
    suffixes = []                       # (image, first letter) down to a memoised suffix
    while image not in memo:
        if not word:
            memo[image] = []
            break
        suffixes.append((image, word[0]))
        image, word = reflected_int(roots, image, word[0]), word[1:]
    below, drops = image, memo[image]
    for image, letter in reversed(suffixes):
        drops = memo[image] = [below] + [reflected_int(roots, x, letter) for x in drops]
        below = image
    return drops


def coset_interval(v: CosetRep) -> CosetPoset:
    """All cosets <= v, by closing minimal representatives under letter drops.

    By the strong exchange property the covers of a coset c in W^J are
    exactly the drops from its reduced word that have length l(c) - 1 (W^J
    is graded; Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm 1.4.3
    and Sec. 2.5), so the walk records them as it goes.  A drop is keyed by
    its image of rho_J, and only an unseen coset is peeled into a
    `CosetRep`.  The peel of c(rho_J) takes l_0 first and goes on from
    s_{l_0} c(rho_J), so the reduced word of s_{l_0} c is c's word without
    l_0, and the image for c's word with letter p >= 1 dropped is s_{l_0}
    applied to the image for that word with letter p - 1 dropped (the
    subword property, op. cit. Sec. 2.2).  The drop images are memoised per
    coset for the call, which makes each drop one reflection instead of
    l(c).  More cosets than `caps.coset_interval_cap()` (v itself counts) raise ValueError."""
    cap = caps.coset_interval_cap()
    real, parabolic = v.real, v.parabolic
    roots = real.int_roots
    memo: dict[tuple, list] = {}        # image of rho_J -> its drop images, p = 0, 1, ...
    coords, delta = v._rho_j_key
    top = coords + (delta,)
    seen = {top: v}
    drops: dict[tuple, list[tuple[int, tuple]]] = {}
    frontier = [top]
    while frontier:
        nxt = []
        for image in frontier:
            word = seen[image].word.letters
            covered = drops[image] = []
            for p, sub_image in enumerate(_drop_images(memo, roots, image, word)):
                sub = seen.get(sub_image)
                if sub is None:
                    sub = seen[sub_image] = CosetRep(WeylWord(real, word[:p] + word[p + 1:]),
                                                     parabolic)
                    nxt.append(sub_image)
                if sub.length() == len(word) - 1:
                    covered.append((p, sub_image))
            if len(seen) > cap:
                raise ValueError(f"coset interval cap exceeded: cap={cap}, "
                                 f"{len(seen)} cosets reached")
        frontier = nxt
    return CosetPoset(seen, drops)


def _demazure_int(real: Realization, word: tuple[int, ...],
                  lam: WeightVec) -> tuple[dict[tuple, int], int]:
    """(char, q): the Demazure character along the reduced `word` on integer
    tuples (coords..., delta * q), q the denominator of lam's delta; see
    `demazure_character`."""
    if not all(c.denominator == 1 for c in lam.coords):
        raise ValueError("integral weight required for divided differences")
    n, q = real.n, lam.delta.denominator
    down = [tuple((j, -a * q if j == n else -a) for j, a in row) for row in real.int_roots]
    up = [tuple((j, -a) for j, a in row) for row in down]
    cap = caps.CAPS["demazure_weights"]
    char: dict[tuple, int] = {tuple(int(c) for c in lam.coords) + (lam.delta.numerator,): 1}
    for step, i in enumerate(reversed(word), 1):
        nxt: dict[tuple, int] = {}
        for mu, mult in char.items():
            k = mu[i]
            v = list(mu)
            if k >= 0:                      # mu, mu - alpha, ..., mu - k alpha
                shift, count = down[i], k + 1
            else:                           # -(mu + alpha), ..., -(mu + (-k-1) alpha)
                shift, count, mult = up[i], -k - 1, -mult
                for j, a in shift:
                    v[j] += a
            for _ in range(count):
                key = tuple(v)
                total = nxt.get(key, 0) + mult
                if total:
                    nxt[key] = total
                else:
                    del nxt[key]
                for j, a in shift:
                    v[j] += a
            if len(nxt) > cap:
                raise ValueError(f"demazure_character cap exceeded: cap={cap}, "
                                 f"{len(nxt)} weights at letter {step} of {len(word)}")
        char = nxt
    return char, q


def demazure_character(w: WeylWord, lam: WeightVec) -> dict[tuple, int]:
    """Weight multiplicities of the Demazure module generated from e^lam.

    Applies D_i f = (f - e^{-alpha_i} s_i f) / (1 - e^{-alpha_i}) along a
    reduced word of w, rightmost letter first.  Keys are (coords, delta)
    tuples; lam must pair integrally with every simple coroot.  The loop
    runs on integer tuples (coords..., delta * q), q the denominator of
    lam's delta; a step with more weights than the table's
    `demazure_weights` cap raises ValueError.
    """
    char, q = _demazure_int(w.real, w.reduce(), lam)
    return {(tuple(Q(c) for c in key[:-1]), Q(key[-1], q)): mult
            for key, mult in char.items()}


def demazure_dim(w: WeylWord, lam: WeightVec) -> int:
    """The dimension of the Demazure module: the sum of the integer
    multiplicities, without the Fraction keys.

    D_j e^lam = e^lam when <lam, alpha_j^vee> = 0, so the module depends
    only on the coset w W_lam (Demazure 1974; Kumar, Kac-Moody Groups,
    Ch. VIII), and the divided differences run along the reduced word of
    its minimal representative, which is no longer than w's."""
    stabilizer = [j for j, c in enumerate(lam.coords) if c == 0]
    word = coset_subword(w, stabilizer) if stabilizer else w.reduce()
    return sum(_demazure_int(w.real, word, lam)[0].values())


def coset_subword(w: WeylWord, parabolic) -> tuple[int, ...]:
    """A reduced word of the minimal representative of w W_J: the letters
    of w.reduce() that move u(rho_J), u the representative built so far
    from the right.  Along a reduced word s u is either longer and minimal
    or in u W_J (Deodhar's lemma), and s u(rho_J) = u(rho_J) tells the
    second case; one pass of integer reflections, no peel."""
    real = w.real
    roots = real.int_roots
    v = _rho_j(real, frozenset(parabolic))
    kept = []
    for i in reversed(w.reduce()):
        if v[i]:
            reflect_int(roots, v, i)
            kept.append(i)
    return tuple(reversed(kept))


def tau_hat(m: int, datum) -> WeylWord:
    """Telescoping word tau_hat_m on the restricted tier.

    tau_hat_0 = id and tau_hat_{m+1} = s_0 s_1 ... s_m tau_hat_m; the
    number of node-0 letters is m.
    """
    if not 0 <= m <= datum.rank:
        raise ValueError(f"m out of range: {m} not in 0..{datum.rank}")
    letters: tuple[int, ...] = ()
    for k in range(m):
        letters = tuple(range(k + 1)) + letters
    return WeylWord(datum.real, letters)


def tau_full(m: int, datum) -> WeylWord:
    """tau_m = w_Delta tau_hat_m, with w_Delta the longest element of the
    finite parabolic on the non-distinguished nodes."""
    w_delta = longest_parabolic(datum.real, range(1, datum.rank + 1))
    return w_delta * tau_hat(m, datum)


def orbit_keys(real: Realization, gens, x: list[int],
               limit: int | None = None) -> set[tuple[int, ...]]:
    """Orbit of the integer weight x (delta last) under the listed simple
    reflections, as a set of integer tuples.

    A letter whose coordinate is zero fixes the weight and is skipped;
    limit, when given, bounds |delta coordinate|; more weights than the
    table's `orbit_weights` cap raise ValueError.
    """
    cap = caps.CAPS["orbit_weights"]
    seen = {tuple(x)}
    frontier = [x]
    while frontier:
        nxt = []
        for v in frontier:
            for i in gens:
                if not v[i]:
                    continue
                im = real.image((i,), v)
                if limit is not None and abs(im[-1]) > limit:
                    continue
                k = tuple(im)
                if k not in seen:
                    if len(seen) >= cap:
                        raise ValueError(f"orbit cap exceeded: cap={cap}, "
                                         f"{len(seen)} weights reached")
                    seen.add(k)
                    nxt.append(im)
        frontier = nxt
    return seen


def orbit_bfs(real: Realization, gens, start: WeightVec, delta_cap: Fraction | None = None) -> set:
    """`orbit_keys` of den * start, den the lcm of its denominators, as
    (coords, delta) Fraction tuples; delta_cap bounds |delta| (affine orbits)."""
    x, den = _scaled(start)
    limit = None if delta_cap is None else math.floor(delta_cap * den)
    return {(tuple(Q(y, den) for y in k[:-1]), Q(k[-1], den))
            for k in orbit_keys(real, gens, x, limit)}
