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
position of its dropped letter, without a Bruhat comparison.  The
divided-difference character of a Schubert cell runs on integer tuples
(coordinates, then delta times its denominator) and builds its Fraction
keys once, on return, and so does the orbit search `orbit_bfs`.  The
integer reflection and the peel are `cartan.reflect_int` and `cartan.peel`,
the only copies in the package.  Weights handed in and out stay exact
Fraction `WeightVec`s: `WeylWord.act` goes through
`Realization.act_letters` and `coset_from_weight` through
`Realization.dominant_conjugate`, each one walk on an integer vector.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cartan import Realization, WeightVec, _scaled, peel, reflect_int

Q = Fraction


def _image(real: Realization, letters, start: list[int]) -> list[int]:
    """s_{l_1} ... s_{l_k} applied to an integer weight (delta last), s_{l_k} first."""
    v = list(start)
    roots = real.int_roots
    for i in reversed(letters):
        reflect_int(roots, v, i)
    return v


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
    peels left descents, the negative coordinates of that weight.
    """

    def __init__(self, real: Realization, letters):
        self.real = real
        self.letters = tuple(int(i) for i in letters)
        self._key = None
        self._reduced: tuple[int, ...] | None = None

    @property
    def key(self):
        """w(rho) as (integer coordinates, integer delta coordinate)."""
        if self._key is None:
            v = _image(self.real, self.letters, _rho(self.real))
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

    def inverse(self) -> "WeylWord":
        return WeylWord(self.real, tuple(reversed(self.letters)))

    def __mul__(self, other: "WeylWord") -> "WeylWord":
        if self.real is not other.real:
            raise ValueError("mixed realizations")
        return WeylWord(self.real, self.letters + other.letters)

    def is_identity(self) -> bool:
        coords, delta = self.key
        return delta == 0 and all(c == 1 for c in coords)

    def left_descent(self) -> int | None:
        """Smallest i with length(s_i w) < length(w); None for the identity."""
        return next((i for i, c in enumerate(self.key[0]) if c < 0), None)

    def right_descent_in(self, nodes) -> int | None:
        coords = self.inverse().key[0]
        return next((j for j in sorted(nodes) if coords[j] < 0), None)

    def reduce(self) -> tuple[int, ...]:
        """A reduced word for the same element (deterministic, idempotent)."""
        if self._reduced is None:
            coords, delta = self.key
            self._reduced = _peel(self.real, list(coords) + [delta], len(self.letters),
                                  _rho(self.real), "descent-free non-identity element")
        return self._reduced

    def length(self) -> int:
        return len(self.reduce())


def longest_parabolic(real: Realization, nodes, cap: int = 4096) -> WeylWord:
    """Longest element of the (finite) parabolic generated by the given nodes.

    Grows w by a letter that is not yet a right descent; `inv` is the key
    of w^{-1}, whose negative coordinates are the right descents of w.
    """
    nodes = sorted(nodes)
    letters: list[int] = []
    inv = _rho(real)
    for _ in range(cap):
        j = next((j for j in nodes if inv[j] > 0), None)
        if j is None:
            return WeylWord(real, WeylWord(real, letters).reduce())
        letters.append(j)
        inv = _image(real, (j,), inv)
    raise ValueError("parabolic not finite within cap")


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
        image = _image(real, word.letters, rho_j)
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


def coset_from_weight(real: Realization, parabolic, dominant: WeightVec,
                      target: WeightVec) -> CosetRep:
    """The coset whose minimal representative sends `dominant` to `target`."""
    dom, letters = real.dominant_conjugate(target)
    if dom != dominant:
        raise ValueError("target not in the orbit of the dominant weight")
    return CosetRep(WeylWord(real, letters), parabolic)


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
    its covering relations.

    `lower_covers[i]` lists (j, p), in increasing j, for each coset j that
    element i covers: p is the index in i's reduced word l_0 l_1 ... of the
    letter whose drop gives j, so that j = s_beta i for the covering root
    beta = s_{l_0} ... s_{l_{p-1}}(alpha_{l_p}).
    """

    def __init__(self, elements: list[CosetRep], top: CosetRep,
                 drops: dict[tuple, list[tuple[int, tuple]]]):
        self.top = top
        self.elements = sorted(elements, key=lambda c: (c.length(), c.word.letters))
        self.index = {c.key: i for i, c in enumerate(self.elements)}
        self.lower_covers = [sorted((self.index[key], p) for p, key in drops[c.key])
                             for c in self.elements]

    def leq(self, a: CosetRep, b: CosetRep) -> bool:
        return bruhat_leq(a, b)

    def covers(self) -> list[tuple[CosetRep, CosetRep]]:
        """(lower, upper) pairs, by upper then lower."""
        els = self.elements
        return [(els[j], b) for b, below in zip(els, self.lower_covers) for j, _ in below]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def coset_interval(v: CosetRep, cap: int = 10 ** 6) -> CosetPoset:
    """All cosets <= v, by closing minimal representatives under letter drops.

    By the strong exchange property the covers of a coset c in W^J are
    exactly the drops from its reduced word that have length l(c) - 1 (W^J
    is graded; Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm 1.4.3
    and Sec. 2.5), so the walk records them as it goes.  A drop is keyed by
    its image of rho_J first, and only an unseen coset is peeled into a
    `CosetRep`.  More than `cap` cosets (v itself counts) raise ValueError."""
    real, parabolic = v.real, v.parabolic
    rho_j = _rho_j(real, parabolic)
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
                image = _image(real, letters, rho_j)
                key = ((tuple(image[:-1]), image[-1]), parabolic)
                sub = seen.get(key)
                if sub is None:
                    sub = seen[key] = CosetRep(WeylWord(real, letters), parabolic)
                    nxt.append(sub)
                if sub.length() == len(word) - 1:
                    covered.append((p, key))
            if len(seen) > cap:
                raise ValueError(f"coset interval cap exceeded: cap={cap}, "
                                 f"{len(seen)} cosets reached")
        frontier = nxt
    return CosetPoset(list(seen.values()), v, drops)


_DEMAZURE_WEIGHT_CAP = 100000


def _demazure_int(w: WeylWord, lam: WeightVec) -> tuple[dict[tuple, int], int]:
    """(char, q): the Demazure character on integer tuples (coords...,
    delta * q), q the denominator of lam's delta; see `demazure_character`."""
    real = w.real
    if not all(c.denominator == 1 for c in lam.coords):
        raise ValueError("integral weight required for divided differences")
    n, q = real.n, lam.delta.denominator
    down = [tuple((j, -a * q if j == n else -a) for j, a in row) for row in real.int_roots]
    up = [tuple((j, -a) for j, a in row) for row in down]
    cap = _DEMAZURE_WEIGHT_CAP
    char: dict[tuple, int] = {tuple(int(c) for c in lam.coords) + (lam.delta.numerator,): 1}
    word = w.reduce()
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
    lam's delta; a step with more than _DEMAZURE_WEIGHT_CAP weights raises
    ValueError.
    """
    char, q = _demazure_int(w, lam)
    return {(tuple(Q(c) for c in key[:-1]), Q(key[-1], q)): mult
            for key, mult in char.items()}


def demazure_dim(w: WeylWord, lam: WeightVec) -> int:
    """The dimension of the Demazure module: the sum of the integer
    multiplicities, without the Fraction keys."""
    return sum(_demazure_int(w, lam)[0].values())


def tau_hat(m: int, datum) -> WeylWord:
    """Telescoping word tau_hat_m on the restricted tier.

    tau_hat_0 = id and tau_hat_{m+1} = s_0 s_1 ... s_m tau_hat_m; the
    number of node-0 letters is m.
    """
    if not 0 <= m <= datum.rank:
        raise ValueError("m out of range")
    letters: tuple[int, ...] = ()
    for k in range(m):
        letters = tuple(range(k + 1)) + letters
    return WeylWord(datum.real, letters)


def tau_full(m: int, datum) -> WeylWord:
    """tau_m = w_Delta tau_hat_m, with w_Delta the longest element of the
    finite parabolic on the non-distinguished nodes."""
    w_delta = longest_parabolic(datum.real, range(1, datum.rank + 1))
    return w_delta * tau_hat(m, datum)


def dominant_orbit_reps(datum) -> list[WeightVec]:
    """The l+1 weights tau_hat_m(e_omega_0), each dominant for the base nodes."""
    omega = datum.e_omega0()
    out = []
    for m in range(datum.rank + 1):
        v = tau_hat(m, datum).act(omega)
        assert all(v.coords[j] >= 0 for j in range(1, datum.rank + 1))
        out.append(v)
    return out


def orbit_bfs(real: Realization, gens, start: WeightVec, delta_cap: Fraction | None = None,
              cap: int = 200000) -> set:
    """Orbit of `start` under the listed simple reflections, as a set of
    (coords, delta) Fraction tuples.

    The search runs on integer vectors, den * v with delta last for den
    the lcm of start's denominators, and skips a letter whose coordinate is
    zero (it fixes the weight).  delta_cap bounds |delta coordinate| to keep
    affine orbits finite; more than `cap` weights raise ValueError.
    """
    x, den = _scaled(start)
    limit = None if delta_cap is None else math.floor(delta_cap * den)
    roots = real.int_roots
    seen = {tuple(x)}
    frontier = [x]
    while frontier:
        nxt = []
        for v in frontier:
            for i in gens:
                if not v[i]:
                    continue
                im = v[:]
                reflect_int(roots, im, i)
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
    return {(tuple(Q(y, den) for y in k[:-1]), Q(k[-1], den)) for k in seen}
