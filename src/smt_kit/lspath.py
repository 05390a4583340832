"""Lakshmibai-Seshadri paths, their enumeration, standardness and lifting.

A path of shape lambda is a pair (directions, cuts): a strictly decreasing
chain of cosets modulo the stabilizer parabolic of lambda, stored largest
first, and rationals 0 = a_0 < ... < a_r = 1.  Between consecutive
directions there must be a chain of covering reflections s_beta in the
coset order with a_i <beta-pairing> integral at every step (an a-chain,
Littelmann, Invent. Math. 116, 1994).  The covers come with the interval:
`weyl.coset_interval` reads them off the letter drops.  The cover that
drops letter p from the word l_0 l_1 ... has the covering root
beta = s_{l_0} ... s_{l_{p-1}}(alpha_{l_p}), and its pairing is the n with
mu_lower - mu_upper = n beta, read off the integer images of the scaled
shape.  Images and covering roots come up the length-sorted interval one
reflection each: the drop of l_0 is the cover c' = s_{l_0} c, whose word
is l_1 l_2 ..., so c(x) = s_{l_0} c'(x) and beta_p(c) = s_{l_0}
beta_{p-1}(c').  So a = t/g is admissible iff some saturated chain has
every pairing divisible by g: for each divisor g >= 2 of some pairing, one
pass up the interval keeps, as a bitset per coset, the cosets such a chain
reaches, instead of walking every chain.  A path extends only to the
cosets these bitsets hold; cut values exist only along chains of covers,
so the cut check alone makes the directions strictly decreasing.  Path values
(breakpoints, endpoint, node-0 degree) are sums of the same integer images
(`Realization.image`) weighted by the cut differences over one common
denominator.  The number of paths of shape lambda whose top direction lies
below a coset [w] equals the dimension of the corresponding Demazure
module; both that and the full Weyl dimension are used as oracles in the
tests.

Standardness of a product comes in two flavours.  From above: the factors
form a chain for pi <= eta iff max dir(pi) <= min dir(eta); that relation is
transitive, antisymmetric on distinct paths and reflexive exactly on the
straight ones, so the factors are compared pairwise.  From below: a weakly
increasing global defining sequence of Weyl group elements through the
stabilizer fibers, decided by a forward pass over sub-multisets that keeps
the minimal lift an admissible prefix ends in: the lifts of a coset above
an element, if any, are the up-set of one minimal lift (Deodhar, Invent.
Math. 39, 1977), and defining chains are built from minimal lifts
(Lakshmibai-Littelmann-Magyar, Compositio 130, 2002).  `FibreLifts` reads
the numbers, the order and the fibres off the one interval below w_0
(`weyl.coset_interval`, numbered by length), so a direction's lifts are one
bitset and placing it behind an end is one AND with the end's up-set,
whose lowest bit is the minimal lift.
Lifting a path of shape eps_i by the i-th telescoping word turns the
second into the first.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import caps
from .cartan import Realization, WeightVec, _scaled, _unscaled, reflected_int
from .weyl import CosetRep, WeylWord, bruhat_leq, coset_interval, longest_parabolic

Q = Fraction


def stabilizer_nodes(shape: WeightVec) -> frozenset[int]:
    return frozenset(i for i, c in enumerate(shape.coords) if c == 0)


def _bits(mask: int):
    """The positions of the set bits of a nonnegative int, increasing."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


@dataclass(frozen=True)
class LSPath:
    """Shape, strictly decreasing direction cosets (largest first), cuts."""

    shape: WeightVec
    dirs: tuple[CosetRep, ...]
    cuts: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple(
            c if type(c) is Fraction else Q(c) for c in self.cuts))

    @property
    def real(self) -> Realization:
        return self.dirs[0].real

    def _scaled_breakpoints(self) -> tuple[list[list[int]], int, list[int]]:
        """(points, scale, top): the path values at the cut points, both
        ends included, and the shape, times `scale` as integer vectors.

        With x = den * shape on integers and q the lcm of the cut
        denominators, segment k adds q (a_{k+1} - a_k) times the image of x
        under the k-th direction, and scale = den * q.
        """
        x, den = _scaled(self.shape)
        q = math.lcm(*(c.denominator for c in self.cuts))
        steps = [c.numerator * (q // c.denominator) for c in self.cuts]
        acc = [0] * len(x)
        out = [acc]
        for d, lo, hi in zip(self.dirs, steps, steps[1:]):
            t = hi - lo
            acc = [a + t * y for a, y in zip(acc, self.real.image(d.word.letters, x))]
            out.append(acc)
        return out, den * q, [q * y for y in x]

    def breakpoints(self) -> list[WeightVec]:
        """Path values at the cut points, including both endpoints."""
        points, scale, _ = self._scaled_breakpoints()
        return [_unscaled(self.shape.basis_id, v, scale) for v in points]

    def endpoint(self) -> WeightVec:
        points, scale, _ = self._scaled_breakpoints()
        return _unscaled(self.shape.basis_id, points[-1], scale)

    def to_json(self) -> dict:
        return {"shape": self.shape.to_json(),
                "dirs": [list(d.word.letters) for d in self.dirs],
                "cuts": [str(c) for c in self.cuts]}


class ChainData:
    """Cover relations, reflection pairings and admissible cut values for
    the coset interval below a top coset.

    The covers and the order are the ones `coset_interval` records in its
    `weyl.CosetPoset`.  Each coset's weight is kept as the integer image of
    den * shape (delta last, den the lcm of the shape's denominators), and
    a cover's pairing is read off the difference of two images along the
    covering root of the cover.  Both come up the length-sorted interval
    one reflection at a time: the drop of letter 0 from a coset c with
    reduced word l_0 l_1 ... is always a cover, the coset c' = s_{l_0} c
    with word l_1 l_2 ..., so c(x) = s_{l_0} c'(x) and the covering roots
    are beta_0(c) = alpha_{l_0} and beta_p(c) = s_{l_0} beta_{p-1}(c').

    Cut values come off one bitset per divisor g >= 2 of some pairing:
    bit j of `reach_g[i]` is set iff some saturated chain from i down to j
    has every pairing divisible by g, the OR of 1 << j | reach_g[j] over
    the covers (j, n) of i with g | n.  A chain counts in reach_g exactly
    for the g that divide the gcd of its pairings, so the t/g over the g
    whose bit is set are the a admitting an a-chain, and some such g
    exceeds `denom_cap`, the table's cap, iff some chain's gcd does.
    """

    def __init__(self, shape: WeightVec, top: CosetRep):
        if not shape.is_integral() or not shape.is_dominant():
            raise ValueError("dominant integral shape required")
        self.shape = shape
        self.denom_cap = caps.CAPS["cut_denominator"]
        self.real = real = top.real
        self.poset = coset_interval(top)
        self.index = self.poset.index
        x, self._den = _scaled(shape)
        roots = real.int_roots
        alphas: dict[int, tuple[int, ...]] = {}     # the simple roots met as a first letter
        self._images: list[tuple[int, ...]] = []
        betas: list[list[tuple[int, ...]]] = []
        self._covers_below: dict[int, list[tuple[int, int]]] = {}
        for i, (c, covered) in enumerate(zip(self.poset.elements, self.poset.lower_covers)):
            word = c.word.letters
            if word:
                l0 = word[0]
                rest = next(j for j, p in covered if p == 0)
                image = reflected_int(roots, self._images[rest], l0)
                if l0 not in alphas:
                    row = dict(roots[l0])
                    alphas[l0] = tuple(row.get(j, 0) for j in range(real.n + 1))
                roots_of = [alphas[l0]] + [reflected_int(roots, b, l0) for b in betas[rest]]
            else:
                image, roots_of = tuple(x), []
            self._images.append(image)
            betas.append(roots_of)
            self._covers_below[i] = [(j, self._cover_pairing(i, j, roots_of[p]))
                                     for j, p in covered]
        self._reach = self._divisor_reach()
        self._cut_sets: dict[tuple[int, int], tuple[Fraction, ...]] = {}

    def _cover_pairing(self, upper: int, lower: int, beta: tuple[int, ...]) -> int:
        """n > 0 with mu_lower - mu_upper = n * beta, beta the covering root
        of the cover.

        lower = s_beta upper gives mu_lower - mu_upper = -<mu_upper, beta^vee>
        beta; n is read off one coordinate of the integer images and the
        equality is asserted on every coordinate, which names the root."""
        den = self._den
        diff = list(map(operator.sub, self._images[lower], self._images[upper]))
        k = next(k for k, b in enumerate(beta) if b)
        n = diff[k] // (den * beta[k])
        assert n > 0 and diff == [n * den * b for b in beta], \
            "cover is not along its covering root"
        return n

    def _divisor_reach(self) -> dict[int, list[int]]:
        """g -> reach_g, for every divisor g >= 2 of some pairing, increasing."""
        pairings = {n for covered in self._covers_below.values() for _, n in covered}
        reach = {}
        for g in sorted({g for n in pairings for g in range(2, n + 1) if n % g == 0}):
            reach_g: list[int] = []
            for covered in self._covers_below.values():
                mask = 0
                for j, n in covered:
                    if n % g == 0:
                        mask |= 1 << j | reach_g[j]
                reach_g.append(mask)
            reach[g] = reach_g
        return reach

    def cut_values(self, upper: int, lower: int) -> tuple[Fraction, ...]:
        """All a in (0,1) admitting an a-chain from `upper` down to `lower`,
        increasing; none unless `lower` lies strictly below `upper`.  A
        divisor above `denom_cap` that reaches raises ValueError naming the
        smallest such divisor."""
        key = (upper, lower)
        if key not in self._cut_sets:
            values: set[Fraction] = set()
            for g, reach_g in self._reach.items():
                if reach_g[upper] >> lower & 1:
                    if g > self.denom_cap:
                        raise ValueError(f"cut denominator cap exceeded: cap={self.denom_cap}, "
                                         f"denominator {g} reached")
                    values.update(Q(t, g) for t in range(1, g))
            self._cut_sets[key] = tuple(sorted(values))
        return self._cut_sets[key]


def enumerate_paths(shape: WeightVec, top: CosetRep) -> list[LSPath]:
    """All LS paths of the given shape with top direction <= top."""
    return chain_paths(ChainData(shape, top))


def chain_paths(data: ChainData) -> list[LSPath]:
    """All LS paths of the data's shape with directions in its interval.

    A path extends from its last direction only to the cosets some reach_g
    of it holds, in increasing index: the others have no cut value."""
    shape = data.shape
    elements = data.poset.elements
    paths: list[LSPath] = []
    one, zero = Q(1), Q(0)
    reach = data._reach
    targets = ([list(_bits(functools.reduce(operator.or_, masks)))
                for masks in zip(*reach.values())] if reach else [()] * len(elements))

    def extend(dirs: list[int], cuts: list[Fraction]):
        paths.append(LSPath(shape, tuple(elements[i] for i in dirs), tuple(cuts) + (one,)))
        last = dirs[-1]
        for nxt in targets[last]:
            values = data.cut_values(last, nxt)
            for a in values[bisect.bisect_right(values, cuts[-1]):]:
                extend(dirs + [nxt], cuts + [a])

    for start in range(len(elements)):
        extend([start], [zero])
    return paths


def d_degree(path: LSPath) -> int:
    """Coefficient of the distinguished simple root in shape - endpoint,
    read on integers through `Realization.inverse`."""
    points, scale, top = path._scaled_breakpoints()
    diff = list(map(operator.sub, top, points[-1]))
    inv = path.real.inverse
    y = inv.expand(diff)
    if y is None or y[0] % (inv.d * scale):
        raise ValueError("endpoint does not expand integrally")
    return y[0] // (inv.d * scale)


def is_G_dominant(path: LSPath) -> bool:
    """True iff every breakpoint pairs nonnegatively with every simple
    coroot but the distinguished node 0's.  Per-segment linearity makes the
    breakpoint check sufficient.
    """
    points = path._scaled_breakpoints()[0]
    return all(v[j] >= 0 for v in points for j in range(1, path.real.n))


def path_leq(pi: LSPath, eta: LSPath) -> bool:
    """pi <= eta iff the largest direction of pi is below the smallest of eta."""
    if pi.shape != eta.shape:
        raise ValueError("shape mismatch")
    return bruhat_leq(pi.dirs[0], eta.dirs[-1])


def is_standard_above(factors: tuple[LSPath, ...]) -> bool:
    """Some arrangement of the factors is a chain pi_1 <= ... <= pi_s.

    On LS paths `path_leq` is transitive, antisymmetric on distinct paths
    and reflexive exactly on straight paths, so that holds iff every two
    factors are comparable (a repeated factor with itself, which makes it
    straight): s(s-1)/2 pairs instead of s! orders.
    """
    if len({f.shape for f in factors}) > 1:
        raise ValueError("factors must share one shape")
    return all(path_leq(a, b) or path_leq(b, a)
               for a, b in itertools.combinations(factors, 2))


class FibreLifts:
    """Fibre lifts with their Bruhat order, kept by one owner for every call
    that shares the (finite) realization.

    Everything comes off one interval, `weyl.coset_interval` of the longest
    element w_0 modulo the trivial parabolic: an element's number is its
    index there (sorted by length, so the identity is 0 and a shorter
    element has a smaller number), `down[i]` is the interval's down-set of
    element i and `up[i]`, its transpose, the up-set.  An infinite Weyl
    group has no w_0 (`longest_parabolic` raises ValueError), and the table
    is capped like every interval.  The lifts of a direction xW_J, x its
    minimal representative, are the coset xW_J, which is the Bruhat
    interval [x, x w_0(J)], since the projection onto W^J is
    order-preserving (Bjorner-Brenti, Combinatorics of Coxeter Groups,
    Prop. 2.5.1): one bitset, up[x] & down[x w_0(J)], whose lowest bit is
    x, with w_0(J) built once per J.

    A factor's kind is its stabilizer and direction cosets; factors of one
    kind place alike.  A state is one element number, the minimal lift an
    admissible prefix ends in: the lifts of xW_J above m, if any, are the
    up-set of one minimal lift (Deodhar).  The owner keeps Weyl-element
    tables only: the states belong to the caller.
    """

    def __init__(self, real: Realization):
        self.real = real
        poset = coset_interval(CosetRep(longest_parabolic(real, range(real.n)), ()))
        self.index = poset.index
        self.down = poset.down
        self.up = [1 << i for i in range(len(poset))]
        for i in reversed(range(len(poset))):   # an element's upper covers come after it
            for j, _ in poset.lower_covers[i]:
                self.up[j] |= self.up[i]
        self._longest: dict[frozenset[int], WeylWord] = {}
        self._lifts: dict[tuple, int] = {}
        self._kinds: dict[tuple, int] = {}
        self._steps: list[list[int]] = []

    def number(self, w: WeylWord) -> int:
        """The index of w in the interval."""
        return self.index[w.key, frozenset()]

    def __call__(self, coset: CosetRep, J: frozenset[int]) -> int:
        """The numbers of the lifts of `coset` as a bitset; the lowest bit
        is the minimal representative."""
        key = (coset.key, J)
        if key not in self._lifts:
            if J not in self._longest:
                self._longest[J] = longest_parabolic(self.real, J)
            x = coset.word
            self._lifts[key] = self.up[self.number(x)] & self.down[self.number(x * self._longest[J])]
        return self._lifts[key]

    def kind(self, path: LSPath) -> int:
        """The number of the factor's kind.  A new kind keeps the bitsets of
        its lifts, direction by direction in increasing order."""
        J = stabilizer_nodes(path.shape)
        key = (J, tuple(d.key for d in path.dirs))
        k = self._kinds.get(key)
        if k is None:
            k = self._kinds[key] = len(self._steps)
            self._steps.append([self(d, J) for d in reversed(path.dirs)])
        return k

    def order_key(self, kind: int) -> int:
        """The size of the down-set of the minimal representative of the
        kind's lowest direction: kinds of one block placed in increasing
        order of it (ties by kind number) reach the minimal ends of all
        orders that `is_standard_below` takes (measured, not proved;
        `tests/test_smt.py` checks it)."""
        lifts = self._steps[kind][0]
        return self.down[(lifts & -lifts).bit_length() - 1].bit_count()

    def place(self, end: int, kind: int) -> int | None:
        """The minimal lift ending a sequence that places one factor of `kind`
        behind a prefix with minimal end `end` (0 before the first factor),
        or None.  In each direction the lifts above the end so far are
        up[end] & lifts, the up-set of one minimal lift (Deodhar); every
        other lift of that set lies above it and so is longer, and numbers
        follow length, so it is the lowest bit."""
        for lifts in self._steps[kind]:
            above = self.up[end] & lifts
            if not above:
                return None
            end = (above & -above).bit_length() - 1
        return end


def is_standard_below(factors: tuple[LSPath, ...], block_keys,
                      lifts: FibreLifts | None = None) -> bool:
    """Defining-sequence standardness for factors of quadratic-basis shapes.

    Factors are grouped in blocks of equal shape ordered by increasing
    basis index (the enumeration compatible with lifting: the telescoping
    cosets grow with the index); within each path the directions are taken
    in increasing order.  A monomial is standard when some arrangement of
    the factors inside their blocks admits a globally weakly increasing
    sequence of stabilizer-fiber lifts.

    One forward pass decides it.  For each sub-multiset that places the
    earlier blocks whole and part of the next, it keeps the minimal ends
    (`FibreLifts.place`, Deodhar) of the admissible prefixes placing exactly
    those factors: a union of up-sets is the up-set of the union of their
    minima.  Factors with the same directions and stabilizer place alike,
    so they count as one kind.  `block_keys` gives the block of each
    factor, in factor order: the basis index of its shape, which only the
    caller knows; `lifts` holds the fibre lifts and their order, and
    without one the call builds its own.  The sets of minimal ends (empty
    where no prefix is admissible) are memoised for this call only, under
    the sorted (block, kind) pairs.
    """
    if not factors:
        return True
    if lifts is None:
        lifts = FibreLifts(factors[0].real)
    states: dict[tuple, frozenset[int]] = {(): frozenset((0,))}

    def state(placed: tuple) -> frozenset[int]:     # any kind of the last block goes last
        if placed not in states:
            block = placed[-1][0]
            found = set()
            for pos in range(len(placed) - 1, -1, -1):
                if placed[pos][0] != block:
                    break
                if pos + 1 < len(placed) and placed[pos + 1] == placed[pos]:
                    continue                # the same pair, already tried
                found.update(lifts.place(end, placed[pos][1])
                             for end in state(placed[:pos] + placed[pos + 1:]))
            states[placed] = frozenset(found - {None})
        return states[placed]

    return bool(state(tuple(sorted(zip(block_keys, map(lifts.kind, factors),
                                       strict=True)))))


def lift_path(path: LSPath, tau_word: WeylWord, parabolic, shape: WeightVec,
              letter_shift: int = 0) -> LSPath:
    """Replace each direction x by [x tau] modulo the given parabolic.

    `tau_word` lives in the bigger realization; `letter_shift` translates
    the path's letters into it.  The result is re-verified as an LS path
    of the new shape by the caller's tests.
    """
    real = tau_word.real
    dirs = []
    for d in path.dirs:
        shifted = tuple(l + letter_shift for l in d.word.letters)
        dirs.append(CosetRep(WeylWord(real, shifted) * tau_word, parabolic))
    return LSPath(shape, tuple(dirs), path.cuts)


def tensor_multiplicity(lam: WeightVec, mu: WeightVec, nu: WeightVec, gcm) -> int:
    """Multiplicity of V_nu in V_lam (x) V_mu by the path tensor rule.

    Counts paths in the model of V_lam ending at nu - mu whose translate
    by mu stays dominant throughout (straight mu-segment first).  Finite
    type only: `longest_parabolic` refuses any other gcm.
    """
    real = Realization(gcm, lam.basis_id)
    J = stabilizer_nodes(lam)
    w0 = longest_parabolic(real, range(real.n))
    top = CosetRep(w0, J)
    count = 0
    for eta in enumerate_paths(lam, top):
        if eta.endpoint() != nu - mu:
            continue
        if all((mu + v).is_dominant() for v in eta.breakpoints()):
            count += 1
    return count
