"""The brute-force LS-path kernels that `smt_kit.lspath` and `smt_kit.smt`
replaced, kept as test oracles.

`cover_search` tests every pair of cosets at adjacent lengths with
`bruhat_leq` and takes a cover's pairing as the content of the root
coordinates of its Fraction weight difference; `cover_pairing` tests every
divisor of that content with the Fraction real-root descent of
`cartan_reference`; `cut_values` walks every saturated chain from `upper`
down to `lower` by depth-first search; `enumerate_paths` extends a path by
testing every coset of the interval against its last direction;
`is_standard_above` tries every order of the factors; `is_standard_below`
backtracks over every arrangement of every block and every fibre lift;
`graded_count` tests every multiset of the pool.  The walks that need the
order of the interval ask `bruhat_leq`, not the down-sets of
`weyl.CosetPoset`.  They are exponential, but
share no search with the covers read off the letter drops, the pairings
read off the covering roots on integer weights, the memoised chain gcds
and down-sets, the pairwise comparison, the forward pass over
sub-multisets and the multichain count of the library, which makes them
differential oracles for `tests/test_lspath_differential.py`.

`images`, `prefix_pairings`, `chain_gcds`, `gcd_cut_values` and
`chain_paths` are the quadratic `ChainData` kernels that the recursion up
the interval and the divisor bitsets replaced: one `Realization.image`
of the whole word per coset, each covering root imaged through the prefix
word, one pass up the interval per lower coset for the gcds of the
pairings along its chains, and every coset below the last direction
asked for its cut values.

`straight_path` (one direction from 0 to 1) and `is_lspath` (the full
check of the chain conditions and of endpoint integrality) have no caller
in the library.  `is_lspath` asks the library `ChainData` of the first
direction for the cut values, so it shares that search with enumeration:
`tests/test_lspath.py` uses it to refuse bad candidates, to count the
paths of a brute-force candidate set and to accept lifted paths, and the
differential oracles above stay the judge of the search itself.

`FibreLifts` and `forward_standard_below` are the forward pass as it was
before the library numbered its lifts: lists of reduced lifts sorted by
length, one `bruhat_leq` per pair in the filter and in `_minimal`, and
the sub-multiset states of one call only.  `above_table` is the
comparability table of `GradedCounts` from one `bruhat_leq` per pair of a
top and a bottom coset.  `bitset_place` is the set-valued placement that
`smt_kit.lspath.FibreLifts.place` replaced: it keeps, as a bitset, every
lift that can end a prefix, not only the minimal one.  `union_state` is
the union of its states over all orders inside the last block, as
`smt_kit.lspath.is_standard_below` takes them, on a memo the caller
keeps, so that one memo can serve every monomial of a test.

The code is the earlier library code with one change that alters no
answer: each kernel is a function of the object it used to be a method of
(the `ChainData` or the `GradedCounts`), or takes one as an argument.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import cartan_reference
from smt_kit.cartan import _scaled
from smt_kit.lspath import ChainData, LSPath, _bits, path_leq, stabilizer_nodes
from smt_kit.weyl import WeylWord, bruhat_leq

Q = Fraction


def direction_weights(data) -> list:
    """The Fraction weight c(shape) of every coset c of the interval."""
    return [c.word.act(data.shape) for c in data.poset.elements]


def cover_search(data) -> dict[int, list[tuple[int, int]]]:
    """upper -> [(lower, pairing)] in increasing lower: every coset one
    shorter tested with `bruhat_leq` (W/W_J is graded), each pairing the
    content (the gcd of the simple-root coordinates) of the weight
    difference, asserted to be a multiple of a real root."""
    els, real = data.poset.elements, data.real
    weights = direction_weights(data)
    out = {}
    for i, c in enumerate(els):
        out[i] = []
        for j, b in enumerate(els):
            if b.length() == c.length() - 1 and bruhat_leq(b, c):
                diff = weights[i] - weights[j]
                coords = real.root_coords(diff)
                assert coords is not None and all(x.denominator == 1 for x in coords)
                n = math.gcd(*(int(x) for x in coords)) or 1
                assert real.is_real_root(diff.scale(Q(1, n))), "cover is not along a real root"
                out[i].append((j, n))
    return out


def cover_pairing(real, weights, upper: int, lower: int) -> int:
    """n with mu_upper - mu_lower = n * beta for the covering root beta: the
    one divisor n of the content for which the difference over n is a real
    root."""
    diff = weights[upper] - weights[lower]
    coords = cartan_reference.root_coords(real, diff)
    assert coords is not None and all(c.denominator == 1 for c in coords)
    content = math.gcd(*(abs(int(c)) for c in coords)) or 1
    hits = [n for n in range(1, content + 1) if content % n == 0
            and cartan_reference.is_real_root(real, diff.scale(Q(1, n)))]
    assert len(hits) == 1, "covering reflection not unique"
    return hits[0]


def cut_values(data, upper: int, lower: int) -> frozenset[Fraction]:
    """All a in (0,1) admitting an a-chain from `upper` down to `lower`."""
    values: set[Fraction] = set()
    gcds: set[int] = set()

    def dfs(node: int, g: int):
        if node == lower:
            gcds.add(g)
            return
        for nxt, pairing in data._covers_below[node]:
            if bruhat_leq(data.poset.elements[lower], data.poset.elements[nxt]):
                dfs(nxt, math.gcd(g, pairing))

    dfs(upper, 0)
    for g in gcds:
        if g > data.denom_cap:
            raise ValueError(f"cut denominator {g} exceeds the cap {data.denom_cap}")
        values.update(Q(t, g) for t in range(1, g))
    return frozenset(values)


def enumerate_paths(shape, top) -> list[LSPath]:
    """All LS paths of the given shape with top direction <= top: every
    coset of the interval tested for lying below the last direction, cut
    values by the depth-first walk."""
    data = ChainData(shape, top)
    paths: list[LSPath] = []
    order = range(len(data.poset.elements))

    def extend(dirs: list[int], cuts: list[Fraction]):
        paths.append(LSPath(shape,
                            tuple(data.poset.elements[i] for i in dirs),
                            tuple(cuts) + (Q(1),)))
        last = dirs[-1]
        for nxt in order:
            if nxt == last:
                continue
            if not bruhat_leq(data.poset.elements[nxt], data.poset.elements[last]):
                continue
            for a in sorted(cut_values(data, last, nxt)):
                if a > cuts[-1]:
                    extend(dirs + [nxt], cuts + [a])

    for start in order:
        extend([start], [Q(0)])
    return paths


def images(data) -> list[list[int]]:
    """The integer image of den * shape under each coset's whole word."""
    x, _ = _scaled(data.shape)
    return [data.real.image(c.word.letters, x) for c in data.poset.elements]


def prefix_pairings(data) -> dict[int, list[tuple[int, int]]]:
    """upper -> [(lower, n)] over the interval's covers: the covering root
    s_{l_0} ... s_{l_{p-1}}(alpha_{l_p}) imaged through the prefix of the
    word, n read off one coordinate of the image difference and asserted
    on all of them."""
    real = data.real
    _, den = _scaled(data.shape)
    ims = images(data)
    out = {}
    for upper, covered in enumerate(data.poset.lower_covers):
        word = data.poset.elements[upper].word.letters
        out[upper] = []
        for lower, p in covered:
            alpha = [0] * (real.n + 1)
            for j, a in real.int_roots[word[p]]:
                alpha[j] = a
            beta = real.image(word[:p], alpha)
            diff = [a - b for a, b in zip(ims[lower], ims[upper])]
            k = next(k for k, b in enumerate(beta) if b)
            n = diff[k] // (den * beta[k])
            assert n > 0 and all(d == n * den * b for d, b in zip(diff, beta)), \
                "cover is not along its covering root"
            out[upper].append((lower, n))
    return out


def chain_gcds(data, lower: int) -> dict[int, frozenset[int]]:
    """node -> the gcds of the pairings along the saturated chains from
    node down to `lower`, for every node above `lower` (0 at `lower`): one
    pass up the length-sorted interval, each node after its covers."""
    reach = {lower: frozenset((0,))}
    for node in range(lower + 1, len(data.poset.elements)):
        gcds = {math.gcd(pairing, g)
                for nxt, pairing in data._covers_below[node] if nxt in reach
                for g in reach[nxt]}
        if gcds:
            reach[node] = frozenset(gcds)
    return reach


def gcd_cut_values(data, upper: int, lower: int, memo=None) -> tuple[Fraction, ...]:
    """The cut values off the chain gcds, increasing; the smallest gcd above
    `denom_cap` raises the cap error.  `memo` keeps the gcds per lower."""
    memo = {} if memo is None else memo
    if lower not in memo:
        memo[lower] = chain_gcds(data, lower)
    values: set[Fraction] = set()
    for g in sorted(memo[lower].get(upper, ())):
        if g > data.denom_cap:
            raise ValueError(f"cut denominator cap exceeded: cap={data.denom_cap}, "
                             f"denominator {g} reached")
        values.update(Q(t, g) for t in range(1, g))
    return tuple(sorted(values))


def chain_paths(data) -> list[LSPath]:
    """All LS paths of the data's shape: each path extended to every coset
    strictly below its last direction, off the down-sets, in increasing
    index, with the cut values off the chain gcds."""
    below = [list(_bits(down ^ (1 << i))) for i, down in enumerate(data.poset.down)]
    memo: dict = {}
    paths: list[LSPath] = []

    def extend(dirs: list[int], cuts: list[Fraction]):
        paths.append(LSPath(data.shape, tuple(data.poset.elements[i] for i in dirs),
                            tuple(cuts) + (Q(1),)))
        for nxt in below[dirs[-1]]:
            for a in gcd_cut_values(data, dirs[-1], nxt, memo):
                if a > cuts[-1]:
                    extend(dirs + [nxt], cuts + [a])

    for start in range(len(data.poset.elements)):
        extend([start], [Q(0)])
    return paths


def straight_path(shape, coset) -> LSPath:
    """The path of one direction: `coset` from 0 to 1."""
    return LSPath(shape, (coset,), (Q(0), Q(1)))


def is_lspath(candidate: LSPath) -> bool:
    """Full verification of the chain conditions and endpoint integrality."""
    r = len(candidate.dirs)
    cuts = candidate.cuts
    if len(cuts) != r + 1 or cuts[0] != 0 or cuts[-1] != 1:
        return False
    if any(not cuts[k] < cuts[k + 1] for k in range(r)):
        return False
    J = stabilizer_nodes(candidate.shape)
    if any(d.parabolic != J for d in candidate.dirs):
        return False
    if r > 1:       # cut values exist only from a coset down to a lower one
        data = ChainData(candidate.shape, candidate.dirs[0])
        at = [data.index.get(d.key) for d in candidate.dirs]
        if None in at or any(cuts[k + 1] not in data.cut_values(at[k], at[k + 1])
                             for k in range(r - 1)):
            return False
    points, scale, _ = candidate._scaled_breakpoints()
    return all(y % scale == 0 for y in points[-1])


def is_standard_above(factors: tuple[LSPath, ...]) -> bool:
    """Some arrangement of the factors is a chain pi_1 <= ... <= pi_s."""
    if len({f.shape for f in factors}) > 1:
        raise ValueError("factors must share one shape")
    for perm in itertools.permutations(range(len(factors))):
        if all(path_leq(factors[perm[k]], factors[perm[k + 1]])
               for k in range(len(factors) - 1)):
            return True
    return False


def _parabolic_elements(real, nodes) -> list[WeylWord]:
    out = {WeylWord(real, ()).key: WeylWord(real, ())}
    frontier = list(out.values())
    while frontier:
        nxt = []
        for w in frontier:
            for j in nodes:
                cand = WeylWord(real, w.reduce() + (j,))
                if cand.key not in out:
                    out[cand.key] = cand
                    nxt.append(cand)
        frontier = nxt
    return list(out.values())


def is_standard_below(factors: tuple[LSPath, ...], block_index=None) -> bool:
    """Some arrangement of the factors inside their blocks admits a globally
    weakly increasing sequence of stabilizer-fibre lifts (backtracking)."""
    if not factors:
        return True
    real = factors[0].real
    if block_index is None:
        block_index = lambda f: sum(f.shape.coords)
    fibers: dict[frozenset, list[WeylWord]] = {}
    blocks: dict = {}
    for f in factors:
        blocks.setdefault(block_index(f), []).append(f)
        J = stabilizer_nodes(f.shape)
        if J not in fibers:
            fibers[J] = _parabolic_elements(real, sorted(J))

    def admits(factors) -> bool:
        seq = []
        for f in factors:
            J = stabilizer_nodes(f.shape)
            for d in reversed(f.dirs):      # increasing order within the path
                seq.append((d, J))

        def search(k: int, lower) -> bool:
            if k == len(seq):
                return True
            coset, J = seq[k]
            for u in fibers[J]:
                lift = coset.word * u
                if lower is None or bruhat_leq(lower, lift):
                    if search(k + 1, lift):
                        return True
            return False

        return search(0, None)

    keys = sorted(blocks)
    for arrangement in itertools.product(
            *(itertools.permutations(blocks[k]) for k in keys)):
        flat = [f for block in arrangement for f in block]
        if admits(flat):
            return True
    return False


def graded_count(gc, n: int, locus: str = "S") -> int:
    """Standard-from-above multisets of size n from `gc.pool(locus)`."""
    pool = gc.pool(locus)
    if n < 0:
        raise ValueError(f"degree {n} out of range: must be >= 0")
    if n == 0:
        return 1
    if n == 1:
        return len(pool)
    return sum(1 for combo in itertools.combinations_with_replacement(pool, n)
               if is_standard_above(combo))


class FibreLifts:
    """The lifts coset.word * u, u in W_J, of direction cosets as reduced
    words sorted by length (the minimal representative first)."""

    def __init__(self, real):
        self.real = real
        self._fibres: dict[frozenset[int], list[WeylWord]] = {}
        self._lifts: dict[tuple, list[WeylWord]] = {}

    def __call__(self, coset, J: frozenset[int]) -> list[WeylWord]:
        key = (coset.key, J)
        if key not in self._lifts:
            if J not in self._fibres:
                self._fibres[J] = _parabolic_elements(self.real, sorted(J))
            lifts = [WeylWord(self.real, (coset.word * u).reduce()) for u in self._fibres[J]]
            self._lifts[key] = sorted(lifts, key=lambda w: len(w.letters))
        return self._lifts[key]


def _minimal(lifts: list[WeylWord]) -> list[WeylWord]:
    """The Bruhat-minimal elements of reduced lifts sorted by length: a lift
    is minimal iff no lift kept before it lies below it."""
    out: list[WeylWord] = []
    for z in lifts:
        if not any(bruhat_leq(y, z) for y in out):
            out.append(z)
    return out


def forward_standard_below(factors: tuple[LSPath, ...], block_keys=None,
                           lifts: FibreLifts | None = None) -> bool:
    """The forward pass over the sub-multisets of each block, on lists."""
    if not factors:
        return True
    if block_keys is None:
        block_keys = [sum(f.shape.coords) for f in factors]
    if lifts is None:
        lifts = FibreLifts(factors[0].real)
    blocks: dict = {}
    for key, f in zip(block_keys, factors, strict=True):
        blocks.setdefault(key, []).append(f)

    def place(ends, steps):
        for step in steps:
            if ends is None:                # the minimal representative is below its coset
                ends = step[:1]
            else:
                ends = _minimal([z for z in step if any(bruhat_leq(x, z) for x in ends)])
                if not ends:
                    break
        return ends

    ends: list[WeylWord] | None = None      # None before the first factor
    for key in sorted(blocks):
        kinds: dict[tuple, list] = {}       # (J, direction keys) -> factors of that kind
        for f in blocks[key]:
            kinds.setdefault((stabilizer_nodes(f.shape), tuple(d.key for d in f.dirs)),
                             []).append(f)
        steps = [[lifts(d, J) for d in reversed(fs[0].dirs)]     # increasing directions
                 for (J, _), fs in kinds.items()]
        full = tuple(len(fs) for fs in kinds.values())
        states = {(0,) * len(kinds): ends}
        for _ in blocks[key]:
            grown: dict[tuple, list[WeylWord]] = {}
            for used, cur in states.items():
                for k, count in enumerate(full):
                    if used[k] < count:
                        nxt = place(cur, steps[k])
                        if nxt:
                            after = used[:k] + (used[k] + 1,) + used[k + 1:]
                            grown.setdefault(after, []).extend(nxt)
            if not grown:
                return False
            states = {used: _minimal(sorted(found, key=lambda w: len(w.letters)))
                      for used, found in grown.items()}
        ends = states[full]
    return True


def above_table(gc) -> list[list[int]]:
    """above[a]: the b with top(paths[a]) <= bottom(paths[b]), one
    `bruhat_leq` per pair of a top and a bottom coset."""
    by_bottom: dict[tuple, tuple] = {}
    for b, eta in enumerate(gc.paths):
        by_bottom.setdefault(eta.dirs[-1].key, (eta.dirs[-1], []))[1].append(b)
    rows: dict[tuple, list[int]] = {}
    for a in gc.paths:
        top = a.dirs[0]
        if top.key not in rows:
            rows[top.key] = [b for bottom, bs in by_bottom.values()
                             if bruhat_leq(top, bottom) for b in bs]
    return [rows[a.dirs[0].key] for a in gc.paths]


def bitset_place(lifts, ends: int, kind: int) -> int:
    """The lifts of the `smt_kit.lspath.FibreLifts` owner `lifts` that can
    end a sequence placing one factor of `kind` behind a prefix that can end
    in any of `ends` (1, the bit of the identity, before the first factor),
    as a bitset: a lift is reached iff some end lies below it."""
    for step in lifts._steps[kind]:
        ends = sum(1 << z for z in _bits(step) if lifts.down[z] & ends)
        if not ends:
            break
    return ends


def union_state(lifts, placed: tuple, memo: dict) -> int:
    """The lifts of the `smt_kit.lspath.FibreLifts` owner `lifts` that can
    end an admissible prefix placing exactly the sorted (block, kind) pairs
    of `placed`, by `bitset_place`: any kind of the last block can be the
    last factor.  0 when there is none; `memo` maps sub-multisets to their
    states."""
    if not placed:
        return 1
    if placed not in memo:
        block = placed[-1][0]
        found = 0
        for pos in range(len(placed) - 1, -1, -1):
            if placed[pos][0] != block:
                break
            if pos + 1 < len(placed) and placed[pos + 1] == placed[pos]:
                continue                # the same pair, already tried
            ends = union_state(lifts, placed[:pos] + placed[pos + 1:], memo)
            if ends:
                found |= bitset_place(lifts, ends, placed[pos][1])
        memo[placed] = found
    return memo[placed]
