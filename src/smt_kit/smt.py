"""Standard-monomial bookkeeping: minuscule posets, straightening, counts.

A straightening system is a graded poset of generators together with one
rewrite rule per incomparable pair, expressing the product as a combination
of monomials strictly below it in a monomial order that refines the grading
(grade first, then degree, then the ascending factor sequence through a
fixed linear extension).  Rewriting terminates by strict descent and is
confluence-checked on the test systems.

A minuscule poset lives on the integer keys of its orbit: a lowering table
(edges mu -> mu - alpha_a = s_a mu), one up-set bitset per weight, so an
order query reads one bit and the standard pairs are popcounts.  The
56-dimensional one, built once per process, carries the one seeded
relation, with the factor labels produced by the lowering table (minuscule
weight spaces are lines, so the edges determine the labels).
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from .cartan import FINITE, GCM, FinTypeLabel, Realization, build_cartan, classify
from .extend import extend_restricted
from .weyl import CosetRep, coset_interval, longest_parabolic, tau_full
from . import caps, lspath

Q = Fraction


class MinusculePoset:
    """Weight poset of a minuscule orbit: mu <= nu iff mu - nu in N[Delta].

    The minimum is the highest weight (the order follows restriction of
    sections: the dual basis vector at the highest weight is the smallest).
    The orbit is one walk down from the highest weight, mu -> mu - alpha_a
    where <mu, alpha_a^vee> > 0, refused at the first weight with a pairing
    outside {-1, 0, 1}: until then every step is the reflection s_a, and
    every orbit weight is reached from the top by such steps, so a walk
    that is never refused covers the orbit, which is minuscule.  These
    steps are the covers of the order, a distributive lattice (Proctor,
    Bruhat lattices, plane partition generating functions, and minuscule
    representations, 1984).  The walk runs on the integer coordinate
    tuples of the weights, and ``index`` maps each tuple to its weight's
    number (a tuple of equal Fractions finds the same entry).
    ``depth[i]`` (the root coordinates of highest - weight i) is counted
    along the steps; ``_lower[i][a]`` is the index of s_a of weight i (None
    if a does not lower it), recorded as the walk takes the step;
    ``_up[i]`` is the bitset of the j >= i: bit i ORed with the up-sets of
    its lowerings.
    More weights than the table's `orbit_weights` cap raise ValueError.
    """

    def __init__(self, real: Realization, node: int):
        self.real = real
        self.highest = real.fundamental(node)
        if classify(real.gcm) != FINITE:        # before the walk, which need not end
            raise ValueError("finite-type GCM required")
        n, rows = real.n, real.gcm.entries
        cap = caps.CAPS["orbit_weights"]
        top = tuple(int(i == node) for i in range(n))
        depth = {top: (0,) * n}
        lowered: dict[tuple, list] = {}             # k -> [k - alpha_a, or None]
        queue = [top]
        for k in queue:                             # grows as the walk goes down
            row = lowered[k] = [None] * n
            for a in range(n):
                if k[a] > 0:
                    row[a] = im = tuple(map(operator.sub, k, rows[a]))
                    if im in depth:
                        continue
                    if not all(-1 <= c <= 1 for c in im):
                        raise ValueError("weight is not minuscule (a pairing leaves -1..1)")
                    if len(depth) >= cap:
                        raise ValueError(f"orbit cap exceeded: cap={cap}, "
                                         f"{len(depth)} weights reached")
                    depth[im] = depth[k][:a] + (depth[k][a] + 1,) + depth[k][a + 1:]
                    queue.append(im)
        order = sorted(depth, key=lambda k: (sum(depth[k]), k))
        self.index = {k: i for i, k in enumerate(order)}
        self.depth = [depth[k] for k in order]
        self._lower = [[None if im is None else self.index[im] for im in lowered[k]]
                       for k in order]
        self._up = [0] * len(order)
        for i in reversed(range(len(order))):       # a lowering has a larger index
            self._up[i] = functools.reduce(
                int.__or__, (self._up[j] for j in self._lower[i] if j is not None), 1 << i)

    def __len__(self):
        return len(self.depth)

    def leq(self, i: int, j: int) -> bool:
        """i <= j iff weight_i - weight_j is a nonnegative root sum."""
        return self._up[i] >> j & 1 == 1

    def lower(self, i: int, node: int) -> int | None:
        """Index of weight_i - alpha_node if that is again a weight."""
        return self._lower[i][node]

    def d_degree(self, i: int) -> int:
        return self.depth[i][0]


def minuscule_poset(m: GCM | FinTypeLabel, node: int, basis_id: str | None = None) -> MinusculePoset:
    if isinstance(m, FinTypeLabel):
        basis_id = basis_id or str(m)
        m = build_cartan(m)
    real = Realization(m, basis_id or "minuscule")
    return MinusculePoset(real, node)


def count_standard_pairs(p: MinusculePoset) -> tuple[int, int]:
    """(comparable unordered pairs with repeats, incomparable pairs): the
    pairs i <= j are the bits of the up-sets."""
    n = len(p)
    comparable = sum(up.bit_count() for up in p._up)
    return comparable, n * (n + 1) // 2 - comparable


# ---------------------------------------------------------------------------
# Straightening systems


class StraighteningSystem:
    """Generators with a partial order, grades, and one relation per pair.

    relations map a frozenset {a, b} of incomparable generators to a list
    of (coefficient, (c, d)) with c <= d; every relation monomial must be
    strictly smaller than a*b in the monomial order.
    """

    def __init__(self, generators, leq, grade, relations):
        self.generators = list(generators)
        self._leq = leq
        self.grade = dict(grade)
        self.relations = {frozenset(k): list(v) for k, v in relations.items()}
        self.lin = self._linear_extension()
        for pair, rhs in self.relations.items():
            if len(pair) != 2 or self.comparable(*pair):     # {a, a} is one generator
                raise ValueError("relation keyed on a comparable pair")
            top = self.monomial_key(tuple(pair))
            for coef, mono in rhs:
                if not self.monomial_key(mono) < top:
                    raise ValueError("relation is not strictly decreasing")

    def comparable(self, a, b) -> bool:
        return a == b or self._leq(a, b) or self._leq(b, a)

    def _linear_extension(self):
        # Kahn's algorithm with a deterministic tiebreak
        gens = sorted(self.generators, key=lambda g: (self.grade[g], repr(g)))
        placed: list = []
        remaining = list(gens)
        while remaining:
            for g in remaining:
                if not any(self._leq(h, g) and h != g for h in remaining if h != g):
                    placed.append(g)
                    remaining.remove(g)
                    break
            else:
                raise ValueError("order is not antisymmetric")
        return {g: i for i, g in enumerate(placed)}

    def sort_mono(self, mono) -> tuple:
        return tuple(sorted(mono, key=lambda g: self.lin[g]))

    def monomial_key(self, mono) -> tuple:
        m = self.sort_mono(mono)
        return (sum(self.grade[g] for g in m), len(m),
                tuple(self.lin[g] for g in m))

    def is_standard(self, mono) -> bool:
        return self.first_incomparable(mono) is None

    def first_incomparable(self, mono) -> tuple | None:
        return next(((a, b) for a, b in itertools.combinations(self.sort_mono(mono), 2)
                     if not self.comparable(a, b)), None)


def straighten(mono, sys: StraighteningSystem) -> dict:
    """Normal form of a monomial as {standard monomial: coefficient}.

    Repeatedly replaces an incomparable pair inside the currently largest
    non-standard monomial; terminates by strict monomial-order descent.
    More rewrites than the table's `straighten_rewrites` cap raise ValueError.
    """
    max_steps = caps.CAPS["straighten_rewrites"]
    work: dict[tuple, Fraction] = {sys.sort_mono(mono): Q(1)}
    for step in itertools.count():
        bad = [m for m in work if not sys.is_standard(m)]
        if not bad:
            return {m: c for m, c in work.items() if c}
        if step == max_steps:
            raise ValueError(f"straighten cap exceeded: max_steps={max_steps}, "
                             f"{len(bad)} non-standard monomials left after {step} rewrites")
        target = max(bad, key=sys.monomial_key)
        coef = work.pop(target)
        a, b = sys.first_incomparable(target)
        rest = list(target)
        rest.remove(a)
        rest.remove(b)
        rhs = sys.relations.get(frozenset((a, b)))
        if rhs is None:
            raise ValueError(f"missing relation for incomparable pair {(a, b)}")
        for c, pair_mono in rhs:
            key = sys.sort_mono(tuple(rest) + tuple(pair_mono))
            work[key] = work.get(key, Q(0)) + coef * c
            if not work[key]:
                del work[key]


# ---------------------------------------------------------------------------
# The 56-dimensional example

# node order: attached node first, then the hexagon chain away from it,
# with the branch node in position 2 (Bourbaki E7 nodes 7,6,2,5,4,3,1)
_E7_PERM = (6, 5, 1, 4, 3, 2, 0)

_X_CHAIN = (0, 1, 3, 4, 5)        # x_{k+1} = f_{chain[k]} x_k
_Y_CHAIN = (2, 5, 4, 3, 1, 0)     # y_5 = f_2 x_4, then down to y_0


def e7_gcm() -> GCM:
    b = build_cartan(FinTypeLabel("E", 7)).entries
    ent = tuple(tuple(b[_E7_PERM[i]][_E7_PERM[j]] for j in range(7)) for i in range(7))
    return GCM(ent)


@functools.lru_cache(maxsize=1)
def e7_minuscule() -> MinusculePoset:
    """The E7 poset, built once per process; no caller mutates it."""
    return minuscule_poset(e7_gcm(), 0, basis_id="E7@0")


def e7_relation_labels(p: MinusculePoset) -> tuple[list[int], list[int]]:
    """Indices of x_0..x_5 and y_0..y_5 via lowering chains from the top."""
    def chain(i, nodes):
        out = [i]
        for node in nodes:
            out.append(p.lower(out[-1], node))
            assert out[-1] is not None, "lowering chain leaves the orbit"
        return out
    xs = chain(p.index[p.highest.coords], _X_CHAIN)
    ys = chain(xs[4], _Y_CHAIN)[:0:-1]          # y_5 branches off x_4; y_0 .. y_5
    return xs, ys


def e7_system() -> tuple[StraighteningSystem, list[int], list[int]]:
    """The minuscule system seeded with the single quadratic relation.

    The relation x_0 y_0 - x_1 y_1 + x_2 y_2 - x_3 y_3 + x_4 y_4 - x_5 y_5
    has exactly one incomparable factor pair, (x_5, y_5); the rule rewrites
    that product into the other five (all standard).
    """
    p = e7_minuscule()
    xs, ys = e7_relation_labels(p)
    pairs = list(zip(xs, ys))
    incomp = [(a, b) for a, b in pairs if not (p.leq(a, b) or p.leq(b, a))]
    assert incomp == [(xs[5], ys[5])], "seed relation shape unexpected"
    rhs = [(Q((-1) ** k), (xs[k], ys[k])) for k in range(5)]
    grade = {i: p.d_degree(i) for i in range(len(p))}
    sys = StraighteningSystem(range(len(p)), p.leq, grade,
                              {frozenset((xs[5], ys[5])): rhs})
    return sys, xs, ys


# ---------------------------------------------------------------------------
# Graded counts against the dimension oracle


class GradedCounts:
    """Standard-monomial counts on the loci below tau_m.

    A multiset of paths is standard from above iff its factors form a chain
    for `lspath.path_leq`, which is transitive, antisymmetric on distinct
    paths and reflexive on straight ones; so the standard monomials of
    degree n are the multichains of length n, counted by a dynamic program
    over one comparability table, read off the down-sets of the interval
    (`weyl.CosetPoset.down`) that the paths are enumerated from.
    """

    def __init__(self, case, m: int):
        self.case = case
        self.m = m
        data = lspath.ChainData(case.amb.e_omega0(), case.tau_coset(m))
        self.paths = lspath.chain_paths(data)
        self.f0 = next(p for p in self.paths
                       if len(p.dirs) == 1 and p.dirs[0].length() == 0)
        # above[a]: the b with paths[a] <= paths[b], i.e. top direction of a
        # <= bottom direction of b, read off the interval's down-sets; paths
        # with the same top direction share their row
        index, down = data.index, data.poset.down
        bottoms = [index[eta.dirs[-1].key] for eta in self.paths]
        rows: dict[int, list[int]] = {}
        self.above = []
        for a in self.paths:
            top = index[a.dirs[0].key]
            if top not in rows:
                rows[top] = [b for b, bottom in enumerate(bottoms) if down[bottom] >> top & 1]
            self.above.append(rows[top])

    def _members(self, locus: str) -> list[int]:
        if locus == "S":
            return list(range(len(self.paths)))
        if locus == "R":
            return [b for b, p in enumerate(self.paths) if p is not self.f0]
        raise ValueError("locus must be 'S' or 'R'")

    def pool(self, locus: str):
        return [self.paths[b] for b in self._members(locus)]

    def count(self, n: int, locus: str = "S") -> int:
        """Multichains of length n in the pool: ways[b] counts the chains of
        the current length that end at paths[b]."""
        members = self._members(locus)
        if n < 0:
            raise ValueError(f"degree {n} out of range: must be >= 0")
        if n == 0:
            return 1
        ways = dict.fromkeys(members, 1)
        for _ in range(n - 1):
            nxt = dict.fromkeys(ways, 0)
            for a, w in ways.items():
                for b in self.above[a]:
                    if b in nxt:
                        nxt[b] += w
            ways = nxt
        return sum(ways.values())

    def degree_split(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.paths:
            d = lspath.d_degree(p)
            out[d] = out.get(d, 0) + 1
        return out


def expected(case, m: int, n: int, locus: str = "S") -> int:
    """Dimension sums over weakly increasing index tuples (0 allowed on S)."""
    lo = 1 if locus == "R" else 0
    total = 0
    for tup in itertools.combinations_with_replacement(range(lo, m + 1), n):
        total += case.dim_eps_sum([i for i in tup if i > 0])
    return total


# ---------------------------------------------------------------------------
# The two standard bases


class TwoBases:
    """The degree-independent tables of `two_basis_counts`, built once per
    case and kept by it (`AmbientCase.two_bases`).

    The pool is the base paths of shapes eps_1 .. eps_l, a path's block
    being its index i, ordered by (block, `lspath.FibreLifts.order_key` of
    its kind, kind number).  The lift is checked once: injective, of
    node-0 degree i, and in degree 1 a bijection onto the paths of the
    Richardson locus, which `graded` enumerates below tau_l.  `leq[a]` is
    the bitset of the positions b with lift(a) <= lift(b) for
    `lspath.path_leq`, read off the comparability table of `graded`; a
    lifted path outside that table (only when the lift is no bijection)
    gets an empty row.
    """

    def __init__(self, case):
        self.lifts = lspath.FibreLifts(case.base_realization())
        pool = [(i, self.lifts.kind(p), case.lift_to_grassmannian(p, i))
                for i in range(1, case.rank + 1) for p in case.base_paths(i)]
        pool.sort(key=lambda e: (e[0], self.lifts.order_key(e[1]), e[1]))
        self.blocks, self.kinds, lifted = zip(*pool)
        assert all(lspath.d_degree(q) == i for i, q in zip(self.blocks, lifted))
        assert len(set(lifted)) == len(lifted), "lift is not injective"
        self.graded = GradedCounts(case, case.rank)
        self.degree1_bijection = set(lifted) == set(self.graded.pool("R"))
        position = {q: b for b, q in enumerate(lifted)}
        bit = [1 << position[p] if p in position else 0 for p in self.graded.paths]
        row = {p: sum(bit[b] for b in above)
               for p, above in zip(self.graded.paths, self.graded.above)}
        self.leq = [row.get(q, 0) for q in lifted]

    def counts(self, degree: int) -> dict[tuple, list[int]]:
        """(last position, state, block tuple) -> [monomials of `degree`
        that admit a defining sequence, those of them whose lifts form a
        chain in pool order].  A monomial is a nondecreasing sequence of
        pool positions and its state the fold of `FibreLifts.place` along
        it from the identity, a minimal lift (Deodhar) whose up-set, on blocks
        of equal shape, is the union over all orders inside a block that
        `lspath.is_standard_below` takes (measured, not proved; `tests/test_smt.py`
        checks it).  So both counts are one dynamic program, one placement
        per step; the second takes only the steps a -> b with leq[a] >> b & 1."""
        place = self.lifts.place
        layer = {(0, 0, ()): [1, 1]}
        for _ in range(degree):
            nxt: dict[tuple, list[int]] = {}
            for (pos, end, idx), (below, chain) in layer.items():
                up = self.leq[pos] if idx else ~0       # the first factor follows nothing
                for b in range(pos, len(self.kinds)):
                    state = place(end, self.kinds[b])
                    if state is not None:
                        entry = nxt.setdefault((b, state, idx + (self.blocks[b],)), [0, 0])
                        entry[0] += below
                        entry[1] += chain if up >> b & 1 else 0
            layer = nxt
        return layer


def two_basis_counts(case, degree: int) -> dict:
    """Standard monomials from below vs from above at the given degree.

    Below: multisets of base paths of quadratic-basis shapes admitting a
    defining sequence (blocks in increasing basis index), counted per
    multidegree by `TwoBases.counts` on the case's tables, so that later
    degrees rebuild nothing.  Above: standard multisets of lifted paths on
    the Richardson locus, counted on the `GradedCounts` table.  The lift
    carries below-standard to above-standard when, in every multidegree,
    each below-standard monomial lifts to a chain in pool order.
    """
    table = case.two_bases
    above_total = table.graded.count(degree, "R")
    below = dict.fromkeys(itertools.combinations_with_replacement(range(1, case.rank + 1),
                                                                  degree), 0)
    chains = dict(below)
    for (_, _, idx), (n, chain) in table.counts(degree).items():
        below[idx] += n
        chains[idx] += chain
    below_total = sum(below.values())
    report = {"degree": degree, "degree1_bijection": table.degree1_bijection,
              "below_by_multidegree": {"+".join(map(str, k)): v for k, v in below.items()},
              "below_total": below_total, "above_total": above_total,
              "totals_agree": below_total == above_total,
              "lift_preserves_standardness": chains == below}
    report["ok"] = report["totals_agree"] and table.degree1_bijection and chains == below
    return report


# ---------------------------------------------------------------------------
# The finite (restricted type A) structure


def finite_case_structure(case) -> dict:
    """Codimension-one checks in the finite situation.

    (a) tau sends the node-0 fundamental weight to itself minus e_eps_1 on
    the tier; (b) the down-set of [tau] in the orbit poset is everything
    but the maximum; (c) removing also the minimum leaves a set of size
    |poset| - 2 (and in the ambient minuscule picture that size equals the
    dimension sum over the basis weights).
    """
    tier = case.tier
    if tier.label.family != "A":
        raise ValueError("finite structure requires restricted type A")
    l = case.rank
    report: dict = {"rank": l}

    tau = tau_full(l, tier)
    report["tau_action_ok"] = (
        tau.act(tier.e_omega0()) == tier.e_omega0() - tier.e_eps(1))

    # tier orbit poset of the node-0 fundamental weight
    real = tier.real
    J = frozenset(range(1, l + 1))
    w0 = longest_parabolic(real, range(real.n))
    top = CosetRep(w0, J)
    poset = coset_interval(top)
    tau_c = CosetRep(tau, J)
    down = [c for c in poset if poset.leq(c, tau_c)]
    report["tier_poset_size"] = len(poset)
    report["tier_down_is_all_but_max"] = (len(down) == len(poset) - 1
                                          and top not in down)
    report["tier_F0_size"] = len(down) - 1
    report["tier_sizes_ok"] = len(poset) - report["tier_F0_size"] == 2

    # ambient minuscule picture (honest dimensions)
    amb = case.amb
    p = MinusculePoset(amb.real, 0)
    report["ambient_poset_size"] = len(p)
    degrees = [p.d_degree(i) for i in range(len(p))]
    report["ambient_grading"] = [degrees.count(d) for d in sorted(set(degrees))]
    dims = [1] + [case.dim_eps_sum([i]) for i in range(1, l + 1)] + [1]
    report["ambient_grading_ok"] = report["ambient_grading"] == dims
    # On a minuscule orbit the coset order is the weight-dominance test,
    # so the down-set of [tau] can be read off the weights directly.
    tau_weight = case.tau_lift(l).act(amb.e_omega0())
    tau_idx = p.index[tau_weight.coords]
    max_idx = len(p) - 1
    amb_down = [i for i in range(len(p)) if p.leq(i, tau_idx)]
    report["ambient_down_is_all_but_max"] = (
        len(amb_down) == len(p) - 1 and max_idx not in amb_down)
    report["ambient_F0_size"] = len(amb_down) - 1
    report["ambient_F0_matches_dims"] = (
        report["ambient_F0_size"] == sum(dims[1:-1]) == len(p) - 2)
    report["ok"] = all(v for k, v in report.items()
                       if isinstance(v, bool))
    return report


def remark48_report(label: FinTypeLabel) -> dict:
    """Experiment: in types B/C/BC, tau(e_omega_0) vs 3 e_omega_0 - e_eps_l.

    Agreement is only checked modulo delta; the delta discrepancy is
    reported, not asserted.
    """
    tier = extend_restricted(label)
    l = tier.rank
    tau = tau_full(l, tier)
    got = tau.act(tier.e_omega0())
    want = tier.e_omega0().scale(3) - tier.e_eps(l)
    diff = got - want
    return {"label": str(label),
            "agrees_mod_delta": all(c == 0 for c in diff.coords),
            "delta_discrepancy": str(diff.delta)}
