"""The Fraction lattice kernels that `smt_kit.quadlat` replaced, kept as a test oracle.

Membership solves for the coefficients of a weight over the generators
with an exact Gaussian elimination; the monoid enumeration works on
`WeightVec`s with Fraction coordinates; the dominance box subtracts Fraction
root rows; the minuscule order expands each difference of weights over the
simple roots.  None of it shares arithmetic with the integer kernels (HNF
reduction, integer tuples, root-coordinate depths), which makes it a
differential oracle for `tests/test_quadlat_differential.py`.

`smt_kit.quadlat._dominant_below` is a root descent from the top weight,
one positive root at a time, through dominant weights only, keyed by the
weight it reaches; `smt_kit.quadlat.is_quadratic` runs it once per
lattice, every pair of basis elements walking only the weights the earlier
pairs did not reach.  `dominant_below_descent` is the descent as it ran
before: one walk per top, keyed by the root coordinates of its offset from
the top, on positive roots and fundamental-weight steps it builds itself
from `cartan_reference.root_rows` and `cartan.finite_roots`.  Two integer walks over
the box of root coordinates of top - lam stand behind it.
`dominant_below_box` tests every point of the whole box, which is cheap
enough to check the descent at rank 5 and on D5 and E6, where the Fraction
`dominant_below` takes seconds per lattice.  It reads its box bounds with
its own `linalg.solve`.  `dominant_below_walk` is the pruned walk the
descent replaced: it tests each coordinate as soon as it is final and
skips the subtree that fails, reading its box bounds through
`cartan.root_inverse`.  Neither subtracts a positive root other than a
simple one, and neither relies on Stembridge's theorem, which the descent
does.

`hgt` solves for the expansion over the basis on every call, and
`intermediate_lattices` finds the classes of P/Q with one `linalg.solve`
per lookup, where `smt_kit.quadlat` applies one integer left inverse per
basis or per GCM; it tests every subset of the classes for a subgroup,
where `smt_kit.quadlat` closes at most two classes at a time.
`monoid_basis` searches every lattice, also those with a diagonal HNF,
whose free monoid `smt_kit.quadlat` reads off directly, and it searches
every point up to the height bound, where `smt_kit.quadlat` stops at the
first smaller bound 1, 2, 4, ... that shows a double factorization.
`minuscule_weights` lists the weights of a minuscule poset as Fraction
weights, built from the integer keys of its `index`, since `smt_kit.smt`
keeps no `WeightVec` per weight.  `minuscule_depths` reads the depths with
`Realization.root_coords`, and `minuscule_leq` expands each difference of
weights the same way, where `smt_kit.smt` counts the depths along the
lowering steps and reads the order off up-set bitsets.  `minuscule_lower`
subtracts a simple root from a Fraction weight and looks the result up,
where `smt_kit.smt` reads a lowering table, and `count_standard_pairs`
tests every pair, where `smt_kit.smt` counts the bits of the up-sets.

The code is the earlier `smt_kit.quadlat` / `smt_kit.smt` code unchanged
apart from methods becoming functions of the lattice or poset, and the
docstrings of the walks.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from fractions import Fraction

from cartan_reference import root_rows, simple_root
from smt_kit import linalg
from smt_kit.cartan import WeightVec, build_cartan, finite_roots, root_inverse
from smt_kit.quadlat import SubLattice, _hnf

Q = Fraction

_weights: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def coefficients(lat, lam: WeightVec) -> tuple[int, ...] | None:
    """Integer coordinates of lam over the generators; None if outside."""
    n = lat.gcm.n
    cols = [[lat.generators[i].coords[j] for i in range(n)] for j in range(n)]
    sol = linalg.solve(cols, list(lam.coords))
    if sol is None or any(c.denominator != 1 for c in sol):
        return None
    return tuple(int(c) for c in sol)


def contains(lat, lam: WeightVec) -> bool:
    return lam.is_integral() and coefficients(lat, lam) is not None


def dominant_points(lat, bound: int):
    """Nonzero dominant lattice points with coordinate sum <= bound."""
    n = lat.gcm.n

    def rec(prefix, budget):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(budget + 1):
            yield from rec(prefix + [c], budget - c)

    for coords in rec([], bound):
        if all(c == 0 for c in coords):
            continue
        v = WeightVec(lat.basis_id, tuple(Q(c) for c in coords))
        if contains(lat, v):
            yield v


def monoid_basis(lat, height_bound: int) -> list[WeightVec] | None:
    """Irreducibles of the dominant monoid, iff expansion over them is unique.

    The verdict is certified only for elements of coordinate height up to
    the bound; None means the bounded test found non-freeness.
    """
    points = sorted(dominant_points(lat, height_bound),
                    key=lambda v: (sum(v.coords), v.coords))
    point_set = {v.coords for v in points}
    irred: list[WeightVec] = []
    for v in points:
        # any decomposition contains an irreducible summand of smaller height
        decomposable = any(
            all(w.coords[j] <= v.coords[j] for j in range(len(v.coords)))
            and w.coords != v.coords
            and tuple(v.coords[j] - w.coords[j] for j in range(len(v.coords))) in point_set
            for w in irred)
        if not decomposable:
            irred.append(v)

    # unique factorization over the irreducibles, within the bound
    memo: dict[tuple, int] = {}

    def expansions(coords, start):
        if all(c == 0 for c in coords):
            return 1
        key = (coords, start)
        if key not in memo:
            total = 0
            for k in range(start, len(irred)):
                w = irred[k].coords
                if all(w[j] <= coords[j] for j in range(len(coords))):
                    total += expansions(tuple(c - d for c, d in zip(coords, w)), k)
                    if total > 1:
                        break
            memo[key] = total
        return memo[key]

    for v in points:
        if expansions(v.coords, 0) != 1:
            return None
    return sorted(irred, key=lambda v: v.coords, reverse=True)


def dominant_below(lat, top: WeightVec):
    """Dominant integral weights <= top in the dominance order."""
    gcm = lat.gcm
    rows = root_rows(gcm)
    n = gcm.n
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]
    top_rc = linalg.solve(cols, list(top.coords))
    assert top_rc is not None and all(c >= 0 for c in top_rc)
    boxes = [range(int(c) + 1) for c in top_rc]
    for combo in itertools.product(*boxes):
        coords = [top.coords[j] - sum(Q(combo[i]) * rows[i][j] for i in range(n))
                  for j in range(n)]
        if all(c >= 0 and c.denominator == 1 for c in coords):
            yield WeightVec(lat.basis_id, tuple(coords))


def dominant_below_box(lat, top: WeightVec):
    """Dominant integral weights <= top: the integer walk over the whole box
    of root coordinates, each point tested once all of them are fixed."""
    gcm = lat.gcm
    rows = root_rows(gcm)
    n = gcm.n
    # scale by a common denominator (root_rows halves a BC column) so the box
    # runs in integers; a point is kept only if it divides back to integers
    d = math.lcm(*(x.denominator for x in itertools.chain(top.coords, *rows)))
    top_d = [int(d * c) for c in top.coords]
    rows_d = [[int(d * x) for x in row] for row in rows]
    top_rc = linalg.solve([[rows[i][j] for i in range(n)] for j in range(n)],
                          list(top.coords))
    assert all(c >= 0 for c in top_rc)
    for combo in itertools.product(*(range(math.floor(c) + 1) for c in top_rc)):
        coords = list(top_d)
        for k, row in zip(combo, rows_d):
            if k:
                for j in range(n):
                    coords[j] -= k * row[j]
        if all(c >= 0 and c % d == 0 for c in coords):
            yield WeightVec(lat.basis_id, tuple(c // d for c in coords))


def dominant_below_walk(lat, top: WeightVec):
    """Dominant integral weights <= top in the dominance order, as int tuples.

    The pruned walk that `smt_kit.quadlat._dominant_below` ran before the
    root descent: a depth-first walk over the root coordinates k_0 ... k_{n-1}
    of top - lam, in lexicographic order.  Coordinate j of top - sum k_i
    alpha_i is final once the last root with a nonzero entry in column j is
    fixed; it is checked there, and a subtree that fails is skipped.
    """
    gcm = lat.gcm
    rows = root_rows(gcm)
    n = gcm.n
    # scale by a common denominator (root_rows halves a BC column) so the walk
    # runs in integers; a point is kept only if it divides back to integers
    d = math.lcm(*(x.denominator for x in itertools.chain(top.coords, *rows)))
    coords = [int(d * c) for c in top.coords]
    rows_d = [[int(d * x) for x in row] for row in rows]
    inv = root_inverse(gcm)
    top_rc = inv.expand(coords + [0])
    assert all(c >= 0 for c in top_rc)
    highs = [c // (d * inv.d) for c in top_rc]
    final_at: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        final_at[max((i for i in range(n) if rows_d[i][j]), default=0)].append(j)

    def rec(i):
        row, checks = rows_d[i], final_at[i]
        for k in range(highs[i] + 1):
            if k:
                for j in range(n):
                    coords[j] -= row[j]
            if all(coords[j] >= 0 and coords[j] % d == 0 for j in checks):
                if i == n - 1:
                    yield tuple(c // d for c in coords)
                else:
                    yield from rec(i + 1)
        for j in range(n):
            coords[j] += highs[i] * row[j]

    yield from rec(0)


def root_steps(gcm) -> tuple[int, tuple]:
    """The positive roots as descent steps: (d, steps), each step
    (simple-root coordinates, d times the fundamental-weight coordinates w,
    the pairs (j, w_j) with w_j > 0), d the common denominator of the root
    rows."""
    rows = root_rows(gcm)
    d = math.lcm(*(x.denominator for row in rows for x in row))
    cols = [[int(d * row[j]) for row in rows] for j in range(gcm.n)]
    steps = []
    for root, _ in finite_roots(gcm):
        w = tuple(sum(map(operator.mul, root, col)) for col in cols)
        steps.append((root, w, tuple((j, x) for j, x in enumerate(w) if x > 0)))
    return d, tuple(steps)


def dominant_below_descent(lat, top: WeightVec) -> list[tuple[int, ...]]:
    """Dominant integral weights <= top in the dominance order, as int tuples.

    The root descent as one walk per top: a depth-first walk from top that
    subtracts positive roots and keeps only dominant vectors, keyed by the
    root coordinates of top - mu.  The walk runs on d * top, d the common
    denominator of top and the roots, and keeps the points that divide back
    by d; they are listed in ascending lexicographic order of the key.
    """
    if any(c < 0 for c in top.coords):
        raise ValueError(f"top {[str(c) for c in top.coords]} is not dominant")
    d_root, steps = root_steps(lat.gcm)
    d = math.lcm(d_root, *(c.denominator for c in top.coords))
    if d != d_root:
        s = d // d_root
        steps = [(root, tuple(s * x for x in w), tuple((j, s * x) for j, x in lows))
                 for root, w, lows in steps]
    start = ((0,) * lat.gcm.n, tuple(int(d * c) for c in top.coords))
    seen = dict([start])
    stack = [start]
    while stack:
        rc, v = stack.pop()
        for root, w, lows in steps:
            for j, x in lows:
                if v[j] < x:
                    break
            else:
                key = tuple(map(operator.add, rc, root))
                if key not in seen:
                    seen[key] = u = tuple(map(operator.sub, v, w))
                    stack.append((key, u))
    return [tuple(c // d for c in v) for _, v in sorted(seen.items())
            if all(c % d == 0 for c in v)]


def hgt(lam: WeightVec, basis: list[WeightVec]) -> Fraction:
    """Sum of the expansion coefficients of lam over the given basis."""
    n = len(lam.coords)
    cols = [[b.coords[j] for b in basis] for j in range(n)]
    sol = linalg.solve(cols, list(lam.coords))
    if sol is None:
        raise ValueError("weight not in the span of the basis")
    return sum(sol, Q(0))


def intermediate_lattices(label):
    """All lattices Q <= L <= P, via the finite quotient P/Q.

    Classes are fractional root-coordinate vectors; subgroups are found by
    testing every subset of the nonzero classes for closure under addition,
    2^(|P/Q| - 1) of them.
    """
    gcm = build_cartan(label)
    n = gcm.n
    rows = root_rows(gcm)
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]

    def cls(coords):
        sol = linalg.solve(cols, list(coords))
        return tuple(c - int(c) if c >= 0 else c - (int(c) - 1) for c in sol)

    zero = tuple(Q(0) for _ in range(n))
    reps = {zero: tuple(Q(0) for _ in range(n))}
    frontier = [reps[zero]]
    while frontier:
        nxt = []
        for rep in frontier:
            for i in range(n):
                cand = tuple(rep[j] + (1 if j == i else 0) for j in range(n))
                key = cls(cand)
                if key not in reps:
                    reps[key] = cand
                    nxt.append(cand)
        frontier = nxt

    classes = sorted(reps)
    nonzero = [c for c in classes if c != zero]
    add = {(a, b): cls(tuple(x + y for x, y in zip(reps[a], reps[b])))
           for a in classes for b in classes}
    out = []
    for k in range(len(nonzero) + 1):
        for subset in itertools.combinations(nonzero, k):
            group = {zero, *subset}
            if all(add[(a, b)] in group for a in group for b in group):
                out.append(sorted(group))
    root_rows_int = [[int(x * 1) if x.denominator == 1 else None for x in row]
                     for row in rows]
    assert all(x is not None for row in root_rows_int for x in row)
    lattices = []
    for group in out:
        gen_rows = [list(map(int, row)) for row in root_rows_int]
        for c in group:
            if c != zero:
                gen_rows.append([int(x) for x in reps[c]])
        basis = _hnf(gen_rows)
        gens = [WeightVec(str(label), tuple(Q(x) for x in row)) for row in basis]
        lattices.append((len(group), SubLattice(label, gens)))
    return lattices


def minuscule_weights(p) -> list[WeightVec]:
    """The weights of the poset in index order, as Fraction weights over
    its realization's basis, built once per live poset from the integer
    keys of `p.index`."""
    if p not in _weights:
        _weights[p] = [WeightVec(p.real.basis_id, k) for k in sorted(p.index, key=p.index.get)]
    return _weights[p]


def minuscule_depths(p) -> dict[tuple, tuple[int, ...]]:
    """The depth of each weight of the poset, highest - weight read with
    `Realization.root_coords`, keyed by the weight's coordinates."""
    out = {}
    for w in minuscule_weights(p):
        rc = p.real.root_coords(p.highest - w)
        assert rc is not None and all(c.denominator == 1 for c in rc)
        out[w.coords] = tuple(int(c) for c in rc)
    return out


def minuscule_leq(p, i: int, j: int) -> bool:
    """i <= j iff weight_i - weight_j is a nonnegative integer root sum."""
    weights = minuscule_weights(p)
    coords = p.real.root_coords(weights[i] - weights[j])
    return coords is not None and all(c >= 0 and c.denominator == 1 for c in coords)


def minuscule_lower(p, i: int, node: int) -> int | None:
    """Index of weight_i - alpha_node if that is again a weight, looked up
    by its Fraction coordinates."""
    im = minuscule_weights(p)[i] - simple_root(p.real, node)
    return p.index.get(im.coords)


def count_standard_pairs(leq) -> tuple[int, int]:
    """(comparable unordered pairs with repeats, incomparable pairs) of the
    order given as a matrix of booleans, one pair at a time."""
    n = len(leq)
    incomparable = sum(1 for i in range(n) for j in range(i + 1, n)
                       if not (leq[i][j] or leq[j][i]))
    return n * (n + 1) // 2 - incomparable, incomparable
