"""Admissible and quadratic lattices between the root and weight lattices.

A sublattice Q <= L <= P is admissible when its dominant monoid L+ is
finitely generated and free; it is quadratic when additionally every
dominant element below a sum of two basis elements has basis-height at
most two.  The height criterion hgt(alpha) >= 0 on simple roots is checked
alongside the direct one and the two verdicts are asserted to agree.

Freeness.  L+ = L cap N^n is a normal affine monoid, and such a monoid is
free exactly when its Hilbert basis has n elements (Bruns-Gubeladze,
Polytopes, Rings and K-Theory, Ch. 2); its n generators then lie on the n
coordinate rays, so L+ is free iff L = sum of m_i Z omega_i, i.e. iff the
Hermite normal form (HNF) of L is diagonal.  On a diagonal HNF
`monoid_basis` returns the m_i omega_i with m_i <= bound directly, and that
verdict holds without the bound.  Any other lattice keeps a bounded test: a
coin-change count over the dominant points up to the height bound (recorded
in the reports), whose outcome, None or more than n irreducibles, is the
certificate.  The count runs at bounds 1, 2, 4, ... first and stops at the
first double factorization, which every non-diagonal HNF between Q and P of
A1-A6, B1-B6, C2-C6, BC1-BC6, D4-D6, E6 and E7 shows at height 4 or 6.  The
dominant weights below e + f come from a root descent through dominant
weights, one positive root at a time (Stembridge 1998, see `_descend`),
whose work is their number times |Phi+|, not the box of their root
coordinates.  `is_quadratic` runs one descent per lattice: the walk is keyed
by the weight it reaches, and its seen set passes from pair to pair, so each
pair walks and checks only the weights below it that no earlier pair
reached.

Every kernel is integer arithmetic on data built once per lattice, basis or
GCM.  The HNF of the generators (Cohen, A Course in Computational Algebraic
Number Theory, Sec. 2.4) is upper triangular, so the dominant lattice points
are read off it column by column, and membership by reduction against it is
used by `contains` and, on the integer root rows, by the check that L
contains Q.  The coin change runs in height order on one integer code per
point, capped at 2 (a point nothing reaches is irreducible).
`is_quadratic` reads its monoid basis as integer tuples once: heights are
one integer row over that basis, a one-row `linalg.IntInverse`; the tops
e + f are integer tuples.  The root rows are `cartan.int_root_rows`, one
integer table per GCM, read by the simple-root heights, by the descent
steps (the positive roots of `cartan.finite_roots` in fundamental-weight
coordinates, one table per GCM) and by the intermediate lattices, whose
classes of P/Q (integer residues mod d) come from `cartan.root_inverse`,
the one integer left inverse of the root rows per GCM, read through
`IntInverse.expand`.  Fractions remain only in the `WeightVec`s handed in
and out, in `hgt` and in the height of a simple root named by a
certificate.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import caps, linalg
from .cartan import (GCM, FinTypeLabel, WeightVec, build_cartan, dominant_leq, finite_roots,
                     int_root_rows, quadratic_basis, root_inverse)

Q = Fraction


def _hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form; returns the nonzero rows (a Z-basis)."""
    mat = [list(r) for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        # gcd out the column below the pivot
        changed = True
        while changed:
            changed = False
            for i in range(r + 1, m):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c] != 0:
                        mat[r], mat[i] = mat[i], mat[r]
                        changed = True
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == m:
            break
    return [row for row in mat[:r]]


@dataclass
class SubLattice:
    """Finite-index sublattice of the weight lattice containing the roots."""

    ambient: FinTypeLabel
    generators: list[WeightVec]

    def __post_init__(self):
        self.gcm = build_cartan(self.ambient)
        n = self.gcm.n
        if len(self.generators) != n:
            raise ValueError("generators must form a Z-basis (rank many)")
        for g in self.generators[1:]:
            self.generators[0]._check(g)
        if len(self.generators[0].coords) != n:
            raise ValueError(f"coordinate count mismatch: {len(self.generators[0].coords)} "
                             f"vs rank {n} of {self.ambient}")
        if any(c.denominator != 1 for g in self.generators for c in g.coords):
            raise ValueError("generators must be integral weights")
        self._hnf = _hnf([[int(c) for c in g.coords] for g in self.generators])
        if len(self._hnf) != n:
            raise ValueError("generators are not Z-linearly independent")
        if not all(map(self.contains_int, int_root_rows(self.gcm))):
            raise ValueError("sublattice does not contain the root lattice")

    @property
    def basis_id(self) -> str:
        return self.generators[0].basis_id

    def contains_int(self, coords) -> bool:
        """Membership of an integer point: echelon reduction by the HNF rows.

        The HNF has n rows in n columns, so row i has its pivot in column i.
        """
        v = list(coords)
        for i, row in enumerate(self._hnf):
            q, r = divmod(v[i], row[i])
            if r:
                return False
            if q:
                for j in range(i + 1, len(v)):
                    v[j] -= q * row[j]
        return True

    def contains(self, lam: WeightVec) -> bool:
        """Membership of a weight of the lattice's basis and rank; ValueError
        on another basis or coordinate count."""
        self.generators[0]._check(lam)
        return lam.is_integral() and self.contains_int(int(c) for c in lam.coords)


def full_weight_lattice(label: FinTypeLabel) -> SubLattice:
    n = build_cartan(label).n
    return SubLattice(label, [WeightVec(str(label), tuple(int(j == i) for j in range(n)))
                              for i in range(n)])


def root_lattice(label: FinTypeLabel) -> SubLattice:
    return SubLattice(label, [WeightVec(str(label), tuple(row))
                              for row in _hnf(int_root_rows(build_cartan(label)))])


def _height_form(basis, n: int) -> linalg.IntInverse:
    """hgt over a basis of integer tuples as a one-row integer inverse, the
    column sums of the left inverse of the basis: hgt(lam) =
    expand(coords)[0] / d for the n coordinates of lam (integers or
    Fractions)."""
    inv = linalg.left_inverse([[b[j] for b in basis] for j in range(n)])
    return inv._replace(left=(tuple(map(sum, zip(*inv.left))),))


def _height(form: linalg.IntInverse, coords) -> int:
    """d * hgt of the weight with the given coordinates."""
    h = form.expand(coords)
    if h is None:
        raise ValueError("weight not in the span of the basis")
    return h[0]


def hgt(lam: WeightVec, basis: list[WeightVec]) -> Fraction:
    """Sum of the expansion coefficients of lam over the given basis.

    A basis with denominators is scaled to integers by their lcm s first;
    over s times the basis every coefficient is divided by s."""
    scale = math.lcm(*(c.denominator for b in basis for c in b.coords))
    form = _height_form([[int(scale * c) for c in b.coords] for b in basis], len(lam.coords))
    return Q(scale * _height(form, lam.coords), form.d)


def _dominant_points(lat: SubLattice, bound: int) -> list[tuple[int, ...]]:
    """Nonzero dominant lattice points with coordinate sum <= bound, as int tuples.

    Read off the HNF: row j has its pivot h_j > 0 in column j and zeros
    before it, so coordinate j of sum a_i row_i is offset_j + a_j h_j, where
    offset_j comes from the rows already chosen.  Column by column, coordinate
    j runs over the values in [0, budget] congruent to offset_j mod h_j; every
    value in the last column is a lattice point.
    """
    hnf = lat._hnf
    n = len(hnf)
    out = []

    def rec(j, coords, offsets, budget):
        row, h, off = hnf[j], hnf[j][j], offsets[j]
        if j == n - 1:
            out.extend(coords + (c,) for c in range(off % h, budget + 1, h))
            return
        for c in range(off % h, budget + 1, h):
            a = (c - off) // h
            rec(j + 1, coords + (c,), [o + a * r for o, r in zip(offsets, row)] if a
                else offsets, budget - c)

    rec(0, (), [0] * n, bound)
    return out[1:]      # the first point listed is zero


def monoid_basis(lat: SubLattice, height_bound: int) -> list[WeightVec] | None:
    """Irreducibles of the dominant monoid, iff expansion over them is unique.

    A diagonal HNF gives the free monoid on the m_i omega_i, and the
    irreducibles of height up to the bound are returned without a search.
    Otherwise the verdict is certified only for elements of coordinate
    height up to the bound; None means the bounded test found non-freeness.
    The search (`_coin_change`) runs at bounds 1, 2, 4, ... below the
    height bound and stops at the first double factorization: the count of
    a point depends only on the points of lower height, so a point counted
    twice under a smaller bound is counted twice under the height bound.  A
    list comes only from the run at the height bound.  A negative height
    bound, or a box of C(bound + n, n) coordinate vectors at the height
    bound above the table's `monoid_points` cap, raises ValueError before
    any is enumerated; the HNF walk lists only the lattice points in it.
    """
    if height_bound < 0:
        raise ValueError(f"height bound must be nonnegative, got {height_bound}")
    n = lat.gcm.n
    box = math.comb(height_bound + n, n)
    cap = caps.CAPS["monoid_points"]
    if box > cap:
        raise ValueError(f"monoid_basis cap exceeded: cap={cap}, "
                         f"box of {box} points at bound {height_bound}")
    if all(not x for i, row in enumerate(lat._hnf) for x in row[i + 1:]):
        # a diagonal HNF: L+ is free on the m_i omega_i, in decreasing order
        return [WeightVec(lat.basis_id, tuple(row)) for i, row in enumerate(lat._hnf)
                if row[i] <= height_bound]
    bound = 1
    while bound < height_bound:
        if _coin_change(lat, bound) is None:
            return None
        bound *= 2
    irred = _coin_change(lat, height_bound)
    return None if irred is None else [WeightVec(lat.basis_id, v)
                                       for v in sorted(irred, reverse=True)]


def _coin_change(lat: SubLattice, height_bound: int) -> list[tuple[int, ...]] | None:
    """The irreducible dominant points of height up to the bound, or None
    when a point has two factorizations.

    One pass over the points by height counts factorizations, capped at 2,
    coin-change style: a point nothing has reached yet is irreducible and
    becomes a coin.  Every partial sum of a factorization is itself a point
    of smaller height, so the count never leaves the points.
    """
    n = lat.gcm.n
    # one int per point, its coordinates as digits in base bound + 1: a sum
    # u + v of height <= bound has every coordinate <= bound, so no digit
    # carries and the code of u + v is the sum of the codes.  Codes order as
    # the coordinate tuples, so the points are sorted by (height, code).
    base = height_bound + 1
    powers = [base ** (n - 1 - j) for j in range(n)]
    points = sorted((sum(v), sum(map(operator.mul, v, powers)), v)
                    for v in _dominant_points(lat, height_bound))
    heights = [0] + [h for h, _, _ in points]
    codes = [0] + [c for _, c, _ in points]     # the zero point first
    count = dict.fromkeys(codes, 0)
    count[0] = 1
    irred: list[tuple[int, ...]] = []
    for h, cv, v in points:
        if count[cv] > 1:
            return None
        if count[cv]:
            continue
        irred.append(v)
        # u + v is again a point: dominant, in the lattice, of height <= bound
        for cu in codes[:bisect.bisect_right(heights, height_bound - h)]:
            k = count[cu]
            if k:
                s = cu + cv
                count[s] = min(2, count[s] + k)
    return irred


class MonoidNotFree(ValueError):
    """The dominant monoid has an element with two factorizations within the bound."""


def is_quadratic(lat: SubLattice, bound: int | None = None) -> tuple[bool, dict]:
    """Quadratic verdict with certificate.

    Checks the height criterion hgt(alpha) >= 0 on every simple root and
    the direct condition (every dominant lattice element below a sum of
    two basis elements has height <= 2); the two must agree.
    """
    n = lat.gcm.n
    bound = bound if bound is not None else 6 * n
    if bound < 1:
        raise ValueError(f"height bound must be at least 1, got {bound}")
    basis = monoid_basis(lat, bound)
    if basis is None:
        raise MonoidNotFree("monoid basis unavailable (not free within bound)")
    if len(basis) < n:
        # L+ spans the whole space, so it has at least n irreducibles
        raise ValueError(f"height bound {bound} too small: {len(basis)} irreducible(s) "
                         f"below it, fewer than the rank {n}")
    # the basis as integer tuples, read once; str of an int is str of the
    # equal Fraction, so the report reads as the WeightVec coordinates would
    basis = [tuple(map(int, b.coords)) for b in basis]
    report: dict = {"bound": bound, "basis": [list(map(str, b)) for b in basis]}
    if len(basis) > n:
        report["certificate"] = "monoid basis size differs from rank"
        return False, report

    form = _height_form(basis, n)
    by_height = True
    for i, root in enumerate(int_root_rows(lat.gcm)):
        h = _height(form, root)
        if h < 0:
            by_height = False
            report["certificate"] = {"simple_root": i, "hgt": str(Q(h, form.d))}
            break

    # each weight below e + f differs from it by root-lattice elements, so it
    # lies in L: a SubLattice contains the root lattice.  One walk serves
    # every pair: a weight an earlier pair reached was checked then, with
    # everything below it, so each pair checks only the weights new to it, in
    # the order of its own full down-set, and the first weight to fail is the
    # one a walk of that pair alone would find first
    by_direct = True
    steps, seen = _root_steps(lat.gcm), set()
    for e, f in itertools.combinations_with_replacement(basis, 2):
        top = tuple(map(operator.add, e, f))
        for lam in _descend(steps, top, seen):
            if _height(form, lam) > 2 * form.d:
                by_direct = False
                report.setdefault("certificate", {"below": list(map(str, top)),
                                                  "weight": list(map(str, lam))})
                break
        if not by_direct:
            break

    assert by_height == by_direct, "height and direct criteria disagree"
    return by_height, report


@functools.lru_cache(maxsize=64)
def _root_steps(gcm: GCM) -> tuple:
    """The positive roots as descent steps, cached by GCM value: each step
    (simple-root coordinates, fundamental-weight coordinates w, the pairs
    (j, w_j) with w_j > 0), w read off the integer root rows."""
    cols = list(zip(*int_root_rows(gcm)))
    steps = []
    for root, _ in finite_roots(gcm):
        w = tuple(sum(map(operator.mul, root, col)) for col in cols)
        steps.append((root, w, tuple((j, x) for j, x in enumerate(w) if x > 0)))
    return tuple(steps)


def _descend(steps, top: tuple[int, ...], seen: set) -> list[tuple[int, ...]]:
    """The dominant vectors top - (a sum of steps) that are not in seen, in
    ascending lexicographic order of their root coordinates from top; every
    vector reached is added to seen.

    A root descent: every dominant mu <= top is reached from top through
    dominant weights, one positive root at a time (Stembridge, The partial
    order of dominant weights, Adv. Math. 136, 1998), so a walk from top
    that subtracts positive roots and keeps only dominant vectors reaches
    each of them once.  Subtracting a root lowers only the coordinates where
    the root is positive, so only those are tested.  The walk is keyed by
    the vector itself, so a caller that passes the seen set of earlier walks
    along gets back only the vectors new to this one: a vector in seen was
    walked then, with everything below it.  The root coordinates of each new
    vector are carried along for the order.
    """
    if top in seen:
        return []
    seen.add(top)
    found = [((0,) * len(top), top)]
    for rc, v in found:         # walks the vectors appended below as well
        for root, w, lows in steps:
            for j, x in lows:
                if v[j] < x:
                    break
            else:
                u = tuple(map(operator.sub, v, w))
                if u not in seen:
                    seen.add(u)
                    found.append((tuple(map(operator.add, rc, root)), u))
    found.sort()
    return [v for _, v in found]


def _dominant_below(lat: SubLattice, top: WeightVec) -> list[tuple[int, ...]]:
    """Dominant integral weights <= top in the dominance order, as int tuples,
    in ascending lexicographic order of the root coordinates of top - mu:
    `_descend` from top with nothing seen.  It runs on d * top, d the common
    denominator of top, and keeps the points that divide back by d."""
    if any(c < 0 for c in top.coords):
        raise ValueError(f"top {[str(c) for c in top.coords]} is not dominant")
    steps = _root_steps(lat.gcm)
    d = math.lcm(*(c.denominator for c in top.coords))
    if d > 1:
        steps = [(root, tuple(d * x for x in w), tuple((j, d * x) for j, x in lows))
                 for root, w, lows in steps]
    return [tuple(c // d for c in v)
            for v in _descend(steps, tuple(int(d * c) for c in top.coords), set())
            if all(c % d == 0 for c in v)]


def _intermediate_lattices(label: FinTypeLabel):
    """All lattices Q <= L <= P, by size, then by sorted classes of P/Q.

    A class is its root coordinates mod 1, as integer residues mod d (d is
    common to all, so they sort as the fractions r / d would); a sum has the
    sum of the classes.  P/Q is cyclic or Z/2 x Z/2 (Bourbaki, Lie Groups and
    Lie Algebras, Ch. VI, Plates I-IX), so two classes generate each subgroup.
    """
    gcm = build_cartan(label)
    inv = root_inverse(gcm)
    zero = (0,) * gcm.n

    def closure(gens: dict) -> dict:
        """class -> a weight of it, over the subgroup generated by the classes
        of `gens`, a map class -> a weight of it."""
        group, frontier = {zero: zero}, [zero]
        while frontier:
            sums = {tuple((x + y) % inv.d for x, y in zip(c, g)):
                    tuple(map(operator.add, group[c], w))
                    for c in frontier for g, w in gens.items()}
            frontier = [c for c in sums if c not in group]
            group.update((c, sums[c]) for c in frontier)
        return group

    units = [zero[:i] + (1,) + zero[i + 1:] for i in range(gcm.n)]
    reps = closure({tuple(c % inv.d for c in inv.expand(e + (0,))): e for e in units})
    cyclic = {frozenset(closure({c: w})): (c, w) for c, w in reps.items()}
    pairs = itertools.combinations_with_replacement(cyclic.values(), 2)
    groups = {tuple(sorted(group)): group for group in map(closure, map(dict, pairs))}
    lattices = []
    for key in sorted(groups, key=lambda key: (len(key), key)):
        basis = _hnf([*int_root_rows(gcm), *groups[key].values()])
        gens = [WeightVec(str(label), tuple(row)) for row in basis]
        lattices.append((len(key), SubLattice(label, gens)))
    return lattices


def classify_quadratic(label: FinTypeLabel, bound: int | None = None):
    """(description, verdict, report) for every lattice between Q and P."""
    out = []
    lattices = _intermediate_lattices(label)
    full_order = max(order for order, _ in lattices)
    for order, lat in sorted(lattices, key=lambda t: -t[0]):
        if order == full_order:
            name = "P" if full_order > 1 else "P=Q"
        elif order == 1:
            name = "Q"
        else:
            name = f"index-{full_order // order}"
        try:
            verdict, report = is_quadratic(lat, bound)
        except MonoidNotFree:
            b = bound if bound is not None else 6 * lat.gcm.n
            verdict, report = False, {"bound": b,
                                      "certificate": "monoid not free within bound"}
        out.append((name, verdict, report))
    return out


def check_lemma7(label: FinTypeLabel) -> dict:
    """Chain facts for the quadratic basis: eps_i <= eps_1 + eps_{i-1}, the
    uniqueness of that decomposition, and the dominant down-sets of eps_i."""
    fam = label.family
    if fam not in ("A", "B", "C", "BC"):
        raise ValueError("quadratic basis families only")
    gcm = build_cartan(label)
    eps = quadratic_basis(label)
    zero = WeightVec(str(label), (Q(0),) * gcm.n)
    lat = root_lattice(label) if (fam == "B" and label.rank >= 2) else full_weight_lattice(label)
    report = {"label": str(label), "part_i": True, "part_ii": True,
              "downsets": {}, "counterexample": None}

    def weight(v):
        return WeightVec(str(label), v)

    for i in range(1, gcm.n + 1):
        e_i = eps[i - 1]
        e_prev = eps[i - 2] if i >= 2 else zero
        if not dominant_leq(e_i, eps[0] + e_prev, gcm):
            report["part_i"] = False
        down = [v for v in _dominant_below(lat, e_i) if lat.contains_int(v)]
        report["downsets"][i] = sorted(down)
        for mu in map(weight, _dominant_below(lat, eps[0])):
            for lam in map(weight, _dominant_below(lat, e_prev)):
                if dominant_leq(e_i, lam + mu, gcm):
                    if not (mu == eps[0] and lam == e_prev):
                        report["part_ii"] = False
                        report["counterexample"] = (list(map(str, lam.coords)),
                                                    list(map(str, mu.coords)))
    return report
