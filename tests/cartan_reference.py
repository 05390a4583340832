"""The Fraction kernels that `smt_kit.cartan` replaced, kept as test oracles.

`simple_root` is the i-th simple root of a realization as a Fraction
weight, the row of the matrix plus the delta coefficient at the delta node.
`root_coords` expands a weight over the simple roots with one exact
`linalg.solve` per weight, `weyl_dim` multiplies the Weyl dimension
formula out as a product of Fractions over an uncached root enumeration,
`reflect` subtracts a Fraction multiple of a simple root, `act_letters`
and `dominant_conjugate` apply one such reflection per letter, and
`is_real_root` descends in height on Fraction weights, solving for the
coordinates at each step.  They are slow but share no arithmetic with the
integer left inverse, the integer product and the integer walks in
`smt_kit.cartan`, which makes them differential oracles for
`tests/test_cartan_differential.py` and `tests/test_lspath_differential.py`
(and, through `weyl_reference.is_negative_root_vec` and `act_letters`, for
the Weyl reference kernel).  `dominant_conjugate` is also the oracle of
the tests that need a dominant conjugate and a word to it, since the
library keeps no such function.  `dominant_leq` expands the difference over the
simple roots with one `linalg.solve` per call on a non-affine type (on an
affine type, with the reference `root_coords` of a standard realization),
where `smt_kit.cartan` applies `root_inverse`, one cached integer inverse
per GCM.
`finite_roots` closes the simple (root, coroot) pairs under every s_i,
negative roots included, and keeps the positive ones at the end, where
`smt_kit.cartan` keeps only positive images as it goes; `weyl_dim` here
multiplies over it.  `char_poly` is the Faddeev-LeVerrier recursion on
Fraction matrices, the reference of the integer `smt_kit.linalg.char_poly`.
`classify` hands it the Fraction symmetrized form and counts the signs of
the roots with `real_rooted_sign_counts` (Descartes' rule, exact for a
real-rooted polynomial), where `smt_kit.cartan.classify` reads the inertia
off a fraction-free symmetric elimination of the integer form.
`root_rows` is the Fraction table of fundamental-weight coordinates of the
simple roots, a BC column halved, where `smt_kit.cartan` keeps them as
integers (`int_root_rows`, and the columns of `root_inverse`).

The code is the earlier `smt_kit.cartan` and `smt_kit.linalg` code with
these changes that alter no answer: `root_coords`, `reflect`,
`act_letters`, `dominant_conjugate` and `is_real_root` are functions of the
Realization, the `root_coords` cache is held per live Realization (a
WeakKeyDictionary) apart from the Realization's own, and `classify` and
`finite_roots` are not cached.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

from smt_kit import linalg
from smt_kit.cartan import (AFFINE, FINITE, INDEFINITE, FinTypeLabel, GCM, Realization,
                           WeightVec, build_cartan, symmetrizer)

Q = Fraction

_expand_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def simple_root(real: Realization, i: int) -> WeightVec:
    """The i-th simple root: row i of the matrix, plus the delta coefficient
    at the delta node."""
    return WeightVec(real.basis_id, tuple(Q(x) for x in real.gcm.entries[i]),
                     real.delta_coeff if i == real.delta_node else Q(0))


def root_coords(real: Realization, v: WeightVec) -> tuple[Fraction, ...] | None:
    """Expansion of v over the simple roots (delta included); None if not in span."""
    cache = _expand_cache.setdefault(real, {})
    key = (v.coords, v.delta)
    if key not in cache:
        roots = [simple_root(real, i) for i in range(real.n)]
        rows = [[roots[i].coords[j] for i in range(real.n)] for j in range(real.n)]
        rows.append([roots[i].delta for i in range(real.n)])
        rhs = list(v.coords) + [v.delta]
        sol = linalg.solve(rows, rhs)
        cache[key] = tuple(sol) if sol is not None else None
    return cache[key]


def reflect(real: Realization, i: int, v: WeightVec) -> WeightVec:
    """s_i v = v - <v, alpha_i^vee> alpha_i on Fraction weights."""
    c = v.coords[i]
    return v if c == 0 else v - simple_root(real, i).scale(c)


def act_letters(real: Realization, letters, v: WeightVec) -> WeightVec:
    """s_{l_1} ... s_{l_k} applied to v, s_{l_k} first, one reflection at a time."""
    for i in reversed(letters):
        v = reflect(real, i, v)
    return v


def dominant_conjugate(real: Realization, v: WeightVec) -> tuple[WeightVec, list[int]]:
    """(dom, letters): reflect by the smallest negative coordinate until v is
    dominant (uncapped; it ends for weights in the Tits cone)."""
    letters: list[int] = []
    while True:
        i = next((j for j in range(real.n) if v.coords[j] < 0), None)
        if i is None:
            return v, letters
        v = reflect(real, i, v)
        letters.append(i)


def is_real_root(real: Realization, v: WeightVec) -> bool:
    """True iff v is a real root: the height descent on Fraction weights,
    re-expanding each step with `root_coords`."""
    c = root_coords(real, v)
    if c is None or all(x == 0 for x in c):
        return False
    if all(x <= 0 for x in c):
        return is_real_root(real, -v)
    if any(x < 0 for x in c):
        return False
    guard = int(sum(c)) * 2 + 4
    while guard > 0:
        guard -= 1
        c = root_coords(real, v)
        if c is None or any(x < 0 for x in c):
            return False
        support = [i for i, x in enumerate(c) if x != 0]
        if len(support) == 1 and c[support[0]] == 1:
            return True
        i = next((j for j in range(real.n) if v.coords[j] > 0), None)
        if i is None:
            return False
        v = reflect(real, i, v)
    return False


def char_poly(a: list[list[Fraction]]) -> list[Fraction]:
    """Coefficients [1, c1, ..., cn] of det(xI - A), highest degree first.

    Faddeev-LeVerrier; exact for Fraction input.
    """
    n = len(a)
    coeffs = [Q(1)]
    m = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum((a[i][t] * m[t][j] for t in range(n)), Q(0)) for j in range(n)]
              for i in range(n)]
        c = -sum((am[i][i] for i in range(n)), Q(0)) / k
        coeffs.append(c)
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def real_rooted_sign_counts(coeffs: list) -> tuple[int, int, int]:
    """(positive, zero, negative) root counts of a poly known to be real-rooted.

    Zero roots are the trailing zero coefficients; positive roots are the
    Descartes sign variations of the remaining sequence (exact for
    real-rooted polynomials).
    """
    n = len(coeffs) - 1
    cs = list(coeffs)
    zero = 0
    while cs and cs[-1] == 0:
        cs.pop()
        zero += 1
    signs = [1 if c > 0 else -1 for c in cs if c != 0]
    pos = sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])
    return pos, zero, n - zero - pos


def classify(m: GCM) -> str:
    """Sign class of the Fraction symmetrized form: finite / affine / indefinite."""
    d = symmetrizer(m)
    if d is None:
        raise ValueError("non-symmetrizable GCM")
    b = [[d[i] * m.entries[i][j] for j in range(m.n)] for i in range(m.n)]
    pos, zero, neg = real_rooted_sign_counts(char_poly(b))
    if neg > 0:
        return INDEFINITE
    if zero == 0:
        return FINITE
    if zero == 1:
        return AFFINE
    return INDEFINITE


def root_rows(m: GCM) -> list[list[Fraction]]:
    """Fundamental-weight coordinates of the simple roots.

    A marked (BC) node has <omega_j, alpha_j^vee> = 2, so its column is
    halved relative to the raw matrix entries.
    """
    return [[Q(m.entries[i][j], 2 if j in m.nonreduced_nodes else 1)
             for j in range(m.n)] for i in range(m.n)]


def finite_roots(m: GCM) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Positive (root, coroot) pairs: the Weyl closure of the simple pairs,
    negative roots included, filtered at the end."""
    if classify(m) != FINITE:
        raise ValueError("finite-type GCM required")
    n = m.n
    a = m.entries

    def reflect_pair(pair, i):
        root, co = pair
        pr = sum(root[j] * a[j][i] for j in range(n))       # <root, alpha_i^vee>
        pc = sum(co[j] * a[i][j] for j in range(n))         # <alpha_i, coroot>
        new_root = tuple(root[j] - (pr if j == i else 0) for j in range(n))
        new_co = tuple(co[j] - (pc if j == i else 0) for j in range(n))
        return (new_root, new_co)

    seen = set()
    frontier = []
    for i in range(n):
        root = tuple(1 if j == i else 0 for j in range(n))
        seen.add((root, root))
        frontier.append((root, root))
    while frontier:
        nxt = []
        for pair in frontier:
            for i in range(n):
                img = reflect_pair(pair, i)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return tuple(p for p in seen if all(x >= 0 for x in p[0]))


def weyl_dim(m: GCM | FinTypeLabel, lam: WeightVec) -> int:
    """dim V_lam by the Weyl dimension formula, evaluated exactly."""
    if isinstance(m, FinTypeLabel):
        m = build_cartan(m)
    if m.nonreduced_nodes:
        raise ValueError("nonreduced (BC) type has no Weyl dimension formula here")
    if not (lam.is_dominant() and lam.is_integral()):
        raise ValueError("dominant integral weight required")
    dim = Q(1)
    for _, co in finite_roots(m):
        num = sum((lam.coords[j] + 1) * co[j] for j in range(m.n))
        den = sum(co[j] for j in range(m.n))
        dim *= Q(num, den)
    assert dim.denominator == 1
    return int(dim)


def dominant_leq(lam: WeightVec, mu: WeightVec, m: GCM, use_delta: bool = True) -> bool:
    """True iff lam <= mu: mu - lam is a nonnegative-integer sum of simple roots."""
    lam._check(mu)
    kind = classify(m)
    if kind == AFFINE:
        if not use_delta:
            raise ValueError("need delta coordinate")
        real = Realization.standard(m, lam.basis_id)
        coords = root_coords(real, mu - lam)
    else:
        diff = mu - lam
        if diff.delta != 0:
            return False
        rows = root_rows(m)
        cols = [[rows[i][j] for i in range(m.n)] for j in range(m.n)]
        sol = linalg.solve(cols, list(diff.coords))
        coords = tuple(sol) if sol is not None else None
    if coords is None:
        return False
    return all(c >= 0 and c.denominator == 1 for c in coords)
