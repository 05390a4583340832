"""Generalized Cartan matrices and exact weight arithmetic.

The conventions used throughout the package:

* A GCM is stored with ``entries[i][j] = <alpha_i, alpha_j^vee>``, so the
  i-th *row* is the fundamental-weight expansion of the simple root
  alpha_i.  Finite types follow Bourbaki numbering shifted to 0-based
  array indices (array index k is Bourbaki's alpha_{k+1}); matrices of
  affine shape put the distinguished node first (index 0).
* A nonreduced system of type BC_l is stored as the B_l-shaped matrix with
  the end node marked in ``nonreduced_nodes``; its fundamental weights obey
  <omega_l, alpha_l^vee> = 2, so coordinates over them are the same data
  as for B_l and only lattice-level consumers look at the marker.
* Weights are exact-rational coordinate vectors over the fundamental
  weights of a declared GCM, plus one extra delta coordinate that pairs to
  zero with every simple coroot.  In an affine realization the simple root
  at the distinguished node carries a +delta (or +2 delta) correction.
* Kernels act on integer vectors (delta last) with `Realization.image`
  and read root coordinates through one integer inverse per realization
  (`Realization.inverse`) and one per GCM (`root_inverse`).  The Weyl
  dimension formula is one integer product (`weyl_dim_int`) behind the
  checks of `weyl_dim`.
* The sign class of a GCM (`classify`) is the inertia of its integer
  symmetrized form, read off a fraction-free symmetric elimination.

No floating point is used anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg

Q = Fraction

FAMILIES = ("A", "B", "C", "D", "E", "F", "G", "BC")

FINITE = "finite"
AFFINE = "affine"
INDEFINITE = "indefinite"


def is_gcm(entries) -> bool:
    """True iff the integer matrix satisfies the GCM axioms."""
    n = len(entries)
    return all(len(row) == n for row in entries) and all(
        x == int(x) and (x == 2 if i == j else x <= 0 and (x == 0) == (entries[j][i] == 0))
        for i, row in enumerate(entries) for j, x in enumerate(row))


@dataclass(frozen=True)
class GCM:
    """Square integer generalized Cartan matrix with optional BC marker."""

    entries: tuple[tuple[int, ...], ...]
    nonreduced_nodes: frozenset[int] = frozenset()

    def __post_init__(self):
        ent = tuple(tuple(int(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "nonreduced_nodes", frozenset(self.nonreduced_nodes))
        if not is_gcm(ent):
            raise ValueError("not a generalized Cartan matrix")
        if any(not 0 <= i < self.n for i in self.nonreduced_nodes):
            raise ValueError("nonreduced node out of range")

    @property
    def n(self) -> int:
        return len(self.entries)

    def block_sum(self, other: "GCM") -> "GCM":
        n, m = self.n, other.n
        ent = [row + (0,) * m for row in self.entries] + [(0,) * n + row for row in other.entries]
        return GCM(tuple(ent), self.nonreduced_nodes | {n + i for i in other.nonreduced_nodes})

    def to_json(self) -> dict:
        return {
            "rank": self.n,
            "entries": [list(r) for r in self.entries],
            "nonreduced": sorted(self.nonreduced_nodes),
        }

    @classmethod
    def from_json(cls, data: dict) -> "GCM":
        return cls(tuple(tuple(r) for r in data["entries"]),
                   frozenset(data.get("nonreduced", ())))


@dataclass(frozen=True)
class FinTypeLabel:
    """Finite family label; rank validity per family (B, BC from rank 1)."""

    family: str
    rank: int

    def __post_init__(self):
        fam, rk = self.family, self.rank
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}")
        legal = {
            "A": rk >= 1, "B": rk >= 1, "C": rk >= 2, "BC": rk >= 1,
            "D": rk >= 2, "E": rk in (6, 7, 8), "F": rk == 4, "G": rk == 2,
        }[fam]
        if not legal:
            raise ValueError(f"illegal rank {rk} for family {fam}")

    @classmethod
    def parse(cls, text: str) -> "FinTypeLabel":
        text = text.strip().replace("_", "")
        if not text:
            raise ValueError("empty type label")
        fam = "BC" if text.startswith("BC") else text[0]
        return cls(fam, int(text[len(fam):]))

    def __str__(self):
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class WeightVec:
    """Exact weight: fundamental-weight coordinates plus a delta coordinate.

    coords[i] is the pairing with the i-th simple coroot; delta pairs to
    zero with every simple coroot.
    """

    basis_id: str
    coords: tuple[Fraction, ...]
    delta: Fraction = Q(0)

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(
            c if type(c) is Fraction else Q(c) for c in self.coords))
        if type(self.delta) is not Fraction:
            object.__setattr__(self, "delta", Q(self.delta))

    def _check(self, other: "WeightVec"):
        if self.basis_id != other.basis_id:
            raise ValueError(f"basis mismatch: {self.basis_id} vs {other.basis_id}")
        if len(self.coords) != len(other.coords):
            raise ValueError(f"coordinate count mismatch: {len(self.coords)} "
                             f"vs {len(other.coords)}")

    def __add__(self, other: "WeightVec") -> "WeightVec":
        self._check(other)
        return WeightVec(self.basis_id,
                         tuple(a + b for a, b in zip(self.coords, other.coords)),
                         self.delta + other.delta)

    def __sub__(self, other: "WeightVec") -> "WeightVec":
        return self + (-other)

    def __neg__(self) -> "WeightVec":
        return self.scale(-1)

    def scale(self, c) -> "WeightVec":
        c = Q(c)
        return WeightVec(self.basis_id, tuple(c * x for x in self.coords), c * self.delta)

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def to_json(self) -> dict:
        return {"basis": self.basis_id,
                "coords": [str(c) for c in self.coords],
                "delta": str(self.delta)}


# ---------------------------------------------------------------------------
# Cartan matrix tables


@functools.lru_cache(maxsize=64)
def build_cartan(label: FinTypeLabel) -> GCM:
    """Bourbaki-numbered Cartan matrix of a finite family (BC: B-shaped + marker).

    Cached by the value of the (frozen) label; the matrix is frozen too."""
    fam, n = label.family, label.rank
    ent = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, a=-1, b=-1):
        ent[i][j] = a
        ent[j][i] = b

    if fam in ("A",) or (fam in ("B", "C", "BC") and n == 1):
        for i in range(n - 1):
            bond(i, i + 1)
    elif fam in ("B", "BC"):
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -2, -1)          # alpha_{n-1} long next to short alpha_n
    elif fam == "C":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -1, -2)          # alpha_n long
    elif fam == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        if n >= 3:
            bond(n - 3, n - 1)             # branch node e_{n-1}+e_n attaches to alpha_{n-2}
    elif fam == "E":
        # chain 1-3-4-5-6(-7-8), node 2 attached to node 4 (Bourbaki)
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif fam == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)                 # alpha_2 long, alpha_3 short
        bond(2, 3)
    elif fam == "G":
        bond(0, 1, -1, -3)                 # alpha_1 short, alpha_2 long
    marked = frozenset({n - 1}) if fam == "BC" else frozenset()
    return GCM(tuple(tuple(r) for r in ent), marked)


def _affine_entries(kind: str, n: int) -> list[list[int]]:
    """Literal affine matrices, node 0 first, <alpha_i, alpha_0^vee> in {0,-1}."""
    if kind == "C1":                        # C_n^(1), n >= 2
        base = build_cartan(FinTypeLabel("C", n)).entries
    elif kind == "A2even":                  # A_{2n}^(2)
        if n == 1:
            return [[2, -4], [-1, 2]]
        base = build_cartan(FinTypeLabel("B", n)).entries
    elif kind == "A2odd":                   # A_{2n-1}^(2), n >= 2
        if n == 2:
            return [[2, -2, -2], [-1, 2, 0], [-1, 0, 2]]
        base = build_cartan(FinTypeLabel("D", n)).entries
    else:
        raise ValueError(f"unknown affine kind {kind!r}")
    ent = [[2] + [0] * n] + [[0] + list(row) for row in base]
    ent[0][1] = -2
    ent[1][0] = -1
    return ent


def build_affine_cartan(name: str) -> GCM:
    """Standard affine GCM for C_n^(1), A_{2n}^(2) or A_{2n-1}^(2).

    Accepts e.g. "C2^(1)", "A4^(2)", "A5^(2)" (underscores and braces
    tolerated).  Node 0 is the distinguished node, oriented so that
    <alpha_i, alpha_0^vee> is 0 or -1 for i != 0.
    """
    text = name.replace("_", "").replace("{", "").replace("}", "").strip()
    fam = text[0]
    body, _, tw = text[1:].partition("^")
    N = int(body)
    twist = tw.strip("()")
    if fam == "C" and twist == "1" and N >= 2:
        return GCM(tuple(tuple(r) for r in _affine_entries("C1", N)))
    if fam == "A" and twist == "2" and N >= 2:
        if N % 2 == 0:
            return GCM(tuple(tuple(r) for r in _affine_entries("A2even", N // 2)))
        if N >= 3:
            return GCM(tuple(tuple(r) for r in _affine_entries("A2odd", (N + 1) // 2)))
    raise ValueError(f"unknown affine label {name!r}")


# ---------------------------------------------------------------------------
# Symmetrizer and sign classification


def symmetrizer(m: GCM) -> list[Fraction] | None:
    """Positive rationals d with d_i a_ij = d_j a_ji, min d_i = 1; None if none."""
    n = m.n
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Q(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if m.entries[i][j] == 0 or i == j:
                    continue
                want = d[i] * m.entries[i][j] / m.entries[j][i]
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    return None
    assert all(x is not None for x in d)
    lo = min(d)
    return [x / lo for x in d]


@functools.lru_cache(maxsize=64)
def classify(m: GCM) -> str:
    """Sign class of the symmetrized form: finite / affine / indefinite.

    Raises ValueError on non-symmetrizable input (not cached, so every
    call raises).  finite = positive definite, affine = positive
    semidefinite with 1-dim kernel (Kac, Ch. 4).  The symmetrized form D A,
    scaled to an integer matrix by the lcm of the denominators of D, goes
    through symmetric fraction-free elimination (Bareiss 1968) on nonzero
    diagonal pivots, each step divided exactly by the previous pivot.  By
    Sylvester's law of inertia a negative pivot means indefinite.  Once no
    nonzero diagonal entry is left, the k rows left are a positive multiple
    of a Schur complement with zero diagonal: k = 0 is finite, k = 1 affine,
    and k >= 2 indefinite, with nullity k if the rest is zero and a
    negative eigenvalue if not.  Cached by the value of the (frozen) matrix.
    """
    d = symmetrizer(m)
    if d is None:
        raise ValueError("non-symmetrizable GCM")
    scale = math.lcm(*(x.denominator for x in d))
    b = [[x.numerator * (scale // x.denominator) * a for a in row]
         for x, row in zip(d, m.entries)]
    live, prev = list(range(m.n)), 1
    while (p := next((i for i in live if b[i][i]), None)) is not None:
        pivot, top = b[p][p], b[p]
        if pivot < 0:
            return INDEFINITE
        live.remove(p)
        for i in live:
            row, f = b[i], b[i][p]
            for j in live:
                row[j], rest = divmod(pivot * row[j] - f * top[j], prev)
                assert rest == 0, "Bareiss step does not divide by the previous pivot"
        prev = pivot
    if len(live) > 1:
        return INDEFINITE
    return AFFINE if live else FINITE


# ---------------------------------------------------------------------------
# Realization: weight coordinates plus delta bookkeeping


def _scaled(v: WeightVec) -> tuple[list[int], int]:
    """(den * v as integers with delta last, den), den the lcm of v's denominators."""
    b = v.coords + (v.delta,)
    den = math.lcm(*(x.denominator for x in b))
    return [x.numerator * (den // x.denominator) for x in b], den


def _unscaled(basis_id: str, x: list[int], den: int) -> WeightVec:
    """The weight x / den over `basis_id`, for an integer x with delta last."""
    return WeightVec(basis_id, tuple(Q(y, den) for y in x[:-1]), Q(x[-1], den))


def reflect_int(roots, v: list[int], i: int) -> None:
    """s_i applied in place to an integer weight v (delta last); `roots` is
    a Realization's `int_roots`."""
    c = v[i]
    if c:
        for j, a in roots[i]:
            v[j] -= c * a


def reflected_int(roots, x: tuple[int, ...], i: int) -> tuple[int, ...]:
    """s_i x for an integer tuple x (delta last), by `reflect_int`; x itself
    when s_i fixes it."""
    if not x[i]:
        return x
    y = list(x)
    reflect_int(roots, y, i)
    return tuple(y)


def peel(roots, v: list[int], bound: int) -> list[int]:
    """Letters i_1, i_2, ..., each the smallest negative coordinate of v at
    its step, applying s_{i_1}, s_{i_2}, ... to v in place until v is
    dominant or `bound` letters are taken; the caller checks which."""
    n = len(roots)
    out: list[int] = []
    while len(out) < bound:
        for i in range(n):
            if v[i] < 0:
                break
        else:
            break
        out.append(i)
        reflect_int(roots, v, i)
    return out


class Realization:
    """Weight coordinates of a GCM: fundamental weights plus a delta slot.

    ``delta_coeff`` is the delta-coefficient carried by the simple root at
    ``delta_node`` (1 for a standard affine matrix, 2 for a restricted tier
    whose node-0 root is twice an ambient root, None/0 for finite type).
    ``int_roots[i]`` lists the nonzero integer coordinates of the i-th
    simple root as (slot, value) pairs, slot n being delta; `reflect_int`
    and `peel` act with them, for `image` (the one word action on integer
    weights), `is_real_root` and the peels of `weyl`; `inverse` is their
    integer left inverse.
    """

    def __init__(self, gcm: GCM, basis_id: str, delta_node: int | None = None,
                 delta_coeff=Q(1)):
        self.gcm = gcm
        self.basis_id = basis_id
        self.delta_node = delta_node
        self.delta_coeff = Q(delta_coeff) if delta_node is not None else Q(0)
        if self.delta_coeff.denominator != 1:
            raise ValueError(f"delta coefficient {self.delta_coeff} is not an integer")
        n, dc = gcm.n, int(self.delta_coeff)
        self.int_roots = tuple(
            tuple((j, x) for j, x in enumerate(gcm.entries[i]) if x)
            + (((n, dc),) if i == delta_node and dc else ())
            for i in range(n))

    @classmethod
    def standard(cls, gcm: GCM, basis_id: str) -> "Realization":
        kind = classify(gcm)
        return cls(gcm, basis_id, delta_node=0 if kind == AFFINE else None)

    @property
    def n(self) -> int:
        return self.gcm.n

    def weight(self, coords, delta=0) -> WeightVec:
        coords = tuple(Q(c) for c in coords)
        if len(coords) != self.n:
            raise ValueError(f"{len(coords)} coordinates given, {self.n} expected")
        return WeightVec(self.basis_id, coords, Q(delta))

    def fundamental(self, i: int) -> WeightVec:
        """The i-th fundamental weight; a node outside 0..n-1 raises ValueError."""
        if not 0 <= i < self.n:
            raise ValueError(f"node {i} out of range 0..{self.n - 1}")
        return WeightVec(self.basis_id,
                         tuple(Q(1) if j == i else Q(0) for j in range(self.n)))

    def delta(self) -> WeightVec:
        return WeightVec(self.basis_id, (Q(0),) * self.n, Q(1))

    def rho(self) -> WeightVec:
        return WeightVec(self.basis_id, (Q(1),) * self.n)

    def reflect(self, i: int, v: WeightVec) -> WeightVec:
        return self.act_letters((i,), v)

    def act_letters(self, letters, v: WeightVec) -> WeightVec:
        # the walk runs on one integer vector (v times the lcm of its
        # denominators, delta last), and the WeightVec is built on return
        x, den = _scaled(v)
        y = self.image(letters, x)
        return v if y == x else _unscaled(self.basis_id, y, den)

    def image(self, letters, x) -> list[int]:
        """s_{l_1} ... s_{l_k} applied to an integer weight x (delta last),
        s_{l_k} first, as a new list."""
        v = list(x)
        roots = self.int_roots
        for i in reversed(letters):
            reflect_int(roots, v, i)
        return v

    def root_coords(self, v: WeightVec) -> tuple[Fraction, ...] | None:
        """Expansion of v over the simple roots (delta included); None if not in span.

        `inverse` expands the scaled integer vector of v; coordinates for
        free columns of a singular simple-root matrix are zero.
        """
        x, den = _scaled(v)
        y = self.inverse.expand(x)
        return None if y is None else tuple(Q(c, self.inverse.d * den) for c in y)

    @functools.cached_property
    def inverse(self) -> linalg.IntInverse:
        """The integer left inverse of the simple roots, delta slot last."""
        delta = [int(self.delta_coeff) * (i == self.delta_node) for i in range(self.n)]
        return linalg.left_inverse([list(col) for col in zip(*self.gcm.entries)] + [delta])

    def is_real_root(self, v: WeightVec) -> bool:
        """True iff v is a real root (W-conjugate of a simple root).

        Runs on the integer vector x = den * v (delta last), whose simple-root
        coordinates are `inverse`.expand(x) / (d den).  A positive candidate
        (a negative one is negated first) descends in height, by the first
        s_i with <v, alpha_i^vee> > 0, until it reaches a simple root or a
        coordinate turns negative.
        """
        inv = self.inverse
        x, den = _scaled(v)
        y = inv.expand(x)
        if y is None:
            return False
        if all(t <= 0 for t in y):
            x, y = [-t for t in x], [-t for t in y]
        if not any(y):
            return False
        for _ in range(sum(y) // (inv.d * den) * 2 + 4):
            if any(t < 0 for t in y):
                return False
            if [t for t in y if t] == [inv.d * den]:    # a simple root
                return True
            i = next((j for j in range(self.n) if x[j] > 0), None)
            if i is None:
                return False
            reflect_int(self.int_roots, x, i)
            y = inv.expand(x)                           # x stays in the span
        return False


# ---------------------------------------------------------------------------
# Dominance order


@functools.lru_cache(maxsize=64)
def int_root_rows(m: GCM) -> tuple[tuple[int, ...], ...]:
    """Fundamental-weight coordinates of the simple roots, as integer
    tuples cached by GCM value.  A marked (BC) node has
    <omega_j, alpha_j^vee> = 2, so its column is the raw matrix column
    halved.  Raises ValueError when that leaves a half-integer, which no
    finite label's matrix does."""
    half = m.nonreduced_nodes
    if any(row[j] % 2 for row in m.entries for j in half):
        raise ValueError("root coordinates must be integral")
    return tuple(tuple(x // 2 if j in half else x for j, x in enumerate(row))
                 for row in m.entries)


@functools.lru_cache(maxsize=64)
def root_inverse(m: GCM) -> linalg.IntInverse:
    """The one integer left inverse of the simple roots per GCM, cached by
    GCM value: its columns are the root rows (a BC column halved, and the
    whole matrix doubled when that leaves an odd entry halved) with a delta
    slot last, +delta at node 0 on the affine types as in
    `Realization.standard`; elsewhere the span row refuses a nonzero delta.
    Raises ValueError when the simple roots are linearly dependent.
    """
    n, half = m.n, m.nonreduced_nodes
    scale = 2 if any(row[j] % 2 for row in m.entries for j in half) else 1
    cols = [[row[j] * scale // (2 if j in half else 1) for row in m.entries] for j in range(n)]
    delta = [scale * (classify(m) == AFFINE)] + [0] * (n - 1)
    inv = linalg.left_inverse(cols + [delta])
    if len(inv.span) != 1:
        raise ValueError("simple roots must be linearly independent")
    return inv._replace(left=tuple(tuple(scale * x for x in row) for row in inv.left))


def dominant_leq(lam: WeightVec, mu: WeightVec, m: GCM) -> bool:
    """True iff lam <= mu: mu - lam is a nonnegative-integer sum of simple roots.

    The root coordinates of x = den * (mu - lam) (delta last) are
    `root_inverse`(m).expand(x) / (d den).
    """
    lam._check(mu)
    inv = root_inverse(m)
    x, den = _scaled(mu - lam)
    y = inv.expand(x)
    return y is not None and all(c >= 0 and c % (inv.d * den) == 0 for c in y)


# ---------------------------------------------------------------------------
# Finite root systems and the Weyl dimension formula


@functools.lru_cache(maxsize=64)
def finite_roots(m: GCM) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Positive roots of a finite-type GCM as (root, coroot) coordinate pairs.

    Roots are in simple-root coordinates, coroots in simple-coroot
    coordinates.  s_i permutes the positive roots other than alpha_i
    (Bourbaki, Lie Groups, Ch. VI Sec. 1.6), and every positive root is
    reached from a simple one by such steps, so the closure of the simple
    pairs under the s_i keeps only the positive images.  Each pair in the
    search carries its pairings <root, alpha_i^vee> (a row of the matrix for
    a simple root) and <alpha_i, coroot> (a column), and s_i updates them by
    subtracting pr times row i and pc times column i.  Cached by the value
    of the (frozen) matrix.
    """
    if classify(m) != FINITE:
        raise ValueError("finite-type GCM required")
    n, rows, cols = m.n, m.entries, tuple(zip(*m.entries))
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    frontier = [(unit[i], unit[i], rows[i], cols[i]) for i in range(n)]
    seen = {(u, u) for u in unit}
    while frontier:
        nxt = []
        for root, co, root_pair, co_pair in frontier:
            for i in range(n):
                pr = root_pair[i]                                   # <root, alpha_i^vee>
                if pr == 0 or root[i] < pr:
                    continue        # s_i fixes root, or root = alpha_i
                pc = co_pair[i]                                     # <alpha_i, coroot>
                img = (root[:i] + (root[i] - pr,) + root[i + 1:],
                       co[:i] + (co[i] - pc,) + co[i + 1:])
                if img not in seen:
                    seen.add(img)
                    nxt.append(img + (tuple(x - pr * y for x, y in zip(root_pair, rows[i])),
                                      tuple(x - pc * y for x, y in zip(co_pair, cols[i]))))
        frontier = nxt
    return tuple(seen)


def weyl_dim(m: GCM | FinTypeLabel, lam: WeightVec) -> int:
    """dim V_lam by the Weyl dimension formula, evaluated exactly.

    Requires a reduced finite type (BC rejected) and dominant integral lam.
    """
    if isinstance(m, FinTypeLabel):
        m = build_cartan(m)
    if m.nonreduced_nodes:
        raise ValueError("nonreduced (BC) type has no Weyl dimension formula here")
    if len(lam.coords) != m.n:
        raise ValueError(f"{len(lam.coords)} coordinates given, {m.n} expected")
    if not (lam.is_dominant() and lam.is_integral()):
        raise ValueError("dominant integral weight required")
    return weyl_dim_int(m, [int(c) for c in lam.coords])


def weyl_dim_int(m: GCM, coords) -> int:
    """The product of `weyl_dim` on the integer coordinates of a dominant
    weight of the reduced finite type m, which the caller vouches for."""
    shifted = [c + 1 for c in coords]
    num = den = 1
    for _, co in finite_roots(m):
        num *= sum(x * c for x, c in zip(shifted, co))
        den *= sum(co)
    dim, rest = divmod(num, den)
    assert rest == 0, "Weyl dimension product is not an integer"
    return dim


def quadratic_basis(label: FinTypeLabel) -> list[WeightVec]:
    """The quadratic basis eps_1..eps_l (A/C/BC: omega_i; B: omega_i, 2 omega_l)."""
    fam, n = label.family, label.rank
    if fam not in ("A", "B", "C", "BC"):
        raise ValueError("quadratic basis exists for A, B, C, BC only")
    basis_id = str(label)
    out = []
    for i in range(n):
        coords = [Q(0)] * n
        coords[i] = Q(2) if (fam == "B" and i == n - 1) else Q(1)
        out.append(WeightVec(basis_id, tuple(coords)))
    return out


# ---------------------------------------------------------------------------
# Label identification up to simultaneous permutation


def gcm_equiv(a: GCM, b: GCM) -> bool:
    """True iff b equals a after a simultaneous row/column permutation."""
    if a.n != b.n:
        return False
    n = a.n

    def profile(m, i):
        return (m.entries[i][i], tuple(sorted((m.entries[i][j], m.entries[j][i])
                                              for j in range(n) if j != i)))

    pa = [profile(a, i) for i in range(n)]
    pb = [profile(b, i) for i in range(n)]
    if sorted(pa) != sorted(pb):
        return False

    assignment: list[int | None] = [None] * n
    used = [False] * n

    def ok(i, j):
        if pa[i] != pb[j]:
            return False
        for k in range(n):
            t = assignment[k]
            if t is None:
                continue
            if a.entries[i][k] != b.entries[j][t] or a.entries[k][i] != b.entries[t][j]:
                return False
        return True

    def backtrack(i):
        if i == n:
            return True
        for j in range(n):
            if not used[j] and ok(i, j):
                assignment[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                assignment[i] = None
                used[j] = False
        return False

    return backtrack(0)


def _finite_candidates(n: int):
    for fam, lo in (("A", 1), ("C", 2), ("B", 2), ("D", 3),
                    ("E", 6), ("F", 4), ("G", 2)):
        if fam == "E":
            if n in (6, 7, 8):
                yield FinTypeLabel("E", n)
        elif fam == "F":
            if n == 4:
                yield FinTypeLabel("F", 4)
        elif fam == "G":
            if n == 2:
                yield FinTypeLabel("G", 2)
        elif n >= lo:
            yield FinTypeLabel(fam, n)


def identify_label(m: GCM) -> str:
    """Name of m among the stored finite/affine tables, up to node permutation.

    Returns e.g. "C3", "C2^(1)", "A4^(2)"; unmatched symmetrizable input
    falls through to its sign class ("indefinite" et al.).
    """
    kind = classify(m)
    if kind == FINITE:
        for label in _finite_candidates(m.n):
            if gcm_equiv(build_cartan(label), m):
                return str(label)
        return "finite (unrecognized)"
    if kind == AFFINE:
        k = m.n - 1
        names = []
        if k >= 2:
            names.append(f"C{k}^(1)")
        names.append(f"A{2 * k}^(2)")
        if k >= 2:
            names.append(f"A{2 * k - 1}^(2)")
        for name in names:
            if gcm_equiv(build_affine_cartan(name), m):
                return name
        return "affine (unrecognized)"
    return INDEFINITE
