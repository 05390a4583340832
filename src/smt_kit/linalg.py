"""Exact linear algebra: solving, integer left inverses, char polys.

`solve` takes and returns fractions.Fraction entries; `left_inverse` and
`char_poly` work over the integers (no library code calls `char_poly`; it is
kept for the benchmark's tracer and the tests' reference).  There is no
floating point anywhere in the package.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

Q = Fraction

Matrix = list[list[Fraction]]


def solve(a_rows: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables (if any) are set to zero.  A is given by rows and need
    not be square.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = [[Q(x) for x in row] + [Q(b[i])] for i, row in enumerate(a_rows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Q(0)] * n
    for i, c in pivots:
        x[c] = aug[i][n]
    return x


class IntInverse(NamedTuple):
    """An integer left inverse of a matrix A: A x = b is solvable iff every
    span row pairs to zero with b, and then x = left . b / d."""

    left: tuple[tuple[int, ...], ...]
    span: tuple[tuple[int, ...], ...]
    d: int

    def expand(self, b) -> list[int] | None:
        """left . b (d times the solution), or None when a span row pairs
        nonzero with b; the only reader of the rows."""
        if any(sum(map(operator.mul, row, b)) for row in self.span):
            return None
        return [sum(map(operator.mul, row, b)) for row in self.left]


def left_inverse(a_rows) -> IntInverse:
    """The integer left inverse of an integer m x n matrix A, whose solution
    is the one `solve` returns: the pivot columns are found by the same rule
    (first nonzero entry at or below the current row), and the rows of
    `left` for free columns are zero.  Fraction-free Gauss-Jordan on
    [A | I]; each combined row is divided by its content to keep the
    entries small.
    """
    if any(x != int(x) for row in a_rows for x in row):
        raise ValueError("left_inverse needs an integer matrix")
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = [[int(x) for x in row] + [int(i == k) for k in range(m)]
           for i, row in enumerate(a_rows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        top = aug[r]
        pv = top[c]
        for i in range(m):
            f = aug[i][c]
            if i != r and f != 0:
                row = [pv * x - f * y for x, y in zip(aug[i], top)]
                g = math.gcd(*row)
                aug[i] = [x // g for x in row]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    d = math.lcm(*(aug[i][c] for i, c in pivots)) if pivots else 1
    left = [(0,) * m] * n
    for i, c in pivots:
        scale = d // aug[i][c]
        left[c] = tuple(scale * x for x in aug[i][n:])
    return IntInverse(tuple(left), tuple(tuple(aug[i][n:]) for i in range(r, m)), d)


def char_poly(a: list[list[int]]) -> list[int]:
    """Coefficients [1, c1, ..., cn] of det(xI - A), highest degree first.

    Faddeev-LeVerrier over the integers: M_0 = I, c_k = -tr(A M_{k-1}) / k,
    M_k = A M_{k-1} + c_k I.  The c_k of an integer matrix are integers, so
    each division is exact (asserted).
    """
    n = len(a)
    coeffs = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(x * m[t][j] for t, x in enumerate(row) if x) for j in range(n)]
              for row in a]
        c, rest = divmod(-sum(am[i][i] for i in range(n)), k)
        assert rest == 0, "characteristic polynomial coefficient is not an integer"
        coeffs.append(c)
        for i in range(n):
            am[i][i] += c
        m = am
    return coeffs
