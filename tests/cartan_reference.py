"""The Fraction kernels that `smt_kit.cartan` replaced, kept as test oracles.

`root_coords` expands a weight over the simple roots with one exact
`linalg.solve` per weight, and `weyl_dim` multiplies the Weyl dimension
formula out as a product of Fractions over an uncached root enumeration.
They are slow but share no arithmetic with the integer left inverse and
the integer product in `smt_kit.cartan`, which makes them differential
oracles for `tests/test_cartan_differential.py` (and, through
`weyl_reference.is_negative_root_vec`, for the Weyl reference kernel).

The code is the earlier `smt_kit.cartan` code with two changes that alter
no answer: `root_coords` is a function of the Realization, and its cache
is held per live Realization (a WeakKeyDictionary) apart from the
Realization's own.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

from smt_kit import linalg
from smt_kit.cartan import FinTypeLabel, GCM, Realization, WeightVec, build_cartan, finite_roots

Q = Fraction

_expand_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def root_coords(real: Realization, v: WeightVec) -> tuple[Fraction, ...] | None:
    """Expansion of v over the simple roots (delta included); None if not in span."""
    cache = _expand_cache.setdefault(real, {})
    key = (v.coords, v.delta)
    if key not in cache:
        roots = [real.simple_root(i) for i in range(real.n)]
        rows = [[roots[i].coords[j] for i in range(real.n)] for j in range(real.n)]
        rows.append([roots[i].delta for i in range(real.n)])
        rhs = list(v.coords) + [v.delta]
        sol = linalg.solve(rows, rhs)
        cache[key] = tuple(sol) if sol is not None else None
    return cache[key]


def weyl_dim(m: GCM | FinTypeLabel, lam: WeightVec) -> int:
    """dim V_lam by the Weyl dimension formula, evaluated exactly."""
    if isinstance(m, FinTypeLabel):
        m = build_cartan(m)
    if m.nonreduced_nodes:
        raise ValueError("nonreduced (BC) type has no Weyl dimension formula here")
    if not (lam.is_dominant() and lam.is_integral()):
        raise ValueError("dominant integral weight required")
    dim = Q(1)
    for _, co in finite_roots.__wrapped__(m):
        num = sum((lam.coords[j] + 1) * co[j] for j in range(m.n))
        den = sum(co[j] for j in range(m.n))
        dim *= Q(num, den)
    assert dim.denominator == 1
    return int(dim)
