"""`two_basis_counts` as it was before the per-owner Bruhat table, kept as a
test oracle.

Every monomial is built as a tuple of factors; below-standardness is the
list-based forward pass `lspath_reference.forward_standard_below` with one
`lspath_reference.FibreLifts` per call, and above-standardness of the
lifted monomial is `lspath.is_standard_above`, one `path_leq` per pair of
factors.  The library walks no monomial: it counts them by a dynamic
program over a table built once per case, so the two share no
per-monomial work; `tests/test_lspath_differential.py` compares their
reports.

`lift_order` is `TwoBases.leq` as it was before the library read it off
the comparability table of `GradedCounts`: one `bruhat_leq` per pair of a
top and a bottom direction of the lifted paths.
"""

from __future__ import annotations

import itertools

import lspath_reference as R
from smt_kit import lspath
from smt_kit.smt import GradedCounts
from smt_kit.weyl import bruhat_leq


def two_basis_counts(case, degree: int) -> dict:
    """Standard monomials from below vs from above at the given degree."""
    l = case.rank
    pools = {i: case.base_paths(i) for i in range(1, l + 1)}

    lifted = {i: [case.lift_to_grassmannian(p, i) for p in pools[i]]
              for i in pools}
    for i, lst in lifted.items():
        assert len({(tuple(d.key for d in p.dirs), p.cuts) for p in lst}) == len(lst), \
            "lift is not injective"
        assert all(lspath.d_degree(p) == i for p in lst)

    gc = GradedCounts(case, l)
    pool_R = gc.pool("R")
    lifted_keys = {key for lst in lifted.values()
                   for key in ((tuple(d.key for d in p.dirs), p.cuts) for p in lst)}
    pool_keys = {(tuple(d.key for d in p.dirs), p.cuts) for p in pool_R}
    report: dict = {"degree": degree,
                    "degree1_bijection": lifted_keys == pool_keys}

    below_total = 0
    above_total = gc.count(degree, "R")
    per_multidegree = {}
    lift_preserves = True
    fibre_lifts = R.FibreLifts(case.base_realization())
    for idx in itertools.combinations_with_replacement(range(1, l + 1), degree):
        groups = {}
        for i in idx:
            groups[i] = groups.get(i, 0) + 1
        count = 0
        choices = [itertools.combinations_with_replacement(range(len(pools[i])), k)
                   for i, k in sorted(groups.items())]
        for pick in itertools.product(*choices):
            picked = [(i, t) for (i, _), chosen in zip(sorted(groups.items()), pick)
                      for t in chosen]
            mono = tuple(pools[i][t] for i, t in picked)
            # a factor's block is its pool index i
            if R.forward_standard_below(mono, [i for i, _ in picked], fibre_lifts):
                count += 1
                lifted_mono = tuple(lifted[i][t] for i, t in picked)
                if not lspath.is_standard_above(lifted_mono):
                    lift_preserves = False
        per_multidegree[idx] = count
        below_total += count
    report["below_by_multidegree"] = {"+".join(map(str, k)): v
                                      for k, v in per_multidegree.items()}
    report["below_total"] = below_total
    report["above_total"] = above_total
    report["totals_agree"] = below_total == above_total
    report["lift_preserves_standardness"] = lift_preserves
    report["ok"] = report["totals_agree"] and report["degree1_bijection"] \
        and lift_preserves
    return report


def lift_order(case) -> list[int]:
    """leq[a]: the bitset of the pool positions b with lift(a) <= lift(b),
    the pool built and ordered as `TwoBases` does; no comparison where the
    top is the longer, since Bruhat order never decreases length."""
    lifts = lspath.FibreLifts(case.base_realization())
    pool = [(i, lifts.kind(p), case.lift_to_grassmannian(p, i))
            for i in range(1, case.rank + 1) for p in case.base_paths(i)]
    pool.sort(key=lambda e: (e[0], lifts.order_key(e[1]), e[1]))
    lifted = [q for _, _, q in pool]
    bottoms: dict[tuple, list] = {}     # direction key -> [direction, the b it ends]
    for b, q in enumerate(lifted):
        bottoms.setdefault(q.dirs[-1].key, [q.dirs[-1], 0])[1] |= 1 << b
    up = {top.key: sum(ended for bottom, ended in bottoms.values()
                       if top.length() <= bottom.length() and bruhat_leq(top, bottom))
          for top in {q.dirs[0] for q in lifted}}
    return [up[q.dirs[0].key] for q in lifted]
