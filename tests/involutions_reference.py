"""Reference oracle: the per-family branches the automorphism rule replaced,
and the telescoping recursion the lift rule replaced.

`involutions.AmbientCase` derives the fibres over the restricted nodes,
the split map and the weight map from one diagram permutation P.  This
module keeps the earlier code, which branched on whether the pair is a
flip (g + g with the factor swap) or the symmetric quadrics, so that
`tests/test_involutions_differential.py` can compare the two.  The library
needs only the fibres of P, so sigma read off P (-v_i put at node P(i)),
which `AmbientCase.sigma` used to give, is `automorphism_sigma` here, where
it checks `AmbientCase.perm` against the branch `sigma`.  It also keeps
the recursion tau_hat_lift(m) = r_0 ... r_{m-1} tau_hat_lift(m - 1)
over `AmbientCase.reflection_lift`, which `AmbientCase.lift` replaced,
eps_i embedded in the extended weight coordinates, and
`restricted_to_ambient`, the Fraction sum of the weight map that
`AmbientCase.dim_eps_sum` replaced with its integer rows.
"""

from __future__ import annotations

from fractions import Fraction

from smt_kit.cartan import (FinTypeLabel, GCM, WeightVec, build_cartan,
                            quadratic_basis)
from smt_kit.weyl import WeylWord

Q = Fraction


def is_flip(case) -> bool:
    return case.record.name.startswith("flip")


def base_gcm(case) -> GCM:
    h = case.record.restricted
    if is_flip(case):
        return build_cartan(h).block_sum(build_cartan(h))
    return build_cartan(FinTypeLabel("A", h.rank))


def weight_map(case) -> list[WeightVec]:
    h = case.record.restricted
    if is_flip(case):
        # eps_i doubles each node of the factor's quadratic basis
        bid = f"{h}+{h}"
        return [WeightVec(bid, tuple(qb.coords) + tuple(qb.coords))
                for qb in quadratic_basis(h)]
    r = h.rank
    return [WeightVec(f"A{r}", tuple(Q(2) if j == i else Q(0) for j in range(r)))
            for i in range(r)]


def preimage_nodes(case, i: int) -> tuple[int, ...]:
    if i == 0:
        return (0,)
    if is_flip(case):
        return (i, case.record.restricted.rank + i)
    return (i,)


def sigma(case, v: WeightVec) -> WeightVec:
    if not is_flip(case):
        return -v
    r = case.record.restricted.rank
    coords = list(v.coords)
    new = [-coords[0]] + [Q(0)] * (2 * r)
    for i in range(1, r + 1):
        new[i] = -coords[r + i]
        new[r + i] = -coords[i]
    return WeightVec(v.basis_id, tuple(new), -v.delta)


def automorphism_sigma(case, v: WeightVec) -> WeightVec:
    """-1 composed with `case.perm` on ambient-extension coordinates."""
    new = [Q(0)] * len(v.coords)
    for i, c in enumerate(v.coords):
        new[case.perm[i]] = -c
    return WeightVec(v.basis_id, tuple(new), -v.delta)


def split_to_tier(case, v: WeightVec) -> WeightVec:
    s = (v - sigma(case, v)).scale(Q(1, 2))
    scale = Q(1) if is_flip(case) else Q(1, 2)
    coords = [Q(1, 2) * s.coords[0]]
    for i in range(1, case.rank + 1):
        vals = {s.coords[p] for p in preimage_nodes(case, i)}
        assert len(vals) == 1, "split part not symmetric across the fiber"
        coords.append(scale * vals.pop())
    return case.tier.real.weight(coords, s.delta)


def tau_hat_lift(case, m: int) -> WeylWord:
    """r_0 r_1 ... r_{m-1} tau_hat_lift(m - 1), reduced, r_k the k-th
    reflection lift; the identity at m = 0."""
    real = case.amb.real
    if m == 0:
        return WeylWord(real, ())
    prefix = WeylWord(real, ())
    for k in range(m):
        prefix = prefix * case.reflection_lift(k)
    return WeylWord(real, (prefix * tau_hat_lift(case, m - 1)).reduce())


def eps_ambient_ext(case, i: int) -> WeightVec:
    """eps_i embedded in the extended weight coordinates.

    The node-0 coordinate is the pairing with the node-0 coroot, which
    equals minus the sum of the root-expansion coefficients of eps_i over
    the nodes attached to node 0 (the coroot is the central element minus
    the attached fundamental coweights).
    """
    base_real = case.base_realization()
    w = case.record.weight_map[i - 1]
    expansion = base_real.root_coords(base_real.weight(w.coords))
    support = [j for j in range(case.base.n) if case.amb.epsilon.coords[j] != 0]
    c = -sum(expansion[j] for j in support)
    return case.amb.real.weight([c] + list(w.coords))


def restricted_to_ambient(rec, coeffs) -> WeightVec:
    """sum a_i * weight_map(eps_i) for a restricted weight given by its
    quadratic-basis coefficients."""
    if not rec.implemented or rec.weight_map is None:
        raise ValueError(f"{rec.name} has no implemented ambient machinery")
    out = rec.weight_map[0].scale(0)
    for a, w in zip(coeffs, rec.weight_map):
        out = out + w.scale(a)
    return out
