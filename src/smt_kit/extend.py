"""Extended Cartan data for a diagram plus a spherical weight.

Attaching a node 0 to a Cartan matrix A by a dominant weight eps gives the
extended matrix with row 0 equal to -scale * <eps, alpha_j^vee> (scale 2 on
a restricted tier, else 1) and column 0 in {0,-1} (`_attach`).  Done to a
finite restricted system of type A/B/C/D/BC with eps the first
quadratic-basis weight, the result is the finite or affine matrix of the
classical table (A_l -> C_{l+1}, B_l/BC_l -> A_{2l}^(2), C_l -> C_l^(1),
D_l -> A_{2l-1}^(2)).

The restricted tier realization carries the node-0 root with a +2 delta
correction (it is twice an ambient root).  e_eps_i (i >= 1) is
`eps_coefficient(i)` omega_i, so the split normal form of a tier weight over
(e_eps_1..e_eps_l, gamma, delta) is read off its coordinates; gamma is half
the node-0 fundamental weight.  The gradings are gr and egr = gr + <v, D>;
gr sums on integers over the lcm of the denominators, and the normal form
keeps the Fractions of its input instead of building them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cartan import (AFFINE, FINITE, GCM, FinTypeLabel, Realization, WeightVec,
                     build_cartan, classify)

Q = Fraction

__all__ = [
    "ExtendedDatum", "SplitWeight", "extend_ambient", "extend_restricted",
    "egr", "gr", "n0", "split_normal_form",
]


@dataclass(frozen=True)
class SplitWeight:
    """Normal form a_0..a_l over e_eps_0..e_eps_l plus gamma and delta parts."""

    eps_coords: tuple[Fraction, ...]
    gamma: Fraction
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eps_coords", tuple(
            c if type(c) is Fraction else Q(c) for c in self.eps_coords))
        for name in ("gamma", "delta"):
            if type(getattr(self, name)) is not Fraction:
                object.__setattr__(self, name, Q(getattr(self, name)))


class ExtendedDatum:
    """An extension step: base matrix, attaching weight, extended matrix.

    A datum with a quadratic-basis label is a restricted extension,
    attached at `attach_scale` 2 (`_attach`), with the tier realization and
    the e_eps weights; one without is an ambient extension, attached at
    scale 1.  The scale is also the delta coefficient of an affine
    realization and the factor of the finite D-pairing.
    """

    def __init__(self, base: GCM, epsilon: WeightVec, label: FinTypeLabel | None = None,
                 basis_id: str | None = None):
        self.base = base
        self.epsilon = epsilon
        self.label = label
        self.attach_scale = 1 if label is None else 2
        self.extended = _attach(base, [int(c) for c in epsilon.coords], self.attach_scale)
        self.classification = classify(self.extended)
        bid = basis_id or f"ext({epsilon.basis_id})"
        if self.classification == AFFINE:
            self.real = Realization(self.extended, bid, delta_node=0,
                                    delta_coeff=self.attach_scale)
        else:
            self.real = Realization(self.extended, bid)

    @property
    def rank(self) -> int:
        return self.base.n

    def is_affine(self) -> bool:
        return self.classification == AFFINE

    def e_omega0(self) -> WeightVec:
        """Fundamental weight of node 0; halved in the restricted tier."""
        w = self.real.fundamental(0)
        return w if self.label is None else w.scale(Q(1, 2))

    def eps_coefficient(self, i: int) -> int:
        """The coordinate of e_eps_i at node i, 1 <= i <= l, its only nonzero one.

        Coordinates are pairings with the standard tier coroots, so the
        last basis weight of both B and BC reads 2*omega_l here (for BC the
        doubled value comes from the nonreduced coroot convention).
        """
        if self.label is None or self.label.family not in ("A", "B", "C", "BC"):
            raise ValueError("no quadratic basis for this label")
        return 2 if self.label.family in ("B", "BC") and i == self.rank else 1

    def e_eps(self, i: int) -> WeightVec:
        """The split basis weight e_eps_i in tier coordinates (restricted only)."""
        if self.label is None:
            raise ValueError("e_eps lives on the restricted tier")
        if i == 0:
            return self.real.fundamental(0)
        coords = [0] * (self.rank + 1)
        coords[i] = self.eps_coefficient(i)
        return self.real.weight(coords)

    def pairing_D(self, v: WeightVec) -> Fraction:
        """<v, D> for the grading element D normalized by <alpha_0, D> = 1.

        Affine: the fundamental weights are D-normalized to zero, so the
        pairing is the delta coordinate.  Finite: D kills the base weights
        and the value is the attach scale times the node-0 coefficient of
        the root expansion (node-0 root = twice an ambient root in the
        restricted tier).
        """
        if self.is_affine():
            return v.delta
        coords = self.real.root_coords(v)
        if coords is None:
            raise ValueError("weight outside the root span")
        return self.attach_scale * coords[0]


def _attach(base: GCM, pairings, scale: int) -> GCM:
    """`base` with node 0 attached: row 0 is -scale * pairing, column 0 is
    -1 where the pairing is nonzero, else 0."""
    ent = [(2, *(-scale * p for p in pairings))]
    ent += [(-1 if p else 0, *row) for p, row in zip(pairings, base.entries)]
    return GCM(tuple(ent))


def extend_ambient(base: GCM, eps: WeightVec, basis_id: str | None = None) -> ExtendedDatum:
    """Attach node 0 to `base` by a dominant integral weight eps."""
    if not (eps.is_dominant() and eps.is_integral()):
        raise ValueError("dominant integral weight required")
    return ExtendedDatum(base, eps, basis_id=basis_id)


def _restricted_pairings(label: FinTypeLabel) -> list[int]:
    """<eps, alpha_i^vee> for the canonical attaching weight of the table."""
    fam, n = label.family, label.rank
    if fam in ("B", "BC") and n == 1:
        return [2]                      # eps = 2*omega_1 (B_1) / omega_1 with doubled pairing (BC_1)
    if fam == "D" and n == 2:
        return [1, 1]                   # e_1 continues as omega_1 + omega_2
    return [1] + [0] * (n - 1)          # eps = omega_1


def extend_restricted(label: FinTypeLabel) -> ExtendedDatum:
    """Extended matrix of a restricted system of type A/B/C/D/BC.

    Row 0 is -2<eps, alpha_i^vee>, column 0 is 0/-1; eps is the first
    quadratic-basis weight (2*omega_1 for B_1).
    """
    if label.family not in ("A", "B", "C", "D", "BC"):
        raise ValueError(f"unsupported restricted family {label.family}")
    eps = WeightVec(str(label), tuple(Q(p) for p in _restricted_pairings(label)))
    return ExtendedDatum(build_cartan(label), eps, label, basis_id=f"tier({label})")


def split_normal_form(datum: ExtendedDatum, v: WeightVec) -> SplitWeight:
    """Expand a tier weight as sum(a_i e_eps_i) + g*gamma + b*delta, a_0 = 0."""
    if datum.label is None:
        raise ValueError("split normal form lives on the restricted tier")
    a = [Q(0)]
    for i in range(1, datum.rank + 1):
        c, k = v.coords[i], datum.eps_coefficient(i)
        a.append(c if k == 1 else c / k)
    gamma = 2 * v.coords[0]             # gamma = half the node-0 fundamental weight
    return SplitWeight(tuple(a), gamma, v.delta)


def gr(split: SplitWeight) -> Fraction:
    """sum(i * a_i) over the eps coordinates (weights of the spherical lattice),
    summed on integers over the lcm of their denominators."""
    den = math.lcm(*(a.denominator for a in split.eps_coords))
    return Q(sum(i * a.numerator * (den // a.denominator)
                 for i, a in enumerate(split.eps_coords)), den)


def egr(datum: ExtendedDatum, v: WeightVec) -> Fraction:
    """Grading gr + <v, D> of a tier weight.

    Anchors: egr(e_omega_0) = n_0, egr of the first l tier simple roots is
    0, egr of the last one is positive.
    """
    return gr(split_normal_form(datum, v)) + datum.pairing_D(v)


def n0(datum: ExtendedDatum) -> Fraction:
    """<e_omega_0, D>: zero in affine type, (l+1)/2 in finite type."""
    if datum.classification not in (FINITE, AFFINE):
        raise ValueError("indefinite extension has no D normalization here")
    return datum.pairing_D(datum.e_omega0())
