"""Catalog of symmetric-pair rows and the ambient machinery of two families.

The catalog (data/involutions.json) records, per family: the fixed-point
algebra, the restricted root system type and rank, and the isogeny type.
Two families carry full ambient machinery:

* flip pairs g + g with the factor swap, for g of type A, C or B
  (restricted system = the factor's own; the weight dictionary doubles
  each node: eps_i -> omega_i + omega_i');
* symmetric quadrics (special linear modulo orthogonal), where the
  involution is -1 on weights and eps_i -> 2 omega_i.

An AmbientCase bundles: the ambient extended datum, the restricted tier,
the split projection between them, the lifted telescoping words, and the
dictionary eps_i -> ambient dominant weight.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .cartan import (FinTypeLabel, Realization, WeightVec, build_cartan,
                     weyl_dim)
from .extend import ExtendedDatum, extend_ambient, extend_restricted
from .weyl import (CosetRep, WeylWord, lift_restricted_reflection,
                   longest_parabolic)

Q = Fraction


def _catalog() -> list[dict]:
    text = resources.files("smt_kit").joinpath("data/involutions.json").read_text()
    return json.loads(text)["families"]


@dataclass
class InvolutionRecord:
    name: str
    ambient: str
    fixed_algebra: str
    restricted: FinTypeLabel
    isogeny: str
    implemented: bool
    weight_map: list[WeightVec] | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "ambient": self.ambient,
               "fixed_algebra": self.fixed_algebra,
               "restricted": str(self.restricted), "isogeny": self.isogeny,
               "implemented": self.implemented}
        if self.weight_map is not None:
            out["weight_map"] = [w.to_json() for w in self.weight_map]
        return out


def _flip_weight_map(h: FinTypeLabel) -> list[WeightVec]:
    # eps_i doubles each node of the factor's quadratic basis (so the last
    # B-type weight contributes 2*omega on both copies)
    from .cartan import quadratic_basis
    r = h.rank
    bid = f"{h}+{h}"
    out = []
    for qb in quadratic_basis(h):
        coords = tuple(qb.coords) + tuple(qb.coords)
        out.append(WeightVec(bid, coords))
    return out


def _quadrics_weight_map(n: int) -> list[WeightVec]:
    r = n - 1
    bid = f"A{r}"
    return [WeightVec(bid, tuple(Q(2) if j == i else Q(0) for j in range(r)))
            for i in range(r)]


def lookup(name: str) -> InvolutionRecord:
    """Catalog row by name; parameterized families take a trailing number.

    Implemented families read the number as the defining group size
    (flip-sp4, flip-sl3, sym-quadrics3); data-only rows read it as the
    restricted rank (sp-gl3, sl-grassmannian2).
    """
    text = name.strip().lower().replace("(", "").replace(")", "")
    for row in _catalog():
        key = row["key"]
        if text == key:
            n = None
        elif text.startswith(key) and text[len(key):].lstrip("-").isdigit():
            n = int(text[len(key):].lstrip("-"))
        else:
            continue
        if n is None and row["param"]:
            raise KeyError(f"{name}: family needs a parameter ({row['param']})")
        rank, ambient, wmap = _instantiate(row, n)
        return InvolutionRecord(text, ambient, row["fixed_algebra"],
                                FinTypeLabel(row["restricted"], rank),
                                row["isogeny"], row["implemented"], wmap)
    raise KeyError(name)


def _instantiate(row: dict, n: int | None):
    key = row["key"]
    if key == "flip-sl":
        if n is None or n < 2:
            raise KeyError("flip-sl needs n >= 2")
        return n - 1, f"A{n-1}+A{n-1}", _flip_weight_map(FinTypeLabel("A", n - 1))
    if key == "flip-sp":
        if n is None or n < 4 or n % 2:
            raise KeyError("flip-sp needs even n >= 4")
        return n // 2, f"C{n//2}+C{n//2}", _flip_weight_map(FinTypeLabel("C", n // 2))
    if key == "flip-so-odd":
        if n is None or n < 5 or n % 2 == 0:
            raise KeyError("flip-so-odd needs odd n >= 5")
        r = (n - 1) // 2
        return r, f"B{r}+B{r}", _flip_weight_map(FinTypeLabel("B", r))
    if key == "sym-quadrics":
        if n is None or n < 2:
            raise KeyError("sym-quadrics needs n >= 2")
        return n - 1, f"A{n-1}", _quadrics_weight_map(n)
    if n is None:
        return int(row["restricted_rank"]), row["ambient"], None
    return n, row["ambient"], None


def restricted_to_ambient(rec: InvolutionRecord, coeffs) -> WeightVec:
    """sum a_i * weight_map(eps_i) for a restricted weight given by its
    quadratic-basis coefficients."""
    if not rec.implemented or rec.weight_map is None:
        raise ValueError(f"{rec.name} has no implemented ambient machinery")
    out = rec.weight_map[0].scale(0)
    for a, w in zip(coeffs, rec.weight_map):
        out = out + w.scale(a)
    return out


def quadratic_verdict(rec: InvolutionRecord, bound: int | None = None) -> bool:
    """Whether the (restricted type, isogeny) lattice is quadratic."""
    from . import quadlat
    label = rec.restricted
    if label.family == "BC" or rec.isogeny == "SC=ADJ":
        lat = quadlat.full_weight_lattice(label)
    elif rec.isogeny == "ADJ":
        lat = quadlat.root_lattice(label)
    else:
        lat = quadlat.full_weight_lattice(label)
    try:
        verdict, _ = quadlat.is_quadratic(lat, bound)
    except quadlat.MonoidNotFree:
        return False
    return verdict


class AmbientCase:
    """Full machinery of one implemented symmetric pair.

    Node layout of the ambient extension: node 0 is the attached node and
    the base diagram occupies 1..n (for flips, first copy then second).
    """

    def __init__(self, name: str):
        rec = lookup(name)
        if not rec.implemented:
            raise ValueError(f"{name} is data-only")
        self.record = rec
        self.flip = rec.name.startswith("flip")
        h = None
        if self.flip:
            fam = {"flip-sl": "A", "flip-sp": "C", "flip-so-odd": "B"}[
                re.sub(r"\d+$", "", rec.name).rstrip("-")]
            h = rec.restricted
            base = build_cartan(h).block_sum(build_cartan(h))
        else:
            base = build_cartan(FinTypeLabel("A", rec.restricted.rank))
        self.base = base
        self.h_label = h
        eps1 = restricted_to_ambient(rec, [1] + [0] * (rec.restricted.rank - 1))
        self.amb: ExtendedDatum = extend_ambient(base, eps1, basis_id=f"ext({rec.name})")
        self.tier: ExtendedDatum = extend_restricted(rec.restricted)
        self.rank = rec.restricted.rank
        self._tau_lift_cache: dict[int, WeylWord] = {}

    # -- node bookkeeping ---------------------------------------------------

    def preimage_nodes(self, i: int) -> tuple[int, ...]:
        """Ambient-extension node indices lying over tier node i."""
        if i == 0:
            return (0,)
        r = self.rank
        if self.flip:
            h_rank = self.h_label.rank
            return (i, h_rank + i)
        return (i,)

    def sigma_class_nodes(self, i: int) -> tuple[int, ...]:
        # Delta_0 is empty for both implemented families
        return self.preimage_nodes(i)

    def sigma(self, v: WeightVec) -> WeightVec:
        """The involution on ambient-extension coordinates."""
        real = self.amb.real
        if not self.flip:
            return -v
        r = self.h_label.rank
        coords = list(v.coords)
        new = [-coords[0]] + [Q(0)] * (2 * r)
        for i in range(1, r + 1):
            new[i] = -coords[r + i]
            new[r + i] = -coords[i]
        return WeightVec(v.basis_id, tuple(new), -v.delta)

    def split_part(self, v: WeightVec) -> WeightVec:
        return (v - self.sigma(v)).scale(Q(1, 2))

    def split_to_tier(self, v: WeightVec) -> WeightVec:
        """Tier coordinates of the split part of an ambient weight."""
        s = self.split_part(v)
        scale = Q(1) if self.flip else Q(1, 2)
        coords = [Q(1, 2) * s.coords[0]]
        for i in range(1, self.rank + 1):
            pre = self.preimage_nodes(i)
            vals = {s.coords[p] for p in pre}
            assert len(vals) == 1, "split part not symmetric across the fiber"
            coords.append(scale * vals.pop())
        return self.tier.real.weight(coords, s.delta)

    # -- weights and dimensions ----------------------------------------------

    def eps_ambient_base(self, i: int) -> WeightVec:
        """eps_i as a dominant weight of the base (non-extended) diagram."""
        coeffs = [0] * self.rank
        coeffs[i - 1] = 1
        return restricted_to_ambient(self.record, coeffs)

    def eps_ambient_ext(self, i: int) -> WeightVec:
        """eps_i embedded in the extended weight coordinates.

        The node-0 coordinate is the pairing with the node-0 coroot, which
        equals minus the sum of the root-expansion coefficients of eps_i
        over the nodes attached to node 0 (the coroot is the central
        element minus the attached fundamental coweights).
        """
        base_real = self.base_realization()
        w = self.eps_ambient_base(i)
        expansion = base_real.root_coords(base_real.weight(w.coords))
        support = [j for j in range(self.base.n)
                   if self.amb.epsilon.coords[j] != 0]
        c = -sum(expansion[j] for j in support)
        return self.amb.real.weight([c] + list(w.coords))

    def dim_eps_sum(self, indices) -> int:
        """dim V of the ambient image of sum of the listed eps_i."""
        coeffs = [0] * self.rank
        for i in indices:
            coeffs[i - 1] += 1
        return weyl_dim(self.base, restricted_to_ambient(self.record, coeffs))

    # -- lifted special elements ----------------------------------------------

    def reflection_lift(self, i: int) -> WeylWord:
        return lift_restricted_reflection(i, self)

    def tau_hat_lift(self, m: int) -> WeylWord:
        """Ambient word restricting to tau_hat_m on the tier, 0 <= m <= rank."""
        if not 0 <= m <= self.rank:
            raise ValueError(f"m out of range: {m} not in 0..{self.rank}")
        if m not in self._tau_lift_cache:
            if m == 0:
                w = WeylWord(self.amb.real, ())
            else:
                prefix = WeylWord(self.amb.real, ())
                for k in range(m):
                    prefix = prefix * self.reflection_lift(k)
                w = prefix * self.tau_hat_lift(m - 1)
            self._tau_lift_cache[m] = WeylWord(self.amb.real, w.reduce())
        return self._tau_lift_cache[m]

    def tau_lift(self, m: int) -> WeylWord:
        w_delta = longest_parabolic(self.amb.real, range(1, self.amb.real.n))
        w = w_delta * self.tau_hat_lift(m)
        return WeylWord(self.amb.real, w.reduce())

    def grassmann_parabolic(self) -> frozenset[int]:
        return frozenset(range(1, self.amb.real.n))

    # -- base-level path models -------------------------------------------------

    def base_realization(self) -> Realization:
        if not hasattr(self, "_base_real"):
            self._base_real = Realization(self.base, f"base({self.record.name})")
        return self._base_real

    def eps_base_weight(self, i: int) -> WeightVec:
        w = self.eps_ambient_base(i)
        return self.base_realization().weight(w.coords)

    def base_paths(self, i: int):
        """Full path model of the ambient image of eps_i over the base group."""
        from . import lspath as _lp
        from .weyl import CosetRep as _CR
        real = self.base_realization()
        shape = self.eps_base_weight(i)
        w0 = longest_parabolic(real, range(real.n))
        top = _CR(w0, _lp.stabilizer_nodes(shape))
        return _lp.enumerate_paths(shape, top)

    def lift_to_grassmannian(self, path, i: int):
        """Image of a base path of shape eps_i on the extended coset space."""
        from . import lspath as _lp
        return _lp.lift_path(path, self.tau_hat_lift(i), self.grassmann_parabolic(),
                             self.amb.e_omega0(), letter_shift=1)

    def tau_hat_coset(self, m: int) -> CosetRep:
        return CosetRep(self.tau_hat_lift(m), self.grassmann_parabolic())

    def tau_coset(self, m: int) -> CosetRep:
        return CosetRep(self.tau_lift(m), self.grassmann_parabolic())
