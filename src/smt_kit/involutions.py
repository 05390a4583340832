"""Catalog of symmetric-pair rows and the ambient machinery they imply.

The catalog (data/involutions.json) records, per family: the fixed-point
algebra, the ambient label, the restricted root system type and rank, and
the isogeny type.  A row with ambient machinery also names the diagram
automorphism P of its ambient base diagram, as a permutation of the equal
summands of the ambient label: [1, 0] swaps the two factors of a flip pair
g + g (g of type A, C or B), [0] is the identity (symmetric quadrics,
special linear modulo orthogonal); P must be an involution.  In
Satake/Araki terms the involution is sigma = -1 composed with P, Delta_0 is
empty, and the restricted nodes are the P-orbits.  Everything else follows
from P, extended to fix the attached node 0:

* sigma(v) puts -v_i at node P(i) and negates delta;
* the ambient nodes over restricted node i are its P-orbit, from i;
* the tier coordinate i of the split part (v - sigma v)/2 is half the sum
  of v over orbit(i), and its delta is v's (`split_to_tier`);
* the i-th tier reflection lifts to the longest element of the parabolic
  on orbit(i) (`reflection_lift`);
* eps_i -> sum over p in orbit(i) of (2/|orbit(i)|) c_i omega_p, c_i the
  i-th quadratic-basis coefficient (2 on the last node of B, else 1); so
  a flip doubles each node (eps_i -> omega_i + omega_i') and the quadrics
  send eps_i -> 2 omega_i.

An AmbientCase bundles: the ambient extended datum, the restricted tier,
the split projection between them, the lift of tier words, and the
dictionary eps_i -> ambient dominant weight.  With Delta_0 empty the lift
of the restricted Weyl group into W^sigma is a homomorphism (Araki 1962;
Helgason, Differential Geometry, Lie Groups, and Symmetric Spaces, Ch. X),
so `lift` takes a tier word letter by letter to the reduced product of the
reflection lifts, each built and checked once per case; the lifted
telescoping words are the lifts of `weyl.tau_hat` and `weyl.tau_full`,
each built once per m.  The split map, the reflection-lift check and
`dim_eps_sum` run on integer vectors (the scaled weight, the integer images
of the fundamental weights, the integer rows of the weight map).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import lspath, quadlat
from .cartan import (GCM, FinTypeLabel, Realization, WeightVec, _scaled, build_cartan,
                     quadratic_basis, reflect_int, weyl_dim_int)
from .extend import ExtendedDatum, extend_ambient, extend_restricted
from .smt import TwoBases
from .weyl import CosetRep, WeylWord, longest_parabolic, tau_full, tau_hat

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
    automorphism: tuple[int, ...] | None = None   # P on the base nodes

    def to_json(self) -> dict:
        out = {"name": self.name, "ambient": self.ambient,
               "fixed_algebra": self.fixed_algebra,
               "restricted": str(self.restricted), "isogeny": self.isogeny,
               "implemented": self.implemented}
        if self.weight_map is not None:
            out["weight_map"] = [w.to_json() for w in self.weight_map]
        return out


def lookup(name: str) -> InvolutionRecord:
    """Catalog row by name; parameterized families take a trailing number.

    Implemented families read the number as the defining group size
    (flip-sp4, flip-sl3, sym-quadrics3); data-only rows read it as the
    restricted rank (sp-gl3, sl-grassmannian2).  A family without a
    parameter (e6-so10) refuses a number with a KeyError.
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
        if n is not None and not row["param"]:
            raise KeyError(f"{key} takes no parameter")
        rank, ambient, fixed = _instantiate(row, n)
        restricted = FinTypeLabel(row["restricted"], rank)
        perm = wmap = None
        if "diagram_automorphism" in row:
            perm = _diagram_permutation(ambient, row["diagram_automorphism"])
            wmap = _weight_map(ambient, restricted, perm)
        return InvolutionRecord(text, ambient, fixed, restricted,
                                row["isogeny"], row["implemented"], wmap, perm)
    raise KeyError(f"unknown involution {name!r}")


def _instantiate(row: dict, n: int | None):
    key = row["key"]
    if key == "flip-sl":
        if n is None or n < 2:
            raise KeyError("flip-sl needs n >= 2")
        return n - 1, f"A{n-1}+A{n-1}", f"sl({n})"
    if key == "flip-sp":
        if n is None or n < 4 or n % 2:
            raise KeyError("flip-sp needs even n >= 4")
        return n // 2, f"C{n//2}+C{n//2}", f"sp({n})"
    if key == "flip-so-odd":
        if n is None or n < 5 or n % 2 == 0:
            raise KeyError("flip-so-odd needs odd n >= 5")
        r = (n - 1) // 2
        return r, f"B{r}+B{r}", f"so({n})"
    if key == "sym-quadrics":
        if n is None or n < 2:
            raise KeyError("sym-quadrics needs n >= 2")
        return n - 1, f"A{n-1}", f"so({n})"
    if n is None:
        return int(row["restricted_rank"]), row["ambient"], row["fixed_algebra"]
    return n, row["ambient"], row["fixed_algebra"]


def _summands(ambient: str) -> list[FinTypeLabel]:
    return [FinTypeLabel.parse(part) for part in ambient.split("+")]


def _diagram_permutation(ambient: str, summand_perm: list[int]) -> tuple[int, ...]:
    """P on the base nodes: summand k goes node by node onto summand_perm[k]."""
    labels = _summands(ambient)
    assert sorted(summand_perm) == list(range(len(labels)))
    if any(summand_perm[t] != k for k, t in enumerate(summand_perm)):
        raise ValueError(f"{ambient}: summand permutation {summand_perm} is not an involution")
    assert all(labels[t] == labels[k] for k, t in enumerate(summand_perm))
    offsets = list(itertools.accumulate((h.rank for h in labels), initial=0))
    return tuple(offsets[t] + j for k, t in enumerate(summand_perm)
                 for j in range(labels[k].rank))


def _orbit(perm: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The orbit of i under the involution P: i, then P(i) if it differs."""
    return (i,) if perm[i] == i else (i, perm[i])


def _weight_map(ambient: str, restricted: FinTypeLabel,
                perm: tuple[int, ...]) -> list[WeightVec]:
    """eps_i -> sum over p in orbit(i) of (2/|orbit(i)|) c_i omega_p."""
    out = []
    for i, qb in enumerate(quadratic_basis(restricted)):
        orbit = _orbit(perm, i)
        coords = [Q(0)] * len(perm)
        for p in orbit:
            coords[p] = Q(2, len(orbit)) * qb.coords[i]
        out.append(WeightVec(ambient, tuple(coords)))
    return out


def quadratic_verdict(rec: InvolutionRecord) -> bool:
    """Whether the (restricted type, isogeny) lattice is quadratic, by
    `quadlat.is_quadratic` at height bound 8."""
    label = rec.restricted
    if rec.isogeny == "ADJ" and label.family != "BC":
        lat = quadlat.root_lattice(label)
    else:
        lat = quadlat.full_weight_lattice(label)
    try:
        verdict, _ = quadlat.is_quadratic(lat, 8)
    except quadlat.MonoidNotFree:
        return False
    return verdict


class AmbientCase:
    """Full machinery of one implemented symmetric pair.

    Node layout of the ambient extension: node 0 is the attached node and
    the base diagram, the block sum of the ambient summands in order,
    occupies 1..n.
    """

    def __init__(self, name: str):
        rec = lookup(name)
        if not rec.implemented:
            raise ValueError(f"{name} is data-only")
        self.record = rec
        self.base = functools.reduce(GCM.block_sum, map(build_cartan, _summands(rec.ambient)))
        self.rank = rec.restricted.rank
        # P on the extension's nodes: node 0 fixed, base node j at j + 1
        self.perm = (0,) + tuple(p + 1 for p in rec.automorphism)
        self.fibres = tuple(_orbit(self.perm, i) for i in range(self.rank + 1))
        self.amb: ExtendedDatum = extend_ambient(self.base, rec.weight_map[0],
                                                 basis_id=f"ext({rec.name})")
        self.tier: ExtendedDatum = extend_restricted(rec.restricted)
        # eps_i -> its ambient base weight, as integer rows
        assert all(c.denominator == 1 for w in rec.weight_map for c in w.coords)
        self._eps_rows = [tuple(map(int, w.coords)) for w in rec.weight_map]
        # reflection_lift(i), built and checked once, on first use of node i
        self._reflection_lifts: list[WeylWord | None] = [None] * (self.rank + 1)
        self._tau_hat_lifts: dict[int, WeylWord] = {}
        self._tau_lifts: dict[int, WeylWord] = {}

    # -- the split map ------------------------------------------------------

    def split_to_tier(self, v: WeightVec) -> WeightVec:
        """Tier coordinates of the split part (v - sigma v)/2 of an ambient
        weight: half the sum of v over each fibre, with v's delta.

        The fibre sums run on the integer vector den * v, and each tier
        coordinate is one Fraction of its sum over 2 den."""
        x, den = _scaled(v)
        return WeightVec(self.tier.real.basis_id, tuple(
            Q(s, 2 * den) for s in self._fibre_sums(x)), Q(x[-1], den))

    def _fibre_sums(self, x: list[int]) -> list[int]:
        """The sums of an integer ambient vector over each fibre."""
        return [sum(x[p] for p in fibre) for fibre in self.fibres]

    # -- weights and dimensions ----------------------------------------------

    def dim_eps_sum(self, indices) -> int:
        """dim V of the ambient image of sum of the listed eps_i, summed on
        the integer rows of the weight map."""
        coeffs = [0] * self.rank
        for i in indices:
            coeffs[i - 1] += 1
        coords = [sum(a * row[j] for a, row in zip(coeffs, self._eps_rows))
                  for j in range(self.base.n)]
        return weyl_dim_int(self.base, coords)

    # -- lifted special elements ----------------------------------------------

    def reflection_lift(self, i: int) -> WeylWord:
        """Ambient word acting on split weights as the i-th tier reflection.

        The word is the longest element of the parabolic on the fibre over
        node i (no implemented pair has sigma-fixed nodes); the action
        identity is asserted on every ambient fundamental weight, on
        integers: twice the split image of w omega_j (fibre sums, doubled
        delta) against the tier reflection of the fibre sums of omega_j.
        """
        real = self.amb.real
        w = longest_parabolic(real, self.fibres[i])
        for j in range(real.n):
            x = [int(k == j) for k in range(real.n + 1)]
            image = real.image(w.letters, x)
            want = self._fibre_sums(x) + [2 * x[-1]]
            reflect_int(self.tier.real.int_roots, want, i)
            if self._fibre_sums(image) + [2 * image[-1]] != want:
                raise AssertionError("lifted reflection does not restrict correctly")
        return w

    def lift(self, word: WeylWord) -> WeylWord:
        """The reduced product of the reflection lifts of a tier word's
        letters; a word over another realization raises ValueError."""
        if word.real is not self.tier.real:
            raise ValueError(f"lift takes a word of the tier {self.tier.real.basis_id}, "
                             f"not of {word.real.basis_id}")
        lifts = self._reflection_lifts
        for i in set(word.letters):
            if lifts[i] is None:
                lifts[i] = self.reflection_lift(i)
        letters = tuple(j for i in word.letters for j in lifts[i].letters)
        return WeylWord(self.amb.real, WeylWord(self.amb.real, letters).reduce())

    def tau_hat_lift(self, m: int) -> WeylWord:
        """The lift of `weyl.tau_hat(m)`, built once per m, 0 <= m <= rank."""
        if m not in self._tau_hat_lifts:
            self._tau_hat_lifts[m] = self.lift(tau_hat(m, self.tier))
        return self._tau_hat_lifts[m]

    def tau_lift(self, m: int) -> WeylWord:
        """The lift of `weyl.tau_full(m)` = w_Delta tau_hat_m, built once per m."""
        if m not in self._tau_lifts:
            self._tau_lifts[m] = self.lift(tau_full(m, self.tier))
        return self._tau_lifts[m]

    def grassmann_parabolic(self) -> frozenset[int]:
        return frozenset(range(1, self.amb.real.n))

    # -- base-level path models -------------------------------------------------

    @functools.cached_property
    def two_bases(self):
        """The tables of `smt.two_basis_counts`, built on first use."""
        return TwoBases(self)

    def base_realization(self) -> Realization:
        if not hasattr(self, "_base_real"):
            self._base_real = Realization(self.base, f"base({self.record.name})")
        return self._base_real

    def eps_base_weight(self, i: int) -> WeightVec:
        return self.base_realization().weight(self.record.weight_map[i - 1].coords)

    def base_paths(self, i: int):
        """Full path model of the ambient image of eps_i over the base group."""
        real = self.base_realization()
        shape = self.eps_base_weight(i)
        w0 = longest_parabolic(real, range(real.n))
        top = CosetRep(w0, lspath.stabilizer_nodes(shape))
        return lspath.enumerate_paths(shape, top)

    def lift_to_grassmannian(self, path, i: int):
        """Image of a base path of shape eps_i on the extended coset space."""
        return lspath.lift_path(path, self.tau_hat_lift(i), self.grassmann_parabolic(),
                                self.amb.e_omega0(), letter_shift=1)

    def tau_coset(self, m: int) -> CosetRep:
        return CosetRep(self.tau_lift(m), self.grassmann_parabolic())
