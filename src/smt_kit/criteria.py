"""The paper's checkable claims, each written once as a suite of check rows.

Each suite returns a list of rows `{"name", "pass", "expected", "actual"}`
(expected and actual as reprs).  `smt-kit verify <suite>` prints the rows,
and `tests/test_acceptance.py` asserts them under a wall-clock budget per
criterion.  Parameters are keyword arguments whose defaults are the
acceptance run; `SUITES` maps each `verify` suite name to its function.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as Q

from . import cartan, extend, involutions, lspath, quadlat, smt, weyl


def _check(name, expected, actual):
    return {"name": name, "pass": expected == actual,
            "expected": repr(expected), "actual": repr(actual)}


# restricted family -> (lowest rank, label of the extended diagram at rank l)
_EXTENSION_TABLE = {
    "A": (1, lambda l: f"C{l + 1}"),
    "B": (1, lambda l: f"A{2 * l}^(2)"),
    "C": (2, lambda l: f"C{l}^(1)"),
    "D": (2, lambda l: f"A{2 * l - 1}^(2)"),
    "BC": (1, lambda l: f"A{2 * l}^(2)"),
}


def remark23() -> list[dict]:
    """Criterion 1 (Remark 2.3): the extended diagram of each restricted type,
    by label and against the stored finite or affine matrix."""
    checks = []
    for fam, (lo, label_of) in _EXTENSION_TABLE.items():
        for l in range(lo, 5):
            datum = extend.extend_restricted(cartan.FinTypeLabel(fam, l))
            want = label_of(l)
            checks.append(_check(f"{fam}{l}->{want}", want,
                                 cartan.identify_label(datum.extended)))
            stored = (cartan.build_affine_cartan(want) if "^" in want
                      else cartan.build_cartan(cartan.FinTypeLabel.parse(want)))
            checks.append(_check(f"{fam}{l} matches stored {want}", True,
                                 cartan.gcm_equiv(stored, datum.extended)))
    return checks


def _quadratic_lattices(fam: str, rank: int) -> dict[str, bool]:
    """Every lattice between Q and P, named and ordered as `classify_quadratic`
    reports them, with its verdict (B_2 = C_2 carries both)."""
    if fam == "A":
        index = [f"index-{d}" for d in range(2, rank + 1) if (rank + 1) % d == 0]
        return {"P": True, **dict.fromkeys(index, False), "Q": rank == 1}
    if fam == "B":
        return {"P": rank <= 2, "Q": True}
    if fam == "C":
        return {"P": True, "Q": rank <= 2}
    if fam == "D":
        # D4: the three index-2 lattices share one name
        return {"P": False, "index-2": False, "Q": False}
    return {"P=Q": fam == "BC"}


def prop5(bound: int = 12, max_rank: int = 6) -> list[dict]:
    """Criterion 2 (Prop. 5): the quadratic lattices of each type of rank at
    most `max_rank`, with certificates for the negative verdicts.  A label
    whose classification raises ValueError (a cap, say) is one failed row
    with the error as its actual value; a bound below 1 raises at once."""
    if bound < 1:
        raise ValueError(f"height bound must be at least 1, got {bound}")
    labels = ([(fam, r) for fam in ("A", "B", "C", "BC")
               for r in range(2 if fam == "C" else 1, max_rank + 1)]
              + [(fam, r) for fam, r in (("D", 4), ("G", 2), ("F", 4)) if r <= max_rank])
    checks = []
    for fam, rank in labels:
        want = _quadratic_lattices(fam, rank)
        try:
            rows = quadlat.classify_quadratic(cartan.FinTypeLabel(fam, rank), bound)
        except ValueError as exc:
            checks.append({"name": f"{fam}{rank}", "pass": False,
                           "expected": repr(want), "actual": str(exc)})
            continue
        checks.append(_check(f"{fam}{rank}", want, {name: v for name, v, _ in rows}))
        if fam in ("D", "G", "F"):
            has_cert = all("certificate" in r for _, v, r in rows if not v)
            checks.append(_check(f"{fam}{rank} negative certificates", True, has_cert))
            if (fam, rank) == ("D", 4):
                checks.append(_check("D4 lattice count", 5, len(rows)))
    return checks


def lemma34() -> list[dict]:
    """Criterion 3 (Lemma 3.4): the telescoping words tau_hat_m on a finite
    and an affine tier."""
    checks = []
    for fam, rank in (("A", 2), ("C", 2)):
        datum = extend.extend_restricted(cartan.FinTypeLabel(fam, rank))
        om = datum.e_omega0()
        for m in range(rank + 1):
            th = weyl.tau_hat(m, datum)
            want = om if m == 0 else datum.e_eps(m) - om
            if m and datum.is_affine():
                want = want - datum.real.delta().scale(m)
            checks.append(_check(f"{fam}{rank} tau_hat_{m} action", want.to_json(),
                                 th.act(om).to_json()))
            checks.append(_check(f"{fam}{rank} tau_hat_{m} node0 letters", m,
                                 sum(1 for x in th.reduce() if x == 0)))
            checks.append(_check(f"{fam}{rank} tau_hat_{m} D-pairing", extend.n0(datum) - m,
                                 datum.pairing_D(th.act(om))))
    return checks


def thm37() -> list[dict]:
    """Criterion 4 (Thm 3.7): graded section counts below tau_2 for the
    symplectic flip (degrees 1-5) and the odd orthogonal flip (degrees 1-3),
    against dimension sums and Demazure characters."""
    case = involutions.AmbientCase("flip-sp4")
    gc = smt.GradedCounts(case, 2)
    checks = []
    split = gc.degree_split()
    d1, d2 = case.dim_eps_sum([1]), case.dim_eps_sum([2])
    checks.append(_check("degree split (1,d1,d2)", {0: 1, 1: d1, 2: d2}, split))
    checks.append(_check("degree-1 total", 1 + d1 + d2, gc.count(1, "S")))
    dem1 = weyl.demazure_dim(case.tau_lift(2), case.amb.e_omega0())
    checks.append(_check("demazure oracle degree 1", 1 + d1 + d2, dem1))
    exp_R2 = smt.expected(case, 2, 2, "R")
    checks.append(_check("degree-2 on R", exp_R2, gc.count(2, "R")))
    checks.append(_check("degree-2 on R dimension sum", 552, exp_R2))
    exp_S2 = smt.expected(case, 2, 2, "S")
    checks.append(_check("degree-2 on S", exp_S2, gc.count(2, "S")))
    dem2 = weyl.demazure_dim(case.tau_lift(2), case.amb.e_omega0().scale(2))
    checks.append(_check("demazure oracle degree 2", exp_S2, dem2))
    doms = [p for p in gc.paths if lspath.is_G_dominant(p)]
    checks.append(_check("dominant paths are the straight tau-hat ones",
                         [(1, 0), (1, 1), (1, 2)],
                         sorted((len(p.dirs), lspath.d_degree(p)) for p in doms)))
    exp_S = {n: smt.expected(case, 2, n, "S") for n in (3, 4, 5)}
    checks.append(_check("degree-3..5 on S dimension sums",
                         {3: 4719, 4: 26026, 5: 111384}, exp_S))
    for n, want in exp_S.items():
        checks.append(_check(f"degree-{n} on S", want, gc.count(n, "S")))
    dem3 = weyl.demazure_dim(case.tau_lift(2), case.amb.e_omega0().scale(3))
    checks.append(_check("demazure oracle degree 3", exp_S[3], dem3))
    so5 = involutions.AmbientCase("flip-so-odd5")
    gc5 = smt.GradedCounts(so5, 2)
    exp5 = {n: smt.expected(so5, 2, n, "S") for n in (1, 2, 3)}
    checks.append(_check("flip-so-odd5 degree-1..3 on S dimension sums",
                         {1: 126, 2: 2772, 3: 28314}, exp5))
    for n, want in exp5.items():
        checks.append(_check(f"flip-so-odd5 degree-{n} on S", want, gc5.count(n, "S")))
    return checks


def e7_pairs() -> list[dict]:
    """Criterion 5: the 56-dimensional example, its standard pairs and the
    straightening of x5 y5."""
    p = smt.e7_minuscule()
    comp, inc = smt.count_standard_pairs(p)
    e7 = smt.e7_gcm()
    r0 = cartan.Realization(e7, "E7@0")
    dim_g = cartan.weyl_dim(e7, r0.fundamental(6))     # the adjoint node in this numbering
    dim2 = cartan.weyl_dim(e7, r0.fundamental(0).scale(2))
    checks = [
        _check("poset size", 56, len(p)),
        _check("comparable pairs", dim2, comp),
        _check("incomparable pairs", dim_g, inc),
        _check("pair oracle dimensions", (1463, 133), (dim2, dim_g)),
        _check("S^2 Z dimension", 56 * 57 // 2, comp + inc),
    ]
    sys_, xs, ys = smt.e7_system()
    nf = smt.straighten((xs[5], ys[5]), sys_)
    want = {sys_.sort_mono((xs[k], ys[k])): Q((-1) ** k) for k in range(5)}
    checks.append(_check("straighten(x5 y5) 5-term sum", want, nf))
    fixed = smt.straighten((xs[0], ys[0]), sys_)
    checks.append(_check("x0 y0 standard (fixed point)",
                         {sys_.sort_mono((xs[0], ys[0])): Q(1)}, fixed))
    return checks


def prop47() -> list[dict]:
    """Criterion 6 (Prop. 4.7): the codimension-one structure in restricted
    type A, l = 1, 2, 3."""
    checks = []
    for n in (2, 3, 4):
        case = involutions.AmbientCase(f"flip-sl{n}")
        rep = smt.finite_case_structure(case)
        for key in ("tau_action_ok", "tier_down_is_all_but_max", "tier_sizes_ok",
                    "ambient_grading_ok", "ambient_down_is_all_but_max",
                    "ambient_F0_matches_dims"):
            checks.append(_check(f"flip-sl{n} {key}", True, rep[key]))
    return checks


# (family, degree, literal total or None, literal multidegrees or None or
# "dims", which checks each against `AmbientCase.dim_eps_sum`), in row order
_THM50_ROWS = (
    ("flip-sl2", 2, None, None),
    ("flip-sl2", 3, None, None),
    ("flip-sp4", 2, None, {"1+1": 100, "1+2": 256, "2+2": 196}),
    ("flip-sl2", 4, None, None),
    ("flip-sp4", 3, 4125, {"1+1+1": 400, "1+1+2": 1225, "1+2+2": 1600, "2+2+2": 900}),
    ("flip-sp4", 4, 21307, {"1+1+1+1": 1225, "1+1+1+2": 4096, "1+1+2+2": 6561,
                            "1+2+2+2": 6400, "2+2+2+2": 3025}),
    ("flip-sp6", 2, 40469, {"1+1": 441, "1+2": 4096, "1+3": 4900, "2+2": 8100,
                            "2+3": 15876, "3+3": 7056}),
    ("flip-so-odd5", 3, 25542, "dims"),
    ("sym-quadrics3", 3, 176, "dims"),
)


def thm50() -> list[dict]:
    """Criterion 7 (Thm 5.0): standard monomials from below and from above
    agree, and the lift carries one basis to the other (flip-sl2 to degree
    4, flip-sp4 to degree 4, flip-sp6 to degree 2; the type B adjoint case
    flip-so-odd5 and sym-quadrics3 at degree 3 against the Weyl dimension
    formula).  One case per family, so each family's tables are built once."""
    checks = []
    cases = {name: involutions.AmbientCase(name)
             for name in dict.fromkeys(row[0] for row in _THM50_ROWS)}
    for name, degree, total, multidegrees in _THM50_ROWS:
        case, row = cases[name], f"{name} deg {degree}"
        rep = smt.two_basis_counts(case, degree)
        totals = (rep["below_total"], rep["above_total"])
        checks.append(_check(f"{row} totals", *totals) if total is None
                      else _check(f"{row} totals", (total, total), totals))
        if multidegrees == "dims":
            multidegrees = {"+".join(map(str, idx)): case.dim_eps_sum(idx) for idx in
                            itertools.combinations_with_replacement(range(1, case.rank + 1),
                                                                    degree)}
        if multidegrees:
            checks.append(_check(f"{row} multidegrees", multidegrees,
                                 rep["below_by_multidegree"]))
        checks.append(_check(f"{row} lift", True,
                             rep["lift_preserves_standardness"] and rep["degree1_bijection"]))
    return checks


def prop33() -> list[dict]:
    """Criterion 8 (Prop. 3.3): egr <= n0 on the weights below tau_2, with
    equality only on the orbit of e_omega_0."""
    case = involutions.AmbientCase("flip-sp4")
    tier = case.tier
    n0 = extend.n0(tier)
    char = weyl.demazure_character(case.tau_lift(2), case.amb.e_omega0())
    orbit = weyl.orbit_bfs(tier.real, range(case.rank), tier.e_omega0(),
                           delta_cap=Q(8))
    bound_ok = True
    equality_ok = True
    seen_eq = 0
    for (coords, delta), _ in char.items():
        lam = cartan.WeightVec(case.amb.real.basis_id, coords, delta)
        s = case.split_to_tier(lam)
        nf = extend.split_normal_form(tier, s)
        g = extend.egr(tier, s)
        if g > n0:
            bound_ok = False
        in_Q = (all(c.denominator == 1 for c in nf.eps_coords)
                and nf.gamma.denominator == 1 and nf.delta.denominator == 1)
        if in_Q and g == n0:
            seen_eq += 1
            if (s.coords, s.delta) not in orbit:
                equality_ok = False
    return [_check("egr bounded by n0", True, bound_ok),
            _check("equality only on the orbit", True, equality_ok),
            _check("equality cases found", True, seen_eq > 0)]


def lemma39() -> list[dict]:
    """Criterion 9 (Lemma 3.9): the path tensor rule and dimension
    conservation in types C2 and A2."""
    checks = []
    for fam, rank in (("C", 2), ("A", 2)):
        gcm = cartan.build_cartan(cartan.FinTypeLabel(fam, rank))
        real = cartan.Realization(gcm, f"{fam}{rank}")
        eps = [real.fundamental(i) for i in range(rank)]
        for i in range(rank - 1):
            mult = lspath.tensor_multiplicity(eps[i], eps[0], eps[i + 1], gcm)
            checks.append(_check(f"{fam}{rank} mult eps_{i+2} in eps_1*eps_{i+1}", 1, mult))
        lam = mu = eps[0]
        total = 0
        for coords in itertools.product(range(4), repeat=rank):
            nu = real.weight([Q(c) for c in coords])
            m = lspath.tensor_multiplicity(lam, mu, nu, gcm)
            if m:
                total += m * cartan.weyl_dim(gcm, nu)
        product = cartan.weyl_dim(gcm, lam) * cartan.weyl_dim(gcm, mu)
        checks.append(_check(f"{fam}{rank} dimension conservation", product, total))
    return checks


def oracles(seed: int = 0, trials: int = 20) -> list[dict]:
    """Criterion 10: path counts against Demazure characters on random words,
    rho-path counts against the Weyl dimension formula, and the flip-sp6
    paths below tau_3 against the dimension sum and the Demazure character.
    A negative `trials` raises ValueError."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    rng = random.Random(seed)
    pool = [("A", 1), ("A", 2), ("C", 2), ("A", 3), ("B", 3), ("G", 2)]
    checks = []
    for t in range(trials):
        fam, rank = rng.choice(pool)
        gcm = cartan.build_cartan(cartan.FinTypeLabel(fam, rank))
        real = cartan.Realization(gcm, f"{fam}{rank}")
        coords = [rng.randint(0, 1) for _ in range(rank)]
        if not any(coords):
            coords[rng.randrange(rank)] = 1
        lam = real.weight([Q(c) for c in coords])
        word = weyl.WeylWord(real, [rng.randrange(rank)
                                    for _ in range(rng.randint(0, 6))])
        top = weyl.CosetRep(word, lspath.stabilizer_nodes(lam))
        n_paths = len(lspath.enumerate_paths(lam, top))
        n_dem = weyl.demazure_dim(word, lam)
        checks.append(_check(f"trial {t} {fam}{rank} {coords} paths=demazure",
                             n_dem, n_paths))
    for fam, rank in pool[:4]:
        gcm = cartan.build_cartan(cartan.FinTypeLabel(fam, rank))
        real = cartan.Realization(gcm, f"{fam}{rank}")
        lam = real.weight([Q(1)] * rank)
        w0 = weyl.longest_parabolic(real, range(rank))
        top = weyl.CosetRep(w0, lspath.stabilizer_nodes(lam))
        checks.append(_check(f"{fam}{rank} rho-paths = weyl_dim",
                             cartan.weyl_dim(gcm, lam),
                             len(lspath.enumerate_paths(lam, top))))
    sp6 = involutions.AmbientCase("flip-sp6")
    exp = smt.expected(sp6, 3, 1, "S")
    checks.append(_check("flip-sp6 degree-1 dimension sum below tau_3", 429, exp))
    checks.append(_check("flip-sp6 paths below tau_3", exp,
                         len(lspath.enumerate_paths(sp6.amb.e_omega0(), sp6.tau_coset(3)))))
    checks.append(_check("flip-sp6 demazure below tau_3", exp,
                         weyl.demazure_dim(sp6.tau_lift(3), sp6.amb.e_omega0())))
    return checks


def remark48() -> list[dict]:
    """Experiment, no acceptance criterion (Remark 4.8): tau(e_omega_0)
    against 3 e_omega_0 - e_eps_l in types B/C/BC, modulo delta."""
    checks = []
    for fam, rank in (("C", 2), ("B", 2), ("BC", 2), ("C", 3)):
        rep = smt.remark48_report(cartan.FinTypeLabel(fam, rank))
        checks.append(_check(f"{fam}{rank} agrees mod delta", True,
                             rep["agrees_mod_delta"]))
    return checks


SUITES = {
    "remark23": remark23,
    "prop5": prop5,
    "lemma34": lemma34,
    "thm37": thm37,
    "e7-pairs": e7_pairs,
    "prop47": prop47,
    "thm50": thm50,
    "prop33": prop33,
    "lemma39": lemma39,
    "oracles": oracles,
    "remark48": remark48,
}
