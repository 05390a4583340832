"""Command-line front door: stable JSON (default) or TSV output.

Subcommands mirror the library modules; `verify` runs named check suites
and exits nonzero when any check fails.  Rationals are printed as "p/q";
maps are serialized with sorted keys so identical invocations give
identical output apart from `elapsed_ms`.  SMT_KIT_CAP overrides
enumeration caps and --seed fixes the randomized property sampling.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import cartan, extend, involutions, lspath, quadlat, smt, weyl

Q = Fraction


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _tsv(checks) -> str:
    lines = ["name\tpass\texpected\tactual"]
    for c in checks:
        lines.append(f"{c['name']}\t{c['pass']}\t{c['expected']}\t{c['actual']}")
    return "\n".join(lines)


def _report(command, inputs, outputs, checks, t0):
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "checks": checks,
        "elapsed_ms": int((time.time() - t0) * 1000),
    }


def _check(name, expected, actual):
    return {"name": name, "pass": expected == actual,
            "expected": repr(expected), "actual": repr(actual)}


# ---------------------------------------------------------------------------
# verify suites (the executable acceptance criteria)


def verify_remark23(args) -> list[dict]:
    rows = [("A", "C{l+1}"), ("B", "A{2l}^(2)"), ("C", "C{l}^(1)"),
            ("D", "A{2l-1}^(2)"), ("BC", "A{2l}^(2)")]
    lo = {"A": 1, "B": 1, "C": 2, "D": 2, "BC": 1}
    checks = []
    for fam, pattern in rows:
        for l in range(lo[fam], 5):
            datum = extend.extend_restricted(cartan.FinTypeLabel(fam, l))
            want = pattern.replace("{l+1}", str(l + 1)).replace("{2l-1}", str(2 * l - 1)) \
                          .replace("{2l}", str(2 * l)).replace("{l}", str(l))
            got = cartan.identify_label(datum.extended)
            checks.append(_check(f"{fam}{l}->{want}", want, got))
            name = want if "^" in want else None
            if name:
                table = cartan.build_affine_cartan(name)
                checks.append(_check(f"{fam}{l} matches stored {want}", True,
                                     cartan.gcm_equiv(table, datum.extended)))
    return checks


def _prop5_expected(fam: str, rank: int) -> dict[str, bool]:
    """Quadratic lattices of the classification (B_2 = C_2 carries both)."""
    if fam == "A":
        return {"P": True, "Q": True} if rank == 1 else {"P": True}
    if fam == "B":
        return {"P": rank <= 2, "Q": True}
    if fam == "C":
        return {"P": True, "Q": rank <= 2}
    if fam == "BC":
        return {"P=Q": True}
    return {}


def verify_prop5(args) -> list[dict]:
    bound = args.bound
    labels = ([("A", r) for r in range(1, args.max_rank + 1)]
              + [("B", r) for r in range(1, args.max_rank + 1)]
              + [("C", r) for r in range(2, args.max_rank + 1)]
              + [("BC", r) for r in range(1, args.max_rank + 1)]
              + ([("D", 4)] if args.max_rank >= 4 else [])
              + [("G", 2), ("F", 4)][: 2 if args.max_rank >= 2 else 0])
    checks = []
    for fam, rank in labels:
        label = cartan.FinTypeLabel(fam, rank)
        rows = quadlat.classify_quadratic(label, bound)
        got = {name: v for name, v, _ in rows}
        expected = dict(got)
        exp = _prop5_expected(fam, rank)
        for name in expected:
            expected[name] = exp.get(name, False)
        checks.append(_check(f"{fam}{rank}", expected, got))
        if fam in ("D", "G", "F"):
            has_cert = all("certificate" in r for _, v, r in rows if not v)
            checks.append(_check(f"{fam}{rank} negative certificates", True, has_cert))
            if (fam, rank) == ("D", 4):
                checks.append(_check("D4 lattice count", 5, len(rows)))
    return checks


def verify_lemma34(args) -> list[dict]:
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


def verify_thm37(args) -> list[dict]:
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
    exp_S2 = smt.expected(case, 2, 2, "S")
    checks.append(_check("degree-2 on S", exp_S2, gc.count(2, "S")))
    dem2 = weyl.demazure_dim(case.tau_lift(2), case.amb.e_omega0().scale(2))
    checks.append(_check("demazure oracle degree 2", exp_S2, dem2))
    doms = [p for p in gc.paths if lspath.is_G_dominant(p)]
    checks.append(_check("dominant paths are the straight tau-hat ones",
                         [(1, 0), (1, 1), (1, 2)],
                         sorted((len(p.dirs), lspath.d_degree(p)) for p in doms)))
    return checks


def verify_e7(args) -> list[dict]:
    p = smt.e7_minuscule()
    comp, inc = smt.count_standard_pairs(p)
    e7 = cartan.build_cartan(cartan.FinTypeLabel("E", 7))
    re7 = cartan.Realization(e7, "E7")
    dim_g = cartan.weyl_dim(e7, re7.fundamental(0))
    r0 = cartan.Realization(smt.e7_gcm(), "E7@0")
    dim2 = cartan.weyl_dim(smt.e7_gcm(), r0.fundamental(0).scale(2))
    checks = [
        _check("poset size", 56, len(p)),
        _check("comparable pairs", dim2, comp),
        _check("incomparable pairs", dim_g, inc),
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


def verify_prop47(args) -> list[dict]:
    checks = []
    for n in (2, 3, 4):
        case = involutions.AmbientCase(f"flip-sl{n}")
        rep = smt.finite_case_structure(case)
        for key in ("tau_action_ok", "tier_down_is_all_but_max", "tier_sizes_ok",
                    "ambient_grading_ok", "ambient_down_is_all_but_max",
                    "ambient_F0_matches_dims"):
            checks.append(_check(f"flip-sl{n} {key}", True, rep[key]))
    return checks


def verify_thm50(args) -> list[dict]:
    checks = []
    case = involutions.AmbientCase("flip-sl2")
    for deg in (2, 3):
        rep = smt.two_basis_counts(case, deg)
        checks.append(_check(f"flip-sl2 deg {deg} totals",
                             rep["below_total"], rep["above_total"]))
        checks.append(_check(f"flip-sl2 deg {deg} lift", True,
                             rep["lift_preserves_standardness"] and rep["degree1_bijection"]))
    rep = smt.two_basis_counts(involutions.AmbientCase("flip-sp4"), 2)
    checks.append(_check("flip-sp4 deg 2 totals", rep["below_total"], rep["above_total"]))
    checks.append(_check("flip-sp4 deg 2 multidegrees",
                         {"1+1": 100, "1+2": 256, "2+2": 196},
                         rep["below_by_multidegree"]))
    checks.append(_check("flip-sp4 deg 2 lift", True,
                         rep["lift_preserves_standardness"] and rep["degree1_bijection"]))
    return checks


def verify_prop33(args) -> list[dict]:
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


def verify_lemma39(args) -> list[dict]:
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


def verify_oracles(args) -> list[dict]:
    rng = random.Random(args.seed)
    pool = [("A", 1), ("A", 2), ("C", 2), ("A", 3), ("B", 3), ("G", 2)]
    checks = []
    for t in range(args.trials):
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
    return checks


def verify_remark48(args) -> list[dict]:
    checks = []
    for fam, rank in (("C", 2), ("B", 2), ("BC", 2), ("C", 3)):
        rep = smt.remark48_report(cartan.FinTypeLabel(fam, rank))
        checks.append(_check(f"{fam}{rank} agrees mod delta", True,
                             rep["agrees_mod_delta"]))
    return checks


VERIFY_SUITES = {
    "remark23": verify_remark23,
    "prop5": verify_prop5,
    "lemma34": verify_lemma34,
    "thm37": verify_thm37,
    "e7-pairs": verify_e7,
    "prop47": verify_prop47,
    "thm50": verify_thm50,
    "prop33": verify_prop33,
    "lemma39": verify_lemma39,
    "oracles": verify_oracles,
    "remark48": verify_remark48,
}


# ---------------------------------------------------------------------------
# plain subcommands


def cmd_cartan(args, t0):
    label = cartan.FinTypeLabel.parse(args.type)
    gcm = cartan.build_cartan(label)
    out = {"gcm": gcm.to_json(), "classify": cartan.classify(gcm)}
    d = cartan.symmetrizer(gcm)
    out["symmetrizer"] = [str(x) for x in d] if d else None
    if args.dim:
        real = cartan.Realization(gcm, str(label))
        lam = real.weight([Q(c) for c in args.dim.split(",")])
        out["weyl_dim"] = cartan.weyl_dim(gcm, lam)
    return _report("cartan", {"type": args.type, "dim": args.dim}, out, [], t0)


def cmd_quadlat(args, t0):
    label = cartan.FinTypeLabel(args.type, args.rank)
    res = quadlat.classify_quadratic(label, args.bound)
    out = [{"lattice": name, "quadratic": v, "report": r} for name, v, r in res]
    return _report("quadlat classify", {"type": args.type, "rank": args.rank,
                                        "bound": args.bound}, out, [], t0)


def cmd_extend(args, t0):
    datum = extend.extend_restricted(cartan.FinTypeLabel(args.restricted, args.rank))
    out = {"extended": datum.extended.to_json(),
           "label": cartan.identify_label(datum.extended),
           "classification": datum.classification,
           "symmetrizer": [str(x) for x in cartan.symmetrizer(datum.extended)],
           "n0": str(extend.n0(datum))}
    return _report("extend", {"restricted": args.restricted, "rank": args.rank},
                   out, [], t0)


def cmd_weyl_tauhat(args, t0):
    datum = extend.extend_restricted(cartan.FinTypeLabel(args.restricted, args.rank))
    th = weyl.tau_hat(args.m, datum)
    out = {"word": list(th.reduce()),
           "action_on_e_omega0": th.act(datum.e_omega0()).to_json()}
    return _report("weyl tau-hat", {"restricted": args.restricted,
                                    "rank": args.rank, "m": args.m}, out, [], t0)


def cmd_weyl_demazure(args, t0):
    with open(args.gcm) as fh:
        gcm = cartan.GCM.from_json(json.load(fh))
    real = cartan.Realization.standard(gcm, "cli")
    letters = [int(x) for x in args.word.split(",")] if args.word else []
    lam = real.weight([Q(c) for c in args.weight.split(",")], Q(args.delta))
    char = weyl.demazure_character(weyl.WeylWord(real, letters), lam)
    out = {"total": sum(char.values()),
           "weights": sorted([[str(c) for c in coords] + [str(d), m]
                              for (coords, d), m in char.items()])}
    return _report("weyl demazure", {"gcm": args.gcm, "word": args.word,
                                     "weight": args.weight}, out, [], t0)


def cmd_lspath(args, t0):
    case = involutions.AmbientCase(args.case)
    m = int(str(args.top).lower().lstrip("tau").lstrip("_") or 0)
    gc = smt.GradedCounts(case, m)
    out = {"count": gc.count(args.degree, args.locus),
           "degree_split": {str(k): v for k, v in sorted(gc.degree_split().items())}}
    if args.paths:
        out["paths"] = [p.to_json() for p in gc.pool(args.locus)]
    return _report("lspath enumerate", {"case": args.case, "top": args.top,
                                        "degree": args.degree}, out, [], t0)


def cmd_smt_straighten(args, t0):
    if args.system == "e7":
        sys_, xs, ys = smt.e7_system()
        names = {f"x{k}": xs[k] for k in range(6)}
        names.update({f"y{k}": ys[k] for k in range(6)})
        terms = args.monomial.split(",")
        unknown = [t for t in terms if t not in names]
        if unknown:
            raise ValueError(f"unknown e7 generator(s) {', '.join(unknown)};"
                             " valid: x0..x5, y0..y5")
        mono = tuple(names[t] for t in terms)
        nf = smt.straighten(mono, sys_)
        rev = {v: k for k, v in names.items()}
        out = [{"coef": str(c),
                "mono": [rev.get(g, f"g{g}") for g in m]} for m, c in sorted(nf.items())]
        return _report("smt straighten", {"system": "e7", "monomial": args.monomial},
                       out, [], t0)
    with open(args.system) as fh:
        data = json.load(fh)
    ids = [g["id"] for g in data["generators"]]
    grade = {g["id"]: g.get("grade", 1) for g in data["generators"]}
    closure = _order_closure(ids, {(a, b) for a, b in data["order"]})
    leq = lambda a, b: a == b or (a, b) in closure
    relations = {tuple(r["pair"]): [(Q(t["coef"]), tuple(t["mono"]))
                                    for t in r["rhs"]] for r in data["relations"]}
    terms = args.monomial.split(",")
    unknown = [t for t in terms if t not in grade]
    if unknown:
        raise ValueError(f"unknown generator(s) {', '.join(unknown)};"
                         f" valid: {', '.join(map(str, ids))}")
    sys_ = smt.StraighteningSystem(ids, leq, grade, relations)
    nf = smt.straighten(tuple(terms), sys_)
    out = [{"coef": str(c), "mono": list(m)} for m, c in sorted(nf.items())]
    return _report("smt straighten", {"system": args.system,
                                      "monomial": args.monomial}, out, [], t0)


def _order_closure(ids, pairs):
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


def cmd_inv(args, t0):
    rec = involutions.lookup(args.name)
    out = rec.to_json()
    out["quadratic"] = involutions.quadratic_verdict(rec, bound=8)
    return _report("inv lookup", {"name": args.name}, out, [], t0)


def cmd_verify(args, t0):
    names = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        for c in VERIFY_SUITES[name](args):
            c["name"] = f"{name}: {c['name']}"
            checks.append(c)
    return _report(f"verify {args.suite}", {"suite": args.suite}, {}, checks, t0)


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tsv", action="store_true", help="TSV check output")
    common.add_argument("--seed", type=int, default=0)
    parser = argparse.ArgumentParser(prog="smt-kit", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("cartan")
    p.add_argument("type")
    p.add_argument("--dim", help="comma-separated dominant coordinates")
    p.set_defaults(func=cmd_cartan)

    p = add_parser("quadlat")
    p.add_argument("action", choices=["classify"])
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--bound", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_quadlat)

    p = add_parser("extend")
    p.add_argument("--restricted", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=cmd_extend)

    p = add_parser("weyl")
    ws = p.add_subparsers(dest="weyl_command", required=True)
    pt = ws.add_parser("tau-hat", parents=[common])
    pt.add_argument("--restricted", required=True)
    pt.add_argument("--rank", type=int, required=True)
    pt.add_argument("--m", type=int, required=True)
    pt.set_defaults(func=cmd_weyl_tauhat)
    pd = ws.add_parser("demazure", parents=[common])
    pd.add_argument("--gcm", required=True, help="GCM JSON file")
    pd.add_argument("--word", default="")
    pd.add_argument("--weight", required=True)
    pd.add_argument("--delta", default="0")
    pd.set_defaults(func=cmd_weyl_demazure)

    p = add_parser("lspath")
    p.add_argument("action", choices=["enumerate"])
    p.add_argument("--case", default="flip-sp4")
    p.add_argument("--top", default="tau2", help="tau_m by index, e.g. tau2 or 2")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--locus", choices=["S", "R"], default="S")
    p.add_argument("--paths", action="store_true")
    p.set_defaults(func=cmd_lspath)

    p = add_parser("smt")
    ss = p.add_subparsers(dest="smt_command", required=True)
    pstr = ss.add_parser("straighten", parents=[common])
    pstr.add_argument("--system", required=True, help="'e7' or relation JSON file")
    pstr.add_argument("--monomial", required=True)
    pstr.set_defaults(func=cmd_smt_straighten)

    p = add_parser("inv")
    p.add_argument("action", choices=["lookup"])
    p.add_argument("name")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_inv)

    p = add_parser("verify")
    p.add_argument("suite", choices=["all"] + sorted(VERIFY_SUITES))
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--bound", type=int, default=12)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        report = args.func(args, t0)
    except (ValueError, KeyError, OSError) as exc:
        print(_dump({"error": str(exc)}))
        return 1
    if args.tsv and report["checks"]:
        print(_tsv(report["checks"]))
    else:
        print(_dump(report))
    return 0 if all(c["pass"] for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
