"""Command-line front door: stable JSON output, or TSV check rows from
`verify --tsv`.

Subcommands mirror the library modules, and each option lives on the one
parser that reads it.  `verify` runs the named check suites of
`smt_kit.criteria` and exits nonzero when any check fails or a suite yields
no checks; its --seed fixes the randomized property sampling.  Rationals
are printed as "p/q"; maps are serialized with sorted keys so identical
invocations give identical output apart from `elapsed_ms`, which `main`
adds to each report.  Every enumeration cap is in the one table
`caps.CAPS`; SMT_KIT_CAP, when set, is the cap of every coset interval,
and every subcommand refuses a value that is not a positive integer before
it runs.  A value that starts with a minus sign and is not a single number
needs `=` (`--dim=-1,2`): argparse reads `--dim -1,2` as a missing value
followed by an option and exits 2.
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys
import time
from fractions import Fraction

from . import caps, cartan, criteria, extend, involutions, quadlat, smt, weyl


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _tsv(checks) -> str:
    lines = ["name\tpass\texpected\tactual"]
    for c in checks:
        lines.append(f"{c['name']}\t{c['pass']}\t{c['expected']}\t{c['actual']}")
    return "\n".join(lines)


def _report(command, inputs, outputs, checks=()):
    """A command's report; `main` adds its `elapsed_ms`."""
    return {"command": command, "inputs": inputs, "outputs": outputs, "checks": list(checks)}


def _rational(text: str) -> Fraction:
    """A rational argument; a zero denominator is a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r}: zero denominator") from None


def _rationals(text: str) -> list[Fraction]:
    return [_rational(c) for c in text.split(",")]


def _json_file(path: str, shape: dict) -> dict:
    """The JSON object in a file.  `shape` is a type or a tuple of types,
    [the shape of every item] or {field: its shape}, every field required
    but those in _OPTIONAL_FIELDS; a ValueError names the first field that
    is missing or departs."""
    def misshapen(value, want, where):
        if not isinstance(value, type(want) if isinstance(want, (list, dict)) else want):
            return f"field {where[1:]!r} has the wrong shape" if where else "expected a JSON object"
        if isinstance(want, list):
            return next(filter(None, (misshapen(v, want[0], f"{where}[{i}]")
                                      for i, v in enumerate(value))), None)
        if isinstance(want, dict):
            for f, w in want.items():
                if f in value:
                    problem = misshapen(value[f], w, f"{where}.{f}")
                    if problem:
                        return problem
                elif f not in _OPTIONAL_FIELDS:
                    return f"missing field {(where + '.' + f)[1:]!r}"
        return None

    with open(path) as fh:
        data = json.load(fh)
    problem = misshapen(data, shape, "")
    if problem is not None:
        raise ValueError(f"{path}: {problem}")
    return data


_GCM_FILE = {"entries": [[int]], "nonreduced": [int]}
_SYSTEM_FILE = {"generators": [{"id": str, "grade": int}], "order": [[str]],
                "relations": [{"pair": [str], "rhs": [{"coef": (int, str), "mono": [str]}]}]}
_OPTIONAL_FIELDS = {"grade", "nonreduced"}


def cmd_cartan(args):
    label = cartan.FinTypeLabel.parse(args.type)
    gcm = cartan.build_cartan(label)
    out = {"gcm": gcm.to_json(), "classify": cartan.classify(gcm)}
    d = cartan.symmetrizer(gcm)
    out["symmetrizer"] = [str(x) for x in d] if d else None
    if args.dim:
        real = cartan.Realization(gcm, str(label))
        lam = real.weight(_rationals(args.dim))
        out["weyl_dim"] = cartan.weyl_dim(gcm, lam)
    return _report("cartan", {"type": args.type, "dim": args.dim}, out)


def cmd_quadlat(args):
    label = cartan.FinTypeLabel(args.type, args.rank)
    res = quadlat.classify_quadratic(label, args.bound)
    out = [{"lattice": name, "quadratic": v, "report": r} for name, v, r in res]
    return _report("quadlat classify", {"type": args.type, "rank": args.rank,
                                        "bound": args.bound}, out)


def cmd_extend(args):
    datum = extend.extend_restricted(cartan.FinTypeLabel(args.restricted, args.rank))
    out = {"extended": datum.extended.to_json(),
           "label": cartan.identify_label(datum.extended),
           "classification": datum.classification,
           "symmetrizer": [str(x) for x in cartan.symmetrizer(datum.extended)],
           "n0": str(extend.n0(datum))}
    return _report("extend", {"restricted": args.restricted, "rank": args.rank}, out)


def cmd_weyl_tauhat(args):
    datum = extend.extend_restricted(cartan.FinTypeLabel(args.restricted, args.rank))
    th = weyl.tau_hat(args.m, datum)
    out = {"word": list(th.reduce()),
           "action_on_e_omega0": th.act(datum.e_omega0()).to_json()}
    return _report("weyl tau-hat", {"restricted": args.restricted,
                                    "rank": args.rank, "m": args.m}, out)


def cmd_weyl_demazure(args):
    gcm = cartan.GCM.from_json(_json_file(args.gcm, _GCM_FILE))
    real = cartan.Realization.standard(gcm, "cli")
    letters = [int(x) for x in args.word.split(",")] if args.word else []
    bad = [i for i in letters if not 0 <= i < real.n]
    if bad:
        raise ValueError(f"--word letter(s) {', '.join(map(str, bad))}"
                         f" outside 0..{real.n - 1}")
    lam = real.weight(_rationals(args.weight), _rational(args.delta))
    char = weyl.demazure_character(weyl.WeylWord(real, letters), lam)
    out = {"total": sum(char.values()),
           "weights": sorted([[str(c) for c in coords] + [str(d), m]
                              for (coords, d), m in char.items()])}
    return _report("weyl demazure", {"gcm": args.gcm, "word": args.word,
                                     "weight": args.weight}, out)


def cmd_lspath(args):
    case = involutions.AmbientCase(args.case)
    top = re.fullmatch(r"(?:tau_?)?(-?[0-9]+)", args.top, re.IGNORECASE)
    if top is None:
        raise ValueError(f"--top {args.top!r}: expected tau<m>, tau_<m> or <m>,"
                         " m an integer")
    m = int(top.group(1))
    gc = smt.GradedCounts(case, m)
    out = {"count": gc.count(args.degree, args.locus),
           "degree_split": {str(k): v for k, v in sorted(gc.degree_split().items())}}
    if args.paths:
        out["paths"] = [p.to_json() for p in gc.pool(args.locus)]
    return _report("lspath enumerate", {"case": args.case, "top": args.top,
                                        "degree": args.degree}, out)


def cmd_smt_straighten(args):
    if args.system == "e7":
        sys_, xs, ys = smt.e7_system()
        gens = {f"{x}{k}": g for x, gs in (("x", xs), ("y", ys)) for k, g in enumerate(gs)}
        what, valid = "e7 generator(s)", "x0..x5, y0..y5"
    else:
        sys_ = _file_system(args.system)
        gens = {g: g for g in sys_.generators}
        what, valid = "generator(s)", ", ".join(sys_.generators)
    terms = args.monomial.split(",")
    unknown = [t for t in terms if t not in gens]
    if unknown:
        raise ValueError(f"unknown {what} {', '.join(unknown)}; valid: {valid}")
    nf = smt.straighten(tuple(gens[t] for t in terms), sys_)
    name = {g: t for t, g in gens.items()}
    out = [{"coef": str(c), "mono": [name.get(g, f"g{g}") for g in m]}
           for m, c in sorted(nf.items())]
    return _report("smt straighten", {"system": args.system,
                                      "monomial": args.monomial}, out)


def _file_system(path: str) -> smt.StraighteningSystem:
    """The straightening system of a relation JSON file (`_SYSTEM_FILE`)."""
    data = _json_file(path, _SYSTEM_FILE)
    grade = {g["id"]: g.get("grade", 1) for g in data["generators"]}
    _check_system_ids(path, data, grade)
    closure = _order_closure({(a, b) for a, b in data["order"]})
    relations = {tuple(r["pair"]): [(_rational(t["coef"]), tuple(t["mono"]))
                                    for t in r["rhs"]] for r in data["relations"]}
    return smt.StraighteningSystem([g["id"] for g in data["generators"]],
                                   lambda a, b: a == b or (a, b) in closure, grade, relations)


def _check_system_ids(path: str, data: dict, declared) -> None:
    """Refuse an `order` entry or relation `pair` that is not two ids, and
    an undeclared id in `order`, `pair` or `mono`, naming the field."""
    fields = [(f"order[{i}]", ids) for i, ids in enumerate(data["order"])]
    for i, rel in enumerate(data["relations"]):
        fields += [(f"relations[{i}].pair", rel["pair"])] + [
            (f"relations[{i}].rhs[{k}].mono", t["mono"]) for k, t in enumerate(rel["rhs"])]
    for where, ids in fields:
        if len(ids) != 2 and not where.endswith("mono"):
            raise ValueError(f"{path}: field {where!r} must hold two generator ids, not {len(ids)}")
        unknown = ", ".join(g for g in ids if g not in declared)
        if unknown:
            raise ValueError(f"{path}: field {where!r} names undeclared generator(s) {unknown}")


def _order_closure(pairs):
    """The transitive closure of a relation, through one element at a time."""
    closure = set(pairs)
    for k in {x for pair in pairs for x in pair}:
        closure |= {(a, d) for a, b in closure if b == k for c, d in closure if c == k}
    return closure


def cmd_inv(args):
    rec = involutions.lookup(args.name)
    out = rec.to_json()
    out["quadratic"] = involutions.quadratic_verdict(rec)
    return _report("inv lookup", {"name": args.name}, out)


def cmd_verify(args):
    names = list(criteria.SUITES) if args.suite == "all" else [args.suite]
    # options left unset keep the suite's own defaults
    options = {"bound": args.bound, "max_rank": args.max_rank,
               "trials": args.trials, "seed": args.seed}
    options = {k: v for k, v in options.items() if v is not None}
    checks = []
    for name in names:
        suite = criteria.SUITES[name]
        params = inspect.signature(suite).parameters
        rows = suite(**{k: v for k, v in options.items() if k in params})
        if not rows:
            raise ValueError(f"suite {name} produced no checks")
        checks += [dict(c, name=f"{name}: {c['name']}") for c in rows]
    return _report(f"verify {args.suite}", {"suite": args.suite}, {}, checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="smt-kit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cartan")
    p.add_argument("type")
    p.add_argument("--dim", help="comma-separated dominant coordinates")
    p.set_defaults(func=cmd_cartan)

    p = sub.add_parser("quadlat")
    p.add_argument("action", choices=["classify"])
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--bound", type=int)
    p.set_defaults(func=cmd_quadlat)

    p = sub.add_parser("extend")
    p.add_argument("--restricted", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("weyl")
    ws = p.add_subparsers(dest="weyl_command", required=True)
    pt = ws.add_parser("tau-hat")
    pt.add_argument("--restricted", required=True)
    pt.add_argument("--rank", type=int, required=True)
    pt.add_argument("--m", type=int, required=True)
    pt.set_defaults(func=cmd_weyl_tauhat)
    pd = ws.add_parser("demazure")
    pd.add_argument("--gcm", required=True, help="GCM JSON file")
    pd.add_argument("--word", default="")
    pd.add_argument("--weight", required=True)
    pd.add_argument("--delta", default="0")
    pd.set_defaults(func=cmd_weyl_demazure)

    p = sub.add_parser("lspath")
    p.add_argument("action", choices=["enumerate"])
    p.add_argument("--case", default="flip-sp4")
    p.add_argument("--top", default="tau2", help="tau_m by index, e.g. tau2 or 2")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--locus", choices=["S", "R"], default="S")
    p.add_argument("--paths", action="store_true")
    p.set_defaults(func=cmd_lspath)

    p = sub.add_parser("smt")
    ss = p.add_subparsers(dest="smt_command", required=True)
    pstr = ss.add_parser("straighten")
    pstr.add_argument("--system", required=True, help="'e7' or relation JSON file")
    pstr.add_argument("--monomial", required=True)
    pstr.set_defaults(func=cmd_smt_straighten)

    p = sub.add_parser("inv")
    p.add_argument("action", choices=["lookup"])
    p.add_argument("name")
    p.set_defaults(func=cmd_inv)

    p = sub.add_parser("verify")
    p.add_argument("suite", choices=["all"] + sorted(criteria.SUITES))
    p.add_argument("--max-rank", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tsv", action="store_true", help="TSV check output")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        caps.coset_interval_cap()
        report = args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(_dump({"error": str(msg)}))
        return 1
    report["elapsed_ms"] = int((time.time() - t0) * 1000)
    if getattr(args, "tsv", False) and report["checks"]:
        print(_tsv(report["checks"]))
    else:
        print(_dump(report))
    return 0 if all(c["pass"] for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
