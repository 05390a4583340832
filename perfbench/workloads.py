"""The benchmark's three workloads, each a seeded list of oracle-checked tasks.

`build(name, seed, quick)` runs in the set-up phase: it builds the GCM
tables, the `AmbientCase` objects and the task list from the seed alone.
Each task is a closure returning ``(answer, checks)``: ``answer`` is the
task's canonical result (counts, verdicts, lengths, multiplicities; never a
reduced word or a coset representative, which a correct kernel change may
alter) and ``checks`` is a list of ``(name, passed)`` pairs, each comparing
a library result with an independent oracle (dimension sums, the Demazure
character, the Weyl dimension formula, a literal expectation).

`quick=True` gives the reduced sizes the self-test uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable

from smt_kit import cartan as C
from smt_kit import extend as X
from smt_kit import involutions as I
from smt_kit import lspath as L
from smt_kit import quadlat as QL
from smt_kit import smt as S
from smt_kit import weyl as W


@dataclass
class Task:
    name: str
    run: Callable[[], tuple[object, list[tuple[str, bool]]]]


def _part(name: str, steps: list[tuple[str, Callable]]) -> Task:
    """One task running the steps in order; the flip and lattice workloads
    have too few tasks for latency percentiles, so each of their two parts is
    one task and every part is a long measurement."""
    def run():
        answers, checks = {}, []
        for step, fn in steps:
            answers[step], step_checks = fn()
            checks += [(f"{step}: {check}", ok) for check, ok in step_checks]
        return answers, checks
    return Task(name, run)


# ---------------------------------------------------------------------------
# flip-grassmannians: one Realization per case, reused by every step


def flip_grassmannians(seed: int, quick: bool) -> list[Task]:
    m, degrees = (1, (2, 3)) if quick else (2, (2, 3, 4, 5))
    sp4 = I.AmbientCase("flip-sp4")
    sl2 = I.AmbientCase("flip-sl2")
    state: dict = {}

    def enumerate_below_tau():
        gc = state["gc"] = S.GradedCounts(sp4, m)
        n = len(gc.paths)
        return n, [("paths = degree-1 dimension sum", n == S.expected(sp4, m, 1, "S"))]

    def degree_split():
        split = state["gc"].degree_split()
        want = {i: sp4.dim_eps_sum([i]) if i else 1 for i in range(m + 1)}
        return sorted(split.items()), [("degree split = dimensions", split == want)]

    def count_r2():
        got = state["gc"].count(2, "R")
        return got, [("degree-2 on R = dimension sum", got == S.expected(sp4, m, 2, "R"))]

    def demazure(n):
        def run():
            got = W.demazure_dim(sp4.tau_lift(m), sp4.amb.e_omega0().scale(n))
            return got, [(f"Demazure degree {n} = dimension sum",
                          got == S.expected(sp4, m, n, "S"))]
        return run

    def grading_bound():
        tier = sp4.tier
        n0 = X.n0(tier)
        char = W.demazure_character(sp4.tau_lift(m), sp4.amb.e_omega0())
        orbit = W.orbit_bfs(tier.real, range(sp4.rank), tier.e_omega0(), delta_cap=Q(8))
        bound_ok = equality_ok = True
        seen_eq = 0
        for (coords, delta), _mult in char.items():
            s = sp4.split_to_tier(C.WeightVec(sp4.amb.real.basis_id, coords, delta))
            nf = X.split_normal_form(tier, s)
            g = X.egr(tier, s)
            bound_ok = bound_ok and g <= n0
            in_lattice = (all(c.denominator == 1 for c in nf.eps_coords)
                          and nf.gamma.denominator == 1 and nf.delta.denominator == 1)
            if in_lattice and g == n0:
                seen_eq += 1
                equality_ok = equality_ok and (s.coords, s.delta) in orbit
        answer = [len(char), sorted(char.values()), seen_eq]
        return answer, [("egr <= n0", bound_ok), ("equality only on the orbit", equality_ok),
                        ("equality cases found", seen_eq > 0)]

    def two_bases(degree):
        def run():
            rep = S.two_basis_counts(sl2, degree)
            answer = [rep["below_total"], rep["above_total"],
                      sorted(rep["below_by_multidegree"].items())]
            return answer, [
                ("below = above", rep["totals_agree"]),
                ("degree-1 lift is a bijection", rep["degree1_bijection"]),
                ("lift preserves standardness", rep["lift_preserves_standardness"]),
                ("below = dimension sum", rep["below_total"] == S.expected(sl2, 1, degree, "R")),
            ]
        return run

    rng = random.Random(seed)
    sp4_units = [[(f"enumerate below tau_{m}", enumerate_below_tau),
                  ("degree split", degree_split), ("degree-2 count on R", count_r2)],
                 [("Demazure degree 1", demazure(1))], [("Demazure degree 2", demazure(2))],
                 [("grading bound", grading_bound)]]
    rng.shuffle(sp4_units)      # independent units; a unit's own steps share state
    sl2_steps = [(f"two bases degree {d}", two_bases(d)) for d in degrees]
    rng.shuffle(sl2_steps)
    parts = [_part("flip-sp4", [step for unit in sp4_units for step in unit]),
             _part("flip-sl2", sl2_steps)]
    rng.shuffle(parts)
    return parts


# ---------------------------------------------------------------------------
# random-words: many small problems, each on a freshly built Realization

FINITE = ("A1", "A2", "A3", "B3", "C2", "G2")
AFFINE = ("C2^(1)", "A3^(2)", "A4^(2)")
RESTRICTED = ("A2", "C2")
INDEFINITE = ((2, -3), (-3, 2))
RHO = ("A1", "A2", "C2", "G2")     # rank <= 2: larger rho models cost seconds
ORDER_MAX_LEN = 10
COHERENCE_MAX_LEN = {"finite": 6, "affine": 5}


def _gcm_table() -> dict[str, tuple[str, object]]:
    """name -> (kind, GCM); a restricted tier keeps its label, its GCM is
    built by `extend_restricted` inside each task."""
    table: dict[str, tuple[str, object]] = {}
    for name in FINITE:
        table[name] = ("finite", C.build_cartan(C.FinTypeLabel.parse(name)))
    for name in AFFINE:
        table[name] = ("affine", C.build_affine_cartan(name))
    for name in RESTRICTED:
        table[f"tier({name})"] = ("restricted", C.FinTypeLabel.parse(name))
    table["hyperbolic(3,3)"] = ("indefinite", C.GCM(INDEFINITE))
    return table


def _rank(kind: str, gcm) -> int:
    return gcm.rank + 1 if kind == "restricted" else gcm.n


def _realization(name: str, kind: str, gcm, live: list) -> C.Realization:
    """A fresh Realization, so every task starts with cold caches.

    It stays in `live` until the pass ends.  `weyl._reduce_cache` is keyed
    by `id(realization)` and never evicted, so a Realization freed mid-pass
    lets a later one reuse its id and read its stale reductions: without
    `live` the rho tasks returned wrong path counts in about one pass in
    eight.  Holding the references keeps each task's cache cold under an
    id of its own, as this workload intends.
    """
    if kind == "restricted":
        real = X.extend_restricted(gcm).real
    elif kind == "finite":
        real = C.Realization(gcm, name)
    else:
        real = C.Realization.standard(gcm, name)
    live.append(real)
    return real


def _order_task(live, name, kind, gcm, u_letters, v_letters) -> Callable:
    def run():
        real = _realization(name, kind, gcm, live)
        u, v = W.WeylWord(real, u_letters), W.WeylWord(real, v_letters)
        lu, lv = u.length(), v.length()
        uv, vu = W.bruhat_leq(u, v), W.bruhat_leq(v, u)
        same = u == v
        checks = [
            ("reflexive", W.bruhat_leq(u, u)),
            ("lengths bounded by the words, same parity",
             lu <= len(u_letters) and lv <= len(v_letters)
             and (len(u_letters) - lu) % 2 == 0 and (len(v_letters) - lv) % 2 == 0),
            ("antisymmetric", not (uv and vu) or same),
            ("length monotone", (not uv or lu < lv or same) and (not vu or lv < lu or same)),
        ]
        return [lu, lv, uv, vu, same], checks
    return run


def _coherence_task(live, name, kind, gcm, coords, letters) -> Callable:
    def run():
        real = _realization(name, kind, gcm, live)
        lam = real.weight([Q(c) for c in coords])
        word = W.WeylWord(real, letters)
        n_paths = len(L.enumerate_paths(lam, W.CosetRep(word, L.stabilizer_nodes(lam))))
        n_dem = W.demazure_dim(word, lam)
        return [word.length(), n_paths], [("paths = Demazure dimension", n_paths == n_dem)]
    return run


def _rho_task(live, name, kind, gcm) -> Callable:
    def run():
        real = _realization(name, kind, gcm, live)
        rho = real.rho()
        top = W.CosetRep(W.longest_parabolic(real, range(real.n)), L.stabilizer_nodes(rho))
        n_paths = len(L.enumerate_paths(rho, top))
        return n_paths, [("rho paths = Weyl dimension", n_paths == C.weyl_dim(gcm, rho))]
    return run


def random_words(seed: int, quick: bool) -> list[Task]:
    rng = random.Random(seed)
    table = _gcm_table()
    live: list[C.Realization] = []
    schedule = ([("order", name) for name in table]
                + [("coherence", name) for name in FINITE + AFFINE]
                + [("rho", name) for name in RHO])
    n_tasks = (2 if quick else 8) * len(schedule)
    tasks = []
    for k in range(n_tasks):
        if k % len(schedule) == 0:
            rng.shuffle(schedule)
        ttype, name = schedule[k % len(schedule)]
        kind, gcm = table[name]
        n = _rank(kind, gcm)

        def word(max_len):
            return tuple(rng.randrange(n) for _ in range(rng.randint(0, max_len)))

        if ttype == "order":
            run = _order_task(live, name, kind, gcm, word(ORDER_MAX_LEN), word(ORDER_MAX_LEN))
        elif ttype == "coherence":
            coords = [rng.randint(0, 1) for _ in range(n)]
            if not any(coords):
                coords[rng.randrange(n)] = 1
            run = _coherence_task(live, name, kind, gcm, coords, word(COHERENCE_MAX_LEN[kind]))
        else:
            run = _rho_task(live, name, kind, gcm)
        tasks.append(Task(f"{ttype} {name} #{k}", run))
    return tasks


# ---------------------------------------------------------------------------
# lattices-e7: exact Fraction linear algebra, no Weyl words


def _criterion2_verdicts(fam: str, rank: int) -> dict[str, bool]:
    """The literal quadratic verdicts of the classification (B2 = C2 has both)."""
    if (fam, rank) in (("A", 1), ("B", 1), ("B", 2), ("C", 2)):
        return {"P": True, "Q": True}
    if fam == "BC":
        return {"P=Q": True}
    if fam == "A":
        return {"P": True, "Q": False, **({"index-2": False} if rank == 3 else {})}
    if fam == "B":
        return {"P": False, "Q": True}
    if fam == "C":
        return {"P": True, "Q": False}
    if fam == "D":
        return {"P": False, "index-2": False, "Q": False}
    return {"P=Q": False}                 # G2, F4


def _classify_task(fam: str, rank: int, bound: int) -> Callable:
    def run():
        rows = QL.classify_quadratic(C.FinTypeLabel(fam, rank), bound)
        got = {name: verdict for name, verdict, _ in rows}
        checks = [("verdicts", got == _criterion2_verdicts(fam, rank))]
        if fam in ("D", "G", "F"):
            checks.append(("negative verdicts carry certificates",
                           all("certificate" in r for _, v, r in rows if not v)))
        if (fam, rank) == ("D", 4):
            checks.append(("D4 has five lattices", len(rows) == 5))
        return [[name, verdict, len(r.get("basis", ()))] for name, verdict, r in rows], checks
    return run


def _e7_pairs():
    p = S.e7_minuscule()
    comp, inc = S.count_standard_pairs(p)
    e7 = C.build_cartan(C.FinTypeLabel("E", 7))
    dim_g = C.weyl_dim(e7, C.Realization(e7, "E7").fundamental(0))
    r0 = C.Realization(S.e7_gcm(), "E7@0")
    dim2 = C.weyl_dim(S.e7_gcm(), r0.fundamental(0).scale(2))
    return [len(p), comp, inc], [
        ("poset size 56", len(p) == 56),
        ("pairs = Weyl dimensions", (comp, inc) == (dim2, dim_g)),
        ("pairs = (1463, 133)", (comp, inc) == (1463, 133)),
    ]


def _e7_straighten():
    sys_, xs, ys = S.e7_system()
    nf = S.straighten((xs[5], ys[5]), sys_)
    want = {sys_.sort_mono((xs[k], ys[k])): Q((-1) ** k) for k in range(5)}
    fixed = S.straighten((xs[0], ys[0]), sys_)
    answer = [len(nf), sorted(str(c) for c in nf.values()), len(fixed)]
    return answer, [("x5 y5 straightens to the 5-term sum", nf == want),
                    ("x0 y0 is standard", fixed == {sys_.sort_mono((xs[0], ys[0])): Q(1)})]


def lattices_e7(seed: int, quick: bool) -> list[Task]:
    max_rank = 2 if quick else 4
    labels = [(fam, r) for fam in ("A", "B", "C", "BC") for r in range(1, max_rank + 1)
              if not (fam == "C" and r < 2)] + [("G", 2)]
    if not quick:
        labels += [("D", 4), ("F", 4)]
    rng = random.Random(seed)
    classify = [(f"classify {fam}{r}", _classify_task(fam, r, 12)) for fam, r in labels]
    rng.shuffle(classify)
    e7 = [("standard pairs", _e7_pairs), ("straighten", _e7_straighten)]
    rng.shuffle(e7)
    parts = [_part("lattices", classify), _part("E7", e7)]
    rng.shuffle(parts)
    return parts


BUILDERS = {
    "flip-grassmannians": flip_grassmannians,
    "random-words": random_words,
    "lattices-e7": lattices_e7,
}


def build(name: str, seed: int, quick: bool) -> list[Task]:
    return BUILDERS[name](seed, quick)
