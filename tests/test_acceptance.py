"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Each criterion is a suite of `smt_kit.criteria`, run at its defaults; the
same suites back `smt-kit verify`.  All comparisons are exact (integers and
rationals); the only tolerances are the wall-clock budgets.  Run with
`pytest -s` to see the lines.
"""

import time

from smt_kit import criteria

# criterion -> (title, suite, wall-clock budget in seconds)
CRITERIA = {
    1: ("extension table (5 rows, ranks <= 4)", "remark23", 1.0),
    2: ("quadratic-lattice classification", "prop5", 10.0),
    3: ("telescoping-word actions (finite and affine tiers)", "lemma34", 1.0),
    4: ("graded section counts below tau_2 (flip Sp(4))", "thm37", 300.0),
    5: ("56-dimensional example (pairs and straightening)", "e7-pairs", 30.0),
    6: ("codimension-one structure, restricted type A (l = 1,2,3)", "prop47", 5.0),
    7: ("standard monomials from below = from above", "thm50", 120.0),
    8: ("grading bound with equality only on the orbit", "prop33", 60.0),
    9: ("path tensor rule and dimension conservation", "lemma39", 30.0),
    10: ("Demazure / path-count / dimension coherence", "oracles", 120.0),
}


def run_criterion(number):
    title, suite, budget = CRITERIA[number]
    t0 = time.time()
    rows = criteria.SUITES[suite]()
    elapsed = time.time() - t0
    failed = [r["name"] for r in rows if not r["pass"]]
    ok = rows and not failed
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {title} "
            f"({elapsed:.2f}s / budget {budget}s)")
    print(line)
    assert ok, f"{line}; failing rows: {failed}"
    assert elapsed < budget, line


# One named test per criterion, so that each keeps its test id.
def test_criterion_1_extension_table():
    run_criterion(1)


def test_criterion_2_quadratic_classification():
    run_criterion(2)


def test_criterion_3_telescoping_words():
    run_criterion(3)


def test_criterion_4_graded_sections():
    run_criterion(4)


def test_criterion_5_e7_example():
    run_criterion(5)


def test_criterion_6_finite_structure():
    run_criterion(6)


def test_criterion_7_two_bases():
    run_criterion(7)


def test_criterion_8_grading_bound():
    run_criterion(8)


def test_criterion_9_tensor_rule():
    run_criterion(9)


def test_criterion_10_oracle_coherence():
    run_criterion(10)
