"""Every public member of `smt_kit` has a caller outside the tests.

A public module-level function or class of `src/smt_kit`, or a public
method of such a class, must be named somewhere in `src/`, `demos/` or
`perfbench/`: as an AST `Name` or as the attribute of an AST `Attribute`
(its own `def` or `class` line does not count).  The members that
`perfbench/tracer.py` lists in `LAYERS` are exempt, since the benchmark's
tracer wraps them by name.  A member that only the tests reach belongs in
a `tests/*_reference.py` oracle, not in the library.

The check is lenient: it matches names, not bindings.  A dead member whose
name equals some live identifier (a method `pairing` beside a local
variable `pairing`, or `WeightVec.from_json` beside the `GCM.from_json`
that the CLI calls) passes.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smt_kit"

_spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                               ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def public_members() -> set[tuple[str, str]]:
    """(module, qualified name) of every public function, class and method."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            out.add((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                out |= {(path.stem, f"{node.name}.{item.name}") for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name[0] != "_"}
    return out


def referenced_names() -> set[str]:
    """Every Name and Attribute in the library, the demos and the benchmark."""
    names = set()
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_member_has_a_caller_outside_the_tests():
    members = public_members()
    # the scan sees the package: a few members every layer uses
    assert {("cartan", "Realization.image"), ("weyl", "bruhat_leq"),
            ("lspath", "ChainData"), ("cli", "main")} <= members
    pinned = {(module, qualname) for module, qualname, _ in tracer.LAYERS}
    used = referenced_names()
    dead = sorted(f"{module}.{qualname}" for module, qualname in members - pinned
                  if qualname.rpartition(".")[2] not in used)
    assert dead == []
