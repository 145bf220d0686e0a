"""The library holds only what the program runs.

Every top-level function and class of ``src/masko`` must be referred to by
the package itself or by the benchmark under ``perfbench/``.  Code that only
tests call belongs with the tests (``tests/oracles.py``), not in the library.
"""

import ast
from pathlib import Path

import masko

PACKAGE = Path(masko.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def referenced_names(tree: ast.AST) -> set[str]:
    """Names a module reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_library_definition_has_a_caller_in_the_program():
    program = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    assert any(path.parent == PERFBENCH for path in program), PERFBENCH
    trees = {path: ast.parse(path.read_text(), str(path)) for path in program}
    used = set().union(*map(referenced_names, trees.values()))
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert not unused, unused
