"""The library holds only what the program runs.

Every top-level function and class of ``src/masko``, and every top-level
name bound to a call (``add = _binary(...)``), must be referred to by the
package itself or by the benchmark under ``perfbench/``.  Code that only
tests call belongs with the tests (``tests/oracles.py``), not in the library.
"""

import ast
from pathlib import Path

import masko

PACKAGE = Path(masko.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def referenced_names(tree: ast.AST) -> set[str]:
    """Names a module reads, as a bare name, an attribute or an import.

    A name that is only assigned (``ast.Store``) is not read.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of a module's top-level functions, classes and names
    bound to a call."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            found += [(t.lineno, t.id) for t in node.targets if isinstance(t, ast.Name)]
    return found


def unused_definitions(extra_package_source: str = "") -> list[str]:
    """Package definitions nothing in the program reads, with
    ``extra_package_source`` parsed as one more package module."""
    program = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    assert any(path.parent == PERFBENCH for path in program), PERFBENCH
    trees = {path: ast.parse(path.read_text(), str(path)) for path in program}
    extra = PACKAGE / "extra.py"
    trees[extra] = ast.parse(extra_package_source, str(extra))
    used = set().union(*map(referenced_names, trees.values()))
    return [
        f"{path.name}:{line} {name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for line, name in definitions(tree)
        if name not in used
    ]


def test_every_library_definition_has_a_caller_in_the_program():
    unused = unused_definitions()
    assert not unused, unused


def test_an_unreferenced_name_bound_to_a_call_is_reported():
    # The assignment's own target is a Name too; only reads count as use.
    assert unused_definitions("pow_ = _binary(np.power, None, None)\n") == ["extra.py:1 pow_"]


def test_the_broadcasting_ops_are_guarded_as_definitions():
    names = {name for _, name in definitions(ast.parse((PACKAGE / "autodiff.py").read_text()))}
    assert {"add", "sub", "mul", "div"} <= names
