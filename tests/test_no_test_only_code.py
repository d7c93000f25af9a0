"""The library keeps no test-only code.

Every module-level function, class and constant of src/hjbsparse, and every
method of its classes, must be referenced by src/ or perfbench/ somewhere
outside its own definition.  A helper that only tests call belongs in tests/
(as the oracles do).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
LIBRARY = sorted((ROOT / "src" / "hjbsparse").glob("*.py"))
USERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))


def definitions(tree: ast.Module):
    """(name, node) of each module-level function, class and constant and each method
    of a module-level class, node being its definition; dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield sub.name, sub


def statements(tree: ast.Module):
    """The top-level statements, a class split into its header and its body's statements,
    so that a method's own body can be left out of its uses without its class's."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from node.decorator_list + node.bases + node.keywords + node.body
        else:
            yield node


def identifiers(node: ast.AST) -> set[str]:
    """The names node's code reads: names, attributes, imported names, and strings that
    are (dotted) identifiers, since the tracer patches attributes by name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", sub.value):
            out.update(sub.value.split("."))
    return out


def test_every_library_name_has_a_library_or_benchmark_caller():
    trees = {path: ast.parse(path.read_text()) for path in USERS}
    uses = [(unit, identifiers(unit)) for tree in trees.values() for unit in statements(tree)]
    unused = []
    for path in LIBRARY:
        for name, node in definitions(trees[path]):
            own = {id(sub) for sub in ast.walk(node)}
            if not any(name in names for unit, names in uses if id(unit) not in own):
                unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert unused == []
