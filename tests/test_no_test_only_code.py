"""The library keeps no test-only code.

Every module-level function, class and constant of src/hjbsparse must be
referenced by src/ or perfbench/ somewhere outside its own definition.  A
helper that only tests call belongs in tests/ (as the oracles do).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
LIBRARY = sorted((ROOT / "src" / "hjbsparse").glob("*.py"))
USERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))


def definitions(tree: ast.Module):
    """(name, top-level node) of each module-level function, class and constant; dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


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
    # the identifiers of every top-level statement, so that a definition's own body is left out
    uses = [(path, top, identifiers(top)) for path, tree in trees.items() for top in tree.body]
    unused = [f"{path.relative_to(ROOT)}: {name}"
              for path in LIBRARY for name, node in definitions(trees[path])
              if not any(name in names for where, top, names in uses if not (where == path and top is node))]
    assert unused == []
