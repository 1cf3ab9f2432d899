"""The package holds only code that respo itself runs.

Every top-level function and class in `src/respo` must be referenced in
code by some module of the package: as a name, as an attribute or in an
import.  A mention in a docstring or a comment does not count, and
neither does a reference from inside the definition itself.  Reference
implementations that only the tests call belong in `tests/oracles.py`.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "respo"

#: Top-level names allowed without a reference from the package.
ALLOWED: frozenset[str] = frozenset()


def _references(node: ast.AST) -> Counter:
    """How often code under `node` refers to each name."""
    found: Counter = Counter()
    for current in ast.walk(node):
        if isinstance(current, ast.Name):
            found[current.id] += 1
        elif isinstance(current, ast.Attribute):
            found[current.attr] += 1
        elif isinstance(current, ast.alias):
            found[current.name.rsplit(".", 1)[-1]] += 1
    return found


def unreferenced(package: Path = PACKAGE) -> list[str]:
    """`module.name` for each top-level function or class of the package
    that no module references in code outside its own definition."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    everywhere: Counter = Counter()
    for tree in trees.values():
        everywhere += _references(tree)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and everywhere[node.name] == _references(node)[node.name]):
                out.append(f"{module}.{node.name}")
    return out


def test_every_top_level_name_is_referenced_by_the_package():
    assert [name for name in unreferenced() if name not in ALLOWED] == []


def test_the_guard_sees_code_references_only(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""helper is named here, in a docstring."""\n'
        "def helper():\n    return helper()\n\n"
        "def used():\n    pass\n\n"
        "class Imported:\n    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from .a import Imported\nimport a\n\nx = a.used\n", encoding="utf-8"
    )
    assert unreferenced(tmp_path) == ["a.helper"]
