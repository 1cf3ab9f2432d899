"""The package holds only code that respo itself runs.

Every top-level function and class in `src/respo` must be referenced in
code by some module of the package: as a name, as an attribute or in an
import.  A mention in a docstring or a comment does not count, and
neither does a reference from inside the definition itself.  Reference
implementations that only the tests call belong in `tests/oracles.py`.

Every defaulted parameter of a package function or method must be
passed by some call in `src` or `tests`, by keyword or by position: an
option that no caller sets is a branch that nothing runs.

No module of the package imports another module's `_private` name: a
name that another module needs is public in the module that defines it.

Every name in `respo.__all__` is an attribute of `respo`, so a removed
export cannot linger in the list.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "respo"
TESTS = Path(__file__).resolve().parent

#: Top-level names allowed without a reference from the package, and
#: `module.function(parameter)` knobs allowed without a caller.
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


def _defaulted(function: ast.FunctionDef, method: bool) -> dict[str, int | None]:
    """Each defaulted parameter of the function, with the index of the
    call argument that fills it when passed by position (None for a
    keyword-only one); a method's call arguments skip `self`."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    shift = 1 if method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in function.decorator_list
    ) else 0
    out: dict[str, int | None] = {
        a.arg: i - shift for i, a in enumerate(positional) if i >= first
    }
    out.update(
        (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    )
    return out


def _calls(tree: ast.AST) -> dict[str, list[tuple[int, frozenset[str] | None]]]:
    """Per called name (a function, a method or a class), each call's
    positional argument count and keyword names; None for the keywords of
    a call that unpacks `*args` or `**kwargs`, which may pass anything."""
    found: dict[str, list] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords)
        keywords = None if unpacks else frozenset(k.arg for k in node.keywords)
        found.setdefault(name, []).append((len(node.args), keywords))
    return found


def unpassed_defaults(package: Path = PACKAGE, callers: tuple[Path, ...] = (TESTS,)) -> list[str]:
    """`module.function(parameter)` for each defaulted parameter of a
    top-level function, or a method of a top-level class (`__init__`
    under the class name), that no call in the package or in the Python
    files under `callers` passes.  Calls are matched by name alone."""
    calls: dict[str, list] = {}
    for root in (package, *callers):
        for path in sorted(root.rglob("*.py")):
            for name, found in _calls(ast.parse(path.read_text(encoding="utf-8"))).items():
                calls.setdefault(name, []).extend(found)
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                functions = [
                    (node.name, node.name, f, True) if f.name == "__init__"
                    else (f.name, f"{node.name}.{f.name}", f, True)
                    for f in node.body if isinstance(f, ast.FunctionDef)
                ]
            elif isinstance(node, ast.FunctionDef):
                functions = [(node.name, node.name, node, False)]
            else:
                continue
            for called, label, function, method in functions:
                for param, index in _defaulted(function, method).items():
                    if not any(
                        keywords is None or param in keywords
                        or (index is not None and count > index)
                        for count, keywords in calls.get(called, ())
                    ):
                        out.append(f"{path.stem}.{label}({param})")
    return out


def private_imports(package: Path = PACKAGE) -> list[str]:
    """`importer: module.name` for each `_private` name that a module of
    the package imports from another of its modules, at any depth of its
    code; imports from outside the package do not count."""
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and not module.startswith(f"{package.name}."):
                continue
            module = module.rsplit(".", 1)[-1]
            out.extend(
                f"{path.stem}: {module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")
            )
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


def test_every_defaulted_parameter_is_passed_by_some_call():
    assert [name for name in unpassed_defaults() if name not in ALLOWED] == []


def test_the_knob_guard_sees_calls_that_pass_the_parameter(tmp_path):
    package, callers = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    callers.mkdir()
    (package / "a.py").write_text(
        '"""f(x, knob=2) in a docstring passes nothing."""\n'
        "def f(x, knob=1, *, flag=False, unset=None):\n    return x\n\n"
        "class C:\n    def __init__(self, y=0):\n        pass\n\n"
        "    def m(self, z=0, w=0):\n        pass\n\n"
        "g = f(1)\n",
        encoding="utf-8",
    )
    (callers / "test_a.py").write_text(
        "from pkg.a import C, f\n\n"
        "f(1, 2, flag=True)\nC(3).m(4)\n",
        encoding="utf-8",
    )
    assert unpassed_defaults(package, (callers,)) == ["a.f(unset)", "a.C.m(w)"]
    assert unpassed_defaults(package, ()) == [
        "a.f(knob)", "a.f(flag)", "a.f(unset)", "a.C(y)", "a.C.m(z)", "a.C.m(w)"]


def test_no_module_imports_another_modules_private_name():
    assert [name for name in private_imports() if name not in ALLOWED] == []


def test_every_exported_name_is_an_attribute_of_the_package():
    import respo

    assert [name for name in respo.__all__ if not hasattr(respo, name)] == []


def test_the_private_import_guard_sees_package_imports_only(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def _helper():\n    pass\n\ndef public():\n    pass\n", encoding="utf-8"
    )
    (package / "b.py").write_text(
        '"""from .a import _helper in a docstring imports nothing."""\n'
        "from __future__ import annotations\n"
        "from functools import _lru_cache_wrapper\n"
        "from .a import __doc__, _helper, public\n\n"
        "def later():\n    from pkg.a import _helper as h\n    return h\n",
        encoding="utf-8",
    )
    assert private_imports(package) == ["b: a._helper", "b: a._helper"]
