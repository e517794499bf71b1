"""Every module-level import and private name in the package is used.

No linter ships with the project, so this parses each module with ``ast``
and fails on a name a top-level import binds but the module never reads.
``__init__.py`` is exempt: its imports are the package's re-exports.  It
also fails on a module-level function, class or constant, public or
private, that nothing reads: no module of the package, of its tests, of
``perfbench/`` or of ``demos/``.  Dunder names are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "paradoxcert"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
READERS = TESTS + sorted((ROOT / "perfbench").glob("*.py")) + sorted(
    (ROOT / "demos").glob("*.py"))


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _module_names(node, params=frozenset()) -> set:
    """Every name under node, less those in the body of a function that
    binds them as a parameter: there the name is the parameter, not the
    module's. Defaults, annotations and decorators are outside the body."""
    if isinstance(node, ast.Name):
        return set() if node.id in params else {node.id}
    names = set()
    body, inner = (), params
    if isinstance(node, _FUNCTIONS):
        a = node.args
        body = node.body if isinstance(node.body, list) else [node.body]
        inner = params | {p.arg for p in (*a.posonlyargs, *a.args,
                                           *a.kwonlyargs, a.vararg, a.kwarg)
                          if p}
    for child in ast.iter_child_nodes(node):
        names |= _module_names(child, inner if child in body else params)
    return names


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    used = _module_names(tree)
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom fractions import Fraction\n"
              "x = math.pi\n")
    assert _unused_imports(source) == [(3, "os"), (4, "Fraction")]
    # a parameter of the imported name's name hides it in the body alone
    source = ("from dataclasses import field, replace, dataclass\n"
              "from math import tau, pi\n"
              "def f(field, *replace):\n    return field, replace\n"
              "g = lambda tau: tau\n"
              "@dataclass\ndef h(dataclass=pi):\n    return dataclass\n")
    assert _unused_imports(source) == [
        (1, "field"), (1, "replace"), (2, "tau")]


def _definitions(tree) -> list:
    """(line, name) of each module-level function, class or constant,
    dunder names excepted."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = getattr(stmt, "targets", None) or [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        out.extend((stmt.lineno, name) for name in names
                   if not name.startswith("__"))
    return out


def _names_read(tree) -> set:
    """Every name a module loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread_names(modules: dict, readers: list) -> list:
    """(module, line, name) of each definition in ``modules`` (name ->
    source) that no source in ``readers`` reads."""
    read = set().union(*(_names_read(ast.parse(src)) for src in readers))
    return sorted((mod, line, name) for mod, src in modules.items()
                  for line, name in _definitions(ast.parse(src))
                  if name not in read)


def test_every_module_level_private_name_is_read():
    # public names too: a name only perfbench or a demo reads is read
    modules = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    readers = list(modules.values()) + [p.read_text() for p in READERS]
    assert _unread_names(modules, readers) == []


def test_the_scan_finds_an_unread_private_name():
    source = ("_USED = 1\n_UNUSED, _ALSO = 2, 3\n__dunder__ = 4\n"
              "def _helper():\n    return _USED\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "class _Unread:\n    pass\n"
              "PUBLIC = 5\ndef exported():\n    pass\n")
    other = ("from mod import _helper, exported\nimport mod\n"
             "mod._recursive(3)\n")
    assert _unread_names({"mod": source}, [source, other]) == [
        ("mod", 2, "_ALSO"), ("mod", 2, "_UNUSED"), ("mod", 8, "_Unread"),
        ("mod", 10, "PUBLIC")]
