"""No module of the package or of ``scripts/`` imports a name it never uses,
and no private module-level name of the package goes unused.

A fold that moves a call out of a module leaves its import behind, or the
private helper that served it; these tests find both by reading each file's
syntax tree (stdlib ``ast`` only).  An imported name counts as used when it
appears as a name anywhere in the module outside the import statements,
including annotations and the roots of attribute chains; ``from __future__``
imports are exempt.  A private function, class or constant counts as used
when a name, attribute or import anywhere in the package refers to it
outside its own definition.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "kmsbounds").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(path: pathlib.Path) -> list:
    """(line, name) of each name that ``path`` imports and never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unused_private_names(paths: list) -> list:
    """(file name, name) of each private function, class or constant defined
    at the top level of one of ``paths`` that nothing in ``paths`` refers to
    outside its own definition."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    references = []  # (name, node) of every name, attribute and imported name
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, node))
            elif isinstance(node, ast.alias):
                references.append((node.name, node))
    unused = []
    for path, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = set(map(id, ast.walk(stmt)))
            # dunder names such as ``__all__`` are not private
            for name in (n for n in names if n.startswith("_") and not n.endswith("__")):
                if not any(ref == name and id(node) not in own for ref, node in references):
                    unused.append((path.name, name))
    return sorted(unused)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_finds_an_unused_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau as turn\n"
        "x: np.ndarray = os.sep\n"
    )
    assert unused_imports(path) == [(4, "pi"), (4, "turn")]


def test_no_unused_private_names():
    assert unused_private_names(PACKAGE) == []


def test_finds_an_unused_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n"
        "_SPARE: int = 4\n"
        "__all__ = []\n"
        "def _walk(n):\n"
        "    return _walk(n - 1) if n else 0\n"
        "def _kept():\n"
        "    return _LIMIT\n"
        "class _Used:\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import _kept\n"
        "from . import a\n"
        "x = _kept() + a._Used\n"
    )
    unused = unused_private_names(sorted(tmp_path.glob("*.py")))
    assert unused == [("a.py", "_SPARE"), ("a.py", "_walk")]
