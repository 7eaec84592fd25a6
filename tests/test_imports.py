"""No module of the package or of ``scripts/`` imports a name it never uses.

A fold that moves a call out of a module leaves its import behind; this
test finds such imports by reading each file's syntax tree (stdlib ``ast``
only).  A name counts as used when it appears as a name anywhere in the
module outside the import statements, including annotations and the roots
of attribute chains; ``from __future__`` imports are exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "kmsbounds").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


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
