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


#: defaulted parameters that no call in the package or ``scripts/`` sets,
#: kept on purpose: (file name, function, parameter) -> reason
KEPT_DEFAULTS = {
    ("classical.py", "classical_kernel_bound_check", "site_field"):
        "the classical single-site weight, the paper's case with no assumption "
        "on the single-site part; tests compare it with a reference loop",
    ("cli.py", "main", "argv"): "the console-script entry point calls main()",
}


def _spread_keys(tree: ast.AST) -> set:
    """String keys, at any depth, of the dict literals assigned to a name that
    a ``**`` argument of some call reads."""
    spread = {
        node.id
        for call in ast.walk(tree) if isinstance(call, ast.Call)
        for kw in call.keywords if kw.arg is None
        for node in ast.walk(kw.value) if isinstance(node, ast.Name)
    }
    keys = set()
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in spread for t in stmt.targets
        ):
            for node in ast.walk(stmt.value):
                if isinstance(node, ast.Dict):
                    keys.update(k.value for k in node.keys
                                if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return keys


def _top_functions(tree: ast.Module):
    """(name called, function, positional params) of each function and method
    at the top level of ``tree``; a class's ``__init__`` is called by the class
    name, and a method's positional params leave out ``self`` or ``cls``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            members = [(stmt.name, stmt, False)]
        elif isinstance(stmt, ast.ClassDef):
            members = [(stmt.name if node.name == "__init__" else node.name, node, True)
                       for node in stmt.body if isinstance(node, ast.FunctionDef)]
        else:
            continue
        for called, fn, method in members:
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            yield called, fn, positional[1:] if method and not static else positional


def _defaulted(fn: ast.FunctionDef, positional: list) -> list:
    args = fn.args
    kwonly = [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional[len(positional) - len(args.defaults):] * bool(args.defaults) + kwonly


def unset_defaults(package: list, callers: list) -> list:
    """(file name, function, parameter) of each defaulted parameter of a
    function or method defined at the top level of one of ``package`` (a
    class's ``__init__`` under the class name) that no call in ``callers``
    sets.

    A call by name or attribute sets the parameters of the functions of that
    name that it passes by keyword or by position; a call of an unnamed
    callee (such as ``table[key](...)``) sets its keywords, and the string
    keys of the dicts it spreads with ``**``, on every function.  An argument
    that only forwards an unset default of the calling function sets nothing.
    Nested functions are exempt: their defaults capture loop values."""
    params = {}  # (name called, param name or position) -> [(file name, function, param)]
    for path in package:
        tree = ast.parse(path.read_text(), filename=str(path))
        for called, fn, positional in _top_functions(tree):
            for param in _defaulted(fn, positional):
                keys = [param, positional.index(param)] if param in positional else [param]
                for key in keys:
                    params.setdefault((called, key), []).append((path.name, called, param))
    settings = []  # ((name called or None for any, key), label of a forwarded param)
    for path in callers:
        tree = ast.parse(path.read_text(), filename=str(path))
        settings += [((None, key), None) for key in _spread_keys(tree)]
        scopes = [(None, tree)] + [(called, fn) for called, fn, _ in _top_functions(tree)]
        seen = set()
        for scope, root in reversed(scopes):  # functions before the module
            for call in ast.walk(root):
                if not isinstance(call, ast.Call) or id(call) in seen:
                    continue
                seen.add(id(call))
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                args = [(kw.arg, kw.value) for kw in call.keywords if kw.arg]
                if name is not None:
                    for i, arg in enumerate(call.args):
                        if isinstance(arg, ast.Starred):
                            break
                        args.append((i, arg))
                for key, value in args:
                    forwarded = None
                    if scope is not None and isinstance(value, ast.Name):
                        forwarded = (path.name, scope, value.id)
                    settings.append(((name, key), forwarded))
    unset, changed = {label for group in params.values() for label in group}, True
    while changed:
        changed = False
        for (name, key), forwarded in settings:
            if forwarded in unset:
                continue
            hit = {label for (n, k), group in params.items() if k == key and name in (None, n)
                   for label in group} & unset
            if hit:
                unset -= hit
                changed = True
    return sorted(unset)


def test_every_default_is_set_by_a_caller():
    unset = unset_defaults(PACKAGE, FILES)
    assert [u for u in unset if u not in KEPT_DEFAULTS] == []
    assert sorted(KEPT_DEFAULTS) == unset


def test_finds_an_unset_default(tmp_path):
    (tmp_path / "a.py").write_text(
        "def draw(seed=0, count=5, scale=1.0, *, mode='a', spare=None):\n"
        "    def inner(c=count):\n"
        "        return c\n"
        "    return inner()\n"
        "class Grid:\n"
        "    def __init__(self, order=16, rows=2):\n"
        "        pass\n"
        "    def weights(self, power=1, cut=0.5):\n"
        "        pass\n"
        "def run(depth=3):\n"
        "    pass\n"
        "def check(x, tol=1e-9):\n"
        "    pass\n"
        "def guard(x, tol=1e-6):\n"
        "    return check(x, tol)\n"
        "def strict(x, rtol=0.0):\n"
        "    return check(x, tol=rtol)\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import Grid, draw, guard, strict\n"
        "RUNNERS = {'run': None}\n"
        "def go(name):\n"
        "    options = {'run': {'depth': 4}}\n"
        "    RUNNERS[name](seed=1, **options.get(name, {}))\n"
        "    draw(0, 3, mode='b')\n"
        "    Grid(8).weights(2)\n"
        "    guard(1)\n"
        "    strict(1)\n"
    )
    unset = unset_defaults([tmp_path / "a.py"], sorted(tmp_path.glob("*.py")))
    # check's tol is passed twice, and each only forwards an unset default
    assert unset == [
        ("a.py", "Grid", "rows"),
        ("a.py", "check", "tol"),
        ("a.py", "draw", "scale"),
        ("a.py", "draw", "spare"),
        ("a.py", "guard", "tol"),
        ("a.py", "strict", "rtol"),
        ("a.py", "weights", "cut"),
    ]
    (tmp_path / "c.py").write_text("from .a import strict\nstrict(2, 1e-3)\n")
    unset = unset_defaults([tmp_path / "a.py"], sorted(tmp_path.glob("*.py")))
    assert ("a.py", "check", "tol") not in unset and ("a.py", "strict", "rtol") not in unset
