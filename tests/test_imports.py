"""Every name a module of the package or the tests imports is read there,
and every private helper of the package is read somewhere in it.

A standard-library stand-in for a linter's unused-import and dead-code
checks: each module's imported names are compared with the names its
code reads. Names listed in ``__all__`` count as read, since a package
imports them to re-export them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mcvseg").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The imported names ``source`` never reads, as ``line N: name``."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_unused_imports_checker():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from json import dumps, loads as parse\n"
              "__all__ = ['dumps']\n"
              "x: np.ndarray = parse('1')\n")
    assert unused_imports(source) == ["line 2: os"]


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text())
             for path in MODULES}
    assert {path: names for path, names in found.items() if names} == {}


def private_definitions(source: str) -> dict[str, int]:
    """The module-level private functions, classes and constants that
    ``source`` defines, with their lines; dunder names are not private."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    return defined


def names_read(source: str) -> set[str]:
    """The names ``source`` reads, bare or as an attribute; an import
    alone reads nothing."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_dead_helper_checker():
    source = ("from .other import _imported\n"
              "_LIMIT: int = 3\n"
              "_UNUSED = 4\n"
              "__all__ = ['public']\n"
              "def _helper():\n"
              "    return _LIMIT\n"
              "def _dead():\n"
              "    pass\n"
              "class _Dead:\n"
              "    pass\n"
              "def public():\n"
              "    return _helper()\n")
    assert private_definitions(source) == {"_LIMIT": 2, "_UNUSED": 3, "_helper": 5,
                                           "_dead": 7, "_Dead": 9}
    assert {"_LIMIT", "_helper"} <= names_read(source)
    assert not {"_imported", "_UNUSED", "_dead", "_Dead"} & names_read(source)


def test_no_dead_private_helpers():
    """A private name of the package that no code in it reads is dead:
    only the tests, or nothing, would call it."""
    read = set().union(*(names_read(path.read_text()) for path in PACKAGE))
    dead = [f"{path.relative_to(ROOT)} line {line}: {name}" for path in PACKAGE
            for name, line in private_definitions(path.read_text()).items() if name not in read]
    assert dead == []
