"""Every name a module of the package or the tests imports is read there,
and every private helper of the package is read somewhere in it; and no
run imports the reference layer.

A standard-library stand-in for a linter's unused-import and dead-code
checks: each module's imported names are compared with the names its
code reads. Names listed in ``__all__`` count as read, since a package
imports them to re-export them.
"""

import ast
import os
import subprocess
import sys
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


#: The public names ``mcvseg`` loads from ``mcvseg.reference`` on first use.
REFERENCE_NAMES = {"GibbsTable", "boundary_point", "calibrate_rho", "clip", "downsample",
                   "energy", "evaluate", "gibbs_distribution", "m_step", "merge_step",
                   "neighborhood_squared", "pyramid_evaluate", "tau_rho_consistency"}

#: The modules of the package that a run and every subcommand load.
RUN_PATH_MODULES = ["mcvseg", "mcvseg.cli", "mcvseg.driver", "mcvseg.geometry",
                    "mcvseg.metrics", "mcvseg.partition", "mcvseg.pnmio", "mcvseg.pyramid"]

# Runs in a fresh interpreter, in a temporary directory: a run and every
# subcommand, then the checks that load the reference layer.
BOUNDARY_SCRIPT = """
import sys
import numpy as np
import mcvseg
from mcvseg.cli import main

img = mcvseg.ImageBuffer(mcvseg.Lattice(4, 3), 1, np.arange(12.0).reshape(3, 4, 1) * 20, 255)
seq = mcvseg.run_mcv(img, mcvseg.McvConfig(max_level=2, rho=50.0))
open("in.pgm", "wb").write(mcvseg.save_pnm(img))
assert main(["segment", "in.pgm", "out", "--levels", "2"]) == 0
assert main(["components", "in.pgm", "classes.pgm"]) == 0
assert main(["rand", "out/level_1.pgm", "out/level_2.pgm"]) == 0
assert set(mcvseg.__all__) <= set(dir(mcvseg))
print("loaded after a run:", "mcvseg.reference" in sys.modules)
print("modules after a run:", sorted(m for m in sys.modules if m.split(".")[0] == "mcvseg"))

names = {name: getattr(mcvseg, name) for name in mcvseg.__all__}
import mcvseg.reference as reference
star = {}
exec("from mcvseg import *", star)
assert {k: v for k, v in star.items() if k != "__builtins__"} == names
for name in REFERENCE_NAMES:
    assert names[name] is getattr(reference, name), name
try:
    mcvseg.no_such_name
except AttributeError as e:
    print("unknown name:", e)
"""


def test_runs_never_import_the_reference_layer(tmp_path):
    """``import mcvseg``, ``run_mcv`` and the ``segment``, ``components``
    and ``rand`` subcommands leave ``mcvseg.reference`` unloaded, and so
    does ``dir(mcvseg)``, which lists every name of ``mcvseg.__all__``;
    they load exactly the run-path modules of the package. Each name of
    ``mcvseg.__all__`` resolves, the reference names to the objects of
    ``mcvseg.reference``, and an unknown name still raises
    AttributeError."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    script = f"REFERENCE_NAMES = {sorted(REFERENCE_NAMES)!r}\n" + BOUNDARY_SCRIPT
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == [
        "loaded after a run: False",
        f"modules after a run: {RUN_PATH_MODULES}",
        "unknown name: module 'mcvseg' has no attribute 'no_such_name'"]


def test_reference_names_are_public():
    import mcvseg

    assert REFERENCE_NAMES <= set(mcvseg.__all__)
    assert REFERENCE_NAMES == set(mcvseg._REFERENCE)
