"""Every module-level import in the package is read by its module,
every top-level definition in the package is read somewhere in the
repository, the package root is a docstring only, and no module of
the package loads scipy.

The one exception to the first is a name perfbench/tracer.py replaces
on that module to observe the package: the tracer needs the attribute
to exist even where the module itself no longer calls it.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from test_benchmark_tracer import _tracer_module

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "doatrack"


def _unread_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - read


def test_unread_import_is_caught():
    assert _unread_imports("import os\nfrom math import pi, tau\nx = tau\n") == {"os", "pi"}


def test_every_module_level_import_is_read():
    tracer = _tracer_module()
    patched = {(module, attr) for module, attr, *_rest in tracer.SPANS + tracer.COUNTERS}
    unread = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unread_imports(path.read_text(encoding="utf-8"))
    }
    assert unread - patched == set()


def test_package_root_holds_its_docstring_only():
    # each name has one import path, its defining module: the root
    # re-exports nothing and restates no version
    body = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr), [type(n).__name__ for n in body]
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


def test_no_module_of_the_package_loads_scipy():
    # the package solves its assignments itself; scipy is a test oracle only
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    code = "".join(f"import doatrack.{m}\n" for m in modules) + (
        "import sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert modules and out.stdout == "[]\n", out.stdout


def _names(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name tree mentions."""
    return {
        getattr(node, "id", None) or getattr(node, "attr", None) or node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }


def test_cli_starts_pools_in_one_place_and_leaves_passes_to_the_pf():
    # every command maps its scenes on the pool one helper starts, and
    # pf_track_cells alone splits its cells into passes
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    starts = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and "ProcessPoolExecutor" in _names(node)
    ]
    assert len(starts) == 1, starts
    assert "cells_per_pass" not in _names(tree)


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each name a def, class or assignment at the top of a module binds,
    with the statement that binds it."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            defs.update(dict.fromkeys(names, node))
    return defs


def _reads(tree: ast.AST, local) -> tuple[Counter, Counter]:
    """The reads in tree of the names in local, which its module binds
    itself, and all its other reads: loaded names, loaded attributes and
    names imported from the package."""
    own: Counter = Counter()
    other: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            (own if node.id in local else other)[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            other[node.attr] += 1
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("doatrack")
        ):
            other.update(alias.name for alias in node.names)
    return own, other


def test_every_top_level_definition_is_read():
    # a def, class or assignment at the top of a package module that
    # nothing in the source, the tests, the scripts or the benchmark
    # reads, other than its own statement, is dead code
    other: Counter = Counter()
    package = {}
    for folder in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            defs = _definitions(tree)
            own, rest = _reads(tree, defs)
            other += rest
            if path.parent == PACKAGE:
                package[path.stem] = defs, own
    unread = {
        (module, name)
        for module, (defs, own) in package.items()
        for name, node in defs.items()
        if not name.startswith("__")
        and not other[name]
        and own[name] == _reads(node, {name})[0][name]
    }
    assert unread == set()
