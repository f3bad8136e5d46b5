"""Every module-level import in the package is read by its module.

The one exception is a name perfbench/tracer.py replaces on that module
to observe the package: the tracer needs the attribute to exist even
where the module itself no longer calls it.
"""

import ast
from pathlib import Path

from test_benchmark_tracer import _tracer_module

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "doatrack"


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
