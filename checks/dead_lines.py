"""List the lines of src/doatrack that a test run never executes.

Usage, from anywhere:

    python checks/dead_lines.py                 # tier-1 without the acceptance module
    python checks/dead_lines.py tests/test_cli.py -k sweep   # any pytest arguments

Runs pytest in this process under a line tracer (``sys.settrace``, and
``threading.settrace`` for threads started later) that records every
line executed in a file under src/doatrack. It then prints each line
that the compiled source can execute but the run never reached, as
``path:line: source``, and a count per file. The default arguments run
the tier-1 suite without tests/test_acceptance.py, whose 150-scene
sweeps take too long under a tracer.

Blind spot: process-pool workers (``--jobs`` above 1, ``_pool``) run in
other processes, whose lines this tracer cannot see. A line that only a
worker runs is listed as never run. It needs nothing beyond the standard
library and pytest, and it is not part of tier-1. The exit code is
pytest's: a failing test run makes the list unreliable.
"""

from __future__ import annotations

import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "doatrack"
DEFAULT_ARGS = [str(ROOT / "tests"), "--ignore", str(ROOT / "tests" / "test_acceptance.py")]


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in path's module or any code object in it."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """(pytest exit code, executed line numbers per resolved file under the package)."""
    import pytest

    hits: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, str | None] = {}  # co_filename -> resolved path, or None if not ours

    def line_tracer(frame, event, _arg):
        if event == "line":
            hits[ours[frame.f_code.co_filename]].add(frame.f_lineno)
        return line_tracer

    def call_tracer(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            path = Path(filename).resolve()
            ours[filename] = str(path) if path.is_relative_to(PACKAGE) else None
        if ours[filename] is None:
            return None
        hits[ours[filename]].add(frame.f_lineno)
        return line_tracer

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    # Read before the run, so the line numbers are those of the code that ran.
    files = {path: (path.read_text(encoding="utf-8").splitlines(), executable_lines(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    code, hits = traced_run(argv or DEFAULT_ARGS)
    total = 0
    for path, (source, executable) in files.items():
        dead = sorted(executable - hits.get(str(path.resolve()), set()))
        name = path.relative_to(ROOT).as_posix()
        for line in dead:
            print(f"{name}:{line}: {source[line - 1].strip()}")
        if dead:
            print(f"{name}: {len(dead)} of {len(executable)} executable lines never ran\n")
        total += len(dead)
    print(f"{total} executable lines never ran in src/doatrack; pool workers are not traced")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
