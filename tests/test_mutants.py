"""The mutation list of checks/mutants.py stays applicable: each snippet
occurs exactly once in its file, so no mutant silently stops mutating.
Running the mutants is not part of this suite."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECK = ROOT / "checks" / "mutants.py"


def _mutants_module():
    spec = importlib.util.spec_from_file_location("checks_mutants", CHECK)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_once_to_its_file():
    mutants = _mutants_module()
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        assert m.snippet != m.replacement, m.name
        assert mutants.mutated(m, ROOT) != (ROOT / m.path).read_text(encoding="utf-8"), m.name
        assert (ROOT / m.tests[0]).is_file(), m.name
