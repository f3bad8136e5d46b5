"""Apply named mutations of src/doatrack, one at a time, and see whether
the tests meant to catch each one fail.

Usage, from anywhere:

    python checks/mutants.py                         # every mutant
    python checks/mutants.py tag_check_skipped ...   # the named ones
    python checks/mutants.py --list                  # names, files and tests only
    python checks/mutants.py --json OUT.json         # also write the outcome to OUT.json

Each mutant is a file, an exact snippet that occurs once in it, the
snippet's replacement and the pytest arguments that should kill it. For
each one the tool copies the repository (without .git and caches) to a
temporary directory, replaces the snippet there, and runs
``python -m pytest -x`` with those arguments in the copy. The outcome is
``killed`` when pytest reports a failing test, ``survived`` when every
test passes, and ``error`` for anything else (a snippet that no longer
occurs exactly once, a collection error, a timeout). A survivor is a
finding about the tests, not an entry to delete.

The JSON outcome is written only to the path given with ``--json``,
which must lie outside the repository; the repository itself is never
written to. It needs nothing beyond the standard library and pytest, and
it is not part of tier-1 (tests/test_mutants.py only checks that every
snippet still occurs exactly once). The exit code is 0 when every mutant
run was killed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # one mutant's test run; a mutant that loops forever is an error


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest arguments, paths relative to the root


_TRACKMODEL = "src/doatrack/trackmodel.py"
_CSV_TESTS = ("tests/test_trackmodel.py", "tests/test_golden_corpus.py")

MUTANTS = (
    # scene-CSV writer
    Mutant("writer_no_minus_180", _TRACKMODEL,
           'return "-180.000000" if text == "180.000000" else text', "return text",
           _CSV_TESTS),
    Mutant("obs_tail_no_comma", _TRACKMODEL,
           'tails = ["," + ("" if tag', 'tails = ["" + ("" if tag', _CSV_TESTS),
    Mutant("obs_index_off_by_one", _TRACKMODEL,
           "index = np.arange(len(obs.frame)) - obs.offsets[obs.frame]",
           "index = np.arange(len(obs.frame)) - obs.offsets[obs.frame] + 1", _CSV_TESTS),
    Mutant("tag_check_skipped", _TRACKMODEL,
           '"" if tag is None else _check_id(tag)', '"" if tag is None else tag', _CSV_TESTS),
    # scene-CSV reader and open_text
    Mutant("reader_no_cr_rule", _TRACKMODEL,
           'if "\\r" in joined:', "if False:", ("tests/test_trackmodel.py",)),
    Mutant("reader_no_field_count_rule", _TRACKMODEL,
           'if set(map(str.count, texts, repeat(","))) - {n_fields - 1}:', "if False:",
           ("tests/test_trackmodel.py",)),
    Mutant("reader_no_empty_id_rule", _TRACKMODEL,
           'if not expect_source and "" in cols[2]:', "if False:", ("tests/test_trackmodel.py",)),
    Mutant("reader_no_row_rerun", _TRACKMODEL,
           "for line, text in zip(lines, texts):", "for line, text in ():",
           ("tests/test_trackmodel.py",)),
    Mutant("reader_no_finite_azimuth_check", _TRACKMODEL,
           "bad = ~np.isfinite(azimuth)", "bad = np.isnan(azimuth) & False",
           ("tests/test_trackmodel.py",)),
    Mutant("partial_left_behind", _TRACKMODEL,
           "os.remove(partial)", "pass", ("tests/test_trackmodel.py",)),
    Mutant("partial_suffix_tmp", _TRACKMODEL,
           'PARTIAL_SUFFIX = ".partial"', 'PARTIAL_SUFFIX = ".tmp"',
           ("tests/test_cli.py", "-k", "json_object")),
    # corpus and sweep commands
    Mutant("no_manifest_unlink", "src/doatrack/cli.py",
           '(out_dir / "manifest.json").unlink(missing_ok=True)', "pass",
           ("tests/test_cli.py", "-k", "failed_simulate")),
    Mutant("scene_files_kept_on_entry", "src/doatrack/cli.py",
           '(out_dir / f"{sid}{suffix}").unlink()', "pass",
           ("tests/test_cli.py", "-k", "rerun_of_track or stale_scenes or rows_per_subset")),
    Mutant("manifest_written_before_block", "src/doatrack/cli.py",
           "    yield\n    for out_dir in dirs:\n"
           '        write_manifest(grid, out_dir / "manifest.json", extra=extra)\n',
           "    for out_dir in dirs:\n"
           '        write_manifest(grid, out_dir / "manifest.json", extra=extra)\n    yield\n',
           ("tests/test_cli.py", "-k", "failed_sweep")),
    Mutant("sweep_summary_kept", "src/doatrack/cli.py",
           "path.unlink(missing_ok=True)", "pass",
           ("tests/test_cli.py", "-k", "failed_sweep_leaves_no_summary")),
    Mutant("stale_aggregate_kept", "src/doatrack/cli.py",
           '(out_dir / "aggregate.json").unlink(missing_ok=True)', "pass",
           ("tests/test_cli.py", "-k", "nan_azimuth")),
    Mutant("sweep_reports_last_failing_cell", "src/doatrack/cli.py",
           "cell, scoring = min(step for step, _line in failures)",
           "cell, scoring = max(step for step, _line in failures)",
           ("tests/test_cli.py", "-k", "sweep_failure_names")),
    Mutant("no_frame_period_check", "src/doatrack/scenesim.py",
           "if not self.duration_s > 0 or not self.frame_period_s > 0:",
           "if not self.duration_s > 0:", ("tests/test_cli.py", "-k", "degenerate")),
    # bootstrap
    Mutant("floyd_bounds_shifted", "src/doatrack/reporting.py",
           "np.arange(n - m + 1, n + 1)", "np.arange(n - m, n)",
           ("tests/test_reporting.py", "-k", "bootstrap")),
    Mutant("no_floyd_rule", "src/doatrack/reporting.py",
           "picks[p, (picks[:p] == picks[p]).any(axis=0)] = n - m + p", "pass",
           ("tests/test_reporting.py", "-k", "bootstrap")),
    Mutant("bootstrap_fortran_order", "src/doatrack/reporting.py",
           "idx = np.ascontiguousarray(picks.T)", "idx = picks.T",
           ("tests/test_reporting.py", "-k", "bootstrap")),
    # assignment solver
    Mutant("solver_scans_first_to_last", "src/doatrack/matching.py",
           "last_first = list(range(n_cols - 1, -1, -1))", "last_first = list(range(n_cols))",
           ("tests/test_matching.py", "-k", "scipys_assignment")),
    Mutant("solver_no_free_column_tie_break", "src/doatrack/matching.py",
           "if s < lowest or (s == lowest and row4col[j] < 0):", "if s < lowest:",
           ("tests/test_matching.py", "-k", "scipys_assignment")),
    Mutant("solver_transposed_unsorted", "src/doatrack/matching.py",
           "order = sorted(range(n_rows), key=col4row.__getitem__)", "order = range(n_rows)",
           ("tests/test_matching.py", "-k", "scipys_assignment")),
    Mutant("solver_path_cost_non_strict", "src/doatrack/matching.py",
           "if r < s:", "if r <= s:", ("tests/test_matching.py", "-k", "scipys_assignment")),
    # matching and OSPA
    Mutant("strict_gate", "src/doatrack/matching.py",
           "in_gate = dist <= gate", "in_gate = dist < gate", ("tests/test_matching.py",)),
    Mutant("every_matching_frame_solved", "src/doatrack/matching.py",
           "forced = _disjoint(in_gate)", "forced = _disjoint(in_gate) & False",
           ("tests/test_matching.py",)),
    Mutant("ospa_no_margin_rule", "src/doatrack/frame_metrics.py",
           "forced = _disjoint(near) & decided.all(axis=(1, 2))", "forced = _disjoint(near)",
           ("tests/test_matching.py",)),
    Mutant("ospa_no_unpaired_column_rule", "src/doatrack/frame_metrics.py",
           "forced &= near.any(axis=1).all(axis=1)", "forced &= True",
           ("tests/test_matching.py",)),
    Mutant("sweep_scores_at_ospa_order_2", "src/doatrack/reporting.py",
           "ospa_order: float = DEFAULT_OSPA_ORDER,", "ospa_order: float = 2.0,",
           ("tests/test_cli.py", "-k", "sweep_cell_writes_what_track_then_evaluate_write")),
    # association scores
    Mutant("recall_over_precision_denominator", "src/doatrack/assoc_metrics.py",
           "re += Fraction(t * t, t + n)", "re += Fraction(t * t, t + p)",
           ("tests/test_assoc_metrics.py",)),
    # particle filter
    Mutant("oldest_dead_reused", "src/doatrack/trackers.py",
           "cell.dead_pool.pop()", "cell.dead_pool.pop(0)", ("tests/test_trackers.py",)),
    Mutant("deaths_pooled_unsorted", "src/doatrack/trackers.py",
           "cell.dead_pool += sorted(tid for", "cell.dead_pool += list(tid for",
           ("tests/test_trackers.py",)),
    Mutant("newborn_clouds_appended", "src/doatrack/trackers.py",
           "P = np.insert(P, [at for *_, at in newborn], clouds, axis=0)",
           "P = np.concatenate((P, clouds))", ("tests/test_trackers.py",)),
    Mutant("no_live_cap", "src/doatrack/trackers.py",
           "for unit in born[:cfg.max_active - len(cell.live)]:", "for unit in born:",
           ("tests/test_trackers.py",)),
)


def mutated(mutant: Mutant, root: Path) -> str:
    """The text of mutant.path under root with the mutation applied.

    Raises ValueError unless the snippet occurs exactly once.
    """
    text = (root / mutant.path).read_text(encoding="utf-8")
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {count} times in {mutant.path}")
    return text.replace(mutant.snippet, mutant.replacement)


def run(mutant: Mutant) -> tuple[str, str]:
    """(outcome, detail) of one mutant: killed, survived or error."""
    with tempfile.TemporaryDirectory(prefix="doatrack-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        try:
            (copy / mutant.path).write_text(mutated(mutant, copy), encoding="utf-8")
        except ValueError as exc:
            return "error", str(exc)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *mutant.tests]
        try:
            proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "error", f"timed out after {TIMEOUT_S} s"
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 1:
        return "killed", last
    if proc.returncode == 0:
        return "survived", last
    return "error", f"pytest exit code {proc.returncode}: {last}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    parser.add_argument("--json", type=Path, help="write the outcome as JSON to this path")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutants {unknown}; see --list")
    if args.json is not None and args.json.resolve().is_relative_to(ROOT):
        parser.error("--json must name a path outside the repository")
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name}: {m.path}; pytest {' '.join(m.tests)}")
        return 0
    results = []
    for m in chosen:
        start = time.perf_counter()
        outcome, detail = run(m)
        seconds = round(time.perf_counter() - start, 1)
        print(f"{outcome:8} {m.name} ({seconds} s): {detail}", flush=True)
        results.append({"name": m.name, "path": m.path, "tests": list(m.tests),
                        "outcome": outcome, "detail": detail, "seconds": seconds})
    counts = {k: sum(r["outcome"] == k for r in results) for k in ("killed", "survived", "error")}
    print(", ".join(f"{n} {k}" for k, n in counts.items()), f"of {len(results)} mutants")
    if args.json is not None:
        args.json.write_text(json.dumps({"counts": counts, "mutants": results}, indent=2) + "\n",
                             encoding="utf-8")
    return 0 if counts["killed"] == len(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
