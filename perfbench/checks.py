"""Output checks for one round of a workload.

Two checks, both per scene-cell:

* invariants that hold on any seed: ``n_tp + n_fn`` equals the row count
  of the scene's ground-truth CSV, ``n_tp + n_fp`` the row count of its
  prediction CSV, ``ass_*`` lie in [0, 1] and ``mota`` is at most 1;
* SHA-256 digests of the report files (``per_scene.csv``,
  ``aggregate.json``, ``sweep_long.csv``, ``sweep.json``) equal the
  expected ones: a stored reference on the default seed, and on every
  seed the digests of the run's first round. A file that differs fails
  every scene-cell it reports on.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from doatrack.cli import _list_scene_ids
from workloads import Cell


def _data_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip()) - 1


def _in_unit(text: str) -> bool:
    return text == "" or 0.0 <= float(text) <= 1.0


def _mota_ok(text: str) -> bool:
    return text == "" or (not math.isnan(float(text)) and float(text) <= 1.0)


def invariant_failures(cell: Cell) -> set[str]:
    """Scene ids of this cell whose report row breaks an invariant or is missing."""
    expected = _list_scene_ids(cell.scenes_dir, ".gt.csv")
    try:
        with open(cell.eval_dir / "per_scene.csv", encoding="utf-8", newline="") as f:
            rows = {row["scene_id"]: row for row in csv.DictReader(f)}
    except (OSError, KeyError):
        return set(expected)
    bad = set(rows) ^ set(expected)
    for sid in expected:
        row = rows.get(sid)
        if row is None:
            continue
        try:
            n_tp, n_fp, n_fn = int(row["n_tp"]), int(row["n_fp"]), int(row["n_fn"])
            ok = (
                n_tp + n_fn == _data_rows(cell.scenes_dir / f"{sid}.gt.csv")
                and n_tp + n_fp == _data_rows(cell.pred_dir / f"{sid}.pred.csv")
                and all(_in_unit(row[k]) for k in ("ass_a", "ass_pr", "ass_re"))
                and _mota_ok(row["mota"])
            )
        except (KeyError, ValueError, OSError):
            ok = False
        if not ok:
            bad.add(sid)
    return bad


def digests(out: Path, cells: list[Cell], summary_files: list[Path]) -> dict[str, str]:
    """SHA-256 of every report file of a round, keyed by path relative to out."""
    files = [c.eval_dir / name for c in cells for name in ("per_scene.csv", "aggregate.json")]
    files += summary_files
    result = {}
    for path in files:
        key = path.relative_to(out).as_posix()
        try:
            result[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            result[key] = "missing"
    return result


def failed_scene_cells(
    out: Path,
    cells: list[Cell],
    summary_files: list[Path],
    expected: list[dict[str, str]],
) -> tuple[dict[str, str], set[tuple[str, str]]]:
    """Digests of this round and the (cell, scene) pairs that failed a check."""
    got = digests(out, cells, summary_files)
    failed: set[tuple[str, str]] = set()
    summary_keys = {p.relative_to(out).as_posix() for p in summary_files}
    bad_keys = {k for ref in expected for k, v in ref.items() if got.get(k) != v}
    for cell in cells:
        key = cell.key(out)
        scenes = _list_scene_ids(cell.scenes_dir, ".gt.csv")
        cell_files = {f"{key}/per_scene.csv", f"{key}/aggregate.json"}
        if bad_keys & (cell_files | summary_keys):
            failed.update((key, sid) for sid in scenes)
        else:
            failed.update((key, sid) for sid in invariant_failures(cell))
    return got, failed
