"""Tests of the benchmark's own code, on workloads small enough for a test.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from checks import failed_scene_cells, invariant_failures  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracer import COUNTERS, SPANS, Record, Tracer  # noqa: E402
from workloads import WORKLOADS, EvaluateWorkload, SweepWorkload  # noqa: E402

MODULES = worker.import_package(worker.ROOT)
CLI = MODULES["cli"]
SEED = 7

TINY = [
    SweepWorkload("tiny_sweep", 2, 0.05, 0.3, (2, None), n_scenes=2, corpora=1),
    SweepWorkload("tiny_jobs2", 2, 0.05, 0.3, (2, None), n_scenes=2, corpora=1, max_jobs=2),
    EvaluateWorkload("tiny_evaluate", 3, 0.05, 0.3, n_scenes=2),
]


def tree_digest(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def exact_names() -> list[str]:
    """Per-layer metrics made of counts only, which must repeat exactly."""
    empty = layer_metrics(Record(), [Record()], 0.0)
    return [n for n, m in empty.items()
            if m["unit"] not in ("ms", "us") and n != "trace.overhead_ratio"]


def wrapped_attributes() -> dict:
    names = [(m, a) for m, a, *_ in SPANS] + [(m, a) for m, a, _ in COUNTERS]
    names.append(("cli", "ProcessPoolExecutor"))
    return {(m, a): getattr(MODULES[m], a) for m, a in names}


def traced_pass(wl, work: Path, tag: str):
    """Set-up and one round under a fresh tracer; returns its records and state."""
    tracer = Tracer(MODULES, root=work)
    with tracer:
        state = wl.setup(CLI, work / f"inputs_{tag}", SEED)
    setup = tracer.take()
    with tracer:
        failures = wl.run(CLI, state, work / tag, 0)
    assert failures == set()
    return setup, tracer.take(), state


@pytest.fixture(scope="module", params=TINY, ids=lambda w: w.name)
def runs(request, tmp_path_factory):
    wl = request.param
    work = tmp_path_factory.mktemp(wl.name)
    state = wl.setup(CLI, work / "inputs_plain", SEED)
    assert wl.run(CLI, state, work / "plain", 0) == set()
    first = traced_pass(wl, work, "traced1")
    second = traced_pass(wl, work, "traced2")
    return wl, work, state, first, second


def test_traced_and_untraced_trees_are_byte_identical(runs):
    wl, work, _state, _first, _second = runs
    plain = tree_digest(work / "plain")
    assert plain
    assert tree_digest(work / "traced1") == plain
    assert tree_digest(work / "traced2") == plain
    assert tree_digest(work / "inputs_traced1") == tree_digest(work / "inputs_plain")


def test_wrapped_attributes_are_restored():
    before = wrapped_attributes()
    with Tracer(MODULES):
        during = wrapped_attributes()
    after = wrapped_attributes()
    assert all(during[k] is not before[k] for k in before)
    assert all(after[k] is before[k] for k in before)


def test_restored_after_an_exception():
    before = wrapped_attributes()
    with pytest.raises(RuntimeError):
        with Tracer(MODULES):
            raise RuntimeError("boom")
    assert wrapped_attributes() == before


def test_counts_repeat_exactly(runs):
    _wl, _work, _state, (setup1, round1, _), (setup2, round2, _) = runs
    m1 = layer_metrics(setup1, [round1], 0.0)
    m2 = layer_metrics(setup2, [round2], 0.0)
    names = exact_names()
    assert {n: m1[n]["value"] for n in names} == {n: m2[n]["value"] for n in names}
    for name in ("matching.lsa_calls", "frame_metrics.lsa_calls", "trackmodel.reparse_ratio"):
        assert name in names


def test_counts_see_the_work(runs):
    wl, _work, _state, (setup, round1, _), _second = runs
    m = {k: v["value"] for k, v in layer_metrics(setup, [round1], 0.0).items()}
    if wl.jobs > 1:
        # Two corpus calls per k_max value, each on a pool of its own.
        assert m["cli.pool.starts"] == 2 * len(wl.k_max_values)
        assert m["cli.pool.tasks"] == 2 * wl.cells_per_round
        assert m["trackers.pf_tracker.calls"] == 0  # runs in the workers
    else:
        assert m["cli.pool.starts"] == 0
        assert m["matching.lsa_calls"] == m["matching.frames.1x1"] + m["matching.frames.nxm"]
        assert m["geometry.distance_calls_per_frame"] == 2.0
        assert m["assoc_metrics.tps"] > 0
    if isinstance(wl, EvaluateWorkload):
        assert m["trackers.pf_tracker.calls"] == 0
        assert m["trackers.adversary.ms_per_scene"] > 0
    elif wl.jobs == 1:
        assert m["trackers.pf_tracker.calls"] == wl.cells_per_round


def test_self_time_is_never_negative(runs):
    _wl, _work, _state, first, second = runs
    spans = [s for setup, rnd, _ in (first, second) for rec in (setup, rnd) for s in rec.spans]
    assert spans
    assert all(s.self_ns >= 0 for s in spans)
    assert all(0 <= s.child_ns <= s.end_ns - s.start_ns for s in spans)


def test_scene_cell_spans_share_an_id(runs):
    wl, _work, _state, (_setup, round1, _), _second = runs
    if wl.jobs > 1:
        return  # the scenes ran in the pool workers
    groups = {}
    for s in round1.spans:
        if s.group is not None and "/scene_" in s.group:
            groups.setdefault(s.group, set()).add(s.name)
    assert len(groups) == wl.cells_per_round
    for names in groups.values():
        assert "reporting.evaluate_scene" in names
        assert "matching.match_sequence" in names


def test_checks_pass_on_good_output_and_flag_tampering(runs):
    wl, work, state, _first, _second = runs
    out = work / "plain"
    cells = wl.cells(state, out, 0)
    digests, failed = failed_scene_cells(out, cells, wl.summary_files(out), [])
    assert failed == set()
    tampered = work / "tampered"
    shutil.copytree(out, tampered)
    cells = wl.cells(state, tampered, 0)
    pred = sorted(cells[0].pred_dir.glob("scene_*.pred.csv"))[0]
    if isinstance(wl, EvaluateWorkload):
        # Set-up inputs are shared: tamper with a private copy of them.
        pred_dir = tampered / "preds_copy"
        shutil.copytree(cells[0].pred_dir, pred_dir)
        cells[0] = type(cells[0])(cells[0].scenes_dir, pred_dir, cells[0].eval_dir)
        pred = pred_dir / pred.name
    lines = pred.read_text(encoding="utf-8").splitlines(keepends=True)
    pred.write_text("".join(lines[:-1]), encoding="utf-8")
    assert invariant_failures(cells[0]) == {pred.name[: -len(".pred.csv")]}
    report = cells[1].eval_dir / "per_scene.csv"
    report.write_bytes(report.read_bytes() + b"\n")
    _got, failed = failed_scene_cells(tampered, cells, wl.summary_files(tampered), [digests])
    cell1 = cells[1].key(tampered)
    assert {scene for cell, scene in failed if cell == cell1} == {"scene_0000", "scene_0001"}


class ReportsFailures:
    """A workload whose run also reports the given scene-cells as failed."""

    def __init__(self, wl, reported):
        self.wl, self.reported = wl, reported

    def run(self, cli, state, out, index):
        return self.wl.run(cli, state, out, index) | self.reported(out)

    def __getattr__(self, name):
        return getattr(self.wl, name)


def test_failed_counts_the_union_of_reported_and_checked(runs):
    wl, work, state, _first, _second = runs
    out = work / "union"
    good = worker.run_round(wl, CLI, state, out, 0, [])
    assert good.failed == 0
    cells = wl.cells(state, out, 0)
    bad_digests = {**good.digests, f"{cells[1].key(out)}/per_scene.csv": "0" * 64}
    reported = ReportsFailures(
        wl, lambda o: {(cells[0].key(o), "scene_0000"), (cells[1].key(o), "scene_0000")})
    # The check fails both scenes of cell 1; the package reported one scene
    # of cell 0 and one of cell 1.
    r = worker.run_round(reported, CLI, state, out, 0, [bad_digests])
    assert r.failed == 3


def test_benchmark_json_names_match_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    per_layer = layer_metrics(Record(), [Record()], 0.0)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        n: m["unit"] for n, m in per_layer.items()
    }
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        "cells_per_s": "cells/s", "cpu_s_per_cell": "s", "peak_rss_mb": "MB", "setup_s": "s",
    }


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_3spk_clutter", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
