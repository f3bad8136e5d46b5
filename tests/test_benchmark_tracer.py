"""The benchmark's tracer, perfbench/tracer.py, observes the package by
replacing module attributes and reading the containers they return.
These tests hold that contract in the tier-1 suite, so a change that
breaks it fails here and not only under the benchmark's --trace 1."""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

from doatrack import cli
from doatrack.trackmodel import read_observations, read_trackset

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {
    name: importlib.import_module(f"doatrack.{name}")
    for name in ("cli", "reporting", "frame_metrics", "matching")
}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracer = _tracer_module()
    for module, attr, *_rest in tracer.SPANS + tracer.COUNTERS + [("cli", "ProcessPoolExecutor")]:
        assert callable(getattr(MODULES[module], attr)), (module, attr)


def test_traced_counts_agree_with_the_package(tmp_path):
    tracer = _tracer_module()
    scenes, preds = tmp_path / "scenes", tmp_path / "preds"
    with tracer.Tracer(MODULES, tmp_path) as traced:
        grid = cli.simulate_corpus(
            {"n_speakers": 2, "duration_s": 4.0}, {"clutter_rate": 0.3}, 2, 7, scenes
        )
        assert cli.track_corpus(scenes, {"type": "pf", "birth_frames": 2, "seed": 1}, preds) == []
        reports, _agg, failures = cli.evaluate_corpus(
            scenes, preds, math.radians(20.0), None, replicates=5
        )
    assert failures == []
    counts = traced.take().counts
    frames = sum(counts[f"matching.frames.{k}"] for k in ("empty", "one_sided", "1x1", "nxm"))
    assert frames == 2 * grid.n_frames
    assert counts["assoc_metrics.tps"] == sum(r.n_tp for r in reports) > 0
    names = ("scene_0000", "scene_0001")
    assert counts["trackers.pf_tracker.rows_out"] == sum(
        read_trackset(preds / f"{n}.pred.csv", grid).n_entries() for n in names
    )
    assert counts["scenesim.observations"] == sum(
        read_observations(scenes / f"{n}.obs.csv", grid).n_observations() for n in names
    )
