"""Outside-in tracing of the doatrack package.

The tracer replaces, for the duration of a ``with`` block, the module
attributes through which doatrack's own callers resolve each public
function (``doatrack.cli.pf_tracker``, ``doatrack.reporting.match_sequence``,
...). The package source is not touched and every attribute is restored
on exit.

Functions that run once per scene or per cell get a span: name, start,
end, parent span and the scene-cell it belongs to. Functions that take
well under a millisecond per call (the assignment solver and the
pairwise distance kernel, called once per frame) get a call counter and
summed time instead. Spans stay in memory; ``dump`` writes them out.

Only the calling process is traced. Pool workers forked while the
tracer is installed run the wrapped functions too, but their records
die with them.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

_SCENE_RE = re.compile(r"^(scene_\d+)")

ADVERSARIES = ("oracle_tracker", "splitter_tracker", "swapper_tracker", "merger_tracker")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    group: str | None
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


@dataclass
class Record:
    """What one traced phase produced: closed spans and counters."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    files_parsed: Counter = field(default_factory=Counter)


def _scene_of(args) -> str | None:
    for a in args:
        if isinstance(a, (str, os.PathLike)):
            m = _SCENE_RE.match(os.path.basename(os.fspath(a)))
            if m:
                return m.group(1)
    return None


def _frame_classes(tracer: "Tracer", args, result) -> None:
    c = tracer.record.counts
    for fa in result.frames:
        n_pred = len(fa.tps) + len(fa.fps)
        n_gt = len(fa.tps) + len(fa.fns)
        if n_pred == 0 and n_gt == 0:
            c["matching.frames.empty"] += 1
        elif n_pred == 0 or n_gt == 0:
            c["matching.frames.one_sided"] += 1
        elif n_pred == 1 and n_gt == 1:
            c["matching.frames.1x1"] += 1
        else:
            c["matching.frames.nxm"] += 1


def _rows_out(tracer, args, result) -> None:
    tracer.record.counts["trackers.pf_tracker.rows_out"] += result.n_entries()


def _observations(tracer, args, result) -> None:
    tracer.record.counts["scenesim.observations"] += result.n_observations()


def _tps(tracer, args, result) -> None:
    ms = args[0]
    tracer.record.counts["assoc_metrics.tps"] += sum(len(fa.tps) for fa in ms.frames)


def _bytes_read(tracer, args, result) -> None:
    path = os.fspath(args[0])
    tracer.record.counts["trackmodel.bytes_read"] += os.path.getsize(path)
    tracer.record.files_parsed[path] += 1


def _bytes_written(tracer, args, result) -> None:
    tracer.record.counts["trackmodel.bytes_written"] += os.path.getsize(os.fspath(args[1]))


# (module, attribute, span name, observer). The attribute is the one the
# package's callers look up at call time, so replacing it on that module
# intercepts exactly the calls the workloads make.
SPANS = [
    ("cli", "run_sweep", "cli.run_sweep", None),
    ("cli", "simulate_corpus", "cli.simulate_corpus", None),
    ("cli", "track_corpus", "cli.track_corpus", None),
    ("cli", "evaluate_corpus", "cli.evaluate_corpus", None),
    ("cli", "generate_scene", "scenesim.generate_scene", None),
    ("cli", "simulate_observations", "scenesim.simulate_observations", _observations),
    ("cli", "read_trackset", "trackmodel.read_trackset", _bytes_read),
    ("cli", "read_observations", "trackmodel.read_observations", _bytes_read),
    ("cli", "write_trackset", "trackmodel.write_trackset", _bytes_written),
    ("cli", "write_observations", "trackmodel.write_observations", _bytes_written),
    ("cli", "pf_tracker", "trackers.pf_tracker", _rows_out),
    *[("cli", name, f"trackers.{name}", None) for name in ADVERSARIES],
    ("cli", "evaluate_scene", "reporting.evaluate_scene", None),
    ("cli", "aggregate_reports", "reporting.aggregate_reports", None),
    ("cli", "report_csv_rows", "reporting.report_csv_rows", None),
    ("reporting", "match_sequence", "matching.match_sequence", _frame_classes),
    ("reporting", "frame_metrics_report", "frame_metrics.frame_metrics_report", None),
    ("reporting", "association_scores", "assoc_metrics.association_scores", _tps),
    ("frame_metrics", "ospa_sequence", "frame_metrics.ospa_sequence", None),
]

# (module, attribute, counter name) for sub-millisecond per-frame calls.
COUNTERS = [
    ("matching", "linear_sum_assignment", "matching.lsa"),
    ("frame_metrics", "linear_sum_assignment", "frame_metrics.lsa"),
    ("matching", "pairwise_angular_distance", "geometry.pairwise_angular_distance"),
    ("frame_metrics", "pairwise_angular_distance", "geometry.pairwise_angular_distance"),
]

# Spans that open a cell (one corpus under one tracker config); their
# argument naming the predictions directory identifies the cell.
_CELL_ARG = {"cli.track_corpus": 2, "cli.evaluate_corpus": 1}
# Spans inside a cell that cover all its scenes at once.
_CELL_LEVEL = {"reporting.aggregate_reports", "reporting.report_csv_rows"}


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, modules: dict, root: Path | None = None):
        self.modules = modules
        self.root = root
        self.record = Record()
        self._stack: list[Span] = []
        self._next_id = 0
        self._cell: str | None = None
        self._scene: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        for mod, attr, name, observe in SPANS:
            self._replace(mod, attr, self._span_wrapper(name, observe))
        for mod, attr, name in COUNTERS:
            self._replace(mod, attr, self._counter_wrapper(name))
        self._replace("cli", "ProcessPoolExecutor", lambda base: _counting_pool(self, base))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _replace(self, mod: str, attr: str, make) -> None:
        module = self.modules[mod]
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def take(self) -> Record:
        """Return what was recorded since the last take, and start afresh."""
        record, self.record = self.record, Record()
        return record

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, observe):
        def make(fn):
            def wrapper(*args, **kwargs):
                self._enter_context(name, args)
                parent = self._stack[-1] if self._stack else None
                span = Span(self._next_id, parent.id if parent else None, name,
                            self._group(), perf_counter_ns())
                self._next_id += 1
                self._stack.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end_ns = perf_counter_ns()
                    self._stack.pop()
                    if parent is not None:
                        parent.child_ns += span.end_ns - span.start_ns
                    self.record.spans.append(span)
                    if name in _CELL_ARG:
                        self._cell = self._scene = None
                # After the span closes, so its cost lands in the parent's
                # self time and in trace.overhead_ratio, not in this layer.
                if observe is not None:
                    observe(self, args, result)
                return result

            return wrapper

        return make

    def _counter_wrapper(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = perf_counter_ns()
                result = fn(*args, **kwargs)
                self.record.counts[name + ".ns"] += perf_counter_ns() - t0
                self.record.counts[name + ".calls"] += 1
                return result

            return wrapper

        return make

    # -- scene-cell identity ------------------------------------------------

    def _enter_context(self, name: str, args) -> None:
        if name in _CELL_ARG:
            self._cell = self._relative(args[_CELL_ARG[name]])
            self._scene = None
        elif name in _CELL_LEVEL:
            self._scene = None
        elif self._cell is not None:
            scene = _scene_of(args)
            if scene is not None:
                self._scene = scene

    def _group(self) -> str | None:
        """The scene-cell id of the span being opened; the cell for cell-level spans."""
        if self._cell is None or self._scene is None:
            return self._cell
        return f"{self._cell}/{self._scene}"

    def _relative(self, path) -> str:
        p = Path(path)
        if self.root is not None:
            try:
                return p.relative_to(self.root).as_posix()
            except ValueError:
                pass
        return p.as_posix()


def _counting_pool(tracer: Tracer, base):
    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            tracer.record.counts["cli.pool.starts"] += 1
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            tasks = list(iterables[0])
            tracer.record.counts["cli.pool.tasks"] += len(tasks)
            return super().map(fn, tasks, *iterables[1:], **kwargs)

    return CountingPool


def dump(path: Path, records: list[tuple[str, Record]], context: dict) -> None:
    """Write one JSON line per span, then one per phase with its counters."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        out.write(json.dumps({"kind": "context", **context}) + "\n")
        for phase, rec in records:
            for s in rec.spans:
                out.write(json.dumps({
                    "kind": "span", "phase": phase, "id": s.id, "parent": s.parent,
                    "name": s.name, "scene_cell": s.group, "start_ns": s.start_ns,
                    "end_ns": s.end_ns, "self_ns": s.self_ns,
                }) + "\n")
            out.write(json.dumps({"kind": "counters", "phase": phase,
                                  "counts": dict(sorted(rec.counts.items()))}) + "\n")
