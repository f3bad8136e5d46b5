"""The measured process of the benchmark; ``run.py`` starts it.

Set-up imports doatrack from the checkout's ``src`` and makes the
workload's inputs from the seed, then prints ``READY`` and enters the
timed region: after one untimed warm-up round, rounds of the workload
until ``--seconds`` have passed (at least MIN_ROUNDS). The time metrics
are medians over the timed rounds. Each round is checked (see checks.py)
and its output tree removed. With ``--trace 1`` every round runs twice,
untraced and then traced, and the two trees must be byte-identical.

The last line on stdout is one JSON object with the metrics, the counts
of attempted and failed scene-cells, and the host context.

``--record-reference`` runs one round of each input on the default seed
and stores the report digests in reference.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
REFERENCE = HERE / "reference.json"
# Timed rounds a run makes at least, whatever --seconds says.
MIN_ROUNDS = 3
TRACED_MODULES = ("cli", "reporting", "frame_metrics", "matching")

# The benchmark's modules, and doatrack from the checkout's src.
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import failed_scene_cells  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracer import Tracer, dump  # noqa: E402
from workloads import WORKLOADS, nproc  # noqa: E402


def import_package(root: Path) -> dict:
    """Import doatrack (from root/src) and return the modules the tracer wraps."""
    src = root / "src"
    modules = {m: importlib.import_module(f"doatrack.{m}") for m in TRACED_MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"doatrack was imported from {origin}, not from {src}")
    return modules


def cpu_s() -> float:
    """User plus system CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (Linux: KiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (me.ru_maxrss + kids.ru_maxrss) / 1024


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from /proc/stat; zeros elsewhere."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    # user nice system idle iowait irq softirq steal [guest guest_nice]; guest
    # time is already inside user and nice.
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def host_context(ticks0, ticks1) -> dict:
    import numpy
    import scipy

    steal = ticks1[0] - ticks0[0]
    total = ticks1[1] - ticks0[1]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "steal_share": steal / total if total else 0.0,
    }


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    digests: dict
    failed: int


def run_round(wl, cli, state, out: Path, index: int, expected: list[dict]) -> Round:
    cpu0 = cpu_s()
    t0 = time.perf_counter()
    failures = wl.run(cli, state, out, index)
    wall = time.perf_counter() - t0
    cpu = cpu_s() - cpu0
    cells = wl.cells(state, out, index)
    got, failed = failed_scene_cells(out, cells, wl.summary_files(out), expected)
    shutil.rmtree(out, ignore_errors=True)
    # A scene-cell that the package reported and the check flagged counts once.
    return Round(wall, cpu, got, len(failures | failed))


def load_reference(name: str, seed: int) -> list[list[dict]]:
    """Expected digests per input index: the stored ones on the default seed."""
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return []
    return [[ref] for ref in json.loads(REFERENCE.read_text(encoding="utf-8")).get(name, [])]


def record_reference(wl, cli, state, work: Path) -> None:
    refs = []
    for i in range(wl.corpora):
        r = run_round(wl, cli, state, work / f"round{i}", i, [])
        if r.failed:
            raise RuntimeError(f"{r.failed} scene-cells failed; reference not recorded")
        refs.append(r.digests)
    doc = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    doc[wl.name] = refs
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    modules = import_package(ROOT)
    cli = modules["cli"]
    work = ROOT / ".perfbench" / "work" / f"{wl.name}-s{args.seed}-{os.getpid()}"
    tracer = Tracer(modules, root=work) if args.trace else None
    try:
        with tracer or nullcontext():
            state = wl.setup(cli, work / "inputs", args.seed)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.record_reference:
            if args.seed != DEFAULT_SEED:
                raise SystemExit(f"reference digests are for seed {DEFAULT_SEED}")
            record_reference(wl, cli, state, work)
            return 0
        result = measure(wl, cli, state, work, args, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def measure(wl, cli, state, work: Path, args, tracer) -> dict:
    setup_record = tracer.take() if tracer is not None else None
    expected = load_reference(wl.name, args.seed)
    expected += [[] for _ in range(wl.corpora - len(expected))]
    records = []

    def checked(i: int) -> tuple[Round, Round | None]:
        """Round i, and with a tracer its traced twin; both checked."""
        want = expected[i % wl.corpora]
        r = run_round(wl, cli, state, work / f"round{i}", i, want)
        if i < wl.corpora:
            want.append(r.digests)
        if tracer is None:
            return r, None
        with tracer:
            t = run_round(wl, cli, state, work / f"traced{i}", i, want)
        records.append(tracer.take())
        return r, t

    # Round 0 is checked but not timed: it pays the one-time costs of the
    # first calls (lazy imports, first file-system touches).
    warmup = checked(0)
    pairs = []
    ticks0 = cpu_ticks()
    start = time.perf_counter()
    while len(pairs) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        pairs.append(checked(len(pairs) + 1))
    ticks1 = cpu_ticks()
    done = [r for pair in [warmup, *pairs] for r in pair if r is not None]
    rounds = [r for r, _ in pairs]
    cells = wl.cells_per_round
    attempted = cells * len(done)
    failed = sum(r.failed for r in done)
    context = host_context(ticks0, ticks1)
    context["rounds"] = len(rounds)
    context["cells_per_round"] = cells
    context["jobs"] = wl.jobs
    if tracer is None:
        # Medians over the timed rounds: a burst of host load that slows a
        # few rounds does not move them.
        metrics = {
            "cells_per_s": {
                "value": statistics.median(cells / r.wall_s for r in rounds), "unit": "cells/s"},
            "cpu_s_per_cell": {
                "value": statistics.median(r.cpu_s / cells for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    else:
        overhead = statistics.median(t.wall_s / r.wall_s for r, t in pairs) - 1
        metrics = layer_metrics(setup_record, records, overhead)
        trace_path = ROOT / ".perfbench" / "traces" / f"{wl.name}-seed{args.seed}.jsonl"
        phases = [("setup", setup_record)] + [(f"round{i}", r) for i, r in enumerate(records)]
        dump(trace_path, phases, context)
        context["trace_file"] = trace_path.relative_to(ROOT).as_posix()
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "context": context}


if __name__ == "__main__":
    sys.exit(main())
