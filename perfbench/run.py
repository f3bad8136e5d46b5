"""doatrack benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload sweep_3spk_clutter --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports doatrack from ``src``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run (spans go to ``.perfbench/traces``).
The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only if every output
check passed.

``setup_s`` is the median, over SETUP_SAMPLES fresh processes, of the
time from starting the worker process to its ``READY`` line: interpreter
start, ``import doatrack`` with numpy and scipy, and input generation.
The last of those processes goes on to run the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
# Numerical libraries must not start thread pools of their own: the only
# parallelism a workload has is the process pool it asks doatrack for.
SINGLE_THREADED = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def start_worker(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **SINGLE_THREADED})
    return proc, t0


def read_ready(proc: subprocess.Popen, t0: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise RuntimeError(f"worker did not get ready: {line.strip()!r}")
    return time.perf_counter() - t0


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline and was stopped")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def main() -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "doatrack" / "__init__.py").is_file():
        print(f"run.py: no doatrack package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    setup = []
    proc = None
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, t0 = start_worker(args, ["--setup-only"])
                setup.append(read_ready(proc, t0))
                finish(proc, deadline)
        proc, t0 = start_worker(args, [])
        setup.append(read_ready(proc, t0))
        result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    attempted, failed = result["attempted"], result["failed"]
    print("context " + json.dumps(result["context"], sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:55s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'fail_ratio':55s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
