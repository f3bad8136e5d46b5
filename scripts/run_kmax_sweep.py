#!/usr/bin/env python3
"""Run the id-budget sweep experiment: PF tracker over simulated jump
scenes for k_max in {J, 2J, 4J, unbounded} on 1/2/3-speaker subsets.

Writes the full corpus/prediction/report tree under --out and prints a
mean-score table per (subset, k_max). With the default settings the
trends to look for are: AssRe and TSR degrade (recall falls, swap rate
rises) while AssPr improves as the id budget opens up.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from doatrack.cli import _sweep_plan, run_command, run_sweep  # noqa: E402
from doatrack.errors import InvalidConfig  # noqa: E402

TABLE_METRICS = ["ass_re", "ass_pr", "ass_a", "tsr", "tfr"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/kmax_sweep", help="output directory")
    parser.add_argument("--scenes", type=int, default=50, help="scenes per subset")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--speakers", type=int, nargs="+", default=[1, 2, 3], help="subset sizes J"
    )
    args = parser.parse_args()
    if args.seed < 0:  # subset j runs on seed + j, which could hide a negative seed
        raise InvalidConfig(f"seed must be an integer in [0, inf], got {args.seed}")

    spec = {
        "scenario": {
            "mode": "jump",
            "segment_len_s": [1.0, 4.0],
            "gap_len_s": [1.0, 3.0],
        },
        "observation": {"angular_noise_sigma_deg": 2.0, "p_miss": 0.02},
        "tracker": {"birth_frames": 2, "death_frames": 2},
        "gate_deg": 20.0,
        "bootstrap": {"fraction": 0.8, "replicates": 100},
    }

    out = Path(args.out)
    sweeps = [
        ({**spec, "subsets": [{"n_speakers": j, "n_scenes": args.scenes}],
          "k_max_values": [j, 2 * j, 4 * j, None]}, out / f"{j}spk", args.seed + j)
        for j in args.speakers
    ]
    for sub_spec, _sub_out, seed in sweeps:  # every subset is checked before the first write
        _sweep_plan(sub_spec, seed)
    combined: dict[str, dict] = {}
    for sub_spec, sub_out, seed in sweeps:
        combined.update(run_sweep(sub_spec, sub_out, seed, jobs=args.jobs)["subsets"])

    header = f"{'subset':>7} {'k_max':>6} " + " ".join(f"{m:>8}" for m in TABLE_METRICS)
    print(header)
    print("-" * len(header))
    for name, by_k in combined.items():
        for label, agg in by_k.items():
            cells = []
            for m in TABLE_METRICS:
                mean = agg["metrics"][m]["mean"]
                cells.append(f"{mean:8.3f}" if mean is not None else " " * 8)
            print(f"{name:>7} {label:>6} " + " ".join(cells))
    print(f"\nfull reports under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(run_command(main))
