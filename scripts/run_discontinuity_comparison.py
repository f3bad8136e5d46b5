#!/usr/bin/env python3
"""Compare PF identity metrics on continuous vs discontinuous tracks.

Three single-speaker scene families share one observation model and one
tracker profile:

  moving   continuously moving source, always active (continuous track);
  zeroed   the same trajectory with activity deleted on random windows,
           so the source moves while silent (discontinuous);
  jump     static-while-speaking source relocating during each silence
           (strongly discontinuous).

Each family is a one-cell sweep (k_max unbounded) written under
--out/<family>/. The sweeps share the master seed, so every scene,
observation and PF seed is shared across families. The table prints
each sweep's bootstrap means and its share of scenes with TSR = 0.

Expected pattern: TSR = 0 on most moving scenes, then swap rate rises
and association recall falls as discontinuity grows.
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from doatrack.cli import run_command, run_sweep  # noqa: E402

SEGMENTS = {"segment_len_s": [1.0, 4.0], "gap_len_s": [0.2, 1.2]}
VARIANTS = {
    "moving": {"mode": "moving", "angular_speed_deg_s": 30},
    "zeroed": {"mode": "moving_zeroed", "angular_speed_deg_s": 30, **SEGMENTS},
    "jump": {"mode": "jump", **SEGMENTS},
}
TABLE_METRICS = ["tsr", "tfr", "ass_re", "ass_pr"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/discontinuity", help="output directory")
    parser.add_argument("--scenes", type=int, default=40)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--gate-deg", type=float, default=20.0)
    args = parser.parse_args()

    spec = {
        "subsets": [{"n_speakers": 1, "n_scenes": args.scenes}],
        "k_max_values": [None],
        "observation": {"angular_noise_sigma_deg": 1.5, "p_miss": 0.02, "clutter_rate": 0.0},
        "tracker": {
            "birth_frames": 2,
            "death_frames": 12,
            "process_noise_sigma_deg": 4,
            "likelihood_sigma_deg": 3,
        },
        "gate_deg": args.gate_deg,
    }

    out = Path(args.out)
    rows = []
    for name, scenario in VARIANTS.items():
        summary = run_sweep({**spec, "scenario": scenario}, out / name, args.seed)
        metrics = summary["subsets"]["1spk"]["inf"]["metrics"]
        means = (metrics[m]["mean"] for m in TABLE_METRICS)
        cells = " ".join(" " * 7 if v is None else f"{v:7.3f}" for v in means)
        with open(out / name / "1spk" / "kmax_inf" / "eval" / "per_scene.csv") as stream:
            tsrs = [float(row["tsr"]) for row in csv.DictReader(stream)]
        rows.append(f"{name:>8} {cells} {tsrs.count(0.0) / len(tsrs):6.0%}")

    print(f"{'variant':>8} {'TSR':>7} {'TFR':>7} {'AssRe':>7} {'AssPr':>7} {'TSR=0':>6}")
    print("\n".join(rows))
    print(f"\nfull reports under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(run_command(main))
