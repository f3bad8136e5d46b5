"""The benchmark's workloads: inputs made from a seed, and one round of work.

A round is one closed batch call into the package: one ``run_sweep`` for
the sweep workloads, four ``evaluate_corpus`` calls for
``evaluate_adversaries``. A workload has ``corpora`` distinct inputs per
seed and round r uses input r mod ``corpora``: a run covers more scenes
than one round holds, which keeps the seed's share of the run-to-run
spread small, while every repeat of an input can be compared with its
first round and with a stored reference.

A cell is one corpus under one tracker config (one sweep k_max value, or
one prediction set); a scene-cell is one scene of a cell.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

SCENARIO = {"mode": "jump", "segment_len_s": [1.0, 4.0], "gap_len_s": [1.0, 3.0]}
NOISE_DEG = 2.0
GATE_DEG = 20.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Cell:
    """Where one cell's inputs and outputs live inside a round."""

    scenes_dir: Path
    pred_dir: Path
    eval_dir: Path

    def key(self, out: Path) -> str:
        """The cell's name in checks and failure counts: its eval dir under out."""
        return self.eval_dir.relative_to(out).as_posix()


@dataclass(frozen=True)
class SweepWorkload:
    """``run_sweep`` over one jump-mode subset and a k_max ladder."""

    name: str
    n_speakers: int
    p_miss: float
    clutter_rate: float
    k_max_values: tuple
    n_scenes: int
    corpora: int
    max_jobs: int = 1

    @property
    def jobs(self) -> int:
        return min(nproc(), self.max_jobs)

    @property
    def cells_per_round(self) -> int:
        return self.n_scenes * len(self.k_max_values)

    def spec(self) -> dict:
        observation = {"angular_noise_sigma_deg": NOISE_DEG, "p_miss": self.p_miss}
        if self.clutter_rate:
            observation["clutter_rate"] = self.clutter_rate
        return {
            "subsets": [{"n_speakers": self.n_speakers, "n_scenes": self.n_scenes}],
            "k_max_values": list(self.k_max_values),
            "scenario": dict(SCENARIO),
            "observation": observation,
            "tracker": {"birth_frames": 2, "death_frames": 2},
            "gate_deg": GATE_DEG,
            "bootstrap": {"fraction": 0.8, "replicates": 100},
        }

    def setup(self, cli, inputs: Path, seed: int) -> dict:
        return {"spec": self.spec(), "seed": seed}

    def run(self, cli, state: dict, out: Path, index: int) -> set[tuple[str, str]]:
        master = cli.derive_seed(state["seed"], index % self.corpora)
        # Resolved through the module at call time, so a tracer sees it.
        try:
            cli.run_sweep(state["spec"], out, master, self.jobs)
        except cli.DoatrackError:
            # run_sweep stops at the first failed cell: count every scene-cell.
            scenes = [cli._scene_name(i) for i in range(self.n_scenes)]
            return {(cell.key(out), sid) for cell in self.cells(state, out, index)
                    for sid in scenes}
        return set()

    def cells(self, state: dict, out: Path, index: int) -> list[Cell]:
        subset = out / f"{self.n_speakers}spk"
        labels = ["inf" if k is None else str(k) for k in self.k_max_values]
        cell_dirs = [subset / f"kmax_{lab}" for lab in labels]
        return [Cell(subset / "scenes", d / "preds", d / "eval") for d in cell_dirs]

    def summary_files(self, out: Path) -> list[Path]:
        return [out / "sweep_long.csv", out / "sweep.json"]


ADVERSARY_TRACKERS = {
    "oracle": {"type": "oracle"},
    "splitter": {"type": "splitter", "k": 3},
    "swapper": {"type": "swapper", "period_s": 2.0},
    "merger": {"type": "merger"},
}


@dataclass(frozen=True)
class EvaluateWorkload:
    """``evaluate_corpus`` alone over prediction sets made in set-up."""

    name: str
    n_speakers: int
    p_miss: float
    clutter_rate: float
    n_scenes: int
    corpora: int = 1

    @property
    def jobs(self) -> int:
        return 1

    @property
    def cells_per_round(self) -> int:
        return self.n_scenes * len(ADVERSARY_TRACKERS)

    def setup(self, cli, inputs: Path, seed: int) -> dict:
        corpora = []
        for c in range(self.corpora):
            scenes = inputs / f"corpus{c}" / "scenes"
            cli.simulate_corpus(
                {**SCENARIO, "n_speakers": self.n_speakers},
                {
                    "angular_noise_sigma_deg": NOISE_DEG,
                    "p_miss": self.p_miss,
                    "clutter_rate": self.clutter_rate,
                },
                self.n_scenes,
                cli.derive_seed(seed, c),
                scenes,
            )
            preds = {}
            for name, doc in ADVERSARY_TRACKERS.items():
                preds[name] = scenes.parent / f"preds_{name}"
                failures = cli.track_corpus(scenes, doc, preds[name])
                if failures:
                    raise RuntimeError(f"set-up of {name} predictions failed: {failures[:3]}")
            corpora.append({"scenes": scenes, "preds": preds})
        return {"corpora": corpora}

    def run(self, cli, state: dict, out: Path, index: int) -> set[tuple[str, str]]:
        corpus = state["corpora"][index % self.corpora]
        failed = set()
        for name, pred_dir in corpus["preds"].items():
            try:
                _reports, _agg, fails = cli.evaluate_corpus(
                    corpus["scenes"], pred_dir, math.radians(GATE_DEG), out / name
                )
            except cli.DoatrackError:
                fails = cli._list_scene_ids(corpus["scenes"], ".gt.csv")
            # A failure message starts with its scene id: "scene_0003: ...".
            failed.update((name, msg.split(":", 1)[0]) for msg in fails)
        return failed

    def cells(self, state: dict, out: Path, index: int) -> list[Cell]:
        corpus = state["corpora"][index % self.corpora]
        return [Cell(corpus["scenes"], pred, out / name) for name, pred in corpus["preds"].items()]

    def summary_files(self, out: Path) -> list[Path]:
        return []


# Rounds hold far fewer scenes than the 150 per subset of the full spec, so
# what a corpus call pays once (the bootstrap in aggregate_reports, and with
# jobs=2 a new process pool) weighs more per scene-cell than in a full sweep.
# sweep_2spk_jobs2 holds 12 scenes so that the pool's share stays close to a
# full sweep's: relative to jobs=1, its wall time per cell on a 2-core host
# was 0.76 at 6 scenes, 0.63 at 12, and 0.61 at 24 and 48.
WORKLOADS = {
    w.name: w
    for w in [
        SweepWorkload("sweep_3spk_clutter", 3, 0.05, 0.3, (3, 6, 12, None), n_scenes=2,
                      corpora=10),
        EvaluateWorkload("evaluate_adversaries", 3, 0.05, 0.3, n_scenes=6, corpora=4),
        SweepWorkload("sweep_2spk_jobs2", 2, 0.05, 0.3, (2, 4, 8, None), n_scenes=12,
                      corpora=3, max_jobs=2),
    ]
}
