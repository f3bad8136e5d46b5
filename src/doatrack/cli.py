"""Command-line orchestration: simulate, track, evaluate, sweep, lint.

Each command plans, then works. Its plan step is pure: configs and
arguments in, checked values out, with every config check and limit.
It raises every InvalidConfig before the first file or directory is
written, and the work step runs only what the plan returned.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3
trend-assertion failure.

Corpus layout on disk: one directory per corpus holding
``manifest.json`` (frame grid plus the generating config echo) and per
scene ``scene_NNNN.gt.csv`` / ``scene_NNNN.obs.csv``; prediction
directories hold ``scene_NNNN.pred.csv`` plus a manifest copy. All
angles in JSON configs and CSV files are degrees.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, fields, replace
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import DoatrackError, GridMismatch, InvalidConfig, ParseError, coerce
from .frame_metrics import check_ospa
from .geometry import Direction, angular_distance
from .matching import check_gate
from .reporting import (
    AGGREGATE_METRICS,
    aggregate_reports,
    check_bootstrap,
    evaluate_scene,
    report_csv_rows,
)
from .scenesim import MODES, ObservationModel, ScenarioConfig, generate_scene, simulate_observations
from .trackers import (
    MAX_ACTIVE,
    TrackerConfig,
    merger_tracker,
    oracle_tracker,
    pf_tracker,
    splitter_tracker,
    swapper_tracker,
)
from .trackmodel import (
    FrameGrid,
    open_text,
    read_manifest,
    read_observations,
    read_trackset,
    write_json,
    write_manifest,
    write_observations,
    write_trackset,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TREND = 3

DEFAULT_GATE_DEG = 20.0
DEFAULT_OSPA_CUTOFF_DEG = 30.0

MAX_SCENES = 10_000  # scene names hold four digits

# Trend directions checked by --assert-trends, per metric: +1 means the
# mean must not decrease as k_max grows, -1 must not increase.
TREND_DIRECTIONS = {"ass_re": -1, "ass_pr": +1, "tsr": +1}


def derive_seed(*key: int) -> int:
    """Deterministic child seed from a master seed and index path."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# JSON <-> config translation (degrees at the boundary)
# ---------------------------------------------------------------------------

# Radian fields and the JSON keys that carry them in degrees.
_DEGREE_KEYS = {
    "min_separation": "min_separation_deg",
    "angular_speed": "angular_speed_deg_s",
    "angular_noise_sigma": "angular_noise_sigma_deg",
    "assoc_gate": "assoc_gate_deg",
    "process_noise_sigma": "process_noise_sigma_deg",
    "likelihood_sigma": "likelihood_sigma_deg",
}

# Configs whose seed derives per scene from the master seed: not a JSON key.
_SEEDED_PER_SCENE = (ScenarioConfig, ObservationModel)

# The one JSON key, and its type, of each adversary that takes a
# parameter; the value must be > 0. The PF takes TrackerConfig's keys.
_ADVERSARY_PARAMS = {"splitter": ("k", int), "swapper": ("period_s", float)}

_SIMULATE_KEYS = ("scenario", "observation", "n_scenes", "seed")
_SWEEP_KEYS = (
    "subsets", "k_max_values", "scenario", "observation", "tracker", "gate_deg", "bootstrap",
    "seed",
)
_SUBSET_KEYS = ("name", "n_speakers", "n_scenes")
_BOOTSTRAP_KEYS = ("fraction", "replicates")


def _json_fields(cls) -> list:
    """(field, JSON key) for every field a config JSON may set."""
    return [
        (f, _DEGREE_KEYS.get(f.name, f.name))
        for f in fields(cls)
        if not (f.name == "seed" and cls in _SEEDED_PER_SCENE)
    ]


def config_from_json(cls, doc: dict, what: str):
    """Build a config dataclass from its JSON object (angles in degrees)."""
    pairs = _json_fields(cls)
    _json_object(doc, f"{what} config", [key for _f, key in pairs])
    hints = get_type_hints(cls)
    kwargs = {}
    for f, key in pairs:
        if key not in doc:
            if f.default is MISSING:
                raise InvalidConfig(f"{what} config requires {key}")
            continue
        value = coerce(doc[key], hints[f.name], key)
        kwargs[f.name] = math.radians(value) if f.name in _DEGREE_KEYS else value
    return cls(**kwargs)


def config_to_json(cfg) -> dict:
    """JSON object of a config dataclass (angles in degrees)."""
    doc = {}
    for f, key in _json_fields(type(cfg)):
        value = getattr(cfg, f.name)
        if f.name in _DEGREE_KEYS:
            value = math.degrees(value)
        doc[key] = list(value) if isinstance(value, tuple) else value
    return doc


def _json_object(value, what: str, keys=None) -> dict:
    """value, checked to be a JSON object and, when keys is given, to
    hold no other key; raises InvalidConfig naming what."""
    if not isinstance(value, dict):
        raise InvalidConfig(f"{what} must be a JSON object, got {value!r}")
    unknown = set(value) - set(value if keys is None else keys)
    if unknown:
        raise InvalidConfig(f"unknown {what} keys: {sorted(unknown)}")
    return value


def _load_json(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise InvalidConfig(f"config file not found: {path}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer too long to convert
        raise InvalidConfig(f"malformed JSON in {path}: {exc}") from exc
    return _json_object(doc, f"config {path}")


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_scene(worker, index: int, scene_id: str) -> tuple[object, str | None]:
    """(worker's result, None), or (None, failure line) if the scene's data
    or files failed. Any other exception is a fault and propagates."""
    try:
        return worker(index, scene_id), None
    except (DoatrackError, OSError) as exc:
        return None, f"{scene_id}: {type(exc).__name__}: {exc}"


def _map_scenes(worker, scene_ids: list[str], jobs: int) -> tuple[list, list[str]]:
    """Call worker(index, scene_id) per scene; return (results, failure lines).

    A scene whose data is bad gives a failure line and no result."""
    run = partial(_run_scene, worker)
    jobs = min(jobs, _available_cpus())  # never more workers than CPUs
    if jobs <= 1 or len(scene_ids) <= 1:
        outcomes = list(map(run, range(len(scene_ids)), scene_ids))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run, range(len(scene_ids)), scene_ids))
    results = [result for result, err in outcomes if err is None]
    return results, [err for _result, err in outcomes if err is not None]


def _finish(command: str, failures: list[str], done: str) -> int:
    """Print each failure and exit 2, or print the done message and exit 0."""
    for line in failures:
        print(f"{command}: FAILED {line}", file=sys.stderr)
    if failures:
        return EXIT_DATA
    print(f"{command}: {done}")
    return EXIT_OK


def _scene_name(index: int) -> str:
    return f"scene_{index:04d}"


def _list_scene_ids(directory: Path, suffix: str) -> list[str]:
    return sorted(p.name[: -len(suffix)] for p in directory.glob(f"scene_*{suffix}"))


def _int_in(value, key: str, lo: int, hi: float = math.inf) -> int:
    """value, checked to be an integer in [lo, hi]; raises InvalidConfig naming key."""
    n = coerce(value, int, key)
    if not lo <= n <= hi:
        raise InvalidConfig(f"{key} must be an integer in [{lo}, {hi}], got {n}")
    return n


def _open_corpus(directory: Path) -> tuple[FrameGrid, list[str], dict]:
    """(grid, ground-truth scene ids, scenario echo) of a corpus, its
    manifest read and checked once.

    A manifest with n_scenes names exactly scene_0000 .. scene_{n-1}; any
    other file set (left over from an earlier, larger corpus, or cut
    short) is a data error, and so is a corpus without scenes. The
    scenario echo, {} if none, is checked for the values commands read:
    n_speakers (the pf's default max_active) and min_separation_deg.
    """
    grid, manifest = read_manifest(directory / "manifest.json")
    scenario, n = manifest.get("scenario", {}), manifest.get("n_scenes")
    try:
        if _json_object(scenario, "scenario").get("n_speakers") is not None:
            _int_in(scenario["n_speakers"], "n_speakers", 1, MAX_ACTIVE)
        coerce(scenario.get("min_separation_deg", 0.0), float, "min_separation_deg")
        n = None if n is None else _int_in(n, "n_scenes", 1, MAX_SCENES)
    except InvalidConfig as exc:
        raise ParseError(f"bad manifest in {directory}: {exc}") from exc
    scene_ids = _list_scene_ids(directory, ".gt.csv")
    if not scene_ids:
        raise DoatrackError(f"no scenes found in {directory}")
    expected = scene_ids if n is None else [_scene_name(i) for i in range(n)]
    if scene_ids != expected:
        extra = sorted(set(scene_ids) - set(expected))
        missing = sorted(set(expected) - set(scene_ids))
        raise DoatrackError(
            f"{directory} does not hold the {n} scenes its manifest names: "
            f"extra {extra}, missing {missing}"
        )
    return grid, scene_ids, scenario


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _simulate_plan(scenario_doc: dict, observation_doc: dict, n_scenes, seed) -> tuple:
    """(scenario, observation model, scene count, master seed) of a corpus, checked."""
    return (
        config_from_json(ScenarioConfig, scenario_doc, "scenario"),
        config_from_json(ObservationModel, observation_doc, "observation"),
        _int_in(n_scenes, "n_scenes", 1, MAX_SCENES),
        _int_in(seed, "seed", 0),
    )


def simulate_corpus(
    scenario_doc: dict,
    observation_doc: dict,
    n_scenes: int,
    master_seed: int,
    out_dir: Path,
) -> FrameGrid:
    """Write a seeded scene corpus; per-scene seeds derive from the master.

    An earlier corpus's manifest is removed before the first scene is
    written, and the new manifest is written last: a run that fails
    leaves no manifest, so no command takes the directory for a corpus.
    """
    base, om_base, n_scenes, master_seed = _simulate_plan(
        scenario_doc, observation_doc, n_scenes, master_seed
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)
    for i in range(n_scenes):
        gt = generate_scene(replace(base, seed=derive_seed(master_seed, i, 0)))
        obs = simulate_observations(gt, replace(om_base, seed=derive_seed(master_seed, i, 1)))
        write_trackset(gt, out_dir / f"{_scene_name(i)}.gt.csv")
        write_observations(obs, out_dir / f"{_scene_name(i)}.obs.csv")
    # Scenes of an earlier, larger corpus in out_dir are no longer ours.
    for suffix in (".gt.csv", ".obs.csv"):
        for sid in _list_scene_ids(out_dir, suffix):
            index = sid[len("scene_"):]
            if index.isdecimal() and sid == _scene_name(int(index)) and int(index) >= n_scenes:
                (out_dir / f"{sid}{suffix}").unlink()
    write_manifest(
        base.grid,
        out_dir / "manifest.json",
        extra={
            "scenario": config_to_json(base),
            "observation": config_to_json(om_base),
            "n_scenes": n_scenes,
            "seed": master_seed,
        },
    )
    return base.grid


def cmd_simulate(args) -> int:
    doc = _json_object(_load_json(args.config), "simulate config", _SIMULATE_KEYS)
    corpus = (doc.get("scenario", {}), doc.get("observation", {}), doc.get("n_scenes", 1),
              doc.get("seed", 0) if args.seed is None else args.seed)
    n_scenes = _simulate_plan(*corpus)[2]
    simulate_corpus(*corpus, Path(args.out))
    print(f"simulate: wrote {n_scenes} scenes to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------


def _tracker_spec(doc: dict, default_max_active) -> tuple[str, object]:
    """(type, parameter) of a tracker config, checked once per corpus.

    The parameter is the TrackerConfig for pf, whose max_active defaults
    to default_max_active unless that is None, the splitter's k, the
    swapper's period_s, and None for oracle and merger.
    """
    ttype = coerce(_json_object(doc, "tracker config").get("type", "pf"), str, "type")
    if ttype == "pf":
        pf_doc = {k: v for k, v in doc.items() if k != "type"}
        if default_max_active is not None:
            pf_doc.setdefault("max_active", default_max_active)
        return ttype, config_from_json(TrackerConfig, pf_doc, "tracker")
    if ttype in ("oracle", "merger"):
        _json_object(doc, f"{ttype} tracker", ("type",))
        return ttype, None
    if ttype not in _ADVERSARY_PARAMS:
        raise InvalidConfig(f"unknown tracker type {ttype!r}")
    key, hint = _ADVERSARY_PARAMS[ttype]
    _json_object(doc, f"{ttype} tracker", ("type", key))
    if key not in doc:
        raise InvalidConfig(f"{ttype} config requires {key}")
    value = coerce(doc[key], hint, key)
    if not value > 0:
        raise InvalidConfig(f"{key} must be > 0, got {value}")
    return ttype, value


def _run_tracker_scene(
    scenes_dir: Path, out_dir: Path, grid: FrameGrid, ttype: str, param, index: int, scene_id: str
) -> None:
    """Worker: write one scene's prediction CSV."""
    if ttype in ("oracle", "pf"):
        obs = read_observations(scenes_dir / f"{scene_id}.obs.csv", grid)
        if ttype == "oracle":
            preds = oracle_tracker(obs)
        else:
            cfg = replace(param, seed=derive_seed(param.seed, index, 2))
            preds = pf_tracker(obs, cfg)
    else:
        gt = read_trackset(scenes_dir / f"{scene_id}.gt.csv", grid)
        if ttype == "splitter":
            preds = splitter_tracker(gt, param)
        elif ttype == "merger":
            preds = merger_tracker(gt)
        else:
            preds = swapper_tracker(gt, param)
    write_trackset(preds, out_dir / f"{scene_id}.pred.csv")


def track_corpus(scenes_dir: Path, tracker_doc: dict, out_dir: Path, jobs: int = 1) -> list[str]:
    """Run a tracker over every scene; returns per-scene failure messages.

    out_dir must not be the corpus itself: its manifest would replace
    the corpus manifest.
    """
    if out_dir.resolve() == scenes_dir.resolve():
        raise InvalidConfig(f"track --out {out_dir} is the corpus directory {scenes_dir}")
    grid, scene_ids, scenario = _open_corpus(scenes_dir)
    # Parsed once; per-scene workers only derive their seeds from it.
    ttype, param = _tracker_spec(tracker_doc, scenario.get("n_speakers"))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(grid, out_dir / "manifest.json")
    worker = partial(_run_tracker_scene, scenes_dir, out_dir, grid, ttype, param)
    return _map_scenes(worker, scene_ids, jobs)[1]


def cmd_track(args) -> int:
    failures = track_corpus(Path(args.scenes), _load_json(args.config), Path(args.out), args.jobs)
    return _finish("track", failures, f"predictions written to {args.out}")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _score_scene(gt_dir, pred_dir, grid, gate, cutoff, order, _index, scene_id):
    """Worker: the metrics report of one scene's prediction CSV."""
    gts = read_trackset(gt_dir / f"{scene_id}.gt.csv", grid)
    preds = read_trackset(pred_dir / f"{scene_id}.pred.csv", grid)
    return evaluate_scene(scene_id, gts, preds, gate, cutoff, order)


def evaluate_corpus(
    gt_dir: Path,
    pred_dir: Path,
    gate: float,
    out_dir: Path | None,
    ospa_cutoff: float = math.radians(DEFAULT_OSPA_CUTOFF_DEG),
    ospa_order: float = 1.0,
    fraction: float = 0.8,
    replicates: int = 100,
    seed: int = 0,
    jobs: int = 1,
):
    """Evaluate a prediction corpus against its ground truths.

    Returns (reports, aggregate, failures); writes per_scene.csv and
    aggregate.json to out_dir when given. The gate, OSPA and bootstrap
    parameters and the seed are checked before any file is read, and the
    prediction manifest's frame grid before any scene, so a bad value is
    one error, not one failure per scene.
    """
    check_gate(gate)
    check_ospa(ospa_cutoff, ospa_order)
    check_bootstrap(fraction, replicates)
    seed = _int_in(seed, "seed", 0)
    grid, gt_ids, _scenario = _open_corpus(gt_dir)
    pred_manifest = pred_dir / "manifest.json"
    if pred_manifest.exists():
        pred_grid = read_manifest(pred_manifest)[0]
        if pred_grid != grid:
            raise GridMismatch(
                f"prediction grid {pred_grid} of {pred_dir} != ground-truth grid {grid}"
            )
    pred_ids = _list_scene_ids(pred_dir, ".pred.csv")
    if gt_ids != pred_ids:
        missing = sorted(set(gt_ids) ^ set(pred_ids))
        raise DoatrackError(f"scene sets differ between {gt_dir} and {pred_dir}: {missing}")
    worker = partial(_score_scene, gt_dir, pred_dir, grid, gate, ospa_cutoff, ospa_order)
    reports, failures = _map_scenes(worker, gt_ids, jobs)
    aggregate = aggregate_reports(reports, fraction, replicates, seed) if reports else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open_text(out_dir / "per_scene.csv", "w") as stream:
            stream.write(report_csv_rows(reports))
        if aggregate is not None:
            write_json({**aggregate, "gate_deg": math.degrees(gate)}, out_dir / "aggregate.json")
    return reports, aggregate, failures


def cmd_evaluate(args) -> int:
    reports, _agg, failures = evaluate_corpus(
        Path(args.gt),
        Path(args.pred),
        math.radians(args.gate_deg),
        Path(args.out) if args.out else None,
        ospa_cutoff=math.radians(args.ospa_cutoff_deg),
        ospa_order=args.ospa_order,
        replicates=args.replicates,
        seed=args.seed if args.seed is not None else 0,
        jobs=args.jobs,
    )
    return _finish("evaluate", failures, f"{len(reports)} scenes evaluated")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def check_trends(by_k: dict[str, dict], labels: list[str]) -> list[str]:
    """Trend violations for one subset across an ordered k_max list, from
    its aggregate per k_max label.

    Requires strict ordering between the endpoints in the metric's
    direction and tolerates adjacent inversions up to one bootstrap std.
    """
    problems = []
    for metric, direction in TREND_DIRECTIONS.items():
        entries = [by_k[label]["metrics"][metric] for label in labels]
        series, sd = [e["mean"] for e in entries], [e["std"] for e in entries]
        if len(series) < 2 or any(v is None for v in series):
            problems.append(f"{metric}: series undefined or too short")
            continue
        first, last = series[0], series[-1]
        if direction * (last - first) <= 0:
            problems.append(
                f"{metric}: endpoints not strictly ordered "
                f"({labels[0]}={first:.4f} vs {labels[-1]}={last:.4f})"
            )
        for i in range(len(series) - 1):
            margin = max(sd[i] or 0.0, sd[i + 1] or 0.0)
            if direction * (series[i + 1] - series[i]) < -margin:
                problems.append(
                    f"{metric}: inversion beyond noise margin between "
                    f"{labels[i]} ({series[i]:.4f}) and {labels[i+1]} ({series[i+1]:.4f})"
                )
    return problems


def _sweep_plan(doc: dict, master_seed) -> tuple:
    """The checked sweep: (master seed, gate, bootstrap fraction,
    replicates, k_max labels, subsets).

    Each subset is (name, simulate_corpus's arguments before out_dir,
    cells), and each cell is (k_max label, tracker doc with k_max and
    seed, evaluation seed). Every corpus and cell is checked by the plan
    functions simulate_corpus and track_corpus run on them.
    """
    _json_object(doc, "sweep config", _SWEEP_KEYS)
    master_seed = _int_in(master_seed, "seed", 0)
    subsets, k_values = doc.get("subsets"), doc.get("k_max_values")
    if not subsets or not isinstance(subsets, list):
        raise InvalidConfig("sweep config requires a non-empty subsets list")
    if not k_values or not isinstance(k_values, list):
        raise InvalidConfig("sweep config requires a non-empty k_max_values list")
    scenario_doc = _json_object(doc.get("scenario", {}), "sweep scenario")
    observation_doc = doc.get("observation", {})
    tracker_doc = {"type": "pf", **_json_object(doc.get("tracker", {}), "sweep tracker")}
    if tracker_doc["type"] != "pf":
        raise InvalidConfig("sweep supports only the pf tracker")
    gate = math.radians(coerce(doc.get("gate_deg", DEFAULT_GATE_DEG), float, "gate_deg"))
    check_gate(gate)
    boot = _json_object(doc.get("bootstrap", {}), "sweep bootstrap", _BOOTSTRAP_KEYS)
    fraction = coerce(boot.get("fraction", 0.8), float, "fraction")
    replicates = coerce(boot.get("replicates", 100), int, "replicates")
    check_bootstrap(fraction, replicates)
    labels = ["inf" if k is None else str(coerce(k, int, "k_max")) for k in k_values]
    if len(set(labels)) < len(labels):
        raise InvalidConfig(f"k_max_values name one cell twice: {labels}")
    planned: dict[str, tuple] = {}
    for si, sub in enumerate(subsets):
        _json_object(sub, "sweep subset", _SUBSET_KEYS)
        n_speakers = coerce(sub.get("n_speakers"), int, "n_speakers")
        name = coerce(sub.get("name", f"{n_speakers}spk"), str, "name")
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise InvalidConfig(f"subset name {name!r} is not one plain path component")
        if name in planned:
            raise InvalidConfig(f"two subsets are named {name!r}")
        scenario = {**scenario_doc, "n_speakers": n_speakers}
        corpus_seed = derive_seed(master_seed, si, 10)
        corpus = _simulate_plan(scenario, observation_doc, sub.get("n_scenes", 150), corpus_seed)
        cells = []
        for ki, (k, label) in enumerate(zip(k_values, labels)):
            tracker = {"seed": derive_seed(master_seed, si, ki, 11), **tracker_doc, "k_max": k}
            _tracker_spec(tracker, n_speakers)
            cells.append((label, tracker, derive_seed(master_seed, si, ki, 12)))
        planned[name] = (scenario, observation_doc, corpus[2], corpus_seed), cells
    return master_seed, gate, fraction, replicates, labels, planned


def run_sweep(doc: dict, out_dir: Path, master_seed: int, jobs: int = 1) -> dict:
    """Simulate per-subset corpora, run the PF tracker per k_max value,
    evaluate, and aggregate into plot-ready tables: exactly the corpora
    and cells of the sweep's plan, all checked before the first write."""
    master_seed, gate, fraction, replicates, labels, planned = _sweep_plan(doc, master_seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    results: dict[str, dict] = {}
    long_rows = ["subset,k_max,metric,mean,std"]
    for name, (corpus, cells) in planned.items():
        scenes_dir = out_dir / name / "scenes"
        simulate_corpus(*corpus, scenes_dir)
        results[name] = {}
        for label, tracker, eval_seed in cells:
            cell_dir = out_dir / name / f"kmax_{label}"
            failures = track_corpus(scenes_dir, tracker, cell_dir / "preds", jobs)
            if failures:
                raise DoatrackError(
                    f"sweep cell {name}/kmax_{label} had failures: {failures[:3]}"
                )
            _reports, aggregate, eval_failures = evaluate_corpus(
                scenes_dir,
                cell_dir / "preds",
                gate,
                cell_dir / "eval",
                fraction=fraction,
                replicates=replicates,
                seed=eval_seed,
                jobs=jobs,
            )
            if eval_failures:
                raise DoatrackError(
                    f"sweep cell {name}/kmax_{label} evaluation failed: {eval_failures[:3]}"
                )
            results[name][label] = aggregate
            for metric in AGGREGATE_METRICS:
                entry = aggregate["metrics"][metric]
                mean = "" if entry["mean"] is None else repr(entry["mean"])
                std = "" if entry["std"] is None else repr(entry["std"])
                long_rows.append(f"{name},{label},{metric},{mean},{std}")
    with open_text(out_dir / "sweep_long.csv", "w") as stream:
        stream.write("\n".join(long_rows) + "\n")
    summary = {
        "seed": master_seed,
        "gate_deg": math.degrees(gate),
        "k_max_values": labels,
        "subsets": results,
    }
    write_json(summary, out_dir / "sweep.json")
    return summary


def cmd_sweep(args) -> int:
    doc = _load_json(args.config)
    master = doc.get("seed", 0) if args.seed is None else args.seed
    summary = run_sweep(doc, Path(args.out), master, args.jobs)
    print(f"sweep: results written to {args.out}")
    if not args.assert_trends:
        return EXIT_OK
    all_problems = [
        f"{name}: {p}"
        for name, by_k in summary["subsets"].items()
        for p in check_trends(by_k, summary["k_max_values"])
    ]
    for p in all_problems:
        print(f"sweep: TREND VIOLATION {p}", file=sys.stderr)
    return EXIT_TREND if all_problems else EXIT_OK


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------


def _lint_scene(scenes_dir, grid, mode, min_sep, _index, sid) -> list[str]:
    """Worker: the problems of one ground-truth CSV that parses, per track
    in the order of the tracks' first rows, once its observation CSV, if
    any, parses too."""
    ts = read_trackset(scenes_dir / f"{sid}.gt.csv", grid)
    obs = scenes_dir / f"{sid}.obs.csv"
    if obs.exists():
        read_observations(obs, grid)
    problems = []
    if mode in ("jump", "static"):
        for code in dict.fromkeys(ts.id_code.tolist()):
            tid, rows = ts.ids[code], np.flatnonzero(ts.id_code == code)
            az, el = ts.azimuth[rows], ts.elevation[rows]
            run_starts = np.flatnonzero(np.diff(ts.frame[rows]) != 1) + 1
            moved = (az[1:] != az[:-1]) | (el[1:] != el[:-1])
            moved[run_starts - 1] = False  # a new run may start anywhere
            if moved.any():
                problems.append(f"{sid}/{tid}: direction varies within an active run")
            if mode == "jump" and min_sep > 0:
                starts = np.r_[0, run_starts]
                unique = dict.fromkeys(zip(az[starts].tolist(), el[starts].tolist()))
                # 1e-6 rad absorbs the 6-decimal CSV quantization
                if any(angular_distance(Direction(*a), Direction(*b)) < min_sep - 1e-6
                       for a, b in combinations(unique, 2)):
                    problems.append(f"{sid}/{tid}: positions closer than the minimum separation")
    return problems


def lint_corpus(scenes_dir: Path) -> list[str]:
    """Validate a corpus: the scene set its manifest names, parseable
    files, in-range frames, and for jump/static corpora piecewise-constant
    directions within each maximal active run plus candidate-separation
    on jump tracks."""
    grid, scene_ids, scenario = _open_corpus(scenes_dir)
    mode = scenario.get("mode")
    if mode is not None and mode not in MODES:
        raise ParseError(f"bad manifest in {scenes_dir}: mode {mode!r} is not one of {MODES}")
    min_sep = math.radians(scenario.get("min_separation_deg", 0.0))
    worker = partial(_lint_scene, scenes_dir, grid, mode, min_sep)
    results, failures = _map_scenes(worker, scene_ids, 1)
    return failures + [problem for problems in results for problem in problems]


def cmd_lint(args) -> int:
    return _finish("lint", lint_corpus(Path(args.scenes)), "corpus OK")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doatrack",
        description="Simulate DoA tracking scenes, run baseline trackers, and "
        "evaluate identity-assignment metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a seeded scene corpus")
    p_sim.add_argument("--config", required=True, help="scenario/observation JSON")
    p_sim.add_argument("--out", required=True, help="output corpus directory")
    p_sim.add_argument("--seed", type=int, default=None, help="master seed override")
    p_sim.set_defaults(func=cmd_simulate)

    p_trk = sub.add_parser("track", help="run a tracker over a corpus")
    p_trk.add_argument("--config", required=True, help="tracker JSON")
    p_trk.add_argument("--scenes", required=True, help="corpus directory")
    p_trk.add_argument("--out", required=True, help="prediction output directory")
    p_trk.add_argument("--jobs", type=int, default=1)
    p_trk.set_defaults(func=cmd_track)

    p_eval = sub.add_parser("evaluate", help="compute per-scene and aggregate metrics")
    p_eval.add_argument("--gt", required=True, help="ground-truth corpus directory")
    p_eval.add_argument("--pred", required=True, help="prediction directory")
    p_eval.add_argument("--out", default=None, help="report output directory")
    p_eval.add_argument("--gate-deg", type=float, default=DEFAULT_GATE_DEG)
    p_eval.add_argument("--ospa-cutoff-deg", type=float, default=DEFAULT_OSPA_CUTOFF_DEG)
    p_eval.add_argument("--ospa-order", type=float, default=1.0)
    p_eval.add_argument("--replicates", type=int, default=100, help="bootstrap replicates")
    p_eval.add_argument("--seed", type=int, default=None, help="bootstrap seed")
    p_eval.add_argument("--jobs", type=int, default=1)
    p_eval.set_defaults(func=cmd_evaluate)

    p_swp = sub.add_parser("sweep", help="k_max sweep over simulated subsets")
    p_swp.add_argument("--config", required=True, help="sweep spec JSON")
    p_swp.add_argument("--out", required=True)
    p_swp.add_argument("--seed", type=int, default=None, help="master seed override")
    p_swp.add_argument("--jobs", type=int, default=1)
    p_swp.add_argument(
        "--assert-trends",
        action="store_true",
        help="exit 3 unless AssRe/AssPr/TSR move monotonically with k_max",
    )
    p_swp.set_defaults(func=cmd_sweep)

    p_lint = sub.add_parser("lint", help="validate a corpus directory")
    p_lint.add_argument("--scenes", required=True)
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except InvalidConfig as exc:
        print(f"doatrack: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DoatrackError, OSError) as exc:
        print(f"doatrack: data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
