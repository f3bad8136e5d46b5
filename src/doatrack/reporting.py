"""Per-scene metric reports and corpus-level aggregation.

Undefined per-scene metrics (e.g. association scores on a scene with no
TPs) are carried as None, written as empty CSV cells, and excluded from
aggregate means with their exclusion count reported; they are never
coerced to 0, which would silently bias subset means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assoc_metrics import association_scores
from .errors import InsufficientData, InvalidConfig
from .frame_metrics import FrameMetricsReport, frame_metrics_report
from .matching import match_sequence
from .trackmodel import TrackSet

# One row per reported metric: per_scene.csv column, MetricsReport
# attribute (angles leave in degrees), written to per_scene.csv,
# aggregated. Columns and aggregates keep table order; aggregation order
# is the order the bootstrap generator is consumed in.
METRICS = [
    ("scene_id", "scene_id", True, False),
    ("n_tp", "n_tp", True, False),
    ("n_fp", "n_fp", True, False),
    ("n_fn", "n_fn", True, False),
    ("tsr", "tsr", True, True),
    ("tfr", "tfr", True, True),
    ("idsw", "n_swaps", True, True),
    ("mota", "mota", True, True),
    ("ospa_mean", "ospa_mean_deg", True, True),
    ("mean_loc_error_deg", "mean_loc_error_deg", True, True),
    ("ass_a", "ass_a", True, True),
    ("ass_pr", "ass_pr", True, True),
    ("ass_re", "ass_re", True, True),
    ("tsr_per_track", "tsr_per_track", False, True),
    ("tfr_per_track", "tfr_per_track", False, True),
]
REPORT_COLUMNS = [column for column, _attr, in_csv, _agg in METRICS if in_csv]
AGGREGATE_METRICS = {column: attr for column, attr, _csv, agg in METRICS if agg}
_CSV_ATTRS = [attr for _column, attr, in_csv, _agg in METRICS if in_csv]


@dataclass(frozen=True)
class MetricsReport(FrameMetricsReport):
    """All scalar metric outputs for one scene: the frame-level report
    plus the scene id and the association scores (None without TPs)."""

    scene_id: str
    ass_a: float | None
    ass_pr: float | None
    ass_re: float | None

    @property
    def ospa_mean_deg(self) -> float | None:
        return None if self.ospa_mean is None else math.degrees(self.ospa_mean)

    @property
    def mean_loc_error_deg(self) -> float | None:
        return None if self.mean_loc_error is None else math.degrees(self.mean_loc_error)


def evaluate_scene(
    scene_id: str,
    gts: TrackSet,
    preds: TrackSet,
    gate: float,
    ospa_cutoff: float = math.radians(30.0),
    ospa_order: float = 1.0,
) -> MetricsReport:
    """Match one scene and compute every frame-level and association metric."""
    ms = match_sequence(preds, gts, gate)
    fm = frame_metrics_report(ms, gts, ospa_cutoff, ospa_order)
    assoc = association_scores(ms)
    ass = vars(assoc) if assoc is not None else dict.fromkeys(("ass_a", "ass_pr", "ass_re"))
    return MetricsReport(**vars(fm), **ass, scene_id=scene_id)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def report_csv_rows(reports: list[MetricsReport]) -> str:
    """Per-scene table, sorted by scene id; repr floats round-trip exactly."""
    lines = [",".join(REPORT_COLUMNS)]
    for r in sorted(reports, key=lambda r: r.scene_id):
        lines.append(",".join(_cell(getattr(r, attr)) for attr in _CSV_ATTRS))
    return "\n".join(lines) + "\n"


def check_bootstrap(fraction: float, replicates: int) -> None:
    """Raise InvalidConfig (a ValueError) unless fraction lies in (0, 1] and replicates >= 0."""
    if not 0.0 < fraction <= 1.0:
        raise InvalidConfig(f"bootstrap fraction must lie in (0, 1], got {fraction!r}")
    if not replicates >= 0:
        raise InvalidConfig(f"bootstrap replicates must be >= 0, got {replicates!r}")


def bootstrap_aggregate(
    values,
    fraction: float = 0.8,
    replicates: int = 100,
    rng: np.random.Generator | None = None,
) -> tuple[float, float | None]:
    """Mean and std of subsample means.

    Each replicate draws ceil(fraction * n) values without replacement;
    the return is (mean of replicate means, std of replicate means).
    With replicates == 0 the plain mean is returned with std None.

    Raises InsufficientData with fewer than two values, and
    InvalidConfig unless check_bootstrap accepts fraction and replicates.
    """
    vals = np.asarray(list(values), dtype=float)
    if len(vals) < 2:
        raise InsufficientData(f"need >= 2 values, got {len(vals)}")
    check_bootstrap(fraction, replicates)
    if replicates == 0:
        return float(vals.mean()), None
    if rng is None:
        rng = np.random.default_rng(0)
    n = len(vals)
    m = math.ceil(fraction * n)
    # one index draw per replicate consumes rng as drawing the values would
    idx = np.empty((replicates, m), dtype=np.intp)
    for i in range(replicates):
        idx[i] = rng.choice(n, size=m, replace=False)
    means = vals[idx].mean(axis=1)
    return float(means.mean()), float(means.std())


def aggregate_reports(
    reports: list[MetricsReport],
    fraction: float = 0.8,
    replicates: int = 100,
    seed: int = 0,
) -> dict:
    """Aggregate a corpus of per-scene reports into mean/std per metric.

    The bootstrap generator is seeded once and consumed in fixed metric
    order, so the output is deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    out: dict[str, dict] = {}
    for metric, attr in AGGREGATE_METRICS.items():
        raw = [getattr(r, attr) for r in reports]
        defined = [float(v) for v in raw if v is not None]
        excluded = len(raw) - len(defined)
        if len(defined) == 0:
            entry = {"mean": None, "std": None}
        elif len(defined) == 1:
            entry = {"mean": defined[0], "std": None}
        else:
            mean, std = bootstrap_aggregate(defined, fraction, replicates, rng)
            entry = {"mean": mean, "std": std}
        entry["n_defined"] = len(defined)
        entry["n_excluded"] = excluded
        out[metric] = entry
    return {
        "n_scenes": len(reports),
        "bootstrap": {"fraction": fraction, "replicates": replicates, "seed": seed},
        "metrics": out,
    }
