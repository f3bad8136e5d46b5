"""Frame-level identity and detection metrics.

Swaps and identity switches share one counting rule: for each
ground-truth id, walk its matched frames in time order and count every
change of the matched prediction id relative to the most recent matched
frame. The reference is carried across gaps (frames where the ground
truth is inactive or unmatched do not reset it): an id change across a
silence is exactly the failure mode of discontinuous tracks, and
resetting at gaps would hide it from the swap rate.

A broken track is a TP -> FN transition while the ground truth stays
active; inactivity is not an FN. Rates normalize by scene duration
(the per-ground-truth-track normalization is also provided, but the
per-scene one is primary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidConfig, UndefinedOnEmptyGroundTruth, UndefinedOnEmptyTP
from .geometry import Direction, pairwise_angular_distance, unit_vectors
from .matching import MatchSequence
from .trackmodel import TrackSet


def count_swaps(ms: MatchSequence) -> int:
    """Changes of matched prediction id per ground-truth track, summed.

    Comparisons span gaps: the reference prediction id for a ground
    truth persists through frames where it is inactive or unmatched.
    """
    m = ms.matches
    order = np.argsort(m.tp_gt, kind="stable")  # per gt, its TPs in frame order
    gt, pred = m.tp_gt[order], m.tp_pred[order]
    return int(np.count_nonzero((gt[1:] == gt[:-1]) & (pred[1:] != pred[:-1])))


def count_broken(ms: MatchSequence, gts: TrackSet) -> int:
    """(gt, frame) pairs that are matched at f and FN at f+1 while active."""
    m, cols = ms.matches, gts.columns
    n_ids = max(len(cols.ids), 1)
    code_of = {g: i for i, g in enumerate(cols.ids)}
    code = np.array([code_of.get(g, -1) for g in m.gt_ids], dtype=np.int64)[m.tp_gt]
    known = code >= 0
    # (frame, gt) pairs as frame * n_ids + gt code
    matched = np.unique(m.tp_frame[known].astype(np.int64) * n_ids + code[known])
    active = cols.frame.astype(np.int64) * n_ids + cols.id_code
    following = matched + n_ids
    return int(np.count_nonzero(
        np.isin(following, active) & ~np.isin(following, matched)
    ))


def tsr(n_swaps: int, duration_s: float) -> float:
    """Track swap rate, swaps per second of scene."""
    if not duration_s > 0:
        raise ValueError("duration must be > 0")
    return n_swaps / duration_s


def tfr(n_swaps: int, n_broken: int, duration_s: float) -> float:
    """Track fragmentation rate, (swaps + broken) per second of scene."""
    if not duration_s > 0:
        raise ValueError("duration must be > 0")
    return (n_swaps + n_broken) / duration_s


def mota(n_fn: int, n_fp: int, n_idsw: int, n_gt_detections: int) -> float:
    """1 - (FN + FP + IDSW) / total ground-truth detections.

    Exact rational arithmetic, rounded once, so hand-computed values
    compare bit-equal.
    """
    if n_gt_detections <= 0:
        raise UndefinedOnEmptyGroundTruth("no ground-truth detections")
    return float(1 - Fraction(n_fn + n_fp + n_idsw, n_gt_detections))


def check_ospa(cutoff: float, order: float) -> None:
    """Raise InvalidConfig (a ValueError) unless cutoff lies in (0, pi] and order >= 1."""
    if not 0.0 < cutoff <= math.pi:
        raise InvalidConfig(
            f"OSPA cutoff must lie in (0, 180] degrees, got {math.degrees(cutoff)!r}"
        )
    if not order >= 1:
        raise InvalidConfig(f"OSPA order must be >= 1, got {order!r}")


def _ospa_local(dist: np.ndarray, cutoff: float, order: float) -> np.ndarray:
    """Optimal assignment cost of each frame of a stack of same-shape frames.

    The assignment solver runs once per frame, and only when some side
    has more than one entry: a 1x1 frame's only injection is its pair.
    """
    cost = np.minimum(dist, cutoff) ** order
    k, n_pred, n_gt = cost.shape
    if n_pred == n_gt == 1:
        return cost[:, 0, 0]
    solved = np.array([linear_sum_assignment(c) for c in cost])  # (k, 2, min side)
    return cost[np.arange(k)[:, None], solved[:, 0], solved[:, 1]].sum(axis=1)


def _ospa_values(n_pred, n_gt, local, cutoff: float, order: float) -> list[float]:
    """OSPA of frames from their cardinalities and assignment costs.

    The last power is taken in Python: numpy's power with a scalar
    exponent of 0.5 or 2 does not round as pow does.
    """
    n, m = np.maximum(n_pred, n_gt), np.minimum(n_pred, n_gt)
    base = (local + cutoff**order * (n - m)) / n
    return [
        cutoff if one_sided else b ** (1.0 / order)
        for one_sided, b in zip((m == 0).tolist(), base.tolist())
    ]


def ospa_frame(
    preds: list[Direction],
    gts: list[Direction],
    cutoff: float,
    order: float = 1.0,
) -> float:
    """Optimal subpattern assignment distance between two direction sets.

    With m = min cardinality, n = max cardinality and n > 0:
        ( (1/n) [ min over injections sum min(d, cutoff)^p
                  + cutoff^p * (n - m) ] )^(1/p)
    Returns 0 when both sets are empty. Symmetric; result in [0, cutoff].
    """
    check_ospa(cutoff, order)
    if not preds and not gts:
        return 0.0
    local = np.zeros(1)
    if preds and gts:
        dist = pairwise_angular_distance(unit_vectors(preds), unit_vectors(gts))
        local = _ospa_local(dist[None], cutoff, order)
    return _ospa_values(np.array([len(preds)]), np.array([len(gts)]), local, cutoff, order)[0]


def ospa_sequence(ms: MatchSequence, cutoff: float, order: float = 1.0) -> float | None:
    """Per-frame OSPA averaged over frames where either set is non-empty.

    Reads the distance table match_sequence stored on ms. None when no
    frame has any active entity.
    """
    check_ospa(cutoff, order)
    table = ms.distances
    if table is None:
        raise ValueError("OSPA needs the distance table of a sequence built by match_sequence")
    local = np.zeros(len(table.n_pred))
    for group in table.groups:
        local[group.frames] = _ospa_local(group.dist, cutoff, order)
    present = np.flatnonzero((table.n_pred > 0) | (table.n_gt > 0))
    if not len(present):
        return None
    values = _ospa_values(
        table.n_pred[present], table.n_gt[present], local[present], cutoff, order
    )
    return float(np.mean(values))


def mean_localization_error(ms: MatchSequence) -> float:
    """Arithmetic mean of TP angular errors over the scene, in radians."""
    errors = ms.matches.tp_err
    if not len(errors):
        raise UndefinedOnEmptyTP("no true positives in the match sequence")
    return float(np.mean(errors))


@dataclass(frozen=True)
class FrameMetricsReport:
    """Scalar frame-level metrics for one scene.

    mota and mean_loc_error are None when undefined (no ground-truth
    detections / no TPs); ospa_mean is None when no frame has entities.
    Per-track rate variants divide by the number of ground-truth tracks.
    ospa_mean and mean_loc_error are radians.
    """

    n_tp: int
    n_fp: int
    n_fn: int
    n_swaps: int
    n_broken: int
    tsr: float
    tfr: float
    tsr_per_track: float | None
    tfr_per_track: float | None
    mota: float | None
    ospa_mean: float | None
    mean_loc_error: float | None


def frame_metrics_report(
    ms: MatchSequence,
    gts: TrackSet,
    ospa_cutoff: float,
    ospa_order: float = 1.0,
) -> FrameMetricsReport:
    """Assemble the full frame-level report for one matched scene.

    OSPA reads the distance table of ms, so ms must come from match_sequence.
    """
    m = ms.matches
    n_tp, n_fp, n_fn = len(m.tp_frame), len(m.fp_frame), len(m.fn_frame)
    n_swaps = count_swaps(ms)
    n_broken = count_broken(ms, gts)
    duration = ms.grid.duration
    n_gt_tracks = len(gts.columns.ids)
    n_gt_detections = gts.n_entries()
    try:
        mota_value = mota(n_fn, n_fp, n_swaps, n_gt_detections)
    except UndefinedOnEmptyGroundTruth:
        mota_value = None
    try:
        mle = mean_localization_error(ms)
    except UndefinedOnEmptyTP:
        mle = None
    return FrameMetricsReport(
        n_tp=n_tp,
        n_fp=n_fp,
        n_fn=n_fn,
        n_swaps=n_swaps,
        n_broken=n_broken,
        tsr=tsr(n_swaps, duration),
        tfr=tfr(n_swaps, n_broken, duration),
        tsr_per_track=(
            tsr(n_swaps, duration) / n_gt_tracks if n_gt_tracks else None
        ),
        tfr_per_track=(
            tfr(n_swaps, n_broken, duration) / n_gt_tracks if n_gt_tracks else None
        ),
        mota=mota_value,
        ospa_mean=ospa_sequence(ms, ospa_cutoff, ospa_order),
        mean_loc_error=mle,
    )
