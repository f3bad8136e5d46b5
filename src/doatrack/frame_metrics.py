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
    last_pred: dict[str, str] = {}
    swaps = 0
    for fa in ms.frames:
        for pred_id, gt_id, _err in fa.tps:
            prev = last_pred.get(gt_id)
            if prev is not None and prev != pred_id:
                swaps += 1
            last_pred[gt_id] = pred_id
    return swaps


def count_broken(ms: MatchSequence, gts: TrackSet) -> int:
    """(gt, frame) pairs that are matched at f and FN at f+1 while active."""
    broken = 0
    for f in range(len(ms.frames) - 1):
        matched_now = {gt_id for _p, gt_id, _e in ms.frames[f].tps}
        if not matched_now:
            continue
        matched_next = {gt_id for _p, gt_id, _e in ms.frames[f + 1].tps}
        for gt_id in matched_now:
            active_next = (f + 1) in gts.entries.get(gt_id, ())
            if active_next and gt_id not in matched_next:
                broken += 1
    return broken


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


def _ospa(n_pred: int, n_gt: int, dist: np.ndarray | None, cutoff: float, order: float) -> float:
    """OSPA of one frame from its cardinalities and pred x gt distances.

    The assignment solver runs only when some side has more than one
    entry: a 1x1 frame's only injection is its single pair.
    """
    m, n = sorted((n_pred, n_gt))
    if n == 0:
        return 0.0
    if m == 0:
        return cutoff
    cost = np.minimum(dist, cutoff) ** order
    if n == 1:
        local = float(cost[0, 0])
    else:
        rows, cols = linear_sum_assignment(cost)
        local = float(cost[rows, cols].sum())
    return float(((local + cutoff**order * (n - m)) / n) ** (1.0 / order))


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
    dist = None
    if preds and gts:
        dist = pairwise_angular_distance(unit_vectors(preds), unit_vectors(gts))
    return _ospa(len(preds), len(gts), dist, cutoff, order)


def ospa_sequence(ms: MatchSequence, cutoff: float, order: float = 1.0) -> float | None:
    """Per-frame OSPA averaged over frames where either set is non-empty.

    Reads the distance table match_sequence stored on ms. None when no
    frame has any active entity.
    """
    check_ospa(cutoff, order)
    if ms.distances is None:
        raise ValueError("OSPA needs the distance table of a sequence built by match_sequence")
    values = [
        _ospa(len(fd.pred_ids), len(fd.gt_ids), fd.dist, cutoff, order)
        for fd in ms.distances
        if fd.pred_ids or fd.gt_ids
    ]
    if not values:
        return None
    return float(np.mean(values))


def mean_localization_error(ms: MatchSequence) -> float:
    """Arithmetic mean of TP angular errors over the scene, in radians."""
    errors = [err for fa in ms.frames for _p, _g, err in fa.tps]
    if not errors:
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
    n_tp = sum(len(fa.tps) for fa in ms.frames)
    n_fp = sum(len(fa.fps) for fa in ms.frames)
    n_fn = sum(len(fa.fns) for fa in ms.frames)
    n_swaps = count_swaps(ms)
    n_broken = count_broken(ms, gts)
    duration = ms.grid.duration
    n_gt_tracks = len(gts.entries)
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
