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

A metric undefined on a scene is None where it arises, never 0: mota
without ground-truth detections, mean_localization_error without TPs,
ospa_sequence when no frame has an entity. ospa_frame and ospa_sequence
share one path: a one-frame TrackSet's distance table goes through the
same per-frame OSPA as a matched scene's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidConfig
from .geometry import Direction
# Unused here since OSPA reads matching's distance tables; kept as the
# attribute perfbench/tracer.py wraps to count distance calls in this module.
from .geometry import pairwise_angular_distance
from .matching import FrameTable, MatchSequence, _frame_table, _one_frame
from .trackmodel import TrackSet


def count_swaps(ms: MatchSequence) -> int:
    """Changes of matched prediction id per ground-truth track, summed.

    Comparisons span gaps: the reference prediction id for a ground
    truth persists through frames where it is inactive or unmatched.
    """
    order = np.argsort(ms.tp_gt, kind="stable")  # per gt, its TPs in frame order
    gt, pred = ms.tp_gt[order], ms.tp_pred[order]
    return int(np.count_nonzero((gt[1:] == gt[:-1]) & (pred[1:] != pred[:-1])))


def count_broken(ms: MatchSequence, gts: TrackSet) -> int:
    """(gt, frame) pairs that are matched at f and FN at f+1 while active."""
    n_ids = max(len(gts.ids), 1)
    code_of = {g: i for i, g in enumerate(gts.ids)}
    code = np.array([code_of.get(g, -1) for g in ms.gt_ids], dtype=np.int64)[ms.tp_gt]
    known = code >= 0
    # (frame, gt) pairs as frame * n_ids + gt code
    matched = np.unique(ms.tp_frame[known] * n_ids + code[known])
    active = gts.frame * n_ids + gts.id_code
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


def mota(n_fn: int, n_fp: int, n_idsw: int, n_gt_detections: int) -> float | None:
    """1 - (FN + FP + IDSW) / total ground-truth detections, or None
    without ground-truth detections.

    Exact rational arithmetic, rounded once, so hand-computed values
    compare bit-equal.
    """
    if n_gt_detections <= 0:
        return None
    return float(1 - Fraction(n_fn + n_fp + n_idsw, n_gt_detections))


# The largest OSPA order p. Up to it, cutoff**p and d**p stay normal
# floats for a cutoff <= pi and d >= 1e-30 rad; OSPA is used with p 1 or 2.
MAX_OSPA_ORDER = 10


def check_ospa(cutoff: float, order: float) -> None:
    """Raise InvalidConfig unless cutoff lies in (0, pi] and order in [1, MAX_OSPA_ORDER]."""
    if not 0.0 < cutoff <= math.pi:
        raise InvalidConfig(
            f"OSPA cutoff must lie in (0, 180] degrees, got {math.degrees(cutoff)!r}"
        )
    if not 1 <= order <= MAX_OSPA_ORDER:
        raise InvalidConfig(f"OSPA order must lie in [1, {MAX_OSPA_ORDER}], got {order!r}")


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


def _ospa_values(table: FrameTable, cutoff: float, order: float) -> list[float]:
    """OSPA of every frame of a table with an entry on some side, in frame order.

    The last power is taken in Python: numpy's power with a scalar
    exponent of 0.5 or 2 does not round as pow does.
    """
    local = np.zeros(len(table.n_pred))
    for group in table.groups:
        local[group.frames] = _ospa_local(group.dist, cutoff, order)
    present = np.flatnonzero((table.n_pred > 0) | (table.n_gt > 0))
    n_pred, n_gt = table.n_pred[present], table.n_gt[present]
    n, m = np.maximum(n_pred, n_gt), np.minimum(n_pred, n_gt)
    base = (local[present] + cutoff**order * (n - m)) / n
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
    # Ids that sort in input order keep each side's rows, and so the
    # order of the assignment cost sum, as given.
    pc, gc = (_one_frame([(f"{i:09d}", d) for i, d in enumerate(side)]) for side in (preds, gts))
    values = _ospa_values(_frame_table(pc, gc), cutoff, order)
    return values[0] if values else 0.0


def ospa_sequence(ms: MatchSequence, cutoff: float, order: float = 1.0) -> float | None:
    """Per-frame OSPA averaged over frames where either set is non-empty.

    Reads the distance table match_sequence stored on ms. None when no
    frame has any active entity.
    """
    check_ospa(cutoff, order)
    if ms.distances is None:
        raise ValueError("OSPA needs the distance table of a sequence built by match_sequence")
    values = _ospa_values(ms.distances, cutoff, order)
    return float(np.mean(values)) if values else None


def mean_localization_error(ms: MatchSequence) -> float | None:
    """Arithmetic mean of TP angular errors over the scene, in radians;
    None without TPs."""
    return float(np.mean(ms.tp_err)) if len(ms.tp_err) else None


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
    n_tp, n_fp, n_fn = len(ms.tp_frame), len(ms.fp_frame), len(ms.fn_frame)
    n_swaps = count_swaps(ms)
    n_broken = count_broken(ms, gts)
    swap_rate = tsr(n_swaps, ms.grid.duration)
    frag_rate = tfr(n_swaps, n_broken, ms.grid.duration)
    n_gt_tracks = len(gts.ids)
    return FrameMetricsReport(
        n_tp=n_tp,
        n_fp=n_fp,
        n_fn=n_fn,
        n_swaps=n_swaps,
        n_broken=n_broken,
        tsr=swap_rate,
        tfr=frag_rate,
        tsr_per_track=swap_rate / n_gt_tracks if n_gt_tracks else None,
        tfr_per_track=frag_rate / n_gt_tracks if n_gt_tracks else None,
        mota=mota(n_fn, n_fp, n_swaps, gts.n_entries()),
        ospa_mean=ospa_sequence(ms, ospa_cutoff, ospa_order),
        mean_loc_error=mean_localization_error(ms),
    )
