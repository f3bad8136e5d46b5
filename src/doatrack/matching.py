"""Per-frame optimal one-to-one matching of predictions to ground truths.

Pairs are admissible when their angular distance is within the gate.
Among all admissible matchings the result has maximum cardinality and,
among those, minimum total angular error; this is solved as a linear
assignment over a cost matrix where out-of-gate pairs carry a
prohibitive cost. FP/FN counts are therefore gate-driven, not
cost-driven.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import GridMismatch, InvalidConfig
from .geometry import Direction, pairwise_angular_distance, unit_vectors
from .trackmodel import FrameGrid, TrackSet, per_frame_entries

# Must dominate any achievable sum of in-gate costs (<= n * pi) so the
# assignment never trades a real match away to avoid a prohibited pair.
_PROHIBITIVE = 1e6


def check_gate(gate: float) -> None:
    """Raise InvalidConfig (a ValueError) unless gate lies in (0, pi]."""
    if not 0.0 < gate <= math.pi:
        raise InvalidConfig(f"gate must lie in (0, 180] degrees, got {math.degrees(gate)!r}")


@dataclass(frozen=True)
class FrameAssignment:
    """TP/FP/FN partition of one frame.

    tps holds (pred_id, gt_id, angular_error) triples; fps the unmatched
    prediction ids; fns the unmatched ground-truth ids.
    """

    tps: tuple[tuple[str, str, float], ...]
    fps: tuple[str, ...]
    fns: tuple[str, ...]

    @property
    def n_tp(self) -> int:
        return len(self.tps)


class FrameDistances(NamedTuple):
    """One frame's active ids, each side sorted, and the pred x gt
    angular distances in that row/column order; dist is None when
    either side is empty."""

    pred_ids: tuple[str, ...]
    gt_ids: tuple[str, ...]
    dist: np.ndarray | None


@dataclass(frozen=True)
class MatchSequence:
    """Per-frame assignments of a scene.

    distances is the frame table match_sequence matched on, which OSPA
    reuses; a sequence assembled by hand carries None.
    """

    grid: FrameGrid
    frames: tuple[FrameAssignment, ...]
    distances: tuple[FrameDistances, ...] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if len(self.frames) != self.grid.n_frames:
            raise ValueError("frame count does not match grid")


def _frame_table(preds: TrackSet, gts: TrackSet) -> tuple[FrameDistances, ...]:
    """Distances of every frame of a scene, one batched call per frame shape.

    Frames with the same (n_pred, n_gt) are stacked and measured in one
    pairwise_angular_distance call, which gives bit for bit the matrix a
    per-frame call gives.
    """
    pred_frames = per_frame_entries(preds)
    gt_frames = per_frame_entries(gts)
    by_shape: dict[tuple[int, int], list[int]] = defaultdict(list)
    for f, (pf, gf) in enumerate(zip(pred_frames, gt_frames)):
        if pf and gf:
            by_shape[(len(pf), len(gf))].append(f)
    dists: list[np.ndarray | None] = [None] * len(gt_frames)
    for (n_pred, n_gt), idx in by_shape.items():
        ua = unit_vectors([d for f in idx for _tid, d in pred_frames[f]])
        ub = unit_vectors([d for f in idx for _tid, d in gt_frames[f]])
        stacked = pairwise_angular_distance(
            ua.reshape(len(idx), n_pred, 3), ub.reshape(len(idx), n_gt, 3)
        )
        for f, dist in zip(idx, stacked):
            dists[f] = dist
    return tuple(
        FrameDistances(tuple(t for t, _d in pf), tuple(t for t, _d in gf), dist)
        for pf, gf, dist in zip(pred_frames, gt_frames, dists)
    )


def _assign(fd: FrameDistances, gate: float) -> FrameAssignment:
    """Gated max-cardinality, min-cost matching of one frame.

    The assignment solver runs only on frames with more than one entry
    on some side; a 1x1 frame is a TP exactly when its pair is in gate.
    """
    pred_ids, gt_ids, dist = fd
    if dist is None:
        return FrameAssignment(tps=(), fps=pred_ids, fns=gt_ids)
    if dist.shape == (1, 1):
        d = dist[0, 0]
        if d <= gate:
            return FrameAssignment(tps=((pred_ids[0], gt_ids[0], float(d)),), fps=(), fns=())
        return FrameAssignment(tps=(), fps=pred_ids, fns=gt_ids)
    cost = np.where(dist <= gate, dist, _PROHIBITIVE)
    rows, cols = linear_sum_assignment(cost)
    tps = []
    matched_p, matched_g = set(), set()
    for i, j in zip(rows, cols):
        if dist[i, j] <= gate:
            tps.append((pred_ids[i], gt_ids[j], float(dist[i, j])))
            matched_p.add(i)
            matched_g.add(j)
    tps.sort(key=lambda t: (t[0], t[1]))
    fps = tuple(p for i, p in enumerate(pred_ids) if i not in matched_p)
    fns = tuple(g for j, g in enumerate(gt_ids) if j not in matched_g)
    return FrameAssignment(tps=tuple(tps), fps=fps, fns=fns)


def match_frame(
    preds: list[tuple[str, Direction]],
    gts: list[tuple[str, Direction]],
    gate: float,
) -> FrameAssignment:
    """Match one frame's predictions to its ground truths.

    Ids must be unique within each list; gate in (0, pi]. Inputs are
    sorted by id before solving, which fixes the tie-break order among
    equal-cost matchings.
    """
    check_gate(gate)
    if len({p[0] for p in preds}) != len(preds):
        raise ValueError("duplicate prediction ids in frame")
    if len({g[0] for g in gts}) != len(gts):
        raise ValueError("duplicate ground-truth ids in frame")
    preds = sorted(preds, key=lambda p: p[0])
    gts = sorted(gts, key=lambda g: g[0])
    dist = None
    if preds and gts:
        dist = pairwise_angular_distance(
            unit_vectors([d for _p, d in preds]), unit_vectors([d for _g, d in gts])
        )
    return _assign(
        FrameDistances(tuple(p for p, _d in preds), tuple(g for g, _d in gts), dist), gate
    )


def match_sequence(preds: TrackSet, gts: TrackSet, gate: float) -> MatchSequence:
    """Match the active entries of every frame, as match_frame does.

    The returned sequence carries the frame table it matched on. Raises
    GridMismatch unless both TrackSets share the same FrameGrid.
    """
    check_gate(gate)
    if preds.grid != gts.grid:
        raise GridMismatch(f"prediction grid {preds.grid} != ground-truth grid {gts.grid}")
    table = _frame_table(preds, gts)
    return MatchSequence(
        grid=gts.grid, frames=tuple(_assign(fd, gate) for fd in table), distances=table
    )
