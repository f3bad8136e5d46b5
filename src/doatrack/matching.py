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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import GridMismatch, InvalidConfig
from .geometry import Direction, pairwise_angular_distance
from .trackmodel import FrameGrid, TrackColumns, TrackSet

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


class ShapeGroup(NamedTuple):
    """The frames of a scene with one (n_pred, n_gt) shape, ascending, and
    their pred x gt distances stacked in that order: rows in pred id
    order, columns in gt id order."""

    frames: np.ndarray
    dist: np.ndarray


class FrameTable(NamedTuple):
    """The distances of a scene: per frame, the number of predictions
    and ground truths, plus one ShapeGroup per shape of the frames with
    entries on both sides."""

    n_pred: np.ndarray
    n_gt: np.ndarray
    groups: tuple[ShapeGroup, ...]


class Matches(NamedTuple):
    """A scene's TP/FP/FN partition as arrays, in frame order.

    Codes index pred_ids and gt_ids, which are sorted, so within a frame
    TPs and FPs follow pred id order and FNs gt id order.
    """

    pred_ids: tuple[str, ...]
    gt_ids: tuple[str, ...]
    tp_frame: np.ndarray
    tp_pred: np.ndarray
    tp_gt: np.ndarray
    tp_err: np.ndarray
    fp_frame: np.ndarray
    fp_pred: np.ndarray
    fn_frame: np.ndarray
    fn_gt: np.ndarray


@dataclass(frozen=True, eq=False)
class MatchSequence:
    """The matches of a scene plus the frame table they were made on.

    matches holds the TP/FP/FN partition as arrays, which the counters
    read. distances is the frame table match_sequence matched on, which
    OSPA reuses; a sequence assembled otherwise carries None.
    """

    grid: FrameGrid
    matches: Matches
    distances: FrameTable | None = None

    @property
    def frames(self) -> tuple[FrameAssignment, ...]:
        """One FrameAssignment per frame, derived from matches on each read."""
        m = self.matches
        parts: list[tuple[list, list, list]] = [([], [], []) for _ in range(self.grid.n_frames)]
        for f, p, g, e in zip(
            m.tp_frame.tolist(), m.tp_pred.tolist(), m.tp_gt.tolist(), m.tp_err.tolist()
        ):
            parts[f][0].append((m.pred_ids[p], m.gt_ids[g], e))
        for f, p in zip(m.fp_frame.tolist(), m.fp_pred.tolist()):
            parts[f][1].append(m.pred_ids[p])
        for f, g in zip(m.fn_frame.tolist(), m.fn_gt.tolist()):
            parts[f][2].append(m.gt_ids[g])
        return tuple(FrameAssignment(*map(tuple, frame)) for frame in parts)


def _frame_table(pc: TrackColumns, gc: TrackColumns) -> FrameTable:
    """Distances of every frame of a scene, one batched call per frame shape.

    Frames with the same (n_pred, n_gt) are stacked and measured in one
    pairwise_angular_distance call, which gives bit for bit the matrix a
    per-frame call gives.
    """
    n_pred, n_gt = np.diff(pc.offsets), np.diff(gc.offsets)
    both = np.flatnonzero((n_pred > 0) & (n_gt > 0))
    groups = []
    if len(both):
        shape = n_pred[both] * (int(n_gt.max()) + 1) + n_gt[both]
        order = np.argsort(shape, kind="stable")
        starts = np.unique(shape[order], return_index=True)[1]
        for frames in np.split(both[order], starts[1:]):
            rows_p = pc.offsets[frames][:, None] + np.arange(n_pred[frames[0]])
            rows_g = gc.offsets[frames][:, None] + np.arange(n_gt[frames[0]])
            dist = pairwise_angular_distance(pc.unit[rows_p], gc.unit[rows_g])
            groups.append(ShapeGroup(frames, dist))
    return FrameTable(n_pred, n_gt, tuple(groups))


def _match_stack(dist: np.ndarray, gate: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gated max-cardinality, min-cost matching of a stack of same-shape frames.

    Returns the (stack index, row, column) of every TP, by stack index
    and then row. The assignment solver runs once per frame, and only on
    frames with more than one entry on some side: a 1x1 frame is a TP
    exactly when its pair is in gate.
    """
    k, n_pred, n_gt = dist.shape
    if n_pred == n_gt == 1:
        index = np.flatnonzero(dist[:, 0, 0] <= gate)
        zeros = np.zeros(len(index), dtype=np.intp)
        return index, zeros, zeros
    cost = np.where(dist <= gate, dist, _PROHIBITIVE)
    solved = np.array([linear_sum_assignment(c) for c in cost])  # (k, 2, min side)
    index = np.repeat(np.arange(k), solved.shape[2])
    rows, cols = solved[:, 0].ravel(), solved[:, 1].ravel()
    keep = dist[index, rows, cols] <= gate
    return index[keep], rows[keep], cols[keep]


_ONE_FRAME = FrameGrid(1.0, 1)


def _one_frame(entries: list[tuple[str, Direction]]) -> TrackSet:
    """A one-frame TrackSet of (id, Direction) pairs; ValueError on a repeated id."""
    ids = [i for i, _d in entries]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate ids in frame: {ids!r}")
    return TrackSet.from_rows(
        _ONE_FRAME,
        [0] * len(ids),
        ids,
        [d.azimuth for _i, d in entries],
        [d.elevation for _i, d in entries],
    )


def match_frame(
    preds: list[tuple[str, Direction]],
    gts: list[tuple[str, Direction]],
    gate: float,
) -> FrameAssignment:
    """Match one frame's predictions to its ground truths, as a one-frame
    match_sequence.

    Ids must be unique within each list (ValueError otherwise); gate in
    (0, pi]. Inputs are sorted by id before solving, which fixes the
    tie-break order among equal-cost matchings.
    """
    return match_sequence(_one_frame(preds), _one_frame(gts), gate).frames[0]


def match_sequence(preds: TrackSet, gts: TrackSet, gate: float) -> MatchSequence:
    """Match the active entries of every frame.

    Works on the columns of both TrackSets. The returned sequence holds
    its matches as arrays and carries the frame table it matched on.
    Raises GridMismatch unless both TrackSets share the same FrameGrid.
    """
    check_gate(gate)
    if preds.grid != gts.grid:
        raise GridMismatch(f"prediction grid {preds.grid} != ground-truth grid {gts.grid}")
    pc, gc = preds.columns, gts.columns
    table = _frame_table(pc, gc)
    no_rows = np.zeros(0, dtype=np.int64)
    pred_rows, gt_rows, errors = [no_rows], [no_rows], [np.zeros(0)]
    for group in table.groups:
        index, rows, cols = _match_stack(group.dist, gate)
        frames = group.frames[index]
        pred_rows.append(pc.offsets[frames] + rows)
        gt_rows.append(gc.offsets[frames] + cols)
        errors.append(group.dist[index, rows, cols])
    # Pred rows run in (frame, id) order, so TPs sorted by pred row are
    # in frame order and then in pred id order.
    tp_pred_row = np.concatenate(pred_rows)
    order = np.argsort(tp_pred_row)
    tp_pred_row = tp_pred_row[order]
    tp_gt_row = np.concatenate(gt_rows)[order]
    fp = np.ones(len(pc.frame), dtype=bool)
    fp[tp_pred_row] = False
    fn = np.ones(len(gc.frame), dtype=bool)
    fn[tp_gt_row] = False
    matches = Matches(
        pc.ids,
        gc.ids,
        pc.frame[tp_pred_row],
        pc.id_code[tp_pred_row],
        gc.id_code[tp_gt_row],
        np.concatenate(errors)[order],
        pc.frame[fp],
        pc.id_code[fp],
        gc.frame[fn],
        gc.id_code[fn],
    )
    return MatchSequence(gts.grid, matches, table)
