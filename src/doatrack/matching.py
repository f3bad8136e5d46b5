"""Per-frame optimal one-to-one matching of predictions to ground truths.

Pairs are admissible when their angular distance is within the gate.
Among all admissible matchings the result has maximum cardinality and,
among those, minimum total angular error; this is solved as a linear
assignment over a cost matrix where out-of-gate pairs carry a
prohibitive cost. FP/FN counts are therefore gate-driven, not
cost-driven.

Matching works on the angle columns of two TrackSets. The unit vectors
it measures distances between are derived from them once per scene,
and only when some frame has entries on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import GridMismatch, InvalidConfig
from .geometry import Direction, pairwise_angular_distance, unit_vectors_from_angles
from .trackmodel import FrameGrid, TrackSet

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


@dataclass(frozen=True, eq=False)
class MatchSequence:
    """A scene's TP/FP/FN partition as arrays, in frame order, plus the
    frame table it was made on.

    Codes index pred_ids and gt_ids, which are sorted, so within a frame
    TPs and FPs follow pred id order and FNs gt id order. distances is
    the frame table match_sequence matched on, which OSPA reuses; a
    sequence assembled otherwise carries None.
    """

    grid: FrameGrid
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
    distances: FrameTable | None = None

    @property
    def frames(self) -> tuple[FrameAssignment, ...]:
        """One FrameAssignment per frame, derived from the arrays on each read."""
        parts: list[tuple[list, list, list]] = [([], [], []) for _ in range(self.grid.n_frames)]
        for f, p, g, e in zip(
            self.tp_frame.tolist(), self.tp_pred.tolist(),
            self.tp_gt.tolist(), self.tp_err.tolist(),
        ):
            parts[f][0].append((self.pred_ids[p], self.gt_ids[g], e))
        for f, p in zip(self.fp_frame.tolist(), self.fp_pred.tolist()):
            parts[f][1].append(self.pred_ids[p])
        for f, g in zip(self.fn_frame.tolist(), self.fn_gt.tolist()):
            parts[f][2].append(self.gt_ids[g])
        return tuple(FrameAssignment(*map(tuple, frame)) for frame in parts)


def _frame_table(preds: TrackSet, gts: TrackSet) -> FrameTable:
    """Distances of every frame of a scene, one batched call per frame shape.

    Frames with the same (n_pred, n_gt) are stacked and measured in one
    pairwise_angular_distance call, which gives bit for bit the matrix a
    per-frame call gives. Each side's unit vectors are derived once.
    """
    n_pred, n_gt = np.diff(preds.offsets), np.diff(gts.offsets)
    both = np.flatnonzero((n_pred > 0) & (n_gt > 0))
    groups = []
    if len(both):
        pu = unit_vectors_from_angles(preds.azimuth.tolist(), preds.elevation.tolist())
        gu = unit_vectors_from_angles(gts.azimuth.tolist(), gts.elevation.tolist())
        shape = n_pred[both] * (int(n_gt.max()) + 1) + n_gt[both]
        order = np.argsort(shape, kind="stable")
        starts = np.unique(shape[order], return_index=True)[1]
        for frames in np.split(both[order], starts[1:]):
            rows_p = preds.offsets[frames][:, None] + np.arange(n_pred[frames[0]])
            rows_g = gts.offsets[frames][:, None] + np.arange(n_gt[frames[0]])
            dist = pairwise_angular_distance(pu[rows_p], gu[rows_g])
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
    by_id = {i: {0: d} for i, d in entries}
    if len(by_id) != len(entries):
        raise ValueError(f"duplicate ids in frame: {[i for i, _d in entries]!r}")
    return TrackSet(_ONE_FRAME, by_id)


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
    its TPs, FPs and FNs as arrays and carries the frame table it
    matched on.
    Raises GridMismatch unless both TrackSets share the same FrameGrid.
    """
    check_gate(gate)
    if preds.grid != gts.grid:
        raise GridMismatch(f"prediction grid {preds.grid} != ground-truth grid {gts.grid}")
    table = _frame_table(preds, gts)
    no_rows = np.zeros(0, dtype=np.int64)
    pred_rows, gt_rows, errors = [no_rows], [no_rows], [np.zeros(0)]
    for group in table.groups:
        index, rows, cols = _match_stack(group.dist, gate)
        frames = group.frames[index]
        pred_rows.append(preds.offsets[frames] + rows)
        gt_rows.append(gts.offsets[frames] + cols)
        errors.append(group.dist[index, rows, cols])
    # Pred rows run in (frame, id) order, so TPs sorted by pred row are
    # in frame order and then in pred id order.
    tp_pred_row = np.concatenate(pred_rows)
    order = np.argsort(tp_pred_row)
    tp_pred_row = tp_pred_row[order]
    tp_gt_row = np.concatenate(gt_rows)[order]
    fp = np.ones(len(preds.frame), dtype=bool)
    fp[tp_pred_row] = False
    fn = np.ones(len(gts.frame), dtype=bool)
    fn[tp_gt_row] = False
    return MatchSequence(
        gts.grid,
        preds.ids,
        gts.ids,
        preds.frame[tp_pred_row],
        preds.id_code[tp_pred_row],
        gts.id_code[tp_gt_row],
        np.concatenate(errors)[order],
        preds.frame[fp],
        preds.id_code[fp],
        gts.frame[fn],
        gts.id_code[fn],
        table,
    )
