"""Per-frame optimal one-to-one matching of predictions to ground truths.

Pairs are admissible when their angular distance is within the gate.
Among all admissible matchings the result has maximum cardinality and,
among those, minimum total angular error; this is solved as a linear
assignment over a cost matrix where out-of-gate pairs carry a
prohibitive cost. FP/FN counts are therefore gate-driven, not
cost-driven. A frame whose in-gate pairs share no row or column has
those pairs as its only optimum, so it skips the solver; only frames
where in-gate pairs compete for a row or column are solved.

The assignment is solved in-package by linear_sum_assignment, the
shortest augmenting path method of Crouse ("On implementing 2D
rectangular assignment algorithms", IEEE TAES 2016) as scipy implements
it: the same float operations in the same order and scipy's tie-breaks,
so every optimum, among equal-cost ones too, is the one scipy returns.

Matching works on the angle columns of two TrackSets. The unit vectors
it measures distances between are derived from them once per scene,
and only when some frame has entries on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridMismatch, InvalidConfig
from .geometry import Direction, pairwise_angular_distance, unit_vectors_from_angles
from .trackmodel import FrameGrid, TrackSet

# Must dominate any achievable sum of in-gate costs (<= n * pi) so the
# assignment never trades a real match away to avoid a prohibited pair.
_PROHIBITIVE = 1e6


def linear_sum_assignment(cost: np.ndarray) -> tuple[list[int], list[int]]:
    """Minimum-cost assignment of a 2-D cost array: (rows, cols) lists,
    rows ascending, one pair per row or column of the smaller side.

    A port of scipy.optimize.linear_sum_assignment that returns what it
    returns: each augmenting path scans the free columns last-first, a
    free column wins among equal path costs, and a matrix with more rows
    than columns is solved transposed. Entries must be finite or +inf;
    ValueError when some row can reach only infinite costs.
    """
    c = cost.tolist()
    n_rows, n_cols = cost.shape
    if not (n_rows and n_cols):
        return [], []
    transpose = n_cols < n_rows
    if transpose:
        c = list(zip(*c))
        n_rows, n_cols = n_cols, n_rows
    inf = math.inf
    u, v = [0.0] * n_rows, [0.0] * n_cols  # the dual variables
    path, row4col, col4row = [-1] * n_cols, [-1] * n_cols, [-1] * n_rows
    # Row 0's search meets zero duals and only free columns: it settles
    # the first column of its row minimum and leaves v at 0.
    min_val = min(c[0])
    if min_val == inf:
        raise ValueError("cost matrix is infeasible")
    u[0] += min_val
    col4row[0] = c[0].index(min_val)
    row4col[col4row[0]] = 0
    last_first = list(range(n_cols - 1, -1, -1))
    for cur in range(1, n_rows):
        # Dijkstra from row cur over reduced costs, to the nearest free column.
        spc = [inf] * n_cols  # shortest path cost to each column
        remaining = last_first[:]
        settled = []  # the assigned columns the search passes, in order
        min_val, i = 0.0, cur
        while True:
            ci, ui = c[i], u[i]
            lowest = inf
            for j in remaining:
                r = min_val + ci[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest, best = s, j
            if lowest == inf:
                raise ValueError("cost matrix is infeasible")
            min_val = lowest
            i = row4col[best]
            if i < 0:
                break
            settled.append(best)
            index = remaining.index(best)
            remaining[index] = remaining[-1]
            remaining.pop()
        # The sink's own dual term, min_val - spc[sink], is zero.
        u[cur] += min_val
        for j in settled:
            d = min_val - spc[j]
            v[j] -= d
            u[row4col[j]] += d
        j = best
        while True:  # augment along the path back to cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = sorted(range(n_rows), key=col4row.__getitem__)
        return [col4row[j] for j in order], order
    return list(range(n_rows)), col4row


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


def _disjoint(pairs: np.ndarray) -> np.ndarray:
    """Per frame of a (k, n, m) stack of pair masks: no two of its pairs
    share a row or a column."""
    return (pairs.sum(axis=2) <= 1).all(axis=1) & (pairs.sum(axis=1) <= 1).all(axis=1)


def _match_stack(dist: np.ndarray, gate: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gated max-cardinality, min-cost matching of a stack of same-shape frames.

    Returns the (stack index, row, column) of every TP, by stack index
    and then row. A frame whose in-gate pairs share no row or column
    takes them all as its TPs without the solver: an assignment that
    drops one of them costs at least _PROHIBITIVE - pi more, so the
    solver's optimum holds exactly those pairs. This covers every 1x1
    frame. The assignment solver runs once per other frame.
    """
    in_gate = dist <= gate
    forced = _disjoint(in_gate)
    tp = in_gate & forced[:, None, None]
    unforced = np.flatnonzero(~forced)
    if len(unforced):
        cost = np.where(in_gate[unforced], dist[unforced], _PROHIBITIVE)
        solved: tuple[list, list, list] = ([], [], [])  # (stack index, row, column)
        for i, c in zip(unforced.tolist(), cost):
            rows, cols = linear_sum_assignment(c)
            solved[0].extend([i] * len(rows))
            solved[1].extend(rows)
            solved[2].extend(cols)
        tp[solved] = in_gate[solved]
    return np.nonzero(tp)


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
