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
from .geometry import Direction, pairwise_angular_distance, unit_vectors
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

    @property
    def n_tp(self) -> int:
        return len(self.tps)


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

    Codes index pred_ids and gt_ids. Within a frame, TPs follow pred id
    order on a sequence from match_sequence and the order of its tps on
    one assembled by hand; FPs and FNs follow their id order.
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


def _ints(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def _matches_of(frames: tuple[FrameAssignment, ...]) -> Matches:
    tps = [(f, p, g, e) for f, fa in enumerate(frames) for p, g, e in fa.tps]
    fps = [(f, p) for f, fa in enumerate(frames) for p in fa.fps]
    fns = [(f, g) for f, fa in enumerate(frames) for g in fa.fns]
    pred_ids = tuple(sorted({t[1] for t in tps} | {p for _f, p in fps}))
    gt_ids = tuple(sorted({t[2] for t in tps} | {g for _f, g in fns}))
    pred_code = {p: i for i, p in enumerate(pred_ids)}
    gt_code = {g: i for i, g in enumerate(gt_ids)}
    return Matches(
        pred_ids,
        gt_ids,
        _ints([f for f, _p, _g, _e in tps]),
        _ints([pred_code[p] for _f, p, _g, _e in tps]),
        _ints([gt_code[g] for _f, _p, g, _e in tps]),
        np.array([e for _f, _p, _g, e in tps], dtype=float),
        _ints([f for f, _p in fps]),
        _ints([pred_code[p] for _f, p in fps]),
        _ints([f for f, _g in fns]),
        _ints([gt_code[g] for _f, g in fns]),
    )


def _frames_of(m: Matches, n_frames: int) -> tuple[FrameAssignment, ...]:
    tps: list[list] = [[] for _ in range(n_frames)]
    fps: list[list] = [[] for _ in range(n_frames)]
    fns: list[list] = [[] for _ in range(n_frames)]
    for f, p, g, e in zip(
        m.tp_frame.tolist(), m.tp_pred.tolist(), m.tp_gt.tolist(), m.tp_err.tolist()
    ):
        tps[f].append((m.pred_ids[p], m.gt_ids[g], e))
    for f, p in zip(m.fp_frame.tolist(), m.fp_pred.tolist()):
        fps[f].append(m.pred_ids[p])
    for f, g in zip(m.fn_frame.tolist(), m.fn_gt.tolist()):
        fns[f].append(m.gt_ids[g])
    return tuple(
        FrameAssignment(tuple(t), tuple(p), tuple(g)) for t, p, g in zip(tps, fps, fns)
    )


class MatchSequence:
    """Per-frame assignments of a scene.

    matches holds them as arrays, which the counters read; frames holds
    the same partition as one FrameAssignment per frame. Each is built
    from the other on first use: match_sequence makes the arrays, a
    sequence assembled by hand gives its frames. distances is the frame
    table match_sequence matched on, which OSPA reuses; a sequence
    assembled by hand carries None.
    """

    __slots__ = ("grid", "distances", "_frames", "_matches")

    def __init__(
        self,
        grid: FrameGrid,
        frames: tuple[FrameAssignment, ...] | None = None,
        distances: FrameTable | None = None,
        *,
        matches: Matches | None = None,
    ):
        if (frames is None) == (matches is None):
            raise ValueError("give a MatchSequence its frames or its matches")
        if frames is not None:
            frames = tuple(frames)
            if len(frames) != grid.n_frames:
                raise ValueError("frame count does not match grid")
        self.grid = grid
        self.distances = distances
        self._frames = frames
        self._matches = matches

    @property
    def frames(self) -> tuple[FrameAssignment, ...]:
        if self._frames is None:
            self._frames = _frames_of(self._matches, self.grid.n_frames)
        return self._frames

    @property
    def matches(self) -> Matches:
        if self._matches is None:
            self._matches = _matches_of(self._frames)
        return self._matches

    def __eq__(self, other):
        if not isinstance(other, MatchSequence):
            return NotImplemented
        return self.grid == other.grid and self.frames == other.frames

    def __repr__(self) -> str:
        return f"MatchSequence(grid={self.grid!r}, frames={self.frames!r})"


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
    pred_ids = tuple(p for p, _d in preds)
    gt_ids = tuple(g for g, _d in gts)
    if not preds or not gts:
        return FrameAssignment(tps=(), fps=pred_ids, fns=gt_ids)
    dist = pairwise_angular_distance(
        unit_vectors([d for _p, d in preds]), unit_vectors([d for _g, d in gts])
    )
    _index, rows, cols = _match_stack(dist[None], gate)
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    matched_p = {i for i, _j in pairs}
    matched_g = {j for _i, j in pairs}
    return FrameAssignment(
        tps=tuple((pred_ids[i], gt_ids[j], float(dist[i, j])) for i, j in pairs),
        fps=tuple(p for i, p in enumerate(pred_ids) if i not in matched_p),
        fns=tuple(g for j, g in enumerate(gt_ids) if j not in matched_g),
    )


def match_sequence(preds: TrackSet, gts: TrackSet, gate: float) -> MatchSequence:
    """Match the active entries of every frame, as match_frame does.

    Works on the columns of both TrackSets. The returned sequence holds
    its matches as arrays and carries the frame table it matched on.
    Raises GridMismatch unless both TrackSets share the same FrameGrid.
    """
    check_gate(gate)
    if preds.grid != gts.grid:
        raise GridMismatch(f"prediction grid {preds.grid} != ground-truth grid {gts.grid}")
    pc, gc = preds.columns, gts.columns
    table = _frame_table(pc, gc)
    pred_rows, gt_rows, errors = [_ints([])], [_ints([])], [np.zeros(0)]
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
    return MatchSequence(gts.grid, distances=table, matches=matches)
