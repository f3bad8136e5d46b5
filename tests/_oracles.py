"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: per-TP double loops for the
association scores, exhaustive injection enumeration for matching,
literal walk-the-frames counters, a bootstrap that draws one replicate
at a time and a particle filter that steps one track at a time. These
stay independent of the code
paths they verify. The package stores tracks, observations and matches
only as columns; the per-object views the tests read (a track's
{frame: Direction}, a frame's entries, a hand-built MatchSequence) are
made here, row by row.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from doatrack.geometry import Direction, angles_of_unit_vector, angular_distance, unit_xyz
from doatrack.matching import FrameAssignment, MatchSequence
from doatrack.trackers import TrackerConfig
from doatrack.trackmodel import FrameGrid, ObservationSet, TrackSet, columns_of


def unit_vector(d: Direction) -> np.ndarray:
    """Unit 3-vector of a direction, shape (3,)."""
    return np.array(unit_xyz(d.azimuth, d.elevation))


def from_unit_vector(v: np.ndarray) -> Direction:
    """Direction of a (near-)unit 3-vector."""
    return Direction(*angles_of_unit_vector(float(v[0]), float(v[1]), float(v[2])))


def vector_move_along_great_circle(d: Direction, heading: float, arc: float) -> Direction:
    """The great-circle walk on (3,) arrays: rotate the unit vector by
    arc toward the tangent cos(heading) * east + sin(heading) * north of
    the local east/north basis."""
    sa, ca = math.sin(d.azimuth), math.cos(d.azimuth)
    se, ce = math.sin(d.elevation), math.cos(d.elevation)
    east = np.array([-sa, ca, 0.0])
    north = np.array([-se * ca, -se * sa, ce])
    t = math.cos(heading) * east + math.sin(heading) * north
    v = math.cos(arc) * unit_vector(d) + math.sin(arc) * t
    return from_unit_vector(v)


def per_frame_entries(ts: TrackSet) -> list[list[tuple[str, Direction]]]:
    """Active (track_id, Direction) pairs per frame, in row order."""
    frames: list[list[tuple[str, Direction]]] = [[] for _ in range(ts.grid.n_frames)]
    for f, code, az, el in zip(
        ts.frame.tolist(), ts.id_code.tolist(), ts.azimuth.tolist(), ts.elevation.tolist()
    ):
        frames[f].append((ts.ids[code], Direction(az, el)))
    return frames


def entries(ts: TrackSet) -> dict[str, dict[int, Direction]]:
    """track_id -> {frame: Direction}; a track without rows maps to {}."""
    out: dict[str, dict[int, Direction]] = {tid: {} for tid in ts.ids}
    for f, frame in enumerate(per_frame_entries(ts)):
        for tid, d in frame:
            out[tid][f] = d
    return out


def activity_mask(ts: TrackSet, track_id: str) -> np.ndarray:
    """Boolean array of length n_frames, true exactly at active frames."""
    return np.isin(np.arange(ts.grid.n_frames), list(entries(ts)[track_id]))


def observation_set(grid: FrameGrid, frames) -> ObservationSet:
    """An ObservationSet of per-frame sequences of (Direction, source_id)."""
    rows = [(f, d.azimuth, d.elevation, src) for f, fr in enumerate(frames) for d, src in fr]
    return ObservationSet(grid, *columns_of(rows, 4))


def observation_frames(obs: ObservationSet) -> list[list[tuple[Direction, str | None]]]:
    """Per-frame lists of (Direction, source_id), in row order."""
    frames: list[list[tuple[Direction, str | None]]] = [[] for _ in range(obs.grid.n_frames)]
    for f, az, el, src in zip(
        obs.frame.tolist(), obs.azimuth.tolist(), obs.elevation.tolist(), obs.source
    ):
        frames[f].append((Direction(az, el), src))
    return frames


def match_sequence_of(grid: FrameGrid, frames) -> MatchSequence:
    """A MatchSequence of one FrameAssignment per frame and no distance
    table, its TPs, FPs and FNs put in id order within each frame."""
    assert len(frames) == grid.n_frames
    tps = sorted((f, p, g, e) for f, fa in enumerate(frames) for p, g, e in fa.tps)
    fps = sorted((f, p) for f, fa in enumerate(frames) for p in fa.fps)
    fns = sorted((f, g) for f, fa in enumerate(frames) for g in fa.fns)
    pred_ids = tuple(sorted({t[1] for t in tps} | {p for _f, p in fps}))
    gt_ids = tuple(sorted({t[2] for t in tps} | {g for _f, g in fns}))

    def column(rows, i, ids=None, dtype=np.int64):
        return np.array([r[i] if ids is None else ids.index(r[i]) for r in rows], dtype=dtype)

    return MatchSequence(
        grid, pred_ids, gt_ids,
        column(tps, 0), column(tps, 1, pred_ids), column(tps, 2, gt_ids),
        column(tps, 3, dtype=float),
        column(fps, 0), column(fps, 1, pred_ids), column(fns, 0), column(fns, 1, gt_ids),
    )


def naive_association_scores(ms: MatchSequence) -> tuple[float, float, float]:
    """(ass_re, ass_pr, ass_a) by a per-TP loop with array counting.

    Each TP's ratios are exact fractions, summed and rounded once, so a
    correct package value equals the oracle's with ==.
    """
    tp_p, tp_g = [], []
    fp_p, fn_g = [], []
    for fa in ms.frames:
        for p, g, _e in fa.tps:
            tp_p.append(p)
            tp_g.append(g)
        fp_p.extend(fa.fps)
        fn_g.extend(fa.fns)
    assert tp_p, "oracle requires at least one TP"
    tp_p_arr = np.array(tp_p, dtype=object)
    tp_g_arr = np.array(tp_g, dtype=object)
    fp_p_arr = np.array(fp_p, dtype=object)
    fn_g_arr = np.array(fn_g, dtype=object)
    re_terms, pr_terms, a_terms = [], [], []
    for p, g in zip(tp_p, tp_g):
        same_p = tp_p_arr == p
        same_g = tp_g_arr == g
        tpa = int(np.sum(same_p & same_g))
        fpa = int(np.sum(same_p & ~same_g)) + int(np.sum(fp_p_arr == p))
        fna = int(np.sum(~same_p & same_g)) + int(np.sum(fn_g_arr == g))
        re_terms.append(Fraction(tpa, tpa + fna))
        pr_terms.append(Fraction(tpa, tpa + fpa))
        a_terms.append(Fraction(tpa, tpa + fna + fpa))
    n = len(tp_p)
    return tuple(float(sum(terms) / n) for terms in (re_terms, pr_terms, a_terms))


def naive_swaps(ms: MatchSequence) -> int:
    by_gt: dict[str, list[str]] = {}
    for fa in ms.frames:
        for p, g, _e in fa.tps:
            by_gt.setdefault(g, []).append(p)
    swaps = 0
    for preds in by_gt.values():
        swaps += sum(1 for a, b in zip(preds, preds[1:]) if a != b)
    return swaps


def naive_broken(ms: MatchSequence, gts: TrackSet) -> int:
    broken = 0
    assignments = ms.frames
    for g, frames in entries(gts).items():
        for f in frames:
            if f + 1 not in frames or f + 1 >= gts.grid.n_frames:
                continue
            matched_now = any(gid == g for _p, gid, _e in assignments[f].tps)
            fn_next = g in assignments[f + 1].fns
            if matched_now and fn_next:
                broken += 1
    return broken


def brute_force_match(preds, gts, gate):
    """Max-cardinality then min-cost gated matching by full enumeration.

    Returns (cardinality, total_cost). Feasible pairing = every pair
    within the gate; enumeration covers every injective assignment of a
    subset of preds onto gts.
    """
    n_p, n_g = len(preds), len(gts)
    dist = [
        [angular_distance(pd, gd) for _gid, gd in gts] for _pid, pd in preds
    ]
    best_card, best_cost = 0, 0.0
    for size in range(min(n_p, n_g), -1, -1):
        found = False
        best_for_size = math.inf
        for p_subset in itertools.combinations(range(n_p), size):
            for g_perm in itertools.permutations(range(n_g), size):
                cost = 0.0
                ok = True
                for pi, gi in zip(p_subset, g_perm):
                    d = dist[pi][gi]
                    if d > gate:
                        ok = False
                        break
                    cost += d
                if ok:
                    found = True
                    best_for_size = min(best_for_size, cost)
        if found:
            best_card, best_cost = size, best_for_size
            break
    return best_card, best_cost


def _frame_distances(preds, gts) -> np.ndarray:
    """One frame's pred x gt distance matrix, measured on its own with
    a plain 2-D matmul and cross product."""
    ua = np.array([unit_vector(d) for d in preds])
    ub = np.array([unit_vector(d) for d in gts])
    cross = np.cross(ua[:, None, :], ub[None, :, :])
    return np.arctan2(np.linalg.norm(cross, axis=2), ua @ ub.T)


def lsa_match_frame(preds, gts, gate) -> FrameAssignment:
    """Gated matching of one frame as a plain linear assignment.

    Every frame with entries on both sides goes through the solver, 1x1
    frames included, on a distance matrix measured for that frame alone;
    ids are sorted first, which fixes the tie-break among equal-cost
    matchings. The package's sequence path must give exactly this.
    """
    preds = sorted(preds, key=lambda p: p[0])
    gts = sorted(gts, key=lambda g: g[0])
    if not preds or not gts:
        return FrameAssignment((), tuple(p for p, _d in preds), tuple(g for g, _d in gts))
    dist = _frame_distances([d for _p, d in preds], [d for _g, d in gts])
    rows, cols = linear_sum_assignment(np.where(dist <= gate, dist, 1e6))
    pairs = [(i, j) for i, j in zip(rows, cols) if dist[i, j] <= gate]
    tps = sorted((preds[i][0], gts[j][0], float(dist[i, j])) for i, j in pairs)
    matched_p = {i for i, _j in pairs}
    matched_g = {j for _i, j in pairs}
    return FrameAssignment(
        tuple(tps),
        tuple(p for i, (p, _d) in enumerate(preds) if i not in matched_p),
        tuple(g for j, (g, _d) in enumerate(gts) if j not in matched_g),
    )


def lsa_ospa_frame(preds, gts, cutoff, order) -> float:
    """OSPA of one frame with the solver run on every non-empty pairing."""
    m, n = sorted((len(preds), len(gts)))
    if n == 0:
        return 0.0
    if m == 0:
        return cutoff
    cost = np.minimum(_frame_distances(preds, gts), cutoff) ** order
    rows, cols = linear_sum_assignment(cost)
    local = float(cost[rows, cols].sum())
    return float(((local + cutoff**order * (n - m)) / n) ** (1.0 / order))


def random_match_sequence(
    rng: np.random.Generator,
    n_frames: int = 50,
    max_tracks: int = 5,
    frame_period: float = 0.1,
) -> tuple[TrackSet, MatchSequence]:
    """Random per-frame TP/FP/FN partitions plus a consistent ground truth.

    Ground-truth activity is exactly (matched gts) + (FNs) per frame, so
    the pair is valid input for the swap/broken counters.
    """
    grid = FrameGrid(frame_period, n_frames)
    gt_ids = [f"g{i}" for i in range(max_tracks)]
    pred_ids = [f"p{i}" for i in range(max_tracks)]
    frames = []
    gt_rows = []
    for f in range(n_frames):
        gts_here = [g for g in gt_ids if rng.random() < 0.6]
        preds_here = [p for p in pred_ids if rng.random() < 0.6]
        rng.shuffle(gts_here)
        rng.shuffle(preds_here)
        n_match = int(rng.integers(0, min(len(gts_here), len(preds_here)) + 1))
        tps = tuple(
            (preds_here[i], gts_here[i], float(rng.uniform(0, 0.3)))
            for i in range(n_match)
        )
        fps = tuple(sorted(preds_here[n_match:]))
        fns = tuple(sorted(gts_here[n_match:]))
        frames.append(FrameAssignment(tps=tps, fps=fps, fns=fns))
        gt_rows += [(f, g) for g in gts_here]
    zeros = np.zeros(len(gt_rows))
    gts = TrackSet.from_rows(grid, [f for f, _g in gt_rows], [g for _f, g in gt_rows], zeros, zeros)
    return gts, match_sequence_of(grid, frames)


def naive_bootstrap_aggregate(values, fraction, replicates, rng) -> tuple[float, float]:
    """(mean, std) of replicate means, one replicate at a time: each
    draws ceil(fraction * n) of the values without replacement."""
    vals = np.asarray(list(values), dtype=float)
    m = math.ceil(fraction * len(vals))
    means = np.empty(replicates)
    for i in range(replicates):
        means[i] = rng.choice(vals, size=m, replace=False).mean()
    return float(means.mean()), float(means.std())


# ---------------------------------------------------------------------------
# particle filter, one track at a time
# ---------------------------------------------------------------------------

TWO_PI = 2.0 * math.pi


def _random_walk(particles: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Rotate each particle by |N(0, sigma)| toward a uniform tangent heading."""
    n = len(particles)
    heading = rng.uniform(0.0, TWO_PI, n)
    mag = np.abs(rng.normal(0.0, sigma, n))
    if sigma == 0:
        return particles
    az = np.arctan2(particles[:, 1], particles[:, 0])
    el = np.arcsin(np.clip(particles[:, 2], -1.0, 1.0))
    sa, ca = np.sin(az), np.cos(az)
    se, ce = np.sin(el), np.cos(el)
    east = np.stack([-sa, ca, np.zeros(n)], axis=1)
    north = np.stack([-se * ca, -se * sa, ce], axis=1)
    tangent = np.cos(heading)[:, None] * east + np.sin(heading)[:, None] * north
    moved = np.cos(mag)[:, None] * particles + np.sin(mag)[:, None] * tangent
    return moved / np.linalg.norm(moved, axis=1, keepdims=True)


def _systematic_resample(
    particles: np.ndarray, weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    n = len(particles)
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0  # guard against rounding shortfall
    return particles[np.searchsorted(cumulative, positions)]


def _mean_direction(particles: np.ndarray, weights: np.ndarray | None = None) -> Direction:
    v = particles.mean(axis=0) if weights is None else weights @ particles
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        # Antipodally spread cloud; any particle is as good as any other.
        return from_unit_vector(particles[0])
    return from_unit_vector(v / norm)


def _greedy_pairs(dist: np.ndarray, gate: float) -> list[tuple[int, int]]:
    """Globally greedy gated pairing on a distance matrix."""
    pairs: list[tuple[int, int]] = []
    if dist.size == 0:
        return pairs
    d = dist.copy()
    while True:
        r, c = divmod(int(np.argmin(d)), d.shape[1])
        if not d[r, c] <= gate:
            return pairs
        pairs.append((r, c))
        d[r, :] = np.inf
        d[:, c] = np.inf


class _Track:
    __slots__ = ("track_id", "particles", "estimate", "frames_since_assoc")

    def __init__(self, track_id: str, particles: np.ndarray):
        self.track_id = track_id
        self.particles = particles
        self.estimate = _mean_direction(particles)
        self.frames_since_assoc = 0


class _Candidate:
    __slots__ = ("unit", "support")

    def __init__(self, unit: np.ndarray):
        self.unit = unit
        self.support = 1


def naive_pf_tracker(obs: ObservationSet, cfg: TrackerConfig) -> TrackSet:
    """The particle filter one track at a time: each live track walks,
    averages and resamples its own cloud with its own numpy calls.
    pf_tracker, which steps all live tracks of a scene as one stacked
    array, must equal it bit for bit.
    """
    rng = np.random.default_rng(cfg.seed)
    kappa = 1.0 / cfg.likelihood_sigma**2
    live: list[_Track] = []
    candidates: list[_Candidate] = []
    dead_pool: list[tuple[int, str]] = []  # (death_frame, id)
    issued = 0
    rows: list[tuple[int, str, float, float]] = []  # (frame, id, azimuth, elevation)

    def spawn_particles(unit: np.ndarray) -> np.ndarray:
        base = np.tile(unit, (cfg.n_particles, 1))
        return _random_walk(base, cfg.process_noise_sigma, rng)

    for f in range(obs.grid.n_frames):
        rows_f = range(obs.offsets[f], obs.offsets[f + 1])
        obs_units = np.array(
            [unit_xyz(obs.azimuth[i], obs.elevation[i]) for i in rows_f]
        ).reshape(-1, 3)
        n_obs = len(obs_units)

        # 1. predict
        for tr in live:
            tr.particles = _random_walk(tr.particles, cfg.process_noise_sigma, rng)
            tr.estimate = _mean_direction(tr.particles)

        # 2. gated greedy association, nearest angular distance first
        assigned_obs: set[int] = set()
        associated: set[int] = set()
        if live and n_obs:
            track_units = np.array([unit_vector(tr.estimate) for tr in live])
            dist = np.arccos(np.clip(track_units @ obs_units.T, -1.0, 1.0))
            for ti, oi in _greedy_pairs(dist, cfg.assoc_gate):
                tr = live[ti]
                u = obs_units[oi]
                # 3. measurement update against the associated observation
                logw = kappa * (tr.particles @ u - 1.0)
                w = np.exp(logw - logw.max())
                w /= w.sum()
                tr.estimate = _mean_direction(tr.particles, w)
                tr.particles = _systematic_resample(tr.particles, w, rng)
                tr.frames_since_assoc = 0
                rows.append((f, tr.track_id, tr.estimate.azimuth, tr.estimate.elevation))
                assigned_obs.add(oi)
                associated.add(ti)
        for ti, tr in enumerate(live):
            if ti not in associated:
                tr.frames_since_assoc += 1

        # 4. candidate maintenance on leftover observations; support must
        #    be consecutive, unsupported candidates drop out; age order is
        #    preserved so older candidates confirm first under contention
        leftover = [oi for oi in range(n_obs) if oi not in assigned_obs]
        surviving: list[_Candidate] = []
        if candidates and leftover:
            cand_units = np.array([c.unit for c in candidates])
            left_units = obs_units[leftover]
            dist = np.arccos(np.clip(cand_units @ left_units.T, -1.0, 1.0))
            supported = {
                ci: leftover[li] for ci, li in _greedy_pairs(dist, cfg.assoc_gate)
            }
            for ci, cand in enumerate(candidates):
                if ci in supported:
                    cand.unit = obs_units[supported[ci]]
                    cand.support += 1
                    surviving.append(cand)
            consumed = set(supported.values())
            leftover = [oi for oi in leftover if oi not in consumed]
        candidates = surviving

        # 5. births from the remaining observations (first support counts)
        for oi in leftover:
            candidates.append(_Candidate(obs_units[oi]))

        # 6. confirmations, subject to the live cap and the id budget;
        #    reaching the support threshold consumes the candidate either way
        still_candidates: list[_Candidate] = []
        for cand in candidates:
            if cand.support < cfg.birth_frames:
                still_candidates.append(cand)
                continue
            if len(live) >= cfg.max_active:
                continue  # rejected
            if cfg.k_max is None or issued < cfg.k_max:
                tid = f"t{issued}"
                issued += 1
            elif dead_pool:
                dead_pool.sort()  # (death_frame, id): deterministic tie-break
                tid = dead_pool.pop()[1]  # newest-dead id
            else:
                continue  # id budget exhausted, nothing to reuse
            tr = _Track(tid, spawn_particles(cand.unit))
            live.append(tr)
            rows.append((f, tid, tr.estimate.azimuth, tr.estimate.elevation))
        candidates = still_candidates

        # 7. deaths
        kept: list[_Track] = []
        for tr in live:
            if tr.frames_since_assoc > cfg.death_frames:
                dead_pool.append((f, tr.track_id))
            else:
                kept.append(tr)
        live = kept

    return TrackSet.from_rows(obs.grid, *columns_of(rows, 4))
