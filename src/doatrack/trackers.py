"""Baseline and adversarial trackers mapping observations to predictions.

pf_tracker is the online particle-filter baseline: greedy gated
observation-to-track association, per-track particle sets with
random-walk dynamics on the sphere, a von-Mises-like observation
likelihood, birth/death lifecycle, and an id budget: confirmed births
consume fresh ids while fewer than k_max have ever been issued,
otherwise they reuse the id of the most recently dead track. Live
tracks are capped at max_active; excess candidates are rejected.

Newest-dead reuse makes the reused id almost always the one that just
went silent nearby in time, so the rate of cross-source id handover is
the same at every bounded k_max; tightening or loosening the budget
then moves the association scores monotonically between the fully
recycled and the fully fresh regimes. (Oldest-dead reuse instead
recycles stale ids round-robin once the budget saturates, which
depresses association precision at intermediate budgets below its
k_max = J value.)

A track emits a direction on the frames where it pairs with an
observation; between pairings it stays alive (and can re-associate,
keeping its id) for up to death_frames frames without emitting.

The particles of a scene's live tracks form one (T, n_particles, 3)
stack that lives across frames: each frame predicts and averages the
whole stack with a few numpy calls, and updates and resamples every
associated track's cloud with a few more. pf_track_cells steps several
filters whose configs differ only in seed and k_max, such as the cells
of a k_max sweep, through one scene together in such passes. Each
filter owns a block of a stack, its generator, its live map (id to the
frame the track was born or last paired, in block order), candidates
and dead pool, and the rows it emits; pf_tracker is a pass of one
filter. Each walk reads the stack rows' generators off the blocks.

Each filter's generator is drawn from in the order of that filter run
alone: per frame, each of its live tracks in live order draws its walk
(n uniform doubles for the headings, then n standard normals for the
arcs, drawn even when process_noise_sigma is 0); each of its associated
tracks, in its pairing order, draws one resampling offset; each of its
newborn tracks, in confirmation order, draws its first walk. How the
draws of different filters interleave does not matter.
tests/test_trackers.py pins every filter of a pass bit for bit to the
one-track-at-a-time filter in tests/_oracles.py run on that filter's
config alone.

The white-box adversaries (splitter/merger/swapper) read the ground
truth directly and exist to calibrate the metrics: they realize pure
splitting, pure merging and pure label-swapping failure modes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import count

import numpy as np

from .errors import InsufficientData, InvalidConfig, InvalidK, MissingTags
from .geometry import TWO_PI, angles_of_unit_vector, unit_vectors_from_angles, unit_xyz
from .trackmodel import ObservationSet, TrackSet, columns_of

# Bounds on the two values that size the PF's particle stack (240 MB).
MAX_PARTICLES = 100_000
MAX_ACTIVE = 100
# The narrowest likelihood kernel, in radians: kappa = 1 / sigma**2
# overflows below about 1e-154 rad, and divides by zero further down.
MIN_LIKELIHOOD_SIGMA = 1e-6


@dataclass(frozen=True)
class TrackerConfig:
    """Particle-filter tracker policy and dynamics.

    k_max bounds the number of distinct ids ever issued (None means
    unbounded); max_active caps simultaneously live tracks. As k_max is
    at least max_active, a confirmation under the live cap always gets
    an id: a fresh one, or once k_max are issued the newest-dead one. A
    track survives up to death_frames consecutive frames without
    support. likelihood_sigma sets the observation kernel
    exp(kappa * cos(d)) via kappa = 1 / likelihood_sigma**2.
    """

    max_active: int
    k_max: int | None = None
    assoc_gate: float = math.radians(15.0)
    birth_frames: int = 3
    death_frames: int = 10
    n_particles: int = 100
    process_noise_sigma: float = math.radians(0.5)  # radians per frame
    likelihood_sigma: float = math.radians(5.0)
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.max_active <= MAX_ACTIVE:
            raise InvalidConfig(f"max_active must lie in [1, {MAX_ACTIVE}]")
        if self.k_max is not None and self.k_max < self.max_active:
            raise InvalidConfig("k_max must be >= max_active when bounded")
        if self.birth_frames < 1 or self.death_frames < 1:
            raise InvalidConfig("birth_frames and death_frames must be >= 1")
        if not 1 <= self.n_particles <= MAX_PARTICLES:
            raise InvalidConfig(f"n_particles must lie in [1, {MAX_PARTICLES}]")
        if not 0.0 < self.assoc_gate <= math.pi:
            raise InvalidConfig("assoc_gate must lie in (0, pi]")
        if self.process_noise_sigma < 0 or not self.likelihood_sigma >= MIN_LIKELIHOOD_SIGMA:
            raise InvalidConfig("process_noise_sigma must be >= 0 and likelihood_sigma "
                                f">= {MIN_LIKELIHOOD_SIGMA} rad")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be a non-negative integer, got {self.seed}")


def oracle_tracker(obs: ObservationSet) -> TrackSet:
    """Perfect-association upper bound: group tagged observations by
    their true source id; clutter is discarded. Prediction ids are a
    fixed bijection of the ground-truth ids.

    Raises MissingTags when observations exist but none carry a tag.
    """
    tagged = [i for i, src in enumerate(obs.source) if src is not None]
    if obs.n_observations() and not tagged:
        raise MissingTags("observation set carries no source tags")
    return TrackSet.from_rows(
        obs.grid,
        obs.frame[tagged],
        [f"p_{obs.source[i]}" for i in tagged],
        obs.azimuth[tagged],
        obs.elevation[tagged],
    )


def _relabeled(gt: TrackSet, names: list[str], code: np.ndarray, rows=slice(None)) -> TrackSet:
    """The ground-truth rows `rows` of gt, row i now labeled names[code[i]]."""
    return TrackSet.from_rows(
        gt.grid,
        gt.frame[rows],
        np.array(names, dtype=object)[code],
        gt.azimuth[rows],
        gt.elevation[rows],
    )


def splitter_tracker(gt: TrackSet, k: int) -> TrackSet:
    """Relabel each ground-truth track with k ids over equal spans of
    its active frames (spans differ by at most one frame when the count
    is not divisible by k)."""
    if k < 1:
        raise InvalidK("k must be >= 1")
    code = np.empty(len(gt.frame), dtype=np.int64)
    for c, tid in enumerate(gt.ids):
        rows = np.flatnonzero(gt.id_code == c)  # the track's rows, in frame order
        if k > len(rows):
            raise InvalidK(f"k={k} exceeds {len(rows)} active frames of {tid!r}")
        for i, span in enumerate(np.array_split(rows, k)):
            code[span] = c * k + i
    return _relabeled(gt, [f"{tid}_s{i}" for tid in gt.ids for i in range(k)], code)


def merger_tracker(gt: TrackSet) -> TrackSet:
    """Assign every ground-truth track one shared prediction id.

    When several tracks are active in a frame the merged prediction
    takes the direction of the lexicographically first one.
    """
    first_rows = gt.offsets[:-1][np.diff(gt.offsets) > 0]
    return _relabeled(gt, ["m0"], np.zeros(len(first_rows), dtype=np.int64), first_rows)


def swapper_tracker(gt: TrackSet, period_s: float) -> TrackSet:
    """Exchange the id labels of the two first tracks every period_s.

    Raises InvalidConfig unless period_s > 0, and InsufficientData when
    the scene holds fewer than two tracks.
    """
    if period_s <= 0:
        raise InvalidConfig("period_s must be > 0")
    if len(gt.ids) < 2:
        raise InsufficientData(f"swapper needs at least two tracks, the scene has {len(gt.ids)}")
    swapped = np.arange(len(gt.ids))
    swapped[:2] = 1, 0
    odd_period = gt.grid.time_of(gt.frame) // period_s % 2 == 1
    code = np.where(odd_period, swapped[gt.id_code], gt.id_code)
    return _relabeled(gt, [f"p_{tid}" for tid in gt.ids], code)


# ---------------------------------------------------------------------------
# particle filter internals
# ---------------------------------------------------------------------------


# The ufunc behind np.clip (numpy._core from numpy 2, numpy.core before),
# called directly to skip np.clip's Python-level dispatch.
_clip = (np._core if hasattr(np, "_core") else np.core).umath.clip


def _predict(P: np.ndarray, sigma: float, rngs: list[np.random.Generator]) -> np.ndarray:
    """Rotate each particle of the (T, n, 3) stack P by |N(0, sigma)|
    toward a uniform tangent heading; returns the new stack.

    Cloud t draws n uniform doubles and then n standard normals from
    rngs[t], in stack order and even at sigma = 0: the draws of
    uniform(0, 2 pi, n) and normal(0, sigma, n), which scale them. The
    walk is one pass over the stack through elementwise expressions
    only, so each cloud moves bit for bit as it would alone.
    """
    T, n, _ = P.shape
    # angles holds, per particle, its azimuth and elevation and then its
    # heading and arc draws, so that one sin and one cos call cover all
    angles = np.empty((4, T, n))
    for t, rng in enumerate(rngs):
        rng.random(out=angles[2, t])
        rng.standard_normal(out=angles[3, t])
    if sigma == 0:
        return P
    angles[2] *= TWO_PI
    np.abs(angles[3], out=angles[3])
    angles[3] *= sigma
    np.arctan2(P[..., 1], P[..., 0], out=angles[0])
    np.arcsin(_clip(P[..., 2], -1.0, 1.0), out=angles[1])
    trig = np.empty((2, 4, T, n))
    np.cos(angles, out=trig[0])
    np.sin(angles, out=trig[1])
    (ca, ce, ch, cm), (sa, se, sh, sm) = trig
    # the local east (-sa, ca, 0) and north (-se * ca, -se * sa, ce), by
    # component along the first axis
    east = np.empty((3, T, n))
    np.negative(sa, out=east[0])
    east[1] = ca
    east[2] = 0.0
    north = np.empty((3, T, n))
    np.multiply(-se, trig[:, 0], out=north[:2])
    north[2] = ce
    moved = cm * P.transpose(2, 0, 1) + sm * (ch * east + sh * north)
    # np.linalg.norm(moved, axis=0): the squares summed in axis order
    square = moved * moved
    moved /= np.sqrt(square[0] + square[1] + square[2])
    return moved.transpose(1, 2, 0).copy()


def _mean_angles(v: np.ndarray, cloud: np.ndarray) -> tuple[float, float]:
    """(azimuth, elevation) of the mean vector v of a particle cloud:
    the direction of v / |v|, or of the cloud's first particle when v
    nearly vanishes (an antipodally spread cloud, where any particle is
    as good as any other). |v| is sqrt(v . v), as np.linalg.norm
    computes it for one vector."""
    norm = math.sqrt(v.dot(v))
    if norm < 1e-12:
        return angles_of_unit_vector(*cloud[0].tolist())
    x, y, z = v.tolist()
    return angles_of_unit_vector(x / norm, y / norm, z / norm)


def _cloud_means(P: np.ndarray) -> np.ndarray:
    """(T, 3) unweighted mean of each cloud of the stack, as ndarray.mean
    computes it: the sum over the particle axis divided by n."""
    return np.add.reduce(P, axis=1) / P.shape[1]


def _greedy_pairs(dist: np.ndarray, gate: float) -> list[tuple[int, int]]:
    """Globally greedy gated pairing on a non-empty distance matrix."""
    pairs: list[tuple[int, int]] = []
    if dist.shape == (1, 1):
        return [(0, 0)] if dist[0, 0] <= gate else []
    d = dist.copy()
    while True:
        r, c = divmod(int(d.argmin()), d.shape[1])
        if not d[r, c] <= gate:
            return pairs
        pairs.append((r, c))
        d[r, :] = np.inf
        d[:, c] = np.inf


def _gated_pairs(a: np.ndarray, b: np.ndarray, gate: float) -> list[tuple[int, int]]:
    """_greedy_pairs on the angular distances between the rows of two
    non-empty stacks of unit vectors."""
    return _greedy_pairs(np.arccos(_clip(a @ b.T, -1.0, 1.0)), gate)


def cells_per_pass(cfg: TrackerConfig) -> int:
    """The most cells one pf_track_cells pass over configs like cfg may
    step: as many as keep its stack of at most max_active clouds per cell
    within MAX_ACTIVE * MAX_PARTICLES particles, and at least one."""
    return max(1, MAX_ACTIVE * MAX_PARTICLES // (cfg.max_active * cfg.n_particles))


@dataclass(slots=True)
class _Cell:
    """One filter of a pf_track_cells pass: its generator, its live
    tracks, whose clouds form one block of the shared stack in the order
    of live, its ids and candidates, and the rows it emits."""

    rng: np.random.Generator
    fresh_ids: Iterator[str]  # the ids not yet issued: t0, t1, ... up to t{k_max - 1}
    live: dict[str, int] = field(default_factory=dict)  # id -> frame born or last paired
    dead_pool: list[str] = field(default_factory=list)  # by (death frame, id), newest last
    candidates: list[tuple[np.ndarray, int]] = field(default_factory=list)  # (unit, support)
    rows: list[tuple[int, str, float, float]] = field(default_factory=list)  # (frame, id, az, el)


def pf_tracker(obs: ObservationSet, cfg: TrackerConfig) -> TrackSet:
    """Run the particle-filter tracker over an observation set.

    Online contract: the output at frame t depends only on observations
    up to t. Deterministic per cfg.seed.
    """
    return pf_track_cells(obs, [cfg])[0]


def pf_track_cells(obs: ObservationSet, cfgs: list[TrackerConfig]) -> list[TrackSet]:
    """pf_tracker(obs, cfg) for each cfg of cfgs, bit for bit, in passes
    over the frames of cells_per_pass cells each: the filters' live
    clouds of a pass share one particle stack, one block per filter in
    the order of its live map, the pass's only record of its tracks.

    The configs may differ only in seed and k_max. The observations'
    unit vectors are derived from their angles once per pass.

    A track's estimate, the direction of its cloud mean, is never
    stored: after the predict step it only feeds the association, and
    after an update or a birth it is the emitted row.

    A confirmation under the live cap always gets an id: every id a
    filter issued is either live or in its dead pool, so once k_max ids
    are issued with fewer than max_active <= k_max live, the pool holds
    k_max - live >= 1 ids.
    """
    cfg = cfgs[0]
    if any(replace(other, seed=cfg.seed, k_max=cfg.k_max) != cfg for other in cfgs):
        raise InvalidConfig("the configs of one PF pass may differ only in seed and k_max")
    per_pass = cells_per_pass(cfg)
    if len(cfgs) > per_pass:
        passes = [cfgs[i:i + per_pass] for i in range(0, len(cfgs), per_pass)]
        return [ts for group in passes for ts in pf_track_cells(obs, group)]
    cells = [
        _Cell(np.random.default_rng(c.seed),
              map("t{}".format, count() if c.k_max is None else range(c.k_max)))
        for c in cfgs
    ]
    kappa = 1.0 / cfg.likelihood_sigma**2
    n = cfg.n_particles
    ar = np.arange(n)
    sigma, gate = cfg.process_noise_sigma, cfg.assoc_gate
    birth_frames, death_frames = cfg.birth_frames, cfg.death_frames
    P = np.empty((0, n, 3))  # the cells' blocks in cell order, one row per live id in order
    units = unit_vectors_from_angles(obs.azimuth.tolist(), obs.elevation.tolist())
    offsets = obs.offsets.tolist()

    for f in range(obs.grid.n_frames):
        obs_units = units[offsets[f]:offsets[f + 1]]

        # 1. predict
        if len(P):
            P = _predict(P, sigma, [cell.rng for cell in cells for _tid in cell.live])
            if len(obs_units):
                estimates = [
                    unit_xyz(*_mean_angles(v, cloud)) for v, cloud in zip(_cloud_means(P), P)
                ]

        # 2.-5. per cell, on its own block of the stack; none of these steps draws
        paired = []  # per pair: (cell, id, stack row, observation)
        newborn = []  # per confirmation: (cell, id, unit, end of the cell's block)
        lo = 0
        for cell in cells:
            leftover = list(range(len(obs_units)))  # the frame's unspent observations
            hi = lo + len(cell.live)

            # 2. gated greedy association, nearest angular distance first
            if lo < hi and leftover:
                ids = list(cell.live)
                for ti, oi in _gated_pairs(np.array(estimates[lo:hi]), obs_units, gate):
                    paired.append((cell, ids[ti], lo + ti, oi))
                    leftover.remove(oi)

            # 3. a candidate survives only while consecutive frames support
            #    it, taking the supporting direction; oldest first, so older
            #    candidates confirm first under contention
            pairs = []
            if cell.candidates and leftover:
                cand_units = np.array([unit for unit, _support in cell.candidates])
                pairs = sorted(_gated_pairs(cand_units, obs_units[leftover], gate))
            spent = {leftover[li] for _ci, li in pairs}
            candidates = [(obs_units[leftover[li]], cell.candidates[ci][1] + 1) for ci, li in pairs]

            # 4. each observation still unspent is a new candidate's first support
            candidates += [(obs_units[oi], 1) for oi in leftover if oi not in spent]

            # 5. confirmations: reaching birth_frames consumes a candidate;
            #    those beyond the live cap are rejected
            born = [unit for unit, support in candidates if support >= birth_frames]
            cell.candidates = [cand for cand in candidates if cand[1] < birth_frames]
            for unit in born[:cfg.max_active - len(cell.live)]:
                # a fresh id while fewer than k_max are issued, else the newest-dead id
                newborn.append((cell, next(cell.fresh_ids, None) or cell.dead_pool.pop(), unit, hi))
            lo = hi

        # 6. measurement update of every paired cloud against its
        #    observation, then systematic resampling
        if paired:
            clouds = P.take([t for _cell, _tid, t, _oi in paired], 0)
            logw = (clouds @ obs_units.take([oi for *_, oi in paired], 0)[..., None])[..., 0]
            logw -= 1.0
            logw *= kappa
            logw -= np.maximum.reduce(logw, axis=1, keepdims=True)
            w = np.exp(logw, out=logw)
            w /= np.add.reduce(w, axis=1, keepdims=True)
            means = (w[:, None, :] @ clouds)[:, 0]
            cumulative = np.add.accumulate(w, axis=1)
            cumulative[:, -1] = 1.0  # guard against rounding shortfall
            for j, (cell, tid, t, _oi) in enumerate(paired):
                cloud = clouds[j]
                cell.rows.append((f, tid, *_mean_angles(means[j], cloud)))
                P[t] = cloud[cumulative[j].searchsorted((cell.rng.random() + ar) / n)]
                cell.live[tid] = f

        # 7. births: each newborn cloud is n copies of its observation,
        #    walked once, and joins the end of its cell's block
        if newborn:
            clouds = np.repeat(np.array([unit for *_, unit, _at in newborn])[:, None, :], n, axis=1)
            clouds = _predict(clouds, sigma, [cell.rng for cell, *_ in newborn])
            for (cell, tid, _unit, _at), v, cloud in zip(newborn, _cloud_means(clouds), clouds):
                cell.rows.append((f, tid, *_mean_angles(v, cloud)))
                cell.live[tid] = f
            P = np.insert(P, [at for *_, at in newborn], clouds, axis=0)

        # 8. deaths: a track dies after death_frames frames without support
        oldest = f - death_frames
        alive = [last >= oldest for cell in cells for last in cell.live.values()]
        if not all(alive):
            for cell in cells:
                cell.dead_pool += sorted(tid for tid, last in cell.live.items() if last < oldest)
                cell.live = {tid: last for tid, last in cell.live.items() if last >= oldest}
            P = P[alive]

    return [TrackSet.from_rows(obs.grid, *columns_of(cell.rows, 4)) for cell in cells]
