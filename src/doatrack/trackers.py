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

A track emits a direction on the frames where an observation supported
it; between supports it stays alive (and can re-associate, keeping its
id) for up to death_frames frames without emitting.

The particles of a scene's live tracks form one (T, n_particles, 3)
stack that lives across frames: each frame predicts and averages the
whole stack with a few numpy calls, while the weight update and the
resample run per associated track on its row. The generator is drawn
from in a fixed order: per frame, each live track in live order draws
its walk (uniform headings, then normal arcs, drawn even when
process_noise_sigma is 0); each associated track, in pairing order,
draws its resampling offset; each newborn track, in confirmation
order, draws its first walk. tests/test_trackers.py pins the stacked
filter bit for bit to the one-track-at-a-time filter in
tests/_oracles.py.

The white-box adversaries (splitter/merger/swapper) read the ground
truth directly and exist to calibrate the metrics: they realize pure
splitting, pure merging and pure label-swapping failure modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, count

import numpy as np

from .errors import InvalidConfig, InvalidK, MissingTags
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
    """Exchange the id labels of the two first tracks every period_s."""
    if period_s <= 0:
        raise InvalidConfig("period_s must be > 0")
    if len(gt.ids) < 2:
        raise InvalidConfig("swapper needs at least two tracks")
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


def _predict(P: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Rotate each particle of the (T, n, 3) stack P by |N(0, sigma)|
    toward a uniform tangent heading; returns the new stack.

    Each cloud draws uniform(0, 2 pi, n) and then normal(0, sigma, n),
    in stack order and even at sigma = 0. The walk is one pass over the
    stack through elementwise expressions only, so each cloud moves bit
    for bit as it would alone.
    """
    T, n, _ = P.shape
    # angles holds, per particle, its azimuth and elevation and then its
    # heading and arc draws, so that one sin and one cos call cover all
    angles = np.empty((4, T, n))
    for t in range(T):
        angles[2, t] = rng.uniform(0.0, TWO_PI, n)
        angles[3, t] = rng.normal(0.0, sigma, n)
    if sigma == 0:
        return P
    np.abs(angles[3], out=angles[3])
    np.arctan2(P[..., 1], P[..., 0], out=angles[0])
    np.arcsin(_clip(P[..., 2], -1.0, 1.0), out=angles[1])
    (ca, ce, ch, cm), (sa, se, sh, sm) = np.cos(angles), np.sin(angles)
    # the local east (-sa, ca, 0) and north (-se * ca, -se * sa, ce)
    east = np.empty_like(P)
    east[..., 0] = -sa
    east[..., 1] = ca
    east[..., 2] = 0.0
    north = np.empty_like(P)
    north[..., 0] = -se * ca
    north[..., 1] = -se * sa
    north[..., 2] = ce
    tangent = ch[..., None] * east + sh[..., None] * north
    moved = cm[..., None] * P + sm[..., None] * tangent
    # np.linalg.norm(moved, axis=-1) is this sum of squares
    moved /= np.sqrt(np.add.reduce(moved * moved, axis=-1))[..., None]
    return moved


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


def pf_tracker(obs: ObservationSet, cfg: TrackerConfig) -> TrackSet:
    """Run the particle-filter tracker over an observation set.

    Online contract: the output at frame t depends only on observations
    up to t. Deterministic per cfg.seed. The observations' unit vectors
    are derived from their angles once per scene.

    A track's estimate, the direction of its cloud mean, is never
    stored: after the predict step it only feeds the association, and
    after an update or a birth it is the emitted row.

    A confirmation under the live cap always gets an id: every id issued
    is either live or in the dead pool, so once k_max ids are issued
    with fewer than max_active <= k_max live, the pool holds
    k_max - len(live) >= 1 ids.
    """
    rng = np.random.default_rng(cfg.seed)
    kappa = 1.0 / cfg.likelihood_sigma**2
    n = cfg.n_particles
    ar = np.arange(n)
    sigma = cfg.process_noise_sigma
    P = np.empty((0, n, 3))  # live[t]'s particles are P[t]
    live: list[str] = []
    unsupported: list[int] = []  # frames since live[t] was last associated
    candidates: list[tuple[np.ndarray, int]] = []  # (unit, support), oldest first
    dead_pool: list[str] = []  # dead ids by (death frame, id), newest last
    # the ids not yet issued: t0, t1, ... up to t{k_max - 1}
    fresh_ids = map("t{}".format, count() if cfg.k_max is None else range(cfg.k_max))
    rows: list[tuple[int, str, float, float]] = []  # (frame, id, azimuth, elevation)
    units = unit_vectors_from_angles(obs.azimuth.tolist(), obs.elevation.tolist())

    for f in range(obs.grid.n_frames):
        obs_units = units[obs.offsets[f]:obs.offsets[f + 1]]
        leftover = list(range(len(obs_units)))  # the frame's unspent observations
        unsupported = [k + 1 for k in unsupported]

        # 1. predict
        if live:
            P = _predict(P, sigma, rng)

        # 2. gated greedy association, nearest angular distance first
        if live and leftover:
            track_units = np.array([
                unit_xyz(*_mean_angles(v, cloud)) for v, cloud in zip(_cloud_means(P), P)
            ])
            for ti, oi in _gated_pairs(track_units, obs_units, cfg.assoc_gate):
                # 3. measurement update against the associated observation,
                #    then systematic resampling
                cloud = P[ti]
                logw = kappa * (cloud @ obs_units[oi] - 1.0)
                w = np.exp(logw - np.maximum.reduce(logw))
                w /= np.add.reduce(w)
                az, el = _mean_angles(w @ cloud, cloud)
                cumulative = np.cumsum(w)
                cumulative[-1] = 1.0  # guard against rounding shortfall
                P[ti] = cloud[np.searchsorted(cumulative, (rng.random() + ar) / n)]
                rows.append((f, live[ti], az, el))
                unsupported[ti] = 0
                leftover.remove(oi)

        # 4. a candidate survives only while consecutive frames support
        #    it, taking the supporting direction; oldest first, so older
        #    candidates confirm first under contention
        pairs = []
        if candidates and leftover:
            cand_units = np.array([unit for unit, _support in candidates])
            pairs = sorted(_gated_pairs(cand_units, obs_units[leftover], cfg.assoc_gate))
        spent = {leftover[li] for _ci, li in pairs}
        candidates = [(obs_units[leftover[li]], candidates[ci][1] + 1) for ci, li in pairs]

        # 5. each observation still unspent is a new candidate's first support
        candidates += [(obs_units[oi], 1) for oi in leftover if oi not in spent]

        # 6. confirmations: reaching birth_frames consumes a candidate;
        #    those beyond the live cap are rejected
        born = [unit for unit, support in candidates if support >= cfg.birth_frames]
        born = born[:cfg.max_active - len(live)]
        candidates = [cand for cand in candidates if cand[1] < cfg.birth_frames]
        if born:
            # a fresh id while fewer than k_max are issued, else the newest-dead id
            live += [next(fresh_ids, None) or dead_pool.pop() for _unit in born]
            unsupported += [0] * len(born)
            # each newborn cloud is n copies of its observation, walked once
            clouds = _predict(np.repeat(np.array(born)[:, None, :], n, axis=1), sigma, rng)
            for tid, v, cloud in zip(live[-len(born):], _cloud_means(clouds), clouds):
                rows.append((f, tid, *_mean_angles(v, cloud)))
            P = np.concatenate([P, clouds])

        # 7. deaths
        alive = [k <= cfg.death_frames for k in unsupported]
        if not all(alive):
            dead_pool += sorted(tid for tid, ok in zip(live, alive) if not ok)
            P = P[alive]
            live = list(compress(live, alive))
            unsupported = list(compress(unsupported, alive))

    return TrackSet.from_rows(obs.grid, *columns_of(rows, 4))
