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

The white-box adversaries (splitter/merger/swapper) read the ground
truth directly and exist to calibrate the metrics: they realize pure
splitting, pure merging and pure label-swapping failure modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvalidK, MissingTags
from .geometry import Direction, from_unit_vector, unit_vector
from .trackmodel import ObservationSet, TrackSet, columns_of

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TrackerConfig:
    """Particle-filter tracker policy and dynamics.

    k_max bounds the number of distinct ids ever issued (None means
    unbounded); max_active caps simultaneously live tracks. A track
    survives up to death_frames consecutive frames without support.
    likelihood_sigma sets the observation kernel exp(kappa * cos(d))
    via kappa = 1 / likelihood_sigma**2.
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
        if self.max_active < 1:
            raise InvalidConfig("max_active must be >= 1")
        if self.k_max is not None and self.k_max < self.max_active:
            raise InvalidConfig("k_max must be >= max_active when bounded")
        if self.birth_frames < 1 or self.death_frames < 1:
            raise InvalidConfig("birth_frames and death_frames must be >= 1")
        if self.n_particles < 1:
            raise InvalidConfig("n_particles must be >= 1")
        if not 0.0 < self.assoc_gate <= math.pi:
            raise InvalidConfig("assoc_gate must lie in (0, pi]")
        if self.process_noise_sigma < 0 or not self.likelihood_sigma > 0:
            raise InvalidConfig("bad noise parameters")


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
    cols = gt.columns
    return TrackSet.from_rows(
        gt.grid,
        cols.frame[rows],
        np.array(names, dtype=object)[code],
        cols.azimuth[rows],
        cols.elevation[rows],
    )


def splitter_tracker(gt: TrackSet, k: int) -> TrackSet:
    """Relabel each ground-truth track with k ids over equal spans of
    its active frames (spans differ by at most one frame when the count
    is not divisible by k)."""
    if k < 1:
        raise InvalidK("k must be >= 1")
    cols = gt.columns
    code = np.empty(len(cols.frame), dtype=np.int64)
    for c, tid in enumerate(cols.ids):
        rows = np.flatnonzero(cols.id_code == c)  # the track's rows, in frame order
        if k > len(rows):
            raise InvalidK(f"k={k} exceeds {len(rows)} active frames of {tid!r}")
        for i, span in enumerate(np.array_split(rows, k)):
            code[span] = c * k + i
    return _relabeled(gt, [f"{tid}_s{i}" for tid in cols.ids for i in range(k)], code)


def merger_tracker(gt: TrackSet) -> TrackSet:
    """Assign every ground-truth track one shared prediction id.

    When several tracks are active in a frame the merged prediction
    takes the direction of the lexicographically first one.
    """
    offsets = gt.columns.offsets
    first_rows = offsets[:-1][np.diff(offsets) > 0]
    return _relabeled(gt, ["m0"], np.zeros(len(first_rows), dtype=np.int64), first_rows)


def swapper_tracker(gt: TrackSet, period_s: float) -> TrackSet:
    """Exchange the id labels of the two first tracks every period_s."""
    if period_s <= 0:
        raise InvalidConfig("period_s must be > 0")
    cols = gt.columns
    if len(cols.ids) < 2:
        raise InvalidConfig("swapper needs at least two tracks")
    swapped = np.arange(len(cols.ids))
    swapped[:2] = 1, 0
    odd_period = (cols.frame * gt.grid.frame_period) // period_s % 2 == 1
    code = np.where(odd_period, swapped[cols.id_code], cols.id_code)
    return _relabeled(gt, [f"p_{tid}" for tid in cols.ids], code)


# ---------------------------------------------------------------------------
# particle filter internals
# ---------------------------------------------------------------------------


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


def pf_tracker(obs: ObservationSet, cfg: TrackerConfig) -> TrackSet:
    """Run the particle-filter tracker over an observation set.

    Online contract: the output at frame t depends only on observations
    up to t. Deterministic per cfg.seed.
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
        obs_units = obs.unit[obs.offsets[f]:obs.offsets[f + 1]]
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
