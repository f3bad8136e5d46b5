"""Seeded generation of ground-truth scenes and noisy DoA observations.

Scene modes:
  jump          speakers are static while speaking and relocate to a new
                candidate position during each silence;
  static        one position for the whole scene, intermittent activity;
  moving        one fully-active great-circle trajectory at constant
                angular velocity;
  moving_zeroed the moving trajectory with activity deleted on randomly
                drawn windows (movement continues during the holes), so
                the observable track is discontinuous.

Activity alternates speech segments and silences, both with uniformly
drawn lengths, until the scene duration is filled; the final segment is
truncated at the duration rather than discarded. All generation is
deterministic given the config seed.

The observation model is a desk-scale stand-in for a frame-level DoA
localizer: per active (track, frame) it emits the true direction
perturbed by an isotropic folded-normal rotation, drops it with a miss
probability, and adds Poisson-distributed uniform clutter per frame.

Both stages work on (azimuth, elevation) floats and build their result
from rows; the only Direction objects are the sampled positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .geometry import (
    TWO_PI,
    move_along_great_circle,
    perturb_direction,
    sample_direction,
    sample_separated_set,
)
from .trackers import MAX_ACTIVE
from .trackmodel import FrameGrid, ObservationSet, TrackSet, columns_of

MODES = ("jump", "static", "moving", "moving_zeroed")
_SEGMENTED_MODES = ("jump", "static", "moving_zeroed")

# Bounds on the values that size a scene's generation: sample_separated_set
# makes up to n_positions * max_attempts**2 draws, and
# simulate_observations one per clutter point.
MAX_POSITIONS = 100
MAX_ATTEMPTS = 1000
MAX_CLUTTER_RATE = 100.0  # mean clutter points per frame


@dataclass(frozen=True)
class ScenarioConfig:
    """Generative parameters of one scene family.

    Angles are radians (per the package convention); segment/gap bounds
    are (min, max) seconds. In segmented modes both minima must be at
    least one frame period, otherwise a segment or gap could vanish in
    discretization.
    """

    n_speakers: int
    mode: str = "jump"
    n_positions: int = 6
    min_separation: float = math.radians(60.0)
    duration_s: float = 60.0
    frame_period_s: float = 0.1
    segment_len_s: tuple[float, float] = (1.0, 6.0)
    gap_len_s: tuple[float, float] = (0.1, 1.0)
    angular_speed: float = math.radians(10.0)  # rad/s, moving modes only
    exclude_previous: bool = True
    seed: int = 0
    max_attempts: int = 200

    def __post_init__(self):
        # n_speakers is the pf's default max_active, so the PF's bound holds
        if not 1 <= self.n_speakers <= MAX_ACTIVE:
            raise InvalidConfig(f"n_speakers must lie in [1, {MAX_ACTIVE}], got {self.n_speakers}")
        if self.mode not in MODES:
            raise InvalidConfig(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.duration_s > 0 or not self.frame_period_s > 0:
            raise InvalidConfig("duration_s and frame_period_s must be > 0")
        try:  # round() of an infinite ratio raises OverflowError
            self.grid
        except (ValueError, OverflowError) as exc:
            raise InvalidConfig(
                f"duration_s / frame_period_s = {self.duration_s / self.frame_period_s!r} "
                f"must round to the frame count of a frame grid: {exc}"
            ) from None
        if not 1 <= self.n_positions <= MAX_POSITIONS:
            raise InvalidConfig(f"n_positions must lie in [1, {MAX_POSITIONS}]")
        if self.mode == "jump" and self.n_positions < 2:
            raise InvalidConfig("jump mode needs n_positions >= 2")
        if not 1 <= self.max_attempts <= MAX_ATTEMPTS:
            raise InvalidConfig(f"max_attempts must lie in [1, {MAX_ATTEMPTS}]")
        if self.mode in ("jump", "static"):
            if not 0 < self.min_separation <= math.pi:
                raise InvalidConfig("min_separation must lie in (0, pi]")
            # Caps of angular radius min_separation / 2 around the positions
            # are disjoint, and each covers 2 pi (1 - cos radius) of the 4 pi
            # sphere. Passing this bound does not make a request feasible.
            load = self.n_positions * (1 - math.cos(self.min_separation / 2))
            if load > 2 + 1e-9:
                raise InvalidConfig(
                    f"{self.n_positions} positions cannot lie "
                    f"{math.degrees(self.min_separation):g} deg apart on the sphere: "
                    f"n_positions * (1 - cos(min_separation / 2)) = {load:.4g} > 2"
                )
        seg_lo, seg_hi = self.segment_len_s
        gap_lo, gap_hi = self.gap_len_s
        if not 0 < seg_lo <= seg_hi:
            raise InvalidConfig("segment bounds must satisfy 0 < min <= max")
        if not 0 < gap_lo <= gap_hi <= self.duration_s:
            raise InvalidConfig("gap bounds must lie within (0, duration]")
        if self.mode in _SEGMENTED_MODES:
            if seg_lo < self.frame_period_s or gap_lo < self.frame_period_s:
                raise InvalidConfig(
                    "segment and gap minima must be >= frame_period_s so "
                    "every segment and gap covers at least one frame"
                )
        if self.mode in ("moving", "moving_zeroed") and not self.angular_speed > 0:
            raise InvalidConfig("angular_speed must be > 0 in moving modes")

    @property
    def grid(self) -> FrameGrid:
        return FrameGrid(self.frame_period_s, round(self.duration_s / self.frame_period_s))


@dataclass(frozen=True)
class ObservationModel:
    """Noise/miss/clutter model applied on top of a ground-truth scene."""

    angular_noise_sigma: float = math.radians(2.0)
    p_miss: float = 0.0
    clutter_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_miss <= 1.0:
            raise InvalidConfig("p_miss must lie in [0, 1]")
        if not 0 <= self.clutter_rate <= MAX_CLUTTER_RATE:
            raise InvalidConfig(f"clutter_rate must lie in [0, {MAX_CLUTTER_RATE:g}]")
        if self.angular_noise_sigma < 0:
            raise InvalidConfig("angular_noise_sigma must be >= 0")


def _draw_segments(
    duration: float,
    segment_len_s: tuple[float, float],
    gap_len_s: tuple[float, float],
    rng: np.random.Generator,
) -> list[tuple[float, float]]:
    """Alternating speech/silence spans tiling [0, duration]."""
    t = 0.0
    segments = []
    while t < duration:
        end = min(t + rng.uniform(*segment_len_s), duration)
        segments.append((t, end))
        t = end + rng.uniform(*gap_len_s)
    return segments


def _segment_frames(start: float, end: float, grid: FrameGrid) -> list[int]:
    """Frames whose instant f * period lies in [start, end)."""
    first = max(0, math.ceil(start / grid.frame_period - 1e-9))
    frames = []
    f = first
    while f < grid.n_frames and grid.time_of(f) < end:
        frames.append(f)
        f += 1
    return frames


def generate_scene(cfg: ScenarioConfig) -> TrackSet:
    """Generate one ground-truth scene; deterministic per cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid
    names = [f"spk{j}" for j in range(cfg.n_speakers)]
    rows: list[tuple[int, str, float, float]] = []  # (frame, id, azimuth, elevation)
    for name in names:
        if cfg.mode in ("jump", "static"):
            candidates = sample_separated_set(
                cfg.n_positions, cfg.min_separation, rng, cfg.max_attempts
            )
            segments = _draw_segments(cfg.duration_s, cfg.segment_len_s, cfg.gap_len_s, rng)
            idx = int(rng.integers(cfg.n_positions))
            for s, (start, end) in enumerate(segments):
                if s and cfg.mode == "jump":
                    if cfg.exclude_previous:
                        step = int(rng.integers(cfg.n_positions - 1))
                        idx = step if step < idx else step + 1
                    else:
                        idx = int(rng.integers(cfg.n_positions))
                az, el = candidates[idx].azimuth, candidates[idx].elevation
                rows += [(f, name, az, el) for f in _segment_frames(start, end, grid)]
        else:
            # Trajectory parameters are drawn before the activity pattern
            # so moving and moving_zeroed share trajectories per seed.
            start_dir = sample_direction(rng)
            heading = rng.uniform(0.0, TWO_PI)
            step = cfg.angular_speed * grid.frame_period
            if cfg.mode == "moving":
                active = range(grid.n_frames)
            else:
                segments = _draw_segments(
                    cfg.duration_s, cfg.segment_len_s, cfg.gap_len_s, rng
                )
                active = [
                    f for s, e in segments for f in _segment_frames(s, e, grid)
                ]
            az, el = start_dir.azimuth, start_dir.elevation
            for f in active:
                rows.append((f, name, *move_along_great_circle(az, el, heading, f * step)))
    return TrackSet.from_rows(grid, *columns_of(rows, 4), ids=names)


def simulate_observations(gt: TrackSet, om: ObservationModel) -> ObservationSet:
    """Noisy per-frame observations of a scene; deterministic per om.seed.

    Each frame's ground-truth rows are observed in id order, then its
    clutter is drawn. Tagged observations carry the originating track
    id; clutter is untagged and uniform on the sphere.
    """
    rng = np.random.default_rng(om.seed)
    offsets = gt.offsets.tolist()
    azimuth, elevation = gt.azimuth.tolist(), gt.elevation.tolist()
    rows: list[tuple[int, float, float, str | None]] = []  # (frame, azimuth, elevation, source)
    for f in range(gt.grid.n_frames):
        for i in range(offsets[f], offsets[f + 1]):
            # Draws are unconditional so the stream does not depend on
            # the miss outcome.
            missed = rng.random() < om.p_miss
            az, el = perturb_direction(azimuth[i], elevation[i], om.angular_noise_sigma, rng)
            if not missed:
                rows.append((f, az, el, gt.ids[gt.id_code[i]]))
        for _ in range(int(rng.poisson(om.clutter_rate))):
            clutter = sample_direction(rng)
            rows.append((f, clutter.azimuth, clutter.elevation, None))
    return ObservationSet(gt.grid, *columns_of(rows, 4))
