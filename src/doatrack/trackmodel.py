"""Identity-labeled, time-sparse track containers and their file formats.

A track is a sparse mapping frame_index -> Direction; inactivity is
represented by absence, never by a validity flag. Track identities are
opaque strings: prediction and ground-truth ids live in unrelated
namespaces and nothing may compare them except through matching.

File formats (all UTF-8, LF line endings):
  - track CSV: header ``frame,time_s,track_id,azimuth_deg,elevation_deg``,
    one row per active (track, frame), rows sorted by (frame, track_id),
    angles with 6 decimal places;
  - observation CSV: same with an extra ``source_id`` column (may be empty);
  - sidecar manifest JSON carrying the frame grid:
    ``{"frame_period_s": ..., "n_frames": ...}``.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from .errors import DuplicateEntry, ParseError, UnknownTrack
from .geometry import Direction

TRACK_CSV_HEADER = "frame,time_s,track_id,azimuth_deg,elevation_deg"
OBS_CSV_HEADER = TRACK_CSV_HEADER + ",source_id"


@dataclass(frozen=True)
class FrameGrid:
    """Uniform time grid: frame f sits at time f * frame_period seconds."""

    frame_period: float
    n_frames: int

    def __post_init__(self):
        if not self.frame_period > 0:
            raise ValueError("frame_period must be > 0")
        if not self.n_frames >= 1:
            raise ValueError("n_frames must be >= 1")

    @property
    def duration(self) -> float:
        return self.frame_period * self.n_frames

    def time_of(self, frame: int) -> float:
        return frame * self.frame_period


@dataclass(frozen=True)
class TrackSet:
    """Immutable collection of identity-labeled sparse trajectories.

    entries maps track_id -> {frame_index: Direction}. Every frame index
    must lie in [0, grid.n_frames). Treat as a value: never mutate the
    dictionaries after construction.
    """

    grid: FrameGrid
    entries: dict[str, dict[int, Direction]] = field(default_factory=dict)

    def __post_init__(self):
        for tid, frames in self.entries.items():
            for f in frames:
                if not 0 <= f < self.grid.n_frames:
                    raise ValueError(
                        f"track {tid!r}: frame {f} outside [0, {self.grid.n_frames})"
                    )

    @staticmethod
    def build(
        grid: FrameGrid, rows: Iterable[tuple[int, str, Direction]]
    ) -> "TrackSet":
        """Assemble from (frame, track_id, direction) rows.

        Raises DuplicateEntry on a repeated (track_id, frame) pair.
        """
        entries: dict[str, dict[int, Direction]] = {}
        for frame, tid, direction in rows:
            per_track = entries.setdefault(tid, {})
            if frame in per_track:
                raise DuplicateEntry(f"duplicate entry for track {tid!r} frame {frame}")
            per_track[frame] = direction
        return TrackSet(grid, entries)

    def track_ids(self) -> list[str]:
        return sorted(self.entries)

    def n_entries(self) -> int:
        """Total number of active (track, frame) pairs."""
        return sum(len(frames) for frames in self.entries.values())


class Observation(NamedTuple):
    direction: Direction
    source_id: str | None


@dataclass(frozen=True)
class ObservationSet:
    """Per-frame bags of directions, optionally tagged with the true
    source track id (used only by the oracle tracker and tests)."""

    grid: FrameGrid
    frames: tuple[tuple[Observation, ...], ...]

    def __post_init__(self):
        if len(self.frames) != self.grid.n_frames:
            raise ValueError(
                f"expected {self.grid.n_frames} frames, got {len(self.frames)}"
            )

    def n_observations(self) -> int:
        return sum(len(f) for f in self.frames)


def activity_mask(ts: TrackSet, track_id: str) -> np.ndarray:
    """Boolean array of length n_frames, true exactly at active frames."""
    if track_id not in ts.entries:
        raise UnknownTrack(track_id)
    mask = np.zeros(ts.grid.n_frames, dtype=bool)
    mask[list(ts.entries[track_id])] = True
    return mask


def per_frame_entries(ts: TrackSet) -> list[list[tuple[str, Direction]]]:
    """Active (track_id, Direction) pairs per frame, sorted by id."""
    frames: list[list[tuple[str, Direction]]] = [[] for _ in range(ts.grid.n_frames)]
    for tid in sorted(ts.entries):
        for f, d in ts.entries[tid].items():
            frames[f].append((tid, d))
    return frames


def _fmt_angle(radians: float) -> str:
    return f"{math.degrees(radians):.6f}"


def _check_id(track_id: str) -> str:
    if "," in track_id or "\n" in track_id or track_id == "":
        raise ValueError(f"track id {track_id!r} not representable in CSV")
    return track_id


@contextmanager
def open_text(target: str | Path | TextIO, mode: str):
    """Open a UTF-8 text file for reading ("r") or writing ("w").

    A stream passed in is used as is and left open. A path written to
    goes to ``<path>.partial`` first and replaces the path only once the
    block completes, so an interrupted write never leaves a truncated
    file, which could parse as valid, under the final name.
    """
    if not isinstance(target, (str, Path)):
        yield target
    elif mode == "r":
        with open(target, "r", encoding="utf-8", newline="") as stream:
            yield stream
    else:
        partial = f"{os.fspath(target)}.partial"
        try:
            with open(partial, "w", encoding="utf-8", newline="\n") as stream:
                yield stream
            os.replace(partial, target)
        except BaseException:
            with suppress(FileNotFoundError):
                os.remove(partial)
            raise


def write_trackset(ts: TrackSet, dest: str | Path | TextIO) -> None:
    """Write the track CSV; byte-stable for equal TrackSets."""
    rows = []
    for tid, frames in ts.entries.items():
        _check_id(tid)
        for f, d in frames.items():
            rows.append((f, tid, d))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open_text(dest, "w") as stream:
        stream.write(TRACK_CSV_HEADER + "\n")
        for f, tid, d in rows:
            az, el = _fmt_angle(d.azimuth), _fmt_angle(d.elevation)
            stream.write(f"{f},{ts.grid.time_of(f):.6f},{tid},{az},{el}\n")


def read_trackset(src: str | Path | TextIO, grid: FrameGrid) -> TrackSet:
    """Parse a track CSV against a known frame grid.

    Raises:
        ParseError: malformed header or row (carries the line number).
        DuplicateEntry: repeated (track_id, frame) pair.
    """
    with open_text(src, "r") as stream:
        rows = _parse_rows(stream, grid, expect_source=False)
    return TrackSet.build(grid, [(f, tid, d) for f, tid, d, _ in rows])


def write_observations(obs: ObservationSet, dest: str | Path | TextIO) -> None:
    """Write the observation CSV.

    The track_id column carries the within-frame observation index; it
    is not semantic and is ignored on read.
    """
    with open_text(dest, "w") as stream:
        stream.write(OBS_CSV_HEADER + "\n")
        for f, frame_obs in enumerate(obs.frames):
            t = obs.grid.time_of(f)
            for k, (d, source_id) in enumerate(frame_obs):
                tag = _check_id(source_id) if source_id is not None else ""
                az, el = _fmt_angle(d.azimuth), _fmt_angle(d.elevation)
                stream.write(f"{f},{t:.6f},{k},{az},{el},{tag}\n")


def read_observations(src: str | Path | TextIO, grid: FrameGrid) -> ObservationSet:
    """Parse an observation CSV; within-frame order follows file order."""
    with open_text(src, "r") as stream:
        rows = _parse_rows(stream, grid, expect_source=True)
    frames: list[list[Observation]] = [[] for _ in range(grid.n_frames)]
    for f, _tid, d, source_id in rows:
        frames[f].append(Observation(d, source_id))
    return ObservationSet(grid, tuple(tuple(f) for f in frames))


def _parse_rows(stream: TextIO, grid: FrameGrid, expect_source: bool):
    header = stream.readline().rstrip("\n")
    allowed = {OBS_CSV_HEADER} if expect_source else {TRACK_CSV_HEADER}
    if expect_source:
        allowed.add(TRACK_CSV_HEADER)  # untagged observation files are fine
    if header not in allowed:
        raise ParseError(f"unexpected header {header!r}", line=1)
    has_source = header == OBS_CSV_HEADER
    rows = []
    for lineno, raw in enumerate(stream, start=2):
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != (6 if has_source else 5):
            raise ParseError(f"expected {6 if has_source else 5} fields", line=lineno)
        try:
            frame = int(parts[0])
            az_deg = float(parts[3])
            el_deg = float(parts[4])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if not 0 <= frame < grid.n_frames:
            raise ParseError(
                f"frame {frame} outside [0, {grid.n_frames})", line=lineno
            )
        try:
            direction = Direction.from_degrees(az_deg, el_deg)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        source_id = None
        if has_source and parts[5] != "":
            source_id = parts[5]
        rows.append((frame, parts[2], direction, source_id))
    return rows


def write_json(doc: dict, path: str | Path) -> None:
    """Write a JSON document with sorted keys, 2-space indent and a final newline."""
    with open_text(path, "w") as stream:
        stream.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_manifest(grid: FrameGrid, path: str | Path, extra: dict | None = None) -> None:
    """Write the sidecar manifest; extra keys are merged in verbatim."""
    doc = {"frame_period_s": grid.frame_period, "n_frames": grid.n_frames}
    if extra:
        doc.update(extra)
    write_json(doc, path)


def read_manifest(path: str | Path) -> tuple[FrameGrid, dict]:
    """Read a manifest; returns the grid and the full document."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        grid = FrameGrid(float(doc["frame_period_s"]), int(doc["n_frames"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad manifest {path}: {exc}") from exc
    return grid, doc


def trackset_to_string(ts: TrackSet) -> str:
    buf = io.StringIO()
    write_trackset(ts, buf)
    return buf.getvalue()
