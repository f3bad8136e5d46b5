"""Identity-labeled, time-sparse track containers and their file formats.

A track is a sparse mapping frame_index -> Direction; inactivity is
represented by absence, never by a validity flag. Track identities are
opaque strings: prediction and ground-truth ids live in unrelated
namespaces and nothing may compare them except through matching.

File formats (all UTF-8, LF line endings):
  - track CSV: header ``frame,time_s,track_id,azimuth_deg,elevation_deg``,
    one row per active (track, frame), rows sorted by (frame, track_id),
    angles with 6 decimal places; time_s is frame * frame_period with 6
    decimal places, and a reader rejects a row whose time_s is further
    than TIME_TOLERANCE_S from it;
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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import DuplicateEntry, ParseError, UnknownTrack
from .geometry import Direction, unit_vectors_from_angles, wrap_azimuth

TRACK_CSV_HEADER = "frame,time_s,track_id,azimuth_deg,elevation_deg"
OBS_CSV_HEADER = TRACK_CSV_HEADER + ",source_id"

# Largest accepted |time_s - frame * frame_period|: the 6-decimal column
# is off by at most 5e-7 s.
TIME_TOLERANCE_S = 1e-6

_HALF_PI = math.pi / 2
_RADIANS_PER_DEGREE = math.pi / 180.0  # the factor of math.radians


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


class TrackColumns(NamedTuple):
    """The columnar form of a TrackSet: one row per active (track, frame),
    sorted by frame and then by track id.

    ids holds every track id, sorted; id_code indexes it, so code order
    is id order. azimuth and elevation are radians as a Direction holds
    them, unit the matching unit vectors. Frame f owns rows
    offsets[f]:offsets[f + 1].
    """

    ids: tuple[str, ...]
    frame: np.ndarray
    id_code: np.ndarray
    azimuth: np.ndarray
    elevation: np.ndarray
    unit: np.ndarray
    offsets: np.ndarray


def _columns_from_rows(
    grid: FrameGrid, ids: tuple[str, ...], frame, id_code, azimuth, elevation
) -> TrackColumns:
    """TrackColumns from rows already sorted by (frame, id code)."""
    frame = np.asarray(frame, dtype=np.int32)
    azimuth = np.asarray(azimuth, dtype=float)
    elevation = np.asarray(elevation, dtype=float)
    offsets = np.zeros(grid.n_frames + 1, dtype=np.int64)
    np.cumsum(np.bincount(frame, minlength=grid.n_frames), out=offsets[1:])
    unit = unit_vectors_from_angles(azimuth.tolist(), elevation.tolist())
    return TrackColumns(
        ids, frame, np.asarray(id_code, dtype=np.int32), azimuth, elevation, unit, offsets
    )


class TrackSet:
    """Immutable collection of identity-labeled sparse trajectories.

    A TrackSet has two equal forms, each built from the other on first
    use. entries maps track_id -> {frame_index: Direction}; trackers,
    writers and lint read it. columns is the TrackColumns evaluation
    reads. A TrackSet read from a CSV starts from its columns, one built
    in memory from its entries. Every frame index must lie in
    [0, grid.n_frames). Treat as a value: never mutate the dictionaries
    after construction.
    """

    __slots__ = ("_grid", "_entries", "_columns")

    def __init__(
        self,
        grid: FrameGrid,
        entries: dict[str, dict[int, Direction]] | None = None,
        *,
        columns: TrackColumns | None = None,
    ):
        if columns is None:
            entries = {} if entries is None else entries
            for tid, frames in entries.items():
                for f in frames:
                    if not 0 <= f < grid.n_frames:
                        raise ValueError(
                            f"track {tid!r}: frame {f} outside [0, {grid.n_frames})"
                        )
        elif entries is not None:
            raise ValueError("give a TrackSet its entries or its columns, not both")
        self._grid = grid
        self._entries = entries
        self._columns = columns

    @property
    def grid(self) -> FrameGrid:
        return self._grid

    @property
    def entries(self) -> dict[str, dict[int, Direction]]:
        if self._entries is None:
            cols = self._columns
            entries: dict[str, dict[int, Direction]] = {}
            for f, code, az, el in zip(
                cols.frame.tolist(), cols.id_code.tolist(),
                cols.azimuth.tolist(), cols.elevation.tolist(),
            ):
                entries.setdefault(cols.ids[code], {})[f] = Direction._normalized(az, el)
            self._entries = entries
        return self._entries

    @property
    def columns(self) -> TrackColumns:
        if self._columns is None:
            ids = tuple(sorted(self._entries))
            rows = sorted(
                (f, code, d)
                for code, tid in enumerate(ids)
                for f, d in self._entries[tid].items()
            )
            self._columns = _columns_from_rows(
                self._grid,
                ids,
                [f for f, _c, _d in rows],
                [c for _f, c, _d in rows],
                [d.azimuth for _f, _c, d in rows],
                [d.elevation for _f, _c, d in rows],
            )
        return self._columns

    def __eq__(self, other):
        if not isinstance(other, TrackSet):
            return NotImplemented
        return self.grid == other.grid and self.entries == other.entries

    def __repr__(self) -> str:
        return f"TrackSet(grid={self.grid!r}, entries={self.entries!r})"

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
        if self._columns is not None:
            return list(self._columns.ids)
        return sorted(self._entries)

    def n_entries(self) -> int:
        """Total number of active (track, frame) pairs."""
        if self._columns is not None:
            return len(self._columns.frame)
        return sum(len(frames) for frames in self._entries.values())


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
    """Parse a track CSV against a known frame grid, straight into columns.

    Raises:
        ParseError: malformed header or row (carries the line number).
        DuplicateEntry: repeated (track_id, frame) pair (carries the
            line of the repeat).
    """
    with open_text(src, "r") as stream:
        rows = _parse_rows(stream, grid, expect_source=False)
    ids = tuple(sorted(set(rows.track_id)))
    code_of = {tid: code for code, tid in enumerate(ids)}
    code = np.fromiter(map(code_of.__getitem__, rows.track_id), np.int64, len(rows.frame))
    frame, azimuth, elevation = rows.frame, rows.azimuth, rows.elevation
    key = frame * len(ids) + code
    if not np.all(key[1:] > key[:-1]):  # out of (frame, id) order, or repeated
        order = np.argsort(key, kind="stable")
        repeats = order[1:][key[order][1:] == key[order][:-1]]
        if len(repeats):
            i = int(repeats.min())
            raise DuplicateEntry(
                f"duplicate entry for track {rows.track_id[i]!r} frame {rows.frame[i]}",
                line=rows.lines[i],
            )
        frame, code = frame[order], code[order]
        azimuth, elevation = azimuth[order], elevation[order]
    return TrackSet(grid, columns=_columns_from_rows(grid, ids, frame, code, azimuth, elevation))


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
    tags = rows.source_id or ("",) * len(rows.frame)
    for f, az, el, tag in zip(
        rows.frame.tolist(), rows.azimuth.tolist(), rows.elevation.tolist(), tags
    ):
        frames[f].append(Observation(Direction._normalized(az, el), tag or None))
    return ObservationSet(grid, tuple(tuple(f) for f in frames))


class _Rows(NamedTuple):
    """The checked rows of a track or observation CSV, in file order.

    Angles are radians as a Direction holds them. source_id is the raw
    column of a tagged observation file ("" for untagged), else None.
    """

    lines: Sequence[int]
    frame: np.ndarray
    track_id: tuple[str, ...]
    azimuth: np.ndarray
    elevation: np.ndarray
    source_id: tuple[str, ...] | None


def _parse_rows(stream: TextIO, grid: FrameGrid, expect_source: bool) -> _Rows:
    """The one row parser of track and observation CSVs.

    Rows are checked a column at a time. If any check fails, the rows
    are checked again one at a time, and the first bad row in file order
    raises its ParseError.
    """
    header = stream.readline().rstrip("\n")
    allowed = {OBS_CSV_HEADER} if expect_source else {TRACK_CSV_HEADER}
    if expect_source:
        allowed.add(TRACK_CSV_HEADER)  # untagged observation files are fine
    if header not in allowed:
        raise ParseError(f"unexpected header {header!r}", line=1)
    n_fields = 6 if header == OBS_CSV_HEADER else 5
    texts = [raw.rstrip("\n") for raw in stream]
    lines: Sequence[int] = range(2, len(texts) + 2)
    if not all(texts):  # blank lines are skipped
        lines = [n for n, text in zip(lines, texts) if text]
        texts = [text for text in texts if text]
    parts = [text.split(",") for text in texts]
    columns = _checked_columns(parts, n_fields, grid)
    if columns is None:
        for line, row in zip(lines, parts):
            _check_row(row, line, n_fields, grid)
        raise ParseError("rows failed a check no single row fails")
    return _Rows(lines, *columns)


def _checked_columns(parts: list[list[str]], n_fields: int, grid: FrameGrid):
    """(frame, track_id, azimuth, elevation, source_id) of split rows that
    all pass the checks of _check_row, made here on whole columns; None
    if some row fails one."""
    n = len(parts)
    if set(map(len, parts)) - {n_fields}:
        return None
    cols = list(zip(*parts)) or [()] * n_fields
    try:
        frame = list(map(int, cols[0]))
        time_s = np.fromiter(map(float, cols[1]), float, n)
        azimuth = np.fromiter(map(float, cols[3]), float, n) * _RADIANS_PER_DEGREE
        elevation = np.fromiter(map(float, cols[4]), float, n) * _RADIANS_PER_DEGREE
    except ValueError:
        return None
    if not (min(frame, default=0) >= 0 and max(frame, default=0) < grid.n_frames):
        return None
    frame = np.array(frame, dtype=np.int64)
    if not np.all(np.abs(time_s - frame * grid.frame_period) <= TIME_TOLERANCE_S):
        return None
    el_ok = (elevation >= -_HALF_PI - 1e-12) & (elevation <= _HALF_PI + 1e-12)
    if not (np.all(el_ok) and np.all(np.isfinite(azimuth))):
        return None
    for i in np.flatnonzero((azimuth < -math.pi) | (azimuth >= math.pi)):
        azimuth[i] = wrap_azimuth(float(azimuth[i]))
    elevation = np.minimum(np.maximum(elevation, -_HALF_PI), _HALF_PI)
    return frame, cols[2], azimuth, elevation, cols[5] if n_fields == 6 else None


def _check_row(parts: list[str], line: int, n_fields: int, grid: FrameGrid) -> None:
    """Raise the ParseError of one bad row, naming its line."""
    if len(parts) != n_fields:
        raise ParseError(f"expected {n_fields} fields", line=line)
    try:
        frame = int(parts[0])
        time_s = float(parts[1])
        az_deg = float(parts[3])
        el_deg = float(parts[4])
    except ValueError as exc:
        raise ParseError(str(exc), line=line) from exc
    if not 0 <= frame < grid.n_frames:
        raise ParseError(f"frame {frame} outside [0, {grid.n_frames})", line=line)
    if not abs(time_s - grid.time_of(frame)) <= TIME_TOLERANCE_S:
        raise ParseError(
            f"time_s {parts[1]} is not frame {frame} x frame period {grid.frame_period} s",
            line=line,
        )
    try:
        Direction.from_degrees(az_deg, el_deg)
    except ValueError as exc:
        raise ParseError(str(exc), line=line) from exc


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
