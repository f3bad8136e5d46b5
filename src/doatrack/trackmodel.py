"""Identity-labeled, time-sparse track and observation containers and
their file formats.

Each container is one flat set of columns: a TrackSet holds one row per
active (track, frame), an ObservationSet one row per observation, each
with its frame index, its angles in radians and per-frame row offsets.
Unit vectors are not stored: matching and the PF derive them from the
angles once per scene. Inactivity is the absence of a row, never a
validity flag. Every TrackSet comes from TrackSet.from_rows;
TrackSet(grid, entries) is the one door for Direction objects. Track
identities are opaque strings: prediction and ground-truth ids live in
unrelated namespaces and nothing may compare them except through
matching.

File formats (all UTF-8, LF line endings):
  - scene CSVs: a header, then one row per entry,
    ``frame,time_s,<label>,<azimuth_deg>,<elevation_deg><tail>``;
    time_s is frame * frame_period and the angles are degrees, all to 6
    decimals, and a reader rejects a time_s more than TIME_TOLERANCE_S
    off. A track CSV (TRACK_CSV_HEADER) has one row per active (track,
    frame), sorted by (frame, track_id), the track id as label and an
    empty tail. An observation CSV (OBS_CSV_HEADER) labels a row with its
    within-frame index, ignored on read, and ends it with
    ``,<source_id>``, empty for an untagged row;
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
from itertools import chain, repeat
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .errors import DuplicateEntry, ParseError, coerce
from .geometry import Direction, wrap_azimuth

TRACK_CSV_HEADER = "frame,time_s,track_id,azimuth_deg,elevation_deg"
OBS_CSV_HEADER = TRACK_CSV_HEADER + ",source_id"
# open_text writes a path's new content to <path>.partial, then renames it.
PARTIAL_SUFFIX = ".partial"

# Largest accepted |time_s - frame * frame_period|: the 6-decimal column
# is off by at most 5e-7 s.
TIME_TOLERANCE_S = 1e-6

_HALF_PI = math.pi / 2


MAX_FRAMES = 1_000_000  # the most frames a FrameGrid holds
# The shortest frame period: ten steps of the 6-decimal time_s column, so
# that the reader's TIME_TOLERANCE_S check tells neighbouring frames apart.
MIN_FRAME_PERIOD_S = 1e-5


@dataclass(frozen=True)
class FrameGrid:
    """Uniform time grid: frame f sits at time f * frame_period seconds."""

    frame_period: float
    n_frames: int

    def __post_init__(self):
        if not self.frame_period >= MIN_FRAME_PERIOD_S:
            raise ValueError(f"frame_period must be >= {MIN_FRAME_PERIOD_S} s, "
                             f"got {self.frame_period!r}")
        if not 1 <= self.n_frames <= MAX_FRAMES:
            raise ValueError(f"n_frames must be in [1, {MAX_FRAMES}], got {self.n_frames}")
        if not math.isfinite(self.duration):
            raise ValueError(f"duration must be finite, got {self.duration!r}")

    @property
    def duration(self) -> float:
        return self.frame_period * self.n_frames

    def time_of(self, frame):  # a frame index, or an array of them
        return frame * self.frame_period


def columns_of(rows: list[tuple], n: int) -> tuple[tuple, ...]:
    """The n columns of a list of n-tuples; n empty columns if there are no rows."""
    return tuple(zip(*rows)) or ((),) * n


def _offsets(frame: np.ndarray, n_frames: int) -> np.ndarray:
    """Row offsets of rows sorted by frame: frame f owns rows offsets[f]:offsets[f + 1]."""
    offsets = np.zeros(n_frames + 1, dtype=np.int64)
    np.cumsum(np.bincount(frame, minlength=n_frames), out=offsets[1:])
    return offsets


class TrackSet:
    """Immutable collection of identity-labeled sparse trajectories, as
    columns: one row per active (track, frame), sorted by frame and then
    by track id.

    ids holds every track id, sorted; id_code indexes it, so code order
    is id order. azimuth and elevation are radians as a Direction holds
    them. Frame f owns rows offsets[f]:offsets[f + 1].

    TrackSet.from_rows builds every TrackSet. The CSV reader, the scene
    generator and the trackers call it directly; TrackSet(grid, entries)
    is its front door for callers holding Direction objects. Treat as a
    value: never mutate the arrays.
    """

    __slots__ = ("grid", "ids", "frame", "id_code", "azimuth", "elevation", "offsets")

    def __init__(self, grid: FrameGrid, entries: dict[str, dict[int, Direction]] | None = None):
        """A TrackSet of entries mapping track_id -> {frame: Direction}.

        A track without frames keeps its id. Every frame must lie in
        [0, grid.n_frames).
        """
        entries = {} if entries is None else entries
        frame, track_id, azimuth, elevation = [], [], [], []
        for tid, track in entries.items():
            frame += track.keys()
            track_id += [tid] * len(track)
            azimuth += [d.azimuth for d in track.values()]
            elevation += [d.elevation for d in track.values()]
        built = TrackSet.from_rows(grid, frame, track_id, azimuth, elevation, ids=entries)
        for name in TrackSet.__slots__:
            setattr(self, name, getattr(built, name))

    @classmethod
    def from_rows(
        cls, grid: FrameGrid, frame, track_id, azimuth, elevation, *, ids=(), lines=None
    ) -> "TrackSet":
        """The one row builder: a TrackSet of (frame, track_id, azimuth,
        elevation) rows in any order, angles in radians as a Direction
        holds them. ids names further tracks to keep without rows.

        Raises:
            ValueError: a frame outside [0, grid.n_frames), naming its track.
            DuplicateEntry: the first repeated (track_id, frame) in input
                order, carrying lines[i] of that row when lines is given.
        """
        names = tuple(sorted(set(track_id).union(ids)))
        code_of = {tid: code for code, tid in enumerate(names)}
        code = np.fromiter(map(code_of.__getitem__, track_id), np.int64, len(track_id))
        frames = np.asarray(frame)  # checked before the cast, which could wrap a huge frame
        outside = (frames < 0) | (frames >= grid.n_frames)
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(
                f"track {track_id[i]!r}: frame {frame[i]} outside [0, {grid.n_frames})"
            )
        frame = frames.astype(np.int64, copy=False)
        azimuth = np.asarray(azimuth, dtype=float)
        elevation = np.asarray(elevation, dtype=float)
        key = frame * len(names) + code
        if not np.all(key[1:] > key[:-1]):  # out of (frame, id) order, or repeated
            order = np.argsort(key, kind="stable")
            repeats = order[1:][key[order][1:] == key[order][:-1]]
            if len(repeats):
                i = int(repeats.min())
                raise DuplicateEntry(
                    f"duplicate entry for track {track_id[i]!r} frame {frame[i]}",
                    line=None if lines is None else lines[i],
                )
            frame, code = frame[order], code[order]
            azimuth, elevation = azimuth[order], elevation[order]
        ts = cls.__new__(cls)
        ts.grid, ts.ids, ts.offsets = grid, names, _offsets(frame, grid.n_frames)
        ts.frame, ts.id_code = frame, code
        ts.azimuth, ts.elevation = azimuth, elevation
        return ts

    def __eq__(self, other):
        if not isinstance(other, TrackSet):
            return NotImplemented
        return self.grid == other.grid and _same(
            self, other, ("ids", "frame", "id_code", "azimuth", "elevation")
        )

    def __repr__(self) -> str:
        return f"TrackSet(grid={self.grid!r}, ids={self.ids!r}, n_entries={len(self.frame)})"

    def n_entries(self) -> int:
        """Total number of active (track, frame) pairs."""
        return len(self.frame)


class ObservationSet:
    """A scene's observations as columns, one row per observation.

    Rows run in frame order and, within a frame, in the order given.
    frame, azimuth and elevation (radians as a Direction holds them) are
    arrays; source holds each row's true source track id, or None for
    clutter and untagged rows (read only by the oracle tracker and
    tests). Frame f owns rows offsets[f]:offsets[f + 1].
    """

    __slots__ = ("grid", "frame", "azimuth", "elevation", "offsets", "source")

    def __init__(self, grid: FrameGrid, frame, azimuth, elevation, source):
        """Observations of rows in any frame order; a stable sort by frame
        keeps each frame's own order. Raises ValueError on a frame
        outside [0, grid.n_frames)."""
        frame = np.asarray(frame, dtype=np.int64)
        if len(frame) and not (frame.min() >= 0 and frame.max() < grid.n_frames):
            raise ValueError(f"observation frame outside [0, {grid.n_frames})")
        azimuth = np.asarray(azimuth, dtype=float)
        elevation = np.asarray(elevation, dtype=float)
        source = tuple(source)
        if np.any(frame[1:] < frame[:-1]):
            order = np.argsort(frame, kind="stable")
            frame, azimuth, elevation = frame[order], azimuth[order], elevation[order]
            source = tuple(source[i] for i in order)
        self.grid = grid
        self.frame, self.azimuth, self.elevation, self.source = frame, azimuth, elevation, source
        self.offsets = _offsets(frame, grid.n_frames)

    def __eq__(self, other):
        if not isinstance(other, ObservationSet):
            return NotImplemented
        return self.grid == other.grid and _same(
            self, other, ("source", "frame", "azimuth", "elevation")
        )

    def n_observations(self) -> int:
        return len(self.frame)


def _same(a, b, names) -> bool:
    """Whether a and b hold equal values under every attribute in names."""
    return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in names)


def _fmt_angle(radians: float) -> str:
    """Degrees with 6 decimals. An azimuth that rounds up to 180 is written
    as -180, the same angle in [-180, 180), which is how it reads back."""
    text = f"{math.degrees(radians):.6f}"
    return "-180.000000" if text == "180.000000" else text


def _check_id(track_id: str) -> str:
    if "," in track_id or "\n" in track_id or "\r" in track_id or track_id == "":
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
        partial = f"{os.fspath(target)}{PARTIAL_SUFFIX}"
        try:
            with open(partial, "w", encoding="utf-8", newline="\n") as stream:
                yield stream
            os.replace(partial, target)
        except BaseException:
            with suppress(FileNotFoundError):
                os.remove(partial)
            raise


def _write_rows(dest, header: str, grid: FrameGrid, frame, label, azimuth, elevation, tail):
    """The one scene-CSV writer: header, then a row per entry of the
    columns (angles in radians), laid out as the module docstring says."""
    with open_text(dest, "w") as stream:
        stream.write(header + "\n")
        for f, lab, az, el, end in zip(
            frame.tolist(), label, azimuth.tolist(), elevation.tolist(), tail
        ):
            stream.write(
                f"{f},{grid.time_of(f):.6f},{lab},{_fmt_angle(az)},{_fmt_angle(el)}{end}\n"
            )


def write_trackset(ts: TrackSet, dest: str | Path | TextIO) -> None:
    """Write the track CSV; byte-stable for equal TrackSets.

    The columns are already in the file's (frame, track_id) row order.
    """
    for tid in ts.ids:
        _check_id(tid)
    labels = map(ts.ids.__getitem__, ts.id_code.tolist())
    _write_rows(
        dest, TRACK_CSV_HEADER, ts.grid, ts.frame, labels, ts.azimuth, ts.elevation, repeat("")
    )


def read_trackset(src: str | Path | TextIO, grid: FrameGrid) -> TrackSet:
    """Parse a track CSV against a known frame grid, straight into columns.

    Raises:
        ParseError: malformed header or row (carries the line number).
        DuplicateEntry: repeated (track_id, frame) pair (carries the
            line of the repeat).
    """
    with open_text(src, "r") as stream:
        lines, (frame, track_id, azimuth, elevation, _source) = _parse_rows(
            stream, grid, expect_source=False
        )
    return TrackSet.from_rows(grid, frame, track_id, azimuth, elevation, lines=lines)


def write_observations(obs: ObservationSet, dest: str | Path | TextIO) -> None:
    """Write the observation CSV, rows in the order of the set. Every tag
    is checked before the first row is written."""
    tails = ["," + ("" if tag is None else _check_id(tag)) for tag in obs.source]
    index = np.arange(len(obs.frame)) - obs.offsets[obs.frame]  # within its frame
    _write_rows(
        dest, OBS_CSV_HEADER, obs.grid, obs.frame, index.tolist(), obs.azimuth, obs.elevation, tails
    )


def read_observations(src: str | Path | TextIO, grid: FrameGrid) -> ObservationSet:
    """Parse an observation CSV; within-frame order follows file order."""
    with open_text(src, "r") as stream:
        _lines, (frame, _index, azimuth, elevation, source) = _parse_rows(
            stream, grid, expect_source=True
        )
    return ObservationSet(grid, frame, azimuth, elevation, source)


def _parse_rows(stream: TextIO, grid: FrameGrid, expect_source: bool):
    """The one row parser of track and observation CSVs: (lines, columns),
    the file line of each data row and _checked_columns' columns.

    The header is read with readline(), the body with one read() that is
    split into rows at "\\n" only, so a row keeps any "\\r" for the
    carriage-return rule. Rows are checked a column at a time. If a
    check fails, the same checks run again on one row at a time, and the
    first bad row in file order raises its ParseError, naming its line.
    """
    try:
        header = stream.readline().rstrip("\n")
        texts = stream.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc}") from None
    if not texts[-1]:  # the empty string after the final "\n"
        texts.pop()
    allowed = {OBS_CSV_HEADER} if expect_source else {TRACK_CSV_HEADER}
    if expect_source:
        allowed.add(TRACK_CSV_HEADER)  # untagged observation files are fine
    if header not in allowed:
        raise ParseError(f"unexpected header {header!r}", line=1)
    n_fields = 6 if header == OBS_CSV_HEADER else 5
    lines: Sequence[int] = range(2, len(texts) + 2)
    if not all(texts):  # blank lines are skipped
        lines = [n for n, text in zip(lines, texts) if text]
        texts = [text for text in texts if text]
    try:
        return lines, _checked_columns(texts, n_fields, grid, expect_source)
    except ParseError:
        for line, text in zip(lines, texts):
            try:
                _checked_columns([text], n_fields, grid, expect_source)
            except ParseError as exc:
                raise ParseError(str(exc), line=line) from None
        raise


def _checked_columns(texts: list[str], n_fields: int, grid: FrameGrid, expect_source: bool):
    """(frame, track_id, azimuth, elevation, source) of CSV data rows,
    each row rule checked once, on whole columns. Refusing "\\r" and a
    track file's empty track_id keeps every id and tag read writable.
    Once every row holds n_fields - 1 commas, the rows joined by commas
    split into one flat list of fields, and column j is every
    n_fields-th field from j.

    Raises the ParseError of the first rule some row breaks, worded from
    the first such row, without its line.
    """
    joined = ",".join(texts)
    if "\r" in joined:
        raise ParseError("carriage return in a row: files are LF only")
    n = len(texts)
    if set(map(str.count, texts, repeat(","))) - {n_fields - 1}:
        raise ParseError(f"expected {n_fields} fields")
    flat = joined.split(",") if n else []
    cols = [flat[j::n_fields] for j in range(n_fields)]
    if not expect_source and "" in cols[2]:
        raise ParseError("empty track_id")
    # int and float also take "1_0", " 3" and non-ASCII digits such as "\u0663"
    numbers = "".join(chain(cols[0], cols[1], cols[3], cols[4]))
    if not numbers.isascii() or any(c in numbers for c in "_ \t\v\f"):
        raise ParseError("a number holds an underscore, a space or a non-ASCII character")
    try:
        frame = list(map(int, cols[0]))
        time_s, az_deg, el_deg = (np.fromiter(map(float, cols[j]), float, n) for j in (1, 3, 4))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if not (min(frame, default=0) >= 0 and max(frame, default=0) < grid.n_frames):
        outside = next(f for f in frame if not 0 <= f < grid.n_frames)
        raise ParseError(f"frame {outside} outside [0, {grid.n_frames})")
    frame = np.array(frame, dtype=np.int64)
    bad = ~(np.abs(time_s - grid.time_of(frame)) <= TIME_TOLERANCE_S)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(
            f"time_s {cols[1][i]} is not frame {frame[i]} x frame period {grid.frame_period} s"
        )
    azimuth, elevation = np.radians(az_deg), np.radians(el_deg)
    bad = ~((elevation >= -_HALF_PI - 1e-12) & (elevation <= _HALF_PI + 1e-12))
    if bad.any():
        raise ParseError(f"elevation_deg {cols[4][np.argmax(bad)]} outside [-90, 90]")
    bad = ~np.isfinite(azimuth)
    if bad.any():
        raise ParseError(f"azimuth_deg {cols[3][np.argmax(bad)]} is not finite")
    for i in np.flatnonzero((azimuth < -math.pi) | (azimuth >= math.pi)):
        azimuth[i] = wrap_azimuth(float(azimuth[i]))
    elevation = np.minimum(np.maximum(elevation, -_HALF_PI), _HALF_PI)
    source = tuple(tag or None for tag in cols[5]) if n_fields == 6 else (None,) * n
    return frame, cols[2], azimuth, elevation, source


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
        grid = FrameGrid(
            coerce(doc["frame_period_s"], float, "frame_period_s"),
            coerce(doc["n_frames"], int, "n_frames"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad manifest {path}: {exc}") from exc
    return grid, doc


def trackset_to_string(ts: TrackSet) -> str:
    buf = io.StringIO()
    write_trackset(ts, buf)
    return buf.getvalue()
