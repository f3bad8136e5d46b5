import io
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from _oracles import (
    activity_mask,
    entries,
    naive_read_observations,
    naive_read_trackset,
    observation_frames,
    observation_set,
    per_frame_entries,
)
from doatrack.errors import DuplicateEntry, ParseError
from doatrack.geometry import Direction, angular_distance
from doatrack.reporting import evaluate_scene
from doatrack.scenesim import (
    ObservationModel,
    ScenarioConfig,
    generate_scene,
    simulate_observations,
)
from doatrack.trackmodel import (
    OBS_CSV_HEADER,
    TRACK_CSV_HEADER,
    MAX_FRAMES,
    MIN_FRAME_PERIOD_S,
    FrameGrid,
    ObservationSet,
    TrackSet,
    open_text,
    read_manifest,
    read_observations,
    read_trackset,
    trackset_to_string,
    write_manifest,
    write_observations,
    write_trackset,
)


def D(az_deg, el_deg):
    return Direction.from_degrees(az_deg, el_deg)


def test_frame_grid_validation():
    with pytest.raises(ValueError):
        FrameGrid(0.0, 10)
    with pytest.raises(ValueError):
        FrameGrid(0.1, 0)
    with pytest.raises(ValueError, match="n_frames must be in"):
        FrameGrid(0.1, MAX_FRAMES + 1)
    # at the shortest period the reader still refuses a neighbouring frame's time_s
    short, header = FrameGrid(MIN_FRAME_PERIOD_S, 3), TRACK_CSV_HEADER + "\n"
    assert read_trackset(io.StringIO(header + "1,0.000010,A,0,0\n"), short).frame.tolist() == [1]
    with pytest.raises(ParseError, match="time_s 0.000020 is not frame 1"):
        read_trackset(io.StringIO(header + "1,0.000020,A,0,0\n"), short)
    for period in (math.nextafter(MIN_FRAME_PERIOD_S, 0), 1e-321):
        with pytest.raises(ValueError, match="frame_period must be >="):
            FrameGrid(period, 10)
    for period, n_frames in ((math.inf, 1), (1e306, 1000)):
        with pytest.raises(ValueError, match="duration must be finite"):
            FrameGrid(period, n_frames)
    assert FrameGrid(0.1, MAX_FRAMES).n_frames == MAX_FRAMES
    grid = FrameGrid(0.1, 600)
    assert grid.duration == pytest.approx(60.0)
    assert grid.time_of(3) == pytest.approx(0.3)


def test_build_rejects_duplicates():
    grid = FrameGrid(0.1, 10)
    with pytest.raises(DuplicateEntry):
        TrackSet.from_rows(grid, [3, 3], ["A", "A"], [0.1, 0.2], [0.1, 0.2])


def test_frame_out_of_range_rejected():
    with pytest.raises(ValueError):
        TrackSet(FrameGrid(0.1, 5), {"A": {5: D(0, 0)}})


def test_activity_mask_basic():
    grid = FrameGrid(0.1, 5)
    ts = TrackSet(grid, {"A": {0: D(0, 0), 1: D(0, 0), 2: D(0, 0)}})
    assert activity_mask(ts, "A").tolist() == [True, True, True, False, False]


def test_activity_mask_fully_active():
    grid = FrameGrid(0.1, 4)
    ts = TrackSet(grid, {"A": {f: D(0, 0) for f in range(4)}})
    assert activity_mask(ts, "A").all()


def test_sparse_entry_count():
    grid = FrameGrid(0.1, 100)
    ts = TrackSet(grid, {"A": {0: D(0, 0), 50: D(1, 1)}, "B": {3: D(2, 2)}})
    assert ts.n_entries() == 3


def test_containers_equal_only_their_own_kind_and_repr_names_grid_ids_and_size():
    grid = FrameGrid(0.1, 100)
    ts = TrackSet(grid, {"A": {0: D(0, 0), 50: D(1, 1)}, "B": {3: D(2, 2)}})
    obs = ObservationSet(grid, [0], [0.0], [0.0], [None])
    for container in (ts, obs):
        for other in (None, "A", grid, obs if container is ts else ts):
            assert not container == other
            assert container != other
    assert repr(ts) == f"TrackSet(grid={grid!r}, ids=('A', 'B'), n_entries=3)"


def test_empty_body_reads_as_zero_tracks():
    grid = FrameGrid(0.1, 10)
    ts = read_trackset(io.StringIO("frame,time_s,track_id,azimuth_deg,elevation_deg\n"), grid)
    assert entries(ts) == {}


def test_single_row_reads_one_track():
    grid = FrameGrid(0.1, 10)
    body = (
        "frame,time_s,track_id,azimuth_deg,elevation_deg\n"
        "0,0.000000,A,10.000000,5.000000\n"
    )
    ts = read_trackset(io.StringIO(body), grid)
    assert ts.ids == ("A",)
    assert list(entries(ts)["A"]) == [0]
    assert angular_distance(entries(ts)["A"][0], D(10, 5)) < 1e-9
    # an azimuth outside [-180, 180) wraps as a Direction wraps it, bit for bit
    for az_deg in (180.0, 190.0, -540.0):
        row = body.replace("10.000000", f"{az_deg:.6f}")
        wrapped = read_trackset(io.StringIO(row), grid).azimuth.tolist()
        assert wrapped == [Direction.from_degrees(az_deg, 5.0).azimuth], az_deg


def test_duplicate_rows_raise_with_line_number():
    grid = FrameGrid(0.1, 10)
    body = (
        "frame,time_s,track_id,azimuth_deg,elevation_deg\n"
        "3,0.300000,A,10.000000,5.000000\n"
        "3,0.300000,A,11.000000,5.000000\n"
    )
    with pytest.raises(DuplicateEntry) as exc:
        read_trackset(io.StringIO(body), grid)
    assert exc.value.line == 3


def test_malformed_row_raises_parse_error_with_line():
    grid = FrameGrid(0.1, 10)
    body = (
        "frame,time_s,track_id,azimuth_deg,elevation_deg\n"
        "0,0.000000,A,10.000000,5.000000\n"
        "not,a,row\n"
    )
    with pytest.raises(ParseError) as exc:
        read_trackset(io.StringIO(body), grid)
    assert exc.value.line == 3
    # two rows failing two different checks: the first bad row in file
    # order raises, whichever check the column pass met first
    for rows, message in (
        (["0,0.500000,A,1.0,2.0", "1,0.100000,A,1.0,2.0,x"], "line 2: time_s 0.500000 is not "),
        (["0,0.000000,A,1.0,2.0,x", "12,1.200000,A,1.0,2.0"], "line 2: expected 5 fields"),
        # 6 fields and then 4: the field total is right, each row's count is not
        (["0,0.000000,A,1.0,2.0,x", "1,0.100000,A,1.0"], "line 2: expected 5 fields"),
        (["0,0.000000,A,1.0,2.0", "1,0.100000,A,nan,90.0001"],
         "line 3: elevation_deg 90.0001 outside [-90, 90]"),
        (["0,0.000000,A,1.0,2.0", "1,0.100000,A,-inf,0.0"],
         "line 3: azimuth_deg -inf is not finite"),
        # numbers int and float would take: each read as another value
        (["0,0.000000,A,1.0,2.0", "1_0,1.0,A,1_0.5,+2"], "line 3: a number holds "),
        (["0,0.000000,A,1_0,2.0", "1,0.100000,A,1.0,2.0,x"], "line 2: a number holds "),
        ([" 3,0.300000,A,1.0,2.0"], "line 2: a number holds "),
        (["3 ,0.300000,A,1.0,2.0"], "line 2: a number holds "),
        (["\u0663,0.300000,A,1.0,2.0"], "line 2: a number holds "),
        (["3,0.300000,A,\t1.0,2.0"], "line 2: a number holds "),
        (["3,0.300000,A,1.0,2.0\x0b"], "line 2: a number holds "),
        (["3,\x0c0.300000,A,1.0,2.0"], "line 2: a number holds "),
    ):
        with pytest.raises(ParseError) as exc:
            read_trackset(io.StringIO(TRACK_CSV_HEADER + "\n" + "\n".join(rows) + "\n"), grid)
        assert str(exc.value).startswith(message), (rows, str(exc.value))


def test_rows_the_writers_would_refuse_are_parse_errors():
    grid = FrameGrid(0.1, 10)
    for reader, header, row in (
        (read_trackset, TRACK_CSV_HEADER, "0,0.000000,A,1.0,2.0\r"),
        (read_trackset, TRACK_CSV_HEADER, "0,0.000000,,1.0,2.0"),
        (read_observations, OBS_CSV_HEADER, "0,0.000000,0,1.0,2.0,spk0\r"),
        (read_observations, OBS_CSV_HEADER, "0,0.000000,0,1.0,2.0,\r"),
        (read_observations, TRACK_CSV_HEADER, "0,0.000000,0,1.0,2.0\r"),
    ):
        good = "1,0.100000,0,1.0,2.0" + ("," if header == OBS_CSV_HEADER else "")
        with pytest.raises(ParseError) as exc:
            reader(io.StringIO(f"{header}\n{good}\n{row}\n"), grid)
        assert exc.value.line == 3, (reader, row)
    # an observation file's track_id is an index that is not read: it may be empty
    obs = read_observations(io.StringIO(f"{OBS_CSV_HEADER}\n0,0.000000,,1.0,2.0,spk0\n"), grid)
    assert obs.source == ("spk0",)


def test_bad_header_rejected():
    grid = FrameGrid(0.1, 10)
    with pytest.raises(ParseError):
        read_trackset(io.StringIO("frame,track_id\n"), grid)


def test_frame_beyond_grid_rejected():
    grid = FrameGrid(0.1, 5)
    body = (
        "frame,time_s,track_id,azimuth_deg,elevation_deg\n"
        "9,0.900000,A,0.000000,0.000000\n"
    )
    with pytest.raises(ParseError):
        read_trackset(io.StringIO(body), grid)


def _random_trackset(rng, grid):
    entries = {}
    for i in range(3):
        frames = {}
        for f in range(grid.n_frames):
            if rng.random() < 0.5:
                frames[f] = Direction(rng.uniform(-math.pi, math.pi), rng.uniform(-1.4, 1.4))
        entries[f"trk{i}"] = frames
    return TrackSet(grid, entries)


def test_write_read_round_trip_preserves_structure():
    rng = np.random.default_rng(5)
    grid = FrameGrid(0.1, 40)
    ts = _random_trackset(rng, grid)
    buf = io.StringIO()
    write_trackset(ts, buf)
    back = read_trackset(io.StringIO(buf.getvalue()), grid)
    assert back.ids == ts.ids
    written, read = entries(ts), entries(back)
    for tid in written:
        assert sorted(read[tid]) == sorted(written[tid])
        for f, d in written[tid].items():
            # 6-decimal-degree quantization bounds the round-trip error
            assert angular_distance(d, read[tid][f]) < 2e-8


def test_round_trip_exact_on_quantized_angles():
    grid = FrameGrid(0.1, 6)
    ts = TrackSet(grid, {"A": {0: D(10.5, -3.25), 4: D(-179.125, 45.0)}})
    back = read_trackset(io.StringIO(trackset_to_string(ts)), grid)
    assert back == ts


def test_two_tracks_three_frames_is_six_rows():
    grid = FrameGrid(0.1, 5)
    ts = TrackSet(
        grid,
        {
            "A": {f: D(1, 1) for f in range(3)},
            "B": {f: D(2, 2) for f in range(3)},
        },
    )
    body = trackset_to_string(ts)
    assert len(body.strip().split("\n")) == 1 + 6


def test_writes_are_byte_identical():
    rng = np.random.default_rng(17)
    ts = _random_trackset(rng, FrameGrid(0.1, 30))
    assert trackset_to_string(ts) == trackset_to_string(ts)


def test_rows_sorted_by_frame_then_id():
    grid = FrameGrid(0.1, 5)
    ts = TrackSet(grid, {"B": {0: D(1, 1), 2: D(1, 1)}, "A": {2: D(0, 0)}})
    lines = trackset_to_string(ts).strip().split("\n")[1:]
    keys = [(int(l.split(",")[0]), l.split(",")[2]) for l in lines]
    assert keys == sorted(keys)


def test_comma_in_track_id_rejected_on_write():
    ts = TrackSet(FrameGrid(0.1, 2), {"a,b": {0: D(0, 0)}})
    with pytest.raises(ValueError):
        write_trackset(ts, io.StringIO())


def test_observations_round_trip_with_tags():
    grid = FrameGrid(0.1, 3)
    obs = observation_set(grid, ([(D(1, 2), "spk0"), (D(50, -10), None)], [], [(D(-20, 5), "spk1")]))
    buf = io.StringIO()
    write_observations(obs, buf)
    back = read_observations(io.StringIO(buf.getvalue()), grid)
    assert back.n_observations() == 3
    assert back.source == ("spk0", None, "spk1")
    assert back.offsets.tolist() == [0, 2, 2, 3]
    for a, b in zip(observation_frames(obs), observation_frames(back)):
        for (da, _sa), (db, _sb) in zip(a, b):
            assert angular_distance(da, db) < 2e-8


def test_failed_write_leaves_the_old_file_and_no_partial(tmp_path):
    grid = FrameGrid(0.1, 3)
    path = tmp_path / "scene_0000.obs.csv"
    write_observations(observation_set(grid, ([], [(D(5, 6), "spk0")], [])), path)
    before = path.read_bytes()
    # a write refused for a bad tag, which is checked before the file is
    # opened, leaves the old file and no partial; a write that fails once
    # the partial exists is test_a_write_that_fails_midway_...'s case
    bad = observation_set(grid, ([(D(1, 2), "spk0")], [], [(D(3, 4), "a,b")]))
    with pytest.raises(ValueError):
        write_observations(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["scene_0000.obs.csv"]
    # the file gets the mode a plain open gives it
    (tmp_path / "plain").write_text("")
    assert path.stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_a_write_that_fails_midway_leaves_the_old_file_and_no_partial(tmp_path):
    path = tmp_path / "scene_0000.gt.csv"
    path.write_text("old\n")
    with pytest.raises(OSError, match="disk full"):
        with open_text(path, "w") as stream:
            stream.write(TRACK_CSV_HEADER + "\n")
            raise OSError("disk full")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scene_0000.gt.csv"]


def test_a_bad_id_or_tag_raises_before_any_row_reaches_a_stream():
    grid = FrameGrid(0.1, 3)
    tracks = TrackSet(grid, {"A": {0: D(1, 2)}, "a,b": {2: D(3, 4)}})
    tags = observation_set(grid, ([(D(1, 2), "spk0")], [], [(D(3, 4), "a,b")]))
    for writer, bad in ((write_trackset, tracks), (write_observations, tags)):
        stream = io.StringIO()
        with pytest.raises(ValueError, match="not representable"):
            writer(bad, stream)
        assert stream.getvalue() == ""


def test_read_observations_accepts_plain_track_header():
    grid = FrameGrid(0.1, 2)
    body = (
        "frame,time_s,track_id,azimuth_deg,elevation_deg\n"
        "0,0.000000,0,1.000000,2.000000\n"
    )
    obs = read_observations(io.StringIO(body), grid)
    assert obs.source == (None,)


def test_manifest_round_trip(tmp_path):
    grid = FrameGrid(0.1, 600)
    path = tmp_path / "manifest.json"
    write_manifest(grid, path, extra={"n_scenes": 3})
    back, doc = read_manifest(path)
    assert back == grid
    assert doc["n_scenes"] == 3
    assert doc["frame_period_s"] == 0.1
    assert doc["n_frames"] == 600


def test_per_frame_entries_sorted_by_id():
    grid = FrameGrid(0.1, 2)
    ts = TrackSet(grid, {"B": {0: D(1, 1)}, "A": {0: D(0, 0)}})
    frames = per_frame_entries(ts)
    assert [tid for tid, _ in frames[0]] == ["A", "B"]
    assert frames[1] == []


# Poles, both sides of the +-180 deg seam, and azimuths that print as
# 180.000000 or -180.000000 (both read back as -pi).
SPECIAL_DEGREES = [
    (0.0, 90.0), (37.0, 90.0), (0.0, -90.0), (180.0, 0.0), (-180.0, 0.0),
    (179.9999996, 5.0), (-179.9999996, -5.0), (179.999999, 0.0), (12.3456785, 89.9999999),
]

track_ids = st.text(
    alphabet=st.characters(blacklist_characters=",\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=5,
)
directions_deg = st.one_of(
    st.sampled_from(SPECIAL_DEGREES),
    st.tuples(st.floats(-540.0, 540.0), st.floats(-90.0, 90.0)),
)


@st.composite
def tracksets(draw):
    grid = FrameGrid(0.1, draw(st.integers(1, 12)))
    ids = draw(st.lists(track_ids, min_size=0, max_size=4, unique=True))
    entries = {}
    for tid in ids:
        frames = draw(st.lists(st.integers(0, grid.n_frames - 1), min_size=1, unique=True))
        entries[tid] = {f: Direction.from_degrees(*draw(directions_deg)) for f in frames}
    return TrackSet(grid, entries)


def _bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=float).tobytes()


@given(tracksets())
def test_round_trip_columns_equal_the_written_directions_bit_for_bit(ts):
    text = trackset_to_string(ts)
    back = read_trackset(io.StringIO(text), ts.grid)
    # what each written row means, one Direction per row
    written = [line.split(",") for line in text.split("\n")[1:-1]]
    expected = [Direction.from_degrees(float(az), float(el)) for _f, _t, _id, az, el in written]
    assert back.ids == ts.ids
    assert [back.ids[c] for c in back.id_code] == [tid for _f, _t, tid, _a, _e in written]
    assert back.frame.tolist() == [int(f) for f, _t, _id, _a, _e in written]
    assert _bits(back.azimuth) == _bits([d.azimuth for d in expected])
    assert _bits(back.elevation) == _bits([d.elevation for d in expected])
    frames = {tid: sorted(by_frame) for tid, by_frame in entries(ts).items()}
    assert {tid: sorted(by_frame) for tid, by_frame in entries(back).items()} == frames
    for (f, _t, tid, _a, _e), d in zip(written, expected):
        assert entries(back)[tid][int(f)] == d
    # the columns of an in-memory TrackSet are the same arrays
    built = TrackSet(ts.grid, entries(back))
    for name in ("frame", "id_code", "azimuth", "elevation", "offsets"):
        assert _bits(getattr(built, name)) == _bits(getattr(back, name)), name
    assert built.ids == back.ids


def _observation_sets(draw, grid):
    frames = []
    for _f in range(grid.n_frames):
        n = draw(st.integers(0, 3))
        frames.append([
            (Direction.from_degrees(*draw(directions_deg)), draw(st.one_of(st.none(), track_ids)))
            for _ in range(n)
        ])
    return frames


@given(st.data())
def test_observation_round_trip_keeps_order_tags_and_directions(data):
    grid = FrameGrid(0.1, data.draw(st.integers(1, 6)))
    frames = _observation_sets(data.draw, grid)
    buf = io.StringIO()
    write_observations(observation_set(grid, frames), buf)
    text = buf.getvalue()
    back = read_observations(io.StringIO(text), grid)
    rows = iter(line.split(",") for line in text.split("\n")[1:-1])
    for frame_obs, frame_back in zip(frames, observation_frames(back)):
        assert [src for _d, src in frame_back] == [src for _d, src in frame_obs]
        for k, (d, src) in enumerate(frame_back):
            _f, _t, index, az, el, tag = next(rows)
            assert d == Direction.from_degrees(float(az), float(el))
            # the index column counts within the frame; None is an empty tag
            assert (int(index), tag) == (k, "" if src is None else src)


FIELDS = st.one_of(
    st.sampled_from([
        "0", "1", "4", "-1", "5", "0.000000", "0.100000", "0.4", "99.000000", "nan", "inf",
        "-inf", "1e400", "", "A", "spk0", "180.000000", "-180.000000", "90.000001", "-90",
        "540", "1_0", " 3", "٣", "0x1", "9" * 30,
    ]),
    st.text(max_size=4),
)
ROWS = st.one_of(
    # well-formed rows up to the checks on values
    st.builds(
        lambda f, t, tid, az, el, tag: f"{f},{t},{tid},{az},{el},{tag}",
        st.sampled_from(["0", "1", "2"]), st.sampled_from(["0.000000", "0.100000", "0.200000"]),
        st.sampled_from(["A", "B"]), FIELDS, FIELDS, st.sampled_from(["", "spk0"]),
    ).map(lambda row: row if len(row) % 2 else row.rsplit(",", 1)[0]),
    st.lists(FIELDS, max_size=7).map(",".join),
)


@given(
    st.sampled_from([TRACK_CSV_HEADER, OBS_CSV_HEADER, "frame,track_id", ""]),
    st.lists(ROWS, max_size=6),
    st.sampled_from(["\n", "\r\n", "\n\n"]),
)
def test_parser_fuzz_raises_only_parse_errors(header, rows, newline):
    text = newline.join([header, *rows]) + newline
    grid = FrameGrid(0.1, 5)
    for reader in (read_trackset, read_observations):
        try:
            reader(io.StringIO(text), grid)
        except ParseError:
            pass


def _scene_texts() -> tuple[FrameGrid, list[str]]:
    """The grid and the track and observation CSV texts of a small simulated scene."""
    gt = generate_scene(ScenarioConfig(n_speakers=2, duration_s=1.0, segment_len_s=(0.2, 0.5),
                                       gap_len_s=(0.1, 0.2), seed=5))
    obs = simulate_observations(gt, ObservationModel(p_miss=0.1, clutter_rate=1.0, seed=6))
    buf = io.StringIO()
    write_observations(obs, buf)
    return gt.grid, [trackset_to_string(gt), buf.getvalue()]


SCENE_GRID, SCENE_TEXTS = _scene_texts()
BAD_VALUES = ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e308",
              "9" * 400, "-0", "1e-400", "", " ", "\r", "0x10", "1_0", "90.0000001", "A,B"]
BAD_HEADERS = ["", "frame,time_s,track_id,azimuth_deg", TRACK_CSV_HEADER + ",x",
               OBS_CSV_HEADER + "\r", TRACK_CSV_HEADER.upper(), "\ufeff" + TRACK_CSV_HEADER]
MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["value", "drop_field", "add_field", "blank", "cr", "duplicate", "swap",
                     "delete", "header", "underscore", "space"]),
    st.integers(0, 10**6), st.integers(0, 6), st.sampled_from(BAD_VALUES),
), max_size=4)


def _mutated(text: str, mutations) -> str:
    lines = text.split("\n")[:-1]
    for kind, i, j, value in mutations:
        i = 1 + i % max(len(lines) - 1, 1)  # a body line, or just past the header
        fields = lines[i].split(",") if i < len(lines) else [""]
        j %= len(fields)
        if kind == "header":
            lines[0] = BAD_HEADERS[i % len(BAD_HEADERS)]
        elif kind == "blank":
            lines.insert(i, "")
        elif i >= len(lines):
            continue
        elif kind == "value":
            lines[i] = ",".join([*fields[:j], value, *fields[j + 1:]])
        elif kind == "drop_field":
            lines[i] = ",".join(fields[:j] + fields[j + 1:])
        elif kind == "add_field":
            lines[i] += "," + value
        elif kind == "cr":
            lines[i] += "\r"
        elif kind == "underscore":  # "0.300000" -> "0.30000_0", which float takes
            fields[j] = fields[j][:-1] + "_" + fields[j][-1:]
            lines[i] = ",".join(fields)
        elif kind == "space":
            fields[j] = " " + fields[j]
            lines[i] = ",".join(fields)
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif kind == "delete":
            del lines[i]
    return "".join(line + "\n" for line in lines)


@given(st.sampled_from([0, 1]), MUTATIONS)
@settings(max_examples=300)
def test_scene_csv_fuzz_gives_a_container_or_a_parse_error(which, mutations):
    # a scene CSV, mutated: a reader returns a container of finite,
    # in-range values that its writer takes back, read from numbers
    # without underscores, spaces or non-ASCII characters, or raises a
    # ParseError naming its line; nothing else
    text = _mutated(SCENE_TEXTS[which], mutations)
    for reader, writer in ((read_trackset, write_trackset),
                           (read_observations, write_observations)):
        try:
            back = reader(io.StringIO(text), SCENE_GRID)
        except ParseError as exc:
            assert exc.line is not None, exc
            continue
        rows = [line.split(",") for line in text.split("\n")[1:] if line]
        numbers = "".join(row[k] for row in rows for k in (0, 1, 3, 4))
        assert numbers.isascii() and not any(c in numbers for c in "_ \t\v\f"), numbers
        assert np.all((back.frame >= 0) & (back.frame < SCENE_GRID.n_frames))
        assert np.all((back.azimuth >= -math.pi) & (back.azimuth < math.pi))
        assert np.all(np.abs(back.elevation) <= math.pi / 2)
        assert back.offsets[-1] == len(back.frame) == len(back.azimuth) == len(back.elevation)
        writer(back, io.StringIO())
    if not mutations:
        assert text == SCENE_TEXTS[which]


@given(st.sampled_from([0, 1]), MUTATIONS)
@settings(max_examples=300)
def test_scene_csv_fuzz_reads_as_the_line_at_a_time_reader_reads(
    tmp_path_factory, which, mutations
):
    # a mutated scene CSV, read from a StringIO and from a real file (opened
    # with newline="", so the line-at-a-time reader also ends a line at a
    # lone "\r"): both readers give equal containers, or ParseErrors with
    # equal text and line
    text = _mutated(SCENE_TEXTS[which], mutations)
    path = tmp_path_factory.getbasetemp() / "mutated_scene.csv"
    path.write_bytes(text.encode("utf-8"))
    for reader, oracle in ((read_trackset, naive_read_trackset),
                           (read_observations, naive_read_observations)):
        for source in (lambda: io.StringIO(text), lambda: path):
            outcomes = []
            for read in (reader, oracle):
                try:
                    outcomes.append(read(source(), SCENE_GRID))
                except ParseError as exc:
                    outcomes.append((type(exc), str(exc), exc.line))
            assert outcomes[0] == outcomes[1], (reader.__name__, source(), outcomes)


# The one row builder, TrackSet.from_rows, behind every TrackSet.


def _rows(ts):
    """(frame, track_id, azimuth, elevation) of every row of ts."""
    return [
        (f, ts.ids[code], az, el)
        for f, code, az, el in zip(
            ts.frame.tolist(), ts.id_code.tolist(), ts.azimuth.tolist(), ts.elevation.tolist()
        )
    ]


def _from_rows(grid, rows, **kwargs):
    return TrackSet.from_rows(
        grid, [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows],
        [r[3] for r in rows], **kwargs,
    )


@given(tracksets(), st.randoms())
def test_rows_in_any_order_build_the_same_trackset(ts, random):
    rows = _rows(ts)
    random.shuffle(rows)
    shuffled = _from_rows(ts.grid, rows)
    assert shuffled == ts
    for name in ("frame", "id_code", "azimuth", "elevation", "offsets"):
        assert _bits(getattr(shuffled, name)) == _bits(getattr(ts, name)), name


@given(
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from("AB")), min_size=2, max_size=10)
    .filter(lambda keys: len(set(keys)) < len(keys))
)
def test_first_repeat_in_input_order_raises_with_its_line(keys):
    grid = FrameGrid(0.1, 4)
    first = next(i for i, key in enumerate(keys) if key in keys[:i])
    f, tid = keys[first]
    rows = [(f_, t, 0.0, 0.0) for f_, t in keys]
    with pytest.raises(DuplicateEntry, match=f"track '{tid}' frame {f}$") as exc:
        _from_rows(grid, rows)
    assert exc.value.line is None
    body = "".join(f"{f_},{grid.time_of(f_):.6f},{t},0.000000,0.000000\n" for f_, t in keys)
    with pytest.raises(DuplicateEntry, match=f"track '{tid}' frame {f}$") as exc:
        read_trackset(io.StringIO(TRACK_CSV_HEADER + "\n" + body), grid)
    assert exc.value.line == first + 2


@given(st.one_of(st.integers(max_value=-1), st.integers(min_value=5)))
def test_out_of_range_frame_names_the_track(frame):
    grid = FrameGrid(0.1, 5)
    with pytest.raises(ValueError, match=f"track 'bad': frame {frame} outside"):
        TrackSet(grid, {"ok": {0: D(0, 0)}, "bad": {1: D(0, 0), frame: D(1, 1)}})
    with pytest.raises(ValueError, match="track 'bad'"):
        _from_rows(grid, [(0, "ok", 0.0, 0.0), (frame, "bad", 0.0, 0.0)])


def test_track_without_rows_keeps_its_id():
    grid = FrameGrid(0.1, 5)
    assert TrackSet(grid, {"A": {}}).ids == ("A",)
    gts = TrackSet(grid, {"A": {}, "B": {f: D(0, 0) for f in range(5)}})
    preds = TrackSet(grid, {"p": {0: D(0, 0), 1: D(0, 0)}, "q": {2: D(0, 0), 3: D(0, 0)}})
    report = evaluate_scene("s", gts, preds, math.radians(20.0))
    assert report.n_swaps == 1
    assert report.tsr_per_track == report.tsr / 2  # A counts as a track


def test_azimuth_that_rounds_to_180_is_written_as_minus_180():
    grid = FrameGrid(0.1, 1)
    ts = TrackSet(grid, {"a": {0: D(179.9999996, 0.0)}})
    text = trackset_to_string(ts)
    assert text.split("\n")[1].split(",")[3] == "-180.000000"
    assert trackset_to_string(read_trackset(io.StringIO(text), grid)) == text


@given(tracksets())
def test_track_csv_round_trips_byte_for_byte(ts):
    text = trackset_to_string(ts)
    assert trackset_to_string(read_trackset(io.StringIO(text), ts.grid)) == text


@given(st.data())
def test_observation_csv_round_trips_byte_for_byte(data):
    grid = FrameGrid(0.1, data.draw(st.integers(1, 6)))
    buf = io.StringIO()
    write_observations(observation_set(grid, _observation_sets(data.draw, grid)), buf)
    again = io.StringIO()
    write_observations(read_observations(io.StringIO(buf.getvalue()), grid), again)
    assert again.getvalue() == buf.getvalue()


def test_observations_out_of_frame_order_keep_each_frame_order():
    grid = FrameGrid(0.1, 3)
    obs = observation_set(grid, [[(D(1, 0), "x")], [], [(D(2, 0), "y"), (D(3, 0), None)]])
    body = "".join(f"{line}\n" for line in [
        OBS_CSV_HEADER,
        "2,0.200000,0,2.000000,0.000000,y",
        "0,0.000000,0,1.000000,0.000000,x",
        "2,0.200000,1,3.000000,0.000000,",
    ])
    assert read_observations(io.StringIO(body), grid) == obs


def test_observation_frame_outside_the_grid_is_rejected():
    for frame in (-1, 2):
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            ObservationSet(FrameGrid(0.1, 2), [0, frame], [0.0, 0.0], [0.0, 0.0], [None, None])


@pytest.mark.parametrize("bad", ["a\rb", "a\nb", ""])  # commas have their own test
def test_unrepresentable_ids_are_rejected_on_write(bad, tmp_path):
    ts = TrackSet(FrameGrid(0.1, 2), {bad: {0: D(0, 0)}})
    with pytest.raises(ValueError, match="not representable"):
        write_trackset(ts, tmp_path / "scene.csv")
    obs = observation_set(FrameGrid(0.1, 2), [[(D(0, 0), bad)], []])
    with pytest.raises(ValueError, match="not representable"):
        write_observations(obs, tmp_path / "scene.obs.csv")
    assert list(tmp_path.iterdir()) == []
