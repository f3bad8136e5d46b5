import math
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from _oracles import brute_force_match, entries, lsa_match_frame, lsa_ospa_frame, per_frame_entries
from conftest import directions
from doatrack.errors import GridMismatch
from doatrack.frame_metrics import ospa_frame, ospa_sequence
from doatrack.geometry import Direction, angular_distance, sample_direction
from doatrack.matching import match_frame, match_sequence
from doatrack.trackmodel import FrameGrid, TrackSet


def D(az_deg, el_deg=0.0):
    return Direction.from_degrees(az_deg, el_deg)


GATE20 = math.radians(20.0)


def test_empty_inputs_yield_empty_partition():
    fa = match_frame([], [], GATE20)
    assert fa.tps == () and fa.fps == () and fa.fns == ()


def test_identical_pair_is_tp_with_zero_error():
    fa = match_frame([("p", D(40, 10))], [("g", D(40, 10))], GATE20)
    assert fa.tps == (("p", "g", 0.0),)
    assert fa.fps == () and fa.fns == ()


def test_two_on_two_prefers_total_error_minimum():
    gts = [("g0", D(0)), ("g1", D(90))]
    preds = [("p0", D(5)), ("p1", D(85))]
    fa = match_frame(preds, gts, GATE20)
    assert {(p, g) for p, g, _ in fa.tps} == {("p0", "g0"), ("p1", "g1")}
    for _p, _g, err in fa.tps:
        assert err == pytest.approx(math.radians(5.0), abs=1e-12)


def test_out_of_gate_pred_is_fp_and_gt_fn():
    fa = match_frame([("p", D(0))], [("g", D(50))], GATE20)
    assert fa.tps == ()
    assert fa.fps == ("p",)
    assert fa.fns == ("g",)


def test_input_order_does_not_matter():
    rng = np.random.default_rng(0)
    preds = [(f"p{i}", sample_direction(rng)) for i in range(5)]
    gts = [(f"g{i}", sample_direction(rng)) for i in range(5)]
    a = match_frame(preds, gts, math.radians(60))
    b = match_frame(preds[::-1], gts[::-1], math.radians(60))
    assert a == b


def test_pair_exactly_at_the_gate_is_matched():
    a, b, c = D(10, 5), D(40, -20), D(-120, 60)
    gate = match_frame([("p", a)], [("g", b)], math.pi).tps[0][2]
    assert match_frame([("p", a)], [("g", b)], gate).tps == (("p", "g", gate),)
    fa = match_frame([("p", a), ("q", c)], [("g", b)], gate)
    assert fa.tps == (("p", "g", gate),) and fa.fps == ("q",)


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        match_frame([("p", D(0)), ("p", D(1))], [], GATE20)


def test_gate_domain_checked():
    with pytest.raises(ValueError):
        match_frame([], [], 0.0)


def test_matches_brute_force_up_to_six_by_six():
    rng = np.random.default_rng(7)
    for _ in range(15):
        preds = [(f"p{i}", sample_direction(rng)) for i in range(6)]
        gts = [(f"g{i}", sample_direction(rng)) for i in range(6)]
        gate = float(rng.uniform(0.5, 2.0))
        fa = match_frame(preds, gts, gate)
        card, cost = brute_force_match(preds, gts, gate)
        assert len(fa.tps) == card
        assert sum(e for _p, _g, e in fa.tps) == pytest.approx(cost, abs=1e-9)


def test_matches_brute_force_on_random_frames():
    rng = np.random.default_rng(42)
    for _ in range(150):
        n_p = int(rng.integers(0, 5))
        n_g = int(rng.integers(0, 5))
        preds = [(f"p{i}", sample_direction(rng)) for i in range(n_p)]
        gts = [(f"g{i}", sample_direction(rng)) for i in range(n_g)]
        gate = float(rng.uniform(0.2, 2.5))
        fa = match_frame(preds, gts, gate)
        card, cost = brute_force_match(preds, gts, gate)
        assert len(fa.tps) == card
        assert sum(e for _p, _g, e in fa.tps) == pytest.approx(cost, abs=1e-9)
        for _p, _g, e in fa.tps:
            assert e <= gate
        # cardinality maximality: no fps x fns pair can lie within the gate
        pd = dict(preds)
        gd = dict(gts)
        for p in fa.fps:
            for g in fa.fns:
                assert angular_distance(pd[p], gd[g]) > gate


def test_gate_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(60):
        preds = [(f"p{i}", sample_direction(rng)) for i in range(4)]
        gts = [(f"g{i}", sample_direction(rng)) for i in range(4)]
        small = float(rng.uniform(0.1, 1.0))
        large = small + float(rng.uniform(0.0, 1.5))
        assert len(match_frame(preds, gts, small).tps) <= len(
            match_frame(preds, gts, large).tps
        )


def _scene(rng, grid, n_tracks, prefix):
    entries = {}
    for i in range(n_tracks):
        frames = {
            f: sample_direction(rng)
            for f in range(grid.n_frames)
            if rng.random() < 0.7
        }
        entries[f"{prefix}{i}"] = frames
    return TrackSet(grid, entries)


def test_sequence_of_identical_tracksets_is_all_tp():
    rng = np.random.default_rng(9)
    grid = FrameGrid(0.1, 30)
    gts = _scene(rng, grid, 3, "g")
    preds = TrackSet(grid, {f"p{i}": dict(v) for i, (_k, v) in enumerate(sorted(entries(gts).items()))})
    frames = match_sequence(preds, gts, GATE20).frames
    n_tp = sum(len(fa.tps) for fa in frames)
    assert n_tp == gts.n_entries()
    assert all(not fa.fps and not fa.fns for fa in frames)
    assert all(e == 0.0 for fa in frames for _p, _g, e in fa.tps)


def test_sequence_with_no_predictions_is_all_fn():
    rng = np.random.default_rng(10)
    grid = FrameGrid(0.1, 20)
    gts = _scene(rng, grid, 2, "g")
    frames = match_sequence(TrackSet(grid, {}), gts, GATE20).frames
    assert sum(len(fa.fns) for fa in frames) == gts.n_entries()
    assert all(not fa.tps and not fa.fps for fa in frames)


def test_sequence_frames_match_independent_frame_calls():
    rng = np.random.default_rng(11)
    grid = FrameGrid(0.1, 25)
    gts = _scene(rng, grid, 3, "g")
    preds = _scene(rng, grid, 3, "p")
    frames = match_sequence(preds, gts, GATE20).frames
    for fa, pf, gf in zip(frames, per_frame_entries(preds), per_frame_entries(gts)):
        assert fa == match_frame(pf, gf, GATE20)
        card, cost = brute_force_match(pf, gf, GATE20)
        assert len(fa.tps) == card
        assert sum(e for _p, _g, e in fa.tps) == pytest.approx(cost, abs=1e-9)


def test_grid_mismatch_raises():
    a = TrackSet(FrameGrid(0.1, 10), {})
    b = TrackSet(FrameGrid(0.2, 10), {})
    with pytest.raises(GridMismatch):
        match_sequence(a, b, GATE20)


def test_inputs_not_mutated_by_matching():
    rng = np.random.default_rng(12)
    grid = FrameGrid(0.1, 15)
    gts = _scene(rng, grid, 2, "g")
    preds = _scene(rng, grid, 2, "p")
    import copy

    gts_snapshot = copy.deepcopy(gts)
    preds_snapshot = copy.deepcopy(preds)
    match_sequence(preds, gts, GATE20)
    assert gts == gts_snapshot
    assert preds == preds_snapshot


# Poles (any azimuth is the same point there) and both sides of the
# +-180 deg azimuth seam.
SPECIAL_DIRECTIONS = [
    D(0, 90), D(123, 90), D(0, -90), D(180, 0), D(-180, 0),
    D(179.9999, 10), D(-179.9999, 10), D(45, 0),
]


@st.composite
def scene_pairs(draw):
    """(preds, gts) on one grid, 0-4 entries per frame and side. Entries
    draw from a small pool, so duplicate directions (equal-cost ties)
    are common."""
    grid = FrameGrid(0.1, draw(st.integers(1, 8)))
    pool = SPECIAL_DIRECTIONS + draw(st.lists(directions(), min_size=1, max_size=4))

    def trackset(prefix):
        tracks = {}
        for f in range(grid.n_frames):
            for i in draw(st.lists(st.integers(0, 5), max_size=4, unique=True)):
                tracks.setdefault(f"{prefix}{i}", {})[f] = draw(st.sampled_from(pool))
        return TrackSet(grid, tracks)

    return trackset("p"), trackset("g")


@given(
    scene_pairs(),
    st.sampled_from([math.radians(7.0), GATE20, math.radians(75.0), math.pi]),
    st.sampled_from([math.radians(10.0), math.radians(30.0), math.pi]),
    st.sampled_from([1.0, 1.5, 2.0]),
)
def test_sequence_path_equals_per_frame_reference(scene, gate, cutoff, order):
    preds, gts = scene
    ms = match_sequence(preds, gts, gate)
    values = []
    for fa, pf, gf in zip(ms.frames, per_frame_entries(preds), per_frame_entries(gts)):
        assert fa == lsa_match_frame(pf, gf, gate)
        assert match_frame(pf, gf, gate) == fa
        if pf or gf:
            p_dirs, g_dirs = [d for _i, d in pf], [d for _i, d in gf]
            value = ospa_frame(p_dirs, g_dirs, cutoff, order)
            assert value == lsa_ospa_frame(p_dirs, g_dirs, cutoff, order)
            values.append(value)
    expected = float(np.mean(values)) if values else None
    assert ospa_sequence(ms, cutoff, order) == expected


def test_ospa_sequence_needs_a_matched_sequence():
    grid = FrameGrid(0.1, 2)
    gts = TrackSet(grid, {"g": {0: D(0)}})
    ms = match_sequence(TrackSet(grid, {}), gts, GATE20)
    assert ospa_sequence(ms, math.radians(30.0)) == math.radians(30.0)
    with pytest.raises(ValueError):
        ospa_sequence(replace(ms, distances=None), math.radians(30.0))
