import math
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment as scipy_linear_sum_assignment

from _oracles import (
    _frame_distances, brute_force_match, entries, lsa_match_frame, lsa_ospa_frame,
    per_frame_entries,
)
from conftest import directions
from doatrack import frame_metrics, matching
from doatrack.errors import GridMismatch
from doatrack.frame_metrics import _OSPA_MARGIN, ospa_frame, ospa_sequence
from doatrack.geometry import Direction, angular_distance, sample_direction
from doatrack.matching import match_frame, match_sequence
from doatrack.reporting import evaluate_scene
from doatrack.scenesim import (
    ObservationModel, ScenarioConfig, generate_scene, simulate_observations,
)
from doatrack.trackers import TrackerConfig, pf_tracker
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


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts of calls to the matching and OSPA assignment solvers."""
    calls = {"matching": 0, "ospa": 0}
    for key, module in (("matching", matching), ("ospa", frame_metrics)):
        def counted(cost, key=key, solve=module.linear_sum_assignment):
            calls[key] += 1
            return solve(cost)
        monkeypatch.setattr(module, "linear_sum_assignment", counted)
    return calls


_A, _B, _C = D(10, 5), D(40, -20), D(-120, 60)
_AB = angular_distance(_A, _B)


# (preds, gts, gate, OSPA cutoff, OSPA order, solver calls of matching, of OSPA).
# A call count of 0 is the forced path, 1 the solver.
PATH_CASES = {
    "disjoint pairs, square": (
        [D(0), D(90)], [D(5), D(100)], GATE20, math.radians(30.0), 1.0, 0, 0),
    "a row with two in-gate pairs": (
        [D(0), D(90)], [D(5), D(-8)], GATE20, math.radians(30.0), 1.0, 1, 1),
    "a column with two in-gate pairs, one-entry OSPA": (
        [D(0), D(-12)], [D(5)], GATE20, math.radians(30.0), 2.0, 1, 0),
    "a pair exactly at the gate": (
        [_A, _C], [_B, D(-60, -30)], _AB, math.radians(30.0), 1.0, 0, 0),
    "duplicate directions tie": (
        [D(0), D(0)], [D(3), D(3)], GATE20, math.radians(30.0), 1.5, 1, 1),
    "an in-cutoff cost inside the margin": (
        [_A, _C], [_B, D(-60, -30)], GATE20, float(np.nextafter(_AB, math.inf)), 2.0, 0, 1),
    "more preds than gts, a gt without a pair": (
        [D(0), D(90), D(180)], [D(2), D(45, 60)], GATE20, math.radians(30.0), 1.0, 0, 1),
    "more preds than gts, every gt paired": (
        [D(0), D(90), D(180)], [D(2), D(178)], GATE20, math.radians(30.0), 2.0, 0, 0),
    "more gts than preds, rows without a pair": (
        [D(0), D(-150)], [D(2), D(178), D(90)], GATE20, math.radians(30.0), 1.0, 0, 0),
    "gate above the cutoff": (
        [D(0), D(90)], [D(15), D(120)], math.radians(60.0), GATE20, 1.0, 0, 0),
    "gate above the cutoff, pairs compete in gate only": (
        [D(0), D(50)], [D(25), D(120)], math.radians(60.0), GATE20, 1.0, 1, 0),
}


@pytest.mark.parametrize("case", PATH_CASES.values(), ids=PATH_CASES.keys())
def test_each_path_equals_the_solver_on_every_frame(case, solver_calls):
    p_dirs, g_dirs, gate, cutoff, order, match_calls, ospa_calls = case
    preds = [(f"p{i}", d) for i, d in enumerate(p_dirs)]
    gts = [(f"g{i}", d) for i, d in enumerate(g_dirs)]
    assert match_frame(preds, gts, gate) == lsa_match_frame(preds, gts, gate)
    value = ospa_frame(p_dirs, g_dirs, cutoff, order)
    assert value == lsa_ospa_frame(p_dirs, g_dirs, cutoff, order)
    assert solver_calls == {"matching": match_calls, "ospa": ospa_calls}


def _needs_solver(dist, gate, cutoff, order):
    """Whether matching and OSPA must solve a frame, by each rule stated on
    its own: in-gate (in-cutoff) pairs that share a row or column; for
    OSPA also an in-cutoff cost within the margin of cutoff**order, or
    more preds than gts with a gt column that has no in-cutoff pair."""
    def competing(mask):
        return bool((mask.sum(axis=0) > 1).any() or (mask.sum(axis=1) > 1).any())

    near = dist < cutoff
    n_pred, n_gt = dist.shape
    ospa = min(n_pred, n_gt) > 1 and (
        competing(near)
        or bool((dist[near] ** order >= (1 - _OSPA_MARGIN) * cutoff**order).any())
        or (n_pred > n_gt and not near.any(axis=0).all())
    )
    return competing(dist <= gate), ospa


def test_only_frames_whose_optimum_is_open_call_the_solver(solver_calls):
    gt = generate_scene(ScenarioConfig(n_speakers=3, duration_s=20.0, seed=5))
    obs = simulate_observations(gt, ObservationModel(p_miss=0.05, clutter_rate=0.3, seed=6))
    preds = pf_tracker(obs, TrackerConfig(max_active=3, birth_frames=2, death_frames=2, seed=7))
    gate, cutoff = GATE20, math.radians(30.0)
    assert evaluate_scene("s", gt, preds, gate, cutoff).n_tp > 0
    nxm_frames = [
        _frame_distances([d for _i, d in pf], [d for _i, d in gf])
        for pf, gf in zip(per_frame_entries(preds), per_frame_entries(gt))
        if pf and gf and len(pf) * len(gf) > 1
    ]
    flags = [_needs_solver(d, gate, cutoff, 1.0) for d in nxm_frames]
    open_match, open_ospa = np.sum(flags, axis=0)
    # Forced frames call neither solver, and most N x M frames are forced.
    assert solver_calls == {"matching": open_match, "ospa": open_ospa}
    assert 0 < open_match and 0 < open_ospa and 2 * max(open_match, open_ospa) < len(nxm_frames)


def _solver_inputs(seed):
    """Cost matrices of every kind the matching and OSPA solves meet, in
    both orientations: random, small-integer (full of ties), constant,
    and gated with _PROHIBITIVE entries."""
    rng = np.random.default_rng(seed)
    shapes = [(r, k) for r in range(1, 9) for k in range(1, 9) for _ in range(8)]
    for r, k in shapes + [(0, 0), (0, 3), (3, 0), (40, 37), (37, 40), (41, 41)]:
        yield rng.random((r, k))
        yield rng.integers(0, 4, (r, k)).astype(float)
        yield np.full((r, k), float(rng.integers(3)))
        yield np.where(rng.random((r, k)) < 0.5, matching._PROHIBITIVE, rng.random((r, k)))


def _assert_solves_as_scipy(cost):
    rows, cols = matching.linear_sum_assignment(cost)
    want_rows, want_cols = scipy_linear_sum_assignment(cost)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols), cost


def test_solver_returns_scipys_assignment():
    for cost in _solver_inputs(seed=11):
        _assert_solves_as_scipy(cost)


_SOLVER_ENTRIES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, matching._PROHIBITIVE]), st.floats(0.0, 4.0)
)


@given(arrays(float, st.tuples(st.integers(1, 8), st.integers(1, 8)), elements=_SOLVER_ENTRIES))
def test_solver_returns_scipys_assignment_on_any_matrix(cost):
    _assert_solves_as_scipy(cost)


@pytest.mark.parametrize("cost", [
    [[1.0, 2.0], [math.inf, math.inf]],
    [[math.inf, math.inf, math.inf], [0.0, 1.0, 2.0]],
    [[math.inf, 1.0], [math.inf, 2.0], [math.inf, 3.0]],  # a row once transposed
])
def test_a_row_of_infinite_costs_is_infeasible(cost):
    with pytest.raises(ValueError):
        scipy_linear_sum_assignment(np.array(cost))
    with pytest.raises(ValueError):
        matching.linear_sum_assignment(np.array(cost))
