import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from _oracles import match_sequence_of, naive_broken, naive_swaps, random_match_sequence
from conftest import directions
from doatrack.assoc_metrics import association_scores
from doatrack.frame_metrics import (
    count_broken,
    count_swaps,
    frame_metrics_report,
    mean_localization_error,
    mota,
    ospa_frame,
    tfr,
    tsr,
)
from doatrack.geometry import Direction, sample_direction
from doatrack.matching import FrameAssignment, match_sequence
from doatrack.trackmodel import FrameGrid, TrackSet

from test_assoc_metrics import ms_from, two_way_merge


def D(az_deg, el_deg=0.0):
    return Direction.from_degrees(az_deg, el_deg)


def test_perfect_tracker_has_no_swaps():
    ms = ms_from([([("p", "g")], [], [])] * 30)
    assert count_swaps(ms) == 0


def test_contiguous_split_counts_one_swap():
    frames = [([("p1", "g")], [], [])] * 50 + [([("p2", "g")], [], [])] * 50
    ms = ms_from(frames)
    assert count_swaps(ms) == 1


def test_swap_counted_across_inactivity_gap():
    frames = [([("p1", "g")], [], [])] * 5
    frames += [([], [], [])] * 10  # gt inactive; reference must persist
    frames += [([("p2", "g")], [], [])] * 5
    ms = ms_from(frames)
    assert count_swaps(ms) == 1


def test_swap_reference_survives_fn_runs():
    frames = [([("p1", "g")], [], [])] * 5
    frames += [([], [], ["g"])] * 4  # unmatched but active
    frames += [([("p1", "g")], [], [])] * 5
    assert count_swaps(ms_from(frames)) == 0


def _gts_active(grid, frames_by_id):
    return TrackSet(
        grid, {tid: {f: D(0, 0) for f in fs} for tid, fs in frames_by_id.items()}
    )


def test_perfect_tracker_has_no_broken_tracks():
    ms = ms_from([([("p", "g")], [], [])] * 10)
    gts = _gts_active(ms.grid, {"g": range(10)})
    assert count_broken(ms, gts) == 0


def test_single_tp_to_fn_transition_is_one_break():
    frames = [([("p", "g")], [], [])] * 5 + [([], [], ["g"])] * 5
    ms = ms_from(frames)
    gts = _gts_active(ms.grid, {"g": range(10)})
    assert count_broken(ms, gts) == 1


def test_inactivity_is_not_a_break():
    frames = [([("p", "g")], [], [])] * 5 + [([], [], [])] * 5
    ms = ms_from(frames)
    gts = _gts_active(ms.grid, {"g": range(5)})
    assert count_broken(ms, gts) == 0


def test_rates_zero_without_events():
    assert tsr(0, 60.0) == 0.0
    assert tfr(0, 0, 60.0) == 0.0


def test_rates_refuse_a_duration_that_is_not_positive():
    for duration in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="duration"):
            tsr(0, duration)
        with pytest.raises(ValueError, match="duration"):
            tfr(0, 0, duration)


def test_one_swap_in_ten_seconds():
    assert tsr(1, 10.0) == 0.1
    assert tfr(1, 2, 10.0) == pytest.approx(0.3)


def test_swap_rate_reads_as_inter_swap_interval():
    # a rate of 0.28 swaps/s is an id change roughly every 3-4 seconds
    rate = tsr(17, 60.0)
    assert rate == pytest.approx(0.2833, abs=1e-3)
    assert 2.5 < 1.0 / rate < 4.5


def test_mota_worked_examples():
    assert mota(0, 0, 0, 100) == 1.0
    assert mota(10, 5, 2, 100) == 0.83
    assert mota(100, 0, 0, 100) == 0.0  # no predictions at all


def test_mota_undefined_without_ground_truth():
    assert mota(0, 0, 0, 0) is None


def test_mota_is_one_iff_error_free():
    assert mota(0, 0, 0, 50) == 1.0
    assert mota(1, 0, 0, 50) < 1.0
    assert mota(0, 1, 0, 50) < 1.0
    assert mota(0, 0, 1, 50) < 1.0


CUT30 = math.radians(30.0)


def test_ospa_identical_sets_is_exactly_zero():
    xs = [D(10, 5), D(100, -20), D(-60, 40)]
    assert ospa_frame(xs, list(xs), CUT30) == 0.0


def test_ospa_pure_cardinality_term():
    assert ospa_frame([], [D(0, 0)], CUT30) == CUT30
    assert ospa_frame([D(0, 0)], [], CUT30) == CUT30


def test_ospa_both_empty_is_zero():
    assert ospa_frame([], [], CUT30) == 0.0


def test_ospa_single_matched_pair_order_one():
    got = ospa_frame([D(0, 0)], [D(10, 0)], CUT30, order=1)
    assert got == pytest.approx(math.radians(10.0), abs=1e-12)


def test_ospa_result_bounded_by_cutoff():
    rng = np.random.default_rng(2)
    for _ in range(50):
        xs = [sample_direction(rng) for _ in range(int(rng.integers(0, 5)))]
        ys = [sample_direction(rng) for _ in range(int(rng.integers(0, 5)))]
        v = ospa_frame(xs, ys, CUT30, order=float(rng.choice([1.0, 2.0])))
        assert 0.0 <= v <= CUT30 + 1e-15


@given(st.lists(directions(), max_size=4), st.lists(directions(), max_size=4))
def test_ospa_symmetric(xs, ys):
    assert ospa_frame(xs, ys, CUT30) == pytest.approx(
        ospa_frame(ys, xs, CUT30), abs=1e-12
    )


def test_ospa_triangle_inequality():
    # OSPA is a metric on finite direction sets
    rng = np.random.default_rng(6)
    for _ in range(40):
        sets = [
            [sample_direction(rng) for _ in range(int(rng.integers(0, 5)))]
            for _ in range(3)
        ]
        x, y, z = sets
        assert ospa_frame(x, z, CUT30) <= (
            ospa_frame(x, y, CUT30) + ospa_frame(y, z, CUT30) + 1e-9
        )


def test_ospa_unmatched_element_strictly_increases():
    xs = [D(0, 0), D(90, 0)]
    base = ospa_frame(xs, list(xs), CUT30)
    bigger = ospa_frame(xs + [D(-90, 0)], list(xs), CUT30)
    assert bigger > base


def test_mean_localization_error_examples():
    ms = ms_from([([("p", "g")], [], [])] * 10)
    assert mean_localization_error(ms) == 0.0
    frames = (
        FrameAssignment(tps=(("p", "g", math.radians(2.0)),), fps=(), fns=()),
        FrameAssignment(tps=(("p", "g", math.radians(4.0)),), fps=(), fns=()),
    )
    ms2 = match_sequence_of(FrameGrid(0.1, 2), frames)
    assert mean_localization_error(ms2) == pytest.approx(math.radians(3.0), abs=1e-15)


def test_mean_localization_error_undefined_without_tps():
    assert mean_localization_error(ms_from([([], [], ["g"])])) is None


def test_counters_match_naive_reference_on_random_scenes():
    rng = np.random.default_rng(8)
    for _ in range(40):
        gts, ms = random_match_sequence(rng, n_frames=int(rng.integers(30, 200)))
        assert count_swaps(ms) == naive_swaps(ms)
        assert count_broken(ms, gts) == naive_broken(ms, gts)


def test_tsr_never_exceeds_tfr():
    rng = np.random.default_rng(21)
    for _ in range(20):
        gts, ms = random_match_sequence(rng)
        n_swaps, duration = count_swaps(ms), ms.grid.duration
        assert tsr(n_swaps, duration) <= tfr(n_swaps, count_broken(ms, gts), duration)


def test_tfr_equals_tsr_without_false_negatives():
    # broken tracks require a TP -> FN transition, impossible without FNs
    frames = [([("p1", "g")], [], [])] * 10 + [([("p2", "g")], ["x"], [])] * 10
    ms = ms_from(frames)
    gts = _gts_active(ms.grid, {"g": range(20)})
    assert count_broken(ms, gts) == 0
    assert tfr(count_swaps(ms), 0, ms.grid.duration) == tsr(count_swaps(ms), ms.grid.duration)


def test_merge_is_invisible_to_swaps_but_not_to_precision():
    ms = two_way_merge(100)
    assert count_swaps(ms) == 0
    assert association_scores(ms).ass_pr == 0.5


def test_per_track_rates_divide_by_ground_truth_track_count():
    # p1 hands g1 over to p2 at frame 10; q follows g2 throughout
    grid = FrameGrid(0.1, 20)
    gts = TrackSet(grid, {"g1": {f: D(0) for f in range(20)}, "g2": {f: D(90) for f in range(20)}})
    preds = TrackSet(grid, {
        "p1": {f: D(0) for f in range(10)},
        "p2": {f: D(0) for f in range(10, 20)},
        "q": {f: D(90) for f in range(20)},
    })
    ms = match_sequence(preds, gts, math.radians(20))
    report = frame_metrics_report(ms, gts, CUT30)
    assert report.n_swaps == 1
    assert report.tsr_per_track == report.tsr / 2
    assert report.tfr_per_track == report.tfr / 2


def test_report_assembly_on_matched_scene():
    grid = FrameGrid(0.1, 40)
    gt_entries = {"g": {f: D(f, 0) for f in range(30)}}
    gts = TrackSet(grid, gt_entries)
    preds = TrackSet(grid, {"p": {f: D(f, 0) for f in range(30)}})
    ms = match_sequence(preds, gts, math.radians(20))
    report = frame_metrics_report(ms, gts, CUT30)
    assert report.n_tp == 30 and report.n_fp == 0 and report.n_fn == 0
    assert report.tsr == 0.0 and report.tfr == 0.0
    assert report.mota == 1.0
    assert report.mean_loc_error == 0.0
    assert report.ospa_mean == 0.0
    assert report.tsr_per_track == 0.0


def test_ospa_takes_the_last_power_as_pow_does():
    # numpy's array power with exponent 0.5 rounds as sqrt, not as pow,
    # in about one value of a thousand; these frames hit such values.
    from _oracles import lsa_ospa_frame

    rng = np.random.default_rng(0)
    for _ in range(3000):
        preds = [sample_direction(rng) for _ in range(int(rng.integers(1, 3)))]
        gts = [sample_direction(rng) for _ in range(int(rng.integers(1, 3)))]
        for order in (2.0, 3.0):
            assert ospa_frame(preds, gts, math.pi, order) == lsa_ospa_frame(
                preds, gts, math.pi, order
            )


def test_ospa_frame_sums_costs_in_input_order_past_ten_entries():
    # The assignment cost sum follows row order; with ten or more entries
    # a side, plain ids "10" < "2" would reorder rows and move last bits.
    from _oracles import lsa_ospa_frame

    rng = np.random.default_rng(1)
    for _ in range(50):
        preds = [sample_direction(rng) for _ in range(int(rng.integers(11, 15)))]
        gts = [sample_direction(rng) for _ in range(int(rng.integers(11, 15)))]
        for order in (1.0, 2.0):
            assert ospa_frame(preds, gts, math.pi, order) == lsa_ospa_frame(
                preds, gts, math.pi, order
            )
