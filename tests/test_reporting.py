import io
import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from _oracles import (
    lsa_match_frame,
    lsa_ospa_frame,
    match_sequence_of,
    naive_association_scores,
    naive_bootstrap_aggregate,
    naive_broken,
    naive_swaps,
    per_frame_entries,
)
from doatrack.errors import InsufficientData, InvalidConfig
from doatrack.geometry import Direction
from doatrack.reporting import (
    REPORT_COLUMNS,
    aggregate_reports,
    bootstrap_aggregate,
    evaluate_scene,
    report_csv_rows,
)
from doatrack.trackmodel import (
    FrameGrid,
    TrackSet,
    read_trackset,
    trackset_to_string,
)
from test_matching import scene_pairs


def test_bootstrap_equal_values():
    mean, std = bootstrap_aggregate([0.7] * 20, rng=np.random.default_rng(0))
    assert mean == pytest.approx(0.7, abs=1e-12)
    assert std == pytest.approx(0.0, abs=1e-12)


def test_bootstrap_mixed_values_statistics():
    values = [0.0] * 50 + [1.0] * 50
    mean, std = bootstrap_aggregate(values, rng=np.random.default_rng(1))
    assert 0.4 <= mean <= 0.6
    assert std < 0.06


def test_bootstrap_single_value_raises():
    with pytest.raises(InsufficientData):
        bootstrap_aggregate([1.0])


def test_bootstrap_rejects_fraction_and_replicates_out_of_bounds():
    for fraction, replicates in ((0.0, 10), (1.5, 10), (math.nan, 10), (0.8, -1)):
        with pytest.raises(InvalidConfig):
            bootstrap_aggregate([1.0, 2.0], fraction, replicates)


def test_bootstrap_zero_replicates_gives_plain_mean():
    mean, std = bootstrap_aggregate([1.0, 2.0, 3.0], replicates=0)
    assert mean == 2.0
    assert std is None


def test_bootstrap_deterministic_per_rng_seed():
    values = list(np.random.default_rng(3).uniform(size=30))
    a = bootstrap_aggregate(values, rng=np.random.default_rng(7))
    b = bootstrap_aggregate(values, rng=np.random.default_rng(7))
    assert a == b


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=200),
    st.floats(0.0, 1.0, exclude_min=True),
    st.integers(1, 200),
    st.integers(0, 2**32 - 1),
)
def test_bootstrap_equals_one_value_draw_per_replicate(values, fraction, replicates, seed):
    # index draws consume the generator as value draws do: equal with ==
    fast = bootstrap_aggregate(values, fraction, replicates, np.random.default_rng(seed))
    naive = naive_bootstrap_aggregate(values, fraction, replicates, np.random.default_rng(seed))
    assert fast == naive


def _tiny_report(scene_id, ass_re=None):
    grid = FrameGrid(0.1, 10)
    d = Direction(0.0, 0.0)
    gts = TrackSet(grid, {"g": {f: d for f in range(10)}})
    if ass_re is None:
        preds = TrackSet(grid, {})  # no TPs: association scores undefined
    else:
        preds = TrackSet(grid, {"p": {f: d for f in range(10)}})
    return evaluate_scene(scene_id, gts, preds, math.radians(20))


def test_undefined_metrics_are_none_not_zero():
    rep = _tiny_report("empty")
    assert rep.ass_re is None and rep.ass_pr is None and rep.ass_a is None
    assert rep.mean_loc_error is None
    assert rep.mota == 0.0  # defined: all FNs


def test_csv_rows_sorted_with_empty_cells_for_undefined():
    rows = report_csv_rows([_tiny_report("b"), _tiny_report("a", ass_re=1.0)])
    lines = rows.strip().split("\n")
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert lines[1].startswith("a,")
    assert lines[2].startswith("b,")
    b_cells = lines[2].split(",")
    assert b_cells[REPORT_COLUMNS.index("ass_re")] == ""
    assert b_cells[REPORT_COLUMNS.index("mean_loc_error_deg")] == ""


def test_aggregate_counts_exclusions():
    reports = [_tiny_report("a", ass_re=1.0), _tiny_report("b"), _tiny_report("c", ass_re=1.0)]
    agg = aggregate_reports(reports, replicates=10, seed=0)
    assert agg["metrics"]["ass_re"]["n_defined"] == 2
    assert agg["metrics"]["ass_re"]["n_excluded"] == 1
    assert agg["metrics"]["ass_re"]["mean"] == 1.0
    assert agg["metrics"]["tsr"]["n_excluded"] == 0
    assert agg["n_scenes"] == 3


def test_aggregate_single_defined_value_has_no_std():
    reports = [_tiny_report("a", ass_re=1.0), _tiny_report("b")]
    agg = aggregate_reports(reports, replicates=10, seed=0)
    assert agg["metrics"]["ass_re"]["mean"] == 1.0
    assert agg["metrics"]["ass_re"]["std"] is None
    # a metric that no scene defines
    undefined = aggregate_reports(reports[1:], replicates=10, seed=0)["metrics"]["ass_re"]
    assert undefined == {"mean": None, "std": None, "n_defined": 0, "n_excluded": 1}


def test_report_degrees_properties():
    rep = _tiny_report("a", ass_re=1.0)
    assert rep.mean_loc_error_deg == 0.0
    assert rep.ospa_mean_deg == 0.0


# Generated scenes against the naive references: every field of the
# report must equal its oracle value with ==, for TrackSets built in
# memory and for the same scenes read back from their CSVs.


def oracle_report(gts, preds, gate, cutoff, order) -> dict:
    pred_frames, gt_frames = per_frame_entries(preds), per_frame_entries(gts)
    frames = tuple(lsa_match_frame(pf, gf, gate) for pf, gf in zip(pred_frames, gt_frames))
    ms = match_sequence_of(gts.grid, frames)
    n_tp = sum(len(fa.tps) for fa in frames)
    n_fp = sum(len(fa.fps) for fa in frames)
    n_fn = sum(len(fa.fns) for fa in frames)
    swaps, broken = naive_swaps(ms), naive_broken(ms, gts)
    duration, n_tracks, n_det = gts.grid.duration, len(gts.ids), gts.n_entries()
    ospa = [
        lsa_ospa_frame([d for _i, d in pf], [d for _i, d in gf], cutoff, order)
        for pf, gf in zip(pred_frames, gt_frames)
        if pf or gf
    ]
    errors = [e for fa in frames for _p, _g, e in fa.tps]
    ass_re, ass_pr, ass_a = naive_association_scores(ms) if n_tp else (None, None, None)
    return {
        "n_tp": n_tp, "n_fp": n_fp, "n_fn": n_fn,
        "n_swaps": swaps, "n_broken": broken,
        "tsr": swaps / duration, "tfr": (swaps + broken) / duration,
        "tsr_per_track": swaps / duration / n_tracks if n_tracks else None,
        "tfr_per_track": (swaps + broken) / duration / n_tracks if n_tracks else None,
        "mota": float(1 - Fraction(n_fn + n_fp + swaps, n_det)) if n_det else None,
        "ospa_mean": float(np.mean(ospa)) if ospa else None,
        "mean_loc_error": float(np.mean(errors)) if errors else None,
        "scene_id": "s", "ass_a": ass_a, "ass_pr": ass_pr, "ass_re": ass_re,
    }


@given(
    scene_pairs(),
    st.sampled_from([math.radians(7.0), math.radians(20.0), math.radians(75.0), math.pi]),
    st.sampled_from([math.radians(10.0), math.radians(30.0), math.pi]),
)
def test_evaluate_scene_equals_the_oracles(scene, gate, cutoff):
    preds, gts = scene
    read_back = [read_trackset(io.StringIO(trackset_to_string(ts)), ts.grid) for ts in scene]
    for p, g in ((preds, gts), tuple(read_back)):
        for order in (1.0, 2.0):
            report = evaluate_scene("s", g, p, gate, cutoff, order)
            assert vars(report) == oracle_report(g, p, gate, cutoff, order)
