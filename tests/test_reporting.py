import io
import itertools
import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

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
    AGGREGATE_METRICS,
    MAX_ONE_CALL_SUBSAMPLE,
    REPORT_COLUMNS,
    MetricsReport,
    aggregate_reports,
    bootstrap_aggregate,
    evaluate_scene,
    report_csv_rows,
)
from doatrack.scenesim import ObservationModel, ScenarioConfig, generate_scene, simulate_observations
from doatrack.trackers import (
    TrackerConfig,
    merger_tracker,
    pf_tracker,
    splitter_tracker,
    swapper_tracker,
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
        bootstrap_aggregate([1.0], rng=np.random.default_rng(0))


def test_bootstrap_rejects_fraction_and_replicates_out_of_bounds():
    for fraction, replicates in ((0.0, 10), (1.5, 10), (math.nan, 10), (0.8, -1), (0.8, 2.5),
                                 (0.8, 2.0), (0.8, True), (0.8, "3"), (True, 10), ("0.8", 10)):
        with pytest.raises(InvalidConfig):
            bootstrap_aggregate([1.0, 2.0], fraction, replicates, rng=np.random.default_rng(0))


def test_bootstrap_zero_replicates_gives_plain_mean():
    mean, std = bootstrap_aggregate([1.0, 2.0, 3.0], replicates=0, rng=np.random.default_rng(0))
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
    fast = bootstrap_aggregate(values, fraction, replicates, rng=np.random.default_rng(seed))
    naive = naive_bootstrap_aggregate(values, fraction, replicates, np.random.default_rng(seed))
    assert fast == naive


# m = ceil(fraction * n) on each side of MAX_ONE_CALL_SUBSAMPLE (32):
# fraction 1.0 makes Floyd's first range 0, which takes no word; n above
# 10000 with a small m is still Floyd's sample in numpy's choice.
@given(
    st.integers(2, 3 * MAX_ONE_CALL_SUBSAMPLE),
    st.floats(0.0, 1.0, exclude_min=True),
    st.integers(1, 60),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
@example(n=32, fraction=1.0, replicates=7, words_before=1, seed=0)  # m = 32
@example(n=33, fraction=1.0, replicates=7, words_before=3, seed=1)  # m = 33
@example(n=40, fraction=0.8, replicates=9, words_before=1, seed=2)  # m = 32
@example(n=41, fraction=0.8, replicates=9, words_before=0, seed=3)  # m = 33
@example(n=2, fraction=1.0, replicates=5, words_before=1, seed=4)  # m = 2
@example(n=20_000, fraction=0.0015, replicates=11, words_before=1, seed=5)  # m = 30
@example(n=10_001, fraction=0.003, replicates=4, words_before=3, seed=6)  # m = 31
def test_bootstrap_leaves_the_generator_where_choice_leaves_it(
    n, fraction, replicates, words_before, seed
):
    values = np.sqrt(np.arange(n, dtype=float))  # distinct subsets, distinct means
    fast_rng, naive_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (fast_rng, naive_rng):
        rng.integers(0, 2**32, size=words_before, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == words_before % 2
    fast = bootstrap_aggregate(values, fraction, replicates, rng=fast_rng)
    naive = naive_bootstrap_aggregate(values, fraction, replicates, naive_rng)
    assert fast == naive
    assert fast_rng.bit_generator.state == naive_rng.bit_generator.state
    assert fast_rng.random() == naive_rng.random()


def test_aggregate_reports_keeps_one_stream_across_draw_paths():
    # 41 scenes put every frame-level subsample (m = 33) above
    # MAX_ONE_CALL_SUBSAMPLE; the ass_* metrics, defined on 3 scenes
    # (m = 3), fall below it, between them in AGGREGATE_METRICS order.
    value_rng = np.random.default_rng(11)
    n_scenes, assoc_scenes = 41, (4, 17, 30)
    assert math.ceil(0.8 * n_scenes) == MAX_ONE_CALL_SUBSAMPLE + 1
    reports = []
    for i in range(n_scenes):
        u = value_rng.uniform(size=10)
        ass = (u[7], u[8], u[9]) if i in assoc_scenes else (None, None, None)
        reports.append(MetricsReport(
            n_tp=i, n_fp=0, n_fn=0, n_swaps=int(u[0] * 9), n_broken=0, tsr=u[1], tfr=u[2],
            tsr_per_track=u[3], tfr_per_track=u[4], mota=u[5], ospa_mean=u[6],
            mean_loc_error=u[6] / 2, scene_id=f"s{i}", ass_a=ass[0], ass_pr=ass[1], ass_re=ass[2],
        ))
    agg = aggregate_reports(reports, replicates=50, seed=9)["metrics"]
    rng = np.random.default_rng(9)
    for metric, attr in AGGREGATE_METRICS.items():
        defined = [float(v) for v in (getattr(r, attr) for r in reports) if v is not None]
        assert len(defined) == (3 if metric.startswith("ass_") else n_scenes)
        mean, std = naive_bootstrap_aggregate(defined, 0.8, 50, rng)
        assert (agg[metric]["mean"], agg[metric]["std"]) == (mean, std), metric


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


def test_plain_means_do_not_move_when_the_scenes_come_in_another_order():
    # six PF scenes with clutter, one with every speaker missed (no TPs,
    # so its association scores and location error are undefined); with
    # replicates 0 the aggregate is a plain mean, which only sums in
    # another order when the reports are permuted
    reports = []
    for seed, (n_speakers, p_miss) in enumerate(
        [(1, 0.05), (2, 0.05), (3, 0.05), (1, 1.0), (2, 0.05), (3, 0.5)]
    ):
        gt = generate_scene(ScenarioConfig(n_speakers, duration_s=10.0, seed=seed))
        model = ObservationModel(p_miss=p_miss, clutter_rate=0.3, seed=seed)
        preds = pf_tracker(simulate_observations(gt, model), TrackerConfig(max_active=3, seed=seed))
        reports.append(evaluate_scene(f"s{seed}", gt, preds, math.radians(20)))
    base = aggregate_reports(reports, replicates=0)
    assert base["metrics"]["ass_a"]["n_excluded"] == 1
    for order in itertools.permutations(range(len(reports))):
        agg = aggregate_reports([reports[i] for i in order], replicates=0)
        assert agg["n_scenes"] == base["n_scenes"] == 6
        for metric, entry in agg["metrics"].items():
            want = base["metrics"][metric]
            assert entry["std"] is want["std"] is None
            assert (entry["n_defined"], entry["n_excluded"]) == (
                want["n_defined"], want["n_excluded"]), (order, metric)
            assert entry["mean"] == pytest.approx(want["mean"], rel=1e-12, abs=0), (order, metric)


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


def _time_reversed(ts: TrackSet) -> TrackSet:
    """ts with frame f moved to frame n_frames - 1 - f."""
    labels = [ts.ids[code] for code in ts.id_code]
    return TrackSet.from_rows(
        ts.grid, ts.grid.n_frames - 1 - ts.frame, labels, ts.azimuth, ts.elevation, ids=ts.ids
    )


TRACKERS = {
    "splitter": lambda gt, obs, seed: splitter_tracker(gt, 3),
    "swapper": lambda gt, obs, seed: swapper_tracker(gt, 2.0),
    "merger": lambda gt, obs, seed: merger_tracker(gt),
    "pf": lambda gt, obs, seed: pf_tracker(obs, TrackerConfig(max_active=3, seed=seed)),
}
# Unchanged when time runs backwards: each frame's matching is, and so is
# every count of events between neighbouring frames except a broken
# track's, whose "not matched next" is directional (n_broken, tfr).
TIME_SYMMETRIC = ("n_tp", "n_fp", "n_fn", "n_swaps", "tsr", "tsr_per_track", "mota",
                  "ass_a", "ass_pr", "ass_re")


@pytest.mark.parametrize("tracker", sorted(TRACKERS))
def test_scores_do_not_move_when_time_runs_backwards(tracker):
    # 3-speaker jump scenes with misses and clutter
    for seed in range(4):
        gt = generate_scene(ScenarioConfig(3, duration_s=20.0, seed=seed))
        obs = simulate_observations(gt, ObservationModel(p_miss=0.05, clutter_rate=0.3, seed=seed))
        preds = TRACKERS[tracker](gt, obs, seed)
        forward = evaluate_scene("s", gt, preds, math.radians(20))
        backward = evaluate_scene("s", _time_reversed(gt), _time_reversed(preds), math.radians(20))
        assert forward.n_tp > 0
        for name in TIME_SYMMETRIC:
            assert getattr(backward, name) == getattr(forward, name), (seed, name)
        for name in ("ospa_mean", "mean_loc_error"):  # means over frames, summed in another order
            assert getattr(backward, name) == pytest.approx(getattr(forward, name), rel=1e-12)
