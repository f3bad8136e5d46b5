import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from _oracles import _greedy_pairs as naive_greedy_pairs
from _oracles import (
    _mean_direction,
    entries,
    from_unit_vector,
    naive_pf_tracker,
    observation_frames,
    observation_set,
    per_frame_entries,
)
from doatrack.errors import InvalidConfig, InvalidK, MissingTags
from doatrack.geometry import TWO_PI, Direction
from doatrack.reporting import evaluate_scene
from doatrack.scenesim import ObservationModel, ScenarioConfig, generate_scene, simulate_observations
from doatrack.trackers import (
    MAX_ACTIVE,
    MAX_PARTICLES,
    MIN_LIKELIHOOD_SIGMA,
    TrackerConfig,
    _greedy_pairs,
    _mean_angles,
    _predict,
    merger_tracker,
    oracle_tracker,
    pf_tracker,
    splitter_tracker,
    swapper_tracker,
)
from doatrack.trackmodel import FrameGrid, TrackSet, trackset_to_string

GATE = math.radians(20.0)


def D(az_deg, el_deg=0.0):
    return Direction.from_degrees(az_deg, el_deg)


def clean_obs(gt, seed=0):
    return simulate_observations(
        gt, ObservationModel(angular_noise_sigma=0.0, p_miss=0.0, clutter_rate=0.0, seed=seed)
    )


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------


def test_oracle_on_noise_free_observations_is_perfect():
    gt = generate_scene(ScenarioConfig(n_speakers=2, seed=1))
    preds = oracle_tracker(clean_obs(gt))
    rep = evaluate_scene("s", gt, preds, GATE)
    assert rep.ass_a == rep.ass_pr == rep.ass_re == 1.0
    assert rep.tsr == 0.0 and rep.tfr == 0.0
    assert rep.mota == 1.0
    assert rep.mean_loc_error == 0.0


def test_oracle_gaps_exactly_at_misses():
    gt = generate_scene(ScenarioConfig(n_speakers=1, seed=2))
    obs = simulate_observations(gt, ObservationModel(p_miss=0.2, clutter_rate=0.0, seed=3))
    preds = oracle_tracker(obs)
    observed_frames = {
        f for f, frame in enumerate(observation_frames(obs)) for _d, src in frame if src == "spk0"
    }
    assert set(entries(preds)["p_spk0"]) == observed_frames


def test_oracle_discards_clutter():
    gt = generate_scene(ScenarioConfig(n_speakers=1, seed=4))
    obs = simulate_observations(gt, ObservationModel(p_miss=0.0, clutter_rate=1.0, seed=5))
    preds = oracle_tracker(obs)
    assert preds.ids == ("p_spk0",)
    assert preds.n_entries() == gt.n_entries()


def test_oracle_requires_tags():
    grid = FrameGrid(0.1, 3)
    untagged = observation_set(grid, ([(D(0), None)], [], []))
    with pytest.raises(MissingTags):
        oracle_tracker(untagged)
    assert entries(oracle_tracker(observation_set(grid, ([], [], [])))) == {}


# --------------------------------------------------------------------------
# adversaries
# --------------------------------------------------------------------------


def single_track_scene(n=100):
    grid = FrameGrid(0.1, n)
    return TrackSet(grid, {"g": {f: D(30, 10) for f in range(n)}})


def test_splitter_k1_is_identity_relabeling():
    gt = single_track_scene()
    rep = evaluate_scene("s", gt, splitter_tracker(gt, 1), GATE)
    assert rep.ass_a == rep.ass_pr == rep.ass_re == 1.0


def test_splitter_k2_worked_example():
    gt = single_track_scene(100)
    rep = evaluate_scene("s", gt, splitter_tracker(gt, 2), GATE)
    assert rep.ass_re == 0.5
    assert rep.ass_pr == 1.0
    assert rep.ass_a == 0.5
    assert rep.n_swaps == 1


def test_splitter_rejects_excessive_k():
    with pytest.raises(InvalidK):
        splitter_tracker(single_track_scene(10), 11)
    with pytest.raises(InvalidK, match="k must be >= 1"):
        splitter_tracker(single_track_scene(10), 0)


def two_disjoint_tracks(n=100):
    grid = FrameGrid(0.1, n)
    return TrackSet(
        grid,
        {
            "g1": {f: D(0, 0) for f in range(n // 2)},
            "g2": {f: D(120, 0) for f in range(n // 2, n)},
        },
    )


def test_merger_worked_example():
    gt = two_disjoint_tracks()
    rep = evaluate_scene("s", gt, merger_tracker(gt), GATE)
    assert rep.ass_pr == 0.5
    assert rep.ass_re == 1.0
    assert rep.tsr == 0.0


def test_merger_overlapping_tracks_keep_first_id_direction():
    grid = FrameGrid(0.1, 4)
    gt = TrackSet(grid, {"a": {0: D(0)}, "b": {0: D(90)}})
    preds = merger_tracker(gt)
    assert entries(preds)["m0"][0] == D(0)


def test_swapper_exchanges_labels_each_period():
    grid = FrameGrid(0.1, 60)  # 6 seconds
    gt = TrackSet(
        grid,
        {
            "a": {f: D(0, 0) for f in range(60)},
            "b": {f: D(120, 0) for f in range(60)},
        },
    )
    preds = swapper_tracker(gt, period_s=1.0)
    # epoch 0 keeps labels, epoch 1 swaps them, and so on
    assert entries(preds)["p_a"][0] == D(0, 0)
    assert entries(preds)["p_b"][10] == D(0, 0)
    rep = evaluate_scene("s", gt, preds, GATE)
    assert rep.n_swaps == 2 * 5  # both tracks change id at all 5 epoch boundaries
    assert rep.ass_re == 0.5 and rep.ass_pr == 0.5


@given(st.floats(0.01, 5.0), st.sampled_from([0.1, 0.05, 1 / 3]), st.integers(1, 200))
def test_swapper_labels_follow_the_per_row_rule(period_s, frame_period, n_frames):
    grid = FrameGrid(frame_period, n_frames)
    gt = TrackSet(grid, {
        "a": {f: D(0) for f in range(n_frames)},
        "b": {f: D(90) for f in range(0, n_frames, 2)},
        "c": {0: D(180)},
    })
    preds = entries(swapper_tracker(gt, period_s))
    for tid, track in entries(gt).items():
        for f, d in track.items():
            swapped = int(grid.time_of(f) // period_s) % 2 == 1
            out = {"a": "b", "b": "a"}.get(tid, tid) if swapped else tid
            assert preds[f"p_{out}"][f] == d


def test_swapper_needs_two_tracks():
    with pytest.raises(InvalidConfig):
        swapper_tracker(single_track_scene(), 1.0)
    with pytest.raises(InvalidConfig, match="period_s must be > 0"):
        swapper_tracker(two_disjoint_tracks(), 0.0)


# --------------------------------------------------------------------------
# particle filter
# --------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(InvalidConfig):
        TrackerConfig(max_active=2, k_max=1)
    with pytest.raises(InvalidConfig):
        TrackerConfig(max_active=0)
    with pytest.raises(InvalidConfig):
        TrackerConfig(max_active=1, birth_frames=0)
    with pytest.raises(InvalidConfig, match="assoc_gate"):
        TrackerConfig(max_active=1, assoc_gate=0.0)
    # 1 / sigma**2 underflows to a division by zero below about 1e-162 rad
    TrackerConfig(max_active=1, likelihood_sigma=MIN_LIKELIHOOD_SIGMA)
    for sigma in (math.nextafter(MIN_LIKELIHOOD_SIGMA, 0), math.radians(1e-170), 0.0):
        with pytest.raises(InvalidConfig, match="likelihood_sigma"):
            TrackerConfig(max_active=1, likelihood_sigma=sigma)


def test_config_bounds_the_particle_stack():
    # both limits hold at the bound and reject the value just above it;
    # the check runs before any particle array exists
    TrackerConfig(max_active=MAX_ACTIVE, n_particles=MAX_PARTICLES)
    with pytest.raises(InvalidConfig, match="n_particles"):
        TrackerConfig(max_active=1, n_particles=MAX_PARTICLES + 1)
    with pytest.raises(InvalidConfig, match="max_active"):
        TrackerConfig(max_active=MAX_ACTIVE + 1)


def test_pf_deterministic_per_seed():
    gt = generate_scene(ScenarioConfig(n_speakers=2, seed=6))
    obs = simulate_observations(gt, ObservationModel(seed=7, p_miss=0.05))
    cfg = TrackerConfig(max_active=2, seed=8)
    a = pf_tracker(obs, cfg)
    b = pf_tracker(obs, cfg)
    assert a == b
    assert trackset_to_string(a) == trackset_to_string(b)


def test_pf_respects_k_max_and_max_active():
    gt = generate_scene(ScenarioConfig(n_speakers=3, seed=9))
    obs = simulate_observations(gt, ObservationModel(seed=10))
    cfg = TrackerConfig(max_active=2, k_max=2, birth_frames=2, death_frames=2, seed=11)
    preds = pf_tracker(obs, cfg)
    assert len(preds.ids) <= 2
    for active in per_frame_entries(preds):
        assert len(active) <= 2


def test_pf_exact_on_clean_static_source():
    # zero observation noise, zero process noise, instant birth: the
    # output must equal the oracle's up to id naming
    gt = generate_scene(ScenarioConfig(n_speakers=1, mode="static", seed=12))
    obs = clean_obs(gt)
    cfg = TrackerConfig(
        max_active=1,
        birth_frames=1,
        death_frames=10,
        process_noise_sigma=0.0,
        seed=13,
    )
    preds = pf_tracker(obs, cfg)
    rep = evaluate_scene("s", gt, preds, GATE)
    assert rep.ass_a == 1.0
    assert rep.mean_loc_error < 1e-6
    assert rep.n_fp == 0 and rep.n_fn == 0


def test_pf_single_static_speaker_keeps_one_id():
    gt = generate_scene(ScenarioConfig(n_speakers=1, mode="static", seed=14))
    obs = clean_obs(gt, seed=15)
    preds = pf_tracker(obs, TrackerConfig(max_active=1, seed=16))
    rep = evaluate_scene("s", gt, preds, GATE)
    assert len(preds.ids) == 1
    assert rep.tsr == 0.0
    assert rep.ass_re > 0.97  # only birth latency shaves recall


def test_pf_jump_scene_splits_per_segment():
    # jumps far beyond the gate force one fresh id per segment; with
    # instant birth and death the output is an exact per-segment
    # relabeling, so AssRe equals sum(n_i^2)/N^2 over segment lengths
    gt = generate_scene(ScenarioConfig(n_speakers=1, seed=17))
    obs = clean_obs(gt, seed=18)
    cfg = TrackerConfig(
        max_active=2,
        birth_frames=1,
        death_frames=1,
        process_noise_sigma=0.0,
        seed=19,
    )
    preds = pf_tracker(obs, cfg)
    frames = sorted(entries(gt)["spk0"])
    runs = []
    for f in frames:
        if runs and f == runs[-1][-1] + 1:
            runs[-1].append(f)
        else:
            runs.append([f])
    n = len(frames)
    expected_re = sum(len(r) ** 2 for r in runs) / n**2
    rep = evaluate_scene("s", gt, preds, GATE)
    assert len(preds.ids) == len(runs)
    assert rep.ass_re == pytest.approx(expected_re, abs=1e-12)
    assert rep.n_swaps == len(runs) - 1


def test_pf_never_reuses_live_id():
    gt = generate_scene(ScenarioConfig(n_speakers=2, seed=20))
    obs = simulate_observations(gt, ObservationModel(seed=21))
    preds = pf_tracker(
        obs, TrackerConfig(max_active=2, k_max=2, birth_frames=2, death_frames=3, seed=22)
    )
    # structural: TrackSet.from_rows would have raised on a duplicated
    # (id, frame); also ids stay within budget
    assert len(preds.ids) <= 2


def test_pf_trend_endpoints_on_jump_scenes():
    # small-scale version of the k_max sweep: bounding the id budget
    # must raise AssRe and lower TSR relative to unbounded
    scores = {}
    for k in (2, None):
        re_vals, ts_vals, pr_vals = [], [], []
        for i in range(8):
            cfg = ScenarioConfig(
                n_speakers=2, seed=100 + i, segment_len_s=(1.0, 4.0), gap_len_s=(1.0, 3.0)
            )
            gt = generate_scene(cfg)
            obs = clean_obs(gt, seed=200 + i)
            tc = TrackerConfig(
                max_active=2, k_max=k, birth_frames=2, death_frames=2, seed=300 + i
            )
            rep = evaluate_scene("s", gt, pf_tracker(obs, tc), GATE)
            re_vals.append(rep.ass_re)
            pr_vals.append(rep.ass_pr)
            ts_vals.append(rep.tsr)
        scores[k] = (np.mean(re_vals), np.mean(pr_vals), np.mean(ts_vals))
    assert scores[2][0] > scores[None][0]  # AssRe falls as the budget opens
    assert scores[2][1] < scores[None][1]  # AssPr rises
    assert scores[2][2] < scores[None][2]  # TSR rises


def test_pf_output_is_value_semantic_input():
    gt = generate_scene(ScenarioConfig(n_speakers=1, seed=23))
    obs = simulate_observations(gt, ObservationModel(seed=24))
    import copy

    snapshot = copy.deepcopy(obs)
    pf_tracker(obs, TrackerConfig(max_active=1, seed=25))
    assert obs == snapshot


@st.composite
def pf_scenes(draw):
    """Observation sets of 0-4 jittered static sources with misses,
    clutter, empty frames and observations antipodal to a source."""
    n_frames = draw(st.integers(1, 40))
    n_sources = draw(st.integers(0, 4))
    p_present = draw(st.sampled_from([0.5, 0.9, 1.0]))
    p_empty = draw(st.sampled_from([0.0, 0.2]))
    clutter_rate = draw(st.sampled_from([0.0, 0.3, 1.0]))
    p_antipode = draw(st.sampled_from([0.0, 0.2]))
    jitter = math.radians(draw(st.sampled_from([0.0, 1.0, 4.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def uniform_direction():
        return rng.uniform(-math.pi, math.pi), math.asin(rng.uniform(-1.0, 1.0))

    sources = [uniform_direction() for _ in range(n_sources)]
    frames = []
    for _f in range(n_frames):
        frame = []
        if rng.random() >= p_empty:
            for s, (az, el) in enumerate(sources):
                if rng.random() < p_present:
                    el_obs = min(math.pi / 2, max(-math.pi / 2, el + jitter * rng.normal()))
                    frame.append((Direction(az + jitter * rng.normal(), el_obs), f"s{s}"))
                if rng.random() < p_antipode:
                    frame.append((Direction(az + math.pi, -el), None))
            frame += [(Direction(*uniform_direction()), None) for _ in range(rng.poisson(clutter_rate))]
        frames.append(frame)
    return observation_set(FrameGrid(0.1, n_frames), frames)


@st.composite
def pf_configs(draw):
    max_active = draw(st.integers(1, 4))
    return TrackerConfig(
        max_active=max_active,
        k_max=draw(st.none() | st.integers(max_active, max_active + 3)),
        assoc_gate=math.radians(draw(st.sampled_from([5.0, 15.0, 60.0, 180.0]))),
        birth_frames=draw(st.integers(1, 3)),
        death_frames=draw(st.integers(1, 3)),
        n_particles=draw(st.integers(1, 64)),
        process_noise_sigma=math.radians(draw(st.sampled_from([0.0, 0.5, 5.0, 60.0]))),
        likelihood_sigma=math.radians(draw(st.sampled_from([2.0, 5.0, 30.0]))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def blinking(*frames):
    """An observation set whose frame f holds sources frames[f], indices
    into four equator directions 90 degrees apart."""
    azimuths = (0.0, 90.0, -90.0, 180.0)
    return observation_set(
        FrameGrid(0.1, len(frames)), [[(D(azimuths[s]), f"s{s}") for s in fr] for fr in frames]
    )


def spent_budget(k, seed):
    """k_max == max_active == k, birth and death after one frame."""
    return TrackerConfig(
        max_active=k, k_max=k, birth_frames=1, death_frames=1, n_particles=16, seed=seed
    )


# Each example spends the whole id budget at frame 0, rejects the
# source beyond the live cap at frame 1, and at frame 5 gives a source a
# dead id in the frame where the last track dies. The second goes on to
# reuse an id dead at frame 5 before one dead at frame 3, and at frame
# 10 the larger of two ids that died together out of id order.
@example(obs=blinking([0, 1], [0, 1, 2], [0], [0], [], [2]), cfg=spent_budget(2, 1))
@example(
    obs=blinking([0, 1, 2], [0, 1, 2, 3], [0], [0], [], [3], [1], [1, 3], [], [], [0]),
    cfg=spent_budget(3, 2),
)
@given(pf_scenes(), pf_configs())
@settings(max_examples=200)
def test_pf_equals_the_per_track_filter_bit_for_bit(obs, cfg):
    # the stacked filter against the filter that walks, averages and
    # resamples one track at a time; no tolerance anywhere
    fast, naive = pf_tracker(obs, cfg), naive_pf_tracker(obs, cfg)
    assert fast.ids == naive.ids
    for name in ("frame", "id_code", "azimuth", "elevation"):
        assert np.array_equal(getattr(fast, name), getattr(naive, name)), name


def test_mean_of_an_antipodal_cloud_falls_back_to_its_first_particle():
    u = np.array([0.6, 0.0, 0.8])
    cloud = np.array([u, -u])
    for w in (None, np.array([0.5, 0.5])):
        v = cloud.mean(axis=0) if w is None else w @ cloud
        assert not v.any()
        assert Direction(*_mean_angles(v, cloud)) == _mean_direction(cloud, w) == from_unit_vector(u)


def test_predict_draws_even_without_process_noise():
    # sigma = 0 moves no particle, so no output shows these draws; the
    # generator must still advance as if each cloud had walked
    stack = np.zeros((2, 5, 3))
    rng, reference = np.random.default_rng(3), np.random.default_rng(3)
    assert _predict(stack, 0.0, rng) is stack
    for _ in range(2):
        reference.uniform(0.0, TWO_PI, 5)
        reference.normal(0.0, 0.0, 5)
    assert rng.random() == reference.random()


@pytest.mark.parametrize("d", [0.0, 0.5, np.nextafter(0.5, 1.0), math.inf, math.nan])
def test_greedy_pairs_one_by_one_matches_the_general_loop(d):
    dist = np.array([[d]])
    assert _greedy_pairs(dist, 0.5) == naive_greedy_pairs(dist, 0.5)
