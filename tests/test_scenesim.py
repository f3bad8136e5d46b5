import math

import numpy as np
import pytest

from _oracles import activity_mask, entries, observation_frames
from doatrack.errors import InvalidConfig
from doatrack.geometry import (
    TWO_PI,
    Direction,
    angular_distance,
    move_along_great_circle,
    perturb_direction,
    sample_direction,
)
from doatrack.scenesim import (
    ObservationModel,
    ScenarioConfig,
    _draw_segments,
    generate_scene,
    simulate_observations,
)
from doatrack.trackmodel import MAX_FRAMES, trackset_to_string


def runs_of(mask):
    runs = []
    current = 0
    for active in mask:
        if active:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return runs


def test_generation_is_deterministic_and_byte_stable():
    cfg = ScenarioConfig(n_speakers=2, seed=99)
    a = generate_scene(cfg)
    b = generate_scene(cfg)
    assert a == b
    assert trackset_to_string(a) == trackset_to_string(b)


def test_different_seeds_differ():
    a = generate_scene(ScenarioConfig(n_speakers=1, seed=1))
    b = generate_scene(ScenarioConfig(n_speakers=1, seed=2))
    assert a != b


def test_speaker_count_matches_config():
    gt = generate_scene(ScenarioConfig(n_speakers=3, seed=5))
    assert gt.ids == ("spk0", "spk1", "spk2")


def test_static_mode_single_constant_direction():
    gt = generate_scene(ScenarioConfig(n_speakers=1, mode="static", seed=4))
    track = entries(gt)["spk0"]
    first = next(iter(track.values()))
    assert all(d == first for d in track.values())
    assert 0 < len(track) < gt.grid.n_frames


def test_jump_mode_piecewise_constant_within_runs():
    gt = generate_scene(ScenarioConfig(n_speakers=2, seed=12))
    for tid in gt.ids:
        frames = entries(gt)[tid]
        ordered = sorted(frames)
        for a, b in zip(ordered, ordered[1:]):
            if b == a + 1:
                assert frames[a] == frames[b]


def test_jump_mode_consecutive_segments_change_position():
    gt = generate_scene(ScenarioConfig(n_speakers=1, seed=21))
    frames = entries(gt)["spk0"]
    ordered = sorted(frames)
    run_positions = []
    for a, b in zip([None] + ordered[:-1], ordered):
        if a is None or b != a + 1:
            run_positions.append(frames[b])
    assert len(run_positions) >= 2
    for p, q in zip(run_positions, run_positions[1:]):
        assert p != q


def test_jump_mode_positions_separated_and_bounded():
    cfg = ScenarioConfig(n_speakers=3, seed=33)
    gt = generate_scene(cfg)
    for tid in gt.ids:
        unique = []
        for d in entries(gt)[tid].values():
            if all(d != u for u in unique):
                unique.append(d)
        assert len(unique) <= cfg.n_positions
        for i in range(len(unique)):
            for j in range(i + 1, len(unique)):
                assert angular_distance(unique[i], unique[j]) >= cfg.min_separation - 1e-12


def test_two_segments_give_two_mask_runs():
    cfg = ScenarioConfig(
        n_speakers=1,
        seed=3,
        duration_s=5.0,
        segment_len_s=(2.0, 2.4),
        gap_len_s=(0.5, 0.8),
    )
    gt = generate_scene(cfg)
    mask = activity_mask(gt, "spk0")
    assert len(runs_of(mask)) == 2


def test_segment_lengths_respect_bounds_except_truncated_tail():
    from doatrack.scenesim import _draw_segments

    rng = np.random.default_rng(42)
    for _ in range(50):
        segments = _draw_segments(60.0, (1.0, 6.0), (0.1, 1.0), rng)
        assert segments[0][0] == 0.0
        for (s0, e0), (s1, _e1) in zip(segments, segments[1:]):
            assert 1.0 <= e0 - s0 <= 6.0
            assert 0.1 <= s1 - e0 <= 1.0
        last_s, last_e = segments[-1]
        assert last_e <= 60.0
        assert last_e - last_s <= 6.0  # possibly truncated, never stretched


def test_activity_stays_within_duration():
    cfg = ScenarioConfig(n_speakers=2, seed=8)
    gt = generate_scene(cfg)
    for tid in gt.ids:
        assert max(entries(gt)[tid]) < cfg.grid.n_frames


def test_moving_mode_fully_active_constant_step():
    cfg = ScenarioConfig(n_speakers=1, mode="moving", seed=6, angular_speed=math.radians(12))
    gt = generate_scene(cfg)
    track = entries(gt)["spk0"]
    assert len(track) == cfg.grid.n_frames
    step = cfg.angular_speed * cfg.frame_period_s
    for f in range(cfg.grid.n_frames - 1):
        assert angular_distance(track[f], track[f + 1]) == pytest.approx(step, abs=1e-9)


def test_moving_zeroed_shares_trajectory_and_has_gaps():
    moving = generate_scene(ScenarioConfig(n_speakers=1, mode="moving", seed=7))
    zeroed = generate_scene(ScenarioConfig(n_speakers=1, mode="moving_zeroed", seed=7))
    z = entries(zeroed)["spk0"]
    m = entries(moving)["spk0"]
    assert 0 < len(z) < len(m)
    for f, d in z.items():
        assert d == m[f]
    assert len(runs_of(activity_mask(zeroed, "spk0"))) >= 2


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        ScenarioConfig(n_speakers=0)
    with pytest.raises(InvalidConfig):
        ScenarioConfig(n_speakers=1, mode="warp")
    with pytest.raises(InvalidConfig):
        ScenarioConfig(n_speakers=1, mode="jump", n_positions=1)
    with pytest.raises(InvalidConfig):
        ScenarioConfig(n_speakers=1, gap_len_s=(0.0, 1.0))
    with pytest.raises(InvalidConfig):
        ScenarioConfig(n_speakers=1, gap_len_s=(0.05, 1.0), frame_period_s=0.1)
    with pytest.raises(InvalidConfig):
        ScenarioConfig(n_speakers=1, segment_len_s=(3.0, 2.0))
    with pytest.raises(InvalidConfig, match="frame count"):
        ScenarioConfig(n_speakers=1, duration_s=100000.1, frame_period_s=0.1)
    with pytest.raises(InvalidConfig, match="frame count.*frame_period must be >="):
        ScenarioConfig(n_speakers=1, duration_s=1.0, frame_period_s=1e-6)
    for mode in ("moving", "moving_zeroed"):
        with pytest.raises(InvalidConfig, match="angular_speed"):
            ScenarioConfig(n_speakers=1, mode=mode, angular_speed=0.0)
    # the spherical-cap area bound: n (1 - cos(sep / 2)) <= 2
    for mode, n, sep_deg in (("jump", 100, 60.0), ("static", 3, 180.0), ("jump", 15, 60.0)):
        with pytest.raises(InvalidConfig, match="cannot lie"):
            ScenarioConfig(n_speakers=1, mode=mode, n_positions=n,
                           min_separation=math.radians(sep_deg))
    for mode, n, sep_deg in (("static", 2, 180.0), ("jump", 14, 60.0)):
        ScenarioConfig(n_speakers=1, mode=mode, n_positions=n, min_separation=math.radians(sep_deg))
    ScenarioConfig(n_speakers=1, mode="moving", n_positions=100)  # no positions are sampled
    assert ScenarioConfig(n_speakers=1, duration_s=1e5, frame_period_s=0.1).grid.n_frames == MAX_FRAMES


def test_observation_model_validation():
    with pytest.raises(InvalidConfig):
        ObservationModel(p_miss=-0.1)
    with pytest.raises(InvalidConfig):
        ObservationModel(clutter_rate=-1)
    with pytest.raises(InvalidConfig, match="angular_noise_sigma"):
        ObservationModel(angular_noise_sigma=-1e-9)


def test_noise_free_observations_equal_ground_truth():
    gt = generate_scene(ScenarioConfig(n_speakers=2, seed=14))
    om = ObservationModel(angular_noise_sigma=0.0, p_miss=0.0, clutter_rate=0.0, seed=1)
    obs = simulate_observations(gt, om)
    assert obs.n_observations() == gt.n_entries()
    truth = entries(gt)
    for f, frame_obs in enumerate(observation_frames(obs)):
        for d, src in frame_obs:
            assert src is not None
            assert truth[src][f] == d


def test_all_missed_leaves_only_clutter():
    gt = generate_scene(ScenarioConfig(n_speakers=1, seed=15))
    om = ObservationModel(p_miss=1.0, clutter_rate=0.5, seed=2)
    obs = simulate_observations(gt, om)
    assert obs.n_observations() > 0
    assert all(src is None for src in obs.source)


def test_all_missed_no_clutter_is_empty():
    gt = generate_scene(ScenarioConfig(n_speakers=1, seed=15))
    om = ObservationModel(p_miss=1.0, clutter_rate=0.0, seed=2)
    assert simulate_observations(gt, om).n_observations() == 0


def test_observation_noise_magnitude_matches_folded_normal():
    gt = generate_scene(
        ScenarioConfig(n_speakers=1, mode="static", seed=16, duration_s=1000.0)
    )
    sigma = math.radians(5.0)
    om = ObservationModel(angular_noise_sigma=sigma, p_miss=0.0, clutter_rate=0.0, seed=3)
    obs = simulate_observations(gt, om)
    truth = entries(gt)
    devs = [
        angular_distance(truth[src][f], d)
        for f, frame in enumerate(observation_frames(obs))
        for d, src in frame
    ]
    assert len(devs) >= 5_000
    expected = sigma * math.sqrt(2 / math.pi)
    assert abs(np.mean(devs) - expected) / expected < 0.15


def test_observations_deterministic_per_seed():
    gt = generate_scene(ScenarioConfig(n_speakers=2, seed=17))
    om = ObservationModel(p_miss=0.1, clutter_rate=0.4, seed=9)
    assert simulate_observations(gt, om) == simulate_observations(gt, om)


# Every (lo, hi) the samplers draw uniformly from: the fixed bounds, the
# ScenarioConfig defaults and the segment and gap bounds the tests,
# including subnormal ones, pass.
UNIFORM_BOUNDS = [
    (-math.pi, math.pi), (-1.0, 1.0), (0.0, TWO_PI),
    ScenarioConfig.segment_len_s, ScenarioConfig.gap_len_s,
    (1.0, 4.0), (1.0, 3.0), (0.2, 1.2), (1.0, 4.5), (0.5, 2.0), (0.01, 0.02),
    (1e-320, 1e-319), (1e-321, 1e-320),
]


def test_scalar_draws_are_numpys_uniform_draw_for_draw():
    # The samplers spell uniform(lo, hi) as lo + (hi - lo) * random(),
    # which is how numpy computes it: same values, same stream position.
    for lo, hi in UNIFORM_BOUNDS:
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        assert [a.uniform(lo, hi) for _ in range(2000)] == [
            lo + (hi - lo) * b.random() for _ in range(2000)], (lo, hi)
        assert a.random() == b.random()
    # and each sampler against the same draws made with uniform
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(500):
        az, el = b.uniform(-math.pi, math.pi), math.asin(b.uniform(-1.0, 1.0))
        d = sample_direction(a)
        assert d == Direction(az, el)
        heading, arc = b.uniform(0.0, TWO_PI), abs(b.normal(0.0, 0.1))
        assert perturb_direction(d.azimuth, d.elevation, 0.1, a) == move_along_great_circle(
            d.azimuth, d.elevation, heading, arc)
    for seg, gap in ((ScenarioConfig.segment_len_s, ScenarioConfig.gap_len_s),
                     ((1.0, 4.0), (1.0, 3.0)), ((1.0, 4.5), (0.5, 2.0))):
        t, expected = 0.0, []
        while t < 60.0:
            expected.append((t, min(t + b.uniform(*seg), 60.0)))
            t = expected[-1][1] + b.uniform(*gap)
        assert _draw_segments(60.0, seg, gap, a) == expected, (seg, gap)
