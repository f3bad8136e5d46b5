import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from _oracles import match_sequence_of, naive_association_scores, random_match_sequence
from doatrack.assoc_metrics import (
    ass_a,
    ass_pr,
    ass_re,
    association_scores,
    count_associations,
)
from doatrack.errors import UndefinedOnEmptyTP
from doatrack.matching import FrameAssignment
from doatrack.trackmodel import FrameGrid


def ms_from(frames, frame_period=0.1):
    """frames: list of (tps, fps, fns) with tps as (pred, gt) pairs."""
    built = tuple(
        FrameAssignment(
            tps=tuple((p, g, 0.0) for p, g in tps),
            fps=tuple(fps),
            fns=tuple(fns),
        )
        for tps, fps, fns in frames
    )
    return match_sequence_of(FrameGrid(frame_period, len(built)), built)


def perfect_single_track(n):
    return ms_from([([("p", "g")], [], []) for _ in range(n)])


def two_way_split(n=100):
    """One gt matched to p1 on the first half and p2 on the second."""
    frames = [([("p1", "g")], [], []) for _ in range(n // 2)]
    frames += [([("p2", "g")], [], []) for _ in range(n // 2)]
    return ms_from(frames)


def two_way_merge(n=100):
    """Two gts with disjoint activity, both matched to one pred id."""
    frames = [([("p", "g1")], [], []) for _ in range(n // 2)]
    frames += [([("p", "g2")], [], []) for _ in range(n // 2)]
    return ms_from(frames)


def test_perfect_match_counts():
    counts = count_associations(perfect_single_track(40))
    assert set(counts.couples) == {("p", "g")}
    cc = counts.couples[("p", "g")]
    assert cc.tpa == 40 and cc.fpa == 0 and cc.fna == 0
    assert counts.total_tp == 40


def test_split_counts_match_worked_example():
    counts = count_associations(two_way_split(100))
    assert set(counts.couples) == {("p1", "g"), ("p2", "g")}
    for cc in counts.couples.values():
        assert cc.tpa == 50 and cc.fpa == 0 and cc.fna == 50


def test_merge_counts_match_worked_example():
    counts = count_associations(two_way_merge(100))
    assert set(counts.couples) == {("p", "g1"), ("p", "g2")}
    for cc in counts.couples.values():
        assert cc.tpa == 50 and cc.fpa == 50 and cc.fna == 0


def test_multiplicity_totals_cover_all_tps():
    _gts, ms = random_match_sequence(np.random.default_rng(0))
    counts = count_associations(ms)
    assert sum(cc.tpa for cc in counts.couples.values()) == counts.total_tp


def test_perfect_match_scores_are_one():
    counts = count_associations(perfect_single_track(25))
    assert ass_re(counts) == 1.0
    assert ass_pr(counts) == 1.0
    assert ass_a(counts) == 1.0


def test_split_scores_exact():
    counts = count_associations(two_way_split(100))
    assert ass_re(counts) == 0.5
    assert ass_pr(counts) == 1.0
    assert ass_a(counts) == 0.5


def test_merge_scores_exact():
    counts = count_associations(two_way_merge(100))
    assert ass_re(counts) == 1.0
    assert ass_pr(counts) == 0.5
    assert ass_a(counts) == 0.5


def test_k_way_split_is_one_over_k():
    for k in (2, 3, 5):
        n = 600
        frames = []
        for i in range(k):
            frames += [([(f"p{i}", "g")], [], []) for _ in range(n // k)]
        counts = count_associations(ms_from(frames))
        assert ass_re(counts) == 1.0 / k
        assert ass_pr(counts) == 1.0
        assert ass_a(counts) == 1.0 / k
        oracle = naive_association_scores(ms_from(frames))
        assert abs(ass_re(counts) - oracle[0]) < 1e-12


def test_empty_tp_raises():
    ms = ms_from([([], ["p"], ["g"])] * 5)
    counts = count_associations(ms)
    for fn in (ass_re, ass_pr, ass_a):
        with pytest.raises(UndefinedOnEmptyTP):
            fn(counts)
    with pytest.raises(UndefinedOnEmptyTP):
        association_scores(ms)


def test_matches_naive_oracle_on_random_scenes():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(40):
        _gts, ms = random_match_sequence(rng, n_frames=int(rng.integers(20, 120)))
        if not any(fa.tps for fa in ms.frames):
            continue
        scores = association_scores(ms)
        o_re, o_pr, o_a = naive_association_scores(ms)
        assert abs(scores.ass_re - o_re) < 1e-12
        assert abs(scores.ass_pr - o_pr) < 1e-12
        assert abs(scores.ass_a - o_a) < 1e-12
        checked += 1
    assert checked >= 30


def test_scores_bounded_and_accuracy_dominated():
    rng = np.random.default_rng(5)
    for _ in range(25):
        _gts, ms = random_match_sequence(rng)
        if not any(fa.tps for fa in ms.frames):
            continue
        s = association_scores(ms)
        for v in (s.ass_re, s.ass_pr, s.ass_a):
            assert 0.0 <= v <= 1.0
        assert s.ass_a <= min(s.ass_re, s.ass_pr) + 1e-15


@given(st.integers(0, 10_000))
def test_pred_relabeling_leaves_scores_unchanged(seed):
    rng = np.random.default_rng(seed)
    _gts, ms = random_match_sequence(rng, n_frames=30)
    if not any(fa.tps for fa in ms.frames):
        return
    mapping = {f"p{i}": f"z{(i * 7 + 3) % 11}" for i in range(11)}
    relabeled = match_sequence_of(
        ms.grid,
        [
            FrameAssignment(
                tps=tuple((mapping[p], g, e) for p, g, e in fa.tps),
                fps=tuple(mapping[p] for p in fa.fps),
                fns=fa.fns,
            )
            for fa in ms.frames
        ],
    )
    a = association_scores(ms)
    b = association_scores(relabeled)
    assert a == b


def test_single_gt_zero_fp_gives_perfect_precision():
    # merging is impossible with one ground truth and no false positives
    frames = [([(f"p{i % 3}", "g")], [], []) for i in range(60)]
    frames += [([], [], ["g"])] * 10
    counts = count_associations(ms_from(frames))
    assert ass_pr(counts) == 1.0
    assert ass_re(counts) < 1.0
