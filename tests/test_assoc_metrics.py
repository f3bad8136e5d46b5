import numpy as np
from hypothesis import given
import hypothesis.strategies as st

from _oracles import match_sequence_of, naive_association_scores, random_match_sequence
from doatrack.assoc_metrics import AssociationScores, association_scores
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


def _scores_of_counts(tpa, fpa, fna) -> AssociationScores:
    """The scores of a scene whose every TP has these TPA, FPA and FNA."""
    return AssociationScores(
        ass_re=tpa / (tpa + fna), ass_pr=tpa / (tpa + fpa), ass_a=tpa / (tpa + fna + fpa)
    )


def test_perfect_match_counts():
    # one couple: each of the 40 TPs has TPA 40, FPA 0, FNA 0
    assert association_scores(perfect_single_track(40)) == _scores_of_counts(40, 0, 0)


def test_split_counts_match_worked_example():
    # couples (p1, g) and (p2, g): each TP has TPA 50, FPA 0, FNA 50
    assert association_scores(two_way_split(100)) == _scores_of_counts(50, 0, 50)


def test_merge_counts_match_worked_example():
    # couples (p, g1) and (p, g2): each TP has TPA 50, FPA 50, FNA 0
    assert association_scores(two_way_merge(100)) == _scores_of_counts(50, 50, 0)


def test_multiplicity_totals_cover_all_tps():
    # 90 TPs of (p1, g) with TPA 90, FNA 10 and 10 TPs of (p2, g) with
    # TPA 10, FNA 90: the mean is over TPs, (90 * 0.9 + 10 * 0.1) / 100,
    # not over couples, which would give 0.5
    frames = [([("p1", "g")], [], [])] * 90 + [([("p2", "g")], [], [])] * 10
    scores = association_scores(ms_from(frames))
    assert scores == AssociationScores(ass_re=0.82, ass_pr=1.0, ass_a=0.82)


def test_perfect_match_scores_are_one():
    assert association_scores(perfect_single_track(25)) == AssociationScores(1.0, 1.0, 1.0)


def test_split_scores_exact():
    assert association_scores(two_way_split(100)) == AssociationScores(
        ass_re=0.5, ass_pr=1.0, ass_a=0.5
    )


def test_merge_scores_exact():
    assert association_scores(two_way_merge(100)) == AssociationScores(
        ass_re=1.0, ass_pr=0.5, ass_a=0.5
    )


def test_k_way_split_is_one_over_k():
    for k in (2, 3, 5):
        n = 600
        frames = []
        for i in range(k):
            frames += [([(f"p{i}", "g")], [], []) for _ in range(n // k)]
        scores = association_scores(ms_from(frames))
        assert scores == AssociationScores(ass_re=1.0 / k, ass_pr=1.0, ass_a=1.0 / k)
        assert scores == AssociationScores(*naive_association_scores(ms_from(frames)))


def test_empty_tp_gives_none():
    assert association_scores(ms_from([([], ["p"], ["g"])] * 5)) is None


def test_matches_naive_oracle_on_random_scenes():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(40):
        _gts, ms = random_match_sequence(rng, n_frames=int(rng.integers(20, 120)))
        if not any(fa.tps for fa in ms.frames):
            continue
        scores = association_scores(ms)
        o_re, o_pr, o_a = naive_association_scores(ms)
        assert (scores.ass_re, scores.ass_pr, scores.ass_a) == (o_re, o_pr, o_a)
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
    scores = association_scores(ms_from(frames))
    assert scores.ass_pr == 1.0
    assert scores.ass_re < 1.0
