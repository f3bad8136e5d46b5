"""Global association metrics over matched sequences.

For each TP couple c = (pred_id, gt_id), counted over the whole scene:

  TPA(c): TPs sharing c's exact id match;
  FPA(c): TPs with the same pred_id but a different gt_id, plus FPs
          carrying that pred_id;
  FNA(c): TPs with the same gt_id but a different pred_id, plus FNs
          carrying that gt_id.

Association recall / precision / accuracy average the per-TP ratios
TPA/(TPA+FNA), TPA/(TPA+FPA) and TPA/(TPA+FNA+FPA) over all individual
TPs. A low recall means ground-truth tracks are being split across many
predicted ids; a low precision means predicted ids aggregate portions
of several ground-truth tracks; accuracy combines both.

Scores are accumulated globally over the scene at a single matching
gate, in contrast with the frame-level swap counters. The sums are
evaluated in exact rational arithmetic and rounded once on return, so
constructed cases (k-way splits, balanced merges) come out bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import UndefinedOnEmptyTP
from .matching import MatchSequence


@dataclass(frozen=True)
class CoupleCounts:
    """Association counts for one TP couple."""

    tpa: int
    fpa: int
    fna: int


@dataclass(frozen=True)
class AssociationCounts:
    couples: dict[tuple[str, str], CoupleCounts]
    total_tp: int


def count_associations(ms: MatchSequence) -> AssociationCounts:
    """Accumulate TPA/FPA/FNA per TP couple over all frames."""
    m = ms.matches
    n_pred, n_gt = len(m.pred_ids), len(m.gt_ids)
    pairs = m.tp_pred.astype(np.int64) * n_gt + m.tp_gt
    couple, tpa = np.unique(pairs, return_counts=True)
    pred, gt = np.divmod(couple, n_gt)
    pred_tp = np.bincount(m.tp_pred, minlength=n_pred)
    gt_tp = np.bincount(m.tp_gt, minlength=n_gt)
    fpa = pred_tp[pred] - tpa + np.bincount(m.fp_pred, minlength=n_pred)[pred]
    fna = gt_tp[gt] - tpa + np.bincount(m.fn_gt, minlength=n_gt)[gt]
    couples = {
        (m.pred_ids[p], m.gt_ids[g]): CoupleCounts(tpa=t, fpa=a, fna=n)
        for p, g, t, a, n in zip(
            pred.tolist(), gt.tolist(), tpa.tolist(), fpa.tolist(), fna.tolist()
        )
    }
    return AssociationCounts(couples=couples, total_tp=len(m.tp_pred))


def _mean_over_tps(counts: AssociationCounts, denom) -> float:
    if counts.total_tp == 0:
        raise UndefinedOnEmptyTP("no true positives in the match sequence")
    total = Fraction(0)
    for cc in counts.couples.values():
        # each of the couple's tpa TPs contributes the same ratio
        total += cc.tpa * Fraction(cc.tpa, denom(cc))
    return float(total / counts.total_tp)


def ass_re(counts: AssociationCounts) -> float:
    """Association recall: mean of TPA/(TPA+FNA) over TPs."""
    return _mean_over_tps(counts, lambda cc: cc.tpa + cc.fna)


def ass_pr(counts: AssociationCounts) -> float:
    """Association precision: mean of TPA/(TPA+FPA) over TPs."""
    return _mean_over_tps(counts, lambda cc: cc.tpa + cc.fpa)


def ass_a(counts: AssociationCounts) -> float:
    """Association accuracy: mean of TPA/(TPA+FNA+FPA) over TPs."""
    return _mean_over_tps(counts, lambda cc: cc.tpa + cc.fna + cc.fpa)


@dataclass(frozen=True)
class AssociationScores:
    ass_re: float
    ass_pr: float
    ass_a: float


def association_scores(ms: MatchSequence) -> AssociationScores:
    """All three scores from one counting pass.

    Raises UndefinedOnEmptyTP when the sequence has no TPs; callers
    report that as an absent value, never as 0.
    """
    counts = count_associations(ms)
    return AssociationScores(
        ass_re=ass_re(counts), ass_pr=ass_pr(counts), ass_a=ass_a(counts)
    )
