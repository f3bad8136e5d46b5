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
gate, in contrast with the frame-level swap counters. association_scores
counts TPA/FPA/FNA per couple as arrays, sums the three ratios in exact
rational arithmetic and rounds each once, so constructed cases (k-way
splits, balanced merges) come out bit-exact. A scene without TPs has no
scores: association_scores returns None, never 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matching import MatchSequence


@dataclass(frozen=True)
class AssociationScores:
    ass_re: float
    ass_pr: float
    ass_a: float


def association_scores(ms: MatchSequence) -> AssociationScores | None:
    """AssRe, AssPr and AssA of a matched scene, or None when it has no TPs."""
    n_tp = len(ms.tp_pred)
    if not n_tp:
        return None
    n_pred, n_gt = len(ms.pred_ids), len(ms.gt_ids)
    couple, tpa = np.unique(ms.tp_pred.astype(np.int64) * n_gt + ms.tp_gt, return_counts=True)
    pred, gt = np.divmod(couple, n_gt)
    fpa = np.bincount(ms.tp_pred, minlength=n_pred)[pred] - tpa
    fpa += np.bincount(ms.fp_pred, minlength=n_pred)[pred]
    fna = np.bincount(ms.tp_gt, minlength=n_gt)[gt] - tpa
    fna += np.bincount(ms.fn_gt, minlength=n_gt)[gt]
    re = pr = a = Fraction(0)
    for t, p, n in zip(tpa.tolist(), fpa.tolist(), fna.tolist()):
        # each of the couple's t TPs contributes the same ratio t / denominator
        re += Fraction(t * t, t + n)
        pr += Fraction(t * t, t + p)
        a += Fraction(t * t, t + n + p)
    return AssociationScores(
        ass_re=float(re / n_tp), ass_pr=float(pr / n_tp), ass_a=float(a / n_tp)
    )
