"""Objective evaluation metrics: EER, Cllr, min-Cllr, DET curves, WER.

Conventions:

* P_miss(t) is the fraction of target scores strictly below t; P_fa(t) is the
  fraction of nontarget scores at or above t.
* EER interpolates linearly between the adjacent operating points where
  P_fa - P_miss changes sign.
* Cllr = 0.5 * [mean_tar log2(1 + e^-s) + mean_non log2(1 + e^s)], in bits.
* min-Cllr recalibrates scores to empirical log-likelihood ratios with
  pool-adjacent-violators isotonic regression before applying the Cllr
  formula; tied scores are merged into one block first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import ScoreSet

LOG2 = float(np.log(2.0))


@dataclass(frozen=True)
class MetricsReport:
    """Per-condition verification metrics."""

    eer: float
    cllr: float
    min_cllr: float
    n_target: int
    n_nontarget: int
    threshold_at_eer: float

    def __post_init__(self):
        if self.n_target <= 0 or self.n_nontarget <= 0:
            raise ValueError("trial counts must be positive")
        if not -1e-9 <= self.eer <= 1.0 + 1e-9:
            raise ValueError(f"eer {self.eer} outside [0, 1]")
        if self.min_cllr > self.cllr + 1e-9:
            raise ValueError("min_cllr exceeds cllr")
        if not -1e-9 <= self.min_cllr <= 1.0 + 1e-9:
            raise ValueError(f"min_cllr {self.min_cllr} outside [0, 1]")


@dataclass(frozen=True)
class DetCurve:
    """Detection error tradeoff operating points, one per distinct threshold.

    Thresholds include -inf and +inf sentinels. The probit columns clamp the
    raw rates to [1/(2n), 1 - 1/(2n)] per class before the inverse-normal
    transform; the raw rate columns are not clamped.
    """

    thresholds: np.ndarray
    p_fa: np.ndarray
    p_miss: np.ndarray
    probit_fa: np.ndarray
    probit_miss: np.ndarray

    def __len__(self) -> int:
        return len(self.thresholds)

    def points(self):
        return list(zip(self.p_fa, self.p_miss, self.thresholds))


@dataclass(frozen=True)
class WerResult:
    substitutions: int
    deletions: int
    insertions: int
    ref_words: int

    def __post_init__(self):
        if self.ref_words <= 0:
            raise ValueError("reference word count must be positive")

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        """Word error rate as a percentage; can exceed 100."""
        return 100.0 * self.errors / self.ref_words


def _split_scores(scores: ScoreSet) -> tuple[np.ndarray, np.ndarray]:
    """Target and nontarget score arrays, each in the set's order."""
    if scores.is_target is None:
        raise ValueError("score set has unlabeled entries; labels are required")
    tar = scores.score[scores.is_target]
    non = scores.score[~scores.is_target]
    if tar.size == 0:
        raise ValueError("score set has no target trials")
    if non.size == 0:
        raise ValueError("score set has no nontarget trials")
    return tar, non


def _operating_points(tar: np.ndarray, non: np.ndarray, thresholds: np.ndarray):
    tar_sorted = np.sort(tar)
    non_sorted = np.sort(non)
    p_miss = np.searchsorted(tar_sorted, thresholds, side="left") / tar.size
    p_fa = (non.size - np.searchsorted(non_sorted, thresholds, side="left")) / non.size
    return p_fa, p_miss


def _eer(tar: np.ndarray, non: np.ndarray) -> tuple[float, float]:
    thresholds = np.unique(np.concatenate([tar, non]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    p_fa, p_miss = _operating_points(tar, non, thresholds)
    diff = p_fa - p_miss
    cross = int(np.flatnonzero(diff <= 0.0)[0])
    i = cross - 1
    t = diff[i] / (diff[i] - diff[cross])
    eer = p_miss[i] + t * (p_miss[cross] - p_miss[i])
    threshold = thresholds[i] + t * (thresholds[cross] - thresholds[i])
    return float(eer), float(threshold)


def compute_eer(scores: ScoreSet) -> tuple[float, float]:
    """Equal error rate and its threshold.

    Sweeps every distinct score plus a high sentinel; at the sentinel all
    targets are missed and no nontarget fires, so a sign change of
    P_fa - P_miss always exists.
    """
    return _eer(*_split_scores(scores))


def _cllr(tar: np.ndarray, non: np.ndarray) -> float:
    # logaddexp handles +-inf llrs: a certainty on the correct side costs 0
    tar_term = np.mean(np.logaddexp(0.0, -tar)) / LOG2
    non_term = np.mean(np.logaddexp(0.0, non)) / LOG2
    return float(0.5 * (tar_term + non_term))


def compute_cllr(scores: ScoreSet) -> float:
    """Calibration-sensitive log-likelihood-ratio cost in bits."""
    return _cllr(*_split_scores(scores))


def _pav(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted isotonic regression by pool-adjacent-violators.

    Returns the fitted non-decreasing sequence, same length as the input.
    """
    means = []
    wsum = []
    sizes = []
    for v, w in zip(values.tolist(), weights.tolist()):
        means.append(v)
        wsum.append(w)
        sizes.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            w_tot = wsum[-2] + wsum[-1]
            m = (means[-2] * wsum[-2] + means[-1] * wsum[-1]) / w_tot
            means[-2:] = [m]
            wsum[-2:] = [w_tot]
            sizes[-2:] = [sizes[-2] + sizes[-1]]
    return np.repeat(means, sizes)


def _min_cllr(tar: np.ndarray, non: np.ndarray) -> float:
    raw = np.concatenate([tar, non])
    labels = np.concatenate([np.ones(tar.size), np.zeros(non.size)])

    uniq, inverse = np.unique(raw, return_inverse=True)
    weights = np.bincount(inverse).astype(np.float64)
    sums = np.bincount(inverse, weights=labels)
    posteriors = _pav(sums / weights, weights)[inverse]

    with np.errstate(divide="ignore"):
        llrs = np.log(posteriors) - np.log1p(-posteriors)
        prior = tar.size / (tar.size + non.size)
        llrs = llrs - (np.log(prior) - np.log1p(-prior))
    return _cllr(llrs[: tar.size], llrs[tar.size :])


def compute_min_cllr(scores: ScoreSet) -> float:
    """Discrimination loss: Cllr after optimal monotone recalibration.

    Scores are mapped to empirical posteriors by PAV (ties merged first),
    converted to LLRs against the empirical target proportion, and fed
    through the Cllr formula. Blocks at posterior 0 or 1 contribute the
    limit value 0 to their own-class term.
    """
    return _min_cllr(*_split_scores(scores))


def compute_metrics(scores: ScoreSet) -> MetricsReport:
    """EER, Cllr and min-Cllr for one labeled score set, split into classes once."""
    tar, non = _split_scores(scores)
    eer, threshold = _eer(tar, non)
    return MetricsReport(
        eer=eer,
        cllr=_cllr(tar, non),
        min_cllr=_min_cllr(tar, non),
        n_target=int(tar.size),
        n_nontarget=int(non.size),
        threshold_at_eer=threshold,
    )


def det_points(scores: ScoreSet) -> DetCurve:
    """DET operating points at every distinct score plus ±inf sentinels."""
    from scipy.special import ndtri  # imported here so only `det` pays for scipy

    tar, non = _split_scores(scores)
    thresholds = np.concatenate(
        [[-np.inf], np.unique(np.concatenate([tar, non])), [np.inf]]
    )
    p_fa, p_miss = _operating_points(tar, non, thresholds)

    fa_floor = 1.0 / (2.0 * non.size)
    miss_floor = 1.0 / (2.0 * tar.size)
    probit_fa = ndtri(np.clip(p_fa, fa_floor, 1.0 - fa_floor))
    probit_miss = ndtri(np.clip(p_miss, miss_floor, 1.0 - miss_floor))
    return DetCurve(
        thresholds=thresholds,
        p_fa=p_fa,
        p_miss=p_miss,
        probit_fa=probit_fa,
        probit_miss=probit_miss,
    )


_DET_LINE = "%.9g %.9g %.9g %.9g %.9g\n"


def format_det(curve: DetCurve) -> str:
    columns = (curve.thresholds, curve.p_fa, curve.p_miss, curve.probit_fa, curve.probit_miss)
    points = zip(*(c.tolist() for c in columns))
    return "# threshold p_fa p_miss probit_fa probit_miss\n" + "".join(
        map(_DET_LINE.__mod__, points)
    )


def wer(ref: list[str], hyp: list[str]) -> WerResult:
    """Minimal-edit word error rate with unit costs.

    Backtrace ties prefer substitution over deletion over insertion.
    """
    if not ref:
        raise ValueError("reference must contain at least one token")
    n, m = len(ref), len(hyp)
    dist = [list(range(m + 1))]
    for i in range(1, n + 1):
        prev, row, word = dist[-1], [i], ref[i - 1]
        for j in range(1, m + 1):
            row.append(min(prev[j - 1] + (word != hyp[j - 1]), prev[j] + 1, row[j - 1] + 1))
        dist.append(row)

    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return WerResult(substitutions=int(subs), deletions=dels, insertions=ins, ref_words=n)
