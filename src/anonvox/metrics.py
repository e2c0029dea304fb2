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
from itertools import chain, repeat

import numpy as np

try:
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # as statistics does; its Python version gives the same bits
    from statistics import _normal_dist_inv_cdf

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


def _split_scores(scores, is_target) -> tuple[np.ndarray, np.ndarray]:
    """Target and nontarget score arrays, each in the given order."""
    scores = np.asarray(scores, dtype=np.float64)
    is_target = np.asarray(is_target, dtype=np.bool_)
    if scores.ndim != 1 or scores.shape != is_target.shape:
        raise ValueError("scores and is_target must be 1-D arrays of one length")
    tar, non = scores[is_target], scores[~is_target]
    if tar.size == 0:
        raise ValueError("score set has no target trials")
    if non.size == 0:
        raise ValueError("score set has no nontarget trials")
    return tar, non


def _pooled(tar: np.ndarray, non: np.ndarray):
    """The pooled scores sorted once: distinct scores ascending, each score's
    index among them, and the target and nontarget counts at each."""
    uniq, inverse = np.unique(np.concatenate([tar, non]), return_inverse=True)
    n_tar = np.bincount(inverse[: tar.size], minlength=uniq.size)
    n_non = np.bincount(inverse[tar.size :], minlength=uniq.size)
    return uniq, inverse, n_tar, n_non


def _rates(n_tar: np.ndarray, n_non: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_fa and P_miss at each distinct score as threshold, then above all scores."""
    p_miss = np.concatenate([[0], np.cumsum(n_tar)]) / n_tar.sum()
    p_fa = (n_non.sum() - np.concatenate([[0], np.cumsum(n_non)])) / n_non.sum()
    return p_fa, p_miss


def _eer(uniq, n_tar, n_non) -> tuple[float, float]:
    """Equal error rate and its threshold, swept over every distinct score plus
    a high sentinel: at the sentinel all targets are missed and no nontarget
    fires, so a sign change of P_fa - P_miss always exists."""
    thresholds = np.append(uniq, uniq[-1] + 1.0)
    p_fa, p_miss = _rates(n_tar, n_non)
    diff = p_fa - p_miss
    cross = int(np.flatnonzero(diff <= 0.0)[0])
    i = cross - 1
    t = diff[i] / (diff[i] - diff[cross])
    eer = p_miss[i] + t * (p_miss[cross] - p_miss[i])
    threshold = thresholds[i] + t * (thresholds[cross] - thresholds[i])
    return float(eer), float(threshold)


def _cllr(tar: np.ndarray, non: np.ndarray) -> float:
    # logaddexp handles +-inf llrs: a certainty on the correct side costs 0
    tar_term = np.mean(np.logaddexp(0.0, -tar)) / LOG2
    non_term = np.mean(np.logaddexp(0.0, non)) / LOG2
    return float(0.5 * (tar_term + non_term))


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


def _min_cllr(inverse, n_tar, n_non) -> float:
    """Cllr after optimal monotone recalibration: scores map to empirical
    posteriors by PAV (ties merged first), then to LLRs against the empirical
    target proportion. Blocks at posterior 0 or 1 contribute the limit value 0
    to their own-class term."""
    weights = (n_tar + n_non).astype(np.float64)
    posterior = n_tar / weights
    # the fit keeps adjacent blocks of equal posterior pooled, so pool them first
    starts = np.r_[True, posterior[1:] != posterior[:-1]]
    fitted = _pav(posterior[starts], np.add.reduceat(weights, np.flatnonzero(starts)))

    n_target = int(n_tar.sum())
    prior = n_target / (n_target + int(n_non.sum()))
    with np.errstate(divide="ignore"):
        llr = np.log(fitted) - np.log1p(-fitted) - (np.log(prior) - np.log1p(-prior))
    llrs = llr[np.cumsum(starts) - 1][inverse]
    return _cllr(llrs[:n_target], llrs[n_target:])


def compute_metrics(scores, is_target) -> MetricsReport:
    """EER, Cllr and min-Cllr of a score array and its boolean ``is_target``
    mask, split and sorted once."""
    tar, non = _split_scores(scores, is_target)
    uniq, inverse, n_tar, n_non = _pooled(tar, non)
    eer, threshold = _eer(uniq, n_tar, n_non)
    return MetricsReport(
        eer=eer,
        cllr=_cllr(tar, non),
        min_cllr=_min_cllr(inverse, n_tar, n_non),
        n_target=int(tar.size),
        n_nontarget=int(non.size),
        threshold_at_eer=threshold,
    )


def det_points(scores, is_target) -> DetCurve:
    """DET operating points of a score array and its boolean ``is_target``
    mask, at every distinct score plus ±inf sentinels."""
    tar, non = _split_scores(scores, is_target)
    uniq, _, n_tar, n_non = _pooled(tar, non)
    thresholds = np.concatenate([[-np.inf], uniq, [np.inf]])
    # -inf misses and passes what the lowest score does
    p_fa, p_miss = (np.concatenate([rate[:1], rate]) for rate in _rates(n_tar, n_non))
    return DetCurve(
        thresholds=thresholds,
        p_fa=p_fa,
        p_miss=p_miss,
        probit_fa=_probit(p_fa, non.size),
        probit_miss=_probit(p_miss, tar.size),
    )


def _probit(rate: np.ndarray, n: int) -> np.ndarray:
    """Inverse normal CDF of ``rate`` clamped to [1/(2n), 1 - 1/(2n)], one
    quantile call per run of equal clamped rates."""
    floor = 1.0 / (2.0 * n)
    clamped = np.clip(rate, floor, 1.0 - floor)
    # rates are monotone, so equal values are adjacent: transform each run once
    starts = np.r_[True, clamped[1:] != clamped[:-1]]
    return _inv_normal_cdf(clamped[starts])[np.cumsum(starts) - 1]


def _inv_normal_cdf(p: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each p in (0, 1), bit for bit
    ``statistics.NormalDist().inv_cdf``: the function that method calls."""
    quantiles = map(_normal_dist_inv_cdf, p.tolist(), repeat(0.0), repeat(1.0))
    return np.fromiter(quantiles, np.float64, len(p))


_DET_LINE = "%.9g %.9g %s %.9g %s\n"
# points formatted per % pass; one pass over a whole curve's argument tuple
# raised the desk benchmark's peak RSS by 0.8 MiB
_DET_BLOCK = 1024


def format_det(curve: DetCurve) -> str:
    """The DET points as text, one line per point under a header line. A run
    of points with equal ``p_miss`` and ``probit_miss`` formats them once."""
    miss, probit = curve.p_miss, curve.probit_miss
    starts = np.flatnonzero(np.r_[True, (miss[1:] != miss[:-1]) | (probit[1:] != probit[:-1])])
    runs = np.diff(np.r_[starts, len(curve)]).tolist()
    miss_text, probit_text = (
        list(chain.from_iterable(map(repeat, ["%.9g" % v for v in column[starts].tolist()], runs)))
        for column in (miss, probit))
    columns = (curve.thresholds.tolist(), curve.p_fa.tolist(), miss_text,
               curve.probit_fa.tolist(), probit_text)
    text = ["# threshold p_fa p_miss probit_fa probit_miss\n"]
    for start in range(0, len(curve), _DET_BLOCK):
        block = [c[start : start + _DET_BLOCK] for c in columns]
        text.append((_DET_LINE * len(block[0])) % tuple(chain.from_iterable(zip(*block))))
    return "".join(text)


def wer(ref: list[str], hyp: list[str]) -> WerResult:
    """Minimal-edit word error rate with unit costs: the one-pair case of
    ``wer_counts``.

    Backtrace ties prefer substitution over deletion over insertion.
    """
    if not ref:
        raise ValueError("reference must contain at least one token")
    subs, dels, ins = wer_counts([ref], [hyp])[0].tolist()
    return WerResult(substitutions=subs, deletions=dels, insertions=ins, ref_words=len(ref))


# cells of one batch's edit-distance table; a pair larger than that gets a table of its own
_WER_CELLS = 1 << 20


def wer_counts(refs: list[list[str]], hyps: list[list[str]]) -> np.ndarray:
    """Substitutions, deletions and insertions of every (reference, hypothesis)
    token-list pair, as an (L, 3) int64 array; either side of a pair may be empty.

    Pairs of similar length share one unit-cost edit-distance table, filled a
    row at a time for all of them and backtraced in lockstep; ties prefer
    substitution over deletion over insertion, as in ``wer``.
    """
    if len(refs) != len(hyps):
        raise ValueError("refs and hyps must hold the same number of lines")
    vocab: dict[str, int] = {}
    ref_codes = [[vocab.setdefault(w, len(vocab)) for w in words] for words in refs]
    hyp_codes = [[vocab.setdefault(w, len(vocab)) for w in words] for words in hyps]
    counts = np.zeros((len(refs), 3), np.int64)
    for batch in _length_batches(list(map(len, refs)), list(map(len, hyps))):
        counts[batch] = _edit_counts([ref_codes[k] for k in batch], [hyp_codes[k] for k in batch])
    return counts


def _length_batches(n: list[int], m: list[int]):
    """Pair indices in order of length, cut into batches whose padded table
    stays within ``_WER_CELLS`` cells."""
    batch, width = [], 0
    for k in sorted(range(len(n)), key=lambda k: (n[k], m[k])):
        grown = max(width, m[k])
        if batch and (len(batch) + 1) * (n[k] + 1) * (grown + 1) > _WER_CELLS:
            yield batch
            batch, grown = [], m[k]
        batch.append(k)
        width = grown
    if batch:
        yield batch


def _padded(codes: list[list[int]], lengths: np.ndarray, fill: int) -> np.ndarray:
    """The code lists as rows of one array, at least one column wide, padded with ``fill``."""
    out = np.full((len(codes), max(int(lengths.max()), 1)), fill, np.intp)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(codes), np.intp, int(lengths.sum()))
    return out


def _edit_counts(refs: list[list[int]], hyps: list[list[int]]) -> np.ndarray:
    """(S, D, I) of each pair of token-code lists, from one table over all pairs."""
    n = np.fromiter(map(len, refs), np.intp, len(refs))
    m = np.fromiter(map(len, hyps), np.intp, len(hyps))
    # padding codes differ from each other and from every word; the cells of a
    # pair's own table never read a padded cell
    ref, hyp = _padded(refs, n, -1), _padded(hyps, m, -2)
    miss = ref[:, :, None] != hyp[:, None, :]
    cols = np.arange(hyp.shape[1] + 1, dtype=np.int32)
    dist = np.empty((len(n), ref.shape[1] + 1, len(cols)), np.int32)
    dist[:, 0] = cols
    for i in range(1, ref.shape[1] + 1):
        prev, row = dist[:, i - 1], dist[:, i]
        row[:, 0] = i
        np.minimum(prev[:, :-1] + miss[:, i - 1], prev[:, 1:] + 1, out=row[:, 1:])
        # insertions: row[j] = min over k <= j of row[k] + (j - k)
        row[:] = np.minimum.accumulate(row - cols, axis=1) + cols

    lines = np.arange(len(n))
    i, j = n.copy(), m.copy()
    counts = np.zeros((len(n), 3), np.int64)
    while True:
        has_ref, has_hyp = i > 0, j > 0
        active = has_ref | has_hyp
        if not active.any():
            return counts
        up, back = np.maximum(i - 1, 0), np.maximum(j - 1, 0)
        here, sub = dist[lines, i, j], miss[lines, up, back]
        diag = has_ref & has_hyp & (here == dist[lines, up, back] + sub)
        dele = ~diag & has_ref & (here == dist[lines, up, j] + 1)
        ins = active & ~diag & ~dele
        counts[:, 0] += diag & sub
        counts[:, 1] += dele
        counts[:, 2] += ins
        i -= diag | dele
        j -= diag | ins
