import itertools
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anonvox
from anonvox import compute_metrics, det_points, wer
from anonvox.metrics import LOG2, _inv_normal_cdf, _probit, format_det, wer_counts

from conftest import from_arrays

finite_scores = st.lists(
    st.floats(-30, 30, allow_nan=False), min_size=1, max_size=25
)


def sweep_eer_oracle(tar, non):
    """Exhaustive threshold sweep with direct counting."""
    thresholds = sorted(set(list(tar) + list(non)))
    thresholds.append(thresholds[-1] + 1.0)
    points = []
    for t in thresholds:
        miss = sum(1 for s in tar if s < t) / len(tar)
        fa = sum(1 for s in non if s >= t) / len(non)
        points.append((fa, miss))
    for i in range(len(points) - 1):
        d0 = points[i][0] - points[i][1]
        d1 = points[i + 1][0] - points[i + 1][1]
        if d1 <= 0.0:
            frac = d0 / (d0 - d1)
            return points[i][1] + frac * (points[i + 1][1] - points[i][1])
    raise AssertionError("no crossing found")


class TestEer:
    def test_perfect_separation(self):
        eer = compute_metrics(*from_arrays([2.0, 3.0], [0.0, 1.0])).eer
        assert eer == 0.0

    def test_half(self):
        report = compute_metrics(*from_arrays([1.0, 3.0], [0.0, 2.0]))
        assert report.eer == pytest.approx(0.5, abs=1e-12)
        assert report.threshold_at_eer == pytest.approx(2.0)

    def test_fully_inverted(self):
        eer = compute_metrics(*from_arrays([0.0, 1.0], [2.0, 3.0])).eer
        assert eer == pytest.approx(1.0, abs=1e-12)

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            tar = rng.standard_normal(int(rng.integers(1, 25))) + rng.uniform(0, 2)
            non = rng.standard_normal(int(rng.integers(1, 25)))
            eer = compute_metrics(*from_arrays(tar, non)).eer
            assert eer == pytest.approx(sweep_eer_oracle(tar, non), abs=1e-12)

    def test_missing_class_errors(self):
        with pytest.raises(ValueError, match="no nontarget"):
            compute_metrics(*from_arrays([1.0], []))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        tar = rng.standard_normal(20) + 0.5
        non = rng.standard_normal(20)
        base = compute_metrics(*from_arrays(tar, non)).eer
        cubed = compute_metrics(*from_arrays(tar**3, non**3)).eer
        assert base == pytest.approx(cubed, abs=1e-12)


class TestCllr:
    def test_all_zero_scores_exactly_one(self):
        assert compute_metrics(*from_arrays(np.zeros(5), np.zeros(3))).cllr == 1.0

    def test_well_calibrated_extremes_near_zero(self):
        cllr = compute_metrics(*from_arrays([20.0], [-20.0])).cllr
        assert cllr == pytest.approx(np.log1p(np.exp(-20.0)) / LOG2, rel=1e-9)
        assert cllr < 1e-8

    def test_sign_flip_swaps_terms(self):
        rng = np.random.default_rng(6)
        tar = rng.standard_normal(12)
        non = rng.standard_normal(9)
        forward = compute_metrics(*from_arrays(tar, non)).cllr
        swapped = compute_metrics(*from_arrays(-non, -tar)).cllr
        assert forward == pytest.approx(swapped, rel=1e-12)


def _logit(p):
    with np.errstate(divide="ignore"):
        return np.log(p) - np.log1p(-p)


def _cllr_from_llrs(tar_llrs, non_llrs):
    tar_term = np.mean(np.logaddexp(0.0, -np.asarray(tar_llrs))) / LOG2
    non_term = np.mean(np.logaddexp(0.0, np.asarray(non_llrs))) / LOG2
    return 0.5 * (tar_term + non_term)


def partition_min_cllr_oracle(scores, labels):
    """Minimum Cllr over ordered block partitions with non-decreasing
    block-mean posteriors (monotone calibrations), brute force."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    order = np.argsort(scores)
    y = labels[order]
    n = len(y)
    offset = _logit(labels.sum() / len(labels))
    best = np.inf
    for boundary_mask in itertools.product([0, 1], repeat=n - 1):
        bounds = [0] + [i + 1 for i, bit in enumerate(boundary_mask) if bit] + [n]
        posts = []
        previous = -np.inf
        monotone = True
        for a, b in zip(bounds[:-1], bounds[1:]):
            p = float(y[a:b].mean())
            if p < previous - 1e-12:
                monotone = False
                break
            previous = p
            posts.extend([p] * (b - a))
        if not monotone:
            continue
        llrs = _logit(np.array(posts)) - offset
        best = min(best, _cllr_from_llrs(llrs[y == 1], llrs[y == 0]))
    return best


class TestMinCllr:
    def test_perfect_separation_zero(self):
        assert compute_metrics(*from_arrays([2.0, 3.0], [0.0, 1.0])).min_cllr == 0.0

    def test_matches_partition_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            n = int(rng.integers(2, 9))
            labels = rng.integers(0, 2, size=n)
            while not 0 < labels.sum() < n:
                labels = rng.integers(0, 2, size=n)
            scores = rng.standard_normal(n)
            got = compute_metrics(
                *from_arrays(scores[labels == 1], scores[labels == 0])
            ).min_cllr
            assert got == pytest.approx(
                partition_min_cllr_oracle(scores, labels), abs=1e-10
            )

    def test_rank_only_dependence(self):
        rng = np.random.default_rng(9)
        tar = rng.standard_normal(15) + 0.3
        non = rng.standard_normal(15)
        base = compute_metrics(*from_arrays(tar, non)).min_cllr
        cubed = compute_metrics(*from_arrays(tar**3, non**3)).min_cllr
        assert base == pytest.approx(cubed, abs=1e-10)

    def test_tied_scores_merge_into_one_block(self):
        # a target and a nontarget at the same score share one posterior
        scores = from_arrays([0.0, 1.0], [0.0, -1.0])
        got = compute_metrics(*scores).min_cllr
        oracle = partition_min_cllr_oracle([0.0, 1.0, 0.0, -1.0], [1, 1, 0, 0])
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_cllr_is_calibration_sensitive_min_cllr_is_not(self):
        rng = np.random.default_rng(10)
        tar = rng.standard_normal(30) + 1.0
        non = rng.standard_normal(30)
        scaled = from_arrays(5.0 * tar, 5.0 * non)
        plain = from_arrays(tar, non)
        plain, scaled = compute_metrics(*plain), compute_metrics(*scaled)
        assert plain.min_cllr == pytest.approx(scaled.min_cllr, abs=1e-10)
        assert abs(plain.cllr - scaled.cllr) > 1e-3


@settings(max_examples=60, deadline=None)
@given(finite_scores, finite_scores)
def test_min_cllr_bounds_property(tar, non):
    report = compute_metrics(*from_arrays(tar, non))
    min_cllr = report.min_cllr
    assert min_cllr <= report.cllr + 1e-9
    assert -1e-12 <= min_cllr <= 1.0 + 1e-9


class TestDetCurve:
    def test_point_count(self):
        curve = det_points(*from_arrays([1.0, 2.0], [0.5, 1.0]))
        assert len(curve) == 3 + 2  # distinct scores + sentinels

    def test_monotonicity(self):
        rng = np.random.default_rng(8)
        curve = det_points(
            *from_arrays(rng.standard_normal(40) + 1, rng.standard_normal(40))
        )
        assert np.all(np.diff(curve.p_fa) <= 0)
        assert np.all(np.diff(curve.p_miss) >= 0)

    def test_separated_scores_reach_axes(self):
        curve = det_points(*from_arrays([2.0, 3.0], [0.0, 1.0]))
        assert 0.0 in curve.p_fa and 0.0 in curve.p_miss

    def test_probit_columns_finite(self):
        curve = det_points(*from_arrays([1.0, 2.0], [0.0, 3.0]))
        assert np.all(np.isfinite(curve.probit_fa))
        assert np.all(np.isfinite(curve.probit_miss))

    def test_format_header(self):
        curve = det_points(*from_arrays([1.0], [0.0]))
        text = format_det(curve)
        assert text.startswith("# threshold p_fa p_miss probit_fa probit_miss\n")
        assert len(text.strip().splitlines()) == len(curve) + 1

    def test_det_is_the_same_without_the_statistics_accelerator(self):
        """With ``_statistics`` blocked the quantiles come from ``statistics``'s Python
        function, and the DET text and tail quantiles match the C function's bit for bit."""
        code = (
            "import sys\n"
            "blocked = sys.argv[1] == 'blocked'\n"
            "if blocked:\n"
            "    sys.modules['_statistics'] = None\n"
            "import numpy as np\n"
            "import anonvox\n"
            "from anonvox.metrics import _inv_normal_cdf, det_points, format_det\n"
            "assert ('statistics' in sys.modules) == blocked\n"
            "rng = np.random.default_rng(4)\n"
            "scores = np.round(rng.standard_normal(3000), 2)\n"
            "print(format_det(det_points(scores, np.arange(3000) % 7 == 0)))\n"
            "print(_inv_normal_cdf(np.geomspace(1e-300, 0.5, 4001)).tobytes().hex())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(anonvox.__file__).resolve().parents[1]))
        blocked, native = (
            subprocess.run([sys.executable, "-c", code, mode], env=env, capture_output=True,
                           text=True, check=True).stdout
            for mode in ("blocked", "native"))
        assert blocked == native
        assert blocked.startswith("# threshold p_fa p_miss probit_fa probit_miss\n")


def levenshtein_distance(ref, hyp):
    """Independent two-row edit distance."""
    previous = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        current = [i]
        for j, h in enumerate(hyp, start=1):
            current.append(
                min(previous[j - 1] + (r != h), previous[j] + 1, current[-1] + 1)
            )
        previous = current
    return previous[-1]


class TestWer:
    def test_identical(self):
        result = wer("a b c".split(), "a b c".split())
        assert result.wer == 0.0 and result.errors == 0

    def test_single_substitution(self):
        result = wer("a b c".split(), "a x c".split())
        assert (result.substitutions, result.deletions, result.insertions) == (1, 0, 0)
        assert result.wer == pytest.approx(100.0 / 3.0)

    def test_sub_plus_insert(self):
        result = wer("a b".split(), "a x y".split())
        assert result.substitutions == 1 and result.insertions == 1
        assert result.wer == pytest.approx(100.0)

    def test_can_exceed_hundred(self):
        result = wer(["a"], "x y z".split())
        assert result.wer > 100.0

    def test_empty_reference_errors(self):
        with pytest.raises(ValueError, match="reference"):
            wer([], ["a"])

    def test_matches_distance_oracle(self):
        rng = np.random.default_rng(77)
        alphabet = list("abcde")
        for _ in range(300):
            ref = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(1, 9))]
            hyp = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(0, 9))]
            result = wer(ref, hyp)
            assert result.errors == levenshtein_distance(ref, hyp)
            assert result.deletions - result.insertions == len(ref) - len(hyp)
            assert result.wer == pytest.approx(100.0 * result.errors / len(ref))


def _wer_counts_numpy(ref, hyp):
    """(S, D, I) from the int64 matrix DP with the same backtrace tie rule, kept as an oracle."""
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            dist[i, j] = min(sub, dist[i - 1, j] + 1, dist[i, j - 1] + 1)
    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and dist[i, j] == dist[i - 1, j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return int(subs), dels, ins


_WORDS = st.lists(st.sampled_from("abcd"), max_size=12)


@given(ref=_WORDS.filter(bool), hyp=_WORDS)
@settings(max_examples=300, deadline=None)
def test_wer_matches_matrix_dp_oracle(ref, hyp):
    result = wer(ref, hyp)
    counts = (result.substitutions, result.deletions, result.insertions)
    assert counts == _wer_counts_numpy(ref, hyp)
    assert result.ref_words == len(ref)


_PAIRS = st.lists(st.tuples(_WORDS, _WORDS), max_size=12)


@given(pairs=_PAIRS)
@settings(max_examples=200, deadline=None)
def test_batched_wer_matches_matrix_dp_oracle_line_by_line(pairs):
    # lines of different lengths share one table; either side may be empty
    refs, hyps = [list(r) for r, _ in pairs], [list(h) for _, h in pairs]
    counts = wer_counts(refs, hyps)
    assert counts.shape == (len(pairs), 3)
    assert [tuple(row) for row in counts.tolist()] == [_wer_counts_numpy(r, h) for r, h in pairs]


def test_batched_wer_splits_tables_it_cannot_hold(monkeypatch):
    rng = np.random.default_rng(5)
    refs = [list(rng.choice(list("abc"), rng.integers(0, 40))) for _ in range(30)]
    hyps = [list(rng.choice(list("abc"), rng.integers(0, 40))) for _ in range(30)]
    whole = wer_counts(refs, hyps)
    monkeypatch.setattr("anonvox.metrics._WER_CELLS", 1)  # one pair per table
    assert np.array_equal(wer_counts(refs, hyps), whole)
    assert [tuple(row) for row in whole.tolist()] == [_wer_counts_numpy(r, h)
                                                      for r, h in zip(refs, hyps)]


class TestMetricsReport:
    def test_compute_metrics_consistent(self):
        rng = np.random.default_rng(13)
        tar, non = rng.standard_normal(30) + 2, rng.standard_normal(40)
        report = compute_metrics(*from_arrays(tar, non))
        assert report.n_target == 30 and report.n_nontarget == 40
        assert report.eer == pytest.approx(sweep_eer_oracle(tar, non), abs=1e-12)
        assert report.cllr == pytest.approx(_cllr_from_llrs(tar, non), rel=1e-12)
        assert report.min_cllr == pytest.approx(_per_score_min_cllr(tar, non), abs=1e-12)
        assert report.min_cllr <= report.cllr + 1e-9


def _per_point_det_text(curve):
    lines = ["# threshold p_fa p_miss probit_fa probit_miss"]
    for i in range(len(curve)):
        lines.append(
            f"{curve.thresholds[i]:.9g} {curve.p_fa[i]:.9g} {curve.p_miss[i]:.9g} "
            f"{curve.probit_fa[i]:.9g} {curve.probit_miss[i]:.9g}"
        )
    return "\n".join(lines) + "\n"


def test_format_det_matches_per_point_formatting(monkeypatch):
    rng = np.random.default_rng(21)
    tar = np.round(rng.standard_normal(60) + 1.5, 2)  # rounding makes ties
    non = np.round(rng.standard_normal(90), 2)
    curve = det_points(*from_arrays(tar, non))
    text = format_det(curve)
    assert text == _per_point_det_text(curve)
    for block in (1, 7):  # points formatted per % pass
        monkeypatch.setattr("anonvox.metrics._DET_BLOCK", block)
        assert format_det(curve) == text
    assert text.splitlines()[1].startswith("-inf 1 0 ")
    assert text.splitlines()[-1].startswith("inf 0 1 ")


@pytest.mark.parametrize("n_tar, n_non, longest", [(3, 5000, 1024), (40, 3000, 100), (5000, 3, 1)])
def test_format_det_matches_per_point_formatting_on_long_tied_runs(n_tar, n_non, longest,
                                                                    monkeypatch):
    """Few target scores leave p_miss constant over runs longer than ``longest``
    points, which cross the boundaries of the % passes."""
    rng = np.random.default_rng(n_tar)
    curve = det_points(*from_arrays(rng.standard_normal(n_tar) + 1, rng.standard_normal(n_non)))
    runs = np.diff(np.flatnonzero(np.r_[True, curve.p_miss[1:] != curve.p_miss[:-1], True]))
    assert runs.max() > longest
    text = format_det(curve)
    assert text == _per_point_det_text(curve)
    for block in (1, 1000):
        monkeypatch.setattr("anonvox.metrics._DET_BLOCK", block)
        assert format_det(curve) == text


def _as241_inputs() -> np.ndarray:
    """About 1.2M probabilities in (0, 1): uniform draws, both tails down to the
    smallest subnormal and up to 1 - 2**-53, runs of neighbours around the
    branch points 0.075, 0.5 and 0.925, and the k/n rates of DET curves."""
    rng = np.random.default_rng(7)
    parts = [rng.random(400_000),
             np.exp(-rng.random(200_000) * 744.0),
             1.0 - np.ldexp(rng.random(100_000), -rng.integers(0, 54, 100_000)),
             1.0 - rng.random(100_000) * 0.2,
             np.array([5e-324, 2.0**-1022, 1.0 - 2.0**-53, 0.5 - 2.0**-54, 0.5 + 2.0**-53])]
    for point in (0.075, 0.5, 0.925):
        parts.append(point + np.arange(-20_000, 20_001) * np.spacing(point))
    for n in (2, 3, 420, 12_530, 250_003):
        parts.append(np.arange(1, n) / n)
    p = np.concatenate(parts)
    return p[(p > 0.0) & (p < 1.0)]


def test_inverse_normal_cdf_equals_statistics_bit_for_bit():
    p = _as241_inputs()
    assert len(p) > 10**6
    assert {0.075, 0.925, 5e-324, 1.0 - 2.0**-53} <= set(p.tolist())
    want = np.array(list(map(NormalDist().inv_cdf, p.tolist())))
    got = _inv_normal_cdf(p)
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, p[differ[:5]]


@pytest.mark.parametrize("n", [1, 2, 7, 420, 12_530])
def test_probit_clamps_then_equals_statistics(n):
    rate = np.r_[0.0, np.arange(n + 1) / n, 1.0]
    floor = 1.0 / (2.0 * n)
    want = [NormalDist().inv_cdf(min(max(r, floor), 1.0 - floor)) for r in rate.tolist()]
    assert _probit(rate, n).tolist() == want


def _per_score_min_cllr(tar, non):
    """min-Cllr with one PAV block per distinct score, as computed before
    adjacent blocks of equal posterior were pooled; kept as a reference."""
    raw = np.concatenate([tar, non])
    labels = np.concatenate([np.ones(len(tar)), np.zeros(len(non))])
    _, inverse = np.unique(raw, return_inverse=True)
    weights = np.bincount(inverse).astype(np.float64)
    means, wsum, sizes = [], [], []
    for v, w in zip((np.bincount(inverse, weights=labels) / weights).tolist(), weights.tolist()):
        means.append(v)
        wsum.append(w)
        sizes.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            w_tot = wsum[-2] + wsum[-1]
            means[-2:] = [(means[-2] * wsum[-2] + means[-1] * wsum[-1]) / w_tot]
            wsum[-2:] = [w_tot]
            sizes[-2:] = [sizes[-2] + sizes[-1]]
    posteriors = np.repeat(means, sizes)[inverse]
    prior = len(tar) / (len(tar) + len(non))
    with np.errstate(divide="ignore"):
        llrs = np.log(posteriors) - np.log1p(-posteriors) - (np.log(prior) - np.log1p(-prior))
    tar_term = np.mean(np.logaddexp(0.0, -llrs[: len(tar)])) / LOG2
    return float(0.5 * (tar_term + np.mean(np.logaddexp(0.0, llrs[len(tar) :])) / LOG2))


tied_scores = st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 3.0]),
                       min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.one_of(finite_scores, tied_scores), st.one_of(finite_scores, tied_scores))
def test_min_cllr_matches_per_score_blocks(tar, non):
    got = compute_metrics(*from_arrays(tar, non)).min_cllr
    assert got == pytest.approx(_per_score_min_cllr(np.array(tar), np.array(non)), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.one_of(finite_scores, tied_scores), st.one_of(finite_scores, tied_scores))
def test_det_points_match_searchsorted_rates_and_scipy_probits(tar, non):
    from scipy.special import ndtri

    tar, non = np.array(tar), np.array(non)
    curve = det_points(*from_arrays(tar, non))
    thresholds = np.concatenate([[-np.inf], np.unique(np.concatenate([tar, non])), [np.inf]])
    assert np.array_equal(curve.thresholds, thresholds)
    p_miss = np.searchsorted(np.sort(tar), thresholds, side="left") / tar.size
    p_fa = (non.size - np.searchsorted(np.sort(non), thresholds, side="left")) / non.size
    assert np.array_equal(curve.p_miss, p_miss) and np.array_equal(curve.p_fa, p_fa)
    for got, rate, n in ((curve.probit_fa, p_fa, non.size), (curve.probit_miss, p_miss, tar.size)):
        floor = 1.0 / (2.0 * n)
        want = ndtri(np.clip(rate, floor, 1.0 - floor))
        assert [f"{v:.9g}" for v in got.tolist()] == [f"{v:.9g}" for v in want.tolist()]
