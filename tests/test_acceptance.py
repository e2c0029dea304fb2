"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s -v tests/test_acceptance.py`` to see the lines inline.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from anonvox import (
    AnonConfig,
    Condition,
    PldaModel,
    compute_metrics,
    default_spec,
    evaluate,
    generate,
    make_trials,
    score_trials,
    split,
    train_plda,
    warp_poles,
    wer,
)
from anonvox.anonymize import derive_stream
from anonvox.anonymize import anonymize_corpus
from anonvox.cli import main as cli_main
from anonvox.formant import ShiftConfig, anonymize_wav, lpc_analyze
from anonvox.plda import score_matrix

from conftest import (
    by_speaker, corpus_of, dominant_peak_hz, from_arrays, log_likelihood, synth_vowel,
    tie_break_ranking,
)
from test_metrics import (
    levenshtein_distance,
    partition_min_cllr_oracle,
    sweep_eer_oracle,
)
from test_plda import dense_llr, random_model

DEFAULT_FRACTIONS = (0.595, 0.105, 0.1, 0.2)


def _report(number: int, detail: str) -> None:
    print(f"[acceptance] criterion {number}: PASS: {detail}")


def test_criterion_1_table_directionality():
    """Default corpus: EER(oo) < 5%, EER(oa) in [40%, 60%], under 60 s."""
    start = time.monotonic()
    corpus, _ = generate(default_spec())  # 200 speakers x 10 utts, D=32
    train, pool, enroll, trial = split(corpus, DEFAULT_FRACTIONS, seed=0)
    model = train_plda(train, 15)
    trials = make_trials(enroll, trial)
    cfg = AnonConfig(seed=0)  # defaults: n_farthest=200, n_select=100

    scores = score_trials(model, enroll, trial, trials)
    eer_oo = compute_metrics(scores.score, trials.is_target).eer
    oa_runs = evaluate([Condition.oa], enroll, trial, pool, model, cfg, trials)[0]
    oa_eers = [run.metrics.eer for run in oa_runs]
    elapsed = time.monotonic() - start

    assert eer_oo < 0.05, f"EER(oo)={eer_oo:.4f}"
    for eer in oa_eers:
        assert 0.40 <= eer <= 0.60, f"EER(oa)={eer:.4f}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    _report(
        1,
        f"eer_oo={100 * eer_oo:.2f}% eer_oa={[f'{100 * e:.1f}%' for e in oa_eers]} "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_2_scoring_oracle():
    """Closed-form LLR vs dense 2D-dimensional Gaussian ratio, 1e-9."""
    rng = np.random.default_rng(2024)
    cases = 0
    worst = 0.0
    for dim in (1, 2, 3):
        for _ in range(34):
            model = random_model(rng, dim)
            x1 = rng.standard_normal(dim)
            x2 = rng.standard_normal(dim)
            got = score_matrix(model, [x1], [x2])[0, 0]
            worst = max(worst, abs(got - dense_llr(model, x1, x2)))
            cases += 1
    assert cases >= 100
    assert worst < 1e-9, f"worst |err| {worst:.2e}"

    hand = PldaModel(mu=np.zeros(1), between=np.ones((1, 1)), within=np.ones((1, 1)))
    want = float(np.log(2.0 / np.sqrt(3.0)))
    assert score_matrix(hand, [[0.0]], [[0.0]])[0, 0] == pytest.approx(want, abs=1e-12)
    _report(2, f"{cases} cases, worst |err|={worst:.2e}, hand case ok")


def test_criterion_3_em_monotonicity_and_recovery():
    """Log-likelihood non-decreasing (1e-8/step, 20 iters, 50 corpora);
    Frobenius recovery within 15% on 500 speakers x 10 utts."""
    rng = np.random.default_rng(303)
    worst_drop = 0.0
    for case in range(50):
        n_spk = int(rng.integers(5, 15))
        n_utt = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 5))
        corpus, _ = generate(
            default_spec(n_speakers=n_spk, utts_per_speaker=n_utt, dim=dim, seed=case)
        )
        lls = [log_likelihood(train_plda(corpus, k), corpus) for k in range(21)]
        drops = [a - b for a, b in zip(lls, lls[1:])]
        worst_drop = max(worst_drop, max(drops))
        assert all(d <= 1e-8 for d in drops), f"corpus {case}: drop {max(drops):.2e}"

    spec = default_spec(n_speakers=500, utts_per_speaker=10, dim=4, seed=7)
    corpus, truth = generate(spec)
    model = train_plda(corpus, 25)
    rel_b = np.linalg.norm(model.between - truth.between) / np.linalg.norm(truth.between)
    rel_w = np.linalg.norm(model.within - truth.within) / np.linalg.norm(truth.within)
    assert rel_b < 0.15 and rel_w < 0.15, f"recovery rel errors {rel_b:.3f}, {rel_w:.3f}"
    _report(
        3,
        f"50 corpora monotone (worst step drop {worst_drop:.2e}), "
        f"recovery between={rel_b:.3f} within={rel_w:.3f}",
    )


def test_criterion_4_min_cllr_oracle():
    """PAV min-Cllr vs partition brute force (1e-10); bounds; exact Cllr=1."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 2, size=n)
        while not 0 < labels.sum() < n:
            labels = rng.integers(0, 2, size=n)
        scores = rng.standard_normal(n)
        got = compute_metrics(
            *from_arrays(scores[labels == 1], scores[labels == 0])
        ).min_cllr
        want = partition_min_cllr_oracle(scores, labels)
        worst = max(worst, abs(got - want))
    assert worst < 1e-10, f"worst |err| {worst:.2e}"

    for _ in range(1000):
        tar = rng.standard_normal(int(rng.integers(1, 20))) + rng.uniform(-1, 2)
        non = rng.standard_normal(int(rng.integers(1, 20)))
        report = compute_metrics(*from_arrays(tar, non))
        min_cllr = report.min_cllr
        assert min_cllr <= report.cllr + 1e-9
        assert -1e-12 <= min_cllr <= 1.0 + 1e-9

    assert compute_metrics(*from_arrays(np.zeros(7), np.zeros(4))).cllr == 1.0
    _report(4, f"200 brute-force cases (worst {worst:.2e}), 1000 bound checks, Cllr(0)=1")


def test_criterion_5_eer_properties():
    """Interpolated EER vs exhaustive sweep (1e-12); monotone invariance;
    constructed 0% / 50% / 100%."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(500):
        tar = rng.standard_normal(int(rng.integers(1, 25))) + rng.uniform(0, 2)
        non = rng.standard_normal(int(rng.integers(1, 25)))
        eer = compute_metrics(*from_arrays(tar, non)).eer
        worst = max(worst, abs(eer - sweep_eer_oracle(tar, non)))
        cubed = compute_metrics(*from_arrays(tar**3, non**3)).eer
        assert abs(eer - cubed) < 1e-12
    assert worst < 1e-12, f"worst |err| {worst:.2e}"

    assert compute_metrics(*from_arrays([2.0, 3.0], [0.0, 1.0])).eer == 0.0
    assert compute_metrics(*from_arrays([1.0, 3.0], [0.0, 2.0])).eer == pytest.approx(
        0.5, abs=1e-12
    )
    assert compute_metrics(*from_arrays([0.0, 1.0], [2.0, 3.0])).eer == pytest.approx(
        1.0, abs=1e-12
    )
    _report(5, f"500 sweep cases (worst {worst:.2e}), invariance + 0/50/100% ok")


def test_criterion_6_anonymizer_correctness():
    """Brute-force ranking oracle; per-speaker function property; subset-tag
    separation; full-pool reduction to the mean."""
    rng = np.random.default_rng(606)
    for case in range(100):
        dim = int(rng.integers(2, 5))
        n_pool = int(rng.integers(3, 12))
        model = random_model(rng, dim)
        pool_ids = [f"p{i}" for i in range(n_pool)]
        pool = corpus_of("pool", ((utt, f"q{i}", "F", rng.standard_normal(dim))
                                  for i, utt in enumerate(pool_ids)))
        source = rng.standard_normal(dim)
        n_far = int(rng.integers(1, n_pool + 1))
        n_sel = int(rng.integers(1, n_far + 1))
        cfg = AnonConfig(n_farthest=n_far, n_select=n_sel, seed=case, assignment="per_utterance")
        one_row = corpus_of("c", [("src", "s", "F", source)])
        (got,) = anonymize_corpus(one_row, pool, model, cfg).matrix()
        # oracle: per-pair distances, spec tie rule, replicated selection stream
        dists = [-score_matrix(model, [source], [p])[0, 0] for p in pool.matrix()]
        order = tie_break_ranking(dists, pool_ids)
        top = np.array(order[:n_far])
        oracle_rng = derive_stream(case, "", "src")
        chosen = np.sort(top[oracle_rng.choice(n_far, size=n_sel, replace=False)])
        want = pool.matrix()[chosen].mean(axis=0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    # 20 evaluation speakers: with N*=1 < N=2 the keyed streams disagree on
    # at least one speaker with probability 1 - 2^-20
    corpus, truth = generate(default_spec(n_speakers=25, utts_per_speaker=4, dim=6, seed=66))
    _, pool, enroll, trial = split(corpus, (0.0, 0.2, 0.4, 0.4), seed=66)
    assert len(by_speaker(enroll)) == 20
    cfg = AnonConfig(n_farthest=2, n_select=1, seed=9, assignment="per_speaker")
    anon_trial = anonymize_corpus(trial, pool, truth, replace(cfg, subset_tag="trial"))
    for vectors in by_speaker(anon_trial).values():
        assert (vectors == vectors[0]).all()

    anon_enroll = anonymize_corpus(enroll, pool, truth, replace(cfg, subset_tag="enroll"))
    enroll_pseudo = dict(zip(anon_enroll.spk_id.tolist(), anon_enroll.matrix()))
    trial_pseudo = dict(zip(anon_trial.spk_id.tolist(), anon_trial.matrix()))
    differing = sum(
        1 for spk in enroll_pseudo if not np.array_equal(enroll_pseudo[spk], trial_pseudo[spk])
    )
    assert differing >= 1, "subset tags produced identical pseudo-speakers everywhere"

    full = AnonConfig(n_farthest=len(pool), n_select=len(pool), seed=123, subset_tag="x",
                      assignment="per_utterance")
    (out,) = anonymize_corpus(corpus_of("c", [("y", "s", "F", trial.matrix()[0])]), pool,
                              truth, full).matrix()
    assert np.array_equal(out, pool.matrix().mean(axis=0))
    _report(6, f"100 oracle cases, function property, tag separation ({differing} speakers), pool-mean reduction")


def test_criterion_7_formant_shifter():
    """alpha=1 SNR >= 30 dB; alpha=0.8 moves the dominant peak >= 5%;
    every warped frame stays inside the unit circle."""
    vowel = synth_vowel()
    identity = anonymize_wav(vowel, ShiftConfig(alpha=1.0))
    noise = vowel.samples - identity.samples
    snr = 10.0 * np.log10(np.sum(vowel.samples**2) / max(np.sum(noise**2), 1e-300))
    assert snr >= 30.0, f"SNR {snr:.1f} dB"

    shifted = anonymize_wav(vowel, ShiftConfig(alpha=0.8))
    before = dominant_peak_hz(vowel)
    after = dominant_peak_hz(shifted)
    move = abs(after - before) / before
    assert move >= 0.05, f"peak moved {100 * move:.1f}%"

    cfg = ShiftConfig(alpha=0.8)
    window = np.hanning(cfg.frame_len)
    padded = np.concatenate(
        [np.zeros(cfg.frame_len), vowel.samples, np.zeros(cfg.frame_len)]
    )
    worst_mag = 0.0
    for start in range(0, padded.size - cfg.frame_len, cfg.hop):
        coeffs, _ = lpc_analyze(padded[start : start + cfg.frame_len] * window, cfg.lpc_order)
        poles = np.roots(np.concatenate([[1.0], -coeffs]))
        warped = warp_poles(poles, cfg.alpha)
        if warped.size:
            worst_mag = max(worst_mag, float(np.max(np.abs(warped))))
    assert worst_mag < 1.0, f"pole magnitude {worst_mag}"
    _report(
        7,
        f"snr={snr:.1f}dB peak {before:.0f}->{after:.0f}Hz ({100 * move:.1f}%), "
        f"max pole magnitude {worst_mag:.4f}",
    )


def test_criterion_8_wer():
    """DP oracle agreement on 500 random cases plus the worked examples."""
    rng = np.random.default_rng(808)
    alphabet = list("abcde")
    for _ in range(500):
        ref = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(1, 9))]
        hyp = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(0, 9))]
        result = wer(ref, hyp)
        assert result.errors == levenshtein_distance(ref, hyp)
        assert result.deletions - result.insertions == len(ref) - len(hyp)

    assert wer("a b c".split(), "a b c".split()).wer == 0.0
    one_sub = wer("a b c".split(), "a x c".split())
    assert one_sub.substitutions == 1 and one_sub.wer == pytest.approx(100.0 / 3.0)
    mixed = wer("a b".split(), "a x y".split())
    assert mixed.substitutions == 1 and mixed.insertions == 1
    assert mixed.wer == pytest.approx(100.0)
    overshoot = wer(["a"], "x y z".split())
    assert overshoot.wer == pytest.approx(300.0) and overshoot.wer > 100.0
    _report(8, "500 oracle cases, worked examples, WER>100% construction")


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    """Two identical `eval` runs: byte-identical reports and dumped corpora."""
    data = tmp_path / "data"
    assert cli_main([
        "synth", "--out-dir", str(data),
        "--n-speakers", "30", "--utts-per-speaker", "6", "--dim", "8",
        "--seed", "4", "--fractions", "0.3,0.4,0.1,0.2",
    ]) == 0
    model = tmp_path / "model.plda"
    trials = tmp_path / "trials.txt"
    assert cli_main([
        "train-plda", "--data", str(data / "train.xvec"),
        "--out", str(model), "--iterations", "8",
    ]) == 0
    assert cli_main([
        "make-trials", "--enroll", str(data / "enroll.xvec"),
        "--trial", str(data / "trial.xvec"), "--out", str(trials),
    ]) == 0
    capsys.readouterr()

    artifacts = []
    for tag in ("first", "second"):
        records = tmp_path / f"records_{tag}.txt"
        dump = tmp_path / f"dump_{tag}"
        assert cli_main([
            "eval",
            "--enroll", str(data / "enroll.xvec"),
            "--trial", str(data / "trial.xvec"),
            "--pool", str(data / "pool.xvec"),
            "--model", str(model),
            "--trials", str(trials),
            "--n-farthest", "20", "--n-select", "10", "--seed", "11",
            "--records", str(records),
            "--dump-anon", str(dump),
        ]) == 0
        artifacts.append(
            (
                capsys.readouterr().out,
                records.read_bytes(),
                (dump / "trial_anon.xvec").read_bytes(),
                (dump / "enroll_anon.xvec").read_bytes(),
            )
        )
    assert artifacts[0] == artifacts[1]
    with capsys.disabled():
        _report(9, "two eval runs byte-identical (stdout, records, anonymized corpora)")


def test_criterion_10_paper_pool_ratio():
    """200 farthest of a 1250-row pool, near the paper's 200 of about 1,160:
    pseudo-speakers sit opposite their sources, so EER(oa) is far above 50%,
    and both sides of aa share that mapping, so EER(aa) is far below it."""
    start = time.monotonic()
    corpus, _ = generate(default_spec(n_speakers=500, dim=32, seed=0))
    train, pool, enroll, trial = split(corpus, (0.5, 0.25, 0.1, 0.15), seed=0)
    model = train_plda(train, 15)
    trials = make_trials(enroll, trial)
    runs = evaluate([Condition.oo, Condition.oa, Condition.aa], enroll, trial, pool, model,
                    AnonConfig(seed=0), trials)[0]
    eers = {(run.condition.value, run.gender): run.metrics.eer for run in runs}
    elapsed = time.monotonic() - start

    assert len(pool) == 1250
    # seeds 1-20 give EER(oo) 0.4-1.7%, EER(oa) 80.0-88.7% and EER(aa) 0.5-3.3%
    for (condition, gender), eer in eers.items():
        low, high = {"oo": (0.0, 0.05), "oa": (0.70, 1.0), "aa": (0.0, 0.10)}[condition]
        assert low <= eer <= high, f"EER({condition}, {gender})={eer:.4f}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    _report(10, " ".join(f"eer_{c}_{g}={100 * e:.1f}%" for (c, g), e in eers.items())
            + f" runtime={elapsed:.1f}s")


def test_criterion_11_informed_attacker(tmp_path, capsys):
    """Criterion 10's setup, through the CLI. Scoring the dumped aa corpora as
    oo gives the aa row; an attacker whose PLDA is trained on per-utterance
    anonymized training data scores them better than the original model."""
    start = time.monotonic()
    data = tmp_path / "data"

    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0, argv[0]

    def rows(path):
        """Each record's eer, min_cllr, cllr and counts, keyed by gender and condition."""
        return {tuple(f[1:4]): f[4:9] for f in map(str.split, path.read_text().splitlines())}

    run("synth", "--out-dir", data, "--n-speakers", 500, "--dim", 32, "--seed", 0,
        "--fractions", "0.5,0.25,0.1,0.15")
    run("train-plda", "--data", data / "train.xvec", "--out", tmp_path / "model.plda",
        "--iterations", 15)
    run("make-trials", "--enroll", data / "enroll.xvec", "--trial", data / "trial.xvec",
        "--out", tmp_path / "trials.txt")
    common = ["--pool", data / "pool.xvec", "--trials", tmp_path / "trials.txt"]
    run("eval", "--enroll", data / "enroll.xvec", "--trial", data / "trial.xvec",
        "--model", tmp_path / "model.plda", *common, "--records", tmp_path / "aa.txt",
        "--dump-anon", tmp_path / "anon")
    run("anonymize-xvec", "--input", data / "train.xvec", "--pool", data / "pool.xvec",
        "--model", tmp_path / "model.plda", "--out", tmp_path / "train_anon.xvec",
        "--assignment", "per_utterance")
    run("train-plda", "--data", tmp_path / "train_anon.xvec", "--out", tmp_path / "attacker.plda",
        "--iterations", 15)
    for model in ("model", "attacker"):
        run("eval", "--enroll", tmp_path / "anon" / "enroll_anon.xvec",
            "--trial", tmp_path / "anon" / "trial_anon.xvec", "--conditions", "oo",
            "--model", tmp_path / f"{model}.plda", *common, "--records", tmp_path / f"{model}.txt")
    capsys.readouterr()
    aa, lazy, informed = (rows(tmp_path / f"{name}.txt") for name in ("aa", "model", "attacker"))
    elapsed = time.monotonic() - start

    eers = {}
    for gender in ("F", "M"):
        original = aa[gender, "anonymized", "anonymized"]
        assert lazy[gender, "original", "original"] == original
        attacked = informed[gender, "original", "original"]
        eers[gender] = float(original[0]), float(attacked[0])
        # seeds 1-20: the attacker's Cllr is 0.018-0.052 of the original model's
        assert float(attacked[2]) < 0.1 * float(original[2]), gender
    # seeds 1-20: the attacker's EER is 0-0.53 of the original model's, and equal
    # once (seed 20, F), never on both genders
    assert all(att <= orig for orig, att in eers.values())
    assert any(att < orig for orig, att in eers.values())
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    with capsys.disabled():
        _report(11, " ".join(f"eer_aa_{g}={100 * o:.2f}%->{100 * a:.2f}%"
                             for g, (o, a) in eers.items()) + f" runtime={elapsed:.1f}s")
