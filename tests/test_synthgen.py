import numpy as np
import pytest

from anonvox import (
    GenSpec,
    compute_metrics,
    default_spec,
    generate,
    make_trials,
    score_trials,
    split,
    train_plda,
)
from anonvox.synthgen import _psd_factor

from conftest import by_speaker


class TestGenerate:
    def test_deterministic_under_seed(self):
        spec = default_spec(n_speakers=10, utts_per_speaker=3, dim=4, seed=9)
        first, _ = generate(spec)
        second, _ = generate(spec)
        assert np.array_equal(first.matrix(), second.matrix())
        assert np.array_equal(first.utt_id, second.utt_id)

    def test_zero_within_gives_identical_utterances(self):
        spec = GenSpec(
            n_speakers=5,
            utts_per_speaker=4,
            dim=3,
            between_cov=np.eye(3),
            within_cov=np.zeros((3, 3)),
            seed=2,
        )
        corpus, _ = generate(spec)
        for vectors in by_speaker(corpus).values():
            assert (vectors == vectors[0]).all()

    def test_zero_between_gives_chance_eer(self):
        dim = 8
        spec = GenSpec(
            n_speakers=40,
            utts_per_speaker=10,
            dim=dim,
            between_cov=np.zeros((dim, dim)),
            within_cov=np.eye(dim),
            seed=11,
        )
        corpus, _ = generate(spec)
        train, _, enroll, trial = split(corpus, (0.5, 0.0, 0.2, 0.3), seed=11)
        model = train_plda(train, 8)
        trials = make_trials(enroll, trial)
        assert len(trials) >= 1000
        scores = score_trials(model, enroll, trial, trials)
        eer = compute_metrics(scores.score, trials.is_target).eer
        assert 0.45 <= eer <= 0.55

    def test_speaker_mean_covariance_matches_law_of_large_numbers(self):
        spec = default_spec(n_speakers=500, utts_per_speaker=10, dim=4, seed=5)
        corpus, truth = generate(spec)
        means = np.stack([vectors.mean(axis=0) for vectors in by_speaker(corpus).values()])
        observed = np.cov(means.T, bias=False)
        expected = truth.between + truth.within / spec.utts_per_speaker
        rel = np.linalg.norm(observed - expected) / np.linalg.norm(expected)
        assert rel < 0.15

    def test_non_psd_covariance_rejected(self):
        bad = np.array([[1.0, 0.0], [0.0, -1.0]])
        spec = GenSpec(
            n_speakers=3, utts_per_speaker=2, dim=2, between_cov=bad, within_cov=np.eye(2)
        )
        with pytest.raises(ValueError, match="positive semi-definite"):
            generate(spec)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            GenSpec(n_speakers=3, utts_per_speaker=2, dim=2, between_cov=np.eye(2),
                    within_cov=np.eye(2), seed=-1)
        # below -0xB5 numpy would refuse the covariance draw's seed first
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            default_spec(seed=-1000)

    def test_gender_split(self):
        spec = default_spec(n_speakers=10, utts_per_speaker=2, dim=3, seed=0)
        corpus, _ = generate(spec)
        genders = corpus.speaker_gender()
        assert sum(1 for g in genders.values() if g == "F") == 5


class TestSplit:
    def test_disjointness(self):
        spec = default_spec(n_speakers=10, utts_per_speaker=10, dim=4, seed=1)
        corpus, _ = generate(spec)
        train, pool, enroll, trial = split(corpus, (0.5, 0.2, 0.1, 0.2), seed=1)
        train_spk = set(train.speaker_gender())
        pool_spk = set(pool.speaker_gender())
        eval_spk = set(enroll.speaker_gender())
        assert train_spk.isdisjoint(pool_spk)
        assert train_spk.isdisjoint(eval_spk)
        assert pool_spk.isdisjoint(eval_spk)
        # enrollment and trial share speakers but not utterances
        assert set(trial.speaker_gender()) == eval_spk
        enroll_utts = set(enroll.utt_id.tolist())
        trial_utts = set(trial.utt_id.tolist())
        assert enroll_utts.isdisjoint(trial_utts)
        total = len(train) + len(pool) + len(enroll) + len(trial)
        assert total == len(corpus)

    def test_all_in_train(self):
        spec = default_spec(n_speakers=6, utts_per_speaker=3, dim=3, seed=2)
        corpus, _ = generate(spec)
        train, pool, enroll, trial = split(corpus, (1.0, 0.0, 0.0, 0.0), seed=2)
        assert len(train) == len(corpus)
        assert len(pool) == len(enroll) == len(trial) == 0

    def test_same_seed_same_split(self):
        spec = default_spec(n_speakers=12, utts_per_speaker=4, dim=3, seed=3)
        corpus, _ = generate(spec)
        a = split(corpus, (0.5, 0.2, 0.1, 0.2), seed=4)
        b = split(corpus, (0.5, 0.2, 0.1, 0.2), seed=4)
        for first, second in zip(a, b):
            assert np.array_equal(first.utt_id, second.utt_id)

    def test_too_few_utterances_errors(self):
        spec = default_spec(n_speakers=4, utts_per_speaker=1, dim=2, seed=0)
        corpus, _ = generate(spec)
        with pytest.raises(ValueError, match="at least 2"):
            split(corpus, (0.25, 0.25, 0.25, 0.25), seed=0)

    def test_fractions_must_sum_to_one(self):
        spec = default_spec(n_speakers=4, utts_per_speaker=2, dim=2, seed=0)
        corpus, _ = generate(spec)
        with pytest.raises(ValueError, match="sum to 1"):
            split(corpus, (0.5, 0.5, 0.5, 0.5), seed=0)


def per_speaker_matrix(spec: GenSpec) -> np.ndarray:
    """The corpus matrix drawn and multiplied one speaker at a time, from the
    same generator stream: the oracle of ``generate``'s one draw."""
    factor_b = _psd_factor(spec.between_cov, "between_cov")
    factor_w = _psd_factor(spec.within_cov, "within_cov")
    rng = np.random.default_rng(spec.seed)
    offsets = rng.standard_normal((spec.n_speakers, spec.dim)) @ factor_b.T
    utts = spec.utts_per_speaker
    matrix = np.empty((spec.n_speakers * utts, spec.dim))
    for s in range(spec.n_speakers):
        noise = rng.standard_normal((utts, spec.dim)) @ factor_w.T
        matrix[s * utts : (s + 1) * utts] = offsets[s] + noise
    return matrix


class TestOneDraw:
    @pytest.mark.parametrize("dim", [8, 32, 64])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_default_spec_equals_the_per_speaker_loop_bit_for_bit(self, dim, seed):
        spec = default_spec(n_speakers=60, utts_per_speaker=7, dim=dim, seed=seed)
        corpus, _ = generate(spec)
        assert corpus.matrix().tobytes() == per_speaker_matrix(spec).tobytes()

    @pytest.mark.parametrize("dim", [8, 32, 64])
    def test_random_within_cov_matches_the_per_speaker_loop(self, dim):
        # the product may take other BLAS kernels for more rows: equal to rounding
        a = np.random.default_rng(dim).standard_normal((dim, dim))
        spec = GenSpec(
            n_speakers=60,
            utts_per_speaker=7,
            dim=dim,
            between_cov=default_spec(dim=dim, seed=2).between_cov,
            within_cov=a @ a.T / dim + 0.5 * np.eye(dim),
            seed=2,
        )
        corpus, _ = generate(spec)
        np.testing.assert_allclose(corpus.matrix(), per_speaker_matrix(spec), rtol=0, atol=1e-14)
