import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from anonvox import (
    Corpus,
    Embedding,
    PldaModel,
    PreprocessConfig,
    TrialEntry,
    TrialList,
    default_spec,
    enroll_speaker,
    generate,
    load_model,
    plda_distance,
    preprocess,
    save_model,
    score,
    score_trials,
    train_plda,
)
from anonvox.plda import log_likelihood, score_matrix

from conftest import by_speaker, by_utt

LN_2_OVER_SQRT3 = 0.1438410362258906


def random_model(rng, dim):
    a = rng.standard_normal((dim, dim))
    b = a @ a.T + 0.1 * np.eye(dim)
    c = rng.standard_normal((dim, dim))
    w = c @ c.T + 0.3 * np.eye(dim)
    return PldaModel(mu=rng.standard_normal(dim), between=b, within=w)


def dense_llr(model, x1, x2):
    """Independent oracle: explicit 2D-dimensional Gaussian density ratio."""
    d = model.dim
    t = model.between + model.within
    same = np.block([[t, model.between], [model.between, t]])
    diff = np.block([[t, np.zeros((d, d))], [np.zeros((d, d)), t]])
    stacked = np.concatenate([x1, x2])
    mean = np.concatenate([model.mu, model.mu])
    return multivariate_normal.logpdf(stacked, mean, same) - multivariate_normal.logpdf(
        stacked, mean, diff
    )


class TestScore:
    def test_hand_case_d1(self):
        model = PldaModel(mu=np.zeros(1), between=np.ones((1, 1)), within=np.ones((1, 1)))
        assert score(model, [0.0], [0.0]) == pytest.approx(LN_2_OVER_SQRT3, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_dense_gaussian_oracle(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(40):
            model = random_model(rng, dim)
            x1 = rng.standard_normal(dim)
            x2 = rng.standard_normal(dim)
            assert score(model, x1, x2) == pytest.approx(dense_llr(model, x1, x2), abs=1e-9)

    def test_zero_between_scores_zero(self):
        model = PldaModel(mu=np.zeros(3), between=np.zeros((3, 3)), within=np.eye(3))
        rng = np.random.default_rng(4)
        for _ in range(5):
            assert score(model, rng.standard_normal(3), rng.standard_normal(3)) == 0.0

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 4)
        for _ in range(20):
            a, b = rng.standard_normal(4), rng.standard_normal(4)
            assert score(model, a, b) == score(model, b, a)

    def test_translation_consistency(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, 5)
        shift = rng.standard_normal(5)
        shifted = PldaModel(model.mu + shift, model.between, model.within)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        assert score(model, a, b) == pytest.approx(
            score(shifted, a + shift, b + shift), abs=1e-9
        )

    def test_dimension_mismatch(self):
        model = random_model(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="shape"):
            score(model, [1.0, 2.0], [1.0, 2.0, 3.0])


_SYMMETRY_MODEL = random_model(np.random.default_rng(2718), 3)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3),
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3),
)
def test_score_symmetry_property(a, b):
    assert score(_SYMMETRY_MODEL, a, b) == score(_SYMMETRY_MODEL, b, a)


class TestScoreMatrix:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_entries_match_oracle_and_pair_score(self, dim):
        rng = np.random.default_rng(300 + dim)
        for _ in range(10):
            model = random_model(rng, dim)
            x = rng.standard_normal((int(rng.integers(1, 6)), dim))
            y = rng.standard_normal((int(rng.integers(1, 6)), dim))
            got = score_matrix(model, x, y)
            assert got.shape == (len(x), len(y))
            for i in range(len(x)):
                for j in range(len(y)):
                    pair = score(model, x[i], y[j])
                    assert got[i, j] == pytest.approx(dense_llr(model, x[i], y[j]), abs=1e-9)
                    assert abs(got[i, j] - pair) <= 1e-12 * max(1.0, abs(pair))

    def test_transpose_symmetry_bitwise(self):
        rng = np.random.default_rng(314)
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            model = random_model(rng, dim)
            x = 3.0 * rng.standard_normal((int(rng.integers(1, 70)), dim))
            y = 3.0 * rng.standard_normal((int(rng.integers(1, 70)), dim))
            assert np.array_equal(score_matrix(model, x, y), score_matrix(model, y, x).T)

    def test_forms_derived_once_per_model(self, monkeypatch):
        rng = np.random.default_rng(7)
        model = random_model(rng, 4)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        before = score(model, a, b)
        forms = model._scoring_forms
        monkeypatch.setattr(np.linalg, "solve", None)  # deriving the forms again would fail
        assert score(model, a, b) == before
        assert plda_distance(model, b, a) == -before
        assert model._scoring_forms is forms

    def test_model_arrays_are_read_only(self):
        model = random_model(np.random.default_rng(1), 3)
        for array in (model.mu, model.between, model.within):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_shape_mismatch(self):
        model = random_model(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="shape"):
            score_matrix(model, np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            score_matrix(model, np.zeros(3), np.zeros((2, 3)))


class TestDistance:
    def test_negated_score(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3)
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert plda_distance(model, a, b) == -score(model, a, b)

    def test_self_distance_minimal_over_pool(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, 4)
        pool = rng.standard_normal((30, 4)) + model.mu
        for i in range(10):
            self_d = plda_distance(model, pool[i], pool[i])
            others = [plda_distance(model, pool[i], pool[j]) for j in range(30) if j != i]
            assert self_d <= min(others)

    def test_ordering_is_reverse_of_score(self):
        rng = np.random.default_rng(22)
        model = random_model(rng, 3)
        x = rng.standard_normal(3)
        ys = rng.standard_normal((10, 3))
        by_dist = sorted(range(10), key=lambda i: plda_distance(model, x, ys[i]))
        by_score = sorted(range(10), key=lambda i: -score(model, x, ys[i]))
        assert by_dist == by_score

    def test_zero_between_all_distances_zero(self):
        model = PldaModel(mu=np.zeros(2), between=np.zeros((2, 2)), within=np.eye(2))
        rng = np.random.default_rng(1)
        assert plda_distance(model, rng.standard_normal(2), rng.standard_normal(2)) == 0.0


class TestPreprocess:
    def test_center(self):
        corpus = Corpus.from_records(
            "c", (Embedding("u1", "s1", "F", [1.0, 0.0]), Embedding("u2", "s2", "F", [3.0, 0.0]))
        )
        out = preprocess(corpus, PreprocessConfig(center=True))
        np.testing.assert_allclose(out.matrix(), [[-1.0, 0.0], [1.0, 0.0]], atol=1e-12)
        assert np.linalg.norm(out.matrix().mean(axis=0)) < 1e-10

    def test_length_normalize(self):
        corpus = Corpus.from_records("c", (Embedding("u1", "s1", "F", [3.0, 4.0]),))
        out = preprocess(corpus, PreprocessConfig(length_normalize=True))
        expected = np.array([3.0, 4.0]) * np.sqrt(2.0) / 5.0
        np.testing.assert_allclose(out.matrix()[0], expected, atol=1e-12)
        assert np.linalg.norm(out.matrix()[0]) == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_identity_when_flags_off(self):
        rng = np.random.default_rng(0)
        corpus = Corpus.from_records(
            "c", tuple(Embedding(f"u{i}", "s1", "F", rng.standard_normal(3)) for i in range(4))
        )
        out = preprocess(corpus, PreprocessConfig())
        assert np.array_equal(out.matrix(), corpus.matrix())

    def test_zero_vector_rejected(self):
        corpus = Corpus.from_records("c", (Embedding("u1", "s1", "F", [0.0, 0.0]),))
        with pytest.raises(ValueError, match="zero vector"):
            preprocess(corpus, PreprocessConfig(length_normalize=True))


class TestTraining:
    def test_zero_iterations_returns_initialization(self):
        corpus, _ = generate(default_spec(n_speakers=10, utts_per_speaker=4, dim=3, seed=1))
        model = train_plda(corpus, 0)
        x = corpus.matrix()
        centered = x - x.mean(axis=0)
        total = centered.T @ centered / x.shape[0]
        np.testing.assert_allclose(model.mu, x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(model.between, 0.5 * total, atol=1e-12)
        np.testing.assert_allclose(model.within, 0.5 * total + 1e-6 * np.eye(3), atol=1e-12)

    def test_log_likelihood_non_decreasing(self):
        corpus, _ = generate(default_spec(n_speakers=30, utts_per_speaker=5, dim=4, seed=2))
        lls = [log_likelihood(train_plda(corpus, k), corpus) for k in range(8)]
        assert all(b - a >= -1e-8 for a, b in zip(lls, lls[1:]))

    def test_parameter_recovery(self):
        spec = default_spec(n_speakers=500, utts_per_speaker=10, dim=4, seed=7)
        corpus, truth = generate(spec)
        model = train_plda(corpus, 25)
        rel_b = np.linalg.norm(model.between - truth.between) / np.linalg.norm(truth.between)
        rel_w = np.linalg.norm(model.within - truth.within) / np.linalg.norm(truth.within)
        assert rel_b < 0.15
        assert rel_w < 0.15

    def test_degenerate_corpus_floors_within(self):
        records = tuple(
            Embedding(f"u{i}", f"s{i % 3}", "F", [1.0, 2.0]) for i in range(9)
        )
        with pytest.warns(UserWarning):
            model = train_plda(Corpus.from_records("deg", records), 3)
        assert np.min(np.linalg.eigvalsh(model.within)) > 0.0

    def test_single_utterance_per_speaker_fixed_point(self):
        """With singleton speakers only the total covariance is identifiable;
        training must complete, keep between + within at the total covariance,
        and align between's principal axis with the data's."""
        rng = np.random.default_rng(9)
        records = tuple(
            Embedding(f"u{i}", f"s{i}", "F", rng.standard_normal(3)) for i in range(50)
        )
        corpus = Corpus.from_records("single", records)
        model = train_plda(corpus, 10)
        x = corpus.matrix()
        total = np.cov(x.T, bias=True)
        combined = model.between + model.within
        assert np.linalg.norm(combined - total) / np.linalg.norm(total) < 1e-6
        top_data = np.linalg.eigh(total)[1][:, -1]
        top_between = np.linalg.eigh(model.between)[1][:, -1]
        assert abs(top_data @ top_between) > 0.99

    def test_requires_two_speakers(self):
        records = (Embedding("u1", "s1", "F", [1.0]), Embedding("u2", "s1", "F", [2.0]))
        with pytest.raises(ValueError, match="two speakers"):
            train_plda(Corpus.from_records("c", records), 1)

    def test_model_invariants_after_training(self):
        corpus, _ = generate(default_spec(n_speakers=20, utts_per_speaker=6, dim=5, seed=3))
        model = train_plda(corpus, 10)
        assert np.min(np.linalg.eigvalsh(model.within)) > 0.0
        assert np.min(np.linalg.eigvalsh(model.between)) > -1e-10
        np.testing.assert_allclose(model.between, model.between.T)
        np.testing.assert_allclose(model.within, model.within.T)


class TestEnrollAndTrials:
    def test_enroll_single_vector(self):
        model = random_model(np.random.default_rng(0), 2)
        e = Embedding("u1", "s1", "F", [1.0, 2.0])
        np.testing.assert_array_equal(enroll_speaker(model, [e]), [1.0, 2.0])

    def test_enroll_mean(self):
        model = random_model(np.random.default_rng(0), 2)
        es = [Embedding("u1", "s1", "F", [0.0, 0.0]), Embedding("u2", "s1", "F", [2.0, 0.0])]
        np.testing.assert_array_equal(enroll_speaker(model, es), [1.0, 0.0])

    def test_enroll_k_copies(self):
        model = random_model(np.random.default_rng(0), 2)
        es = [Embedding(f"u{i}", "s1", "F", [0.5, -1.5]) for i in range(5)]
        np.testing.assert_allclose(enroll_speaker(model, es), [0.5, -1.5], atol=1e-15)

    def test_enroll_empty_errors(self):
        model = random_model(np.random.default_rng(0), 2)
        with pytest.raises(ValueError, match="no embeddings"):
            enroll_speaker(model, [])

    def _setup(self):
        rng = np.random.default_rng(31)
        model = random_model(rng, 3)
        enroll = Corpus.from_records(
            "e",
            tuple(
                Embedding(f"e{s}{u}", f"s{s}", "F", rng.standard_normal(3))
                for s in range(2)
                for u in range(2)
            ),
        )
        test = Corpus.from_records(
            "t",
            tuple(Embedding(f"t{i}", f"s{i % 2}", "F", rng.standard_normal(3)) for i in range(4)),
        )
        trials = TrialList.from_entries(
            (
                TrialEntry("s0", "t0", "target"),
                TrialEntry("s0", "t1", "nontarget"),
                TrialEntry("s1", "t1", "target"),
                TrialEntry("s1", "t2", "nontarget"),
            )
        )
        return model, enroll, test, trials

    def test_score_trials_matches_manual_loop(self):
        model, enroll, test, trials = self._setup()
        scores = score_trials(model, enroll, test, trials)
        assert len(scores) == len(trials)
        groups = by_speaker(enroll)
        test_by_utt = by_utt(test)
        for entry in scores.entries:
            vec = enroll_speaker(model, groups[entry.enroll_spk])
            manual = score(model, vec, test_by_utt[entry.test_utt].vector)
            assert entry.score == pytest.approx(manual, rel=1e-12, abs=1e-12)

    def test_score_trials_order_invariant(self):
        model, enroll, test, trials = self._setup()
        reordered = TrialList.from_entries(tuple(reversed(trials.entries)))
        first = {(e.enroll_spk, e.test_utt): e.score
                 for e in score_trials(model, enroll, test, trials).entries}
        second = {(e.enroll_spk, e.test_utt): e.score
                  for e in score_trials(model, enroll, test, reordered).entries}
        assert first == second

    def test_score_trials_unknown_id(self):
        model, enroll, test, trials = self._setup()
        bad = TrialList.from_entries(trials.entries + (TrialEntry("ghost", "t0", "target"),))
        with pytest.raises(ValueError, match="ghost"):
            score_trials(model, enroll, test, bad)

    def test_labels_carried_through(self):
        model, enroll, test, trials = self._setup()
        scores = score_trials(model, enroll, test, trials)
        assert [e.label for e in scores.entries] == [e.label for e in trials.entries]

    def test_score_averaging_alternative(self):
        model, enroll, test, trials = self._setup()
        averaged_scores = score_trials(model, enroll, test, trials, aggregate_embeddings=False)
        groups = by_speaker(enroll)
        test_by_utt = by_utt(test)
        for entry in averaged_scores.entries:
            per_utt = [
                score(model, rec.vector, test_by_utt[entry.test_utt].vector)
                for rec in groups[entry.enroll_spk]
            ]
            assert entry.score == pytest.approx(np.mean(per_utt), rel=1e-12)
        default = score_trials(model, enroll, test, trials)
        assert any(
            a.score != b.score for a, b in zip(default.entries, averaged_scores.entries)
        )


    @pytest.mark.parametrize("aggregate", [True, False])
    def test_score_trials_matches_pair_loop_on_shuffled_trials(self, aggregate):
        corpus, _ = generate(default_spec(n_speakers=16, utts_per_speaker=5, dim=4, seed=41))
        model = train_plda(corpus, 3)
        enroll = Corpus.from_records(
            "e", tuple(r for r in corpus.records if r.utt_id.endswith(("0", "1")))
        )
        test = Corpus.from_records(
            "t", tuple(r for r in corpus.records if not r.utt_id.endswith(("0", "1")))
        )
        entries = [
            TrialEntry(spk, r.utt_id, "target" if r.spk_id == spk else "nontarget")
            for spk in by_speaker(enroll)
            for r in test.records
        ]
        order = np.random.default_rng(42).permutation(len(entries))
        trials = TrialList.from_entries(tuple(entries[i] for i in order))
        got = score_trials(model, enroll, test, trials, aggregate_embeddings=aggregate)
        groups = by_speaker(enroll)
        test_by_utt = by_utt(test)
        for entry, trial in zip(got.entries, trials.entries):
            assert (entry.enroll_spk, entry.test_utt, entry.label) == (
                trial.enroll_spk, trial.test_utt, trial.label)
            y = test_by_utt[entry.test_utt].vector
            if aggregate:
                want = score(model, enroll_speaker(model, groups[entry.enroll_spk]), y)
            else:
                want = np.mean([score(model, r.vector, y) for r in groups[entry.enroll_spk]])
            assert entry.score == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestModelIO:
    def test_round_trip(self, tmp_path):
        model = random_model(np.random.default_rng(77), 6)
        path = tmp_path / "m.plda"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.mu, model.mu)
        assert np.array_equal(loaded.between, model.between)
        assert np.array_equal(loaded.within, model.within)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.plda"
        path.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_truncated(self, tmp_path):
        model = random_model(np.random.default_rng(0), 3)
        path = tmp_path / "m.plda"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="expected"):
            load_model(path)
