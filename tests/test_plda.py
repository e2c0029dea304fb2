import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from anonvox import (
    Corpus,
    PldaModel,
    TrialList,
    default_spec,
    generate,
    load_model,
    save_model,
    score_trials,
    train_plda,
)
from anonvox.anonymize import _ranked_rows
from anonvox.plda import _speaker_stats, score_matrix

from conftest import by_speaker, by_utt, corpus_of, log_likelihood

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
        got = score_matrix(model, [[0.0]], [[0.0]])[0, 0]
        assert got == pytest.approx(LN_2_OVER_SQRT3, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_dense_gaussian_oracle(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(40):
            model = random_model(rng, dim)
            x1 = rng.standard_normal(dim)
            x2 = rng.standard_normal(dim)
            got = score_matrix(model, [x1], [x2])[0, 0]
            assert got == pytest.approx(dense_llr(model, x1, x2), abs=1e-9)

    def test_zero_between_scores_zero(self):
        model = PldaModel(mu=np.zeros(3), between=np.zeros((3, 3)), within=np.eye(3))
        rng = np.random.default_rng(4)
        for _ in range(5):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert score_matrix(model, [x], [y])[0, 0] == 0.0

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 4)
        for _ in range(20):
            a, b = rng.standard_normal(4), rng.standard_normal(4)
            assert score_matrix(model, [a], [b])[0, 0] == score_matrix(model, [b], [a])[0, 0]

    def test_translation_consistency(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, 5)
        shift = rng.standard_normal(5)
        shifted = PldaModel(model.mu + shift, model.between, model.within)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        assert score_matrix(model, [a], [b])[0, 0] == pytest.approx(
            score_matrix(shifted, [a + shift], [b + shift])[0, 0], abs=1e-9
        )

    def test_dimension_mismatch(self):
        model = random_model(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="shape"):
            score_matrix(model, [[1.0, 2.0]], [[1.0, 2.0, 3.0]])


_SYMMETRY_MODEL = random_model(np.random.default_rng(2718), 3)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3),
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3),
)
def test_score_symmetry_property(a, b):
    model = _SYMMETRY_MODEL
    assert score_matrix(model, [a], [b])[0, 0] == score_matrix(model, [b], [a])[0, 0]


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
                    pair = score_matrix(model, [x[i]], [y[j]])[0, 0]
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

    @pytest.mark.parametrize("x_rows, y_rows", [(3, 40), (40, 3), (17, 17)])
    def test_transpose_symmetry_bitwise_at_each_row_order(self, x_rows, y_rows):
        # G goes into the operand with fewer rows; equal counts average both orders
        rng = np.random.default_rng(x_rows * y_rows)
        model = random_model(rng, 6)
        x = 3.0 * rng.standard_normal((x_rows, 6))
        y = 3.0 * rng.standard_normal((y_rows, 6))
        assert np.array_equal(score_matrix(model, x, y), score_matrix(model, y, x).T)

    def test_forms_derived_once_per_model(self, monkeypatch):
        rng = np.random.default_rng(7)
        model = random_model(rng, 4)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        before = score_matrix(model, [a], [b])[0, 0]
        forms = model._scoring_forms
        monkeypatch.setattr(np.linalg, "solve", None)  # deriving the forms again would fail
        assert score_matrix(model, [a], [b])[0, 0] == before
        assert score_matrix(model, [b], [a])[0, 0] == before
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
    """The anonymizer's dissimilarity is the negated LLR."""

    def test_negated_score(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3)
        a, pool = rng.standard_normal(3), rng.standard_normal((8, 3))
        (farthest,) = _ranked_rows(a[None, :], pool, model, 1)
        pair_scores = [score_matrix(model, [a], [p])[0, 0] for p in pool]
        assert farthest.tolist() == [int(np.argmin(pair_scores))]

    def test_self_distance_minimal_over_pool(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, 4)
        pool = rng.standard_normal((30, 4)) + model.mu
        for i in range(10):
            self_d = -score_matrix(model, [pool[i]], [pool[i]])[0, 0]
            others = [-score_matrix(model, [pool[i]], [pool[j]])[0, 0]
                      for j in range(30) if j != i]
            assert self_d <= min(others)

    def test_ordering_is_reverse_of_score(self):
        rng = np.random.default_rng(22)
        model = random_model(rng, 3)
        x = rng.standard_normal(3)
        ys = rng.standard_normal((10, 3))
        (by_dist,) = _ranked_rows(x[None, :], ys, model, 10)
        by_score = sorted(range(10), key=lambda i: score_matrix(model, [x], [ys[i]])[0, 0])
        assert by_dist.tolist() == by_score

    def test_zero_between_all_distances_zero(self):
        model = PldaModel(mu=np.zeros(2), between=np.zeros((2, 2)), within=np.eye(2))
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        assert -score_matrix(model, [x], [y])[0, 0] == 0.0


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
        # the mean of nine 0.1s is not 0.1: that corpus's spread is rounding noise
        for vector in ([1.0, 2.0], [0.1, 0.8]):
            rows = ((f"u{i}", f"s{i % 3}", "F", vector) for i in range(9))
            with pytest.warns(UserWarning, match="within-speaker covariance collapsed"), \
                    pytest.warns(UserWarning, match="^degenerate corpus"):
                model = train_plda(corpus_of("deg", rows), 3)
            assert np.min(np.linalg.eigvalsh(model.within)) > 5e-7

    def test_single_utterance_per_speaker_fixed_point(self):
        """With singleton speakers only the total covariance is identifiable;
        training must complete, keep between + within at the total covariance,
        and align between's principal axis with the data's."""
        rng = np.random.default_rng(9)
        corpus = corpus_of("single", ((f"u{i}", f"s{i}", "F", rng.standard_normal(3))
                                      for i in range(50)))
        model = train_plda(corpus, 10)
        x = corpus.matrix()
        total = np.cov(x.T, bias=True)
        combined = model.between + model.within
        assert np.linalg.norm(combined - total) / np.linalg.norm(total) < 1e-6
        top_data = np.linalg.eigh(total)[1][:, -1]
        top_between = np.linalg.eigh(model.between)[1][:, -1]
        assert abs(top_data @ top_between) > 0.99

    def test_requires_two_speakers(self):
        corpus = corpus_of("c", [("u1", "s1", "F", [1.0]), ("u2", "s1", "F", [2.0])])
        with pytest.raises(ValueError, match="two speakers"):
            train_plda(corpus, 1)

    def test_model_invariants_after_training(self):
        corpus, _ = generate(default_spec(n_speakers=20, utts_per_speaker=6, dim=5, seed=3))
        model = train_plda(corpus, 10)
        assert np.min(np.linalg.eigvalsh(model.within)) > 0.0
        assert np.min(np.linalg.eigvalsh(model.between)) > -1e-10
        np.testing.assert_allclose(model.between, model.between.T)
        np.testing.assert_allclose(model.within, model.within.T)


def _enrolled_score(model, enroll_vectors, test_vector):
    """The score_trials score of one speaker enrolled from ``enroll_vectors``
    against one test utterance."""
    enroll = corpus_of("e", ((f"e{i}", "s1", "F", v) for i, v in enumerate(enroll_vectors)))
    test = corpus_of("t", [("t1", "s2", "F", test_vector)])
    (got,) = score_trials(model, enroll, test, TrialList(["s1"], ["t1"], [False])).score
    return got


class TestEnrollAndTrials:
    def test_enroll_single_vector(self):
        model = random_model(np.random.default_rng(0), 2)
        y = [0.3, -0.7]
        want = score_matrix(model, [[1.0, 2.0]], [y])[0, 0]
        assert _enrolled_score(model, [[1.0, 2.0]], y) == want

    def test_enroll_mean(self):
        model = random_model(np.random.default_rng(0), 2)
        y = [0.3, -0.7]
        want = score_matrix(model, [[1.0, 0.0]], [y])[0, 0]
        assert _enrolled_score(model, [[0.0, 0.0], [2.0, 0.0]], y) == want

    def test_enroll_k_copies(self):
        model = random_model(np.random.default_rng(0), 2)
        y = [0.3, -0.7]
        got = _enrolled_score(model, [[0.5, -1.5]] * 5, y)
        want = score_matrix(model, [[0.5, -1.5]], [y])[0, 0]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_enroll_empty_errors(self):
        model = random_model(np.random.default_rng(0), 2)
        test = corpus_of("t", [("t1", "s2", "F", [0.3, -0.7])])
        with pytest.raises(ValueError, match="empty"):
            score_trials(model, corpus_of("e", []), test, TrialList(["s1"], ["t1"], [False]))

    def _setup(self):
        rng = np.random.default_rng(31)
        model = random_model(rng, 3)
        enroll = corpus_of("e", ((f"e{s}{u}", f"s{s}", "F", rng.standard_normal(3))
                                 for s in range(2) for u in range(2)))
        test = corpus_of("t", ((f"t{i}", f"s{i % 2}", "F", rng.standard_normal(3))
                               for i in range(4)))
        trials = TrialList(["s0", "s0", "s1", "s1"], ["t0", "t1", "t1", "t2"],
                           [True, False, True, False])
        return model, enroll, test, trials

    def test_score_trials_matches_manual_loop(self):
        model, enroll, test, trials = self._setup()
        scores = score_trials(model, enroll, test, trials)
        assert len(scores) == len(trials)
        groups = by_speaker(enroll)
        test_by_utt = by_utt(test)
        rows = zip(trials.enroll_spk.tolist(), trials.test_utt.tolist(), scores.score.tolist())
        for spk, utt, got in rows:
            manual = score_matrix(model, [groups[spk].mean(axis=0)], [test_by_utt[utt]])[0, 0]
            assert got == pytest.approx(manual, rel=1e-12, abs=1e-12)

    def test_score_trials_order_invariant(self):
        model, enroll, test, trials = self._setup()
        reordered = TrialList(trials.enroll_spk[::-1], trials.test_utt[::-1],
                              trials.is_target[::-1])
        first, second = (
            dict(zip(zip(s.trials.enroll_spk.tolist(), s.trials.test_utt.tolist()),
                     s.score.tolist()))
            for s in (score_trials(model, enroll, test, t) for t in (trials, reordered))
        )
        assert first == second

    def test_score_trials_unknown_id(self):
        model, enroll, test, trials = self._setup()
        bad = TrialList([*trials.enroll_spk, "ghost"], [*trials.test_utt, "t0"],
                        [*trials.is_target, True])
        with pytest.raises(ValueError, match="ghost"):
            score_trials(model, enroll, test, bad)

    @pytest.mark.parametrize("spk, utt, labels, message", [
        (["ghost"], ["nosuch"], [False], "unknown enrollment speaker 'ghost' in trial list"),
        (["s0", "ghost"], ["nosuch", "t0"], [False, False],
         "unknown test utterance 'nosuch' in trial list"),
        (["s0", "s0", "ghost"], ["t0", "t1", "t2"], [False, False, False],
         "unknown enrollment speaker 'ghost' in trial list"),
    ], ids=["speaker-before-utterance-on-one-row", "earlier-row-first",
            "unknown-id-before-contradicted-label"])
    def test_score_trials_reports_its_first_fault(self, spk, utt, labels, message):
        model, enroll, test, _ = self._setup()
        with pytest.raises(ValueError) as info:
            score_trials(model, enroll, test, TrialList(spk, utt, labels))
        assert str(info.value) == message

    @pytest.mark.parametrize("row, message", [
        (1, "trial ('s0', 't1') is labeled target but s0 does not own the utterance"),
        (2, "trial ('s1', 't1') is labeled nontarget but s1 owns the utterance"),
    ], ids=["labeled-target", "labeled-nontarget"])
    def test_score_trials_refuses_labels_the_corpora_contradict(self, row, message):
        model, enroll, test, trials = self._setup()
        labels = trials.is_target.copy()
        labels[row] = not labels[row]
        flipped = TrialList(trials.enroll_spk, trials.test_utt, labels)
        with pytest.raises(ValueError) as info:
            score_trials(model, enroll, test, flipped)
        assert str(info.value) == message

    def test_labels_carried_through(self):
        model, enroll, test, trials = self._setup()
        scores = score_trials(model, enroll, test, trials)
        assert scores.trials is trials

    def test_score_trials_matches_pair_loop_on_shuffled_trials(self):
        corpus, _ = generate(default_spec(n_speakers=16, utts_per_speaker=5, dim=4, seed=41))
        model = train_plda(corpus, 3)
        rows = list(zip(corpus.utt_id.tolist(), corpus.spk_id.tolist(),
                        corpus.gender.tolist(), corpus.matrix()))
        enroll = corpus_of("e", (r for r in rows if r[0].endswith(("0", "1"))))
        test = corpus_of("t", (r for r in rows if not r[0].endswith(("0", "1"))))
        pairs = [(spk, utt, spk == utt_spk) for spk in by_speaker(enroll)
                 for utt, utt_spk in zip(test.utt_id.tolist(), test.spk_id.tolist())]
        order = np.random.default_rng(42).permutation(len(pairs))
        trials = TrialList(*(list(col) for col in zip(*(pairs[i] for i in order))))
        got = score_trials(model, enroll, test, trials)
        for name in ("enroll_spk", "test_utt", "is_target"):
            assert np.array_equal(getattr(got.trials, name), getattr(trials, name))
        groups = by_speaker(enroll)
        test_by_utt = by_utt(test)
        rows = zip(got.trials.enroll_spk.tolist(), got.trials.test_utt.tolist(),
                   got.score.tolist())
        for spk, utt, value in rows:
            want = score_matrix(model, [groups[spk].mean(axis=0)], [test_by_utt[utt]])[0, 0]
            assert value == pytest.approx(want, rel=1e-12, abs=1e-12)


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

    @pytest.mark.parametrize("mu, between, within, fault", [
        ([], np.zeros((0, 0)), np.zeros((0, 0)), "model dimension must be positive, got D=0"),
        ([np.nan, 0.0], np.eye(2), np.eye(2), "mu has non-finite entries"),
        ([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]], np.eye(2), "between covariance is not symmetric"),
        ([0.0, 0.0], np.eye(2), np.diag([1.0, 0.0]),
         "within covariance must be positive definite"),
    ], ids=["zero-dim", "nan-mu", "asymmetric-between", "singular-within"])
    def test_every_fault_names_the_file(self, tmp_path, mu, between, within, fault):
        path = tmp_path / "m.plda"
        path.write_bytes(b"PLD1" + struct.pack("<I", len(mu)) + b"".join(
            np.asarray(a, "<f8").tobytes() for a in (mu, between, within)))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {fault}$"):
            load_model(path)


def per_speaker_scatter(corpus) -> np.ndarray:
    """The pooled within-speaker scatter summed one speaker at a time: the
    oracle of ``_speaker_stats``'s one product."""
    scatter = np.zeros((corpus.dim, corpus.dim))
    for vectors in by_speaker(corpus).values():
        dev = vectors - vectors.mean(axis=0)
        scatter += dev.T @ dev
    return scatter


def interleaved_corpus(dim: int, seed: int) -> Corpus:
    """Speakers of 1 to 13 utterances whose rows are shuffled together."""
    rng = np.random.default_rng(seed)
    counts = [1, 2, 3, 5, 8, 13, 4, 7]
    spk = np.repeat([f"s{i}" for i in range(len(counts))], counts)
    offsets = np.repeat(rng.standard_normal((len(counts), dim)), counts, axis=0)
    order = rng.permutation(len(spk))
    vectors = (offsets + 0.5 * rng.standard_normal((len(spk), dim)))[order]
    return Corpus("mixed", [f"u{i:02d}" for i in range(len(spk))], spk[order],
                  ["F"] * len(spk), vectors)


class TestSpeakerStats:
    @pytest.mark.parametrize("dim", [3, 64])
    def test_scatter_equals_the_per_speaker_sum(self, dim):
        corpus = interleaved_corpus(dim, seed=dim)
        speakers, counts, means, scatter = _speaker_stats(corpus)
        groups = by_speaker(corpus)
        assert counts.tolist() == [len(groups[spk]) for spk in speakers]
        np.testing.assert_allclose(means, [groups[spk].mean(axis=0) for spk in speakers],
                                   rtol=1e-12)
        oracle = per_speaker_scatter(corpus)
        # relative to each entry, and to the largest one for entries near zero
        np.testing.assert_allclose(scatter, oracle, rtol=1e-12,
                                   atol=1e-12 * np.abs(oracle).max())

    def test_row_order_does_not_change_the_model(self):
        # a row paired with another speaker's mean would change the scatter
        corpus = interleaved_corpus(6, seed=4)
        order = np.argsort(corpus.spk_id, kind="stable")
        grouped = Corpus(corpus.name, corpus.utt_id[order], corpus.spk_id[order],
                         corpus.gender[order], corpus.matrix()[order])
        shuffled, model = train_plda(corpus, 10), train_plda(grouped, 10)
        for field in ("mu", "between", "within"):
            np.testing.assert_allclose(getattr(shuffled, field), getattr(model, field),
                                       rtol=0, atol=1e-12)
