import math
import re
import struct
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anonvox import embeddings
from anonvox import (
    Corpus,
    TrialList,
    TrialPolicy,
    load_embeddings,
    load_scores,
    load_trials,
    make_trials,
    save_embeddings,
    save_scores,
    save_trials,
    ScoreSet,
)

from anonvox.cli import main

from conftest import corpus_of

_RULE = "must be non-empty and contain no whitespace or control character"
_HASH = "must not start with '#'"


def _corpus(spec, dim=2, name="c"):
    """spec: iterable of (utt, spk, gender, vector-or-None)."""
    rng = np.random.default_rng(0)
    return corpus_of(name, ((utt, spk, gender, rng.standard_normal(dim) if vec is None else vec)
                            for utt, spk, gender, vec in spec))


class TestEmbeddingValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="^corpus 'c': embedding 'u1': non-finite coordinate$"):
            Corpus("c", ["u1"], ["s1"], ["F"], [[0.0, np.inf]])

    def test_rejects_bad_gender(self):
        message = "^corpus 'c': " + re.escape("gender must be one of ('F', 'M'), got 'X'") + "$"
        with pytest.raises(ValueError, match=message):
            Corpus("c", ["u1"], ["s1"], ["X"], [[0.0]])

    def test_gender_is_checked_as_given(self, tmp_path):
        # a string array drops trailing NULs: "F\x00" would become "F"
        with pytest.raises(ValueError, match=r"got 'F\\x00'$"):
            Corpus("c", ["u1"], ["s1"], ["F\x00"], [[0.0]])
        path = tmp_path / "c.txt"
        path.write_text("u1 s1 F 1.0\nu2 s2 F\x00 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"c\.txt:2: gender must be one of "
                                             r"\('F', 'M'\), got 'F\\x00'$"):
            load_embeddings(path, "text")
        # on one line a bad coordinate comes before a bad gender
        path.write_text("u1 s1 F 1.0\nu2 s2 X one\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"c\.txt:2: bad coordinate: "):
            load_embeddings(path, "text")

    def test_rejects_empty_vector(self):
        with pytest.raises(ValueError,
                           match="^corpus 'c': embedding 'u1': vector must be non-empty and 1-D$"):
            Corpus("c", ["u1"], ["s1"], ["F"], np.empty((1, 0)))

    def test_vector_is_immutable(self):
        corpus = Corpus("c", ["u1"], ["s1"], ["F"], [[1.0, 2.0]])
        (row,) = corpus.records
        assert (row.utt_id, row.spk_id, row.gender) == ("u1", "s1", "F")
        for vector in (row.vector, corpus.matrix()[0]):
            with pytest.raises(ValueError):
                vector[0] = 3.0

    def test_corpus_rejects_duplicate_utt(self):
        with pytest.raises(ValueError, match="duplicate"):
            _corpus([("u1", "s1", "F", None), ("u1", "s2", "F", None)])

    def test_corpus_rejects_mixed_dims(self):
        with pytest.raises(ValueError, match="inhomogeneous"):
            Corpus("c", ["u1", "u2"], ["s1", "s1"], ["F", "F"], [[1.0], [1.0, 2.0]])

    def test_corpus_rejects_conflicting_speaker_gender(self):
        with pytest.raises(ValueError, match="conflicting genders"):
            _corpus([("u1", "s1", "F", None), ("u2", "s1", "M", None)])


class TestTextFormat:
    def test_single_line(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("u1 s1 F 0.0 1.0\n")
        corpus = load_embeddings(path, "text")
        assert len(corpus) == 1 and corpus.dim == 2
        assert (corpus.utt_id.tolist(), corpus.spk_id.tolist(), corpus.gender.tolist()) == (
            ["u1"], ["s1"], ["F"])
        np.testing.assert_array_equal(corpus.matrix(), [[0.0, 1.0]])

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="empty corpus"):
            load_embeddings(path, "text")

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\nu1 s1 M 1.5\n")
        assert len(load_embeddings(path, "text")) == 1

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("u1 s1 F 1.0\nu2 s1 F nope\n")
        with pytest.raises(ValueError, match=":2:"):
            load_embeddings(path, "text")

    def test_dimension_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("u1 s1 F 1.0 2.0\nu2 s1 F 1.0\n")
        with pytest.raises(ValueError, match="dimension mismatch"):
            load_embeddings(path, "text")

    def test_decimal_rendering_is_positional(self, tmp_path):
        corpus = _corpus([("u1", "s1", "F", [0.5, 5e-4])], dim=2)
        path = tmp_path / "r.txt"
        save_embeddings(corpus, path, "text")
        text = path.read_text()
        assert "0.5" in text and "e" not in text.split(" ", 3)[3].lower()

    def test_text_round_trip_nine_digits(self, tmp_path):
        rng = np.random.default_rng(5)
        corpus = _corpus(
            [(f"u{i}", f"s{i % 3}", "F", rng.standard_normal(4) * 10.0**rng.integers(-4, 4))
             for i in range(20)],
            dim=4,
        )
        path = tmp_path / "r.txt"
        save_embeddings(corpus, path, "text")
        loaded = load_embeddings(path, "text")
        np.testing.assert_allclose(loaded.matrix(), corpus.matrix(), rtol=1e-8)


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        corpus = _corpus(
            [(f"utt{i:03d}", f"spk{i % 7}", "FM"[(i % 7) % 2], rng.standard_normal(16))
             for i in range(100)],
            dim=16,
        )
        path = tmp_path / "c.xvec"
        save_embeddings(corpus, path, "binary")
        loaded = load_embeddings(path, "binary")
        for column in ("utt_id", "spk_id", "gender"):
            assert np.array_equal(getattr(loaded, column), getattr(corpus, column))
        assert np.array_equal(loaded.matrix(), corpus.matrix())  # bit exact

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.xvec"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_embeddings(path, "binary")

    def test_truncated_file(self, tmp_path):
        corpus = _corpus([("u1", "s1", "F", None)])
        path = tmp_path / "t.xvec"
        save_embeddings(corpus, path, "binary")
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError):
            load_embeddings(path, "binary")

    def test_save_empty_corpus_errors(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            save_embeddings(corpus_of("c", []), tmp_path / "e.xvec", "binary")


class TestMakeTrials:
    def test_exhaustive_counts(self):
        enroll = _corpus(
            [("e1", "s1", "F", None), ("e2", "s2", "F", None)], dim=2, name="enroll"
        )
        trial = _corpus(
            [("t1", "s1", "F", None), ("t2", "s1", "F", None),
             ("t3", "s2", "F", None), ("t4", "s2", "F", None)],
            dim=2,
            name="trial",
        )
        trials = make_trials(enroll, trial)
        assert trials.n_target == 4
        assert trials.n_nontarget == 4

    def test_single_speaker_no_nontargets(self):
        enroll = _corpus([("e1", "s1", "F", None)])
        trial = _corpus([("t1", "s1", "F", None), ("t2", "s1", "F", None)])
        trials = make_trials(enroll, trial)
        assert trials.n_target == 2 and trials.n_nontarget == 0

    def test_cross_gender_blocked_by_policy(self):
        enroll = _corpus([("e1", "s1", "F", None), ("e2", "s2", "M", None)])
        trial = _corpus([("t1", "s1", "F", None), ("t2", "s2", "M", None)])
        trials = make_trials(enroll, trial, TrialPolicy(same_gender_only=True))
        assert trials.n_nontarget == 0

    def test_enrollment_overlap_excluded_from_targets(self):
        enroll = _corpus([("x1", "s1", "F", None), ("e2", "s2", "F", None)])
        trial = _corpus([("x1", "s1", "F", None), ("t2", "s2", "F", None)])
        with pytest.warns(UserWarning, match="no trial utterances"):
            trials = make_trials(enroll, trial)
        assert not (trials.is_target & (trials.test_utt == "x1")).any()
        assert trials.n_target == 1

    def test_subsample_deterministic(self):
        enroll = _corpus([(f"e{i}", f"s{i}", "F", None) for i in range(4)])
        trial = _corpus([(f"t{i}", f"s{i % 4}", "F", None) for i in range(12)])
        policy = TrialPolicy(max_nontargets=10, seed=3)
        first = make_trials(enroll, trial, policy)
        second = make_trials(enroll, trial, policy)
        assert first == second
        assert first.n_nontarget == 10

    def test_labels_partition_entries(self):
        enroll = _corpus([("e1", "s1", "F", None), ("e2", "s2", "F", None)])
        trial = _corpus([("t1", "s1", "F", None), ("t2", "s2", "F", None)])
        trials = make_trials(enroll, trial)
        pairs = list(zip(trials.enroll_spk.tolist(), trials.test_utt.tolist()))
        assert len(set(pairs)) == len(pairs)
        assert trials.n_target + trials.n_nontarget == len(trials)

    def test_exhaustive_target_count_matches_enumeration(self):
        rng = np.random.default_rng(8)
        enroll = _corpus(
            [(f"e{s}_{u}", f"s{s}", "FM"[s % 2], None) for s in range(5) for u in range(2)],
            dim=3,
        )
        speakers = [int(rng.integers(0, 5)) for _ in range(30)]
        trial = _corpus(
            [(f"t{i}", f"s{s}", "FM"[s % 2], None) for i, s in enumerate(speakers)],
            dim=3,
        )
        trials = make_trials(enroll, trial)
        expected_targets = sum(trial.spk_id.tolist().count(s) for s in set(enroll.spk_id.tolist()))
        assert trials.n_target == expected_targets


class TestTrialAndScoreFiles:
    def test_trial_round_trip(self, tmp_path):
        trials = TrialList(["s1", "s1"], ["t1", "t2"], [True, False])
        path = tmp_path / "trials.txt"
        save_trials(trials, path)
        assert load_trials(path) == trials

    def test_score_round_trip_six_decimals(self, tmp_path):
        trials = TrialList(["s1", "s2"], ["t1", "t2"], [True, False])
        scores = ScoreSet(trials, [1.23456789, -0.5])
        path = tmp_path / "scores.txt"
        save_scores(scores, path)
        loaded = load_scores(path, trials)
        assert loaded.score[0] == pytest.approx(1.234568, abs=5e-7)
        assert loaded.trials == trials
        assert "1.234568" in path.read_text()

    def test_with_labels_missing_pair(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("s9 t9 0.25\n")
        with pytest.raises(ValueError, match=r"scores\.txt:1: score pair \('s9', 't9'\) not"):
            load_scores(path, TrialList(["s1"], ["t1"], [True]))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_binary_round_trip_property(tmp_path_factory, vecs):
    corpus = corpus_of("prop", ((f"u{i}", f"s{i % 3}", "M", v) for i, v in enumerate(vecs)))
    path = tmp_path_factory.mktemp("rt") / "c.xvec"
    save_embeddings(corpus, path, "binary")
    loaded = load_embeddings(path, "binary")
    assert np.array_equal(loaded.matrix(), corpus.matrix())


def _per_record_trials(enroll, trial, policy):
    """The per-record enumeration make_trials replaced, kept as its oracle."""
    own_utts = {}
    for utt, spk in zip(enroll.utt_id.tolist(), enroll.spk_id.tolist()):
        own_utts.setdefault(spk, set()).add(utt)
    enroll_gender = enroll.speaker_gender()
    trial_rows = sorted(zip(trial.utt_id.tolist(), trial.spk_id.tolist(), trial.gender.tolist()))
    speakers = sorted(own_utts)
    rows = []
    for spk in speakers:
        rows.extend(
            (spk, utt, "target")
            for utt, utt_spk, _ in trial_rows
            if utt_spk == spk and utt not in own_utts[spk]
        )
    candidates = []
    for spk in speakers:
        for utt, utt_spk, gender in trial_rows:
            if utt_spk == spk:
                continue
            if policy.same_gender_only and gender != enroll_gender[spk]:
                continue
            candidates.append((spk, utt, "nontarget"))
    if policy.max_nontargets is not None and policy.max_nontargets < len(candidates):
        rng = np.random.default_rng(policy.seed)
        keep = rng.choice(len(candidates), size=policy.max_nontargets, replace=False)
        candidates = [candidates[i] for i in sorted(keep)]
    return rows + candidates


class TestMakeTrialsMatchesPerRecordOracle:
    @staticmethod
    def _corpora(seed):
        rng = np.random.default_rng(seed)
        gender = {f"s{k}": "FM"[int(rng.integers(0, 2))] for k in range(9)}
        # s0-s5 enroll, s3-s8 appear in the trial corpus, so s0-s2 have no
        # trials and s6-s8 are impostor-only; ids are shuffled, not sorted
        enroll_spec = [(f"e{k}_{u}", f"s{k}", gender[f"s{k}"], None)
                       for k in range(6) for u in range(2)]
        trial_spec = [(f"t{i:02d}", f"s{k}", gender[f"s{k}"], None)
                      for i, k in enumerate(rng.integers(3, 9, size=30))]
        # an utterance enrolled for its own speaker never makes a target; the
        # same id enrolled for another speaker does not block one
        enroll_spec.append(("x_own", "s4", gender["s4"], None))
        enroll_spec.append(("x_other", "s5", gender["s5"], None))
        trial_spec.append(("x_own", "s4", gender["s4"], None))
        trial_spec.append(("x_other", "s3", gender["s3"], None))
        enroll_spec = [enroll_spec[i] for i in rng.permutation(len(enroll_spec))]
        trial_spec = [trial_spec[i] for i in rng.permutation(len(trial_spec))]
        return _corpus(enroll_spec, name="enroll"), _corpus(trial_spec, name="trial")

    @pytest.mark.parametrize("same_gender_only", [True, False])
    @pytest.mark.parametrize("max_nontargets", [None, 0, 17, 10_000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_rows_in_same_order(self, same_gender_only, max_nontargets, seed):
        enroll, trial = self._corpora(seed)
        policy = TrialPolicy(same_gender_only=same_gender_only,
                             max_nontargets=max_nontargets, seed=seed + 10)
        with pytest.warns(UserWarning, match="no trial utterances"):
            got = make_trials(enroll, trial, policy)
        want = _per_record_trials(enroll, trial, policy)
        labels = np.where(got.is_target, "target", "nontarget").tolist()
        assert list(zip(got.enroll_spk.tolist(), got.test_utt.tolist(), labels)) == want
        assert ("s4", "x_own", "target") not in want
        assert ("s3", "x_other", "target") in want


class TestColumns:
    def test_columns_are_read_only(self):
        trials = TrialList(np.array(["s1"]), np.array(["t1"]), np.array([True]))
        scores = ScoreSet(trials, [0.5])
        for column in (trials.enroll_spk, trials.is_target, scores.score):
            with pytest.raises(ValueError):
                column[0] = column[0]

    def test_rejects_non_boolean_labels(self):
        with pytest.raises(ValueError, match="boolean"):
            TrialList(["s1"], ["t1"], ["target"])

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="length"):
            TrialList(["s1", "s2"], ["t1"], [True, False])
        with pytest.raises(ValueError, match="length"):
            ScoreSet(TrialList(["s1"], ["t1"], [True]), [0.5, 1.0])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError, match=r"duplicate trial pair \('s1', 't1'\)"):
            TrialList(["s1", "s2", "s1"], ["t1", "t1", "t1"], [True, False, True])

    def test_rejects_non_finite_score(self):
        with pytest.raises(ValueError, match=r"score for \(s2, t2\) is not finite"):
            ScoreSet(TrialList(["s1", "s2"], ["t1", "t2"], [True, False]), [0.5, np.nan])


class TestWithLabelsJoin:
    """``load_scores`` joins each score to its pair in the trial list it is given."""

    def _trials(self):
        """(enroll_spk, test_utt, is_target) rows in shuffled order."""
        rng = np.random.default_rng(4)
        rows = [(f"s{s}", f"u{u}", (s + u) % 5 == 0) for s in range(7) for u in range(11)]
        return [rows[i] for i in rng.permutation(len(rows))]

    @staticmethod
    def _trial_list(rows):
        spk, utt, is_target = zip(*rows)
        return TrialList(spk, utt, np.array(is_target))

    @staticmethod
    def _score_file(tmp_path, rows):
        path = tmp_path / "scores.txt"
        path.write_text("".join(f"{spk} {utt} {score}\n" for spk, utt, score in rows))
        return path

    def test_labels_follow_pairs_against_shuffled_trial_list(self, tmp_path):
        rows = self._trials()
        trials = self._trial_list(rows)
        rng = np.random.default_rng(5)
        picked = [rows[i] for i in rng.permutation(len(rows))[:50]]
        path = self._score_file(tmp_path,
                                [(spk, utt, i) for i, (spk, utt, _) in enumerate(picked)])
        labeled = load_scores(path, trials)
        got = zip(labeled.trials.enroll_spk.tolist(), labeled.trials.test_utt.tolist(),
                  labeled.score.tolist(), labeled.trials.is_target.tolist())
        assert list(got) == [(spk, utt, float(i), t) for i, (spk, utt, t) in enumerate(picked)]

    def test_aligned_scores_take_trial_labels(self, tmp_path):
        trials = self._trial_list(self._trials())
        save_scores(ScoreSet(trials, np.arange(len(trials))), tmp_path / "scores.txt")
        assert load_scores(tmp_path / "scores.txt", trials).trials == trials

    def test_rejects_pair_missing_from_shuffled_trial_list(self, tmp_path):
        trials = self._trial_list(self._trials())
        # both ids occur in the trial list, but never together
        path = self._score_file(tmp_path, [("s1", "u1", 0), ("s2", "u3", 1), ("s99", "u1", 2)])
        with pytest.raises(ValueError, match=r":3: score pair \('s99', 'u1'\) not present"):
            load_scores(path, trials)
        trials = self._trial_list(r for r in self._trials() if r[1] != "u3")
        with pytest.raises(ValueError, match=r":2: score pair \('s2', 'u3'\) not present"):
            load_scores(path, trials)

    def test_earlier_of_missing_and_duplicate_pair_is_reported(self, tmp_path):
        trials = self._trial_list(self._trials())
        path = self._score_file(tmp_path, [("s1", "u1", 0), ("s9", "u1", 1), ("s1", "u1", 2)])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: score pair "
                           r"\('s9', 'u1'\) not present in trial list$"):
            load_scores(path, trials)
        path = self._score_file(tmp_path, [("s1", "u1", 0), ("s1", "u1", 2), ("s9", "u1", 1)])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: duplicate score "
                           r"pair \('s1', 'u1'\)$"):
            load_scores(path, trials)

    def test_malformed_line_is_reported_before_an_earlier_pair_fault(self, tmp_path):
        trials = self._trial_list(self._trials())
        path = tmp_path / "scores.txt"
        path.write_text("s9 u1 0.5\ns1 u1 0.5\ns1 u2 high\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: bad score 'high'$"):
            load_scores(path, trials)
        path.write_text("s1 u1 0.5\ns1 u1 0.5\ns1 u2 high\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: bad score 'high'$"):
            load_scores(path, trials)
        path = tmp_path / "trials.txt"
        path.write_text("s1 u1 target\ns1 u1 target\ns1 u2 maybe\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: bad label 'maybe'$"):
            load_trials(path)


# an id the id rule accepts
_VALID_ID = st.text(st.characters(blacklist_categories=("Cc", "Cs")), min_size=1, max_size=6
                    ).filter(lambda token: not token.startswith("#")
                             and not any(c.isspace() for c in token))


@settings(max_examples=60, deadline=None)
@given(spk=st.lists(_VALID_ID, min_size=1, max_size=4, unique=True),
       utt=st.lists(_VALID_ID, min_size=1, max_size=5, unique=True), data=st.data())
def test_score_subset_saved_shuffled_loads_back_equal(tmp_path_factory, spk, utt, data):
    pairs = [(a, b) for a in spk for b in utt]
    labels = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    t = TrialList([a for a, _ in pairs], [b for _, b in pairs], labels)
    rows = data.draw(st.permutations(range(len(t))))[: data.draw(st.integers(1, len(t)))]
    subset = TrialList(t.enroll_spk[rows], t.test_utt[rows], t.is_target[rows])
    # thousandths survive the six-decimal score format exactly
    scores = ScoreSet(subset, [data.draw(st.integers(-10**6, 10**6)) / 1000 for _ in rows])
    tmp = tmp_path_factory.mktemp("scores")
    save_trials(t, tmp / "trials.txt")
    assert load_trials(tmp / "trials.txt") == t
    save_scores(scores, tmp / "scores.txt")
    assert load_scores(tmp / "scores.txt", t) == scores


class TestSaversCheckIds:
    @pytest.mark.parametrize("bad", ["s 1", "s\t1", ""])
    def test_trial_and_score_savers_reject_whitespace_ids(self, tmp_path, bad):
        # the savers need no check of their own: no trial list holds such an id
        with pytest.raises(ValueError, match=f"^enroll_spk {re.escape(repr(bad))} {_RULE}$"):
            TrialList(["s0", bad], ["t1", "t2"], [True, False])
        with pytest.raises(ValueError, match=f"^test_utt {re.escape(repr(bad))} {_RULE}$"):
            TrialList(["s0", "s0"], ["t1", bad], [True, False])


class TestTrialListIdRule:
    @pytest.mark.parametrize("spk", [["s\x00", "s"], ["s", "s\x00"]])
    def test_nul_is_rejected_before_str_columns_drop_it(self, spk):
        # stored as str_, "s\x00" would become "s": a false duplicate pair
        with pytest.raises(ValueError, match=rf"^enroll_spk 's\\x00' {_RULE}$"):
            TrialList(spk, ["u1", "u1"], [True, False])
        with pytest.raises(ValueError, match=rf"^enroll_spk 's\\x00' {_RULE}$"):
            TrialList.from_codes(["s", "s\x00"], [0, 1], ["u1"], [0, 0], [True, False])

    def test_hash_ids_are_rejected(self):
        with pytest.raises(ValueError, match=f"^enroll_spk '#s' {_HASH}$"):
            TrialList(["#s", "s2"], ["u1", "u1"], [True, False])
        with pytest.raises(ValueError, match=f"^test_utt '#u' {_HASH}$"):
            TrialList(["s1", "s2"], ["u1", "#u"], [True, False])
        assert TrialList(["s#1"], ["u#"], [True]).enroll_spk.tolist() == ["s#1"]

    def test_hash_test_utt_in_a_file_names_the_line(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("s1 u1 target\n#s1 u2 target\ns1 #u2 nontarget\n")
        with pytest.raises(ValueError, match=rf"trials\.txt:3: test_utt '#u2' {_HASH}$"):
            load_trials(path)
        path = tmp_path / "scores.txt"
        path.write_text("s1 u1 0.5\ns1 #u2 0.25\n")
        with pytest.raises(ValueError, match=rf"scores\.txt:2: test_utt '#u2' {_HASH}$"):
            load_scores(path, TrialList(["s1"], ["u1"], [True]))


class TestTrialAndScoreFileErrors:
    def test_duplicate_trial_pair_names_line(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("# header\ns1 u1 target\ns2 u1 nontarget\ns1 u1 target\n")
        with pytest.raises(ValueError, match=r":4: duplicate trial pair \('s1', 'u1'\)"):
            load_trials(path)

    def test_hash_line_in_the_saved_layout_is_a_comment(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("s1 u1 target\n#s1 u2 target\n")
        assert load_trials(path) == TrialList(["s1"], ["u1"], [True])
        path.write_text("s1 u1 target\n#s1 u2 target\ns1 u1 nontarget\n")
        with pytest.raises(ValueError, match=r":3: duplicate trial pair \('s1', 'u1'\)$"):
            load_trials(path)

    def test_duplicate_score_pair_names_line(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("s1 u1 0.5\n\ns1 u1 0.25\n")
        with pytest.raises(ValueError, match=r":3: duplicate score pair \('s1', 'u1'\)"):
            load_scores(path, TrialList(["s1"], ["u1"], [True]))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_score_names_line(self, tmp_path, token):
        path = tmp_path / "scores.txt"
        path.write_text(f"s1 u1 0.5\ns1 u2 {token}\n")
        with pytest.raises(ValueError, match=r":2: score for \(s1, u2\) is not finite"):
            load_scores(path, TrialList(["s1", "s1"], ["u1", "u2"], [True, False]))

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("s1 u1 target\ns1 u2 maybe\n")
        with pytest.raises(ValueError, match=":2: bad label 'maybe'"):
            load_trials(path)

    # the lowest faulty row wins, on a tie its first faulty field; a line without
    # three fields only after every row before it
    @pytest.mark.parametrize("kind, text, fault", [
        pytest.param("trials", "s1 u1 target\ns1 u2 maybe\ns1 u3 target\ns1 u4\n",
                     "2: bad label 'maybe'", id="label-first"),
        pytest.param("trials", "s1 u1 target\ns1 u2 maybe\ns1 u3\n",
                     "2: bad label 'maybe'", id="label-short"),
        pytest.param("trials", "s1 u1 target\ns1 u2\ns1 u3 maybe\n",
                     "2: expected 'spk utt label'", id="short-label"),
        pytest.param("scores", "s1 u1 0.5\ns1 u2 high\ns1 u3 nan\ns1 u4\n",
                     "2: bad score 'high'", id="score-nan"),
        pytest.param("scores", "s1 u1 0.5\ns1 u2 inf\ns1 u3 high\ns1 u4\n",
                     r"2: score for \(s1, u2\) is not finite", id="inf-score"),
        pytest.param("scores", "s1 u1 0.5\ns1 u2 nan\ns1 u3 high\n",
                     r"2: score for \(s1, u2\) is not finite", id="nan-score"),
        # "#a" sorts before "z\x01": the first faulty row, not the first faulty id
        pytest.param("trials", "s1 u1 target\ns1 z\x01 target\ns1 u3 target\ns1 #a target\n",
                     r"2: test_utt 'z\\x01' " + _RULE, id="ctrl-hash"),
        pytest.param("trials", "s1\tu1\ttarget\ns1\tz\x01\ttarget\n"
                     "s1\tu3\ttarget\ns1\t#a\ttarget\n",
                     r"2: test_utt 'z\\x01' " + _RULE, id="ctrl-hash-tab"),
        pytest.param("trials", "s1 u1 target\ns1 z\x7f target\ns1 u3 target\ns1 #a target\n",
                     r"2: test_utt 'z\\x7f' " + _RULE, id="ctrl-hash-saved"),
        pytest.param("trials", "s1 u1 target\ns\x7f u\x7f maybe\n",
                     r"2: enroll_spk 's\\x7f' " + _RULE, id="tie-spk"),
        pytest.param("trials", "s1 u1 target\ns1 u\x7f maybe\n",
                     r"2: test_utt 'u\\x7f' " + _RULE, id="tie-utt"),
    ])
    def test_first_bad_line_is_reported(self, tmp_path, kind, text, fault):
        path = tmp_path / f"{kind}.txt"
        path.write_text(text, encoding="utf-8")
        trials = TrialList(["s1"] * 4, ["u1", "u2", "u3", "u4"], [True, False, False, False])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{fault}$"):
            load_trials(path) if kind == "trials" else load_scores(path, trials)

    def test_round_trip_keeps_columns(self, tmp_path):
        trials = TrialList(["s2", "s1", "s1"], ["u9", "u1", "u2"], [False, True, False])
        save_trials(trials, tmp_path / "trials.txt")
        assert (tmp_path / "trials.txt").read_text() == (
            "s2 u9 nontarget\ns1 u1 target\ns1 u2 nontarget\n"
        )
        assert load_trials(tmp_path / "trials.txt") == trials
        scores = ScoreSet(TrialList(["s2", "s1"], ["u9", "u1"], [False, True]), [-0.0000004, 2.5])
        save_scores(scores, tmp_path / "scores.txt")
        assert (tmp_path / "scores.txt").read_text() == "s2 u9 -0.000000\ns1 u1 2.500000\n"


@pytest.mark.parametrize(
    "text",
    [
        "# header\ns1 u1 target\n\ns2 u1 nontarget\n",
        "s1  u1\ttarget\r\ns2 u1 nontarget",
        "  s1 u1 target  \n# s9 u9 target\ns2 u1 nontarget\n\n",
        "# a b\ns1 u1 target\ns2 u1 nontarget\n",  # three-token comments
        "s1 u1 target\n# c d\ns2 u1 nontarget\n",
        "# trials\r\n\ts1\t u1  target\r\n\r\n  # s9 u9 target\r\ns2   u1\tnontarget \r\n",
    ],
)
def test_free_form_trial_file_reads_like_canonical(tmp_path, text, capsys):
    canonical = tmp_path / "canonical.txt"
    canonical.write_text("s1 u1 target\ns2 u1 nontarget\n")
    free = tmp_path / "free.txt"
    free.write_bytes(text.encode("utf-8"))
    assert load_trials(free) == load_trials(canonical)
    scores = tmp_path / "scores.txt"
    scores.write_bytes(text.replace("nontarget", "-1.5").replace("target", "2").encode())
    trials = load_trials(canonical)
    assert load_scores(scores, trials) == ScoreSet(trials, [2.0, -1.5])
    # det prints the same bytes from the free-form files as from the canonical ones
    canonical_scores = tmp_path / "canonical_scores.txt"
    save_scores(ScoreSet(trials, [2.0, -1.5]), canonical_scores)
    printed = []
    for score_file, trial_file in ((canonical_scores, canonical), (scores, free)):
        assert main(["det", "--scores", str(score_file), "--trials", str(trial_file)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def _per_record_corpus_error(name, rows):
    """The first error a per-record build raises (the id rule, gender and vector,
    row by row, then the corpus loop), or None."""
    for utt, spk, gender, vector in rows:
        for what, token in (("utt_id", utt), ("spk_id", spk)):
            if not token or any(c.isspace() or unicodedata.category(c) == "Cc" for c in token):
                return f"corpus {name!r}: {what} {token!r} {_RULE}"
            if token.startswith("#"):
                return f"corpus {name!r}: {what} {token!r} {_HASH}"
        if gender not in ("F", "M"):
            return f"corpus {name!r}: gender must be one of ('F', 'M'), got {gender!r}"
        if not vector:
            return f"corpus {name!r}: embedding {utt!r}: vector must be non-empty and 1-D"
        if not all(map(math.isfinite, vector)):
            return f"corpus {name!r}: embedding {utt!r}: non-finite coordinate"
    seen, spk_gender = set(), {}
    for utt, spk, gender, _ in rows:
        if utt in seen:
            return f"corpus {name!r}: duplicate utt_id {utt!r}"
        seen.add(utt)
        if spk_gender.setdefault(spk, gender) != gender:
            return f"corpus {name!r}: speaker {spk!r} has conflicting genders"
    return None


_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["u1", "u2", "u3", "u4", "u5", "u6", "", "u1\x00", "u 7", "#u", "u#"]),
        st.sampled_from(["s1", "s2", "s3", "", "s\x85", "s\t1", "#s"]),
        st.sampled_from(["F", "F", "M", "M", "X"]),
        st.lists(st.sampled_from([0.5, -1.0, 2.0, np.nan, np.inf]), min_size=2, max_size=2),
    ),
    max_size=7,
)


@settings(max_examples=400, deadline=None)
@given(rows=_ROWS)
def test_corpus_validation_reports_what_the_per_record_build_reports(rows):
    expected = _per_record_corpus_error("c", rows)
    columns = [list(col) for col in zip(*rows)] if rows else [[], [], [], []]
    matrix = np.array(columns[3], dtype=np.float64).reshape(len(rows), 2)
    if expected is None:
        corpus = Corpus("c", *columns[:3], matrix)
        got = zip(corpus.utt_id.tolist(), corpus.spk_id.tolist(), corpus.gender.tolist())
        assert list(got) == [r[:3] for r in rows]
    else:
        with pytest.raises(ValueError) as info:
            Corpus("c", *columns[:3], matrix)
        assert str(info.value) == expected


class TestCorpusColumns:
    def _corpus(self):
        return _corpus([("u2", "s2", "M", [1.0, 2.0]), ("u1", "s1", "F", [3.0, 4.0]),
                        ("u3", "s2", "M", [5.0, 6.0])])

    def test_columns_and_matrix_are_read_only_and_shared(self):
        corpus = self._corpus()
        for column in (corpus.utt_id, corpus.spk_id, corpus.gender, corpus.matrix()):
            assert not column.flags.writeable
        assert corpus.matrix() is corpus.matrix()
        rebuilt = Corpus("c", corpus.utt_id, corpus.spk_id, corpus.gender, corpus.matrix())
        assert rebuilt.utt_id is corpus.utt_id and rebuilt.matrix() is corpus.matrix()

    def test_columns_keep_row_order(self):
        corpus = self._corpus()
        assert corpus.utt_id.tolist() == ["u2", "u1", "u3"]
        assert corpus.spk_id.tolist() == ["s2", "s1", "s2"]
        assert corpus.gender.tolist() == ["M", "F", "M"]
        np.testing.assert_array_equal(corpus.matrix(), [[1, 2], [3, 4], [5, 6]])

    def test_speaker_rows_in_appearance_or_id_order(self):
        corpus = self._corpus()
        speakers, rows = corpus.speaker_rows()
        assert speakers.tolist() == ["s2", "s1"]
        assert [r.tolist() for r in rows] == [[0, 2], [1]]
        speakers, rows = corpus.speaker_rows(sort=True)
        assert speakers.tolist() == ["s1", "s2"]
        assert [r.tolist() for r in rows] == [[1], [0, 2]]
        assert corpus.speaker_gender() == {"s2": "M", "s1": "F"}

    @pytest.mark.parametrize("block", [1, 1 << 15])
    @pytest.mark.parametrize("dim", [2, 3, 32])
    def test_group_means_equal_per_group_mean_bit_for_bit(self, dim, block, monkeypatch):
        monkeypatch.setattr(embeddings, "_GROUP_BLOCK", block)
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((300, dim)) * 10.0 ** rng.uniform(-3, 3, (300, 1))
        x[rng.random(x.shape) < 0.05] = -0.0
        x[:, 0] = -0.0  # a column of negative zeros: the signs must agree as well
        sizes = [1, 7, 1, 120, 3, 1, 64, 2]  # singletons among unequal groups
        unequal = [rng.choice(300, size, replace=False) for size in sizes]
        equal = rng.integers(0, 300, (9, 100))  # the anonymizer's equal-size selections
        for groups in (unequal, equal):
            got = embeddings.group_means(x, groups)
            want = np.stack([x[rows].mean(axis=0) for rows in groups])
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_empty_corpus(self):
        empty = corpus_of("e", [])
        assert len(empty) == 0 and empty.records == ()
        speakers, rows = empty.speaker_rows()
        assert len(speakers) == 0 and rows == []
        with pytest.raises(ValueError, match="empty"):
            empty.matrix()

    def test_rejects_unequal_columns_and_non_matrix(self):
        with pytest.raises(ValueError, match="differ in length"):
            Corpus("c", ["u1", "u2"], ["s1", "s1"], ["F"], np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"\(N, D\) matrix"):
            Corpus("c", ["u1"], ["s1"], ["F"], np.zeros(3))


def _binary_blob(rows, dim=2) -> bytes:
    """A binary embedding file written field by field, ids unchecked."""
    parts = [b"XVC1", struct.pack("<II", dim, len(rows))]
    for utt, spk, gender, vector in rows:
        for token in (utt.encode("utf-8"), spk.encode("utf-8")):
            parts += [struct.pack("<H", len(token)), token]
        parts += [bytes([gender == "M"]), np.asarray(vector, "<f8").tobytes()]
    return b"".join(parts)


def _written(path, content):
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    return path


# each input boundary: the column of the bad id, the message's prefix, and a read
# of an input whose second row holds it
_BOUNDARIES = {
    "corpus": ("utt_id", "corpus 'c': ", lambda path, token: Corpus(
        "c", ["u1", token], ["s1", "s1"], ["F", "F"], np.zeros((2, 1)))),
    # the spk column, since a line whose first field starts with "#" is a comment
    "text": ("spk_id", "{path}:2: ", lambda path, token: load_embeddings(
        _written(path, f"u1 s1 F 1.0\nu2 {token} F 1.0\n"), "text")),
    # on one line the id fault comes before a bad gender
    "text-bad-gender": ("spk_id", "{path}:2: ", lambda path, token: load_embeddings(
        _written(path, f"u1 s1 F 1.0\nu2 {token} X 1.0\n"), "text")),
    "binary": ("spk_id", "{path}: record 1: ", lambda path, token: load_embeddings(
        _written(path, _binary_blob([("u1", "s1", "F", [1, 2]), ("u2", token, "F", [1, 2])])),
        "binary")),
    "trial-list": ("test_utt", "", lambda path, token: TrialList(
        ["s1", "s1"], ["u1", token], [True, False])),
    "from-codes": ("test_utt", "", lambda path, token: TrialList.from_codes(
        ["s1"], [0, 0], sorted(["u1", token]), [0, 1], [True, False])),
    "trials-saved": ("test_utt", "{path}:2: ", lambda path, token: load_trials(
        _written(path, f"s1 u1 target\ns1 {token} target\n"))),
    "trials-tab": ("test_utt", "{path}:2: ", lambda path, token: load_trials(
        _written(path, f"s1\tu1\ttarget\ns1\t{token}\ttarget\n"))),
    "scores": ("test_utt", "{path}:2: ", lambda path, token: load_scores(
        _written(path, f"s1 u1 0.5\ns1 {token} 0.25\n"), TrialList(["s1"], ["u1"], [True]))),
}


@pytest.mark.parametrize("token", ["z\x01", "#a"])
@pytest.mark.parametrize("boundary", list(_BOUNDARIES))
def test_one_id_gives_one_message_at_every_boundary(tmp_path, boundary, token):
    what, prefix, read = _BOUNDARIES[boundary]
    path = tmp_path / "input"
    with pytest.raises(ValueError) as info:
        read(path, token)
    rule = _HASH if token.startswith("#") else _RULE
    assert str(info.value) == f"{prefix.format(path=path)}{what} {token!r} {rule}"


class TestIdRule:
    @pytest.mark.parametrize("ids", [["a\x00", "b"], ["a\x00", "a"]])
    def test_constructor_rejects_nul_before_str_columns_drop_it(self, ids):
        # stored as str_, "a\x00" would become "a": a changed id, or a false duplicate
        with pytest.raises(ValueError, match=rf"^corpus 'c': utt_id 'a\\x00' {_RULE}$"):
            Corpus("c", ids, ["s1", "s1"], ["F", "F"], np.zeros((2, 2)))
        with pytest.raises(ValueError, match=rf"^corpus 'c': utt_id 'a\\x00' {_RULE}$"):
            Corpus("c", np.array(ids, dtype=object), ["s1", "s1"], ["F", "F"], np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", ["s 1", "s\t1", "", "s\x7f", "s\u3000"])
    def test_constructor_rejects_spk_id(self, bad):
        message = f"^corpus 'c': spk_id {re.escape(repr(bad))} {_RULE}$"
        with pytest.raises(ValueError, match=message):
            Corpus("c", ["u1", "u2"], ["s0", bad], ["F", "F"], np.zeros((2, 2)))

    def test_text_loader_names_the_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# u\x00 s1 F 1.0\nu1 s1 F 1.0\n\nu\x002 s1 F 2.0\nu3 s1 X 1.0\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=rf"c\.txt:4: utt_id 'u\\x002' {_RULE}$"):
            load_embeddings(path, "text")

    def test_binary_loader_names_the_record(self, tmp_path):
        path = tmp_path / "c.xvec"
        path.write_bytes(_binary_blob([("u1", "s1", "F", [1, 2]), ("u2", "s 1", "F", [1, 2])]))
        with pytest.raises(ValueError, match=rf"c\.xvec: record 1: spk_id 's 1' {_RULE}$"):
            load_embeddings(path, "binary")
        path.write_bytes(_binary_blob([("u1\x00", "s1", "F", [1, 2])]))
        with pytest.raises(ValueError, match=rf"c\.xvec: record 0: utt_id 'u1\\x00' {_RULE}$"):
            load_embeddings(path, "binary")

    def test_ids_starting_with_hash_are_rejected(self, tmp_path):
        # a text line whose first field starts with "#" is a comment
        with pytest.raises(ValueError, match=f"^corpus 'c': utt_id '#a' {_HASH}$"):
            Corpus("c", ["b", "#a"], ["s1", "s1"], ["F", "F"], np.zeros((2, 2)))
        path = tmp_path / "c.txt"
        path.write_text("u1 s1 F 1.0\n#u2 s1 F 1.0\nu3 #s F 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"c\.txt:3: spk_id '#s' {_HASH}$"):
            load_embeddings(path, "text")
        path = tmp_path / "c.xvec"
        path.write_bytes(_binary_blob([("u1", "s1", "F", [1, 2]), ("#u2", "s1", "F", [1, 2])]))
        with pytest.raises(ValueError, match=rf"c\.xvec: record 1: utt_id '#u2' {_HASH}$"):
            load_embeddings(path, "binary")

    def test_an_id_fault_and_a_nan_on_one_row_report_the_id(self, tmp_path):
        rows = [("u1", "s1", "F", [1.0, 2.0]), ("u\x01", "s1", "F", [np.nan, 2.0])]
        text, binary = tmp_path / "c.txt", tmp_path / "c.xvec"
        text.write_text("u1 s1 F 1.0 2.0\nu\x01 s1 F nan 2.0\n", encoding="utf-8")
        binary.write_bytes(_binary_blob(rows))
        fault = rf"utt_id 'u\\x01' {_RULE}$"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(text))}:2: {fault}"):
            load_embeddings(text, "text")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(binary))}: record 1: {fault}"):
            load_embeddings(binary, "binary")
        with pytest.raises(ValueError, match=rf"^corpus 'c': {fault}"):
            corpus_of("c", rows)

    def test_earlier_record_fault_is_reported_first(self, tmp_path):
        path = tmp_path / "c.xvec"
        path.write_bytes(_binary_blob([("u1", "s1", "F", [np.nan, 2]), ("u 2", "s1", "F", [1, 1])]))
        message = rf"^{re.escape(str(path))}: record 0: embedding 'u1': non-finite coordinate$"
        with pytest.raises(ValueError, match=message):
            load_embeddings(path, "binary")
        path.write_bytes(_binary_blob([("u 1", "s1", "F", [1, 1]), ("u2", "s1", "F", [np.nan, 2])]))
        with pytest.raises(ValueError, match=rf"record 0: utt_id 'u 1' {_RULE}$"):
            load_embeddings(path, "binary")


@settings(max_examples=80, deadline=None)
@given(utts=st.lists(_VALID_ID, min_size=1, max_size=8, unique=True),
       speakers=st.lists(_VALID_ID, min_size=1, max_size=3, unique=True),
       data=st.data(), fmt=st.sampled_from(["text", "binary"]))
def test_valid_ids_round_trip(tmp_path_factory, utts, speakers, data, fmt):
    spk = [data.draw(st.sampled_from(speakers)) for _ in utts]
    gender = ["FM"[speakers.index(s) % 2] for s in spk]
    vectors = np.arange(2.0 * len(utts)).reshape(len(utts), 2)
    corpus = Corpus("c", utts, spk, gender, vectors)
    path = tmp_path_factory.mktemp("ids") / "c.emb"
    save_embeddings(corpus, path, fmt)
    loaded = load_embeddings(path, fmt)
    assert (loaded.utt_id.tolist(), loaded.spk_id.tolist(), loaded.gender.tolist()) == (
        utts, spk, gender)
    assert np.array_equal(loaded.matrix(), vectors)


class TestBinaryLoaderErrors:
    def _file(self, tmp_path, rows, cut=0):
        path = tmp_path / "c.xvec"
        save_embeddings(_corpus(rows), path, "binary")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - cut])
        return path

    def test_vector_cut_short_names_the_record(self, tmp_path):
        path = self._file(tmp_path, [("u1", "s1", "F", None), ("u2", "s1", "F", None)], cut=3)
        message = rf"^{re.escape(str(path))}: record 1: truncated vector$"
        with pytest.raises(ValueError, match=message):
            load_embeddings(path, "binary")

    def test_earlier_record_fault_is_reported_before_a_later_break(self, tmp_path):
        path = tmp_path / "c.xvec"
        good = self._file(tmp_path, [("u1", "s1", "F", None), ("u2", "s1", "F", None)])
        blob = bytearray(good.read_bytes())
        # the first coordinate of record 0 becomes NaN, and the file loses its last byte
        start = 12 + 2 + 2 + 2 + 2 + 1
        blob[start : start + 8] = np.array([np.nan], "<f8").tobytes()
        message = rf"^{re.escape(str(path))}: record 0: embedding 'u1': non-finite coordinate$"
        path.write_bytes(bytes(blob[:-1]))
        with pytest.raises(ValueError, match=message):
            load_embeddings(path, "binary")
        path.write_bytes(bytes(blob) + b"\0")
        with pytest.raises(ValueError, match=message):
            load_embeddings(path, "binary")


class TestRepeatedRows:
    """A repeated utt_id or a speaker's second gender names its file and row."""

    def _fault(self, path, fmt):
        with pytest.raises(ValueError) as info:
            load_embeddings(path, fmt)
        return str(info.value).replace(str(path), "<path>")

    def test_text_file_names_the_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("u1 s1 F 1.0\n# u1 s1 F 1.0\nu2 s2 M 1.0\n\nu1 s1 F 2.0\n",
                        encoding="utf-8")
        assert self._fault(path, "text") == "<path>:5: duplicate utt_id 'u1'"
        path.write_text("u1 s1 F 1.0\nu2 s1 M 1.0\nu1 s1 F 2.0\n", encoding="utf-8")
        assert self._fault(path, "text") == "<path>:2: speaker 's1' has conflicting genders"

    def test_binary_file_names_the_record(self, tmp_path):
        path = tmp_path / "c.xvec"
        rows = [("u1", "s1", "F", [1, 2]), ("u2", "s2", "M", [1, 2]), ("u1", "s1", "F", [3, 4])]
        path.write_bytes(_binary_blob(rows))
        assert self._fault(path, "binary") == "<path>: record 2: duplicate utt_id 'u1'"
        # on the same row the repeat is reported, not the conflict
        path.write_bytes(_binary_blob(rows[:2] + [("u1", "s2", "F", [3, 4])]))
        assert self._fault(path, "binary") == "<path>: record 2: duplicate utt_id 'u1'"

    def test_a_later_malformed_row_is_reported_first(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("u1 s1 F 1.0\nu1 s1 F 1.0\nu2 s1 X 1.0\n", encoding="utf-8")
        assert self._fault(path, "text") == "<path>:3: gender must be one of ('F', 'M'), got 'X'"
        path = tmp_path / "c.xvec"
        blob = _binary_blob([("u1", "s1", "F", [1, 2]), ("u1", "s1", "F", [1, 2]),
                             ("u2", "s1", "F", [1, 2])])
        path.write_bytes(blob[:-1])
        assert self._fault(path, "binary") == "<path>: record 2: truncated vector"

    def test_corpus_names_itself(self):
        with pytest.raises(ValueError, match=r"^corpus 'c': duplicate utt_id 'u1'$"):
            Corpus("c", ["u1", "u1"], ["s1", "s1"], ["F", "F"], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="^corpus 'c': embedding 'u1': non-finite coordinate$"):
            Corpus("c", ["u1"], ["s1"], ["F"], [[np.nan, 0.0]])


class TestEachLoadChecksOnce:
    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_row_check_runs_once_per_load(self, tmp_path, monkeypatch, fmt):
        calls = []
        check = embeddings._check_rows
        monkeypatch.setattr(embeddings, "_check_rows",
                            lambda *args: calls.append(args) or check(*args))
        rows = [("u1", "s1", "F", [1.0, 2.0]), ("u2", "s2", "M", [3.0, 4.0])]
        path = tmp_path / "c.emb"
        save_embeddings(corpus_of("c", rows), path, fmt)
        calls.clear()
        assert load_embeddings(path, fmt).utt_id.tolist() == ["u1", "u2"]
        assert len(calls) == 1
        # a faulty file is refused by that one check too
        rows.append(("u1", "s1", "F", [5.0, 6.0]))
        if fmt == "text":
            path.write_text("".join(f"{u} {s} {g} {x} {y}\n" for u, s, g, (x, y) in rows))
        else:
            path.write_bytes(_binary_blob(rows))
        calls.clear()
        with pytest.raises(ValueError, match="duplicate utt_id 'u1'"):
            load_embeddings(path, fmt)
        assert len(calls) == 1


class TestDecodeFaultsNameTheFile:
    """A byte that is not UTF-8 is reported with the path of the file holding it."""

    def _message(self, path, blob):
        position = blob.index(0x84)
        return (rf"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0x84 in position "
                rf"{position}: invalid start byte$")

    def test_trial_score_and_text_embedding_readers(self, tmp_path):
        trials = TrialList(["s1"], ["u1"], [True])
        readers = {
            "trials.txt": (load_trials, b"s1 u1 target\ns1 u\x842 nontarget\n"),
            "scores.txt": (lambda p: load_scores(p, trials), b"s1 u1 0.5\n# \x84\n"),
            "c.txt": (lambda p: load_embeddings(p, "text"), b"u1 s1 F 1.0\nu\x84 s1 F 2.0\n"),
        }
        for name, (load, blob) in readers.items():
            path = tmp_path / name
            path.write_bytes(blob)
            with pytest.raises(ValueError, match=self._message(path, blob)):
                load(path)

    def test_binary_corpus_read_as_text(self, tmp_path):
        path = tmp_path / "c.xvec"
        path.write_bytes(_binary_blob([("u1", "s1", "F", [1.5, -2.25])]))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: 'utf-8' codec "):
            load_embeddings(path, "text")


def _read_rows(path, layout, parse):
    """The per-line reader the trial and score loaders used before the
    whole-file reader, kept as its reference: the columns of a trial or score
    file and each row's line number; an error names the first bad line."""
    enroll, test, values, linenos = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            row = line.split()
            if not row or row[0].startswith("#"):
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected '{layout}'")
            try:
                values.append(parse(*row))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            enroll.append(row[0])
            test.append(row[1])
            linenos.append(lineno)
    return enroll, test, values, linenos


def _reference_label(enroll_spk, test_utt, label):
    if label not in ("target", "nontarget"):
        raise ValueError(f"bad label {label!r}")
    return label == "target"


def _reference_score(enroll_spk, test_utt, token):
    try:
        score = float(token)
    except ValueError:
        raise ValueError(f"bad score {token!r}") from None
    if not math.isfinite(score):
        raise ValueError(f"score for ({enroll_spk}, {test_utt}) is not finite")
    return score


def _reference_load(path, kind):
    """What the per-line loaders gave: the three columns, or an error."""
    layout, parse, empty, what = {
        "trials": ("spk utt label", _reference_label, "empty trial list", "trial"),
        "scores": ("spk utt score", _reference_score, "empty score file", "score"),
    }[kind]
    enroll, test, values, linenos = _read_rows(path, layout, parse)
    if not linenos:
        raise ValueError(f"{path}: {empty}")
    seen = set()
    for pair, line in zip(zip(enroll, test), linenos):
        if pair in seen:
            raise ValueError(f"{path}:{line}: duplicate {what} pair {pair}")
        seen.add(pair)
    return enroll, test, values


def _load(path, kind):
    if kind == "trials":
        trials = load_trials(path)
        return trials.enroll_spk.tolist(), trials.test_utt.tolist(), trials.is_target.tolist()
    # every pair of _IDS without a control character is a trial, so no score pair is missing
    valid = [token for token in dict.fromkeys(_IDS_LIST) if token.isprintable()]
    every_pair = TrialList(np.repeat(valid, len(valid)), np.tile(valid, len(valid)),
                           np.zeros(len(valid) ** 2, bool))
    scores = load_scores(path, every_pair)
    return (scores.trials.enroll_spk.tolist(), scores.trials.test_utt.tolist(),
            scores.score.tolist())


def _outcome(load, path, kind):
    try:
        return load(path, kind)
    except ValueError as exc:
        return str(exc)


def _first_control_id(text):
    """(line number, field name, id) of the first data line with a control character in an id."""
    for lineno, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        row = line.split()
        if len(row) == 3 and not row[0].startswith("#"):
            for what, token in zip(("enroll_spk", "test_utt"), row):
                if any(ord(c) < 0x20 or 0x7F <= ord(c) <= 0x9F for c in token):
                    return lineno, what, token
    return None


_SEPARATORS = st.sampled_from([" ", " ", "  ", "\t", "\x0c", "\x1f", "　"])
_IDS_LIST = (["s1", "s2", "u1", "u2", "u3", "s#", "é"] * 6
             + ["u", "u\x00", "u\x01v", "\x7f", "s\x9f"])
_IDS = st.sampled_from(_IDS_LIST)
_THIRD = {
    "trials": st.sampled_from(["target", "nontarget"] * 8 + ["maybe", "Target", "target\x00"]),
    "scores": st.sampled_from(["0.5", "-1.25", "2", "1e3", "1_0", "٣"] * 4
                              + ["nan", "-inf", "1e999", "high"]),
}


@st.composite
def _table_text(draw, kind):
    """A trial or score file: data lines with 1-4 fields, blank and comment lines,
    assorted whitespace and line ends, with or without a final newline."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["data"] * 24 + ["blank"] * 2 + ["comment"] * 2
                                     + ["short", "long"]))
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        if shape == "blank":
            lines.append(lead)
        elif shape == "comment":
            lines.append(lead + "#" + draw(st.sampled_from(["", " c d e", "s1 u1 target"])))
        else:
            fields = [draw(_IDS), draw(_IDS), draw(_THIRD[kind])]
            fields = {"short": fields[:draw(st.integers(1, 2))],
                      "long": fields + [draw(_IDS)]}.get(shape, fields)
            line = lead + "".join(f + draw(_SEPARATORS) for f in fields[:-1]) + fields[-1]
            lines.append(line + draw(st.sampled_from(["", "", " ", "\t"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[: -len(ends[-1])] if lines and draw(st.booleans()) else text


@settings(max_examples=400, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["trials", "scores"]))
def test_whole_file_reader_matches_per_line_reference(tmp_path_factory, data, kind):
    text = data.draw(_table_text(kind))
    path = tmp_path_factory.mktemp("table") / f"{kind}.txt"
    path.write_bytes(text.encode("utf-8"))
    got, want = _outcome(_load, path, kind), _outcome(_reference_load, path, kind)
    control = _first_control_id(text)
    if control is not None:
        # the one new rejection: the first id holding a control character, unless
        # the reference stops at an earlier line for another fault
        lineno, what, token = control
        earlier = re.match(rf"{re.escape(str(path))}:(\d+): (?!duplicate)", str(want))
        if not (earlier and int(earlier.group(1)) < lineno):
            want = f"{path}:{lineno}: {what} {token!r} {_RULE}"
    assert got == want


def test_control_character_ids_are_rejected_with_their_line(tmp_path):
    path = tmp_path / "trials.txt"
    path.write_text("s1 u target\n# s1 u\x00 target\ns1 u\x00 nontarget\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf":3: test_utt 'u\\x00' {_RULE}$"):
        load_trials(path)
    path = tmp_path / "scores.txt"
    path.write_text("s1 u1 0.5\ns\x01 u1 0.25\ns1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf":2: enroll_spk 's\\x01' {_RULE}$"):
        load_scores(path, TrialList(["s1"], ["u1"], [True]))
    # no trial list, so no saver, holds such an id
    with pytest.raises(ValueError, match="control character"):
        TrialList(["s1"], ["u\x01"], [True])
    with pytest.raises(ValueError, match="control character"):
        TrialList(["s\x7f"], ["u1"], [True])


# the layout the trial and score savers write, as one regex over a whole text;
# an empty text, which no saver writes for a loadable list, is walked
_SAVED_LAYOUT = re.compile(r"(?:[^\s#]\S* \S+ \S+\n)+")


@st.composite
def _near_saved_text(draw):
    """Fields and separators mostly in the saved layout, with the faults that
    must send a text to the line walk: other whitespace, ASCII and not, runs
    of separators, a leading "#", CRLF ends, lines of two or four fields, a
    last line not ended, and a control character in a field."""
    fields = st.sampled_from(["s1", "u1", "target", "0.5", "é", "説", "#", "#a", "a#", "u\x01"])
    seps = st.sampled_from([" "] * 8 + ["\n"] * 4
                           + ["  ", "\t", "\r\n", "\n\n", "\xa0", "\u2028", "\x1f", "\x85"])
    text = ""
    for _ in range(draw(st.integers(0, 9))):
        text += draw(fields) + draw(seps)
    text += draw(st.sampled_from(["", "", "", "a", "\x01"]))
    if draw(st.booleans()):  # the layout itself, or a separator or two changed
        rows = draw(st.lists(st.tuples(fields, fields, fields), max_size=4))
        text = "".join(f"{a} {b} {c}\n" for a, b, c in rows)
        breaks = [at for at, c in enumerate(text) if c in " \n"]
        for at in sorted(draw(st.sets(st.sampled_from(breaks), max_size=2)) if breaks else (),
                         reverse=True):
            text = text[:at] + draw(seps) + text[at + 1:]
    return text


@settings(max_examples=500, deadline=None)
@given(text=_near_saved_text())
# three fields and two spaces a line, but one split at a tab and one gap of two spaces
@example(text="s1\tu1  target\n")
@example(text="é\u2028x  y\n")
# three fields and two spaces, but a line of two fields and one not ended
@example(text="a a \na")
# two spaces and a newline as the only ASCII separators, but four fields
@example(text="s1 u1 t\xa0x\n")
def test_saved_layout_gate_takes_exactly_the_saved_layout(text):
    # a control character, which fails the id rule or the third column, goes to the walk too
    saved = _SAVED_LAYOUT.fullmatch(text) and not re.search(r"[\x00-\x08\x0e-\x1b]", text)
    want = text.split() if saved else None
    assert embeddings._saved_fields(text) == want


class TestTrialOrderScores:
    """A score file in its trial list's row order, as ``score`` writes it, and
    the same file in any other order load to equal score sets."""

    @staticmethod
    def _saved(tmp_path):
        trials = TestWithLabelsJoin._trial_list(TestWithLabelsJoin()._trials())
        scores = ScoreSet(trials, np.arange(len(trials)) / 8 - 3)
        save_scores(scores, tmp_path / "scores.txt")
        return scores, (tmp_path / "scores.txt").read_text().splitlines(keepends=True)

    def test_trial_order_and_reversed_files_load_equal(self, tmp_path):
        scores, lines = self._saved(tmp_path)
        trials = scores.trials
        forward = load_scores(tmp_path / "scores.txt", trials)
        assert forward == scores and forward.trials is trials
        (tmp_path / "reversed.txt").write_text("".join(reversed(lines)))
        backward = load_scores(tmp_path / "reversed.txt", trials)
        rows = slice(None, None, -1)
        assert backward == ScoreSet(TrialList(trials.enroll_spk[rows], trials.test_utt[rows],
                                              trials.is_target[rows]), scores.score[rows])
        # a walked file in trial order takes the trial list too
        (tmp_path / "tabs.txt").write_text("# scores\n" + "".join(lines).replace(" ", "\t"))
        assert load_scores(tmp_path / "tabs.txt", trials) == scores

    @pytest.mark.parametrize("line, fault", [
        ("s1 u1 high\n", "bad score 'high'"),
        ("s1 u1 nan\n", r"score for \(s1, u1\) is not finite"),
        ("s1 u1 0.5 x\n", "expected 'spk utt score'"),
        ("s1 u\x01 0.5\n", r"test_utt 'u\\x01' " + _RULE),
    ])
    def test_malformed_line_names_its_line(self, tmp_path, line, fault):
        scores, lines = self._saved(tmp_path)
        spk, utt, _ = lines[4].split()
        lines[4] = line.replace("s1", spk).replace("u1", utt)
        path = tmp_path / "scores.txt"
        path.write_text("".join(lines))
        fault = fault.replace("s1", spk).replace("u1", utt)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:5: {fault}$"):
            load_scores(path, scores.trials)

    def test_a_row_past_the_trial_list_is_a_repeat(self, tmp_path):
        scores, lines = self._saved(tmp_path)
        path = tmp_path / "scores.txt"
        path.write_text("".join(lines + lines[:1]))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{len(lines) + 1}: "
                           "duplicate score pair"):
            load_scores(path, scores.trials)


@pytest.mark.parametrize("spk, utt", [("s1", "u1"), ("spé", "ütt·1"), ("说话人", "発話")])
def test_savers_round_trip_one_row_and_non_ascii_ids(tmp_path, spk, utt):
    for rows in (1, 2):
        trials = TrialList([spk, spk + "2"][:rows], [utt, utt][:rows], [True, False][:rows])
        scores = ScoreSet(trials, [0.5, -1.25][:rows])
        save_trials(trials, tmp_path / "trials.txt")
        save_scores(scores, tmp_path / "scores.txt")
        assert (tmp_path / "trials.txt").read_text(encoding="utf-8") == "".join(
            [f"{spk} {utt} target\n", f"{spk}2 {utt} nontarget\n"][:rows])
        assert (tmp_path / "scores.txt").read_text(encoding="utf-8") == "".join(
            [f"{spk} {utt} 0.500000\n", f"{spk}2 {utt} -1.250000\n"][:rows])
        assert load_trials(tmp_path / "trials.txt") == trials
        assert load_scores(tmp_path / "scores.txt", trials) == scores


class TestCodedIds:
    def test_coded_and_string_built_trial_lists_are_equal(self):
        strings = TrialList(["s2", "s1", "s2"], ["u3", "u1", "u1"], [True, False, False])
        coded = TrialList.from_codes(["s1", "s2", "s9"], [1, 0, 1], ["u1", "u3", "u7"],
                                     np.array([1, 0, 0], dtype=np.int32), [True, False, False])
        assert coded == strings
        assert coded.spk_vocab.tolist() == ["s1", "s2"]
        assert coded.utt_vocab.tolist() == ["u1", "u3"]
        assert coded.spk_code.tolist() == [1, 0, 1] and coded.utt_code.tolist() == [1, 0, 0]
        assert coded.enroll_spk.tolist() == ["s2", "s1", "s2"]
        assert coded.test_utt.tolist() == ["u3", "u1", "u1"]
        assert coded != TrialList(["s2", "s1", "s2"], ["u3", "u1", "u1"], [True, False, True])

    def test_make_trials_and_loader_agree_with_string_columns(self, tmp_path):
        enroll = _corpus([("e1", "s1", "F", None), ("e2", "s2", "F", None),
                          ("e3", "s3", "M", None)])
        trial = _corpus([("t2", "s2", "F", None), ("t1", "s1", "F", None)])
        with pytest.warns(UserWarning, match="'s3' has no trial utterances"):
            trials = make_trials(enroll, trial)
        assert trials.spk_vocab.tolist() == ["s1", "s2"]  # s3 has no trials at all
        assert trials == TrialList(trials.enroll_spk, trials.test_utt, trials.is_target)
        save_trials(trials, tmp_path / "trials.txt")
        assert load_trials(tmp_path / "trials.txt") == trials

    def test_select_keeps_only_used_ids(self):
        trials = TrialList(["s1", "s2", "s1"], ["u1", "u2", "u3"], [True, False, False])
        keep = np.array([False, True, False])
        picked = TrialList.from_codes(trials.spk_vocab, trials.spk_code[keep], trials.utt_vocab,
                                      trials.utt_code[keep], trials.is_target[keep])
        assert picked == TrialList(["s2"], ["u2"], [False])
        assert picked.spk_vocab.tolist() == ["s2"] and picked.utt_vocab.tolist() == ["u2"]

    def test_derived_columns_are_read_only(self):
        trials = TrialList(["s1"], ["u1"], [True])
        for column in (trials.enroll_spk, trials.test_utt, trials.spk_vocab, trials.spk_code):
            with pytest.raises(ValueError):
                column[0] = column[0]

    def test_from_codes_rejects_bad_codes(self):
        with pytest.raises(ValueError, match="must index its vocabulary"):
            TrialList.from_codes(["s1"], [1], ["u1"], [0], [True])
        with pytest.raises(ValueError, match="integer"):
            TrialList.from_codes(["s1"], [0.0], ["u1"], [0], [True])
        with pytest.raises(ValueError, match="sorted and distinct"):
            TrialList.from_codes(["s1", "s1"], [0, 1], ["u1", "u2"], [0, 1], [True, False])
        with pytest.raises(ValueError, match="sorted and distinct"):
            TrialList.from_codes(["s2", "s1"], [0, 1], ["u1", "u2"], [0, 1], [True, False])
        with pytest.raises(ValueError, match=r"duplicate trial pair \('s1', 'u1'\)"):
            TrialList.from_codes(["s0", "s1"], [1, 1], ["u1"], [0, 0], [True, False])
