import hashlib
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anonvox import AnonConfig, Corpus, PldaModel, anonymize_corpus
from anonvox import anonymize as anon
from anonvox.anonymize import derive_stream
from anonvox.plda import score_matrix
from anonvox.synthgen import default_spec, generate, split

from conftest import POOL_REGIME, by_speaker, by_utt, corpus_of, tie_break_ranking


def identity_model(dim):
    return PldaModel(mu=np.zeros(dim), between=np.eye(dim), within=np.eye(dim))


def small_pool():
    return corpus_of("pool", [("p1", "q1", "F", [1.0, 0.0]), ("p2", "q2", "F", [0.0, 1.0]),
                              ("p3", "q3", "F", [-1.0, 0.0])])


def anonymize_one(vector, pool, model, cfg, utt_id="src", gender="F"):
    """The pseudo-vector of a one-row corpus, anonymized per utterance."""
    corpus = corpus_of("c", [(utt_id, "s1", gender, vector)])
    out = anonymize_corpus(corpus, pool, model, replace(cfg, assignment="per_utterance"))
    assert [out.utt_id.tolist(), out.spk_id.tolist(), out.gender.tolist()] == [
        [utt_id], ["s1"], [gender]]
    return out.matrix()[0]


class TestTieBreakRanking:
    def test_plain_descending(self):
        assert tie_break_ranking([1.0, 3.0, 2.0], ["a", "b", "c"]) == [1, 2, 0]

    def test_all_equal_uses_utt_order(self):
        assert tie_break_ranking([5.0, 5.0, 5.0], ["c", "a", "b"]) == [1, 2, 0]

    def test_tie_rule_stable_under_permutation(self):
        distances = [2.0, 1.0, 2.0, 0.5, 1.0]
        ids = ["e", "b", "a", "d", "c"]
        base = [ids[i] for i in tie_break_ranking(distances, ids)]
        rng = np.random.default_rng(0)
        for _ in range(10):
            perm = rng.permutation(len(ids))
            permuted = [ids[p] for p in perm]
            pdist = [distances[p] for p in perm]
            got = [permuted[i] for i in tie_break_ranking(pdist, permuted)]
            assert got == base

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            tie_break_ranking([np.nan], ["a"])


class TestAnonymizeEmbedding:
    def test_worked_example(self):
        cfg = AnonConfig(n_farthest=2, n_select=2, seed=0)
        with pytest.warns(UserWarning, match="^n_farthest 2 is 67% of the 3-row pool view"):
            out = anonymize_one([1.0, 0.0], small_pool(), identity_model(2), cfg)
        np.testing.assert_allclose(out, [-0.5, 0.5], atol=1e-12)

    def test_single_farthest(self):
        cfg = AnonConfig(n_farthest=1, n_select=1, seed=0)
        out = anonymize_one([1.0, 0.0], small_pool(), identity_model(2), cfg)
        np.testing.assert_allclose(out, [-1.0, 0.0], atol=1e-12)

    def test_full_pool_mean_ignores_seed(self):
        pool = small_pool()
        expected = pool.matrix().mean(axis=0)
        for seed in (0, 1, 2):
            cfg = AnonConfig(n_farthest=3, n_select=3, seed=seed, subset_tag="x")
            with pytest.warns(UserWarning, match="^n_farthest 3 is 100% of the 3-row pool view"):
                out = anonymize_one([1.0, 0.0], pool, identity_model(2), cfg)
            assert np.array_equal(out, expected)

    @POOL_REGIME
    def test_brute_force_ranking_oracle(self):
        rng = np.random.default_rng(55)
        for case in range(100):
            dim = int(rng.integers(2, 5))
            n_pool = int(rng.integers(3, 12))
            a = rng.standard_normal((dim, dim))
            model = PldaModel(
                mu=rng.standard_normal(dim),
                between=a @ a.T + 0.1 * np.eye(dim),
                within=np.eye(dim),
            )
            pool_ids = [f"p{i}" for i in range(n_pool)]
            pool = corpus_of("pool", ((utt, f"q{i}", "F", rng.standard_normal(dim))
                                      for i, utt in enumerate(pool_ids)))
            n_far = int(rng.integers(1, n_pool + 1))
            source = rng.standard_normal(dim)
            cfg = AnonConfig(n_farthest=n_far, n_select=n_far, seed=int(case))
            out = anonymize_one(source, pool, model, cfg)
            # oracle: rank by per-pair score calls, average the top n_far
            dists = [-score_matrix(model, [source], [p])[0, 0] for p in pool.matrix()]
            order = sorted(range(n_pool), key=lambda i: (-dists[i], pool_ids[i]))
            expected = pool.matrix()[order[:n_far]].mean(axis=0)
            np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-12)

    def test_n_farthest_exceeds_pool(self):
        cfg = AnonConfig(n_farthest=4, n_select=2)
        with pytest.raises(ValueError, match="exceeds pool size"):
            anonymize_one([1.0, 0.0], small_pool(), identity_model(2), cfg)

    def test_empty_pool(self):
        cfg = AnonConfig(n_farthest=1, n_select=1, same_gender_pool=True)
        pool = corpus_of("pool", [("p1", "q1", "M", [0.0, 1.0])])
        with pytest.raises(ValueError, match="empty"):
            anonymize_one([1.0, 0.0], pool, identity_model(2), cfg)

    @pytest.mark.parametrize("same_gender_pool, pool_rows, message", [
        (False, [], "anonymization pool is empty"),
        (True, [("p1", "q1", "M", [0.0, 1.0])], "the F pool view is empty"),
    ])
    def test_empty_pool_view_message(self, same_gender_pool, pool_rows, message):
        cfg = AnonConfig(n_farthest=1, n_select=1, same_gender_pool=same_gender_pool)
        with pytest.raises(ValueError) as caught:
            anonymize_one([1.0, 0.0], corpus_of("pool", pool_rows), identity_model(2), cfg)
        assert str(caught.value) == message

    def test_corpus_dimension_differs_from_model(self):
        cfg = AnonConfig(n_farthest=1, n_select=1)
        with pytest.raises(ValueError) as caught:
            anonymize_one([1.0, 0.0, 0.0], small_pool(), identity_model(2), cfg)
        assert str(caught.value) == "corpus dimension does not match model"

    def test_pool_dimension_differs_from_model(self):
        # refused before the pool view is built, so n_farthest's note never shows
        cfg = AnonConfig(n_farthest=2, n_select=1)
        with warnings.catch_warnings(record=True) as notes, pytest.raises(ValueError) as caught:
            warnings.simplefilter("always")
            anonymize_one([1.0, 0.0, 0.0], small_pool(), identity_model(3), cfg)
        assert str(caught.value) == "pool dimension does not match model"
        assert notes == []

    @pytest.mark.parametrize("same_gender_pool, n_farthest, notes", [
        (False, 2, []),
        (False, 3, ["n_farthest 3 is 60% of the 5-row pool view"]),
        (True, 1, ["n_farthest 1 is 50% of the 2-row F pool view"]),
        (True, 2, ["n_farthest 2 is 100% of the 2-row F pool view",
                   "n_farthest 2 is 67% of the 3-row M pool view"]),
    ])
    def test_pool_regime_warns_once_per_view_in_gender_order(self, same_gender_pool,
                                                             n_farthest, notes):
        pool = corpus_of("pool", [("p1", "q1", "F", [1.0, 0.0]), ("p2", "q2", "F", [0.0, 1.0]),
                                  ("p3", "q3", "M", [-1.0, 0.0]), ("p4", "q4", "M", [0.0, -1.0]),
                                  ("p5", "q5", "M", [1.0, 1.0])])
        corpus = corpus_of("c", [("u1", "s1", "M", [1.0, 0.0]), ("u2", "s2", "F", [0.0, 1.0])])
        cfg = AnonConfig(n_farthest=n_farthest, n_select=1, same_gender_pool=same_gender_pool)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            anonymize_corpus(corpus, pool, identity_model(2), cfg)
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, f"{note}; pseudo-speakers converge on the pool mean") for note in notes]

    def test_config_invariant(self):
        with pytest.raises(ValueError, match="n_select"):
            AnonConfig(n_farthest=10, n_select=11)


@pytest.fixture(scope="module")
def synth_setup():
    corpus, truth = generate(default_spec(n_speakers=30, utts_per_speaker=4, dim=6, seed=3))
    _, pool, enroll, trial = split(corpus, (0.2, 0.4, 0.2, 0.2), seed=3)
    return truth, pool, enroll, trial


class TestAnonymizeCorpus:
    def test_per_speaker_is_a_function_of_speaker(self, synth_setup):
        model, pool, _, trial = synth_setup
        cfg = AnonConfig(n_farthest=20, n_select=10, seed=1, subset_tag="t")
        out = anonymize_corpus(trial, pool, model, cfg)
        for vectors in by_speaker(out).values():
            assert (vectors == vectors[0]).all()

    def test_per_utterance_varies_within_speaker(self, synth_setup):
        model, pool, _, trial = synth_setup
        cfg = AnonConfig(
            n_farthest=20, n_select=10, seed=1, subset_tag="t", assignment="per_utterance"
        )
        out = anonymize_corpus(trial, pool, model, cfg)
        multi = next(vectors for vectors in by_speaker(out).values() if len(vectors) > 1)
        assert any(not np.array_equal(v, multi[0]) for v in multi[1:])

    def test_deterministic(self, synth_setup):
        model, pool, _, trial = synth_setup
        cfg = AnonConfig(n_farthest=20, n_select=10, seed=5, subset_tag="t")
        first = anonymize_corpus(trial, pool, model, cfg)
        second = anonymize_corpus(trial, pool, model, cfg)
        assert np.array_equal(first.matrix(), second.matrix())

    def test_subset_tag_separates_pseudo_speakers(self, synth_setup):
        model, pool, enroll, _ = synth_setup
        base = AnonConfig(n_farthest=2, n_select=1, seed=7)
        a = anonymize_corpus(enroll, pool, model, replace(base, subset_tag="trial"))
        b = anonymize_corpus(enroll, pool, model, replace(base, subset_tag="enroll"))
        differing = sum(not np.array_equal(v1, v2) for v1, v2 in zip(a.matrix(), b.matrix()))
        assert differing >= 1

    def test_output_in_pool_convex_hull(self, synth_setup):
        model, pool, _, trial = synth_setup
        cfg = AnonConfig(n_farthest=20, n_select=10, seed=2, subset_tag="t")
        out = anonymize_corpus(trial, pool, model, cfg)
        lo = pool.matrix().min(axis=0) - 1e-12
        hi = pool.matrix().max(axis=0) + 1e-12
        assert np.all(out.matrix() >= lo) and np.all(out.matrix() <= hi)

    def test_privacy_direction(self, synth_setup):
        model, pool, _, trial = synth_setup
        cfg = AnonConfig(n_farthest=20, n_select=10, seed=4, subset_tag="t")
        out = anonymize_corpus(trial, pool, model, cfg)
        sources = by_utt(trial)
        anon_dists = [-score_matrix(model, [sources[utt]], [v])[0, 0]
                      for utt, v in by_utt(out).items()]
        pm = pool.matrix()
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, len(pm), size=(200, 2))
        pool_dists = [-score_matrix(model, [pm[i]], [pm[j]])[0, 0] for i, j in pairs if i != j]
        assert np.mean(anon_dists) > np.median(pool_dists)

    def test_labels_preserved(self, synth_setup):
        model, pool, _, trial = synth_setup
        cfg = AnonConfig(n_farthest=20, n_select=10, seed=1, subset_tag="t")
        out = anonymize_corpus(trial, pool, model, cfg)
        for column in ("utt_id", "spk_id", "gender"):
            assert np.array_equal(getattr(out, column), getattr(trial, column))

    def test_same_gender_pool_filter(self):
        model = identity_model(2)
        pool = corpus_of("pool", [("f1", "q1", "F", [1.0, 0.0]), ("f2", "q2", "F", [0.0, 1.0]),
                                  ("m1", "q3", "M", [-1.0, 0.0]), ("m2", "q4", "M", [0.0, -1.0])])
        corpus = corpus_of("c", [("a", "sa", "F", [0.5, 0.5]), ("b", "sb", "M", [0.5, 0.5])])
        cfg = AnonConfig(
            n_farthest=2, n_select=2, seed=0, subset_tag="t", same_gender_pool=True
        )
        with pytest.warns(UserWarning, match="^n_farthest 2 is 100% of the 2-row [FM] pool view"):
            out = by_utt(anonymize_corpus(corpus, pool, model, cfg))
        np.testing.assert_allclose(out["a"], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(out["b"], [-0.5, -0.5], atol=1e-12)


class TestPoolRankingKernel:
    def _duplicated_pool(self, rng, n_rows, dim):
        """Random pool where a quarter of the rows copy other rows exactly,
        scattered over the pool, under shuffled utt ids."""
        matrix = rng.standard_normal((n_rows, dim))
        copies = rng.choice(n_rows, size=n_rows // 4, replace=False)
        matrix[copies] = matrix[rng.integers(0, n_rows, size=copies.size)]
        names = [f"p{i:04d}" for i in rng.permutation(n_rows)]
        genders = rng.choice(["F", "M"], size=n_rows)
        return corpus_of("pool", ((names[i], f"q{i}", str(genders[i]), matrix[i])
                                  for i in range(n_rows)))

    @pytest.mark.parametrize("case", ["distinct", "first-column-ties", "duplicate-rows",
                                      "signed-zeros", "one-row"])
    def test_distinct_rows_equal_np_unique(self, case):
        rng = np.random.default_rng(17)
        matrix = rng.standard_normal((300, 4))
        if case == "first-column-ties":
            matrix[::7, 0] = matrix[3, 0]
        elif case == "duplicate-rows":
            matrix[rng.choice(300, 60, replace=False)] = matrix[rng.integers(0, 300, 60)]
        elif case == "signed-zeros":
            matrix[[5, 9], 0] = [0.0, -0.0]
        elif case == "one-row":
            matrix = matrix[:1]
        unique, inverse = anon._distinct_rows(matrix)
        want, want_inverse = np.unique(matrix, axis=0, return_inverse=True)
        np.testing.assert_array_equal(unique, want)
        assert np.array_equal(np.signbit(unique), np.signbit(want))
        np.testing.assert_array_equal(inverse, want_inverse.ravel())

    # GEMM tiling can give identical rows different last bits; at these sizes
    # it does with OpenBLAS 0.3 on x86-64, one or two threads
    @pytest.mark.parametrize("dim,n_rows", [(5, 513), (5, 559), (13, 517)])
    def test_duplicate_pool_rows_follow_pair_oracle(self, dim, n_rows):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((dim, dim))
        model = PldaModel(mu=rng.standard_normal(dim), between=a @ a.T + 0.1 * np.eye(dim),
                          within=np.eye(dim))
        pool = self._duplicated_pool(rng, n_rows, dim)
        corpus = corpus_of("c", ((f"u{i}", f"s{i}", "F", rng.standard_normal(dim))
                                 for i in range(16)))
        cfg = AnonConfig(n_farthest=300, n_select=150, seed=3, subset_tag="t",
                         assignment="per_utterance")
        ids = pool.utt_id.tolist()
        pm = pool.matrix()
        by_id = np.argsort(pool.utt_id, kind="stable")  # view position -> pool row
        with pytest.warns(UserWarning, match=r"^n_farthest 300 is \d+% of the \d+-row (F )?pool"):
            view = anon._pool_view(pool, cfg, "F")
            ranked = by_id[anon._ranked_rows(corpus.matrix(), view, model, cfg.n_farthest)]
            full = by_id[anon._ranked_rows(corpus.matrix(), view, model, len(ids))]
            out = by_utt(anonymize_corpus(corpus, pool, model, cfg))
        for utt, src, order, whole in zip(corpus.utt_id.tolist(), corpus.matrix(), ranked, full):
            dists = [-score_matrix(model, [src], [p])[0, 0] for p in pm]
            want = sorted(range(len(ids)), key=lambda i: (-dists[i], ids[i]))
            assert whole.tolist() == want
            assert order.tolist() == want[: cfg.n_farthest]
            top = np.array(want[: cfg.n_farthest])
            rng_src = derive_stream(cfg.seed, cfg.subset_tag, utt)
            # the selected rows, summed in utt_id order
            chosen = sorted(top[rng_src.choice(cfg.n_farthest, size=cfg.n_select,
                                               replace=False)], key=ids.__getitem__)
            expected = np.mean([pm[i] for i in chosen], axis=0)
            assert np.array_equal(out[utt], expected)

    def test_per_utterance_gender_pool_follows_pair_oracle(self):
        rng = np.random.default_rng(11)
        dim = 5
        a = rng.standard_normal((dim, dim))
        model = PldaModel(mu=np.zeros(dim), between=a @ a.T + 0.1 * np.eye(dim),
                          within=np.eye(dim))
        pool = self._duplicated_pool(rng, 80, dim)
        corpus = corpus_of("c", ((f"u{i}", f"s{i % 7}", "F" if i % 7 < 3 else "M",
                                  rng.standard_normal(dim)) for i in range(40)))
        cfg = AnonConfig(n_farthest=20, n_select=8, seed=9, subset_tag="trial",
                         assignment="per_utterance", same_gender_pool=True)
        with pytest.warns(UserWarning, match="^n_farthest 20 is 53% of the 38-row F pool view"):
            out = anonymize_corpus(corpus, pool, model, cfg)
        assert set(out.gender.tolist()) == {"F", "M"}
        pm, ids, pool_gender = pool.matrix(), pool.utt_id.tolist(), pool.gender.tolist()
        rows = zip(corpus.utt_id.tolist(), corpus.gender.tolist(), corpus.matrix(), out.matrix())
        for utt, gender, src, got in rows:
            # oracle: per-pair scores over the source gender's pool rows only
            view = [i for i, g in enumerate(pool_gender) if g == gender]
            dists = {i: -score_matrix(model, [src], [pm[i]])[0, 0] for i in view}
            top = np.array(sorted(view, key=lambda i: (-dists[i], ids[i]))[: cfg.n_farthest])
            rng_src = derive_stream(cfg.seed, cfg.subset_tag, utt)
            # the selected rows, summed in utt_id order
            chosen = sorted(top[rng_src.choice(cfg.n_farthest, size=cfg.n_select,
                                               replace=False)], key=ids.__getitem__)
            assert np.array_equal(got, pm[chosen].mean(axis=0))

    @pytest.mark.parametrize("same_gender_pool", [False, True])
    @pytest.mark.parametrize("assignment", anon.ASSIGNMENTS)
    def test_pool_row_order_changes_no_bit(self, assignment, same_gender_pool):
        rng = np.random.default_rng(13)
        dim = 5
        a = rng.standard_normal((dim, dim))
        model = PldaModel(mu=np.zeros(dim), between=a @ a.T + 0.1 * np.eye(dim),
                          within=np.eye(dim))
        pool = self._duplicated_pool(rng, 160, dim)  # file order is not utt_id order
        corpus = corpus_of("c", ((f"u{i}", f"s{i % 7}", "F" if i % 7 < 3 else "M",
                                  rng.standard_normal(dim)) for i in range(40)))
        cfg = AnonConfig(n_farthest=30, n_select=12, seed=9, subset_tag="trial",
                         assignment=assignment, same_gender_pool=same_gender_pool)
        want = anonymize_corpus(corpus, pool, model, cfg).matrix()
        for rows in (np.argsort(pool.utt_id), rng.permutation(len(pool))):
            permuted = Corpus("pool", pool.utt_id[rows], pool.spk_id[rows], pool.gender[rows],
                              pool.matrix()[rows])
            got = anonymize_corpus(corpus, permuted, model, cfg).matrix()
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("ties", [False, True])
    def test_cutoff_ties_follow_pair_oracle(self, ties):
        rng = np.random.default_rng(23)
        dim, n_far = 4, 20
        a = rng.standard_normal((dim, dim))
        model = PldaModel(mu=rng.standard_normal(dim), between=a @ a.T + 0.1 * np.eye(dim),
                          within=np.eye(dim))
        sources = rng.standard_normal((6, dim))
        matrix = rng.standard_normal((70, dim))
        ids = np.array([f"p{i:03d}" for i in rng.permutation(len(matrix))])

        def pair_distances(src):
            return [-score_matrix(model, [src], [p])[0, 0] for p in matrix]

        if ties:
            # a copy of the first source's n-th farthest row over its (n+1)-th:
            # identical rows on both sides of the cutoff, so that row has n + 1 candidates
            order = np.argsort(pair_distances(sources[0]))[::-1]
            matrix[order[n_far]] = matrix[order[n_far - 1]]
        candidates = []
        for src in sources:
            dists = np.array(pair_distances(src))
            candidates.append(int(np.sum(dists >= np.sort(dists)[::-1][n_far - 1])))
        assert max(candidates) == (n_far + 1 if ties else n_far)
        by_id = np.argsort(ids, kind="stable")  # position in utt_id order -> matrix row
        ranked = by_id[anon._ranked_rows(sources, matrix[by_id], model, n_far)]
        for src, got in zip(sources, ranked):
            dists = pair_distances(src)
            want = sorted(range(len(ids)), key=lambda i: (-dists[i], ids[i]))[:n_far]
            assert got.tolist() == want


def choice_masks(seed, subset_tag, keys, n, k):
    """The documented draws as an (S, n) mask: ``derive_stream(...).choice`` per key."""
    masks = np.zeros((len(keys), n), dtype=bool)
    for row, key in zip(masks, keys):
        row[derive_stream(seed, subset_tag, key).choice(n, k, replace=False)] = True
    return masks


@st.composite
def _draws(draw):
    """(seed, subset_tag, keys, n, k), seeds on both sides of a 32-bit word boundary."""
    seed = draw(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1))
    n = draw(st.integers(1, 300))
    keys = draw(st.lists(st.text(max_size=6), min_size=1, max_size=6))
    return seed, draw(st.text(max_size=6)), keys, n, draw(st.integers(1, n))


@pytest.fixture
def fresh_probe():
    """The numpy-version probe runs again on the next draw, and after the test."""
    anon._kernel_matches_choice.cache_clear()
    yield
    anon._kernel_matches_choice.cache_clear()


class TestSelectionDraws:
    @settings(deadline=None)
    @given(case=_draws())
    @example(case=(0, "", ["a"], 1, 1))
    @example(case=(2**32 - 1, "trial", ["spk1", "spk2"], 37, 37))
    @example(case=(2**32, "énroll", ["ü", "語", ""], 200, 1))
    @example(case=(2**64 - 1, "ξ", ["utt-β", "utt-γ"], 200, 100))
    def test_masks_equal_per_key_choice(self, case):
        seed, subset_tag, keys, n, k = case
        want = choice_masks(seed, subset_tag, keys, n, k)
        masks, exact = anon._floyd_masks(seed, subset_tag, keys, n, k)
        assert np.array_equal(masks[exact], want[exact])
        assert np.array_equal(anon._selection_masks(seed, subset_tag, keys, n, k), want)

    def test_kernel_draws_every_row_of_a_corpus(self):
        keys = [f"utt{i:04d}" for i in range(300)]
        masks, exact = anon._floyd_masks(3, "trial", keys, 200, 100)
        assert exact.all()
        assert np.array_equal(masks, choice_masks(3, "trial", keys, 200, 100))
        assert anon._kernel_matches_choice()

    @pytest.mark.parametrize("n_words", range(1, 9))
    def test_mixed_states_equal_seed_sequence(self, n_words):
        rng = np.random.default_rng(n_words)
        words = rng.integers(0, 2**32, size=(12, n_words), dtype=np.uint64).astype(np.uint32)
        words[::3, -1] = 0  # zero high words, as a short digest or seed would give
        words[1] = 0
        want = [np.random.SeedSequence(row.tolist()).generate_state(4, np.uint64) for row in words]
        assert np.array_equal(anon._mixed_states(words), want)

    def test_short_entropy_takes_its_own_stream(self, monkeypatch):
        # digests whose top words are zero carry fewer entropy words than the others
        sha256 = hashlib.sha256

        class ShortDigest:
            def __init__(self, data):
                self.data = data

            def digest(self):
                digest = sha256(self.data).digest()
                return digest[:4] + bytes(12) if b"short" in self.data else digest

        monkeypatch.setattr(anon.hashlib, "sha256", ShortDigest)
        keys = ["a", "short-1", "b", "short-2"]
        _, exact = anon._floyd_masks(2**32, "t", keys, 200, 100)
        assert exact.tolist() == [True, False, True, False]
        assert np.array_equal(anon._selection_masks(2**32, "t", keys, 200, 100),
                              choice_masks(2**32, "t", keys, 200, 100))

    def test_rejected_draw_takes_its_own_stream(self, monkeypatch):
        assert anon._kernel_matches_choice()
        raw_words = anon._raw_words

        def crafted(states, count):
            raw = raw_words(states, count)
            raw[1, 3] = 0  # a 32-bit word of 0 is rejected for every span but a power of two
            return raw

        monkeypatch.setattr(anon, "_raw_words", crafted)
        keys = ["a", "b", "c"]
        _, exact = anon._floyd_masks(5, "t", keys, 200, 100)
        assert exact.tolist() == [True, False, True]
        streamed = []
        monkeypatch.setattr(anon, "derive_stream", lambda *args: streamed.append(args[2])
                            or derive_stream(*args))
        masks = anon._selection_masks(5, "t", keys, 200, 100)
        assert streamed == ["b"]
        assert np.array_equal(masks, choice_masks(5, "t", keys, 200, 100))

    @POOL_REGIME
    def test_population_beyond_floyd_takes_every_stream(self, monkeypatch):
        rng = np.random.default_rng(4)
        n_pool = anon._FLOYD_MAX + 1
        pool = corpus_of("pool", ((f"p{i:05d}", f"q{i}", "F", row)
                                  for i, row in enumerate(rng.standard_normal((n_pool, 2)))))
        corpus = corpus_of("c", [("u1", "s1", "F", [0.5, -1.0]), ("u2", "s2", "F", [2.0, 0.0])])
        # above n // 50 selections numpy shuffles a tail instead of running Floyd's set
        cfg = AnonConfig(n_farthest=n_pool, n_select=300, seed=8, subset_tag="t",
                         assignment="per_utterance")
        streamed = []
        monkeypatch.setattr(anon, "derive_stream", lambda *args: streamed.append(args[2])
                            or derive_stream(*args))
        out = anonymize_corpus(corpus, pool, identity_model(2), cfg)
        assert streamed == ["u1", "u2"]
        by_id = np.argsort(pool.utt_id, kind="stable")  # view position -> pool row
        top = anon._ranked_rows(corpus.matrix(), anon._pool_view(pool, cfg, ""),
                                identity_model(2), n_pool)
        want = choice_masks(8, "t", ["u1", "u2"], n_pool, 300)
        for got, ranked, mask in zip(out.matrix(), top, want):
            # the selected rows, summed in utt_id order
            assert np.array_equal(got, pool.matrix()[by_id[np.sort(ranked[mask])]].mean(axis=0))

    def test_probe_mismatch_draws_every_key_from_its_stream(self, fresh_probe, monkeypatch):
        stream = derive_stream
        monkeypatch.setattr(anon, "derive_stream",
                            lambda seed, subset_tag, key: stream(seed, subset_tag + "!", key))
        keys = ["a", "b", "c"]
        masks = anon._selection_masks(5, "t", keys, 200, 100)
        assert not anon._kernel_matches_choice()
        assert np.array_equal(masks, choice_masks(5, "t!", keys, 200, 100))

    def test_import_runs_no_probe_and_loads_no_numpy_random(self):
        # commands that never draw, such as anonymize-wav, pay for neither
        code = ("import sys, anonvox, anonvox.cli\n"
                "from anonvox import anonymize\n"
                "print(anonymize._kernel_matches_choice.cache_info().currsize,\n"
                "      'numpy.random' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.split() == ["0", "False"]
