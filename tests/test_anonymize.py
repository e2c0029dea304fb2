import warnings
from dataclasses import replace

import numpy as np
import pytest

from anonvox import AnonConfig, PldaModel, anonymize_corpus
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
        with pytest.warns(UserWarning, match=r"^n_farthest 300 is \d+% of the \d+-row (F )?pool"):
            view = anon._pool_view(pool, cfg, "F")
            ranked = anon._ranked_rows(corpus.matrix(), *view, model, cfg.n_farthest)
            full = anon._ranked_rows(corpus.matrix(), *view, model, len(ids))
            out = by_utt(anonymize_corpus(corpus, pool, model, cfg))
        for utt, src, order, whole in zip(corpus.utt_id.tolist(), corpus.matrix(), ranked, full):
            dists = [-score_matrix(model, [src], [p])[0, 0] for p in pm]
            want = sorted(range(len(ids)), key=lambda i: (-dists[i], ids[i]))
            assert whole.tolist() == want
            assert order.tolist() == want[: cfg.n_farthest]
            top = np.array(want[: cfg.n_farthest])
            rng_src = derive_stream(cfg.seed, cfg.subset_tag, utt)
            chosen = np.sort(top[rng_src.choice(cfg.n_farthest, size=cfg.n_select,
                                                replace=False)])
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
            chosen = np.sort(top[rng_src.choice(cfg.n_farthest, size=cfg.n_select,
                                                replace=False)])
            assert np.array_equal(got, pm[chosen].mean(axis=0))
