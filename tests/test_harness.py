import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonvox import (
    AnonConfig,
    Condition,
    TrialList,
    compute_metrics,
    default_spec,
    evaluate,
    generate,
    make_trials,
    render_report,
    score_trials,
    split,
    train_plda,
)
from anonvox import anonymize as anonymize_module

from conftest import from_arrays


@pytest.fixture(scope="module")
def pipeline():
    corpus, _ = generate(default_spec(n_speakers=40, utts_per_speaker=6, dim=8, seed=6))
    train, pool, enroll, trial = split(corpus, (0.3, 0.4, 0.1, 0.2), seed=6)
    model = train_plda(train, 8)
    trials = make_trials(enroll, trial)
    cfg = AnonConfig(n_farthest=30, n_select=15, seed=6)
    return model, pool, enroll, trial, trials, cfg


class TestRunCondition:
    def test_oo_matches_direct_path(self, pipeline):
        model, pool, enroll, trial, trials, cfg = pipeline
        runs = evaluate([Condition.oo], enroll, trial, pool, model, cfg, trials)[0]
        scores = score_trials(model, enroll, trial, trials)
        genders = enroll.speaker_gender()
        for run in runs:
            keep = [genders[spk] == run.gender for spk in trials.enroll_spk.tolist()]
            direct = compute_metrics(scores.score[keep], trials.is_target[keep])
            assert run.metrics == direct

    def test_oo_never_invokes_anonymizer(self, pipeline, monkeypatch):
        model, pool, enroll, trial, trials, cfg = pipeline
        calls = []
        original = anonymize_module.anonymize_corpus

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(anonymize_module, "anonymize_corpus", counting)
        evaluate([Condition.oo], enroll, trial, pool, model, cfg, trials)
        assert calls == []
        evaluate([Condition.oa], enroll, trial, pool, model, cfg, trials)
        assert len(calls) == 1
        evaluate([Condition.aa], enroll, trial, pool, model, cfg, trials)
        assert len(calls) == 3

    def test_oa_with_full_selection_ignores_seed(self, pipeline):
        model, pool, enroll, trial, trials, _ = pipeline
        full = len(pool)
        runs = []
        for seed in (1, 2):
            cfg = AnonConfig(n_farthest=full, n_select=full, seed=seed)
            runs.append(evaluate([Condition.oa], enroll, trial, pool, model, cfg, trials)[0])
        for a, b in zip(*runs):
            assert a.metrics.eer == b.metrics.eer
            assert a.metrics.cllr == b.metrics.cllr

    def test_per_gender_not_pooled(self, pipeline):
        """The runs carry per-gender counts; pooling genders generally gives
        a different EER than either per-gender value."""
        model, pool, enroll, trial, trials, cfg = pipeline
        runs = evaluate([Condition.oo], enroll, trial, pool, model, cfg, trials)[0]
        genders = {r.gender for r in runs}
        assert genders == {"F", "M"}
        total_targets = sum(r.metrics.n_target for r in runs)
        assert total_targets == trials.n_target
        # constructed counterexample at the metric level
        female = from_arrays([3.0, 4.0], [1.0, 2.0])
        male = from_arrays([13.0, 14.0], [11.0, 12.0])
        pooled = from_arrays([3.0, 4.0, 13.0, 14.0], [1.0, 2.0, 11.0, 12.0])
        assert compute_metrics(*female).eer == 0.0
        assert compute_metrics(*male).eer == 0.0
        assert compute_metrics(*pooled).eer == pytest.approx(0.5)

    def test_aa_uses_distinct_tags_by_default(self, pipeline):
        model, pool, enroll, trial, trials, _ = pipeline
        cfg = AnonConfig(n_farthest=2, n_select=1, seed=3)
        default = evaluate([Condition.aa], enroll, trial, pool, model, cfg, trials)[0]
        shared = evaluate(
            [Condition.aa], enroll, trial, pool, model, cfg, trials, same_tags=True
        )[0]
        assert any(
            d.metrics.eer != s.metrics.eer or d.metrics.cllr != s.metrics.cllr
            for d, s in zip(default, shared)
        )

    def test_skipped_gender_named_on_stderr(self, pipeline, capsys):
        model, pool, enroll, trial, trials, cfg = pipeline
        evaluate([Condition.oa], enroll, trial, pool, model, cfg, trials)
        assert capsys.readouterr() == ("", "")

        genders = enroll.speaker_gender()
        male = np.array([genders[s] == "M" for s in trials.enroll_spk.tolist()])
        keep = ~male | trials.is_target
        male_targets_only = TrialList(
            trials.enroll_spk[keep], trials.test_utt[keep], trials.is_target[keep]
        )
        runs = evaluate([Condition.oa], enroll, trial, pool, model, cfg, male_targets_only)[0]
        assert [r.gender for r in runs] == ["F"]
        out, err = capsys.readouterr()
        n_male = int((male & trials.is_target).sum())
        assert out == ""
        assert err == f"note: oa: skipped gender M: {n_male} target and 0 nontarget trials\n"

    def test_reproducible_runs(self, pipeline):
        model, pool, enroll, trial, trials, cfg = pipeline
        first = evaluate([Condition.oa], enroll, trial, pool, model, cfg, trials)[0]
        second = evaluate([Condition.oa], enroll, trial, pool, model, cfg, trials)[0]
        assert render_report(first) == render_report(second)


def _columns(corpus):
    return None if corpus is None else (corpus.utt_id.tolist(), corpus.matrix().tobytes())


class TestEvaluate:
    @settings(max_examples=40, deadline=None)
    @given(
        conditions=st.lists(st.sampled_from(list(Condition)), min_size=1, max_size=6),
        same_tags=st.booleans(),
    )
    def test_order_and_repeats_change_nothing(self, pipeline, conditions, same_tags):
        """Each distinct condition runs once; each (side, tag) is anonymized once,
        aa's trial side before its enrollment side; the report and the scored
        anonymized corpora do not depend on order or repetition."""
        model, pool, enroll, trial, trials, cfg = pipeline
        original = anonymize_module.anonymize_corpus
        calls = []

        def counting(corpus, pool, model, cfg):
            calls.append(("trial" if corpus is trial else "enroll", cfg.subset_tag))
            return original(corpus, pool, model, cfg)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anonymize_module, "anonymize_corpus", counting)
            got = evaluate(conditions, enroll, trial, pool, model, cfg, trials,
                           same_tags=same_tags)
        expected = []
        for condition in dict.fromkeys(conditions):
            wanted = {
                Condition.oo: [],
                Condition.oa: [("trial", "trial")],
                Condition.aa: [("trial", "enroll" if same_tags else "trial"),
                               ("enroll", "enroll")],
            }[condition]
            expected += [key for key in wanted if key not in expected]
        assert calls == expected

        canonical = [c for c in Condition if c in conditions]
        want = evaluate(canonical, enroll, trial, pool, model, cfg, trials, same_tags=same_tags)
        assert render_report(got[0]) == render_report(want[0])
        assert [_columns(c) for c in got[1:]] == [_columns(c) for c in want[1:]]
        assert (got[1] is None) == (set(conditions) == {Condition.oo})
        assert (got[2] is None) == (Condition.aa not in conditions)


class TestRenderReport:
    def test_single_run_single_row(self, pipeline):
        model, pool, enroll, trial, trials, cfg = pipeline
        runs = evaluate([Condition.oo], enroll, trial, pool, model, cfg, trials)[0]
        report = render_report(runs[:1])
        body = [l for l in report.table.splitlines() if l and not l.startswith(("dataset", "-"))]
        assert len(body) == 1
        assert len(report.records) == 1

    def test_rows_sorted_and_formatted(self, pipeline):
        model, pool, enroll, trial, trials, cfg = pipeline
        conditions = [Condition.aa, Condition.oo, Condition.oa]
        report = render_report(evaluate(conditions, enroll, trial, pool, model, cfg, trials)[0])
        records = [line.split() for line in report.records]
        keys = [(r[0], r[1], (r[2], r[3])) for r in records]
        order = {("original", "original"): 0, ("original", "anonymized"): 1,
                 ("anonymized", "anonymized"): 2}
        sort_keys = [(d, g, order[st]) for d, g, st in keys]
        assert sort_keys == sorted(sort_keys)
        # eer rendered with 2 decimals, costs with 3 in the table body
        body = [l for l in report.table.splitlines() if "original" in l or "anonymized" in l]
        cells = body[0].split()
        assert len(cells[4].rsplit(".", 1)[1]) == 2
        assert len(cells[5].rsplit(".", 1)[1]) == 3
        assert len(cells[6].rsplit(".", 1)[1]) == 3

    def test_machine_record_shape(self, pipeline):
        model, pool, enroll, trial, trials, cfg = pipeline
        runs = evaluate([Condition.oa], enroll, trial, pool, model, cfg, trials)[0]
        for line in render_report(runs).records:
            fields = line.split()
            assert len(fields) == 10
            float(fields[4]), float(fields[5]), float(fields[6])
            int(fields[7]), int(fields[8])
            assert int(fields[9]) == cfg.seed

    def test_aa_note_present_only_with_aa(self, pipeline):
        model, pool, enroll, trial, trials, cfg = pipeline
        oo = render_report(evaluate([Condition.oo], enroll, trial, pool, model, cfg, trials)[0])
        aa = render_report(evaluate([Condition.aa], enroll, trial, pool, model, cfg, trials)[0])
        assert "note:" not in oo.table
        assert "note:" in aa.table

    def test_aa_note_states_what_the_code_does(self, pipeline):
        model, pool, enroll, trial, trials, cfg = pipeline
        aa = render_report(evaluate([Condition.aa], enroll, trial, pool, model, cfg, trials)[0])
        note = aa.table.splitlines()[-1]
        assert note.startswith("note: aa anonymizes embeddings only")
        assert "separate streams" in note
        assert "chance" not in aa.table

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            render_report([])
