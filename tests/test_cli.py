import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import anonvox
from anonvox import anonymize, cli
from anonvox.anonymize import AnonConfig
from anonvox.cli import main
from anonvox.embeddings import Corpus, load_embeddings, save_embeddings
from anonvox.plda import load_model
from anonvox.formant import read_wav, write_wav

from conftest import synth_vowel
from test_formant import _wav_header


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run_cli(
        "synth",
        "--out-dir", str(out),
        "--n-speakers", "24",
        "--utts-per-speaker", "6",
        "--dim", "8",
        "--seed", "3",
        "--fractions", "0.3,0.4,0.1,0.2",
        "--model-out", str(out / "truth.plda"),
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(synth_dir, tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    model = work / "model.plda"
    trials = work / "trials.txt"
    assert run_cli(
        "train-plda", "--data", str(synth_dir / "train.xvec"),
        "--out", str(model), "--iterations", "8",
    ) == 0
    assert run_cli(
        "make-trials",
        "--enroll", str(synth_dir / "enroll.xvec"),
        "--trial", str(synth_dir / "trial.xvec"),
        "--out", str(trials),
    ) == 0
    return model, trials


def test_cli_import_loads_no_scipy(tmp_path):
    """Neither importing the CLI nor running `det` loads scipy or statistics."""
    (tmp_path / "trials.txt").write_text("s1 u1 target\ns1 u2 nontarget\ns2 u1 nontarget\n")
    (tmp_path / "scores.txt").write_text("s1 u1 2.0\ns1 u2 -1.0\ns2 u1 0.5\n")
    det = ["det", "--scores", str(tmp_path / "scores.txt"), "--trials",
           str(tmp_path / "trials.txt"), "--out", str(tmp_path / "det.txt")]
    code = (
        "import anonvox.cli, sys\n"
        "def loaded():\n"
        "    return [m for m in sys.modules if m.split('.')[0] in ('scipy', 'statistics')]\n"
        "print(loaded())\n"
        f"assert anonvox.cli.main({det!r}) == 0\n"
        "print(loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(anonvox.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n[]\n"
    # a header, then one line per distinct score and one per sentinel
    assert len((tmp_path / "det.txt").read_text().splitlines()) == 1 + 3 + 2


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_is_usage_error(self):
        assert run_cli() == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run_cli("train-plda") == 1
        assert "missing required" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli(
            "train-plda", "--data", str(tmp_path / "nope.xvec"),
            "--out", str(tmp_path / "m.plda"),
        ) == 2

    def test_malformed_data_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("u1 s1 F not-a-number\n")
        assert run_cli(
            "train-plda", "--data", str(bad), "--format", "text",
            "--out", str(tmp_path / "m.plda"),
        ) == 2

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_required_options_come_from_the_option_table(self, capsys):
        assert run_cli("score") == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "usage error: score: missing required option(s): "
            "--model, --enroll, --test, --trials, --out"
        )
        assert run_cli("make-trials", "--help") == 0
        help_text = " ".join(capsys.readouterr().out.split())
        for flag in ("--enroll ENROLL enrollment embedding file (required)",
                     "--trial TRIAL trial embedding file (required)",
                     "--out OUT output trial list (required)",
                     "--format FORMAT embedding file format --"):
            assert flag in help_text

    def test_parser_is_built_once(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        for _ in range(2):
            assert run_cli("wer") == 1
            assert capsys.readouterr().err.splitlines()[-1] == (
                "usage error: wer: missing required option(s): --ref, --hyp"
            )

    def test_whitespace_id_in_binary_input_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "enroll.xvec"
        blob = b"XVC1" + np.array([1, 1], "<u4").tobytes()
        blob += b"\x02\x00u1\x03\x00s 1\x00" + np.zeros(1, "<f8").tobytes()
        path.write_bytes(blob)
        assert run_cli("make-trials", "--enroll", str(path), "--trial", str(path),
                       "--out", str(tmp_path / "trials.txt")) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {path}: record 0: spk_id 's 1' must be non-empty and contain no "
            "whitespace or control character"
        )
        assert not (tmp_path / "trials.txt").exists()

    @pytest.mark.parametrize(
        "blob", [b"not a wav file", b"RIFF", _wav_header(1, 16, 100) + bytes(20)],
        ids=["non-riff", "riff-only", "cut-on-sample"])
    def test_malformed_wav_is_data_error(self, tmp_path, capsys, blob):
        path = tmp_path / "in.wav"
        path.write_bytes(blob)
        assert run_cli("anonymize-wav", "--input", str(path),
                       "--out", str(tmp_path / "out.wav")) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {path}: ")
        assert not (tmp_path / "out.wav").exists()

    def test_malformed_model_names_the_file(self, synth_dir, trained, tmp_path, capsys):
        blob = bytearray(trained[0].read_bytes())
        blob[8:16] = np.array([np.nan], "<f8").tobytes()
        path = tmp_path / "nan.plda"
        path.write_bytes(blob)
        assert run_cli("score", "--model", str(path),
                       "--enroll", str(synth_dir / "enroll.xvec"),
                       "--test", str(synth_dir / "trial.xvec"),
                       "--trials", str(trained[1]), "--out", str(tmp_path / "scores.txt")) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {path}: mu has non-finite entries")
        assert not (tmp_path / "scores.txt").exists()

    @pytest.mark.parametrize("flag", ["--center", "--length-normalize"])
    def test_removed_preprocessing_flags_are_usage_errors(self, tmp_path, flag):
        assert run_cli("train-plda", "--data", str(tmp_path / "train.xvec"),
                       "--out", str(tmp_path / "m.plda"), flag, "true") == 1
        assert not (tmp_path / "m.plda").exists()


class TestDecodeFaultsNameTheFile:
    """A byte that is not UTF-8 is a data error naming its file; in a config
    file it is a usage error, like the file's other faults."""

    def _last_error(self, capsys):
        return capsys.readouterr().err.splitlines()[-1]

    def test_det_trial_and_score_files(self, tmp_path, capsys):
        good_trials, good_scores = tmp_path / "trials.txt", tmp_path / "scores.txt"
        good_trials.write_text("s1 u1 target\n")
        good_scores.write_text("s1 u1 0.5\n")
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"s1 u1 \x84\n")
        for scores, trials in ((good_scores, bad), (bad, good_trials)):
            assert run_cli("det", "--scores", str(scores), "--trials", str(trials)) == 2
            assert self._last_error(capsys) == (
                f"error: {bad}: 'utf-8' codec can't decode byte 0x84 in position 6: "
                "invalid start byte"
            )

    def test_make_trials_text_format(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "enroll.txt"
        bad.write_bytes(b"u1 s1 F 1.0\n\x84\n")
        for path in (bad, synth_dir / "enroll.xvec"):
            assert run_cli("make-trials", "--enroll", str(path), "--trial", str(path),
                           "--out", str(tmp_path / "trials.txt"), "--format", "text") == 2
            assert self._last_error(capsys).startswith(f"error: {path}: 'utf-8' codec ")
        assert not (tmp_path / "trials.txt").exists()

    def test_wer_transcripts(self, tmp_path, capsys):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("a b\n")
        bad.write_bytes(b"a \x84\n")
        for ref, hyp in ((bad, good), (good, bad)):
            assert run_cli("wer", "--ref", str(ref), "--hyp", str(hyp)) == 2
            assert self._last_error(capsys) == (
                f"error: {bad}: 'utf-8' codec can't decode byte 0x84 in position 2: "
                "invalid start byte"
            )

    def test_config_file_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"ref = r.txt\nhyp = \x84\n")
        assert run_cli("wer", "--config", str(config)) == 1
        assert self._last_error(capsys) == (
            f"usage error: {config}: 'utf-8' codec can't decode byte 0x84 in position 18: "
            "invalid start byte"
        )


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, tmp_path, capsys):
        ref = tmp_path / "r.txt"
        hyp = tmp_path / "h.txt"
        ref.write_text("a b c\n")
        hyp.write_text("a b c\n")
        config = tmp_path / "run.cfg"
        config.write_text(f"ref = {ref}\nhyp = {hyp}\n")
        assert run_cli("wer", "--config", str(config)) == 0
        assert "WER 0.000%" in capsys.readouterr().out

        other_hyp = tmp_path / "h2.txt"
        other_hyp.write_text("a x c\n")
        assert run_cli("wer", "--config", str(config), "--hyp", str(other_hyp)) == 0
        assert "WER 33.333%" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("bogus_key = 1\n")
        assert run_cli("wer", "--config", str(config)) == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["center", "length_normalize"])
    def test_removed_preprocessing_keys_rejected(self, tmp_path, capsys, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = true\n")
        assert run_cli("train-plda", "--config", str(config), "--data", "t.xvec",
                       "--out", str(tmp_path / "m.plda")) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"usage error: unknown config key {key!r} for train-plda"
        )

    def test_provenance_line_on_stderr(self, tmp_path, capsys):
        ref = tmp_path / "r.txt"
        ref.write_text("a\n")
        assert run_cli("wer", "--ref", str(ref), "--hyp", str(ref)) == 0
        err = capsys.readouterr().err
        assert f"# provenance: command=wer version={anonvox.__version__} " in err
        assert "ref=" in err and "hyp=" in err


class TestWerCommand:
    def test_identical_files(self, tmp_path, capsys):
        ref = tmp_path / "r.txt"
        hyp = tmp_path / "h.txt"
        ref.write_text("the cat sat\non the mat\n")
        hyp.write_text("the cat sat\non the mat\n")
        assert run_cli("wer", "--ref", str(ref), "--hyp", str(hyp)) == 0
        assert capsys.readouterr().out == "WER 0.000%\n"

    def test_line_count_mismatch(self, tmp_path):
        ref = tmp_path / "r.txt"
        hyp = tmp_path / "h.txt"
        ref.write_text("a\nb\n")
        hyp.write_text("a\n")
        assert run_cli("wer", "--ref", str(ref), "--hyp", str(hyp)) == 2

    @pytest.mark.parametrize("ref_text,hyp_text,counts,rate", [
        # lines pair by position: a blank line pairs with the line beside it
        ("a b\n\nc d\ne f\n", "a b\nx\n\ne f\n", "S=0 D=2 I=1 ref=6", "WER 50.000%"),
        # a blank hypothesis deletes every reference word of its line
        ("a b\nc d\ne f\n", "a b\n\ne f\n", "S=0 D=2 I=0 ref=6", "WER 33.333%"),
        # only "\n" ends a line, and trailing blank lines are not counted
        ("a\x0cb\r\nc\n\n\n", "a b\nc\n", "S=0 D=0 I=0 ref=3", "WER 0.000%"),
    ])
    def test_lines_pair_by_position(self, tmp_path, capsys, ref_text, hyp_text, counts, rate):
        ref = tmp_path / "r.txt"
        hyp = tmp_path / "h.txt"
        ref.write_bytes(ref_text.encode())
        hyp.write_bytes(hyp_text.encode())
        assert run_cli("wer", "--ref", str(ref), "--hyp", str(hyp)) == 0
        captured = capsys.readouterr()
        assert captured.out == rate + "\n"
        assert captured.err.splitlines()[-1] == counts

    def test_blank_transcripts_are_a_data_error(self, tmp_path, capsys):
        ref = tmp_path / "r.txt"
        hyp = tmp_path / "h.txt"
        ref.write_text("\n  \n")
        hyp.write_text("\n\n")
        assert run_cli("wer", "--ref", str(ref), "--hyp", str(hyp)) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: reference word count must be positive"
        )


class TestPipelineCommands:
    def test_synth_writes_corpora(self, synth_dir):
        for name in ("train.xvec", "pool.xvec", "enroll.xvec", "trial.xvec", "truth.plda"):
            assert (synth_dir / name).exists()

    def test_score_and_det(self, synth_dir, trained, tmp_path, capsys):
        model, trials = trained
        scores = tmp_path / "scores.txt"
        assert run_cli(
            "score", "--model", str(model),
            "--enroll", str(synth_dir / "enroll.xvec"),
            "--test", str(synth_dir / "trial.xvec"),
            "--trials", str(trials), "--out", str(scores),
        ) == 0
        assert scores.exists()
        capsys.readouterr()
        assert run_cli("det", "--scores", str(scores), "--trials", str(trials)) == 0
        out = capsys.readouterr().out
        assert out.startswith("# threshold p_fa p_miss probit_fa probit_miss")
        # `score` writes the trial list's row order; a reordered file joins by pair
        lines = scores.read_text().splitlines(keepends=True)
        (tmp_path / "sorted.txt").write_text("".join(sorted(lines, reverse=True)))
        assert run_cli("det", "--scores", str(tmp_path / "sorted.txt"),
                       "--trials", str(trials)) == 0
        assert capsys.readouterr().out == out

    def test_anonymize_xvec(self, synth_dir, trained, tmp_path):
        model, _ = trained
        out = tmp_path / "anon.xvec"
        assert run_cli(
            "anonymize-xvec",
            "--input", str(synth_dir / "trial.xvec"),
            "--pool", str(synth_dir / "pool.xvec"),
            "--model", str(model),
            "--out", str(out),
            "--n-farthest", "20", "--n-select", "10",
            "--subset-tag", "trial",
        ) == 0
        assert out.exists()

    def test_eval_end_to_end(self, synth_dir, trained, tmp_path, capsys):
        model, trials = trained
        records = tmp_path / "records.txt"
        assert run_cli(
            "eval",
            "--enroll", str(synth_dir / "enroll.xvec"),
            "--trial", str(synth_dir / "trial.xvec"),
            "--pool", str(synth_dir / "pool.xvec"),
            "--model", str(model),
            "--trials", str(trials),
            "--n-farthest", "20", "--n-select", "10",
            "--records", str(records),
        ) == 0
        table = capsys.readouterr().out
        assert "original" in table and "anonymized" in table
        lines = records.read_text().strip().splitlines()
        statuses = {tuple(l.split()[2:4]) for l in lines}
        assert statuses == {
            ("original", "original"),
            ("original", "anonymized"),
            ("anonymized", "anonymized"),
        }

    def test_eval_determinism_bytes(self, synth_dir, trained, tmp_path, capsys):
        model, trials = trained
        outputs = []
        for tag in ("one", "two"):
            records = tmp_path / f"records_{tag}.txt"
            dump = tmp_path / f"dump_{tag}"
            assert run_cli(
                "eval",
                "--enroll", str(synth_dir / "enroll.xvec"),
                "--trial", str(synth_dir / "trial.xvec"),
                "--pool", str(synth_dir / "pool.xvec"),
                "--model", str(model),
                "--trials", str(trials),
                "--n-farthest", "20", "--n-select", "10", "--seed", "5",
                "--records", str(records),
                "--dump-anon", str(dump),
            ) == 0
            outputs.append(
                (
                    capsys.readouterr().out,
                    records.read_bytes(),
                    (dump / "trial_anon.xvec").read_bytes(),
                    (dump / "enroll_anon.xvec").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_anonymize_wav(self, tmp_path):
        src = tmp_path / "in.wav"
        dst = tmp_path / "out.wav"
        write_wav(synth_vowel(duration=0.2), src)
        assert run_cli("anonymize-wav", "--input", str(src), "--out", str(dst),
                       "--alpha", "0.8") == 0
        out = read_wav(dst)
        assert len(out) == len(read_wav(src))

    def test_unknown_condition_rejected(self, synth_dir, trained, capsys):
        model, trials = trained
        assert run_cli(
            "eval",
            "--enroll", str(synth_dir / "enroll.xvec"),
            "--trial", str(synth_dir / "trial.xvec"),
            "--pool", str(synth_dir / "pool.xvec"),
            "--model", str(model),
            "--trials", str(trials),
            "--conditions", "oo,zz",
        ) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "usage error: unknown condition 'zz'; pick from oo,oa,aa"


class TestPoolRegimeNote:
    """The fixture's pool holds 60 rows: 42 F and 18 M."""

    def _eval(self, synth_dir, trained, *extra):
        model, trials = trained
        return run_cli("eval", "--enroll", str(synth_dir / "enroll.xvec"),
                       "--trial", str(synth_dir / "trial.xvec"),
                       "--pool", str(synth_dir / "pool.xvec"), "--model", str(model),
                       "--trials", str(trials), "--n-select", "10", *extra)

    @staticmethod
    def _notes(capsys):
        return [l for l in capsys.readouterr().err.splitlines() if l.startswith("note: n_farthest")]

    def test_eval_notes_a_view_n_farthest_covers_half_of(self, synth_dir, trained, capsys):
        assert self._eval(synth_dir, trained, "--n-farthest", "30") == 0
        assert self._notes(capsys) == [
            "note: n_farthest 30 is 50% of the 60-row pool view; "
            "pseudo-speakers converge on the pool mean"]

    @pytest.mark.parametrize("extra", [["--n-farthest", "29"],
                                       ["--n-farthest", "60", "--conditions", "oo"]])
    def test_eval_without_the_regime_prints_no_note(self, synth_dir, trained, capsys, extra):
        assert self._eval(synth_dir, trained, *extra) == 0
        assert self._notes(capsys) == []

    def test_anonymize_xvec_notes_only_the_gender_view_it_covers_half_of(self, synth_dir, trained, tmp_path, capsys):
        model, _ = trained
        assert run_cli("anonymize-xvec", "--input", str(synth_dir / "trial.xvec"),
                       "--pool", str(synth_dir / "pool.xvec"), "--model", str(model),
                       "--out", str(tmp_path / "anon.xvec"), "--n-farthest", "10",
                       "--n-select", "5", "--same-gender-pool", "true") == 0
        assert self._notes(capsys) == [
            "note: n_farthest 10 is 56% of the 18-row M pool view; "
            "pseudo-speakers converge on the pool mean"]


class TestLibraryWarningsAreNotes:
    """A warning the library raises prints as one ``note:`` line, without the
    source path and line that the default warning display adds."""

    def _stderr(self, capsys, *argv):
        assert run_cli(*argv) == 0
        return capsys.readouterr().err.splitlines()[1:]  # after the provenance line

    def test_make_trials_names_the_speaker_without_trials(self, tmp_path, capsys):
        shown = warnings.showwarning
        rows = [("e1", "s1", "F"), ("e3", "s3", "F"), ("e2", "s2", "M")]
        save_embeddings(Corpus("enroll", *zip(*rows), np.eye(3)), tmp_path / "enroll.xvec",
                        "binary")
        save_embeddings(Corpus("trial", ["t1", "t2"], ["s1", "s2"], ["F", "M"], np.eye(3)[:2]),
                        tmp_path / "trial.xvec", "binary")
        assert self._stderr(capsys, "make-trials", "--enroll", str(tmp_path / "enroll.xvec"),
                            "--trial", str(tmp_path / "trial.xvec"),
                            "--out", str(tmp_path / "trials.txt")) == [
            "note: enrollment speaker 's3' has no trial utterances",
            "wrote 3 trials (2 target, 1 nontarget)"]
        assert warnings.showwarning is shown

    def test_train_plda_notes_a_degenerate_corpus(self, tmp_path, capsys):
        corpus = Corpus("train", [f"u{i}" for i in range(6)], [f"s{i % 2}" for i in range(6)],
                        ["F"] * 6, np.ones((6, 2)))
        save_embeddings(corpus, tmp_path / "train.xvec", "binary")
        err = self._stderr(capsys, "train-plda", "--data", str(tmp_path / "train.xvec"),
                           "--out", str(tmp_path / "model.plda"), "--iterations", "1")
        assert err[0] == "note: degenerate corpus (all vectors identical); covariances floored"
        assert all(line.startswith("note: ") for line in err[:-1])
        assert err[-1] == "trained D=2 model on 6 embeddings"

    def test_train_plda_notes_a_per_speaker_anonymized_corpus(self, synth_dir, trained, tmp_path,
                                                              capsys):
        """Each speaker of a per-speaker anonymized corpus holds one repeated vector:
        its within-speaker covariance collapses against the data's spread."""
        model, _ = trained
        anon = tmp_path / "train_anon.xvec"
        self._stderr(capsys, "anonymize-xvec", "--input", str(synth_dir / "train.xvec"),
                     "--pool", str(synth_dir / "pool.xvec"), "--model", str(model),
                     "--out", str(anon), "--n-farthest", "20", "--n-select", "10")
        assert self._stderr(capsys, "train-plda", "--data", str(anon),
                            "--out", str(tmp_path / "model.plda")) == [
            "note: within-speaker covariance collapsed; flooring with 1e-6 I",
            f"trained D=8 model on {len(load_embeddings(anon, 'binary'))} embeddings"]


class TestEvalAnonymizesOncePerTag:
    @pytest.mark.parametrize("same_tags", [False, True])
    def test_calls_and_dump_bytes(self, synth_dir, trained, tmp_path, monkeypatch, same_tags):
        model_path, trials = trained
        real = anonymize.anonymize_corpus
        calls = []

        def counting(corpus, pool, model, cfg):
            calls.append((len(corpus), cfg.subset_tag))
            return real(corpus, pool, model, cfg)

        monkeypatch.setattr(anonymize, "anonymize_corpus", counting)
        monkeypatch.setattr(cli, "anonymize_corpus", counting)
        dump = tmp_path / "dump"
        assert run_cli(
            "eval",
            "--enroll", str(synth_dir / "enroll.xvec"),
            "--trial", str(synth_dir / "trial.xvec"),
            "--pool", str(synth_dir / "pool.xvec"),
            "--model", str(model_path),
            "--trials", str(trials),
            "--n-farthest", "20", "--n-select", "10", "--seed", "5",
            "--same-tags", str(same_tags).lower(),
            "--dump-anon", str(dump),
        ) == 0
        enroll = load_embeddings(synth_dir / "enroll.xvec", "binary")
        trial = load_embeddings(synth_dir / "trial.xvec", "binary")
        # oa and aa share the trial side unless same_tags gives aa its own tag
        expected = [(len(trial), "trial"), (len(enroll), "enroll")]
        if same_tags:
            expected.insert(1, (len(trial), "enroll"))
        assert calls == expected

        # the dump holds exactly what a direct anonymization with aa's tags writes
        pool = load_embeddings(synth_dir / "pool.xvec", "binary")
        model = load_model(model_path)
        trial_tag = "enroll" if same_tags else "trial"
        for name, corpus, tag in (("trial_anon.xvec", trial, trial_tag),
                                  ("enroll_anon.xvec", enroll, "enroll")):
            cfg = AnonConfig(n_farthest=20, n_select=10, seed=5, subset_tag=tag)
            save_embeddings(real(corpus, pool, model, cfg), tmp_path / name, "binary")
            assert (dump / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_repeated_and_reordered_conditions_run_once(self, synth_dir, trained, tmp_path,
                                                         capsys):
        outputs = []
        for name, conditions in (("default", "oo,oa,aa"), ("mixed", "aa,oo,oa,oo,aa")):
            out = tmp_path / name
            out.mkdir()
            capsys.readouterr()
            assert run_cli(*_eval_args(synth_dir, trained, synth_dir / "pool.xvec"),
                           "--conditions", conditions, "--records", str(out / "records.txt"),
                           "--dump-anon", str(out / "anon")) == 0
            files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            outputs.append((capsys.readouterr().out, files))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1]) == 3


class TestDetRejectsMalformedFiles:
    """Each malformed trial or score file exits 2 with a path:line message."""

    @staticmethod
    def _det(tmp_path, capsys, scores_text, trials_text):
        scores, trials = tmp_path / "scores.txt", tmp_path / "trials.txt"
        scores.write_text(scores_text)
        trials.write_text(trials_text)
        capsys.readouterr()
        code = run_cli("det", "--scores", str(scores), "--trials", str(trials))
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_score(self, tmp_path, capsys, token):
        code, err = self._det(tmp_path, capsys, f"s1 u1 0.5\ns1 u2 {token}\n",
                              "s1 u1 target\ns1 u2 nontarget\n")
        assert code == 2
        assert f"{tmp_path / 'scores.txt'}:2:" in err and "not finite" in err

    def test_duplicate_trial_pair(self, tmp_path, capsys):
        code, err = self._det(tmp_path, capsys, "s1 u1 0.5\ns1 u2 0.1\n",
                              "s1 u2 nontarget\ns1 u2 nontarget\ns1 u1 target\n")
        assert code == 2
        assert f"{tmp_path / 'trials.txt'}:2:" in err and "duplicate trial pair" in err

    def test_duplicate_score_pair(self, tmp_path, capsys):
        code, err = self._det(tmp_path, capsys, "s1 u1 0.5\ns1 u1 0.7\ns1 u2 0.1\n",
                              "s1 u1 target\ns1 u2 nontarget\n")
        assert code == 2
        assert f"{tmp_path / 'scores.txt'}:2:" in err and "duplicate score pair" in err

    def test_score_pair_missing_from_trials(self, tmp_path, capsys):
        code, err = self._det(tmp_path, capsys, "s1 u1 0.5\ns1 u9 0.1\n",
                              "s1 u1 target\ns1 u2 nontarget\n")
        assert code == 2
        assert err.splitlines()[-1] == (f"error: {tmp_path / 'scores.txt'}:2: score pair "
                                        "('s1', 'u9') not present in trial list")

    def test_trial_file_is_read_first(self, tmp_path, capsys):
        code, err = self._det(tmp_path, capsys, "s1 u1 nan\n", "s1 u1 maybe\n")
        assert code == 2
        assert err.splitlines()[-1] == f"error: {tmp_path / 'trials.txt'}:1: bad label 'maybe'"


class TestTrialLabelsMustMatchCorpora:
    @pytest.fixture
    def swapped(self, trained, tmp_path):
        """The trial list with every target and nontarget label exchanged."""
        _, trials = trained
        lines = [line.split() for line in trials.read_text().splitlines()]
        flip = {"target": "nontarget", "nontarget": "target"}
        path = tmp_path / "swapped.txt"
        path.write_text("".join(f"{spk} {utt} {flip[label]}\n" for spk, utt, label in lines))
        spk, utt, label = lines[0]
        owns = "owns" if label == "target" else "does not own"
        return path, (f"error: trial {(spk, utt)} is labeled {flip[label]} but {spk} {owns} "
                      "the utterance")

    def test_eval_refuses(self, synth_dir, trained, swapped, tmp_path, capsys):
        path, message = swapped
        records = tmp_path / "records.txt"
        argv = _eval_args(synth_dir, (trained[0], path), synth_dir / "pool.xvec")
        capsys.readouterr()
        assert run_cli(*argv, "--records", str(records)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == message
        assert not records.exists()

    def test_score_refuses(self, synth_dir, trained, swapped, tmp_path, capsys):
        path, message = swapped
        out = tmp_path / "scores.txt"
        capsys.readouterr()
        assert run_cli("score", "--model", str(trained[0]),
                       "--enroll", str(synth_dir / "enroll.xvec"),
                       "--test", str(synth_dir / "trial.xvec"),
                       "--trials", str(path), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == message
        assert not out.exists()

    def test_det_has_no_corpora_and_trusts_the_file(self, synth_dir, trained, swapped, tmp_path):
        model, trials = trained
        scores = tmp_path / "scores.txt"
        assert run_cli("score", "--model", str(model),
                       "--enroll", str(synth_dir / "enroll.xvec"),
                       "--test", str(synth_dir / "trial.xvec"),
                       "--trials", str(trials), "--out", str(scores)) == 0
        assert run_cli("det", "--scores", str(scores), "--trials", str(swapped[0]),
                       "--out", str(tmp_path / "det.txt")) == 0


def _eval_args(synth_dir, trained, pool):
    model, trials = trained
    return ["eval", "--enroll", str(synth_dir / "enroll.xvec"),
            "--trial", str(synth_dir / "trial.xvec"), "--pool", str(pool),
            "--model", str(model), "--trials", str(trials),
            "--n-farthest", "20", "--n-select", "10"]


class TestEvalRejectsPoolOverlap:
    def test_pool_speaker_in_enrollment_or_trial_data(self, synth_dir, trained, tmp_path, capsys):
        pool = load_embeddings(synth_dir / "pool.xvec", "binary")
        trial = load_embeddings(synth_dir / "trial.xvec", "binary")
        # two trial speakers' utterances join the pool under fresh utt_ids
        speakers = sorted(set(trial.spk_id.tolist()))[:2]
        rows = [i for i, spk in enumerate(trial.spk_id.tolist()) if spk in speakers]
        leaky = Corpus(
            "leaky",
            [*pool.utt_id.tolist(), *(f"x{i}" for i in rows)],
            [*pool.spk_id.tolist(), *trial.spk_id[rows].tolist()],
            [*pool.gender.tolist(), *trial.gender[rows].tolist()],
            np.concatenate([pool.matrix(), trial.matrix()[rows]]),
        )
        save_embeddings(leaky, tmp_path / "leaky.xvec", "binary")
        capsys.readouterr()
        assert run_cli(*_eval_args(synth_dir, trained, tmp_path / "leaky.xvec")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"error: 2 pool speaker(s) also in enrollment or trial data: {' '.join(speakers)}"
        )

    def test_many_shared_speakers_are_abbreviated(self, synth_dir, trained, capsys):
        # the enrollment file as the pool shares all of its speakers
        enroll = load_embeddings(synth_dir / "enroll.xvec", "binary")
        speakers = sorted(set(enroll.spk_id.tolist()))
        assert len(speakers) > 5
        capsys.readouterr()
        assert run_cli(*_eval_args(synth_dir, trained, synth_dir / "enroll.xvec")) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {len(speakers)} pool speaker(s) also in enrollment or trial data: "
            f"{' '.join(speakers[:5])} ..."
        )


def test_command_pipeline_builds_no_embedding(tmp_path, monkeypatch):
    """synth to anonymize-xvec runs on columns alone: no command reads ``Corpus.records``."""

    def refuse(self):
        raise AssertionError(f"per-row records read from corpus {self.name!r}")

    monkeypatch.setattr(Corpus, "records", property(refuse))
    d = tmp_path
    steps = [
        ["synth", "--out-dir", str(d), "--n-speakers", "24", "--utts-per-speaker", "6",
         "--dim", "8", "--seed", "4", "--fractions", "0.3,0.4,0.1,0.2"],
        ["train-plda", "--data", str(d / "train.xvec"), "--out", str(d / "m.plda"),
         "--iterations", "3"],
        ["make-trials", "--enroll", str(d / "enroll.xvec"), "--trial", str(d / "trial.xvec"),
         "--out", str(d / "trials.txt")],
        ["score", "--model", str(d / "m.plda"), "--enroll", str(d / "enroll.xvec"),
         "--test", str(d / "trial.xvec"), "--trials", str(d / "trials.txt"),
         "--out", str(d / "scores.txt")],
        ["eval", "--enroll", str(d / "enroll.xvec"), "--trial", str(d / "trial.xvec"),
         "--pool", str(d / "pool.xvec"), "--model", str(d / "m.plda"),
         "--trials", str(d / "trials.txt"), "--n-farthest", "20", "--n-select", "10",
         "--dump-anon", str(d / "anon")],
        ["anonymize-xvec", "--input", str(d / "enroll.xvec"), "--pool", str(d / "pool.xvec"),
         "--model", str(d / "m.plda"), "--out", str(d / "anon.xvec"),
         "--assignment", "per_utterance", "--same-gender-pool", "true",
         "--n-farthest", "10", "--n-select", "5"],
    ]
    for argv in steps:
        assert run_cli(*argv) == 0, argv[0]
    assert (d / "anon" / "enroll_anon.xvec").exists() and (d / "anon.xvec").exists()
