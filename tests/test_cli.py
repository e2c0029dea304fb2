import errno
import os
import subprocess
import sys
import tracemalloc
import warnings
import wave
from pathlib import Path

import numpy as np
import pytest

import anonvox
from anonvox import anonymize, cli, formant
from anonvox.anonymize import AnonConfig
from anonvox.cli import main
from anonvox.embeddings import Corpus, load_embeddings, save_embeddings
from anonvox.plda import load_model
from anonvox.formant import ShiftConfig, WaveBuffer, anonymize_wav, read_wav, write_wav

from conftest import synth_vowel
from test_formant import REFERENCE_CASES, _wav_header


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


@pytest.mark.parametrize("argv, code, last", [
    (["train-plda", "--data", "t.xvec", "--out", "m.plda", "--center", "true"], 1,
     "anonvox: error: unrecognized arguments: --center true"),
    (["train-plda", "--data", "t.xvec", "--out", "m.plda"], 2,
     "error: [Errno 2] No such file or directory: 't.xvec'"),
], ids=["usage-error", "data-error"])
def test_module_run_exits_with_the_code_of_main(tmp_path, argv, code, last):
    env = dict(os.environ, PYTHONPATH=str(Path(anonvox.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-m", "anonvox.cli", *argv], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == code
    assert result.stderr.splitlines()[-1] == last
    assert not (tmp_path / "m.plda").exists()


# arguments and expected last stderr line name their files by placeholder: {synth},
# {model}, {trials} and {spk} (an enrolled speaker) come from the fixtures, {tmp} is
# the test's own directory, and a name written under {tmp} starting "out" is an output
_XVEC = ["anonymize-xvec", "--input", "{synth}/trial.xvec", "--pool", "{synth}/pool.xvec",
         "--model", "{model}", "--out", "{tmp}/out.xvec"]
_EVAL = ["eval", "--enroll", "{synth}/enroll.xvec", "--trial", "{synth}/trial.xvec",
         "--pool", "{synth}/pool.xvec", "--model", "{model}", "--trials", "{trials}",
         "--records", "{tmp}/out.txt"]
_TRIALS = ["make-trials", "--enroll", "{synth}/enroll.xvec", "--trial", "{synth}/trial.xvec",
           "--out", "{tmp}/out.txt"]
_TRAIN = ["train-plda", "--data", "{synth}/train.xvec", "--out", "{tmp}/out.plda"]
_WAV = ["anonymize-wav", "--input", "{tmp}/in.wav", "--out", "{tmp}/out.wav"]
_SYNTH = ["synth", "--out-dir", "{tmp}/out"]
_SCORE = ["score", "--model", "{model}", "--enroll", "{synth}/enroll.xvec",
          "--test", "{synth}/trial.xvec", "--trials", "{trials}", "--out", "{tmp}/out.txt"]
_DET = ["det", "--scores", "{tmp}/s.txt", "--trials", "{tmp}/t.txt", "--out", "{tmp}/out.txt"]
_SMALL_SYNTH = ["synth", "--out-dir", "{tmp}", "--n-speakers", "24", "--dim", "8"]
_SMALL_POOL = ["--n-farthest", "20", "--n-select", "10"]  # inside the 60-row pool
_VOWEL = synth_vowel(0.25)
_INPUTS = {  # the valid inputs a call reads from {tmp}
    "anonymize-wav": {"in.wav": _wav_header(1, 16, 2 * len(_VOWEL))
                      + formant._to_pcm(_VOWEL.samples).tobytes()},
    "det": {"t.txt": "s1 u1 target\ns1 u2 nontarget\n", "s.txt": "s1 u1 2.0\ns1 u2 -1.0\n"},
}
_NO_DIR = "error: [Errno 2] No such file or directory: '{tmp}/nodir/%s'"


def _in_missing_dir(argv):
    return [arg.replace("{tmp}/out", "{tmp}/nodir/out") for arg in argv]


_REFUSED_CALLS = [
    # (id, files written under {tmp}, argv, exit code, last stderr line)
    ("bool-flag", {}, [*_XVEC, "--same-gender-pool", "maybe"], 1,
     "anonvox anonymize-xvec: error: argument --same-gender-pool: "
     "expected a boolean, got 'maybe'"),
    ("config-line-without-equals", {"run.cfg": "iterations 5\n"},
     [*_TRAIN, "--config", "{tmp}/run.cfg"], 1,
     "usage error: {tmp}/run.cfg:1: expected 'key = value'"),
    ("config-int", {"run.cfg": "n_farthest = many\n"}, [*_XVEC, "--config", "{tmp}/run.cfg"], 1,
     "usage error: config key 'n_farthest': invalid literal for int() with base 10: 'many'"),
    ("config-bool", {"run.cfg": "same_gender_pool = maybe\n"},
     [*_XVEC, "--config", "{tmp}/run.cfg"], 1,
     "usage error: config key 'same_gender_pool': expected a boolean, got 'maybe'"),
    ("synth-fractions", {}, [*_SYNTH, "--fractions", "a,b,c,d"], 1,
     "usage error: bad fractions value 'a,b,c,d'"),
    ("eval-no-conditions", {}, [*_EVAL, "--conditions", " , "], 1,
     "usage error: no conditions requested"),
    ("n-select", {}, [*_XVEC, "--n-select", "0"], 2, "error: n_select must be positive"),
    ("n-farthest-over-a-gender-view", {},
     [*_XVEC, "--same-gender-pool", "true", "--n-farthest", "20", "--n-select", "10"], 2,
     "error: n_farthest (20) exceeds pool size (18) of the M pool view"),
    ("max-nontargets", {}, [*_TRIALS, "--max-nontargets", "-1"], 2,
     "error: max_nontargets must be non-negative"),
    ("alpha-zero", {}, [*_WAV, "--alpha", "0"], 2, "error: alpha must be in (0, 2], got 0.0"),
    ("alpha-over-two", {}, [*_WAV, "--alpha", "2.5"], 2,
     "error: alpha must be in (0, 2], got 2.5"),
    ("lpc-order", {}, [*_WAV, "--lpc-order", "400"], 2,
     "error: lpc_order must satisfy 1 <= lpc_order < frame_len"),
    ("iterations", {}, [*_TRAIN, "--iterations", "-1"], 2,
     "error: iterations must be non-negative"),
    ("n-speakers", {}, [*_SYNTH, "--n-speakers", "0"], 2,
     "error: n_speakers, utts_per_speaker and dim must be positive"),
    ("female-fraction", {}, [*_SYNTH, "--female-fraction", "1.5"], 2,
     "error: female_fraction must be in [0, 1]"),
    ("text-corpus-two-fields", {"bad.txt": "u1 s1\n"},
     ["train-plda", "--data", "{tmp}/bad.txt", "--format", "text", "--out", "{tmp}/out.plda"],
     2, "error: {tmp}/bad.txt:1: expected 'utt spk gender v1 ...', got 2 fields"),
    ("8-bit-wav", {"in.wav": _wav_header(1, 8, 4) + bytes(4)}, _WAV, 2,
     "error: {tmp}/in.wav: expected 16-bit PCM, got 8-bit"),
    ("empty-wav", {"in.wav": _wav_header(1, 16, 0)}, _WAV, 2,
     "error: {tmp}/in.wav: empty audio file"),
    ("unknown-test-utterance", {"bad_trials.txt": "{spk} nosuch target\n"},
     ["score", "--model", "{model}", "--enroll", "{synth}/enroll.xvec",
      "--test", "{synth}/trial.xvec", "--trials", "{tmp}/bad_trials.txt",
      "--out", "{tmp}/out.txt"], 2, "error: unknown test utterance 'nosuch' in trial list"),
    # an output in a missing directory is named as given, not by its temporary name
    ("synth-missing-dir", {}, [*_SMALL_SYNTH, "--model-out", "{tmp}/nodir/m.plda"], 2,
     _NO_DIR % "m.plda"),
    ("make-trials-missing-dir", {}, _in_missing_dir(_TRIALS), 2, _NO_DIR % "out.txt"),
    ("train-plda-missing-dir", {}, _in_missing_dir(_TRAIN), 2, _NO_DIR % "out.plda"),
    ("anonymize-xvec-missing-dir", {}, _in_missing_dir([*_XVEC, *_SMALL_POOL]), 2,
     _NO_DIR % "out.xvec"),
    ("anonymize-wav-missing-dir", _INPUTS["anonymize-wav"], _in_missing_dir(_WAV), 2,
     _NO_DIR % "out.wav"),
    ("score-missing-dir", {}, _in_missing_dir(_SCORE), 2, _NO_DIR % "out.txt"),
    ("eval-missing-dir", {}, _in_missing_dir([*_EVAL, *_SMALL_POOL]), 2, _NO_DIR % "out.txt"),
    ("det-missing-dir", _INPUTS["det"], _in_missing_dir(_DET), 2, _NO_DIR % "out.txt"),
]

# every command that reads an input file and writes a file reads all its inputs first:
# with its first input (the value of its first flag) missing and every output in a
# missing directory, it names the input
_REFUSED_CALLS += [
    (f"{argv[0]}-reads-before-it-writes", _INPUTS.get(argv[0], {}),
     _in_missing_dir([*argv[:2], "{tmp}/missing", *argv[3:]]), 2,
     "error: [Errno 2] No such file or directory: '{tmp}/missing'")
    for argv in (_TRIALS, _TRAIN, _XVEC, _WAV, _SCORE,
                 [*_EVAL, "--dump-anon", "{tmp}/out_anon"], _DET)
]


def _write_files(tmp_path, files, where):
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content.format(**where))


class TestExitCodes:
    @pytest.mark.parametrize("files, argv, code, last",
                             [pytest.param(*case[1:], id=case[0]) for case in _REFUSED_CALLS])
    def test_refused_call(self, synth_dir, trained, tmp_path, capsys, files, argv, code, last):
        where = {"synth": synth_dir, "model": trained[0], "trials": trained[1], "tmp": tmp_path,
                 "spk": load_embeddings(synth_dir / "enroll.xvec", "binary").spk_id[0]}
        _write_files(tmp_path, files, where)
        capsys.readouterr()
        assert run_cli(*(arg.format(**where) for arg in argv)) == code
        assert capsys.readouterr().err.splitlines()[-1] == last.format(**where)
        # no output and no temporary file: only what the case wrote
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)

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

    @pytest.mark.parametrize("command", ["synth", "make-trials"])
    def test_negative_seed_is_data_error(self, synth_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {"synth": ["--out-dir", str(out)],
                "make-trials": ["--enroll", str(synth_dir / "enroll.xvec"),
                                "--trial", str(synth_dir / "trial.xvec"), "--out", str(out)]}
        assert run_cli(command, *argv[command], "--seed", "-1") == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: seed must be non-negative"
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["nan", "cut"])
    def test_binary_corpus_fault_names_the_record(self, synth_dir, tmp_path, capsys, fault):
        blob = (synth_dir / "enroll.xvec").read_bytes()
        path = tmp_path / "enroll.xvec"
        if fault == "nan":
            # record 0's first coordinate follows its u16-prefixed utt and spk ids and gender byte
            n_utt = int.from_bytes(blob[12:14], "little")
            start = 17 + n_utt + int.from_bytes(blob[14 + n_utt : 16 + n_utt], "little")
            path.write_bytes(blob[:start] + np.array([np.nan], "<f8").tobytes() + blob[start + 8 :])
            detail = f"record 0: embedding {blob[14 : 14 + n_utt].decode()!r}: non-finite coordinate"
        else:
            # one byte short, the file leaves the fixed-layout read for the record walk
            path.write_bytes(blob[:-1])
            detail = f"record {int.from_bytes(blob[8:12], 'little') - 1}: truncated vector"
        assert run_cli("make-trials", "--enroll", str(path),
                       "--trial", str(synth_dir / "trial.xvec"),
                       "--out", str(tmp_path / "trials.txt")) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {path}: {detail}"
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


class TestOptionValuesOutsideTheirSet:
    """A value outside an option's set is a usage error, from a flag or a config
    key, found before any command runs."""

    @pytest.mark.parametrize("name, choices", [("format", "text,binary"),
                                               ("assignment", "per_speaker,per_utterance")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_eval(self, synth_dir, trained, tmp_path, capsys, name, choices, source):
        config = tmp_path / "run.cfg"
        config.write_text(f"{name} = bogus\n")
        given = ["--" + name, "bogus"] if source == "flag" else ["--config", str(config)]
        records = tmp_path / "records.txt"
        capsys.readouterr()
        assert run_cli(*_eval_args(synth_dir, trained, synth_dir / "pool.xvec"), *given,
                       "--records", str(records)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: unknown {name} 'bogus'; pick from {choices}\n"
        assert not records.exists()

    def test_synth_makes_no_directory(self, tmp_path, capsys):
        out = tmp_path / "newdir"
        assert run_cli("synth", "--out-dir", str(out), "--format", "bogus") == 1
        assert capsys.readouterr().err == (
            "usage error: unknown format 'bogus'; pick from text,binary\n")
        assert not out.exists()

    def test_eval_conditions_refused_before_any_input_is_read(self, synth_dir, trained,
                                                              tmp_path, capsys):
        # the value decides the exit code, not whether the inputs can be read
        argv = _eval_args(synth_dir, trained, synth_dir / "pool.xvec")
        argv[argv.index("--enroll") + 1] = str(tmp_path / "missing.xvec")
        capsys.readouterr()
        assert run_cli(*argv, "--conditions", "xx") == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "usage error: unknown condition 'xx'; pick from oo,oa,aa"

    def test_synth_fractions_refused_before_the_corpus_is_drawn(self, tmp_path, monkeypatch,
                                                                capsys):
        def no_draw(spec):
            raise AssertionError("generate ran before --fractions was checked")

        monkeypatch.setattr(cli, "generate", no_draw)
        out = tmp_path / "newdir"
        assert run_cli("synth", "--out-dir", str(out), "--fractions", "1,2") == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "usage error: fractions must have four comma-separated values")
        assert not out.exists()


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
        # an inserted and a deleted word over six reference words
        ("the cat sat\non the mat\n", "the cat sat down\non mat\n", "S=0 D=1 I=1 ref=6",
         "WER 33.333%"),
        # lines pair by position: a blank line pairs with the line beside it
        ("a b\n\nc d\ne f\n", "a b\nx\n\ne f\n", "S=0 D=2 I=1 ref=6", "WER 50.000%"),
        # a blank hypothesis deletes every reference word of its line
        ("a b\nc d\ne f\n", "a b\n\ne f\n", "S=0 D=2 I=0 ref=6", "WER 33.333%"),
        # only "\n" ends a line, and trailing blank lines are not counted
        ("a\x0cb\r\nc\n\n\n", "a b\nc\n", "S=0 D=0 I=0 ref=3", "WER 0.000%"),
        # a blank last hypothesis line is kept to pair with its reference line
        ("a b c\nd e\n", "a b c\n\n", "S=0 D=2 I=0 ref=5", "WER 40.000%"),
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

    def test_det_reads_tab_separated_commented_files(self, synth_dir, trained, tmp_path):
        model, trials = trained
        scores = tmp_path / "scores.txt"
        assert run_cli("score", "--model", str(model),
                       "--enroll", str(synth_dir / "enroll.xvec"),
                       "--test", str(synth_dir / "trial.xvec"),
                       "--trials", str(trials), "--out", str(scores)) == 0
        # files the savers did not write are walked line by line, to the same DET points
        trials_tab, scores_tab = tmp_path / "trials_tab.txt", tmp_path / "scores_tab.txt"
        trials_tab.write_text("# trials\n" + trials.read_text().replace(" ", "\t"))
        scores_tab.write_text("# scores\n\n" + scores.read_text().replace(" ", "\t"))
        for tag, score_file, trial_file in (("plain", scores, trials),
                                            ("tab", scores_tab, trials_tab)):
            assert run_cli("det", "--scores", str(score_file), "--trials", str(trial_file),
                           "--out", str(tmp_path / f"det_{tag}.txt")) == 0
        assert (tmp_path / "det_tab.txt").read_bytes() == (tmp_path / "det_plain.txt").read_bytes()

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

    def test_anonymize_wav_off_the_hop_grid_is_byte_stable(self, tmp_path):
        """120 s less 77 samples is 12,003 frames: 94 blocks of ``formant._BLOCK`` = 128,
        each carrying the samples later frames still reach to the front of its rolling
        window for the next. The command streams the file through that window; it must
        write the bytes the in-memory shifter gives, here and on inputs of one block less
        a frame, one block, one block and a frame, and less than one frame."""
        src = tmp_path / "in.wav"
        write_wav(WaveBuffer(np.resize(synth_vowel().samples, 120 * 16000 - 77), 16000), src)
        outs = [tmp_path / "out1.wav", tmp_path / "out2.wav"]
        for out in outs:
            assert run_cli("anonymize-wav", "--input", str(src), "--out", str(out),
                           "--alpha", "0.8") == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        with wave.open(str(src)) as w_in, wave.open(str(outs[0])) as w_out:
            assert w_in.getnframes() % 160 != 0
            assert w_out.getnframes() == w_in.getnframes()
        sources = [src]
        for case in ("block-1-frames", "block+0-frames", "block+1-frames", "shorter-than-frame"):
            sources.append(tmp_path / f"{case}.wav")
            write_wav(REFERENCE_CASES[case][0], sources[-1])
        for path in sources:
            streamed, in_memory = tmp_path / "streamed.wav", tmp_path / "in_memory.wav"
            assert run_cli("anonymize-wav", "--input", str(path), "--out", str(streamed),
                           "--alpha", "0.8") == 0
            write_wav(anonymize_wav(read_wav(path), ShiftConfig(alpha=0.8)), in_memory)
            assert streamed.read_bytes() == in_memory.read_bytes(), path.name

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


class TestAnonymizeWavFile:
    """The command streams its output into a temporary file that replaces ``--out`` on success."""

    def test_failure_leaves_no_partial_wav(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "in.wav"
        # 103 frames: two half-block eigen-solves, whichever thread takes them
        write_wav(synth_vowel(duration=1.0), src)
        eigvals, calls = np.linalg.eigvals, []

        def fail_on_second_call(matrices):
            calls.append(len(matrices))
            if len(calls) == 2:
                raise np.linalg.LinAlgError("eigenvalues did not converge")
            return eigvals(matrices)

        monkeypatch.setattr(np.linalg, "eigvals", fail_on_second_call)
        fresh, existing = tmp_path / "fresh.wav", tmp_path / "existing.wav"
        existing.write_bytes(b"an earlier output")
        for out in (fresh, existing):
            calls.clear()
            assert run_cli("anonymize-wav", "--input", str(src), "--out", str(out)) == 2
            assert capsys.readouterr().err.splitlines()[-1] == "error: eigenvalues did not converge"
        assert not fresh.exists()
        assert existing.read_bytes() == b"an earlier output"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.wav", "in.wav"]

    def test_out_equal_to_input_writes_the_same_bytes(self, tmp_path):
        src, other = tmp_path / "in.wav", tmp_path / "other.wav"
        write_wav(synth_vowel(duration=0.5), src)
        assert run_cli("anonymize-wav", "--input", str(src), "--out", str(other)) == 0
        assert run_cli("anonymize-wav", "--input", str(src), "--out", str(src)) == 0
        assert src.read_bytes() == other.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav", "other.wav"]

    def test_pipe_and_symlink_outs_are_written_through(self, tmp_path):
        src, other = tmp_path / "in.wav", tmp_path / "other.wav"
        write_wav(synth_vowel(duration=0.5), src)
        assert run_cli("anonymize-wav", "--input", str(src), "--out", str(other)) == 0
        # a pipe cannot be replaced by the temporary file, so it is written directly
        env = dict(os.environ, PYTHONPATH=str(Path(anonvox.__file__).resolve().parents[1]))
        result = subprocess.run([sys.executable, "-m", "anonvox.cli", "anonymize-wav",
                                 "--input", str(src), "--out", "/dev/stdout"],
                                env=env, capture_output=True, check=True)
        assert result.stdout == other.read_bytes()
        # the file a symlink names is replaced, and the link stays
        (tmp_path / "sub").mkdir()
        target, link = tmp_path / "sub" / "target.wav", tmp_path / "link.wav"
        target.write_bytes(b"an earlier output")
        link.symlink_to(target)
        assert run_cli("anonymize-wav", "--input", str(src), "--out", str(link)) == 0
        assert link.is_symlink() and target.read_bytes() == other.read_bytes()
        assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["target.wav"]

    def test_peak_memory_is_the_input_samples_and_one_block(self, tmp_path):
        vowel, cfg = synth_vowel(0.5), ShiftConfig()
        # one block's working set, counted in frame matrices of one block, as for anonymize_wav
        block_bytes = 12 * formant._BLOCK * cfg.frame_len * 8
        peaks, pcm_bytes = [], []
        for seconds in (15, 120):
            src = tmp_path / f"in{seconds}.wav"
            write_wav(WaveBuffer(np.tile(vowel.samples, 2 * seconds), vowel.sample_rate), src)
            pcm_bytes.append(2 * len(vowel) * 2 * seconds)
            tracemalloc.start()
            try:
                assert run_cli("anonymize-wav", "--input", str(src),
                               "--out", str(tmp_path / "out.wav")) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert peaks[-1] <= pcm_bytes[-1] + block_bytes
        # a longer input adds its 16-bit samples and nothing that grows with it
        assert peaks[1] - peaks[0] <= 1.1 * (pcm_bytes[1] - pcm_bytes[0])


def _write_then_fail(write):
    """``write`` that, once it has written, fails as a full disk would."""
    def failing(*args, **kwargs):
        write(*args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")
    return failing


_DISK_FULL = "error: [Errno 28] No space left on device"
_NOT_A_DIR = "error: [Errno 20] Not a directory: '/dev/null/x'"
_LATE_FAILURES = [
    # (id, argv, outputs under {tmp}, writer made to fail once it has written, last stderr
    # line); each call fails after an output is written, or after the first of several
    ("synth", [*_SMALL_SYNTH, "--model-out", "/dev/null/x"],
     ["train.xvec", "pool.xvec", "enroll.xvec", "trial.xvec"], None, _NOT_A_DIR),
    ("make-trials", _TRIALS, ["out.txt"], (cli, "save_trials"), _DISK_FULL),
    ("train-plda", _TRAIN, ["out.plda"], (cli, "save_model"), _DISK_FULL),
    ("anonymize-xvec", [*_XVEC, *_SMALL_POOL], ["out.xvec"], (cli, "save_embeddings"), _DISK_FULL),
    ("anonymize-wav", _WAV, ["out.wav"], (cli, "write_shifted"), _DISK_FULL),
    ("score", _SCORE, ["out.txt"], (cli, "save_scores"), _DISK_FULL),
    ("eval", [*_EVAL, *_SMALL_POOL, "--dump-anon", "/dev/null/x"], ["out.txt"], None, _NOT_A_DIR),
    ("det", _DET, ["out.txt"], (Path, "write_text"), _DISK_FULL),
]


class TestFailedCommandLeavesItsOutputsAsTheyWere:
    """Every output is written under a temporary name that replaces it only on success."""

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
    @pytest.mark.parametrize("argv, outputs, writer, last",
                             [pytest.param(*case[1:], id=case[0]) for case in _LATE_FAILURES])
    def test_late_failure(self, synth_dir, trained, tmp_path, capsys, monkeypatch, argv, outputs,
                          writer, last, existing):
        where = {"synth": synth_dir, "model": trained[0], "trials": trained[1], "tmp": tmp_path}
        _write_files(tmp_path, _INPUTS.get(argv[0], {}), where)
        if existing:
            for name in outputs:
                (tmp_path / name).write_bytes(b"an earlier output")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        if writer:
            monkeypatch.setattr(*writer, _write_then_fail(getattr(*writer)))
        capsys.readouterr()
        assert run_cli(*(arg.format(**where) for arg in argv)) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == last
        assert captured.out == ""  # eval prints its table only on success
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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

    def test_repeated_and_reordered_conditions_note_once(self, synth_dir, trained, capsys):
        assert self._eval(synth_dir, trained, "--n-farthest", "30",
                          "--conditions", "aa,oa,oo,oa") == 0
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

    def test_eval_notes_a_dump_with_no_anonymized_corpus(self, synth_dir, trained, tmp_path,
                                                         capsys):
        """With only ``oo`` there is nothing to dump, so no directory is made."""
        model, trials = trained
        dump = tmp_path / "anon" / "sub"
        assert self._stderr(capsys, "eval", "--enroll", str(synth_dir / "enroll.xvec"),
                            "--trial", str(synth_dir / "trial.xvec"),
                            "--pool", str(synth_dir / "pool.xvec"), "--model", str(model),
                            "--trials", str(trials), "--conditions", "oo,oo",
                            "--dump-anon", str(dump)) == [
            f"note: --dump-anon {dump}: oo alone anonymizes no corpus"]
        assert list(tmp_path.iterdir()) == []

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


class TestEvalDatasetLabel:
    """The label opens every records line, so it obeys the id rule."""

    @pytest.mark.parametrize("label, fault", [
        ("a b", "must be non-empty and contain no whitespace or control character"),
        ("", "must be non-empty and contain no whitespace or control character"),
        ("#x", "must not start with '#'"),
    ])
    def test_bad_label_refused_before_anonymizing(self, synth_dir, trained, tmp_path, capsys,
                                                  monkeypatch, label, fault):
        def refuse(*_):
            raise AssertionError("anonymized before the label was checked")

        monkeypatch.setattr(anonymize, "anonymize_corpus", refuse)
        records = tmp_path / "records.txt"
        capsys.readouterr()
        assert run_cli(*_eval_args(synth_dir, trained, synth_dir / "pool.xvec"),
                       "--dataset", label, "--records", str(records)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"error: dataset {label!r} {fault}"
        assert not records.exists()

    def test_trial_file_stem_is_checked(self, synth_dir, trained, tmp_path, capsys):
        trial = tmp_path / "my trial.xvec"
        trial.write_bytes((synth_dir / "trial.xvec").read_bytes())
        argv = _eval_args(synth_dir, trained, synth_dir / "pool.xvec")
        argv[argv.index("--trial") + 1] = str(trial)
        capsys.readouterr()
        assert run_cli(*argv, "--conditions", "oo") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "error: dataset 'my trial' must be non-empty and contain no whitespace or control "
            "character")

    @pytest.mark.parametrize("label", [None, "desk-1"])
    def test_records_lines_have_ten_fields(self, synth_dir, trained, tmp_path, label):
        records = tmp_path / "records.txt"
        argv = _eval_args(synth_dir, trained, synth_dir / "pool.xvec")
        argv += ["--records", str(records)] + (["--dataset", label] if label else [])
        assert run_cli(*argv) == 0
        lines = [line.split(" ") for line in records.read_text().splitlines()]
        assert len(lines) == 6
        assert {len(fields) for fields in lines} == {10}
        assert {fields[0] for fields in lines} == {label or "trial"}


class TestAnonymizeXvecRefusals:
    def test_corpus_dimension_differs_from_model(self, synth_dir, tmp_path, capsys):
        model = tmp_path / "d4.plda"
        train = load_embeddings(synth_dir / "train.xvec", "binary")
        narrow = Corpus("narrow", train.utt_id, train.spk_id, train.gender, train.matrix()[:, :4])
        save_embeddings(narrow, tmp_path / "narrow.xvec", "binary")
        assert run_cli("train-plda", "--data", str(tmp_path / "narrow.xvec"),
                       "--out", str(model), "--iterations", "2") == 0
        out = tmp_path / "anon.xvec"
        capsys.readouterr()
        assert run_cli("anonymize-xvec", "--input", str(synth_dir / "trial.xvec"),
                       "--pool", str(synth_dir / "pool.xvec"), "--model", str(model),
                       "--out", str(out), "--n-farthest", "20", "--n-select", "10") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "error: corpus dimension does not match model"
        assert not out.exists()


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
