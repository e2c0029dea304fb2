"""Command-line interface.

Subcommands: synth, make-trials, train-plda, anonymize-xvec, anonymize-wav,
score, eval, det, wer. Options may come from ``--config FILE`` holding
``key = value`` lines; explicit flags override file values, unknown keys are
rejected. Exit codes: 0 success, 1 usage error, 2 data/validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import os
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import __version__
from .anonymize import ASSIGNMENTS, AnonConfig, anonymize_corpus
from .embeddings import (
    FORMATS,
    TrialPolicy,
    load_embeddings,
    load_scores,
    load_trials,
    make_trials,
    read_utf8,
    save_embeddings,
    save_scores,
    save_trials,
)
from .formant import ShiftConfig, read_pcm, write_shifted
from .harness import Condition, evaluate, render_report
from .metrics import WerResult, det_points, format_det, wer_counts
from .plda import load_model, save_model, score_trials, train_plda
from .synthgen import GenSpec, default_spec, generate, split


class UsageError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


@dataclass(frozen=True)
class Opt:
    name: str
    type: type
    default: object
    help: str
    required: bool = False


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anonvox",
        description="speaker anonymization and verification evaluation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"anonvox {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, (_, options) in _COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="key = value option file")
        for opt in options:
            flag = "--" + opt.name.replace("_", "-")
            text = opt.help + (" (required)" if opt.required else "")
            p.add_argument(flag, dest=opt.name, type=opt.type, default=None, help=text)
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    for lineno, line in enumerate(read_utf8(path, UsageError).split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve_options(command: str, args: argparse.Namespace) -> dict:
    table = {opt.name: opt for opt in _COMMANDS[command][1]}
    resolved = {name: opt.default for name, opt in table.items()}
    if args.config is not None:
        for key, raw in _read_config_file(args.config).items():
            if key not in table:
                raise UsageError(f"unknown config key {key!r} for {command}")
            try:
                resolved[key] = table[key].type(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"config key {key!r}: {exc}") from None
    for name in table:
        flag_value = getattr(args, name)
        if flag_value is not None:
            resolved[name] = flag_value
    for name, choices in (("format", FORMATS), ("assignment", ASSIGNMENTS)):
        if name in resolved and resolved[name] not in choices:
            raise UsageError(f"unknown {name} {resolved[name]!r}; pick from {','.join(choices)}")
    missing = [n for n, opt in table.items() if opt.required and resolved[n] is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise UsageError(f"{command}: missing required option(s): {flags}")
    return resolved


def _print_provenance(command: str, opts: dict) -> None:
    rendered = " ".join(f"{k}={opts[k]}" for k in sorted(opts))
    print(f"# provenance: command={command} version={__version__} {rendered}", file=sys.stderr)


def _parse_fractions(text: str) -> tuple[float, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 4:
        raise UsageError("fractions must have four comma-separated values")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad fractions value {text!r}") from None


def _config(cls, opts: dict):
    """``cls`` built from the options named after its dataclass fields."""
    return cls(**{f.name: opts[f.name] for f in fields(cls) if f.name in opts})


# default_spec's parameters are synth options, with its defaults
_SPEC_DEFAULTS = {name: p.default for name, p in inspect.signature(default_spec).parameters.items()}


@contextlib.contextmanager
def _staged_outputs():
    """Yield ``out(path)``: a temporary file beside ``path``, following a symlink, that
    replaces it on success and is removed on any exception. A pipe or a device such as
    ``/dev/stdout`` cannot be replaced, so ``out`` returns it to be written directly."""
    staged = []

    def out(path) -> str:
        if os.path.exists(path) and not os.path.isfile(path):
            return path
        head, name = os.path.split(os.path.realpath(path))
        tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            # "x" creates the file as a plain open would, with the umask's permissions
            open(tmp, "xb").close()
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        staged.append((tmp, os.path.join(head, name)))
        return tmp

    try:
        yield out
        for tmp, target in staged:
            os.replace(tmp, target)
    finally:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def _cmd_synth(opts: dict, out) -> int:
    fractions = _parse_fractions(opts["fractions"])  # before the corpus is drawn
    spec = default_spec(**{name: opts[name] for name in _SPEC_DEFAULTS})
    corpus, truth = generate(replace(spec, female_fraction=opts["female_fraction"]))
    train, pool, enroll, trial = split(corpus, fractions, opts["seed"])
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "txt" if opts["format"] == "text" else "xvec"
    for tag, subset in (("train", train), ("pool", pool), ("enroll", enroll), ("trial", trial)):
        if len(subset) == 0:
            continue
        save_embeddings(subset, out(out_dir / f"{tag}.{ext}"), opts["format"])
    if opts["model_out"]:
        save_model(truth, out(opts["model_out"]))
    print(f"wrote corpora to {out_dir}", file=sys.stderr)
    return 0


def _cmd_make_trials(opts: dict, out) -> int:
    enroll = load_embeddings(opts["enroll"], opts["format"])
    trial = load_embeddings(opts["trial"], opts["format"])
    trials = make_trials(enroll, trial, _config(TrialPolicy, opts))
    save_trials(trials, out(opts["out"]))
    print(
        f"wrote {len(trials)} trials ({trials.n_target} target, "
        f"{trials.n_nontarget} nontarget)",
        file=sys.stderr,
    )
    return 0


def _cmd_train_plda(opts: dict, out) -> int:
    corpus = load_embeddings(opts["data"], opts["format"])
    model = train_plda(corpus, opts["iterations"])
    save_model(model, out(opts["out"]))
    print(f"trained D={model.dim} model on {len(corpus)} embeddings", file=sys.stderr)
    return 0


def _cmd_anonymize_xvec(opts: dict, out) -> int:
    corpus = load_embeddings(opts["input"], opts["format"])
    pool = load_embeddings(opts["pool"], opts["format"])
    model = load_model(opts["model"])
    anon = anonymize_corpus(corpus, pool, model, _config(AnonConfig, opts))
    save_embeddings(anon, out(opts["out"]), opts["format"])
    print(f"anonymized {len(anon)} embeddings", file=sys.stderr)
    return 0


def _cmd_anonymize_wav(opts: dict, out) -> int:
    cfg = _config(ShiftConfig, opts)
    pcm, rate = read_pcm(opts["input"])
    write_shifted(pcm, rate, out(opts["out"]), cfg)
    print(f"wrote {opts['out']}", file=sys.stderr)
    return 0


def _cmd_score(opts: dict, out) -> int:
    model = load_model(opts["model"])
    enroll = load_embeddings(opts["enroll"], opts["format"])
    test = load_embeddings(opts["test"], opts["format"])
    trials = load_trials(opts["trials"])
    scores = score_trials(model, enroll, test, trials)
    save_scores(scores, out(opts["out"]))
    print(f"wrote {len(scores)} scores", file=sys.stderr)
    return 0


def _cmd_eval(opts: dict, out) -> int:
    # a bad value is a usage error before any input is read
    conditions = []
    for token in opts["conditions"].split(","):
        token = token.strip()
        if token:
            try:
                conditions.append(Condition(token))
            except ValueError:
                raise UsageError(f"unknown condition {token!r}; pick from oo,oa,aa") from None
    if not conditions:
        raise UsageError("no conditions requested")

    enroll = load_embeddings(opts["enroll"], opts["format"])
    trial = load_embeddings(opts["trial"], opts["format"])
    pool = load_embeddings(opts["pool"], opts["format"])
    model = load_model(opts["model"])
    trials = load_trials(opts["trials"])
    runs, trial_anon, enroll_anon = evaluate(
        conditions, enroll, trial, pool, model, _config(AnonConfig, opts), trials,
        dataset=opts["dataset"], same_tags=opts["same_tags"],
    )
    report = render_report(runs)
    if opts["records"]:
        Path(out(opts["records"])).write_text("\n".join(report.records) + "\n", encoding="utf-8")
    if opts["dump_anon"] and trial_anon is None:  # oa and aa both anonymize the trial side
        warnings.warn(f"--dump-anon {opts['dump_anon']}: oo alone anonymizes no corpus")
    elif opts["dump_anon"]:
        Path(opts["dump_anon"]).mkdir(parents=True, exist_ok=True)
        for name, corpus in (("trial_anon.xvec", trial_anon), ("enroll_anon.xvec", enroll_anon)):
            if corpus is not None:
                save_embeddings(corpus, out(Path(opts["dump_anon"], name)), "binary")
    # after the last output is staged, so a failed run prints no table
    sys.stdout.write(report.table)
    return 0


def _cmd_det(opts: dict, out) -> int:
    scores = load_scores(opts["scores"], load_trials(opts["trials"]))
    text = format_det(det_points(scores.score, scores.trials.is_target))
    if opts["out"]:
        Path(out(opts["out"])).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _transcript_lines(path) -> list[list[str]]:
    """The words of each ``\n``-separated line; a final ``\n`` ends the last line."""
    lines = read_utf8(path).split("\n")
    if not lines[-1]:
        lines.pop()
    return [line.split() for line in lines]


def _cmd_wer(opts: dict, out) -> int:
    refs, hyps = _transcript_lines(opts["ref"]), _transcript_lines(opts["hyp"])
    # trailing blank lines are dropped, but only down to the other file's line count
    for lines, other in ((refs, hyps), (hyps, refs)):
        while len(lines) > len(other) and not lines[-1]:
            lines.pop()
    if len(refs) != len(hyps):
        raise ValueError(f"line count mismatch: {len(refs)} reference vs {len(hyps)} hypothesis")
    subs, dels, ins = wer_counts(refs, hyps).sum(axis=0).tolist()
    total = WerResult(subs, dels, ins, sum(map(len, refs)))
    print(f"S={total.substitutions} D={total.deletions} I={total.insertions} "
          f"ref={total.ref_words}", file=sys.stderr)
    print(f"WER {total.wer:.3f}%")
    return 0


# the anonymizer's options, shared by anonymize-xvec and eval
_ANON_OPTIONS = [
    Opt("n_farthest", int, AnonConfig.n_farthest, "pool candidates ranked most dissimilar"),
    Opt("n_select", int, AnonConfig.n_select, "vectors averaged into the pseudo-vector"),
    Opt("assignment", str, AnonConfig.assignment, "per_speaker or per_utterance"),
    Opt("seed", int, AnonConfig.seed, "anonymization seed"),
    Opt("same_gender_pool", _parse_bool, AnonConfig.same_gender_pool,
        "filter pool by source gender"),
]

# each subcommand's handler and options; option names double as config-file keys
_COMMANDS: dict[str, tuple[Callable[[dict, Callable], int], list[Opt]]] = {
    "synth": (_cmd_synth, [
        Opt("out_dir", str, None, "directory for the generated corpora", required=True),
        Opt("n_speakers", int, _SPEC_DEFAULTS["n_speakers"], "number of speakers"),
        Opt("utts_per_speaker", int, _SPEC_DEFAULTS["utts_per_speaker"], "utterances per speaker"),
        Opt("dim", int, _SPEC_DEFAULTS["dim"], "embedding dimension"),
        Opt("seed", int, _SPEC_DEFAULTS["seed"], "generator seed"),
        Opt("female_fraction", float, GenSpec.female_fraction, "fraction of female speakers"),
        Opt("fractions", str, "0.595,0.105,0.1,0.2", "train,pool,enroll,trial split"),
        Opt("format", str, "binary", "embedding file format: text or binary"),
        Opt("model_out", str, None, "optional path for the ground-truth model"),
    ]),
    "make-trials": (_cmd_make_trials, [
        Opt("enroll", str, None, "enrollment embedding file", required=True),
        Opt("trial", str, None, "trial embedding file", required=True),
        Opt("out", str, None, "output trial list", required=True),
        Opt("format", str, "binary", "embedding file format"),
        Opt("same_gender_only", _parse_bool, TrialPolicy.same_gender_only,
            "restrict impostors to same gender"),
        Opt("max_nontargets", int, TrialPolicy.max_nontargets, "subsample impostors to this many"),
        Opt("seed", int, TrialPolicy.seed, "impostor subsampling seed"),
    ]),
    "train-plda": (_cmd_train_plda, [
        Opt("data", str, None, "training embedding file", required=True),
        Opt("out", str, None, "output model path", required=True),
        Opt("iterations", int, 10, "EM iterations"),
        Opt("format", str, "binary", "embedding file format"),
    ]),
    "anonymize-xvec": (_cmd_anonymize_xvec, [
        Opt("input", str, None, "embedding file to anonymize", required=True),
        Opt("pool", str, None, "pool embedding file", required=True),
        Opt("model", str, None, "verification model path", required=True),
        Opt("out", str, None, "output embedding file", required=True),
        Opt("format", str, "binary", "embedding file format"),
        *_ANON_OPTIONS,
        Opt("subset_tag", str, AnonConfig.subset_tag, "salts the random stream"),
    ]),
    "anonymize-wav": (_cmd_anonymize_wav, [
        Opt("input", str, None, "input WAV", required=True),
        Opt("out", str, None, "output WAV", required=True),
        Opt("alpha", float, ShiftConfig.alpha, "pole-angle exponent in (0, 2]"),
        Opt("lpc_order", int, ShiftConfig.lpc_order, "LPC order"),
        Opt("frame_len", int, ShiftConfig.frame_len, "analysis frame length in samples"),
        Opt("hop", int, ShiftConfig.hop, "hop size in samples"),
    ]),
    "score": (_cmd_score, [
        Opt("model", str, None, "model path", required=True),
        Opt("enroll", str, None, "enrollment embedding file", required=True),
        Opt("test", str, None, "test embedding file", required=True),
        Opt("trials", str, None, "trial list", required=True),
        Opt("out", str, None, "output score file", required=True),
        Opt("format", str, "binary", "embedding file format"),
    ]),
    "eval": (_cmd_eval, [
        Opt("enroll", str, None, "enrollment embedding file", required=True),
        Opt("trial", str, None, "trial embedding file", required=True),
        Opt("pool", str, None, "pool embedding file", required=True),
        Opt("model", str, None, "model path", required=True),
        Opt("trials", str, None, "trial list", required=True),
        Opt("format", str, "binary", "embedding file format"),
        Opt("conditions", str, "oo,oa,aa", "comma-separated subset of oo,oa,aa"),
        Opt("dataset", str, None, "dataset label in the report"),
        *_ANON_OPTIONS,
        Opt("same_tags", _parse_bool, False, "share the enroll/trial stream tag (ablation)"),
        Opt("records", str, None, "write machine-readable lines here"),
        Opt("dump_anon", str, None, "directory for anonymized corpora (binary)"),
    ]),
    "det": (_cmd_det, [
        Opt("scores", str, None, "score file", required=True),
        Opt("trials", str, None, "trial list supplying labels", required=True),
        Opt("out", str, None, "output path (default: stdout)"),
    ]),
    "wer": (_cmd_wer, [
        Opt("ref", str, None, "reference transcript file", required=True),
        Opt("hyp", str, None, "hypothesis transcript file", required=True),
    ]),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage problems
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        with warnings.catch_warnings(), _staged_outputs() as out:
            # a library warning is one stderr note, free of the install path, under any filter
            warnings.simplefilter("default")
            warnings.showwarning = lambda message, *_: print(f"note: {message}", file=sys.stderr)
            opts = _resolve_options(args.command, args)
            _print_provenance(args.command, opts)
            return _COMMANDS[args.command][0](opts, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
