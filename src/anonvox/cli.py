"""Command-line interface.

Subcommands: synth, make-trials, train-plda, anonymize-xvec, anonymize-wav,
score, eval, det, wer. Options may come from ``--config FILE`` holding
``key = value`` lines; explicit flags override file values, unknown keys are
rejected. Exit codes: 0 success, 1 usage error, 2 data/validation error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .anonymize import AnonConfig, anonymize_corpus
from .embeddings import (
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
from .formant import ShiftConfig, anonymize_wav, read_wav, write_wav
from .harness import Condition, evaluate, render_report
from .metrics import WerResult, det_points, format_det, wer_counts
from .plda import load_model, save_model, score_trials, train_plda
from .synthgen import default_spec, generate, split


class UsageError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


@dataclass(frozen=True)
class Opt:
    name: str
    type: type
    default: object
    help: str
    required: bool = False


# per-subcommand option tables; names double as config-file keys
_OPTIONS: dict[str, list[Opt]] = {
    "synth": [
        Opt("out_dir", str, None, "directory for the generated corpora", required=True),
        Opt("n_speakers", int, 200, "number of speakers"),
        Opt("utts_per_speaker", int, 10, "utterances per speaker"),
        Opt("dim", int, 32, "embedding dimension"),
        Opt("seed", int, 0, "generator seed"),
        Opt("female_fraction", float, 0.5, "fraction of female speakers"),
        Opt("fractions", str, "0.595,0.105,0.1,0.2", "train,pool,enroll,trial split"),
        Opt("format", str, "binary", "embedding file format: text or binary"),
        Opt("model_out", str, None, "optional path for the ground-truth model"),
    ],
    "make-trials": [
        Opt("enroll", str, None, "enrollment embedding file", required=True),
        Opt("trial", str, None, "trial embedding file", required=True),
        Opt("out", str, None, "output trial list", required=True),
        Opt("format", str, "binary", "embedding file format"),
        Opt("same_gender_only", _parse_bool, True, "restrict impostors to same gender"),
        Opt("max_nontargets", int, None, "subsample impostors to this many"),
        Opt("seed", int, 0, "impostor subsampling seed"),
    ],
    "train-plda": [
        Opt("data", str, None, "training embedding file", required=True),
        Opt("out", str, None, "output model path", required=True),
        Opt("iterations", int, 10, "EM iterations"),
        Opt("format", str, "binary", "embedding file format"),
    ],
    "anonymize-xvec": [
        Opt("input", str, None, "embedding file to anonymize", required=True),
        Opt("pool", str, None, "pool embedding file", required=True),
        Opt("model", str, None, "verification model path", required=True),
        Opt("out", str, None, "output embedding file", required=True),
        Opt("format", str, "binary", "embedding file format"),
        Opt("n_farthest", int, 200, "pool candidates ranked most dissimilar"),
        Opt("n_select", int, 100, "vectors averaged into the pseudo-vector"),
        Opt("assignment", str, "per_speaker", "per_speaker or per_utterance"),
        Opt("seed", int, 0, "anonymization seed"),
        Opt("subset_tag", str, "", "salts the random stream"),
        Opt("same_gender_pool", _parse_bool, False, "filter pool by source gender"),
    ],
    "anonymize-wav": [
        Opt("input", str, None, "input WAV", required=True),
        Opt("out", str, None, "output WAV", required=True),
        Opt("alpha", float, 0.8, "pole-angle exponent in (0, 2]"),
        Opt("lpc_order", int, 20, "LPC order"),
        Opt("frame_len", int, 400, "analysis frame length in samples"),
        Opt("hop", int, 160, "hop size in samples"),
    ],
    "score": [
        Opt("model", str, None, "model path", required=True),
        Opt("enroll", str, None, "enrollment embedding file", required=True),
        Opt("test", str, None, "test embedding file", required=True),
        Opt("trials", str, None, "trial list", required=True),
        Opt("out", str, None, "output score file", required=True),
        Opt("format", str, "binary", "embedding file format"),
    ],
    "eval": [
        Opt("enroll", str, None, "enrollment embedding file", required=True),
        Opt("trial", str, None, "trial embedding file", required=True),
        Opt("pool", str, None, "pool embedding file", required=True),
        Opt("model", str, None, "model path", required=True),
        Opt("trials", str, None, "trial list", required=True),
        Opt("format", str, "binary", "embedding file format"),
        Opt("conditions", str, "oo,oa,aa", "comma-separated subset of oo,oa,aa"),
        Opt("dataset", str, None, "dataset label in the report"),
        Opt("n_farthest", int, 200, "pool candidates ranked most dissimilar"),
        Opt("n_select", int, 100, "vectors averaged into the pseudo-vector"),
        Opt("assignment", str, "per_speaker", "per_speaker or per_utterance"),
        Opt("seed", int, 0, "anonymization seed"),
        Opt("same_gender_pool", _parse_bool, False, "filter pool by source gender"),
        Opt("same_tags", _parse_bool, False, "share the enroll/trial stream tag (ablation)"),
        Opt("records", str, None, "write machine-readable lines here"),
        Opt("dump_anon", str, None, "directory for anonymized corpora (binary)"),
    ],
    "det": [
        Opt("scores", str, None, "score file", required=True),
        Opt("trials", str, None, "trial list supplying labels", required=True),
        Opt("out", str, None, "output path (default: stdout)"),
    ],
    "wer": [
        Opt("ref", str, None, "reference transcript file", required=True),
        Opt("hyp", str, None, "hypothesis transcript file", required=True),
    ],
}

@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anonvox",
        description="speaker anonymization and verification evaluation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"anonvox {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, options in _OPTIONS.items():
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
    table = {opt.name: opt for opt in _OPTIONS[command]}
    resolved = {name: opt.default for name, opt in table.items()}
    if args.config is not None:
        for key, raw in _read_config_file(args.config).items():
            if key not in table:
                raise UsageError(f"unknown config key {key!r} for {command}")
            try:
                resolved[key] = table[key].type(raw)
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from None
    for name in table:
        flag_value = getattr(args, name)
        if flag_value is not None:
            resolved[name] = flag_value
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


def _cmd_synth(opts: dict) -> int:
    spec = default_spec(
        n_speakers=opts["n_speakers"],
        utts_per_speaker=opts["utts_per_speaker"],
        dim=opts["dim"],
        seed=opts["seed"],
    )
    corpus, truth = generate(replace(spec, female_fraction=opts["female_fraction"]))
    train, pool, enroll, trial = split(corpus, _parse_fractions(opts["fractions"]), opts["seed"])
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "txt" if opts["format"] == "text" else "xvec"
    for tag, subset in (("train", train), ("pool", pool), ("enroll", enroll), ("trial", trial)):
        if len(subset) == 0:
            continue
        save_embeddings(subset, out_dir / f"{tag}.{ext}", opts["format"])
    if opts["model_out"]:
        save_model(truth, opts["model_out"])
    print(f"wrote corpora to {out_dir}", file=sys.stderr)
    return 0


def _cmd_make_trials(opts: dict) -> int:
    enroll = load_embeddings(opts["enroll"], opts["format"])
    trial = load_embeddings(opts["trial"], opts["format"])
    policy = TrialPolicy(
        same_gender_only=opts["same_gender_only"],
        max_nontargets=opts["max_nontargets"],
        seed=opts["seed"],
    )
    trials = make_trials(enroll, trial, policy)
    save_trials(trials, opts["out"])
    print(
        f"wrote {len(trials)} trials ({trials.n_target} target, "
        f"{trials.n_nontarget} nontarget)",
        file=sys.stderr,
    )
    return 0


def _cmd_train_plda(opts: dict) -> int:
    corpus = load_embeddings(opts["data"], opts["format"])
    model = train_plda(corpus, opts["iterations"])
    save_model(model, opts["out"])
    print(f"trained D={model.dim} model on {len(corpus)} embeddings", file=sys.stderr)
    return 0


def _anon_config(opts: dict) -> AnonConfig:
    return AnonConfig(
        n_farthest=opts["n_farthest"],
        n_select=opts["n_select"],
        assignment=opts["assignment"],
        seed=opts["seed"],
        subset_tag=opts.get("subset_tag", ""),
        same_gender_pool=opts["same_gender_pool"],
    )


def _cmd_anonymize_xvec(opts: dict) -> int:
    corpus = load_embeddings(opts["input"], opts["format"])
    pool = load_embeddings(opts["pool"], opts["format"])
    model = load_model(opts["model"])
    out = anonymize_corpus(corpus, pool, model, _anon_config(opts))
    save_embeddings(out, opts["out"], opts["format"])
    print(f"anonymized {len(out)} embeddings", file=sys.stderr)
    return 0


def _cmd_anonymize_wav(opts: dict) -> int:
    cfg = ShiftConfig(
        alpha=opts["alpha"],
        lpc_order=opts["lpc_order"],
        frame_len=opts["frame_len"],
        hop=opts["hop"],
    )
    wav = read_wav(opts["input"])
    write_wav(anonymize_wav(wav, cfg), opts["out"])
    print(f"wrote {opts['out']}", file=sys.stderr)
    return 0


def _cmd_score(opts: dict) -> int:
    model = load_model(opts["model"])
    enroll = load_embeddings(opts["enroll"], opts["format"])
    test = load_embeddings(opts["test"], opts["format"])
    trials = load_trials(opts["trials"])
    scores = score_trials(model, enroll, test, trials)
    save_scores(scores, opts["out"])
    print(f"wrote {len(scores)} scores", file=sys.stderr)
    return 0


def _cmd_eval(opts: dict) -> int:
    enroll = load_embeddings(opts["enroll"], opts["format"])
    trial = load_embeddings(opts["trial"], opts["format"])
    pool = load_embeddings(opts["pool"], opts["format"])
    model = load_model(opts["model"])
    trials = load_trials(opts["trials"])

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

    runs, trial_anon, enroll_anon = evaluate(
        conditions, enroll, trial, pool, model, _anon_config(opts), trials,
        dataset=opts["dataset"], same_tags=opts["same_tags"],
    )
    report = render_report(runs)
    sys.stdout.write(report.table)
    if opts["records"]:
        Path(opts["records"]).write_text("\n".join(report.records) + "\n", encoding="utf-8")
    if opts["dump_anon"]:
        dump = Path(opts["dump_anon"])
        dump.mkdir(parents=True, exist_ok=True)
        for name, corpus in (("trial_anon.xvec", trial_anon), ("enroll_anon.xvec", enroll_anon)):
            if corpus is not None:
                save_embeddings(corpus, dump / name, "binary")
    return 0


def _cmd_det(opts: dict) -> int:
    scores = load_scores(opts["scores"], load_trials(opts["trials"]))
    text = format_det(det_points(scores.score, scores.trials.is_target))
    if opts["out"]:
        Path(opts["out"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _transcript_lines(path) -> list[list[str]]:
    """The words of each ``\n``-separated line, without the trailing blank lines."""
    lines = [line.split() for line in read_utf8(path).split("\n")]
    while lines and not lines[-1]:
        lines.pop()
    return lines


def _cmd_wer(opts: dict) -> int:
    refs, hyps = _transcript_lines(opts["ref"]), _transcript_lines(opts["hyp"])
    if len(refs) != len(hyps):
        raise ValueError(f"line count mismatch: {len(refs)} reference vs {len(hyps)} hypothesis")
    subs, dels, ins = wer_counts(refs, hyps).sum(axis=0).tolist()
    total = WerResult(subs, dels, ins, sum(map(len, refs)))
    print(f"S={total.substitutions} D={total.deletions} I={total.insertions} "
          f"ref={total.ref_words}", file=sys.stderr)
    print(f"WER {total.wer:.3f}%")
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "make-trials": _cmd_make_trials,
    "train-plda": _cmd_train_plda,
    "anonymize-xvec": _cmd_anonymize_xvec,
    "anonymize-wav": _cmd_anonymize_wav,
    "score": _cmd_score,
    "eval": _cmd_eval,
    "det": _cmd_det,
    "wer": _cmd_wer,
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
        with warnings.catch_warnings():
            # a library warning is one stderr note, free of the install path, under any filter
            warnings.simplefilter("default")
            warnings.showwarning = lambda message, *_: print(f"note: {message}", file=sys.stderr)
            opts = _resolve_options(args.command, args)
            _print_provenance(args.command, opts)
            return _HANDLERS[args.command](opts)
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
