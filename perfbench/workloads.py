"""Workload definitions: input sizes, set-up command lines and timed command lines.

Every workload drives ``anonvox.cli.main`` with argument lists, so the program
sees only the files the set-up step wrote. Sizes come in two scales: ``full``
is what the benchmark measures, ``tiny`` is for the benchmark's own tests.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

DEFAULT_FRACTIONS = "0.595,0.105,0.1,0.2"
SAMPLE_RATE = 16000
EM_ITERATIONS = 15


@dataclass(frozen=True)
class Sizes:
    speakers: int = 0
    dim: int = 0
    fractions: str = DEFAULT_FRACTIONS
    n_farthest: int = 200
    n_select: int = 100
    transcript_lines: int = 0
    audio_s: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: Sizes
    tiny: Sizes


# The stress workloads are scaled below the 1000-speaker stress corpus so that
# one timed command takes 1-2 s and a run repeats it several times; on a shared
# 2-core machine single long runs spread too much. stress-eval keeps the
# default split, whose scoring/ranking mix matches the full stress corpus
# (trials grow with speakers squared, ranking with speakers times pool rows);
# stress-anon-utt keeps the full 1050-row pool with 100 source utterances.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-pipeline",
            "README flow at desk scale: small kernels, so per-call cost, file I/O and the "
            "dump's duplicate anonymization dominate; the only workload for train-plda, "
            "make-trials, det, wer",
            full=Sizes(speakers=200, dim=32, transcript_lines=300),
            tiny=Sizes(speakers=40, dim=8, n_farthest=20, n_select=10, transcript_lines=20),
        ),
        Workload(
            "stress-eval",
            "one eval over oo,oa,aa at D=64 where trial scoring and per-speaker pool ranking "
            "share the time; scoring-kernel and data-model changes show here first",
            full=Sizes(speakers=200, dim=64),
            tiny=Sizes(speakers=40, dim=8, n_farthest=20, n_select=10),
        ),
        Workload(
            "stress-anon-utt",
            "per-utterance anonymize-xvec with gender-filtered pool views: ranking many distinct "
            "sources and no scoring or metrics, so a scoring-only speedup shows no change",
            full=Sizes(speakers=1000, dim=64, fractions="0.875,0.105,0.01,0.01"),
            tiny=Sizes(speakers=100, dim=8, fractions="0.795,0.105,0.05,0.05",
                       n_farthest=10, n_select=5),
        ),
        Workload(
            "wav-shift",
            "anonymize-wav on seeded synthetic voiced audio: the only workload for the LPC "
            "formant shifter and WAV I/O",
            full=Sizes(audio_s=15.0),
            tiny=Sizes(audio_s=1.0),
        ),
    )
}


def _anon_args(sizes: Sizes) -> list[str]:
    return ["--n-farthest", str(sizes.n_farthest), "--n-select", str(sizes.n_select)]


def setup_commands(name: str, sizes: Sizes, seed: int, inp: Path) -> list[list[str]]:
    """CLI calls that write the workload's embedding inputs into ``inp``."""
    if name == "wav-shift":
        return []
    synth = [
        "synth", "--out-dir", str(inp), "--seed", str(seed), "--n-speakers", str(sizes.speakers),
        "--dim", str(sizes.dim), "--fractions", sizes.fractions,
    ]
    if name == "desk-pipeline":
        return [synth]
    train = ["train-plda", "--data", str(inp / "train.xvec"), "--out", str(inp / "model.plda"),
             "--iterations", str(EM_ITERATIONS)]
    if name == "stress-anon-utt":
        return [synth, train]
    trials = ["make-trials", "--enroll", str(inp / "enroll.xvec"),
              "--trial", str(inp / "trial.xvec"), "--out", str(inp / "trials.txt")]
    return [synth, train, trials]


def op_commands(name: str, sizes: Sizes, inp: Path, out: Path) -> list[list[str]]:
    """The timed CLI calls; outputs go to ``out``."""
    if name == "desk-pipeline":
        model, trials, scores = out / "model.plda", out / "trials.txt", out / "scores.txt"
        return [
            ["train-plda", "--data", str(inp / "train.xvec"), "--out", str(model),
             "--iterations", str(EM_ITERATIONS)],
            ["make-trials", "--enroll", str(inp / "enroll.xvec"),
             "--trial", str(inp / "trial.xvec"), "--out", str(trials)],
            ["score", "--model", str(model), "--enroll", str(inp / "enroll.xvec"),
             "--test", str(inp / "trial.xvec"), "--trials", str(trials), "--out", str(scores)],
            ["det", "--scores", str(scores), "--trials", str(trials),
             "--out", str(out / "det.txt")],
            ["eval", "--enroll", str(inp / "enroll.xvec"), "--trial", str(inp / "trial.xvec"),
             "--pool", str(inp / "pool.xvec"), "--model", str(model), "--trials", str(trials),
             "--records", str(out / "records.txt"), "--dump-anon", str(out / "anon"),
             *_anon_args(sizes)],
            ["wer", "--ref", str(inp / "ref.txt"), "--hyp", str(inp / "hyp.txt")],
        ]
    if name == "stress-eval":
        return [
            ["eval", "--enroll", str(inp / "enroll.xvec"), "--trial", str(inp / "trial.xvec"),
             "--pool", str(inp / "pool.xvec"), "--model", str(inp / "model.plda"),
             "--trials", str(inp / "trials.txt"), "--records", str(out / "records.txt"),
             *_anon_args(sizes)],
        ]
    if name == "stress-anon-utt":
        return [
            ["anonymize-xvec", "--input", str(inp / "enroll.xvec"),
             "--pool", str(inp / "pool.xvec"), "--model", str(inp / "model.plda"),
             "--out", str(out / "anon.xvec"),
             "--assignment", "per_utterance", "--same-gender-pool", "true", *_anon_args(sizes)],
        ]
    if name == "wav-shift":
        return [["anonymize-wav", "--input", str(inp / "in.wav"), "--out", str(out / "out.wav")]]
    raise ValueError(f"unknown workload {name!r}")


def write_own_inputs(name: str, sizes: Sizes, seed: int, inp: Path) -> None:
    """Inputs the CLI cannot generate: transcripts and audio."""
    if name == "desk-pipeline":
        write_transcripts(inp / "ref.txt", inp / "hyp.txt", sizes.transcript_lines, seed)
    elif name == "wav-shift":
        write_voiced_wav(inp / "in.wav", sizes.audio_s, seed)


def write_transcripts(ref_path: Path, hyp_path: Path, lines: int, seed: int) -> None:
    """Reference lines of 6-14 words and hypotheses with ~20% seeded edits."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    vocab = [f"w{i:03d}" for i in range(400)]
    refs, hyps = [], []
    for _ in range(lines):
        ref = [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(6, 15))]
        hyp = []
        for word in ref:
            u = rng.random()
            if u < 0.10:
                hyp.append(vocab[rng.integers(0, len(vocab))])
            elif u < 0.15:
                continue
            else:
                hyp.append(word)
            if rng.random() < 0.05:
                hyp.append(vocab[rng.integers(0, len(vocab))])
        refs.append(" ".join(ref))
        hyps.append(" ".join(hyp) if hyp else vocab[0])
    ref_path.write_text("\n".join(refs) + "\n", encoding="utf-8")
    hyp_path.write_text("\n".join(hyps) + "\n", encoding="utf-8")


def write_voiced_wav(path: Path, seconds: float, seed: int) -> None:
    """Vowel-like audio: a pulse train at a drifting pitch through three formant
    resonators, a new vowel every 0.25 s, peak 0.6, 16-bit mono."""
    import numpy as np
    from scipy.signal import lfilter

    rng = np.random.default_rng([seed, 2])
    n = int(round(seconds * SAMPLE_RATE))
    seg = SAMPLE_RATE // 4
    x = np.empty(n)
    phase = 0.0
    for start in range(0, n, seg):
        m = min(seg, n - start)
        f0 = rng.uniform(90.0, 220.0) * np.linspace(1.0, rng.uniform(0.9, 1.1), m)
        cycles = phase + np.cumsum(f0) / SAMPLE_RATE
        y = np.diff(np.floor(cycles), prepend=np.floor(phase)) + 0.01 * rng.standard_normal(m)
        phase = float(cycles[-1])
        for fc, bw in ((rng.uniform(300, 800), 80.0), (rng.uniform(900, 2300), 120.0),
                       (rng.uniform(2400, 3200), 160.0)):
            r = np.exp(-np.pi * bw / SAMPLE_RATE)
            y = lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(2 * np.pi * fc / SAMPLE_RATE), r * r], y)
        x[start : start + m] = y
    x = 0.6 * x / np.max(np.abs(x))
    pcm = np.rint(x * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())
