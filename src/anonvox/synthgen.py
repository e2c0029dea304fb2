"""Seeded synthetic embedding corpora with known ground-truth covariances.

Realizes the generative model behind the verification scorer: each speaker
gets an offset drawn from the between-speaker covariance, each utterance adds
noise drawn from the within-speaker covariance. The returned ground-truth
model makes recovery and chance-level behavior directly testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import Corpus
from .plda import PldaModel


@dataclass(frozen=True)
class GenSpec:
    n_speakers: int
    utts_per_speaker: int
    dim: int
    between_cov: np.ndarray
    within_cov: np.ndarray
    female_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 1 or self.utts_per_speaker < 1 or self.dim < 1:
            raise ValueError("n_speakers, utts_per_speaker and dim must be positive")
        if not 0.0 <= self.female_fraction <= 1.0:
            raise ValueError("female_fraction must be in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        b = np.asarray(self.between_cov, dtype=np.float64)
        w = np.asarray(self.within_cov, dtype=np.float64)
        d = self.dim
        if b.shape != (d, d) or w.shape != (d, d):
            raise ValueError(f"covariances must be ({d}, {d})")
        for name, m in (("between_cov", b), ("within_cov", w)):
            if not np.all(np.isfinite(m)) or not np.allclose(m, m.T, atol=1e-10):
                raise ValueError(f"{name} must be finite and symmetric")
        object.__setattr__(self, "between_cov", b)
        object.__setattr__(self, "within_cov", w)


def default_spec(
    n_speakers: int = 200,
    utts_per_speaker: int = 10,
    dim: int = 32,
    seed: int = 0,
) -> GenSpec:
    """Desk-scale default: rotated between-covariance with eigenvalues in
    [0.5, 2], identity within-covariance."""
    if seed < 0:  # refused here too, since numpy refuses a seed below -0xB5 without naming it
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(seed + 0xB5)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.linspace(0.5, 2.0, dim)
    between = q @ np.diag(eigs) @ q.T
    between = 0.5 * (between + between.T)
    return GenSpec(
        n_speakers=n_speakers,
        utts_per_speaker=utts_per_speaker,
        dim=dim,
        between_cov=between,
        within_cov=np.eye(dim),
        seed=seed,
    )


def _psd_factor(cov: np.ndarray, name: str) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(cov)
    if np.min(eigvals) < -1e-8 * max(1.0, float(np.max(np.abs(eigvals)))):
        raise ValueError(f"{name} is not positive semi-definite")
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def generate(spec: GenSpec) -> tuple[Corpus, PldaModel]:
    """Sample a corpus and return it with the ground-truth model: one draw
    gives every utterance's noise in speaker order, then each row gets its
    speaker's offset."""
    factor_b = _psd_factor(spec.between_cov, "between_cov")
    factor_w = _psd_factor(spec.within_cov, "within_cov")

    rng = np.random.default_rng(spec.seed)
    n_female = int(round(spec.female_fraction * spec.n_speakers))
    offsets = rng.standard_normal((spec.n_speakers, spec.dim)) @ factor_b.T

    utts = spec.utts_per_speaker
    spk_ids = [f"s{s:04d}" for s in range(spec.n_speakers)]
    matrix = rng.standard_normal((spec.n_speakers * utts, spec.dim)) @ factor_w.T
    by_speaker = matrix.reshape(spec.n_speakers, utts, spec.dim)
    by_speaker += offsets[:, None]
    corpus = Corpus(
        f"synth{spec.seed}",
        [f"{spk}_u{u:03d}" for spk in spk_ids for u in range(utts)],
        np.repeat(spk_ids, utts),
        np.repeat(np.where(np.arange(spec.n_speakers) < n_female, "F", "M"), utts),
        matrix,
    )
    # the sampled corpus uses the exact covariances; the returned model needs
    # a strictly positive-definite within, so a singular one gets a tiny ridge
    within_model = spec.within_cov
    if float(np.min(np.linalg.eigvalsh(within_model))) <= 0.0:
        within_model = within_model + 1e-12 * np.eye(spec.dim)
    truth = PldaModel(mu=np.zeros(spec.dim), between=spec.between_cov, within=within_model)
    return corpus, truth


def split(corpus: Corpus, fractions, seed: int = 0) -> tuple[Corpus, Corpus, Corpus, Corpus]:
    """Partition a corpus into (train, pool, enroll, trial) subsets.

    Speakers are split between training, pool, and evaluation; evaluation
    speakers appear in both enrollment and trial with disjoint utterances.
    """
    fractions = [float(f) for f in fractions]
    if len(fractions) != 4:
        raise ValueError("fractions must be (train, pool, enroll, trial)")
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must be non-negative and sum to 1")
    if len(corpus) == 0:
        raise ValueError("cannot split an empty corpus")
    f_train, f_pool, f_enroll, f_trial = fractions

    speakers, groups = corpus.speaker_rows()
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(speakers))

    n_train = int(round(f_train * len(speakers)))
    n_pool = int(round(f_pool * len(speakers)))
    if n_train + n_pool > len(speakers):
        n_pool = len(speakers) - n_train
    eval_spk = order[n_train + n_pool :]

    f_eval = f_enroll + f_trial
    enroll_rows, trial_rows = [], []
    if f_eval > 0:
        for spk in eval_spk:
            rows = groups[spk][np.argsort(corpus.utt_id[groups[spk]], kind="stable")]
            if len(rows) < 2:
                raise ValueError(
                    f"speaker {str(speakers[spk])!r} has {len(rows)} utterance(s); evaluation "
                    "speakers need at least 2 for disjoint enrollment/trial"
                )
            k = int(round(len(rows) * f_enroll / f_eval))
            k = min(max(k, 1), len(rows) - 1)
            perm = rng.permutation(len(rows))
            enroll_rows.append(rows[np.sort(perm[:k])])
            trial_rows.append(rows[np.sort(perm[k:])])
    elif len(eval_spk):
        raise ValueError("evaluation fractions are zero but speakers remain unassigned")

    def _subset(tag: str, rows) -> Corpus:
        rows = np.concatenate([np.empty(0, np.intp), *rows])
        return Corpus(f"{corpus.name}-{tag}", corpus.utt_id[rows], corpus.spk_id[rows],
                      corpus.gender[rows], corpus.matrix()[rows])

    train = _subset("train", [groups[i] for i in np.sort(order[:n_train])])
    pool = _subset("pool", [groups[i] for i in np.sort(order[n_train : n_train + n_pool])])
    enroll = _subset("enroll", enroll_rows)
    trial = _subset("trial", trial_rows)
    return train, pool, enroll, trial
