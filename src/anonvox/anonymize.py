"""Anonymization in embedding space by farthest-pool averaging.

Each source vector is replaced by the mean of ``n_select`` pool vectors drawn
uniformly without replacement from the ``n_farthest`` pool entries ranked
most dissimilar under the verification model; entries at equal distance rank
by utt_id. Random streams are derived from (seed, subset_tag,
speaker-or-utterance id), so corpora anonymized with different subset tags
carry different pseudo-speakers without shared state.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np

from .embeddings import Corpus, group_means, index_in
from .plda import PldaModel, score_matrix

ASSIGNMENTS = ("per_speaker", "per_utterance")


@dataclass(frozen=True)
class AnonConfig:
    n_farthest: int = 200
    n_select: int = 100
    assignment: str = "per_speaker"
    seed: int = 0
    subset_tag: str = ""
    same_gender_pool: bool = False

    def __post_init__(self):
        if self.n_select < 1:
            raise ValueError("n_select must be positive")
        if self.n_select > self.n_farthest:
            raise ValueError(
                f"n_select ({self.n_select}) must not exceed n_farthest ({self.n_farthest})"
            )
        if self.assignment not in ASSIGNMENTS:
            raise ValueError(f"assignment must be one of {ASSIGNMENTS}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def derive_stream(seed: int, subset_tag: str, key: str) -> np.random.Generator:
    """Deterministic per-key random stream; stable across platforms."""
    digest = hashlib.sha256(f"{subset_tag}\x1f{key}".encode("utf-8")).digest()
    entropy = int.from_bytes(digest[:16], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, entropy]))


def _pool_view(pool: Corpus, cfg: AnonConfig, gender: str):
    """Pool matrix one source gender ranks against, and its rows in utt_id order.

    Warns when ``n_farthest`` covers at least half of the view's rows."""
    rows = np.flatnonzero(pool.gender == gender) if cfg.same_gender_pool else slice(None)
    utt_ids = pool.utt_id[rows]
    size = len(utt_ids)
    if not size:
        raise ValueError(f"the {gender} pool view is empty" if gender
                         else "anonymization pool is empty")
    if cfg.n_farthest > size:
        raise ValueError(f"n_farthest ({cfg.n_farthest}) exceeds pool size ({size})")
    if 2 * cfg.n_farthest >= size:
        warnings.warn(f"n_farthest {cfg.n_farthest} is {100 * cfg.n_farthest / size:.0f}% of the "
                      f"{size}-row{' ' + gender if gender else ''} pool view; pseudo-speakers "
                      "converge on the pool mean")
    return pool.matrix()[rows], np.argsort(utt_ids, kind="stable")


def _distinct_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(matrix, axis=0, return_inverse=True)``, rows in the same order.

    When no value of the first column repeats, no two rows are equal and a
    stable sort of that column is already the lexicographic row order, so the
    full row sort is needed only when one does.
    """
    order = np.argsort(matrix[:, 0], kind="stable")
    first = matrix[order, 0]
    if np.all(first[1:] != first[:-1]):
        inverse = np.empty(len(order), dtype=np.intp)
        inverse[order] = np.arange(len(order))
        return matrix[order], inverse
    unique, inverse = np.unique(matrix, axis=0, return_inverse=True)
    return unique, inverse.ravel()


def _ranked_rows(sources: np.ndarray, matrix: np.ndarray, id_order: np.ndarray,
                 model: PldaModel, n: int) -> np.ndarray:
    """The ``n`` farthest pool rows of each source row, as an (S, n) array.

    Rows are ordered by descending distance, ties by ascending utt_id
    (``id_order`` lists the pool rows in utt_id order). All sources are
    scored in one matrix product, cut at their n-th distance by one
    partition, and their candidates ranked by one stable sort.
    """
    if matrix.shape[1] != model.dim:
        raise ValueError("pool or source dimension does not match model")
    # score distinct rows only: GEMM tiling can give identical rows different
    # last bits, and the tie rule needs identical vectors at equal distance
    unique, inverse = _distinct_rows(matrix)
    # columns in utt_id order, so a stable sort breaks distance ties by utt_id
    distances = -score_matrix(model, sources, unique)[:, inverse[id_order]]
    # the n-th largest distance of each row; every row at or above it is a
    # candidate, and the rest sort last
    cutoff = -np.partition(-distances, n - 1, axis=1)[:, n - 1]
    key = np.where(distances >= cutoff[:, None], -distances, np.inf)
    return id_order[np.argsort(key, axis=1, kind="stable")[:, :n]]


def _pseudo_vectors(sources, view, model: PldaModel, cfg: AnonConfig, streams) -> np.ndarray:
    """One pseudo-vector per source row, each drawing from its own stream."""
    matrix, id_order = view
    top = _ranked_rows(sources, matrix, id_order, model, cfg.n_farthest)
    chosen = np.stack([rng.choice(cfg.n_farthest, size=cfg.n_select, replace=False)
                       for rng in streams])
    # pool order canonicalizes summation, so the mean is selection-order free
    return group_means(matrix, np.sort(np.take_along_axis(top, chosen, axis=1), axis=1))


def anonymize_corpus(
    corpus: Corpus, pool: Corpus, model: PldaModel, cfg: AnonConfig
) -> Corpus:
    """Anonymize every record, keyed per speaker or per utterance.

    per_speaker ranks against the speaker's mean embedding and assigns the
    identical pseudo-vector to all of that speaker's utterances. Each pool
    view is built once and ranked against all of its sources together, and
    every pseudo-vector of a view is averaged in one ``group_means`` pass;
    only the random draws are made per source, each from its own stream.
    """
    if len(corpus) == 0:
        raise ValueError("cannot anonymize an empty corpus")
    if corpus.dim != model.dim:
        raise ValueError("corpus dimension does not match model")

    matrix = corpus.matrix()
    if cfg.assignment == "per_speaker":
        speakers, groups = corpus.speaker_rows()
        keys = speakers.tolist()
        genders = corpus.gender[[rows[0] for rows in groups]]
        sources = group_means(matrix, groups)
        source_of_row = index_in(corpus.spk_id, speakers)
    else:
        keys = corpus.utt_id.tolist()
        genders = corpus.gender
        sources = matrix
        source_of_row = np.arange(len(corpus))

    view_of = genders if cfg.same_gender_pool else np.full(len(keys), "")
    pseudo = np.empty_like(sources)
    for gender in sorted(set(view_of.tolist())):
        idx = np.flatnonzero(view_of == gender)
        streams = [derive_stream(cfg.seed, cfg.subset_tag, keys[i]) for i in idx]
        pseudo[idx] = _pseudo_vectors(sources[idx], _pool_view(pool, cfg, gender), model, cfg,
                                      streams)
    return Corpus(corpus.name, corpus.utt_id, corpus.spk_id, corpus.gender, pseudo[source_of_row])
