"""Anonymization in embedding space by farthest-pool averaging.

Each source vector is replaced by the mean of ``n_select`` pool vectors drawn
uniformly without replacement from the ``n_farthest`` pool entries ranked
most dissimilar under the verification model; entries at equal distance rank
by utt_id, and each mean sums its entries in utt_id order, so the pool's row
order changes no output bit. Random streams are derived from (seed, subset_tag,
speaker-or-utterance id), so corpora anonymized with different subset tags
carry different pseudo-speakers without shared state.

Each source's selection is ``derive_stream(seed, subset_tag, key).choice(
n_farthest, n_select, replace=False)`` over its ranked entries.
``_selection_masks`` draws these sets for every source in one vectorised
pass that repeats numpy's SeedSequence mixing, PCG64 seeding and
``Generator.choice`` (Lemire bounded draws, Floyd's set) exactly; a source it
cannot reproduce that way takes its own stream.
"""

from __future__ import annotations

import functools
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


def _entropy(subset_tag: str, key: str) -> bytes:
    """The 16 bytes a key's stream takes as little-endian entropy."""
    return hashlib.sha256(f"{subset_tag}\x1f{key}".encode("utf-8")).digest()[:16]


def derive_stream(seed: int, subset_tag: str, key: str) -> np.random.Generator:
    """Deterministic per-key random stream; stable across platforms."""
    entropy = int.from_bytes(_entropy(subset_tag, key), "little")
    return np.random.default_rng(np.random.SeedSequence([seed, entropy]))


_MASK32 = 0xFFFFFFFF
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Generator.choice draws a set without replacement by Floyd's algorithm up to
# this population; above it, it may shuffle a tail instead
_FLOYD_MAX = 10000
# (seed, subset_tag, key, n_farthest, n_select) of the draw that checks the
# kernel against this numpy's Generator.choice once per process
_PROBE = (2**64 - 1, "probe", "key", 200, 100)


def _hash_steps(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of SeedSequence's first ``count`` hash steps."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)
    return consts[:-1], consts[1:]


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of uint32 values, given each step's constants."""
    values = (values ^ xor) * mul
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of two uint32 arrays, wrapping as uint32 does."""
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ (mixed >> 16)


def _mixed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of every row of an (S, L)
    uint32 entropy matrix, as a C-contiguous (S, 4) uint64 array.

    Runs SeedSequence's pool mixing (pool size 4, no spawn key) on all rows at
    once, and pairs the eight output words low word first by arithmetic, as
    SeedSequence does through little-endian views, so the states are the same
    on every platform.
    """
    n_rows, n_words = words.shape
    xor, mul = _hash_steps(_INIT_A, _MULT_A, 4 + 12 + 4 * max(0, n_words - 4))
    padded = np.zeros((n_rows, max(4, n_words)), dtype=np.uint32)
    padded[:, :n_words] = words
    pool = _hash(padded[:, :4], xor[:4], mul[:4])
    # every pool word mixes into every other, in SeedSequence's order
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        steps = slice(4 + 3 * src, 7 + 3 * src)
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None], xor[steps], mul[steps]))
    for src in range(4, n_words):
        steps = slice(16 + 4 * (src - 4), 20 + 4 * (src - 4))
        pool = _mix(pool, _hash(padded[:, src, None], xor[steps], mul[steps]))
    xor, mul = _hash_steps(_INIT_B, _MULT_B, 8)
    state = _hash(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], xor, mul).astype(np.uint64)
    return np.ascontiguousarray(state[:, 0::2] | (state[:, 1::2] << 32))


@functools.cache
def _mixed_state_type() -> type:
    """A PCG64 seed whose four state words are already mixed: what
    ``SeedSequence(...).generate_state(4, np.uint64)`` returns, without the
    mixing. PCG64 asks for exactly that, and the type serves only PCG64.

    Made on first use: importing numpy.random adds about 2.5 MiB to the
    resident memory of every command, and most commands never draw."""
    from numpy.random.bit_generator import ISeedSequence

    class MixedState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return MixedState


def _raw_words(states: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` raw outputs of PCG64 seeded with each row of ``states``."""
    mixed_state = _mixed_state_type()
    raw = np.empty((len(states), count), dtype=np.uint64)
    for row, state in zip(raw, states):
        row[:] = np.random.PCG64(mixed_state(state)).random_raw(count)
    return raw


def _floyd_masks(seed: int, subset_tag: str, keys, n: int, k: int):
    """Every key's ``choice(n, k, replace=False)`` set, as ``Generator.choice``
    draws it by Floyd's algorithm, and which rows are exact.

    SeedSequence splits the seed and the entropy into 32-bit words, low word
    first, and drops high zero words: a key whose entropy has a zero top word
    has fewer words than the others, and its row is marked inexact. The raw
    PCG64 words come from one seeding per key; numpy's Lemire bounded draws
    take a 32-bit word each, low half of a raw word first, and a row where one
    is rejected (so later draws shift) is marked inexact.
    """
    entropy = np.frombuffer(b"".join(_entropy(subset_tag, key) for key in keys), dtype="<u4")
    entropy = entropy.reshape(len(keys), 4).astype(np.uint32)
    exact = entropy[:, 3] != 0
    seed_words = np.array([seed & _MASK32] + ([seed >> 32] if seed >> 32 else []), np.uint32)
    words = np.hstack([np.broadcast_to(seed_words, (len(keys), len(seed_words))), entropy])
    bounds = np.arange(n - k, n)
    drawn = bounds > 0  # a draw from [0, 0] takes no word
    n_draws = int(drawn.sum())
    raw = _raw_words(_mixed_states(words), (n_draws + 1) // 2)
    halves = np.stack([raw & _MASK32, raw >> 32], axis=2).reshape(len(keys), -1)[:, :n_draws]
    span = bounds[drawn].astype(np.uint64) + 1
    scaled = halves * span
    exact &= ~((scaled & _MASK32) < (2**32 % span)).any(axis=1)
    values = np.zeros((len(keys), k), dtype=np.intp)
    values[:, drawn] = scaled >> 32
    # Floyd's set for all keys at once: draw v from [0, j]; take v, or j if v is taken
    masks = np.zeros((len(keys), n), dtype=bool)
    flat = masks.reshape(-1)
    offsets = np.arange(0, len(keys) * n, n)
    picks = np.ascontiguousarray((values + offsets[:, None]).T)
    for pick, fresh in zip(picks, bounds[:, None] + offsets):
        flat[np.where(flat[pick], fresh, pick)] = True
    return masks, exact


@functools.cache
def _kernel_matches_choice() -> bool:
    """Whether ``_floyd_masks`` gives this numpy's ``Generator.choice`` set on
    the probe draw; numpy does not freeze ``choice``'s algorithm across versions.
    Checked on first use, not at import."""
    seed, subset_tag, key, n, k = _PROBE
    masks, exact = _floyd_masks(seed, subset_tag, [key], n, k)
    want = np.zeros(n, dtype=bool)
    want[derive_stream(seed, subset_tag, key).choice(n, k, replace=False)] = True
    return bool(exact[0]) and np.array_equal(masks[0], want)


def _selection_masks(seed: int, subset_tag: str, keys, n: int, k: int) -> np.ndarray:
    """Each key's selection of ``k`` of ``n`` ranked entries, as an (S, n) mask.

    Row i is the set ``derive_stream(seed, subset_tag, keys[i]).choice(n, k,
    replace=False)``. ``_floyd_masks`` draws every row at once; a row it marks
    inexact, every row when ``n`` exceeds Floyd's range, and every row when the
    probe finds this numpy drawing otherwise, draws from its own stream.
    """
    if n <= _FLOYD_MAX and _kernel_matches_choice():
        masks, exact = _floyd_masks(seed, subset_tag, keys, n, k)
    else:
        masks, exact = np.zeros((len(keys), n), dtype=bool), np.zeros(len(keys), dtype=bool)
    for i in np.flatnonzero(~exact):
        masks[i] = False
        masks[i, derive_stream(seed, subset_tag, keys[i]).choice(n, k, replace=False)] = True
    return masks


def _pool_view(pool: Corpus, cfg: AnonConfig, gender: str) -> np.ndarray:
    """The pool rows one source gender ranks against, in utt_id order.

    Warns when ``n_farthest`` covers at least half of the view's rows."""
    rows = np.flatnonzero(pool.gender == gender) if cfg.same_gender_pool else np.arange(len(pool))
    rows = rows[np.argsort(pool.utt_id[rows], kind="stable")]
    size = len(rows)
    if not size:
        raise ValueError(f"the {gender} pool view is empty" if gender
                         else "anonymization pool is empty")
    if cfg.n_farthest > size:
        raise ValueError(f"n_farthest ({cfg.n_farthest}) exceeds pool size ({size})"
                         + (f" of the {gender} pool view" if gender else ""))
    if 2 * cfg.n_farthest >= size:
        warnings.warn(f"n_farthest {cfg.n_farthest} is {100 * cfg.n_farthest / size:.0f}% of the "
                      f"{size}-row{' ' + gender if gender else ''} pool view; pseudo-speakers "
                      "converge on the pool mean")
    return pool.matrix()[rows]


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


def _ranked_rows(sources: np.ndarray, matrix: np.ndarray, model: PldaModel, n: int) -> np.ndarray:
    """The ``n`` farthest rows of ``matrix`` for each source row, as an (S, n)
    array of row positions.

    Rows are ordered by ascending score, ties by ascending position, which
    in a pool view is utt_id order. All sources are scored in one matrix
    product and cut at their n-th lowest score by one partition. When every
    source has exactly ``n`` candidates, one stable sort ranks the candidate
    columns alone; when scores tie at a cutoff, it ranks all columns with
    the rest sorted last.
    """
    # score distinct rows only: GEMM tiling can give identical rows different
    # last bits, and the tie rule needs identical vectors at equal score
    unique, inverse = _distinct_rows(matrix)
    scores = score_matrix(model, sources, unique)[:, inverse]
    # the n-th lowest score of each row; every row at or below it is a
    # candidate, and the rest sort last
    cutoff = np.partition(scores, n - 1, axis=1)[:, n - 1]
    candidate = scores <= cutoff[:, None]
    if np.count_nonzero(candidate) == n * len(candidate):
        # columns in ascending order, so the stable sort still breaks ties by position
        columns = np.nonzero(candidate)[1].reshape(-1, n)
        order = np.argsort(np.take_along_axis(scores, columns, axis=1), axis=1, kind="stable")
        return np.take_along_axis(columns, order, axis=1)
    scores[~candidate] = np.inf
    return np.argsort(scores, axis=1, kind="stable")[:, :n]


def anonymize_corpus(
    corpus: Corpus, pool: Corpus, model: PldaModel, cfg: AnonConfig
) -> Corpus:
    """Anonymize every record, keyed per speaker or per utterance.

    per_speaker ranks against the speaker's mean embedding and assigns the
    identical pseudo-vector to all of that speaker's utterances. Each pool
    view is built once, in utt_id order, and ranked against all of its
    sources together, and every pseudo-vector of a view is averaged in one
    ``group_means`` pass. The selections of all sources are drawn together
    by ``_selection_masks``, each the set its own stream would draw.
    """
    if len(corpus) == 0:
        raise ValueError("cannot anonymize an empty corpus")
    if corpus.dim != model.dim:
        raise ValueError("corpus dimension does not match model")
    if len(pool) and pool.dim != model.dim:
        raise ValueError("pool dimension does not match model")

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
    # every view is checked against n_farthest before any mask is drawn
    views = {gender: _pool_view(pool, cfg, gender) for gender in sorted(set(view_of.tolist()))}
    chosen = _selection_masks(cfg.seed, cfg.subset_tag, keys, cfg.n_farthest, cfg.n_select)
    pseudo = np.empty_like(sources)
    for gender, view in views.items():
        idx = np.flatnonzero(view_of == gender)
        top = _ranked_rows(sources[idx], view, model, cfg.n_farthest)
        # each mean sums its selected rows in view order, which is utt_id order
        pseudo[idx] = group_means(view, np.sort(top[chosen[idx]].reshape(len(idx), -1), axis=1))
    return Corpus(corpus.name, corpus.utt_id, corpus.spk_id, corpus.gender, pseudo[source_of_row])
