"""Two-covariance Gaussian speaker model.

The generative model is ``x = mu + y + eps`` with speaker offset
``y ~ N(0, between)`` and per-utterance noise ``eps ~ N(0, within)``.
Verification scores are the exact log-likelihood ratio between the
same-speaker hypothesis (shared ``y``) and the different-speaker hypothesis
(independent ``y``):

    LLR(x1, x2) = log N([x1;x2]; [mu;mu], [[T, B], [B, T]])
                - log N([x1;x2]; [mu;mu], [[T, 0], [0, T]])

with ``T = between + within``. Training is expectation-maximization on
speaker-labeled corpora.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .embeddings import Corpus, ScoreSet, TrialList, _flagged, _raise_first, group_means, index_in

_MODEL_MAGIC = b"PLD1"


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class PldaModel:
    """Global mean plus between-speaker and within-speaker covariances."""

    mu: np.ndarray
    between: np.ndarray
    within: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        b = np.asarray(self.between, dtype=np.float64)
        w = np.asarray(self.within, dtype=np.float64)
        d = mu.size
        if mu.ndim != 1 or b.shape != (d, d) or w.shape != (d, d):
            raise ValueError("model shapes inconsistent: mu (D,), between/within (D, D)")
        if d == 0:
            raise ValueError("model dimension must be positive, got D=0")
        for name, m in (("between", b), ("within", w)):
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} covariance has non-finite entries")
            if not np.allclose(m, m.T, atol=1e-10):
                raise ValueError(f"{name} covariance is not symmetric")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu has non-finite entries")
        scale = max(1.0, float(np.max(np.abs(b))))
        if float(np.min(np.linalg.eigvalsh(0.5 * (b + b.T)))) < -1e-8 * scale:
            raise ValueError("between covariance must be positive semi-definite")
        if float(np.min(np.linalg.eigvalsh(0.5 * (w + w.T)))) <= 0.0:
            raise ValueError("within covariance must be positive definite")
        for name, value in (("mu", mu), ("between", _symmetrize(b)), ("within", _symmetrize(w))):
            value = np.array(value)  # an owned copy, read-only so the cached forms stay valid
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return int(self.mu.shape[0])

    @cached_property
    def _scoring_forms(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Quadratic forms ``(Q, G, c)`` of the LLR in GEMM form, derived once per model.

        With T = between + within, ``Q = (T - B T^-1 B)^-1 - T^-1`` and ``G`` is
        the off-diagonal block of the same-speaker precision, so for centered
        vectors ``LLR(x, y) = c - 0.5 (x'Qx + y'Qy) - x'Gy``.
        """
        d = self.dim
        t = self.between + self.within
        eye = np.eye(d)
        try:
            t_inv = np.linalg.solve(t, eye)
        except np.linalg.LinAlgError:
            raise ValueError("between + within must be invertible") from None
        schur = t - self.between @ t_inv @ self.between
        lam = np.linalg.solve(schur, eye)
        g = _symmetrize(-t_inv @ self.between @ lam)
        q = _symmetrize(lam - t_inv)
        sign_s, logdet_s = np.linalg.slogdet(schur)
        sign_t, logdet_t = np.linalg.slogdet(t)
        if sign_s <= 0 or sign_t <= 0:
            raise ValueError("model covariances yield a non-PD total covariance")
        return q, g, -0.5 * (logdet_s - logdet_t)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _speaker_stats(corpus: Corpus):
    """Per-speaker counts and means plus the pooled within-speaker scatter,
    one product over every row's deviation from its speaker's mean."""
    speakers, groups = corpus.speaker_rows()
    x = corpus.matrix()
    counts = np.array([len(rows) for rows in groups], dtype=np.int64)
    means = group_means(x, groups)
    dev = x[np.concatenate(groups)] - np.repeat(means, counts, axis=0)
    return speakers, counts, means, dev.T @ dev


def _em_step(mu, b, w, counts, means, scatter, grand_mean, n_total, total_trace):
    d = mu.shape[0]
    n_speakers = counts.shape[0]
    eye = np.eye(d)

    zbar = means - mu
    yhat = np.empty_like(means)
    ry = np.zeros((d, d))
    post_cov_weighted = np.zeros((d, d))
    for n in np.unique(counts):
        idx = np.flatnonzero(counts == n)
        m_noise = b + w / float(n)
        gain = np.linalg.solve(m_noise, b).T  # B (B + W/n)^-1
        post_cov = _symmetrize(b - gain @ b)
        yhat[idx] = zbar[idx] @ gain.T
        ry += len(idx) * post_cov
        post_cov_weighted += float(n) * len(idx) * post_cov
    ry += yhat.T @ yhat

    mu_new = grand_mean - (counts[:, None] * yhat).sum(axis=0) / float(n_total)
    b_new = _symmetrize(ry / float(n_speakers))

    resid = means - mu_new - yhat
    w_new = scatter + (resid * counts[:, None]).T @ resid + post_cov_weighted
    w_new = _symmetrize(w_new / float(n_total))

    # collapsed against the data's spread (each speaker one repeated vector), or
    # in absolute terms (a degenerate corpus, whose spread is rounding noise)
    trace = float(np.trace(w_new))
    if trace < max(1e-6 * total_trace, 1e-12):
        warnings.warn("within-speaker covariance collapsed; flooring with 1e-6 I")
        w_new = w_new + 1e-6 * eye
    else:
        w_new = w_new + (1e-9 * trace / d) * eye
    return mu_new, b_new, w_new


def train_plda(corpus: Corpus, iterations: int) -> PldaModel:
    """Fit the two-covariance model by EM.

    Initialization: mu = data mean, between = within = half the total data
    covariance (within gets a 1e-6 I ridge). ``iterations=0`` returns the
    initialization. The total data log-likelihood is non-decreasing across
    iterations.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if len(corpus) == 0:
        raise ValueError("cannot train on an empty corpus")
    _, counts, means, scatter = _speaker_stats(corpus)
    if counts.shape[0] < 2:
        raise ValueError("training requires at least two speakers")

    x = corpus.matrix()
    n_total, d = x.shape
    grand_mean = x.mean(axis=0)
    centered = x - grand_mean
    total_cov = centered.T @ centered / float(n_total)
    total_trace = float(np.trace(total_cov))
    if total_trace < 1e-12:
        warnings.warn("degenerate corpus (all vectors identical); covariances floored")

    mu = grand_mean.copy()
    b = 0.5 * total_cov
    w = 0.5 * total_cov + 1e-6 * np.eye(d)
    for _ in range(iterations):
        mu, b, w = _em_step(mu, b, w, counts, means, scatter, grand_mean, n_total, total_trace)
    return PldaModel(mu=mu, between=b, within=w)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def _as_rows(model: PldaModel, rows, what: str) -> np.ndarray:
    m = np.asarray(rows, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != model.dim:
        raise ValueError(f"{what} has shape {m.shape}, model expects (N, {model.dim})")
    return m


def score_matrix(model: PldaModel, x, y) -> np.ndarray:
    """LLR of every row pair: ``S[i, j] = LLR(x[i], y[j])``, shape (N, M).

    GEMM form on centered rows: ``S = c - 0.5 (q_x 1' + 1 q_y') - X G Y'``
    with ``q = diag(X Q X')``. ``G`` is multiplied into the operand with
    fewer rows, and both product orders are averaged only when the row counts
    are equal, so either argument order runs the same products and
    ``score_matrix(x, y) == score_matrix(y, x).T`` bit for bit.
    """
    xc = _as_rows(model, x, "x") - model.mu
    yc = _as_rows(model, y, "y") - model.mu
    q, g, const = model._scoring_forms
    qx = ((xc @ q) * xc).sum(axis=1)
    qy = ((yc @ q) * yc).sum(axis=1)
    if len(xc) < len(yc):
        cross = (xc @ g) @ yc.T
    elif len(xc) > len(yc):
        cross = ((yc @ g) @ xc.T).T
    else:
        cross = 0.5 * ((xc @ g) @ yc.T + ((yc @ g) @ xc.T).T)
    return const - 0.5 * (qx[:, None] + qy[None, :]) - cross


def score_trials(
    model: PldaModel,
    enroll: Corpus,
    test: Corpus,
    trials: TrialList,
) -> ScoreSet:
    """Score every trial via speaker enrollment then pairwise LLR.

    A speaker's enrollment embeddings are averaged into one vector. One
    enrolled-speaker x test-utterance score matrix is computed and the
    trials are gathered from it by row and column index arrays. A trial is a
    target exactly when its enrollment speaker owns the test utterance; a
    label that says otherwise is refused.
    """
    if enroll.dim != model.dim or test.dim != model.dim:
        raise ValueError("corpus dimension does not match model dimension")
    speakers, groups = enroll.speaker_rows()
    rows = index_in(trials.spk_vocab, speakers)[trials.spk_code]
    cols = index_in(trials.utt_vocab, test.utt_id)[trials.utt_code]
    unknown = "unknown {} {!r} in trial list"
    _raise_first([
        _flagged(rows < 0, lambda i: unknown.format("enrollment speaker", trials.pair(i)[0])),
        _flagged(cols < 0, lambda i: unknown.format("test utterance", trials.pair(i)[1])),
    ])
    wrong = (index_in(test.spk_id, speakers)[cols] == rows) != trials.is_target
    if wrong.any():
        i = int(np.argmax(wrong))
        pair = trials.pair(i)
        label, owns = ("target", "does not own") if trials.is_target[i] else ("nontarget", "owns")
        raise ValueError(f"trial {pair} is labeled {label} but {pair[0]} {owns} the utterance")

    matrix = score_matrix(model, group_means(enroll.matrix(), groups), test.matrix())
    return ScoreSet(trials, matrix[rows, cols])


# ---------------------------------------------------------------------------
# model file I/O
# ---------------------------------------------------------------------------


def save_model(model: PldaModel, path) -> None:
    d = model.dim
    parts = [
        _MODEL_MAGIC,
        struct.pack("<I", d),
        np.ascontiguousarray(model.mu, dtype="<f8").tobytes(),
        np.ascontiguousarray(model.between, dtype="<f8").tobytes(),
        np.ascontiguousarray(model.within, dtype="<f8").tobytes(),
    ]
    Path(path).write_bytes(b"".join(parts))


def load_model(path) -> PldaModel:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 8 or blob[:4] != _MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic)")
    (d,) = struct.unpack_from("<I", blob, 4)
    expected = 8 + 8 * (d + 2 * d * d)
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for D={d}, got {len(blob)}")
    mu = np.frombuffer(blob, dtype="<f8", count=d, offset=8)
    b = np.frombuffer(blob, dtype="<f8", count=d * d, offset=8 + 8 * d).reshape(d, d)
    w = np.frombuffer(blob, dtype="<f8", count=d * d, offset=8 + 8 * d * (1 + d)).reshape(d, d)
    try:
        return PldaModel(mu=mu.copy(), between=b.copy(), within=w.copy())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
