import numpy as np
import pytest
from hypothesis import settings
from scipy.signal import lfilter

from anonvox import Corpus, PldaModel, WaveBuffer
from anonvox.plda import _speaker_stats

SAMPLE_RATE = 16000
LOG_2PI = float(np.log(2.0 * np.pi))

# `--hypothesis-profile deep`: a long run of a property that sets no example count of its own
settings.register_profile("deep", max_examples=2000, deadline=None)


def synth_vowel(
    duration: float = 0.5,
    f0: float = 160.0,
    formants=((800.0, 80.0), (1800.0, 120.0)),
    sample_rate: int = SAMPLE_RATE,
) -> WaveBuffer:
    """Impulse train through resonators: a deterministic vowel-like signal."""
    n = int(duration * sample_rate)
    excitation = np.zeros(n)
    excitation[:: int(round(sample_rate / f0))] = 1.0
    signal = excitation
    for fc, bw in formants:
        r = np.exp(-np.pi * bw / sample_rate)
        theta = 2.0 * np.pi * fc / sample_rate
        signal = lfilter([1.0], [1.0, -2.0 * r * np.cos(theta), r * r], signal)
    return WaveBuffer(0.3 * signal / np.max(np.abs(signal)), sample_rate)


# the anonymizer's note that n_farthest covers half of a pool view or more, for
# tests that draw n_farthest at random and so rank most of a small pool at times
POOL_REGIME = pytest.mark.filterwarnings("ignore:n_farthest .* pool view:UserWarning")


def corpus_of(name: str, rows) -> Corpus:
    """A corpus from ``(utt_id, spk_id, gender, vector)`` rows."""
    rows = list(rows)
    if not rows:
        return Corpus(name, [], [], [], np.empty((0, 0)))
    utt, spk, gender, vectors = zip(*rows)
    return Corpus(name, utt, spk, gender, np.array(vectors, dtype=np.float64))


def from_arrays(target_scores, nontarget_scores) -> tuple[np.ndarray, np.ndarray]:
    """The ``(scores, is_target)`` arrays of raw target and nontarget scores."""
    tar = np.asarray(target_scores, dtype=np.float64)
    non = np.asarray(nontarget_scores, dtype=np.float64)
    return np.concatenate([tar, non]), np.arange(tar.size + non.size) < tar.size


def tie_break_ranking(distances, utt_ids) -> list[int]:
    """The anonymizer's tie rule as an oracle: indices by descending distance,
    ties by ascending utt_id, equal ids in input order."""
    d = [float(x) for x in distances]
    if not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite")
    if len(utt_ids) != len(d):
        raise ValueError("distances and utt_ids must have equal length")
    return sorted(range(len(d)), key=lambda i: (-d[i], str(utt_ids[i])))


def log_likelihood(model: PldaModel, corpus: Corpus) -> float:
    """Exact marginal log-likelihood of a speaker-labeled corpus: the oracle
    for EM's non-decreasing likelihood.

    For a speaker with n utterances the stacked covariance block-diagonalizes
    into one (within + n between) block for the speaker mean and n-1 within
    blocks for the deviations.
    """
    _, counts, means, scatter = _speaker_stats(corpus)
    d = model.dim
    w = model.within
    b = model.between
    sign_w, logdet_w = np.linalg.slogdet(w)
    if sign_w <= 0:
        raise ValueError("within covariance must be positive definite")

    ll = -0.5 * float(np.trace(np.linalg.solve(w, scatter)))
    for n in np.unique(counts):
        idx = np.flatnonzero(counts == n)
        a = w + float(n) * b
        sign_a, logdet_a = np.linalg.slogdet(a)
        if sign_a <= 0:
            raise ValueError("within + n * between must be positive definite")
        zbar = means[idx] - model.mu
        quad = float(np.einsum("ij,ij->", zbar, np.linalg.solve(a, zbar.T).T))
        ll += -0.5 * (
            len(idx) * (n * d * LOG_2PI + logdet_a + (n - 1) * logdet_w)
            + float(n) * quad
        )
    return float(ll)


def by_speaker(corpus) -> dict:
    """Each speaker's vectors as matrix rows in corpus order, speakers in appearance order."""
    groups = {}
    for spk, vec in zip(corpus.spk_id.tolist(), corpus.matrix()):
        groups.setdefault(spk, []).append(vec)
    return {spk: np.array(vecs) for spk, vecs in groups.items()}


def by_utt(corpus) -> dict:
    """Each vector under its utt_id."""
    return dict(zip(corpus.utt_id.tolist(), corpus.matrix()))


@pytest.fixture(scope="session")
def vowel() -> WaveBuffer:
    return synth_vowel()


def dominant_peak_hz(wav: WaveBuffer, lo: float = 300.0, hi: float = 3000.0) -> float:
    spectrum = np.abs(np.fft.rfft(wav.samples * np.hanning(len(wav.samples))))
    freqs = np.fft.rfftfreq(len(wav.samples), 1.0 / wav.sample_rate)
    band = (freqs >= lo) & (freqs <= hi)
    return float(freqs[band][np.argmax(spectrum[band])])
