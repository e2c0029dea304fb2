import numpy as np
import pytest
from scipy.signal import lfilter

from anonvox import WaveBuffer

SAMPLE_RATE = 16000


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


def by_speaker(corpus) -> dict:
    """Each speaker's records in corpus order, speakers in first-appearance order."""
    groups = {}
    for rec in corpus.records:
        groups.setdefault(rec.spk_id, []).append(rec)
    return groups


def by_utt(corpus) -> dict:
    """Each record under its utt_id."""
    return {rec.utt_id: rec for rec in corpus.records}


@pytest.fixture(scope="session")
def vowel() -> WaveBuffer:
    return synth_vowel()


def dominant_peak_hz(wav: WaveBuffer, lo: float = 300.0, hi: float = 3000.0) -> float:
    spectrum = np.abs(np.fft.rfft(wav.samples * np.hanning(len(wav.samples))))
    freqs = np.fft.rfftfreq(len(wav.samples), 1.0 / wav.sample_rate)
    band = (freqs >= lo) & (freqs <= hi)
    return float(freqs[band][np.argmax(spectrum[band])])
