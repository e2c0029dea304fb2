"""Waveform anonymization by LPC pole-angle warping.

Frames are Hann-windowed, analyzed with autocorrelation LPC, and the all-pole
spectrum's complex poles get their phases raised to the power ``alpha``
(magnitudes kept, then clamped inside the unit circle). The residual is
refiltered through the warped envelope and frames are overlap-added with
window-sum compensation. alpha = 1 reconstructs the input.
"""

from __future__ import annotations

import wave as _wavefile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

_MAG_CLAMP = 0.998


@dataclass(frozen=True)
class WaveBuffer:
    """Mono PCM audio as float64 samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        x = np.asarray(self.samples, dtype=np.float64)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(x)):
            raise ValueError("samples contain non-finite values")
        if np.max(np.abs(x)) > 1.0 + 1e-9:
            raise ValueError("samples must lie in [-1, 1]")
        x = x.copy()
        x.flags.writeable = False
        object.__setattr__(self, "samples", x)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class LpcFrame:
    """Predictor coefficients a1..ap of 1 - sum a_k z^-k plus the residual."""

    coeffs: np.ndarray
    excitation: np.ndarray


@dataclass(frozen=True)
class ShiftConfig:
    """alpha is the pole-angle exponent; defaults suit 16 kHz speech.

    The default alpha of 0.8 is a placeholder strength, not a calibrated
    value; pick per application.
    """

    alpha: float = 0.8
    lpc_order: int = 20
    frame_len: int = 400
    hop: int = 160

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if self.hop < 1 or self.hop > self.frame_len:
            raise ValueError("hop must satisfy 1 <= hop <= frame_len")
        if not 1 <= self.lpc_order < self.frame_len:
            raise ValueError("lpc_order must satisfy 1 <= lpc_order < frame_len")


def _autocorrelation(x: np.ndarray, order: int) -> np.ndarray:
    full = np.correlate(x, x, mode="full")
    mid = x.size - 1
    return full[mid : mid + order + 1]


def _levinson(r: np.ndarray, order: int) -> np.ndarray:
    """Error-filter coefficients [1, c1..cp] from autocorrelation r[0..p]."""
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = r[0]
    for m in range(1, order + 1):
        if err <= 0.0:
            break
        k = -(r[m] + a[1:m] @ r[m - 1 : 0 : -1]) / err
        a[1:m] = a[1:m] + k * a[m - 1 : 0 : -1]
        a[m] = k
        err *= 1.0 - k * k
    return a


def lpc_analyze(frame, order: int) -> LpcFrame:
    """Autocorrelation-method LPC; residual is the inverse-filtered frame."""
    x = np.asarray(frame, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("frame must be 1-D")
    if order >= x.size:
        raise ValueError(f"lpc order {order} must be below frame length {x.size}")
    r = _autocorrelation(x, order)
    if r[0] <= 0.0:
        return LpcFrame(np.zeros(order), np.zeros(x.size))
    r = r.copy()
    r[0] *= 1.0 + 1e-9  # white-noise ridge keeps the predictor strictly stable
    error_filter = _levinson(r, order)
    residual = lfilter(error_filter, [1.0], x)
    return LpcFrame(-error_filter[1:], residual)


def warp_poles(poles, alpha: float) -> np.ndarray:
    """Raise each complex pole's phase to the power alpha.

    Real poles keep their phase; magnitudes are preserved and then clamped
    below the unit circle. Conjugate symmetry is preserved because the map
    is odd in the phase.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    poles = np.asarray(poles, dtype=np.complex128)
    out = np.empty_like(poles)
    for i, pole in enumerate(poles):
        mag = min(abs(pole), _MAG_CLAMP)
        if alpha == 1.0 or abs(pole.imag) <= 1e-12 * max(1.0, abs(pole.real)):
            phase = np.angle(pole)
        else:
            phi = np.angle(pole)
            phase = np.sign(phi) * np.abs(phi) ** alpha
        out[i] = mag * np.exp(1j * phase)
    return out


def _rebuild_error_filter(warped: np.ndarray, order: int) -> np.ndarray:
    poly = np.atleast_1d(np.poly(warped)).real
    if poly.size < order + 1:
        poly = np.pad(poly, (0, order + 1 - poly.size))
    return poly


def anonymize_wav(wav: WaveBuffer, cfg: ShiftConfig) -> WaveBuffer:
    """Shift formants frame-by-frame; output matches input length and rate."""
    if wav.sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    x = wav.samples
    n = x.size
    flen, hop = cfg.frame_len, cfg.hop

    # pad both ends so every original sample gets full window coverage
    pad = flen
    xp = np.concatenate([np.zeros(pad), x, np.zeros(2 * pad)])
    window = np.hanning(flen)

    acc = np.zeros(xp.size + flen)
    wsum = np.zeros(xp.size + flen)
    for start in range(0, xp.size, hop):
        seg = xp[start : start + flen]
        if seg.size < flen:
            seg = np.pad(seg, (0, flen - seg.size))
        windowed = seg * window
        analysis = lpc_analyze(windowed, cfg.lpc_order)
        error_filter = np.concatenate([[1.0], -analysis.coeffs])
        poles = np.roots(error_filter)
        warped = warp_poles(poles, cfg.alpha)
        synth_filter = _rebuild_error_filter(warped, cfg.lpc_order)
        frame_out = lfilter([1.0], synth_filter, analysis.excitation)
        # match per-frame energy: warping redistributes all-pole gain
        energy_in = float(windowed @ windowed)
        energy_out = float(frame_out @ frame_out)
        if energy_in > 0.0 and energy_out > 0.0:
            frame_out = frame_out * np.sqrt(energy_in / energy_out)
        acc[start : start + flen] += frame_out
        wsum[start : start + flen] += window

    span = slice(pad, pad + n)
    denom = wsum[span]
    out = np.where(denom > 1e-6, acc[span] / np.maximum(denom, 1e-6), 0.0)
    return WaveBuffer(np.clip(out, -1.0, 1.0), wav.sample_rate)


# ---------------------------------------------------------------------------
# WAV file I/O (RIFF PCM, 16-bit signed little-endian, mono)
# ---------------------------------------------------------------------------


def read_wav(path) -> WaveBuffer:
    path = Path(path)
    with _wavefile.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono audio, got {fh.getnchannels()} channels")
        if fh.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit PCM, got {8 * fh.getsampwidth()}-bit")
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if samples.size == 0:
        raise ValueError(f"{path}: empty audio file")
    return WaveBuffer(samples, rate)


def write_wav(wav: WaveBuffer, path) -> None:
    scaled = np.clip(np.rint(wav.samples * 32767.0), -32768, 32767).astype("<i2")
    with _wavefile.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(wav.sample_rate)
        fh.writeframes(scaled.tobytes())
