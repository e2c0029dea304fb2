"""Waveform anonymization by LPC pole-angle warping.

Frames are Hann-windowed, analyzed with autocorrelation LPC, and the all-pole
spectrum's complex poles get their phases raised to the power ``alpha``
(magnitudes kept, then clamped inside the unit circle). The residual is
refiltered through the warped envelope and frames are overlap-added with
window-sum compensation. alpha = 1 reconstructs the input. Frames are
processed in fixed-size blocks, every step vectorized over the block's frames.
The blocks run one deep in a pipeline: while the calling thread warps,
synthesizes and overlap-adds block k, one worker thread solves block k+1's
poles (a batched LAPACK eigen-solve, which releases the GIL). Analysis, warp
and WAV I/O stay on the calling thread; the output is bit for bit the serial
loop's.
"""

from __future__ import annotations

import wave as _wavefile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MAG_CLAMP = 0.998
_BLOCK = 128  # frames per block: bounds the working arrays, not the result


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
        # the Hann window is zero at both ends, so a longer hop leaves samples no window covers
        if not 1 <= self.hop <= self.frame_len - 2:
            raise ValueError("hop must satisfy 1 <= hop <= frame_len - 2")
        if not 1 <= self.lpc_order < self.frame_len:
            raise ValueError("lpc_order must satisfy 1 <= lpc_order < frame_len")


def lpc_analyze(frames, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Autocorrelation-method LPC of every frame (the last axis) of ``frames``.

    Returns the predictor coefficients a1..ap of 1 - sum a_k z^-k, shape
    (..., p), and the residual, the inverse-filtered frame. Levinson stops
    early on a frame whose prediction error reaches zero, such as an
    all-zero frame, which gets zero coefficients and a zero residual.
    """
    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[-1] if x.ndim else 0
    if order >= n:
        raise ValueError(f"lpc order {order} must be below frame length {n}")
    r = np.stack([(x[..., : n - k] * x[..., k:]).sum(-1) for k in range(order + 1)], -1)
    r[..., 0] *= 1.0 + 1e-9  # white-noise ridge keeps the predictor strictly stable

    a = np.zeros(r.shape)
    a[..., 0] = 1.0
    err = r[..., 0].copy()
    for m in range(1, order + 1):
        live = err > 0.0
        k = -(r[..., m] + (a[..., 1:m] * r[..., m - 1 : 0 : -1]).sum(-1)) / np.where(live, err, 1.0)
        k = np.where(live, k, 0.0)
        a[..., 1:m] += k[..., None] * a[..., m - 1 : 0 : -1]
        a[..., m] = k
        err *= 1.0 - k * k

    residual = x * a[..., :1]
    for k in range(1, order + 1):
        residual[..., k:] += a[..., k : k + 1] * x[..., : n - k]
    return -a[..., 1:], residual


def warp_poles(poles, alpha: float) -> np.ndarray:
    """Raise each complex pole's phase to the power alpha, for any array shape.

    Real poles keep their phase; magnitudes are preserved and then clamped
    below the unit circle. Conjugate symmetry is preserved because the map
    is odd in the phase.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    poles = np.asarray(poles, dtype=np.complex128)
    phase = np.angle(poles)
    if alpha != 1.0:
        real = np.abs(poles.imag) <= 1e-12 * np.maximum(1.0, np.abs(poles.real))
        phase = np.where(real, phase, np.sign(phase) * np.abs(phase) ** alpha)
    return np.minimum(np.abs(poles), _MAG_CLAMP) * np.exp(1j * phase)


def _overlap_add(out: np.ndarray, start: int, frames: np.ndarray, hop: int) -> None:
    """Add the rows of ``frames`` into ``out``, ``hop`` samples apart, the first at ``start``."""
    count, flen = frames.shape
    chunks = -(-flen // hop)
    split = np.pad(frames, ((0, 0), (0, chunks * hop - flen))).reshape(count, chunks, hop)
    for j in range(chunks):
        out[start + j * hop : start + (j + count) * hop] += split[:, j].ravel()


def anonymize_wav(wav: WaveBuffer, cfg: ShiftConfig) -> WaveBuffer:
    """Shift formants block by block; output matches input length and rate."""
    from concurrent.futures import ThreadPoolExecutor

    n, p, flen, hop = len(wav), cfg.lpc_order, cfg.frame_len, cfg.hop

    # pad the front so every original sample gets full window coverage; a
    # frame starting past the signal would add nothing, so none is made
    pad = flen
    n_frames = -(-(pad + n) // hop)
    xp = np.zeros((n_frames - 1) * hop + flen)
    xp[pad : pad + n] = wav.samples
    frames = np.lib.stride_tricks.sliding_window_view(xp, flen)[::hop]
    window = np.hanning(flen)

    def analyze(first):
        """LPC of the block at ``first`` here; its eigen-solve starts on the worker."""
        windowed = frames[first : first + _BLOCK] * window
        coeffs, excitation = lpc_analyze(windowed, p)
        # column-major matrices reach LAPACK by a straight copy, not a transposing one
        companion = np.zeros((p, p, len(windowed)), order="F").transpose(2, 0, 1)
        companion[:, 0] = coeffs
        companion[:, np.arange(1, p), np.arange(p - 1)] = 1.0
        return windowed, excitation, worker.submit(np.linalg.eigvals, companion)

    acc, wsum = np.zeros(xp.size + flen), np.zeros(xp.size + flen)
    # one block deep: block k+1's LPC and poles are under way while block k
    # is warped, rebuilt, synthesized and overlap-added
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = analyze(0)
        for first in range(0, n_frames, _BLOCK):
            windowed, excitation, poles = ahead
            if first + _BLOCK < n_frames:
                ahead = analyze(first + _BLOCK)
            count = len(windowed)
            warped = warp_poles(poles.result(), cfg.alpha)
            poly = np.zeros((count, p + 1), dtype=np.complex128)
            poly[:, 0] = 1.0
            for j in range(p):
                poly[:, 1 : j + 2] -= warped[:, j : j + 1] * poly[:, : j + 1]

            # all-pole synthesis through 1 / poly, one sample of every frame per step
            taps = poly.real[:, :0:-1]
            y = np.zeros((count, p + flen))
            for i in range(flen):
                y[:, p + i] = excitation[:, i] - np.einsum("ij,ij->i", y[:, i : i + p], taps)
            y = y[:, p:]

            # match per-frame energy: warping redistributes all-pole gain
            energy_in, energy_out = (windowed**2).sum(1), (y**2).sum(1)
            live = (energy_in > 0.0) & (energy_out > 0.0)
            gain = np.sqrt(np.divide(energy_in, energy_out, out=np.ones(count), where=live))
            _overlap_add(acc, first * hop, y * gain[:, None], hop)
            _overlap_add(wsum, first * hop, np.broadcast_to(window, y.shape), hop)

    # the output pass is the call's memory peak: free the padded input and the
    # last block first, and normalize in place in acc's output slice
    del xp, frames, ahead, windowed, excitation, y
    out, denom = acc[pad : pad + n], wsum[pad : pad + n]
    covered = denom > 1e-6
    np.divide(out, denom, out=out, where=covered)
    out[~covered] = 0.0
    return WaveBuffer(np.clip(out, -1.0, 1.0, out=out), wav.sample_rate)


# ---------------------------------------------------------------------------
# WAV file I/O (RIFF PCM, 16-bit signed little-endian, mono)
# ---------------------------------------------------------------------------


def read_wav(path) -> WaveBuffer:
    """Read a mono 16-bit PCM WAV file; any malformed file raises ValueError naming ``path``."""
    path = Path(path)
    try:
        with _wavefile.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1:
                raise ValueError(f"{path}: expected mono audio, got {fh.getnchannels()} channels")
            if fh.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit PCM, got {8 * fh.getsampwidth()}-bit")
            rate, declared = fh.getframerate(), fh.getnframes()
            raw = fh.readframes(declared)
    # the wave module raises EOFError on a cut header and a bare RuntimeError
    # on a chunk that overruns its parent
    except (_wavefile.Error, EOFError, RuntimeError) as exc:
        detail = str(exc) or "truncated RIFF chunk"
        raise ValueError(f"{path}: not a PCM WAV file: {detail}") from None
    if len(raw) % 2:
        raise ValueError(f"{path}: data chunk ends mid-sample")
    if len(raw) < 2 * declared:
        raise ValueError(f"{path}: data chunk holds {len(raw) // 2} of {declared} declared samples")
    if rate <= 0:
        raise ValueError(f"{path}: sample rate must be positive, got {rate}")
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
