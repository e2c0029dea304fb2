"""Waveform anonymization by LPC pole-angle warping.

Frames are Hann-windowed, analyzed with autocorrelation LPC, and the all-pole
spectrum's complex poles get their phases raised to the power ``alpha``
(magnitudes kept, then clamped inside the unit circle). The residual is
refiltered through the warped envelope and frames are overlap-added with
window-sum compensation. alpha = 1 reconstructs the input. Frames are
processed in fixed-size blocks, every step vectorized over the block's frames;
the autocorrelation and the residual are one contraction each.
One private generator runs the blocks and yields the finished output in
order. Each block takes its zero-padded input segment from a ``read(a, b)``
callable when it is analyzed and adds its frames into a rolling window that
starts at its first frame; each sample sums its frames oldest first. After
the block, the samples before the next block's first frame are divided by
the window sum, a constant of the hop grid, clipped and yielded, and the
samples later frames still reach move to the window's front. Every step
after the sums is per sample, so the block size changes no output bit.
``anonymize_wav`` fills one output array from the generator, so a call holds
the input, the output and one block's working set (traced: 5.2 MiB at 15 s,
18.0 MiB at 120 s). The ``anonymize-wav`` command reads and checks the whole
data chunk with ``read_pcm`` before any output exists; ``write_shifted`` holds
it as 16-bit samples and writes each yielded run (traced: 3.9 and 7.1 MiB).
The blocks run two deep in a pipeline: while the calling thread warps,
synthesizes and overlap-adds block k, one worker thread solves the poles of
blocks k+1 and k+2 in turn, each as two batched LAPACK eigen-solves of half
a block (which release the GIL). While block k's poles are not ready, the
calling thread takes queued batches the worker has not started, latest
first, block k's own before later blocks', and solves them itself instead
of waiting; LAPACK solves each matrix alone, so the poles do not depend on
the batch or the thread. A block in flight holds only its input segment,
error filter and companion matrices; its windowed frames and residual are
made when it is synthesized. The residual and the all-pole recursion are
time-major, one row per sample and one column per frame, so each recursion
step reads contiguous rows; its taps are a reversed view, because einsum
sums a contiguous one-frame block in another order than the serial loop.
Analysis, warp and WAV I/O stay on the calling thread. The output is bit
for bit that of every frame in one serial pass.
"""

from __future__ import annotations

import contextlib
import wave as _wavefile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embeddings import _read_only

_MAG_CLAMP = 0.998
_BLOCK = 128  # frames per block: bounds the working arrays; changes no output bit
_AHEAD = 2  # blocks whose poles are under way while one block is synthesized


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
        # the extremes hold any NaN or infinity, so no per-sample temporary is made
        low, high = x.min(), x.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("samples contain non-finite values")
        if low < -1.0 - 1e-9 or high > 1.0 + 1e-9:
            raise ValueError("samples must lie in [-1, 1]")
        object.__setattr__(self, "samples", _read_only(x))

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
    error = _error_filter(x, order)
    return -error[..., 1:], np.moveaxis(_residual(x, error), 0, -1)


def _lags(x: np.ndarray, before: int, after: int, axis: int = -1) -> np.ndarray:
    """Every run of ``before + after + 1`` samples along ``axis`` of the zero-padded frames."""
    widths = [(0, 0)] * x.ndim
    widths[axis] = (before, after)
    return np.lib.stride_tricks.sliding_window_view(np.pad(x, widths), before + after + 1, axis)


def _error_filter(x: np.ndarray, order: int) -> np.ndarray:
    """The prediction-error filter 1, -a1..-ap of every frame, shape (..., p + 1).

    The autocorrelation is one contraction of the frames with their next
    ``order`` samples; Levinson's recursion then runs over all frames at once.
    """
    r = np.einsum("...i,...ik->...k", x, _lags(x, 0, order))
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
    return a


def _residual(x: np.ndarray, error: np.ndarray) -> np.ndarray:
    """The frames inverse-filtered through ``error``, time-major: shape (n, ...).

    One contraction with their last p samples; sample i sums error[k] * x[i - k]
    in the order k = 0..p.
    """
    p = error.shape[-1] - 1
    lags = _lags(np.moveaxis(x, -1, 0), p, 0, axis=0)[..., ::-1]
    return np.einsum("i...k,k...->i...", lags, np.ascontiguousarray(np.moveaxis(error, -1, 0)))


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


def _overlap_add(out: np.ndarray, frames: np.ndarray, hop: int) -> None:
    """Add the rows of ``frames`` into ``out``, ``hop`` samples apart, the first at 0."""
    count, flen = frames.shape
    # one pass per hop-wide column of the frames, added through a strided view
    # of out, so no padded copy of the frames is made; the last column goes
    # first, so every sample adds its frames oldest first
    for j in reversed(range(0, flen, hop)):
        width = min(hop, flen - j)
        rows = out[j : j + count * hop].reshape(count, hop)
        rows[:, :width] += frames[:, j : j + width]


def _shifted_chunks(read, n: int, cfg: ShiftConfig):
    """Shift ``n`` samples block by block; yield the finished output in order.

    ``read(a, b)`` returns input samples a..b-1 as floats in [-1, 1]; it is
    called once per block, when the block is analyzed. Each yielded chunk is
    the next run of output samples, a view that the next step overwrites.
    """
    from concurrent.futures import Future, ThreadPoolExecutor

    p, flen, hop = cfg.lpc_order, cfg.frame_len, cfg.hop

    # pad the front so every original sample gets full window coverage; a
    # frame starting past the signal would add nothing, so none is made
    pad = flen
    n_frames = -(-(pad + n) // hop)
    window = np.hanning(flen)
    # every signal sample lies under all the frames that reach it, so the
    # window sum repeats every hop; it is built oldest frame first, and a
    # sample whose sum is at most 1e-6 is zero
    wsum = np.zeros(hop)
    for j in reversed(range(0, flen, hop)):
        wsum[: min(hop, flen - j)] += window[j : j + hop]
    covered = wsum > 1e-6

    def windowed_frames(seg):
        return np.lib.stride_tricks.sliding_window_view(seg, flen)[::hop] * window

    def analyze(first):
        """Block ``first``'s zero-padded input, error filter and [future, matrices] solves."""
        lo = first * hop  # the segment's start in padded coordinates
        seg = np.zeros((min(_BLOCK, n_frames - first) - 1) * hop + flen)
        a, b = max(lo, pad), min(lo + seg.size, pad + n)
        if a < b:
            seg[a - lo : b - lo] = read(a - pad, b - pad)
        error = _error_filter(windowed_frames(seg), p)
        # column-major matrices reach LAPACK by a straight copy, not a transposing one
        companion = np.zeros((p, p, len(error)), order="F").transpose(2, 0, 1)
        companion[:, 0] = -error[:, 1:]
        companion[:, np.arange(1, p), np.arange(p - 1)] = 1.0
        halves = [companion[i : i + _BLOCK // 2] for i in range(0, len(error), _BLOCK // 2)]
        return seg, error, [[worker.submit(np.linalg.eigvals, half), half] for half in halves]

    # the rolling window starts at the current block's first frame and takes
    # its frames, after the samples earlier blocks' frames left there
    rolling = np.zeros(_BLOCK * hop + flen)
    starts = range(0, n_frames, _BLOCK)
    # two blocks deep: the poles of blocks k+1 and k+2 are under way while
    # block k is warped, rebuilt, synthesized and overlap-added
    with ThreadPoolExecutor(max_workers=1) as worker:
        queued = [analyze(first) for first in starts[:_AHEAD]]
        for first in starts:
            if first + _AHEAD * _BLOCK < n_frames:
                queued.append(analyze(first + _AHEAD * _BLOCK))
            seg, error, own = queued.pop(0)
            # while this block's poles are not ready, solve queued batches here,
            # latest first, its own before later blocks'; LAPACK solves each
            # matrix alone, so the poles do not depend on the batch or thread
            for job in [*own[::-1], *(later for *_, jobs in queued[::-1] for later in jobs[::-1])]:
                if all(mine[0].done() for mine in own):
                    break
                if job[0].cancel():
                    job[0] = Future()
                    job[0].set_result(np.linalg.eigvals(job[1]))
            poles = np.concatenate([mine[0].result() for mine in own])
            # the block's companion matrices are not kept past its poles
            del own, job
            # frames and residual are made only now, so blocks in flight hold
            # no more than their segments, filters and companion matrices
            windowed = windowed_frames(seg)
            excitation, energy_in = _residual(windowed, error), (windowed**2).sum(1)
            count = len(windowed)
            # one block's arrays bound the call's memory: each is freed once
            # synthesis no longer reads it
            del seg, windowed
            warped = warp_poles(poles, cfg.alpha)
            poly = np.zeros((count, p + 1), dtype=np.complex128)
            poly[:, 0] = 1.0
            for j in range(p):
                poly[:, 1 : j + 2] -= warped[:, j : j + 1] * poly[:, : j + 1]

            # all-pole synthesis through 1 / poly, time-major: each step reads p
            # contiguous rows; reversed taps keep a one-frame einsum in serial order
            taps = np.ascontiguousarray(poly.real[:, 1:].T)[::-1]
            y = np.zeros((p + flen, count))
            for i in range(flen):
                np.subtract(excitation[i], np.einsum("ji,ji->i", y[i : i + p], taps), out=y[p + i])
            y = np.ascontiguousarray(y[p:].T)
            del excitation

            # match per-frame energy: warping redistributes all-pole gain
            energy_out = (y**2).sum(1)
            live = (energy_in > 0.0) & (energy_out > 0.0)
            y *= np.sqrt(np.divide(energy_in, energy_out, out=np.ones(count), where=live))[:, None]

            _overlap_add(rolling, y, hop)
            # no later frame reaches a sample before the next block's first frame
            done = count * hop
            rows = rolling[:done].reshape(count, hop)
            np.divide(rows, wsum, out=rows, where=covered)
            rows[:, ~covered] = 0.0
            lo = first * hop
            a, b = max(lo, pad), min(lo + done, pad + n)
            if a < b:
                finished = rolling[a - lo : b - lo]
                np.clip(finished, -1.0, 1.0, out=finished)
                yield finished
            # the samples later frames still reach move to the window's front
            rolling[: rolling.size - done] = rolling[done:]
            rolling[rolling.size - done :] = 0.0


def anonymize_wav(wav: WaveBuffer, cfg: ShiftConfig) -> WaveBuffer:
    """Shift formants block by block; output matches input length and rate."""
    out = np.empty(len(wav))
    filled = 0
    for chunk in _shifted_chunks(lambda a, b: wav.samples[a:b], len(wav), cfg):
        out[filled : filled + len(chunk)] = chunk
        filled += len(chunk)
    out.flags.writeable = False
    return WaveBuffer(out, wav.sample_rate)


def write_shifted(pcm: np.ndarray, rate: int, dst, cfg: ShiftConfig) -> None:
    """Shift the 16-bit samples ``pcm`` at ``rate`` into the WAV file ``dst``, holding them
    and one block; ``pcm`` is read whole beforehand, so ``dst`` may be the file it came from."""
    chunks = _shifted_chunks(lambda a, b: pcm[a:b] / 32768.0, len(pcm), cfg)
    with open(dst, "wb") as fh, contextlib.closing(chunks), _pcm_writer(fh, rate, len(pcm)) as out:
        for chunk in chunks:
            out.writeframesraw(_to_pcm(chunk))


# ---------------------------------------------------------------------------
# WAV file I/O (RIFF PCM, 16-bit signed little-endian, mono)
# ---------------------------------------------------------------------------


def read_pcm(path) -> tuple[np.ndarray, int]:
    """A mono 16-bit PCM WAV file's samples, read-only, and rate; ValueError names ``path``."""
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
    if not raw:
        raise ValueError(f"{path}: empty audio file")
    return np.frombuffer(raw, dtype="<i2"), rate


def read_wav(path) -> WaveBuffer:
    """Read a mono 16-bit PCM WAV file; any malformed file raises ValueError naming ``path``."""
    pcm, rate = read_pcm(path)
    samples = pcm / 32768.0
    samples.flags.writeable = False
    return WaveBuffer(samples, rate)


def _to_pcm(samples: np.ndarray) -> np.ndarray:
    """Samples as 16-bit PCM at ``read_wav``'s scale: 32768 per unit, rounded, then clipped."""
    scaled = samples * 32768.0
    np.clip(np.rint(scaled, out=scaled), -32768, 32767, out=scaled)
    return scaled.astype("<i2")


def _pcm_writer(fh, rate: int, n: int):
    """A mono 16-bit WAV writer on the open file ``fh`` whose header declares ``n`` samples."""
    out = _wavefile.open(fh, "wb")
    out.setnchannels(1)
    out.setsampwidth(2)
    out.setframerate(rate)
    out.setnframes(n)
    return out


def write_wav(wav: WaveBuffer, path) -> None:
    """Write 16-bit PCM at ``read_wav``'s scale, 32768 per unit, so a read and write keep every sample."""
    # opened here, not by wave: a wave writer whose open fails prints an error when deleted
    with open(path, "wb") as fh, _pcm_writer(fh, wav.sample_rate, len(wav)) as out:
        out.writeframes(_to_pcm(wav.samples))
