import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from anonvox import ShiftConfig, WaveBuffer, anonymize_wav, formant, lpc_analyze, warp_poles
from anonvox.formant import read_wav, write_wav

from conftest import dominant_peak_hz, synth_vowel

WARPED_PI_THIRD = 1.037583111874431  # (pi/3) ** 0.8


def snr_db(reference, candidate):
    noise = reference - candidate
    return 10.0 * np.log10(np.sum(reference**2) / max(np.sum(noise**2), 1e-300))


class TestLpcAnalyze:
    def test_ar1_coefficient_recovered(self):
        rng = np.random.default_rng(3)
        x = np.zeros(2000)
        for i in range(1, len(x)):
            x[i] = 0.9 * x[i - 1] + 0.01 * rng.standard_normal()
        coeffs, _ = lpc_analyze(x[500:900], 1)
        assert coeffs[0] == pytest.approx(0.9, abs=0.02)

    def test_all_zero_frame(self):
        coeffs, excitation = lpc_analyze(np.zeros(200), 8)
        assert np.all(coeffs == 0.0)
        assert np.all(excitation == 0.0)

    def test_inverse_then_forward_reconstructs(self):
        rng = np.random.default_rng(5)
        signal = rng.standard_normal(400)
        coeffs, excitation = lpc_analyze(signal, 12)
        error_filter = np.concatenate([[1.0], -coeffs])
        reconstructed = lfilter([1.0], error_filter, excitation)
        assert np.max(np.abs(reconstructed - signal)) < 1e-9

    def test_order_must_be_below_frame_length(self):
        with pytest.raises(ValueError, match="order"):
            lpc_analyze(np.zeros(10), 10)

    def test_predictor_is_stable(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            coeffs, _ = lpc_analyze(rng.standard_normal(300) * np.hanning(300), 16)
            roots = np.roots(np.concatenate([[1.0], -coeffs]))
            assert np.all(np.abs(roots) < 1.0)


class TestWarpPoles:
    def test_alpha_one_identity(self):
        poles = np.array([0.9 * np.exp(1j * 0.7), 0.9 * np.exp(-1j * 0.7), 0.4])
        np.testing.assert_array_equal(warp_poles(poles, 1.0), poles)

    def test_known_phase_mapping(self):
        pole = 0.9 * np.exp(1j * np.pi / 3)
        warped = warp_poles([pole], 0.8)[0]
        assert np.angle(warped) == pytest.approx(WARPED_PI_THIRD, abs=1e-12)
        assert abs(warped) == pytest.approx(0.9, abs=1e-12)

    def test_real_positive_pole_unchanged(self):
        assert warp_poles([0.5 + 0.0j], 0.8)[0] == 0.5 + 0.0j

    def test_conjugate_symmetry_preserved(self):
        pole = 0.85 * np.exp(1j * 1.2)
        warped = warp_poles([pole, np.conj(pole)], 0.7)
        assert warped[1] == pytest.approx(np.conj(warped[0]), abs=1e-15)

    def test_magnitude_clamped(self):
        warped = warp_poles([1.05 * np.exp(1j * 0.5)], 0.9)[0]
        assert abs(warped) <= 0.998 + 1e-12

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            warp_poles([0.5 + 0.0j], 0.0)


class TestShiftConfig:
    def test_hop_bound(self):
        with pytest.raises(ValueError, match="hop"):
            ShiftConfig(hop=500, frame_len=400)

    @pytest.mark.parametrize("hop", [399, 400])
    def test_hop_must_leave_every_sample_windowed(self, hop):
        # the Hann window is zero at both ends, so these hops would zero frame starts
        with pytest.raises(ValueError, match="hop must satisfy 1 <= hop <= frame_len - 2"):
            ShiftConfig(hop=hop, frame_len=400)

    def test_order_bound(self):
        with pytest.raises(ValueError, match="lpc_order"):
            ShiftConfig(lpc_order=400, frame_len=400)


class TestAnonymizeWav:
    def test_alpha_one_reconstruction_snr(self, vowel):
        out = anonymize_wav(vowel, ShiftConfig(alpha=1.0))
        assert snr_db(vowel.samples, out.samples) >= 30.0

    def test_peak_moves_at_alpha_08(self, vowel):
        out = anonymize_wav(vowel, ShiftConfig(alpha=0.8))
        before = dominant_peak_hz(vowel)
        after = dominant_peak_hz(out)
        assert abs(after - before) / before >= 0.05

    def test_silence_in_silence_out(self):
        silent = WaveBuffer(np.zeros(4000), 16000)
        out = anonymize_wav(silent, ShiftConfig(alpha=0.8))
        assert np.all(out.samples == 0.0)

    def test_length_and_rate_preserved(self, vowel):
        out = anonymize_wav(vowel, ShiftConfig(alpha=0.85))
        assert len(out) == len(vowel)
        assert out.sample_rate == vowel.sample_rate

    @pytest.mark.parametrize("alpha", [0.7, 0.8, 1.0, 1.2, 1.3])
    def test_energy_within_3db(self, vowel, alpha):
        out = anonymize_wav(vowel, ShiftConfig(alpha=alpha))
        ratio = 10.0 * np.log10(np.sum(out.samples**2) / np.sum(vowel.samples**2))
        assert abs(ratio) <= 3.0

    def test_deterministic(self, vowel):
        cfg = ShiftConfig(alpha=0.8)
        first = anonymize_wav(vowel, cfg)
        second = anonymize_wav(vowel, cfg)
        assert np.array_equal(first.samples, second.samples)

    def test_all_frames_stable_after_warp(self, vowel):
        """Re-run the analysis chain and check every warped pole set."""
        cfg = ShiftConfig(alpha=0.8)
        window = np.hanning(cfg.frame_len)
        x = np.concatenate([np.zeros(cfg.frame_len), vowel.samples, np.zeros(cfg.frame_len)])
        for start in range(0, x.size - cfg.frame_len, cfg.hop):
            coeffs, _ = lpc_analyze(x[start : start + cfg.frame_len] * window, cfg.lpc_order)
            poles = np.roots(np.concatenate([[1.0], -coeffs]))
            warped = warp_poles(poles, cfg.alpha)
            if warped.size:
                assert np.max(np.abs(warped)) < 1.0

    def test_wave_buffer_validates_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            WaveBuffer(np.zeros(10), 0)

    def test_wave_buffer_validates_range(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            WaveBuffer(np.array([2.0]), 16000)

    def test_wave_buffer_rejects_below_minus_one(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            WaveBuffer(np.array([-1.5]), 16000)

    @pytest.mark.parametrize("edge", [-1.0, 1.0])
    def test_wave_buffer_accepts_full_scale(self, edge):
        assert WaveBuffer(np.array([edge]), 16000).samples[0] == edge

    @pytest.mark.parametrize("samples", [[np.nan], [2.0, np.nan], [-np.inf, 0.5], [np.inf]])
    def test_wave_buffer_reports_non_finite_before_range(self, samples):
        with pytest.raises(ValueError, match="non-finite"):
            WaveBuffer(np.array(samples), 16000)

    def test_wave_buffer_shares_a_read_only_array_and_copies_a_writeable_one(self):
        samples = np.zeros(4)
        held = WaveBuffer(samples, 16000)
        samples[0] = 0.5
        assert held.samples[0] == 0.0 and not held.samples.flags.writeable
        samples.flags.writeable = False
        assert WaveBuffer(samples, 16000).samples is samples


# ---------------------------------------------------------------------------
# Per-frame reference: the shifter as one frame at a time, with np.roots,
# a per-pole warp, np.poly and scipy's lfilter
# ---------------------------------------------------------------------------


def _reference_lpc(x, order):
    full = np.correlate(x, x, mode="full")
    r = full[x.size - 1 : x.size + order].copy()
    if r[0] <= 0.0:
        return np.zeros(order), np.zeros(x.size)
    r[0] *= 1.0 + 1e-9
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
    return -a[1:], lfilter(a, [1.0], x)


def _reference_warp(poles, alpha):
    out = np.empty(len(poles), dtype=np.complex128)
    for i, pole in enumerate(np.asarray(poles, dtype=np.complex128)):
        phase = np.angle(pole)
        if alpha != 1.0 and abs(pole.imag) > 1e-12 * max(1.0, abs(pole.real)):
            phase = np.sign(phase) * np.abs(phase) ** alpha
        out[i] = min(abs(pole), 0.998) * np.exp(1j * phase)
    return out


def _reference_anonymize_wav(wav, cfg):
    x, n, flen, hop = wav.samples, len(wav), cfg.frame_len, cfg.hop
    xp = np.concatenate([np.zeros(flen), x, np.zeros(2 * flen)])
    window = np.hanning(flen)
    acc = np.zeros(xp.size + flen)
    wsum = np.zeros(xp.size + flen)
    for start in range(0, xp.size, hop):
        seg = xp[start : start + flen]
        windowed = np.pad(seg, (0, flen - seg.size)) * window
        coeffs, excitation = _reference_lpc(windowed, cfg.lpc_order)
        poles = np.roots(np.concatenate([[1.0], -coeffs]))
        synth_filter = np.atleast_1d(np.poly(_reference_warp(poles, cfg.alpha))).real
        synth_filter = np.pad(synth_filter, (0, cfg.lpc_order + 1 - synth_filter.size))
        frame_out = lfilter([1.0], synth_filter, excitation)
        energy_in = float(windowed @ windowed)
        energy_out = float(frame_out @ frame_out)
        if energy_in > 0.0 and energy_out > 0.0:
            frame_out = frame_out * np.sqrt(energy_in / energy_out)
        acc[start : start + flen] += frame_out
        wsum[start : start + flen] += window
    denom = wsum[flen : flen + n]
    out = np.where(denom > 1e-6, acc[flen : flen + n] / np.maximum(denom, 1e-6), 0.0)
    return WaveBuffer(np.clip(out, -1.0, 1.0), wav.sample_rate)


def _samples_for_frames(n_frames, cfg):
    """Input length n for which anonymize_wav makes n_frames = ceil((frame_len + n) / hop)."""
    return n_frames * cfg.hop - cfg.frame_len


def _with_zero_run(wav, start, stop):
    samples = wav.samples.copy()
    samples[start:stop] = 0.0
    return WaveBuffer(samples, wav.sample_rate)


REFERENCE_CASES = {
    "alpha-0.7": (synth_vowel(0.3), ShiftConfig(alpha=0.7)),
    "alpha-1.0": (synth_vowel(0.3), ShiftConfig(alpha=1.0)),
    "alpha-1.3": (synth_vowel(0.3), ShiftConfig(alpha=1.3)),
    "order-1": (synth_vowel(0.2), ShiftConfig(lpc_order=1)),
    "order-8": (synth_vowel(0.2), ShiftConfig(lpc_order=8)),
    "order-20": (synth_vowel(0.2), ShiftConfig(lpc_order=20)),
    # the largest hop ShiftConfig allows: the Hann window sum stays nonzero everywhere
    "hop-frame-len-minus-2": (synth_vowel(0.2), ShiftConfig(hop=398, frame_len=400)),
    "shorter-than-frame": (synth_vowel(250 / 16000), ShiftConfig()),
    # 2000 zeros hold dead frames between live ones
    "interior-zeros": (_with_zero_run(synth_vowel(0.5), 3000, 5000), ShiftConfig()),
    "length-not-hop-multiple": (synth_vowel(3237 / 16000), ShiftConfig(hop=100)),
    **{
        f"block{d:+d}-frames": (
            synth_vowel(_samples_for_frames(formant._BLOCK + d, ShiftConfig()) / 16000),
            ShiftConfig(),
        )
        for d in (-1, 0, 1)
    },
    # as many blocks as the pipeline keeps ahead; THREE_BLOCKS below has one more
    "two-blocks": (synth_vowel(_samples_for_frames(2 * formant._BLOCK, ShiftConfig()) / 16000),
                   ShiftConfig()),
}


class TestAgainstPerFrameReference:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_reference(self, case, tmp_path):
        wav, cfg = REFERENCE_CASES[case]
        out = anonymize_wav(wav, cfg)
        expected = _reference_anonymize_wav(wav, cfg)
        assert np.max(np.abs(out.samples - expected.samples)) <= 1e-6
        write_wav(out, tmp_path / "out.wav")
        write_wav(expected, tmp_path / "expected.wav")
        pcm_out = np.rint(read_wav(tmp_path / "out.wav").samples * 32768.0)
        pcm_expected = np.rint(read_wav(tmp_path / "expected.wav").samples * 32768.0)
        assert np.max(np.abs(pcm_out - pcm_expected)) <= 1.0

    def test_dead_frames_stay_exactly_zero(self):
        wav, cfg = REFERENCE_CASES["interior-zeros"]
        out = anonymize_wav(wav, cfg)
        # samples no live frame's window reaches
        assert np.all(out.samples[3000 + cfg.frame_len : 5000 - cfg.frame_len] == 0.0)

    def test_batched_lpc_equals_per_row(self):
        rng = np.random.default_rng(21)
        frames = rng.standard_normal((2, 3, 120)) * np.hanning(120)
        frames[1, 2] = 0.0
        batch_coeffs, batch_excitation = lpc_analyze(frames, 10)
        assert batch_coeffs.shape == (2, 3, 10)
        assert batch_excitation.shape == (2, 3, 120)
        for idx in np.ndindex(2, 3):
            row_coeffs, row_excitation = lpc_analyze(frames[idx], 10)
            np.testing.assert_array_equal(batch_coeffs[idx], row_coeffs)
            np.testing.assert_array_equal(batch_excitation[idx], row_excitation)
            coeffs, excitation = _reference_lpc(frames[idx], 10)
            np.testing.assert_allclose(row_coeffs, coeffs, rtol=0, atol=1e-9)
            np.testing.assert_allclose(row_excitation, excitation, rtol=0, atol=1e-12)
        assert np.all(batch_coeffs[1, 2] == 0.0) and np.all(batch_excitation[1, 2] == 0.0)

    @pytest.mark.parametrize("shape", [(120,), (1, 120), (5, 120), (2, 3, 120)])
    def test_residual_adds_its_lags_in_order(self, shape):
        # sample i adds error[k] * x[i - k] for k = 0..p, one term at a time, in any layout
        frames = np.random.default_rng(4).standard_normal(shape) * np.hanning(120)
        coeffs, excitation = lpc_analyze(frames, 10)
        padded = np.pad(frames, [(0, 0)] * (frames.ndim - 1) + [(10, 0)])
        expected = np.zeros(shape) + padded[..., 10:]
        for k in range(1, 11):
            expected = expected + -coeffs[..., k - 1 : k] * padded[..., 10 - k : 130 - k]
        assert np.array_equal(excitation, expected)

    def test_warp_poles_any_shape(self):
        rng = np.random.default_rng(8)
        poles = rng.uniform(0.1, 1.05, (4, 6)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (4, 6)))
        poles[0, :2] = [0.5, -0.7]
        for alpha in (0.7, 1.0, 1.3):
            warped = warp_poles(poles, alpha)
            assert warped.shape == poles.shape
            for row, ref_row in zip(warped, poles):
                np.testing.assert_allclose(row, _reference_warp(ref_row, alpha), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# Serial reference: every frame in one pass, without blocks or a worker
# thread, with the module's own kernels, so the pipelined shifter must match
# it bit for bit
# ---------------------------------------------------------------------------


def _serial_anonymize_wav(wav, cfg):
    n, p, flen, hop = len(wav), cfg.lpc_order, cfg.frame_len, cfg.hop
    pad = flen
    n_frames = -(-(pad + n) // hop)
    xp = np.zeros((n_frames - 1) * hop + flen)
    xp[pad : pad + n] = wav.samples
    frames = np.lib.stride_tricks.sliding_window_view(xp, flen)[::hop]
    window = np.hanning(flen)

    windowed = frames * window
    coeffs, excitation = lpc_analyze(windowed, p)
    companion = np.repeat(np.eye(p, k=-1)[None], n_frames, axis=0)
    companion[:, 0] = coeffs
    warped = warp_poles(np.linalg.eigvals(companion), cfg.alpha)
    poly = np.zeros((n_frames, p + 1), dtype=np.complex128)
    poly[:, 0] = 1.0
    for j in range(p):
        poly[:, 1 : j + 2] -= warped[:, j : j + 1] * poly[:, : j + 1]

    taps = poly.real[:, :0:-1]
    y = np.zeros((n_frames, p + flen))
    for i in range(flen):
        y[:, p + i] = excitation[:, i] - np.einsum("ij,ij->i", y[:, i : i + p], taps)
    y = y[:, p:]

    energy_in, energy_out = (windowed**2).sum(1), (y**2).sum(1)
    live = (energy_in > 0.0) & (energy_out > 0.0)
    gain = np.sqrt(np.divide(energy_in, energy_out, out=np.ones(n_frames), where=live))
    acc, wsum = np.zeros(xp.size + flen), np.zeros(xp.size + flen)
    formant._overlap_add(acc, y * gain[:, None], hop)
    formant._overlap_add(wsum, np.broadcast_to(window, y.shape), hop)

    denom = wsum[pad : pad + n]
    out = np.where(denom > 1e-6, acc[pad : pad + n] / np.maximum(denom, 1e-6), 0.0)
    return WaveBuffer(np.clip(out, -1.0, 1.0), wav.sample_rate)


def _whole_blocks(blocks):
    return synth_vowel(_samples_for_frames(blocks * formant._BLOCK, ShiftConfig()) / 16000)


THREE_BLOCKS = _whole_blocks(3)


class TestPipelinedBlocks:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_reference_cases_match_serial_bit_for_bit(self, case):
        wav, cfg = REFERENCE_CASES[case]
        out = anonymize_wav(wav, cfg)
        assert np.array_equal(out.samples, _serial_anonymize_wav(wav, cfg).samples)

    @pytest.mark.parametrize("alpha", [0.7, 0.8, 1.0, 1.3])
    def test_three_blocks_match_serial_bit_for_bit(self, alpha):
        cfg = ShiftConfig(alpha=alpha)
        out = anonymize_wav(THREE_BLOCKS, cfg)
        assert np.array_equal(out.samples, _serial_anonymize_wav(THREE_BLOCKS, cfg).samples)

    @pytest.mark.parametrize("blocks", [1, 2, 3, 5])
    def test_calling_thread_solves_queued_blocks_while_the_worker_is_held(self, monkeypatch,
                                                                          blocks):
        wav, cfg = _whole_blocks(blocks), ShiftConfig()
        expected = _serial_anonymize_wav(wav, cfg)
        threads = threading.active_count()
        eigvals, caller = np.linalg.eigvals, threading.current_thread()
        release, solved_here = threading.Event(), []

        def hold_the_first_worker_solve(matrices):
            if threading.current_thread() is caller:
                solved_here.append(len(matrices))
                release.set()
            else:
                # the worker's first solve waits until the calling thread has solved one
                assert release.wait(10), "the calling thread waited instead of solving"
            return eigvals(matrices)

        monkeypatch.setattr(np.linalg, "eigvals", hold_the_first_worker_solve)
        out = anonymize_wav(wav, cfg)
        assert solved_here
        assert np.array_equal(out.samples, expected.samples)
        assert threading.active_count() == threads

    def test_error_in_a_block_the_calling_thread_solves_is_reraised(self, monkeypatch):
        threads = threading.active_count()
        eigvals, caller = np.linalg.eigvals, threading.current_thread()
        release = threading.Event()

        def fail_on_the_calling_thread(matrices):
            if threading.current_thread() is caller:
                release.set()
                raise np.linalg.LinAlgError("eigenvalues did not converge")
            assert release.wait(10), "the calling thread waited instead of solving"
            return eigvals(matrices)

        monkeypatch.setattr(np.linalg, "eigvals", fail_on_the_calling_thread)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            anonymize_wav(THREE_BLOCKS, ShiftConfig())
        assert release.is_set()
        assert threading.active_count() == threads

    def test_worker_error_is_reraised_and_no_thread_is_left(self, monkeypatch):
        threads = threading.active_count()
        anonymize_wav(THREE_BLOCKS, ShiftConfig())
        assert threading.active_count() == threads

        eigvals, calls = np.linalg.eigvals, []

        def fail_on_second_block(matrices):
            calls.append(len(matrices))
            if len(calls) == 2:
                raise np.linalg.LinAlgError("eigenvalues did not converge")
            return eigvals(matrices)

        monkeypatch.setattr(np.linalg, "eigvals", fail_on_second_block)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            anonymize_wav(THREE_BLOCKS, ShiftConfig())
        assert len(calls) >= 2
        assert threading.active_count() == threads


@st.composite
def _small_configs(draw):
    """A config with frames of 8-64 samples and any hop and order it allows."""
    flen = draw(st.integers(8, 64))
    return ShiftConfig(alpha=draw(st.sampled_from([0.7, 0.8, 1.0, 1.3])),
                       lpc_order=draw(st.integers(1, min(11, flen - 1))), frame_len=flen,
                       hop=draw(st.integers(1, flen - 2)))


@st.composite
def _small_shifts(draw):
    """A small config and a signal whose frames span up to four blocks, with a run of zeros."""
    cfg = draw(_small_configs())
    flen, hop = cfg.frame_len, cfg.hop
    # the input length for which the frames fill exactly ``blocks`` blocks
    blocks, frames = draw(st.integers(1, 4)), formant._BLOCK * hop
    n = draw(st.integers(max(1, (blocks - 1) * frames - flen + 1), blocks * frames - flen))
    samples = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, n)
    start = draw(st.integers(0, n))
    samples[start : draw(st.integers(start, n))] = 0.0
    return WaveBuffer(samples, 16000), cfg


def _frames_case(n_frames):
    """A small config and a noise signal of exactly ``n_frames`` frames."""
    cfg = ShiftConfig(lpc_order=20, frame_len=40, hop=13)
    samples = np.random.default_rng(n_frames).uniform(-1.0, 1.0, _samples_for_frames(n_frames, cfg))
    return WaveBuffer(samples, 16000), cfg


@settings(max_examples=100, deadline=None)
@given(case=_small_shifts())
# a last block, or a last half-block batch, of one frame: the draws rarely end there
@example(case=_frames_case(formant._BLOCK + 1))
@example(case=_frames_case(2 * formant._BLOCK + 1))
@example(case=_frames_case(3 * formant._BLOCK + 1))
@example(case=_frames_case(formant._BLOCK // 2 + 1))
def test_blocks_match_one_pass_overlap_add_bit_for_bit(case):
    # the serial reference sums every frame into full-length buffers in one
    # pass, so it checks the sums each block adds into the output buffer
    wav, cfg = case
    assert np.array_equal(anonymize_wav(wav, cfg).samples, _serial_anonymize_wav(wav, cfg).samples)


BLOCK_SIZES = (2, 7, 128)


@st.composite
def _one_frame_last_block(draw):
    """A small config and a noise signal whose last block of 2, 7 or 128 frames holds one frame."""
    cfg = draw(_small_configs())
    block = draw(st.sampled_from(BLOCK_SIZES))
    # the fewest whole blocks for which one more frame leaves the input a sample
    least = max(1, -(-(cfg.frame_len + 1 - cfg.hop) // (block * cfg.hop)))
    n_frames = draw(st.integers(least, least + 2)) * block + 1
    n = _samples_for_frames(n_frames, cfg)
    samples = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, n)
    return WaveBuffer(samples, 16000), cfg


@settings(deadline=None)
@given(case=_one_frame_last_block())
@example(case=REFERENCE_CASES["interior-zeros"])
@example(case=REFERENCE_CASES["shorter-than-frame"])
@example(case=REFERENCE_CASES["length-not-hop-multiple"])
@example(case=REFERENCE_CASES["hop-frame-len-minus-2"])
def test_block_size_changes_no_output_bit(case):
    wav, cfg = case
    n_frames = -(-(cfg.frame_len + len(wav)) // cfg.hop)
    expected = _serial_anonymize_wav(wav, cfg).samples
    # the last size puts every frame in one block
    for block in (*BLOCK_SIZES, n_frames):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formant, "_BLOCK", block)
            assert np.array_equal(anonymize_wav(wav, cfg).samples, expected), block


def test_peak_memory_is_the_output_and_one_block():
    vowel, cfg = synth_vowel(0.5), ShiftConfig()
    # one block's working set, counted in frame matrices of one block
    block_bytes = 12 * formant._BLOCK * cfg.frame_len * 8
    peaks, outputs = [], []
    for seconds in (15, 120):
        wav = WaveBuffer(np.tile(vowel.samples, 2 * seconds), vowel.sample_rate)
        # the input is made before tracing starts: the peak is what the call adds
        tracemalloc.start()
        try:
            out = anonymize_wav(wav, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        outputs.append(out.samples.nbytes)
        assert peaks[-1] <= outputs[-1] + block_bytes
    # a longer input adds its output and nothing that grows with it
    assert peaks[1] - peaks[0] <= 1.1 * (outputs[1] - outputs[0])


def _wav_header(fmt_tag, bits, data_bytes, rate=16000):
    """A mono RIFF/WAVE header whose data chunk declares ``data_bytes``."""
    fmt = struct.pack("<HHIIHH", fmt_tag, 1, rate, rate * bits // 8, bits // 8, bits)
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", data_bytes)
    return b"RIFF" + struct.pack("<I", len(body) + data_bytes) + body


class TestWavIo:
    def test_round_trip(self, tmp_path, vowel):
        path = tmp_path / "v.wav"
        write_wav(vowel, path)
        loaded = read_wav(path)
        assert loaded.sample_rate == vowel.sample_rate
        assert len(loaded) == len(vowel)
        # 16-bit quantization bound
        assert np.max(np.abs(loaded.samples - vowel.samples)) <= 1.0 / 32768.0

    def test_loud_samples_survive_a_read_write_round_trip(self, tmp_path):
        import wave

        pcm = np.array([16385, 30000, 32767, -32768, -20000], dtype="<i2")
        first, second = tmp_path / "f.wav", tmp_path / "g.wav"
        with wave.open(str(first), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(pcm.tobytes())
        write_wav(read_wav(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_full_scale_is_clipped_to_the_int16_range(self, tmp_path):
        path = tmp_path / "full.wav"
        write_wav(WaveBuffer(np.array([1.0, -1.0, 0.5]), 16000), path)
        assert np.array_equal(np.rint(read_wav(path).samples * 32768.0), [32767, -32768, 16384])

    def test_write_read_write_is_stable(self, tmp_path, vowel):
        first = tmp_path / "a.wav"
        second = tmp_path / "b.wav"
        write_wav(vowel, first)
        write_wav(read_wav(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_write_into_a_missing_directory_raises_only_its_error(self, tmp_path, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with pytest.raises(FileNotFoundError):
            write_wav(WaveBuffer(np.zeros(3), 16000), tmp_path / "missing" / "out.wav")
        assert unraisable == []

    @pytest.mark.parametrize(
        "blob, detail",
        [
            (b"not a wav file at all", "not a PCM WAV file: file does not start with RIFF id"),
            (b"RIFF", "not a PCM WAV file: truncated RIFF chunk"),
            (_wav_header(3, 32, 8) + np.zeros(2, "<f4").tobytes(),
             "not a PCM WAV file: unknown format: 3"),
            (_wav_header(1, 16, 8) + b"\x01\x00\x02\x00\x03", "data chunk ends mid-sample"),
            (_wav_header(1, 16, 2, rate=0) + b"\x01\x00", "sample rate must be positive, got 0"),
            (_wav_header(1, 16, 100) + bytes(20), "data chunk holds 10 of 50 declared samples"),
        ],
        ids=["non-riff", "riff-only", "float", "cut-mid-sample", "zero-rate", "cut-on-sample"],
    )
    def test_malformed_file_names_its_path(self, tmp_path, blob, detail):
        path = tmp_path / "bad.wav"
        path.write_bytes(blob)
        with pytest.raises(ValueError) as info:
            read_wav(path)
        assert str(info.value) == f"{path}: {detail}"

    def test_rejects_stereo(self, tmp_path):
        import wave

        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(b"\0\0\0\0" * 100)
        with pytest.raises(ValueError, match="mono"):
            read_wav(path)
