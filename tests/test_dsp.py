import numpy as np
import pytest
import scipy.fft
from hypothesis import given
from hypothesis import strategies as st

from specjoint import (
    ConfigError,
    Spectrogram,
    StftConfig,
    Waveform,
    dct_matrix,
    istft,
    magnitude_phase,
    stft,
    window,
)
from specjoint.dsp import frame_signal, min_samples, overlap_add
from oracles import loop_frames, loop_overlap_add, naive_dft


class TestWaveform:
    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            Waveform(np.zeros((2, 3)), 16000)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            Waveform(np.array([0.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            Waveform(np.zeros(4), 0)

    def test_len_and_duration(self):
        w = Waveform(np.zeros(8000), 16000)
        assert len(w) == 8000


class TestWindow:
    def test_hann_periodic(self):
        # 0.5 - 0.5 cos(2 pi k / N) at N=4
        assert window("hann", 4) == pytest.approx([0.0, 0.5, 1.0, 0.5])

    def test_hamming_periodic(self):
        assert window("hamming", 4) == pytest.approx([0.08, 0.54, 1.0, 0.54])

    def test_rect(self):
        assert np.array_equal(window("rect", 5), np.ones(5))

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown window"):
            window("blackman", 16)


class TestStftConfig:
    def test_defaults_give_257_bins(self):
        assert StftConfig().n_bins == 257

    def test_hop_larger_than_frame_rejected(self):
        with pytest.raises(ConfigError, match="hop"):
            StftConfig(frame_len=256, hop=512)

    def test_fft_smaller_than_frame_rejected(self):
        with pytest.raises(ConfigError, match="frame_len"):
            StftConfig(frame_len=512, hop=256, fft_size=256)

    def test_non_power_of_two_fft_rejected(self):
        with pytest.raises(ConfigError, match="power of two"):
            StftConfig(frame_len=300, hop=150, fft_size=300)


class TestStft:
    def test_zero_signal_all_zero_bins(self, stft_config):
        spec = stft(Waveform(np.zeros(2048), 16000), stft_config)
        assert np.all(spec.frames == 0)

    def test_frame_count_formula(self, stft_config):
        def n_frames(n_samples):
            return stft(Waveform(np.ones(n_samples), 16000), stft_config).frames.shape[0]

        assert min_samples(1, stft_config) == 512
        for k in (1, 2, 7):
            assert n_frames(min_samples(k, stft_config)) == k
        for k in (2, 7):
            assert n_frames(min_samples(k, stft_config) - 1) == k - 1
        spec = stft(Waveform(np.ones(16000), 16000), stft_config)
        assert spec.frames.shape[0] == 1 + (16000 - 512) // 256

    def test_too_short_signal_rejected(self, stft_config):
        with pytest.raises(ValueError, match="shorter than one frame"):
            stft(Waveform(np.zeros(100), 16000), stft_config)

    def test_pure_cosine_concentrates_in_its_bin(self):
        config = StftConfig(frame_len=512, hop=512, window="rect", fft_size=512)
        k = 32
        n = np.arange(512)
        spec = stft(Waveform(np.cos(2 * np.pi * k * n / 512), 16000), config)
        power = np.abs(spec.frames[0]) ** 2
        assert power[k] == pytest.approx((512 / 2) ** 2, rel=1e-10)
        others = np.delete(power, k)
        assert np.max(others) <= 1e-10 * power[k]

    def test_matches_naive_dft(self, rng):
        config = StftConfig(frame_len=32, hop=16, window="hann", fft_size=64)
        x = rng.standard_normal(96)
        spec = stft(Waveform(x, 16000), config)
        win = config.analysis_window()
        for i in range(spec.frames.shape[0]):
            frame = x[i * 16 : i * 16 + 32] * win
            expected = naive_dft(frame, 64)
            assert spec.frames[i] == pytest.approx(expected, abs=1e-9)

    def test_parseval_per_frame(self, rng):
        config = StftConfig(frame_len=64, hop=32, window="hamming", fft_size=64)
        x = rng.standard_normal(256)
        spec = stft(Waveform(x, 16000), config)
        win = config.analysis_window()
        for i in range(spec.frames.shape[0]):
            frame = x[i * 32 : i * 32 + 64] * win
            time_energy = np.sum(frame**2)
            power = np.abs(spec.frames[i]) ** 2
            spectral_energy = (2 * np.sum(power) - power[0] - power[-1]) / 64
            assert spectral_energy == pytest.approx(time_energy, rel=1e-9)


class TestIstft:
    def test_silence_roundtrip(self, stft_config):
        out = istft(stft(Waveform(np.zeros(4096), 16000), stft_config), 4096)
        assert np.all(out.samples == 0)

    def test_hann_half_overlap_roundtrip(self, rng, stft_config):
        x = rng.standard_normal(16000)
        out = istft(stft(Waveform(x, 16000), stft_config), 16000)
        interior = slice(512, -512)
        err = np.linalg.norm(out.samples[interior] - x[interior]) / np.linalg.norm(x[interior])
        assert err < 1e-10

    def test_hamming_quarter_hop_roundtrip(self, rng):
        config = StftConfig(frame_len=512, hop=128, window="hamming", fft_size=512)
        x = rng.standard_normal(8000)
        out = istft(stft(Waveform(x, 16000), config), 8000)
        interior = slice(512, -512)
        err = np.linalg.norm(out.samples[interior] - x[interior]) / np.linalg.norm(x[interior])
        assert err < 1e-10

    def test_single_frame_rect_exact(self, rng):
        config = StftConfig(frame_len=256, hop=256, window="rect", fft_size=256)
        x = rng.standard_normal(256)
        out = istft(stft(Waveform(x, 16000), config), 256)
        assert out.samples == pytest.approx(x, abs=1e-12)

    def test_target_len_pads_and_truncates(self, rng, stft_config):
        x = rng.standard_normal(2048)
        spec = stft(Waveform(x, 16000), stft_config)
        assert len(istft(spec, 1000)) == 1000
        padded = istft(spec, 5000)
        assert len(padded) == 5000
        assert np.all(padded.samples[2048:] == 0)


def edge_rows(n: int, frame_len: int, seed: int) -> np.ndarray:
    """Rows with magnitudes from 1e-8 to 1e8, both signs and some -0.0 entries."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, frame_len)) * 10.0 ** rng.uniform(-8, 8, (n, frame_len))
    rows[rng.random((n, frame_len)) < 0.1] = -0.0
    return rows


# (frame_len, hop) with 0 < hop <= frame_len.
_FRAMING = st.integers(1, 600).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))
_SEED = st.integers(0, 2**32 - 1)


class TestFraming:
    """frame_signal and overlap_add against the one-frame-at-a-time loops."""

    @pytest.mark.parametrize(
        "frame_len,hop", [(512, 256), (512, 128), (400, 160), (512, 512), (512, 100)]
    )
    def test_overlap_add_matches_loop_bytes(self, frame_len, hop):
        rows = edge_rows(40, frame_len, seed=frame_len + hop)
        assert overlap_add(rows, hop).tobytes() == loop_overlap_add(rows, hop).tobytes()

    @given(_FRAMING, st.integers(0, 40), _SEED)
    def test_overlap_add_matches_loop_any_shape(self, framing, n, seed):
        frame_len, hop = framing
        rows = edge_rows(n, frame_len, seed)
        assert overlap_add(rows, hop).tobytes() == loop_overlap_add(rows, hop).tobytes()

    @given(_FRAMING, st.integers(0, 5000), _SEED)
    def test_frame_signal_matches_loop(self, framing, length, seed):
        frame_len, hop = framing
        x = np.random.default_rng(seed).standard_normal(length)
        rows, expected = frame_signal(x, frame_len, hop), loop_frames(x, frame_len, hop)
        assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()

    @given(st.integers(512, 6000), _SEED)
    def test_istft_inverts_stft(self, length, seed):
        config = StftConfig()
        x = np.random.default_rng(seed).standard_normal(length)
        spec = stft(Waveform(x, 16000), config)
        out = istft(spec, length).samples
        end = min_samples(spec.frames.shape[0], config)
        # The Hann window is zero at sample 0, and no frame covers the
        # dropped partial frame: both stay at zero.
        assert out[0] == 0.0 and np.all(out[end:] == 0.0)
        assert np.max(np.abs(out[1:end] - x[1:end])) < 1e-8


class TestMagnitudePhase:
    def test_pythagorean_value(self):
        config = StftConfig(frame_len=4, hop=4, window="rect", fft_size=4)
        frames = np.zeros((1, 3), dtype=np.complex128)
        frames[0, 1] = 3 + 4j
        mag, phase = magnitude_phase(Spectrogram(frames, config, 16000))
        assert mag[0, 1] == pytest.approx(5.0)
        assert phase[0, 1] == pytest.approx(np.arctan2(4, 3))

    def test_zero_gets_zero_phase(self):
        config = StftConfig(frame_len=4, hop=4, window="rect", fft_size=4)
        mag, phase = magnitude_phase(Spectrogram(np.zeros((2, 3), dtype=complex), config, 16000))
        assert np.all(mag == 0)
        assert np.all(phase == 0)

    def test_recombination_identity(self, rng, stft_config):
        spec = stft(Waveform(rng.standard_normal(4096), 16000), stft_config)
        mag, phase = magnitude_phase(spec)
        rebuilt = Spectrogram(mag * np.exp(1j * phase), stft_config, 16000)
        assert np.max(np.abs(rebuilt.frames - spec.frames)) < 1e-12


class TestDctMatrix:
    def test_n1(self):
        assert dct_matrix(1) == pytest.approx(np.array([[1.0]]))

    @pytest.mark.parametrize("n", [1, 13, 40, 41])
    def test_orthonormal(self, n):
        m = dct_matrix(n)
        assert m @ m.T == pytest.approx(np.eye(n), abs=1e-12)

    def test_constant_vector_first_coefficient(self):
        # Row 0 is sqrt(1/40) everywhere, so a constant vector of ones maps
        # to sqrt(40) in the first coefficient and 0 elsewhere.
        coeffs = dct_matrix(40) @ np.ones(40)
        assert coeffs[0] == pytest.approx(np.sqrt(40.0))
        assert np.max(np.abs(coeffs[1:])) < 1e-12

    def test_matches_scipy_convention(self, rng):
        x = rng.standard_normal(41)
        assert dct_matrix(41) @ x == pytest.approx(
            scipy.fft.dct(x, type=2, norm="ortho"), abs=1e-12
        )

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            dct_matrix(0)
