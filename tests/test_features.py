import numpy as np
import pytest
import scipy.fft

from specjoint import (
    ConfigError,
    FeatureKind,
    FeatureMatrix,
    IbmConfig,
    Spectrogram,
    StftConfig,
    compute_ibm,
    hz_to_mel,
    lps,
    mel_bank,
    mel_to_hz,
    mfcc,
    splice,
    stft,
)

ZERO_LPS = np.log(1e-12)  # -27.63102111592855
SMALL = StftConfig(frame_len=8, hop=4, fft_size=8)


def small_spec(frames):
    return Spectrogram(np.asarray(frames, dtype=np.complex128), SMALL, 16000)


class TestFeatureMatrix:
    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            FeatureMatrix(np.zeros(4), FeatureKind.LPS)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            FeatureMatrix(np.array([[np.nan]]), FeatureKind.LPS)

    def test_shape_properties(self):
        m = FeatureMatrix(np.zeros((3, 7)), FeatureKind.MFCC)
        assert m.n_frames == 3 and m.dims == 7


class TestLps:
    def test_hand_values(self):
        spec = small_spec([[2.0, 3.0 + 4.0j, 0.0, 1.0j, -1.0]])
        out = lps(spec)
        assert out.kind == FeatureKind.LPS
        expected = [np.log(4.0), np.log(25.0), ZERO_LPS, 0.0, 0.0]
        assert out.data[0] == pytest.approx(expected, abs=1e-15)

    def test_zero_spectrum_floor(self):
        out = lps(small_spec(np.zeros((2, 5))))
        assert np.all(out.data == pytest.approx(-27.63102111592855, abs=1e-12))


class TestMelScale:
    def test_mel_of_1khz(self):
        assert hz_to_mel(1000.0) == pytest.approx(1000.0, abs=0.1)

    def test_zero_maps_to_zero(self):
        assert hz_to_mel(0.0) == 0.0
        assert mel_to_hz(0.0) == 0.0

    def test_roundtrip(self):
        freqs = np.array([50.0, 440.0, 1000.0, 4000.0, 7999.0])
        assert mel_to_hz(hz_to_mel(freqs)) == pytest.approx(freqs, rel=1e-12)

    def test_monotone(self):
        mels = hz_to_mel(np.linspace(0.0, 8000.0, 100))
        assert np.all(np.diff(mels) > 0.0)


class TestMelBank:
    def test_shape_and_range(self):
        bank = mel_bank()
        assert bank.filters.shape == (40, 257)
        assert np.all(bank.filters >= 0.0)
        assert np.all(bank.filters <= 1.0)
        assert np.all(bank.filters.max(axis=1) > 0.0)

    def test_centers_equally_spaced_in_mel(self):
        bank = mel_bank(n_mels=10)
        # The peak of each triangle sits at an interior edge; those edges are
        # equally spaced on the mel scale.
        edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), 12))
        bin_freqs = np.arange(257) * (16000 / 512)
        for i in range(10):
            peak_bin = np.argmax(bank.filters[i])
            assert abs(bin_freqs[peak_bin] - edges[i + 1]) <= 16000 / 512

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError, match="n_mels >= 1"):
            mel_bank(n_mels=0)

    def test_rejects_bad_band_edges(self):
        with pytest.raises(ConfigError, match="f_low < f_high"):
            mel_bank(f_low=4000.0, f_high=1000.0)
        with pytest.raises(ConfigError, match="f_low < f_high"):
            mel_bank(f_high=9000.0)

    def test_rejects_unresolvable_filters(self):
        with pytest.raises(ConfigError, match="no positive entry"):
            mel_bank(n_mels=40, fft_size=64)


class TestMfcc:
    def test_dims(self, speech_like, stft_config):
        spec = stft(speech_like, stft_config)
        out = mfcc(spec, mel_bank())
        assert out.kind == FeatureKind.MFCC
        assert out.dims == 41
        assert out.n_frames == spec.frames.shape[0]

    def test_matches_scipy_dct_route(self, speech_like, stft_config):
        spec = stft(speech_like, stft_config)
        bank = mel_bank()
        out = mfcc(spec, bank)
        power = np.abs(spec.frames) ** 2
        log_mel = np.log(np.maximum(power @ bank.filters.T, 1e-12))
        expected = scipy.fft.dct(log_mel, type=2, norm="ortho", axis=1)
        assert out.data[:, :40] == pytest.approx(expected, abs=1e-9)

    def test_energy_matches_windowed_frame_power(self, speech_like, stft_config):
        # Parseval: the spectral energy term equals the time-domain power of
        # the windowed frame.
        spec = stft(speech_like, stft_config)
        out = mfcc(spec, mel_bank())
        win = stft_config.analysis_window()
        for i in (0, 3, spec.frames.shape[0] - 1):
            frame = speech_like.samples[i * stft_config.hop :][: stft_config.frame_len]
            direct = np.log(max(np.sum((frame * win) ** 2), 1e-12))
            assert out.data[i, -1] == pytest.approx(direct, rel=1e-10)

    def test_rejects_mismatched_bank(self, speech_like, stft_config):
        spec = stft(speech_like, stft_config)
        bank = mel_bank(fft_size=1024)
        with pytest.raises(ValueError, match="mel bank built for 513 bins"):
            mfcc(spec, bank)


class TestIbm:
    def test_strictly_greater_wins(self):
        clean = small_spec([[2.0, 1.0, 1.0, 0.5, 0.0]])
        noise = small_spec([[1.0, 1.0, 2.0, 0.1, 1.0]])
        out = compute_ibm(clean, noise, IbmConfig())
        assert out.kind == FeatureKind.IBM
        # Equal powers fail the strict comparison.
        assert out.data.tolist() == [[1.0, 0.0, 0.0, 1.0, 0.0]]

    def test_threshold_shifts_boundary(self):
        clean = small_spec([[2.0, 2.0, 2.0, 2.0, 2.0]])
        noise = small_spec([[1.0, 1.0, 1.0, 1.0, 1.0]])
        # Power ratio is 4 (= 6.02 dB); a 7 dB threshold flips every bin off.
        high = compute_ibm(clean, noise, IbmConfig(local_snr_threshold=7.0))
        low = compute_ibm(clean, noise, IbmConfig(local_snr_threshold=6.0))
        assert np.all(high.data == 0.0)
        assert np.all(low.data == 1.0)

    def test_zero_noise_gives_speech(self):
        clean = small_spec([[1.0, 0.0, 1e-5, 0.0, 1.0]])
        noise = small_spec(np.zeros((1, 5)))
        out = compute_ibm(clean, noise, IbmConfig())
        # Noise power is floored, so any audible clean bin wins; silent
        # clean bins lose.
        assert out.data.tolist() == [[1.0, 0.0, 1.0, 0.0, 1.0]]

    def test_rejects_shape_mismatch(self):
        clean = small_spec(np.zeros((2, 5)))
        noise = small_spec(np.zeros((3, 5)))
        with pytest.raises(ValueError, match="shape mismatch"):
            compute_ibm(clean, noise, IbmConfig())


class TestSplice:
    def test_tau_zero_is_identity(self, rng):
        data = rng.standard_normal((5, 3))
        assert np.array_equal(splice(data, 0), data)

    def test_tau_one_hand_case(self):
        data = np.array([[0.0], [1.0], [2.0]])
        out = splice(data, 1)
        assert out.tolist() == [[0, 0, 1], [0, 1, 2], [1, 2, 2]]

    def test_edges_replicate(self):
        data = np.array([[1.0, 10.0], [2.0, 20.0]])
        out = splice(data, 2)
        assert out.shape == (2, 10)
        assert out[0].tolist() == [1, 10, 1, 10, 1, 10, 2, 20, 2, 20]
        assert out[1].tolist() == [1, 10, 1, 10, 2, 20, 2, 20, 2, 20]

    def test_width_formula(self, rng):
        data = rng.standard_normal((9, 4))
        assert splice(data, 3).shape == (9, 4 * 7)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError, match="tau must be >= 0"):
            splice(np.zeros((2, 2)), -1)
