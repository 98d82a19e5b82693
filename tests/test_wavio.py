import wave

import numpy as np
import pytest

from specjoint import AudioFormatError, Waveform, read_wav, write_wav


class TestRoundTrip:
    def test_exact_for_quantized_samples(self, tmp_path, rng):
        samples = np.round(rng.uniform(-1, 1, 1000) * 32767) / 32767.0
        write_wav(tmp_path / "x.wav", Waveform(samples, 16000))
        back = read_wav(tmp_path / "x.wav")
        assert back.sample_rate == 16000
        assert back.samples == pytest.approx(samples, abs=1e-12)

    def test_quantization_error_bounded(self, tmp_path, rng):
        samples = rng.uniform(-1, 1, 1000)
        write_wav(tmp_path / "x.wav", Waveform(samples, 16000))
        back = read_wav(tmp_path / "x.wav")
        assert np.max(np.abs(back.samples - samples)) <= 0.5 / 32767.0 + 1e-12

    def test_out_of_range_samples_clipped(self, tmp_path):
        write_wav(tmp_path / "hot.wav", Waveform(np.array([2.0, -2.0, 0.0]), 16000))
        back = read_wav(tmp_path / "hot.wav")
        assert back.samples == pytest.approx([1.0, -1.0, 0.0])

    def test_creates_parent_dirs(self, tmp_path):
        target = tmp_path / "a" / "b" / "x.wav"
        write_wav(target, Waveform(np.zeros(10), 16000))
        assert target.exists()


class TestValidation:
    def test_rate_mismatch(self, tmp_path):
        write_wav(tmp_path / "x.wav", Waveform(np.zeros(10), 8000))
        with pytest.raises(AudioFormatError, match="sample rate 8000"):
            read_wav(tmp_path / "x.wav", expected_rate=16000)

    def test_rate_accepted_when_matching(self, tmp_path):
        write_wav(tmp_path / "x.wav", Waveform(np.zeros(10), 8000))
        assert read_wav(tmp_path / "x.wav", expected_rate=8000).sample_rate == 8000

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(2)
            handle.setsampwidth(2)
            handle.setframerate(16000)
            handle.writeframes(b"\x00\x00" * 20)
        with pytest.raises(AudioFormatError, match="expected mono"):
            read_wav(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "8bit.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(1)
            handle.setframerate(16000)
            handle.writeframes(b"\x00" * 20)
        with pytest.raises(AudioFormatError, match="16-bit"):
            read_wav(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(AudioFormatError, match="not a valid PCM WAV"):
            read_wav(path)

    @pytest.mark.parametrize("keep", [0, 4, 20], ids=["empty", "riff", "cut-fmt"])
    def test_file_ending_inside_header_rejected(self, tmp_path, keep):
        path = tmp_path / "cut.wav"
        write_wav(path, Waveform(np.zeros(160), 16000))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(AudioFormatError, match=f"{path}: not a valid PCM WAV file"):
            read_wav(path)

    def test_seven_bytes_rejected(self, tmp_path):
        path = tmp_path / "short.wav"
        path.write_bytes(b"garbage")
        with pytest.raises(AudioFormatError, match=f"{path}: not a valid PCM WAV file"):
            read_wav(path)

    def test_data_ending_mid_sample_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(path, Waveform(np.zeros(16000), 16000))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(AudioFormatError, match=f"{path}: sample data ends mid-sample"):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "absent.wav")
