"""Feature extraction: log-power spectra, MFCC, ideal binary masks, splicing."""

import enum
from dataclasses import dataclass

import numpy as np

from .dsp import DEFAULT_SAMPLE_RATE, Spectrogram, StftConfig, dct_matrix
from .errors import ConfigError

# Floor applied to every power before a log; keeps features finite.
POWER_FLOOR = 1e-12

DEFAULT_N_MELS = 40
DEFAULT_F_LOW = 0.0
DEFAULT_F_HIGH = 8000.0
DEFAULT_CONTEXT = 3  # frames each side -> 7-frame input window


class FeatureKind(enum.IntEnum):
    """Feature-kind tag; the integer value is the on-disk container code."""

    LPS = 0
    MFCC = 1
    IBM = 2


@dataclass(frozen=True)
class FeatureMatrix:
    """Frames x dims real matrix tagged with what it holds."""

    data: np.ndarray
    kind: FeatureKind

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("feature matrix contains NaN or Inf")
        object.__setattr__(self, "data", data)

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class IbmConfig:
    """Local-SNR threshold (dB) separating speech- from noise-dominant bins."""

    local_snr_threshold: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.local_snr_threshold):
            raise ConfigError("IBM threshold must be finite")


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelBank:
    """Triangular mel filters evaluated at the one-sided FFT bin frequencies."""

    filters: np.ndarray


def mel_bank(
    n_mels: int = DEFAULT_N_MELS,
    fft_size: int = StftConfig.fft_size,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
    f_low: float = DEFAULT_F_LOW,
    f_high: float = DEFAULT_F_HIGH,
) -> MelBank:
    """Build triangular filters with centers equally spaced on the mel scale."""
    if n_mels < 1:
        raise ConfigError(f"need n_mels >= 1, got {n_mels}")
    if not (0.0 <= f_low < f_high <= sample_rate / 2.0):
        raise ConfigError(
            f"need 0 <= f_low < f_high <= sample_rate/2, got "
            f"f_low={f_low} f_high={f_high} rate={sample_rate}"
        )
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(f_low), hz_to_mel(f_high), n_mels + 2))
    bin_freqs = np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)
    filters = np.zeros((n_mels, fft_size // 2 + 1))
    for i in range(n_mels):
        left, center, right = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        filters[i] = np.clip(np.minimum(rising, falling), 0.0, None)
        if not np.any(filters[i] > 0.0):
            raise ConfigError(
                f"mel filter {i} has no positive entry; too many filters for "
                f"fft_size={fft_size} at {sample_rate} Hz"
            )
    return MelBank(filters)


def lps(spec: Spectrogram) -> FeatureMatrix:
    """Log-power spectrum: log(max(|z|^2, floor)) per bin."""
    power = np.abs(spec.frames) ** 2
    return FeatureMatrix(np.log(np.maximum(power, POWER_FLOOR)), FeatureKind.LPS)


def mfcc(spec: Spectrogram, bank: MelBank) -> FeatureMatrix:
    """Full-dimension MFCC plus a log-energy dimension.

    All n_mels DCT coefficients of the log mel power spectrum are kept (no
    dimension reduction), and the log of the windowed frame power (computed
    from the one-sided spectrum via Parseval) is appended, so dims = n_mels+1.
    """
    if bank.filters.shape[1] != spec.n_bins:
        raise ValueError(
            f"mel bank built for {bank.filters.shape[1]} bins, spectrogram has {spec.n_bins}"
        )
    power = np.abs(spec.frames) ** 2
    mel_power = power @ bank.filters.T
    log_mel = np.log(np.maximum(mel_power, POWER_FLOOR))
    coeffs = log_mel @ dct_matrix(bank.filters.shape[0]).T
    # One-sided Parseval: interior bins count twice, DC and Nyquist once.
    fft_size = spec.config.fft_size
    frame_power = (2.0 * power.sum(axis=1) - power[:, 0] - power[:, -1]) / fft_size
    energy = np.log(np.maximum(frame_power, POWER_FLOOR))
    return FeatureMatrix(np.column_stack([coeffs, energy]), FeatureKind.MFCC)


def compute_ibm(clean: Spectrogram, noise: Spectrogram, cfg: IbmConfig) -> FeatureMatrix:
    """Ideal binary mask: 1 where the local SNR strictly exceeds the threshold.

    Needs the clean and noise spectrograms of the exact mixture components
    (same shape and offsets); noise power is floored to avoid division by zero.
    """
    if clean.frames.shape != noise.frames.shape:
        raise ValueError(f"shape mismatch: {clean.frames.shape} vs {noise.frames.shape}")
    clean_power = np.abs(clean.frames) ** 2
    noise_power = np.maximum(np.abs(noise.frames) ** 2, POWER_FLOOR)
    # local_snr_db > threshold  <=>  clean_power > noise_power * 10^(threshold/10)
    mask = clean_power > noise_power * 10.0 ** (cfg.local_snr_threshold / 10.0)
    return FeatureMatrix(mask.astype(np.float64), FeatureKind.IBM)


def splice(data: np.ndarray, tau: int) -> np.ndarray:
    """Concatenate frames n-tau..n+tau per row, replicating edge frames.

    Output has dims*(2*tau+1) columns and the same row count as the input.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    data = np.asarray(data)
    n = data.shape[0]
    index = np.clip(np.arange(n)[:, None] + np.arange(-tau, tau + 1)[None, :], 0, n - 1)
    return data[index].reshape(n, -1)
