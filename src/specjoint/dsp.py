"""Windowed STFT analysis/synthesis and elementary transforms.

All operations are pure functions on immutable inputs and are safe to call
from multiple threads.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShortSignalError

DEFAULT_SAMPLE_RATE = 16000

WINDOW_NAMES = ("hann", "hamming", "rect")

# Minimum per-sample synthesis-window coverage for exact inversion.
_COVERAGE_EPS = 1e-10


@dataclass(frozen=True)
class Waveform:
    """Mono PCM samples (nominal range [-1, 1]) with their sample rate."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains NaN or Inf samples")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate


def window(name: str, length: int) -> np.ndarray:
    """Periodic analysis window of the given length."""
    n = np.arange(length, dtype=np.float64)
    if name == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)
    if name == "hamming":
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / length)
    if name == "rect":
        return np.ones(length, dtype=np.float64)
    raise ConfigError(f"unknown window {name!r}; expected one of {WINDOW_NAMES}")


@dataclass(frozen=True)
class StftConfig:
    """Framing parameters; fft_size/2+1 is the one-sided bin count."""

    frame_len: int = 512  # 32 ms at 16 kHz
    hop: int = 256  # 50% overlap
    window: str = "hann"
    fft_size: int = 512  # 257 one-sided bins

    def __post_init__(self):
        if not (0 < self.hop <= self.frame_len <= self.fft_size):
            raise ConfigError(
                f"need 0 < hop <= frame_len <= fft_size, got "
                f"hop={self.hop} frame_len={self.frame_len} fft_size={self.fft_size}"
            )
        if self.fft_size & (self.fft_size - 1) != 0:
            raise ConfigError(f"fft_size must be a power of two, got {self.fft_size}")
        if self.window not in WINDOW_NAMES:
            raise ConfigError(f"unknown window {self.window!r}; expected one of {WINDOW_NAMES}")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    def analysis_window(self) -> np.ndarray:
        return window(self.window, self.frame_len)


@dataclass(frozen=True)
class Spectrogram:
    """Complex one-sided STFT frames, one row per frame."""

    frames: np.ndarray
    config: StftConfig = field(default_factory=StftConfig)
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.complex128)
        if frames.ndim != 2 or frames.shape[1] != self.config.n_bins:
            raise ValueError(
                f"spectrogram must be n_frames x {self.config.n_bins}, got shape {frames.shape}"
            )
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_bins(self) -> int:
        return self.frames.shape[1]


def frame_count(n_samples: int, config: StftConfig) -> int:
    """Frames produced by stft(); the trailing partial frame is dropped."""
    if n_samples < config.frame_len:
        return 0
    return 1 + (n_samples - config.frame_len) // config.hop


def min_samples(n_frames: int, config: StftConfig) -> int:
    """Fewest samples that stft() turns into n_frames frames."""
    return config.frame_len + (n_frames - 1) * config.hop


def frame_signal(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Read-only view of rows of frame_len samples every hop samples from
    sample 0; a trailing partial frame is dropped."""
    if len(x) < frame_len:
        return np.empty((0, frame_len), dtype=x.dtype)
    return np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]


def overlap_add(rows: np.ndarray, hop: int) -> np.ndarray:
    """Sum of the rows placed hop samples apart, as frame_signal() took them.

    Row i's block k of hop samples lands in output block i + k, so adding
    blocks from last to first adds each sample's terms in row order: the
    bits of adding the rows one at a time.
    """
    n, frame_len = rows.shape
    n_blocks = -(-frame_len // hop)
    blocks = np.zeros((n, n_blocks * hop))
    blocks[:, :frame_len] = rows
    blocks = blocks.reshape(n, n_blocks, hop)
    out = np.zeros((n + n_blocks - 1, hop))
    for k in reversed(range(n_blocks)):
        out[k : k + n] += blocks[:, k]
    return out.reshape(-1)[: (n - 1) * hop + frame_len]


def stft(waveform: Waveform, config: StftConfig = StftConfig()) -> Spectrogram:
    """Short-time Fourier transform, one-sided bins.

    Frames start at sample 0 with no padding; a trailing partial frame is
    dropped so golden outputs stay stable.
    """
    x = waveform.samples
    if len(x) < config.frame_len:
        raise ShortSignalError(
            f"signal of {len(x)} samples is shorter than one frame ({config.frame_len})"
        )
    frames = frame_signal(x, config.frame_len, config.hop) * config.analysis_window()
    spec = np.fft.rfft(frames, n=config.fft_size, axis=1)
    return Spectrogram(spec, config, waveform.sample_rate)


def istft(spec: Spectrogram, target_len: int) -> Waveform:
    """Weighted overlap-add inverse of stft().

    Each inverse frame is re-weighted by the synthesis (= analysis) window
    and the sum is normalized per sample by the accumulated squared window,
    so any config with gap-free coverage inverts exactly. Samples with no
    window coverage (e.g. the zeros of a Hann window at hop == frame_len)
    are left at zero. Output is truncated or zero-padded to target_len.
    """
    config = spec.config
    win = config.analysis_window()
    frames = np.fft.irfft(spec.frames, n=config.fft_size, axis=1)[:, : config.frame_len]
    out = overlap_add(frames * win, config.hop)
    norm = overlap_add(np.broadcast_to(win * win, frames.shape), config.hop)
    out = np.divide(out, norm, out=np.zeros_like(out), where=norm > _COVERAGE_EPS)
    return Waveform(np.pad(out[:target_len], (0, max(0, target_len - len(out)))), spec.sample_rate)


def magnitude_phase(spec: Spectrogram) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise |z| and arg(z), with arg(0) := 0 so recombination is total."""
    mag = np.abs(spec.frames)
    phase = np.angle(spec.frames)
    phase = np.where(mag == 0.0, 0.0, phase)
    return mag, phase


def combine_magnitude_phase(
    magnitudes: np.ndarray, phases: np.ndarray, config: StftConfig, sample_rate: int
) -> Spectrogram:
    """Rebuild a Spectrogram from magnitude.e^{i.phase}."""
    if magnitudes.shape != phases.shape:
        raise ValueError(f"shape mismatch: {magnitudes.shape} vs {phases.shape}")
    return Spectrogram(magnitudes * np.exp(1j * phases), config, sample_rate)


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix (full square, no dimension reduction)."""
    if n < 1:
        raise ValueError(f"dct_matrix needs n >= 1, got {n}")
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    mat = np.cos(np.pi * (2 * m + 1) * k / (2 * n))
    mat *= np.sqrt(2.0 / n)
    mat[0, :] = np.sqrt(1.0 / n)
    return mat
