"""Synthetic voice-like and noise signals for demos and small test corpora.

Real speech corpora are large and licensed; these generators produce short
harmonic "voices" with formant-shaped envelopes and a few stationary noise
types, enough to exercise the full pipeline end to end deterministically.
"""

from pathlib import Path

import numpy as np

from .dsp import DEFAULT_SAMPLE_RATE, Waveform
from .wavio import write_wav

_VOICE_PEAK = 0.3
_NOISE_PEAK = 0.5
_FORMANTS_HZ = ((500.0, 180.0), (1500.0, 250.0), (2500.0, 300.0))


def harmonic_voice(
    duration: float, sample_rate: int = DEFAULT_SAMPLE_RATE, f0: float = 160.0, seed: int = 0
) -> Waveform:
    """Voiced-speech stand-in: drifting-pitch harmonics under formant peaks.

    A slow pitch contour, a syllabic 2-4 Hz amplitude modulation, and short
    attack/decay ramps keep the signal speech-like enough for framewise
    metrics while staying fully deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    drift = 1.0 + 0.03 * np.sin(2 * np.pi * 2.3 * t + rng.uniform(0, 2 * np.pi))
    phase = 2 * np.pi * np.cumsum(f0 * drift) / sample_rate
    x = np.zeros(n)
    n_harmonics = max(1, int((sample_rate / 2 - 200.0) // f0))
    for h in range(1, min(n_harmonics, 20) + 1):
        freq = h * f0
        gain = sum(np.exp(-(((freq - fc) / bw) ** 2)) for fc, bw in _FORMANTS_HZ) + 0.05
        gain *= h ** -0.3
        x += gain * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
    syllable_rate = rng.uniform(2.0, 4.0)
    envelope = 0.55 + 0.45 * np.sin(2 * np.pi * syllable_rate * t + rng.uniform(0, 2 * np.pi))
    envelope = np.maximum(envelope, 0.1)
    ramp = min(n // 8, int(0.05 * sample_rate))
    if ramp > 0:
        envelope[:ramp] *= np.linspace(0.0, 1.0, ramp)
        envelope[-ramp:] *= np.linspace(1.0, 0.0, ramp)
    x *= envelope
    x *= _VOICE_PEAK / np.max(np.abs(x))
    return Waveform(x, sample_rate)


def white_noise(duration: float, sample_rate: int = DEFAULT_SAMPLE_RATE, seed: int = 0) -> Waveform:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(int(round(duration * sample_rate)))
    return Waveform(x * (_NOISE_PEAK / np.max(np.abs(x))), sample_rate)


def pink_noise(duration: float, sample_rate: int = DEFAULT_SAMPLE_RATE, seed: int = 0) -> Waveform:
    """Gaussian noise re-shaped to a 1/f power spectrum in the FFT domain."""
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    spectrum[1:] /= np.sqrt(freqs[1:] / freqs[1])
    spectrum[0] = 0.0
    x = np.fft.irfft(spectrum, n=n)
    return Waveform(x * (_NOISE_PEAK / np.max(np.abs(x))), sample_rate)


def tonal_hum(duration: float, sample_rate: int = DEFAULT_SAMPLE_RATE, seed: int = 0) -> Waveform:
    """Mains-style hum: odd harmonics of 50 Hz over a weak broadband floor."""
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    x = sum(
        np.sin(2 * np.pi * 50.0 * h * t + rng.uniform(0, 2 * np.pi)) / h
        for h in (1, 3, 5, 7, 9)
    )
    x += 0.15 * rng.standard_normal(n)
    return Waveform(x * (_NOISE_PEAK / np.max(np.abs(x))), sample_rate)


NOISE_GENERATORS = {"white": white_noise, "pink": pink_noise, "hum": tonal_hum}


def write_demo_corpus(
    clean_dir: str | Path,
    noise_dir: str | Path,
    n_voices: int = 10,
    voice_duration: float = 0.8,
    noise_duration: float = 3.0,
    noise_kinds: tuple[str, ...] = ("white", "pink", "hum"),
    sample_rate: int = DEFAULT_SAMPLE_RATE,
    seed: int = 0,
) -> tuple[list[Path], list[Path]]:
    """Write a small clean/noise WAV tree; returns the two path lists."""
    clean_dir, noise_dir = Path(clean_dir), Path(noise_dir)
    rng = np.random.default_rng(seed)
    clean_paths = []
    for i in range(n_voices):
        f0 = float(rng.uniform(110.0, 280.0))
        voice = harmonic_voice(voice_duration, sample_rate, f0, seed=seed * 1000 + i)
        path = clean_dir / f"voice_{i:02d}.wav"
        write_wav(path, voice)
        clean_paths.append(path)
    noise_paths = []
    for kind in noise_kinds:
        noise = NOISE_GENERATORS[kind](noise_duration, sample_rate, seed=seed * 7 + len(noise_paths))
        path = noise_dir / f"{kind}.wav"
        write_wav(path, noise)
        noise_paths.append(path)
    return clean_paths, noise_paths
