"""PCM-16 mono WAV reading and writing.

Only the canonical RIFF form is accepted: 16-bit little-endian PCM, one
channel. Anything else (compressed encodings, multi-channel, other sample
widths, unexpected rates) is rejected with an explicit error.
"""

import wave
from pathlib import Path

import numpy as np

from .dsp import Waveform
from .errors import AudioFormatError

_SCALE = 32767.0


def read_wav(path: str | Path, expected_rate: int | None = None) -> Waveform:
    """Read a PCM-16 mono WAV file into a float waveform in [-1, 1]."""
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as handle:
            if handle.getcomptype() != "NONE":
                raise AudioFormatError(f"{path}: compressed WAV ({handle.getcomptype()}) not supported")
            if handle.getnchannels() != 1:
                raise AudioFormatError(f"{path}: expected mono, got {handle.getnchannels()} channels")
            if handle.getsampwidth() != 2:
                raise AudioFormatError(f"{path}: expected 16-bit PCM, got {8 * handle.getsampwidth()}-bit")
            rate = handle.getframerate()
            if expected_rate is not None and rate != expected_rate:
                raise AudioFormatError(f"{path}: sample rate {rate} Hz, expected {expected_rate} Hz")
            raw = handle.readframes(handle.getnframes())
    except (wave.Error, EOFError) as exc:  # EOFError: the file ends inside its header
        detail = str(exc) or "it ends inside its header"
        raise AudioFormatError(f"{path}: not a valid PCM WAV file ({detail})") from exc
    if len(raw) % 2:
        raise AudioFormatError(f"{path}: sample data ends mid-sample ({len(raw)} bytes)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / _SCALE
    return Waveform(samples, rate)


def write_wav(path: str | Path, waveform: Waveform) -> None:
    """Write a waveform as PCM-16 mono, clipping samples to [-1, 1]."""
    clipped = np.clip(waveform.samples, -1.0, 1.0)
    pcm = np.round(clipped * _SCALE).astype("<i2")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(waveform.sample_rate)
        handle.writeframes(pcm.tobytes())
