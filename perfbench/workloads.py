"""The benchmark's workloads and the seeded inputs each one is built from.

A workload fixes everything but the signals: how many clean voices, how long
they are, which noises, the run configuration the commands get, and the
utterances of the closed-loop latency test. The seed picks the voices' pitch
and phases, the noises and the latency mixtures' noise offsets, so the same
seed always gives byte-identical inputs. Lengths follow the file index alone,
so every seed gives the same amount of audio in every split.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from specjoint import synth
from specjoint.dsp import Waveform
from specjoint.wavio import write_wav

SAMPLE_RATE = 16000
PIPELINE = ("prepare", "train", "enhance", "evaluate", "profile", "latency")
HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file name under perfbench/configs
    n_voices: int
    voice_seconds: tuple[float, float]  # shortest and longest clean voice
    noise_kinds: tuple[str, ...]
    noise_seconds: float
    n_latency: int  # utterances in the closed-loop latency test
    latency_seconds: tuple[float, float]
    round_seconds: float  # nominal length of one timed round; sets the round count
    jobs2_sample: int  # utterances re-enhanced with --jobs 2 for the determinism check
    # A timed round runs these steps in this order. Each command's passes are
    # spread over the round so that they sample the machine at
    # several moments; the warm-up round runs each step once, in pipeline order.
    schedule: tuple[str, ...] = PIPELINE

    @property
    def config_path(self) -> Path:
        return HERE / "configs" / self.config

    def timed_rounds(self, seconds: float) -> int:
        """Round count from the run length alone, never from a measured time.

        A count that followed the machine's speed would make some runs take
        the median of fewer passes than others.
        """
        return max(2, int(round(seconds / self.round_seconds)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="short",
            config="short.cfg",
            n_voices=12,
            voice_seconds=(0.7, 1.3),
            noise_kinds=("white", "pink", "hum"),
            noise_seconds=6.0,
            n_latency=100,
            latency_seconds=(0.7, 1.3),
            round_seconds=5.0,
            jobs2_sample=8,
            schedule=(
                "prepare", "profile", "enhance", "evaluate", "train", "profile", "latency",
                "enhance", "evaluate", "profile", "latency",
            ),
        ),
        Workload(
            name="fullscale",
            config="fullscale.cfg",
            n_voices=2,
            voice_seconds=(2.0, 2.0),
            noise_kinds=("white", "hum"),
            noise_seconds=6.0,
            n_latency=100,
            latency_seconds=(1.0, 1.5),
            round_seconds=10.0,
            jobs2_sample=2,
            schedule=(
                "prepare", "profile", "enhance", "prepare", "evaluate", "profile", "train",
                "prepare", "profile", "prepare", "evaluate", "enhance", "prepare", "latency",
                "profile", "evaluate", "prepare", "profile",
            ),
        ),
    )
}


def _lengths(n: int, bounds: tuple[float, float]) -> list[float]:
    return [float(x) for x in np.linspace(bounds[0], bounds[1], n)]


def _voice(seconds: float, rng: np.random.Generator) -> np.ndarray:
    f0 = float(rng.uniform(110.0, 280.0))
    return synth.harmonic_voice(seconds, SAMPLE_RATE, f0, seed=int(rng.integers(2**31))).samples


def write_inputs(workload: Workload, seed: int, root: Path) -> dict[str, Path]:
    """Write clean voices, noises and latency mixtures under root.

    Returns the three directories. The latency mixtures are made here with
    numpy, not by the program, at SNRs cycling through the workload's grid.
    """
    rng = np.random.default_rng(seed)
    dirs = {name: root / name for name in ("clean", "noise", "latency_in")}
    for directory in dirs.values():
        directory.mkdir(parents=True, exist_ok=True)
    for i, seconds in enumerate(_lengths(workload.n_voices, workload.voice_seconds)):
        write_wav(dirs["clean"] / f"voice{i:03d}.wav", Waveform(_voice(seconds, rng)))
    noises = []
    for kind in workload.noise_kinds:
        noise = synth.NOISE_GENERATORS[kind](
            workload.noise_seconds, SAMPLE_RATE, seed=int(rng.integers(2**31))
        )
        write_wav(dirs["noise"] / f"{kind}.wav", noise)
        noises.append(noise.samples)
    grid = (20.0, 15.0, 10.0, 5.0, 0.0, -5.0)
    for i, seconds in enumerate(_lengths(workload.n_latency, workload.latency_seconds)):
        clean = _voice(seconds, rng)
        noise = noises[i % len(noises)]
        start = int(rng.integers(len(noise)))
        segment = noise[(start + np.arange(len(clean))) % len(noise)]
        snr_db = grid[i % len(grid)]
        gain = np.sqrt(np.mean(clean**2) / (np.mean(segment**2) * 10.0 ** (snr_db / 10.0)))
        noisy = np.clip(clean + gain * segment, -1.0, 1.0)
        write_wav(dirs["latency_in"] / f"lat{i:03d}.wav", Waveform(noisy))
    return dirs
