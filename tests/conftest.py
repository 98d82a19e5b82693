import os

# One BLAS thread, as the benchmark runs: set before anything imports numpy,
# so float sums in this process match those of the child processes it starts.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest
from hypothesis import settings

from specjoint import StftConfig, Waveform

# Property tests are bounded by their example counts, not by the clock: on a
# loaded machine a deadline fails a correct property on time alone.
settings.register_profile("specjoint", deadline=None)
settings.load_profile("specjoint")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def stft_config():
    return StftConfig()


@pytest.fixture
def tone():
    """One second of a 1 kHz tone at 16 kHz."""
    t = np.arange(16000) / 16000.0
    return Waveform(0.5 * np.sin(2 * np.pi * 1000.0 * t), 16000)


@pytest.fixture
def speech_like():
    from specjoint.synth import harmonic_voice

    return harmonic_voice(1.0, 16000, f0=170.0, seed=42)
