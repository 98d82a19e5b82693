"""The benchmark's tracer and output checks reach into specjoint by name.

The tracer wraps specjoint functions by module and name, both it and the
checks read fields of ``TrainingData``, and the checks parse the gate
counters out of each ``.diag.txt``. A rename that leaves any of them pointing
at nothing, or a moved call that leaves a traced layer with no time, would
otherwise surface only when the benchmark's own, much slower, suite runs.
"""

import copy
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from specjoint import (
    FeatureKind,
    FeatureMatrix,
    MixSpec,
    NormStats,
    PostProcessConfig,
    StftConfig,
    TrainConfig,
    Variant,
    Waveform,
    enhance_waveform,
    init_model,
    input_dim,
    load_training_data,
    train,
    write_diagnostics,
    write_features,
    write_wav,
)
from specjoint import corpus, enhance
from specjoint.corpus import FEATURES_DIR, feature_path

from oracles import random_training_data

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves_to_a_function():
    probes = load_perfbench("tracer").PROBES
    assert probes
    missing = [
        f"{probe.module}.{probe.function}"
        for probe in probes
        if not inspect.isfunction(getattr(importlib.import_module(probe.module), probe.function, None))
    ]
    assert missing == []


def test_checks_and_tracer_read_training_data():
    checks = load_perfbench("checks")
    data = random_training_data(Variant.MFCC_IBM, 64, 12, checks.N_BINS, 41, seed=0)
    untrained = init_model(Variant.MFCC_IBM, 12, {}, 0, 0, checks.N_BINS, 41, 16, 1, seed=0)
    trained = copy.deepcopy(untrained)
    config = TrainConfig(epochs=5, batch_size=16, learning_rate=0.01, dropout=0.0, seed=0)
    train(trained, data, config)
    assert checks.check_training_helped(trained, untrained, data, config) == []
    assert load_perfbench("tracer")._training_data_counts((), {}, data)["bytes"] > 0


def counting(monkeypatch, module, name: str) -> list:
    """Count the calls a module makes through one of its names."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_train_and_enhance_reach_the_traced_input_layers(tmp_path, monkeypatch):
    # features.splice.s and corpus.build_input_rows.s must read above zero.
    splices = counting(monkeypatch, corpus, "splice")
    builds = counting(monkeypatch, enhance, "build_input_rows")
    stats = {FeatureKind.LPS: NormStats(np.zeros(5), np.ones(5))}
    entry = MixSpec(Path("c.wav"), Path("n.wav"), 0.0, 0, "train")
    (tmp_path / FEATURES_DIR).mkdir()
    for name in ("noisy_lps", "clean_lps"):
        path = feature_path(tmp_path / FEATURES_DIR, entry.utterance_id, name)
        write_features(path, FeatureMatrix(np.zeros((8, 5)), FeatureKind.LPS))
    data = load_training_data(tmp_path, [entry], Variant.BASELINE, stats, 1, 2)
    assert data.n_rows == 8 and splices
    model = init_model(Variant.BASELINE, input_dim(Variant.BASELINE, 5, 0, 1), stats, 1, 2, 5, 0, 4, 1)
    small = StftConfig(frame_len=8, hop=4, fft_size=8)
    enhance_waveform(
        model, Waveform(np.linspace(-0.5, 0.5, 64), 16000), small, post=PostProcessConfig(enabled=False)
    )
    assert builds == ["build_input_rows"]


def test_checks_read_the_gate_counters(tmp_path):
    checks = load_perfbench("checks")
    bins = checks.N_BINS
    stft_config = StftConfig(checks.FRAME_LEN, checks.HOP, "hann", checks.FFT_SIZE)
    assert stft_config.n_bins == bins
    stats = {FeatureKind.LPS: NormStats(np.zeros(bins), np.ones(bins))}
    model = init_model(Variant.IBM, input_dim(Variant.IBM, bins, 0, 1), stats, 1, 2, bins, 0, 4, 1)
    noisy = Waveform(0.1 * np.random.default_rng(0).standard_normal(4000), 16000)
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    write_wav(in_dir / "utt.wav", noisy)
    result = enhance_waveform(model, noisy, stft_config, post=PostProcessConfig())
    write_wav(out_dir / "utt.wav", result.enhanced)
    write_diagnostics(out_dir / "utt.diag.txt", result)
    assert checks.check_enhanced(in_dir, out_dir) == []
