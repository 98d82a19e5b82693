"""The benchmark's tracer and output checks reach into specjoint by name.

The tracer wraps specjoint functions by module and name, and both it and the
checks read fields of ``TrainingData``. A rename that leaves either pointing
at nothing would otherwise surface only when the benchmark's own, much
slower, suite runs.
"""

import copy
import importlib
import importlib.util
import inspect
from pathlib import Path

from specjoint import TrainConfig, Variant, init_model, train

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
