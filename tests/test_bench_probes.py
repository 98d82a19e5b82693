"""The benchmark's tracer wraps specjoint functions by module and name.

A rename that leaves a probe pointing at nothing would otherwise surface only
when the benchmark's own, much slower, suite runs.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves_to_a_function():
    probes = load_tracer().PROBES
    assert probes
    missing = [
        f"{probe.module}.{probe.function}"
        for probe in probes
        if not inspect.isfunction(getattr(importlib.import_module(probe.module), probe.function, None))
    ]
    assert missing == []
