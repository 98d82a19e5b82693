"""Per-layer tracing from outside the program.

The tracer replaces chosen specjoint functions with timing wrappers, in every
specjoint module that holds a reference to them: a function that another
module imported by name (``lps`` in ``enhance``) is wrapped there too, and
names looked up at call time (``network._forward``,
``metrics._third_octave_bands``) are wrapped in their own module. Nothing
under ``src/`` changes; ``uninstall`` puts every original back.

Each call makes a span: name, start, end, parent and the utterance it served.
A generator's work runs when it is iterated, so it gets one span per item.
Spans stay in memory and are written out once, when the run ends.
"""

import contextlib
import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _nbytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays if a is not None))


def _dense_flops(model, rows: int) -> int:
    """Multiply-adds of every dense layer, counted as two operations each."""
    return 2 * rows * sum(w.shape[0] * w.shape[1] for w in model.weights)


def _container_bytes(matrix) -> int:
    return 17 + 4 * matrix.data.size  # header plus f32 payload


# Counters are computed from arguments and results (shapes and sizes only).
def _forward_counts(args, kwargs, result):
    return {"flops": _dense_flops(args[0], args[1].shape[0])}


def _sgd_counts(args, kwargs, result):
    # Reads velocity, gradient and parameter; writes velocity and parameter.
    model = args[0]
    return {"bytes": 5 * _nbytes(*model.weights, *model.biases)}


def _training_data_counts(args, kwargs, result):
    return {
        "bytes": _nbytes(result.inputs, result.targets_lps, result.targets_mfcc, result.targets_ibm)
    }


def _wav_read_counts(args, kwargs, result):
    return {"bytes": 2 * len(result)}


def _wav_write_counts(args, kwargs, result):
    return {"bytes": 2 * len(args[1])}


@dataclass(frozen=True)
class Probe:
    module: str  # module that defines the function
    function: str
    span: str
    counts: object = None  # (args, kwargs, result) -> {counter: value}
    path_arg: bool = False  # first argument names the file of one utterance
    absorbs: bool = False  # nested probed calls record no span of their own
    ends_utterance: bool = False


PROBES = (
    Probe("specjoint.dsp", "stft", "dsp.stft"),
    Probe("specjoint.dsp", "istft", "dsp.istft"),
    Probe("specjoint.features", "lps", "features.lps"),
    Probe("specjoint.features", "mfcc", "features.mfcc"),
    Probe("specjoint.features", "compute_ibm", "features.compute_ibm"),
    Probe("specjoint.features", "splice", "features.splice"),
    Probe("specjoint.corpus", "extract_mixture_features", "corpus.extract_mixture_features"),
    Probe(
        "specjoint.corpus",
        "load_training_data",
        "corpus.load_training_data",
        _training_data_counts,
        ends_utterance=True,
    ),
    Probe("specjoint.corpus", "assemble_batches", "corpus.assemble_batches"),
    Probe("specjoint.corpus", "build_input_rows", "corpus.build_input_rows"),
    Probe(
        "specjoint.container",
        "write_features",
        "container.write_features",
        lambda a, k, r: {"bytes": _container_bytes(a[1])},
        path_arg=True,
    ),
    Probe(
        "specjoint.container",
        "read_features",
        "container.read_features",
        lambda a, k, r: {"bytes": _container_bytes(r)},
        path_arg=True,
    ),
    Probe("specjoint.wavio", "read_wav", "wavio.read_wav", _wav_read_counts, path_arg=True),
    Probe(
        "specjoint.wavio",
        "write_wav",
        "wavio.write_wav",
        _wav_write_counts,
        path_arg=True,
        ends_utterance=True,
    ),
    Probe("specjoint.network", "_forward", "network.forward", _forward_counts),
    Probe("specjoint.network", "backward", "network.backward"),
    Probe("specjoint.network", "sgd_step", "network.sgd_step", _sgd_counts),
    Probe("specjoint.network", "loss_and_output_grad", "network.loss"),
    Probe("specjoint.network", "_dataset_loss", "network.validation", absorbs=True),
    Probe(
        "specjoint.network", "predict", "network.predict", _forward_counts, absorbs=True
    ),
    Probe("specjoint.enhance", "enhance_features", "enhance.enhance_features"),
    Probe("specjoint.enhance", "post_process", "enhance.post_process"),
    Probe("specjoint.enhance", "reconstruct", "enhance.reconstruct"),
    Probe("specjoint.metrics", "ssnr", "metrics.ssnr"),
    Probe("specjoint.metrics", "stoi", "metrics.stoi", ends_utterance=True),
    Probe("specjoint.metrics", "_third_octave_bands", "metrics.third_octave_bands"),
    Probe(
        "specjoint.metrics",
        "distortion_profile",
        "metrics.distortion_profile",
        ends_utterance=True,
    ),
    Probe("specjoint.cli", "cmd_prepare", "cli.prepare", ends_utterance=True),
    Probe("specjoint.cli", "cmd_train", "cli.train", ends_utterance=True),
    Probe("specjoint.cli", "cmd_enhance", "cli.enhance", ends_utterance=True),
    Probe("specjoint.cli", "cmd_evaluate", "cli.evaluate", ends_utterance=True),
    Probe("specjoint.cli", "cmd_distortion", "cli.distortion-profile", ends_utterance=True),
)

# What each per-layer metric sums. ".s" is self time, except for the cli.*
# spans: those are the roots, and their whole duration is reported so that it
# can be set beside the untraced command time.
PER_LAYER = {
    "dsp.stft": ("calls", "s"),
    "dsp.istft": ("calls", "s"),
    "features.lps": ("calls", "s"),
    "features.mfcc": ("s",),
    "features.compute_ibm": ("s",),
    "features.splice": ("s",),
    "corpus.extract_mixture_features": ("s",),
    "corpus.load_training_data": ("s", "bytes"),
    "corpus.assemble_batches": ("s",),
    "corpus.build_input_rows": ("s",),
    "container.write_features": ("calls", "bytes", "s"),
    "container.read_features": ("calls", "bytes", "s"),
    "wavio.read_wav": ("calls", "bytes", "s"),
    "wavio.write_wav": ("calls", "bytes", "s"),
    "network.forward": ("s", "flops"),
    "network.backward": ("s",),
    "network.sgd_step": ("s", "bytes"),
    "network.loss": ("s",),
    "network.validation": ("s",),
    "network.predict": ("s", "flops"),
    "enhance.enhance_features": ("s",),
    "enhance.post_process": ("s",),
    "enhance.reconstruct": ("s",),
    "metrics.ssnr": ("s",),
    "metrics.stoi": ("s",),
    "metrics.third_octave_bands": ("calls",),
    "metrics.distortion_profile": ("s",),
    "cli.prepare": ("s",),
    "cli.train": ("s",),
    "cli.enhance": ("s",),
    "cli.evaluate": ("s",),
    "cli.distortion-profile": ("s",),
}

UNITS = {"calls": "count", "s": "s", "bytes": "B", "flops": "flop"}


def per_layer_names() -> list[tuple[str, str]]:
    return [(f"{span}.{kind}", UNITS[kind]) for span, kinds in PER_LAYER.items() for kind in kinds]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, or -1
    round: int
    group: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for the probed functions while installed."""

    def __init__(self, probes=PROBES, ignore_dirs=()):
        self.probes = probes
        self.ignore_dirs = {str(d) for d in ignore_dirs}
        self.spans: list[Span] = []
        self.round = -1
        self._stack: list[int] = []
        self._absorbing = 0
        self._group = 0
        self._group_utt: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("specjoint")]
        for probe in self.probes:
            original = getattr(sys.modules[probe.module], probe.function)
            wrapper = self._wrap(original, probe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _utterance_of(self, path) -> str | None:
        path = Path(path)
        if str(path.parent) in self.ignore_dirs:
            return None  # a clean or noise source, shared by many mixtures
        return path.name.split(".", 1)[0]

    def _wrap(self, fn, probe: Probe):
        if inspect.isgeneratorfunction(fn):
            # Creating a generator runs none of its body: time each next(),
            # so that the work lands in one span per item, under whatever
            # span is open when the caller asks for it.
            def wrapper(*args, **kwargs):
                generator = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._call(probe, next, (generator,), {})
                    except StopIteration:
                        return
                    yield item

        else:

            def wrapper(*args, **kwargs):
                return self._call(probe, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _call(self, probe: Probe, fn, args, kwargs):
        """Call fn and record one span for the call."""
        if self._absorbing:
            return fn(*args, **kwargs)
        if probe.path_arg:
            utt = self._utterance_of(args[0])
            if utt is not None:
                if self._group_utt.get(self._group, utt) != utt:
                    self._group += 1
                self._group_utt[self._group] = utt
        span = Span(probe.span, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.round, self._group)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._absorbing += probe.absorbs
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.start, span.end = start, time.perf_counter()
            self._absorbing -= probe.absorbs
            self._stack.pop()
        if probe.counts is not None:
            span.counts = probe.counts(args, kwargs, result)
        if probe.ends_utterance:
            self._group += 1
        return result

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens around a block."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.round, self._group))
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()
            self._group += 1

    # --- analysis ---------------------------------------------------------

    def self_times(self) -> np.ndarray:
        durations = np.array([s.end - s.start for s in self.spans])
        own = durations.copy()
        for span, duration in zip(self.spans, durations):
            if span.parent >= 0:
                own[span.parent] -= duration
        return own

    def per_round(self) -> dict[int, dict[str, float]]:
        """Each round's per-layer metrics, as PER_LAYER names them."""
        own = self.self_times()
        out: dict[int, dict[str, float]] = {}
        for span, self_s in zip(self.spans, own):
            kinds = PER_LAYER.get(span.name)
            if kinds is None:
                continue
            metrics = out.setdefault(span.round, {})
            for kind in kinds:
                key = f"{span.name}.{kind}"
                if kind == "calls":
                    value = 1
                elif kind == "s":
                    value = span.end - span.start if span.name.startswith("cli.") else self_s
                else:
                    value = span.counts[kind]
                metrics[key] = metrics.get(key, 0) + value
        for metrics in out.values():
            for name, _ in per_layer_names():
                metrics.setdefault(name, 0)
        return out

    def self_time_problems(self) -> list[str]:
        """Self times under each root span must not add up to more than it."""
        own = self.self_times()
        root_of = []
        problems = []
        totals: dict[int, float] = {}
        for index, span in enumerate(self.spans):
            root = index if span.parent < 0 else root_of[span.parent]
            root_of.append(root)
            if root != index:
                totals[root] = totals.get(root, 0.0) + own[index]
        for root, total in totals.items():
            span = self.spans[root]
            if total > span.end - span.start + 1e-9:
                problems.append(
                    f"self times under {span.name} add up to {total:.6f} s, "
                    f"more than its {span.end - span.start:.6f} s"
                )
            if own[root] < -1e-9:
                problems.append(f"{span.name} has negative self time {own[root]:.3g} s")
        return problems

    def summary(self) -> tuple[dict, list[str]]:
        """Per-layer metrics and problems: counts must repeat in every round,
        times are the median round's."""
        rounds = self.per_round()
        problems = self.self_time_problems()
        out = {}
        for name, unit in per_layer_names():
            series = [rounds[r][name] for r in sorted(rounds)]
            if name.endswith(".s"):
                value = statistics.median(series)
            else:
                value = series[0]
                if any(v != value for v in series):
                    problems.append(f"{name} differs between rounds: {series}")
            out[name] = {"value": value, "unit": unit}
        return out, problems

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for index, (span, self_s) in enumerate(zip(self.spans, own)):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "self_s": float(self_s),
                    "parent": span.parent,
                    "round": span.round,
                    "utterance": self._group_utt.get(span.group),
                }
                record.update(span.counts)
                handle.write(json.dumps(record) + "\n")
