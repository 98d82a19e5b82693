"""Feed-forward regression network with a multi-objective output layer.

The network maps spliced noisy features to clean targets through ReLU hidden
layers and one linear output layer split into per-feature heads. Spectral
heads (log-power, cepstra) use a per-sample normalized squared error; the
mask head uses a plain squared error. Training is mini-batch SGD with
momentum, inverted dropout on the hidden activations, and a linearly
decaying learning rate. Parameters are stored in float32; loss values are
accumulated in float64 and reported as a dict from name to value: "total"
first, then one entry per head, named after its feature kind in lower case.
"""

import itertools
import math
import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .corpus import NormStats, TrainingData, Variant, assemble_batches, feature_widths, input_dim
from .errors import ConfigError, FormatError, TrainingDivergedError
from .features import FeatureKind

CHECKPOINT_MAGIC = b"SJNN"
CHECKPOINT_VERSION = 1

LOSS_NORM_FLOOR = 1e-8

# Keys of a loss dict: the weighted total, then one per head kind.
HEAD_LOSS_NAMES = {kind: kind.name.lower() for kind in FeatureKind}
LOSS_NAMES = ("total", *HEAD_LOSS_NAMES.values())

DEFAULT_HIDDEN_UNITS = 256
DEFAULT_HIDDEN_LAYERS = 2

_VARIANT_CODES = {v: i for i, v in enumerate(Variant)}
_CODE_VARIANTS = {i: v for v, i in _VARIANT_CODES.items()}


@dataclass(frozen=True)
class HeadSpec:
    """One slice of the output layer: which feature it predicts and where."""

    kind: FeatureKind
    offset: int
    width: int


@dataclass
class Model:
    """Network parameters plus everything needed to run it on new audio."""

    variant: Variant
    tau: int
    noise_aware_frames: int
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    heads: tuple[HeadSpec, ...]
    stats: dict[FeatureKind, NormStats]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 0.001
    lr_final_fraction: float = 0.1
    momentum: float = 0.9
    dropout: float = 0.1
    alpha: float = 0.1
    beta: float = 0.002
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0 < self.lr_final_fraction <= 1:
            raise ConfigError("lr_final_fraction must be in (0, 1]")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be >= 0")

    def learning_rate_at(self, epoch: int) -> float:
        """Linear decay from the initial rate to its final fraction."""
        if self.epochs == 1:
            return self.learning_rate
        frac = epoch / (self.epochs - 1)
        return self.learning_rate * (1.0 - (1.0 - self.lr_final_fraction) * frac)


def mean_losses(weighted: Iterable[tuple[dict[str, float], int]]) -> dict[str, float]:
    """Row-weighted mean of (losses, rows) pairs, summed in the order given."""
    totals: dict[str, float] = {}
    rows = 0
    for losses, n in weighted:
        for key, value in losses.items():
            totals[key] = totals.get(key, 0.0) + value * n
        rows += n
    return {key: value / rows for key, value in totals.items()}


@dataclass
class EpochStats:
    epoch: int
    learning_rate: float
    train: dict[str, float]
    val: dict[str, float] | None


def head_layout(variant: Variant, lps_dims: int, mfcc_dims: int) -> tuple[HeadSpec, ...]:
    widths = feature_widths(variant, lps_dims, mfcc_dims)[1]
    offsets = itertools.accumulate(widths.values(), initial=0)
    return tuple(HeadSpec(kind, offset, width) for (kind, width), offset in zip(widths.items(), offsets))


def init_model(
    variant: Variant,
    input_dim: int,
    stats: dict[FeatureKind, NormStats],
    tau: int,
    noise_aware_frames: int,
    lps_dims: int,
    mfcc_dims: int,
    hidden_units: int = DEFAULT_HIDDEN_UNITS,
    hidden_layers: int = DEFAULT_HIDDEN_LAYERS,
    seed: int = 0,
) -> Model:
    """Uniform fan-balanced init: W ~ U(+-sqrt(6/(fan_in+fan_out))), b = 0."""
    if hidden_units < 1 or hidden_layers < 1:
        raise ConfigError("hidden_units and hidden_layers must be >= 1")
    heads = head_layout(variant, lps_dims, mfcc_dims)
    output_dim = sum(h.width for h in heads)
    dims = [input_dim] + [hidden_units] * hidden_layers + [output_dim]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32))
        biases.append(np.zeros(fan_out, dtype=np.float32))
    return Model(variant, tau, noise_aware_frames, weights, biases, heads, dict(stats))


@dataclass
class _ForwardCache:
    inputs: np.ndarray
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    dropout_masks: list[np.ndarray | None]
    outputs: np.ndarray


def _forward(
    model: Model,
    inputs: np.ndarray,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> _ForwardCache:
    if inputs.shape[1] != model.input_dim:
        raise ValueError(f"input dim mismatch: got {inputs.shape[1]}, model wants {model.input_dim}")
    h = inputs
    pre, acts, masks = [], [], []
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ w + b
        a = np.maximum(z, 0.0)
        mask = None
        if dropout > 0.0:
            if rng is None:
                raise ValueError("dropout requires a generator")
            keep = (rng.random(a.shape) >= dropout).astype(np.float32) / np.float32(1.0 - dropout)
            a = a * keep
            mask = keep
        pre.append(z)
        acts.append(a)
        masks.append(mask)
        h = a
    outputs = h @ model.weights[-1] + model.biases[-1]
    return _ForwardCache(inputs, pre, acts, masks, outputs)


def predict(model: Model, inputs: np.ndarray) -> dict[FeatureKind, np.ndarray]:
    """Inference pass (no dropout); outputs split by head."""
    outputs = _forward(model, np.asarray(inputs, dtype=np.float32)).outputs
    return {h.kind: outputs[:, h.offset : h.offset + h.width] for h in model.heads}


def loss_and_output_grad(
    model: Model, outputs: np.ndarray, batch: TrainingData, alpha: float, beta: float
) -> tuple[dict[str, float], np.ndarray]:
    """Multi-objective loss and its gradient with respect to the outputs.

    Spectral heads: mean over the batch of ||pred - target||^2 / ||target||^2,
    the denominator floored at 1e-8. Mask head: mean of ||pred - target||^2.
    Total = lps + alpha * mfcc + beta * ibm over the heads present, summed
    in head order.
    """
    n = outputs.shape[0]
    head_weights = {FeatureKind.LPS: 1.0, FeatureKind.MFCC: alpha, FeatureKind.IBM: beta}
    losses = {"total": 0.0}
    grad = np.zeros_like(outputs)
    for spec in model.heads:
        pred = outputs[:, spec.offset : spec.offset + spec.width]
        target = batch.targets(spec.kind)
        diff64 = pred.astype(np.float64) - target.astype(np.float64)
        if spec.kind == FeatureKind.IBM:
            denom = np.ones((n, 1))
        else:
            denom = np.maximum(
                np.sum(target.astype(np.float64) ** 2, axis=1, keepdims=True), LOSS_NORM_FLOOR
            )
        loss = float(np.mean(np.sum(diff64**2, axis=1) / denom[:, 0]))
        weight = head_weights[spec.kind]
        losses[HEAD_LOSS_NAMES[spec.kind]] = loss
        losses["total"] += weight * loss
        grad[:, spec.offset : spec.offset + spec.width] = (
            2.0 * weight / n * diff64 / denom
        ).astype(outputs.dtype)
    return losses, grad


def backward(
    model: Model,
    cache: _ForwardCache,
    output_grad: np.ndarray,
    out: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradient of the loss with respect to every weight and bias.

    With `out`, a (weights, biases) pair of arrays shaped like the model's
    parameters, the gradients are written into those arrays and `out` is
    returned; without it, a new pair is allocated.
    """
    n_layers = len(model.weights)
    grad_w, grad_b = out if out is not None else ([None] * n_layers, [None] * n_layers)
    delta = output_grad
    prev = cache.activations[-1] if cache.activations else cache.inputs
    grad_w[-1] = np.matmul(prev.T, delta, out=grad_w[-1])
    grad_b[-1] = delta.sum(axis=0, out=grad_b[-1])
    for i in range(n_layers - 2, -1, -1):
        delta = delta @ model.weights[i + 1].T
        if cache.dropout_masks[i] is not None:
            delta = delta * cache.dropout_masks[i]
        delta = delta * (cache.pre_activations[i] > 0)
        prev = cache.activations[i - 1] if i > 0 else cache.inputs
        grad_w[i] = np.matmul(prev.T, delta, out=grad_w[i])
        grad_b[i] = delta.sum(axis=0, out=grad_b[i])
    return grad_w, grad_b


def batch_loss(model: Model, batch: TrainingData, alpha: float, beta: float) -> dict[str, float]:
    """Loss on a batch without dropout; used for validation."""
    cache = _forward(model, batch.inputs)
    losses, _ = loss_and_output_grad(model, cache.outputs, batch, alpha, beta)
    return losses


@dataclass
class _Momentum:
    velocity_w: list[np.ndarray] = field(default_factory=list)
    velocity_b: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def zeros_like(cls, model: Model) -> "_Momentum":
        return cls(
            [np.zeros_like(w) for w in model.weights],
            [np.zeros_like(b) for b in model.biases],
        )


def sgd_step(
    model: Model,
    grads: tuple[list[np.ndarray], list[np.ndarray]],
    state: _Momentum,
    learning_rate: float,
    momentum: float,
) -> None:
    """Momentum SGD, v = mom * v - lr * g then p += v, in place; it scales
    the gradients in place too, so they are spent once it returns."""
    grad_w, grad_b = grads
    lr = np.float32(learning_rate)
    mom = np.float32(momentum)
    params = model.weights + model.biases
    velocities = state.velocity_w + state.velocity_b
    for param, velocity, grad in zip(params, velocities, grad_w + grad_b):
        velocity *= mom
        velocity -= np.multiply(grad, lr, out=grad)
        param += velocity


def _dataset_loss(model: Model, data: TrainingData, alpha: float, beta: float) -> dict[str, float]:
    """Average loss over a whole split, computed in bounded-size chunks."""
    chunk = 4096
    chunks = (data.take(slice(start, start + chunk)) for start in range(0, data.n_rows, chunk))
    return mean_losses((batch_loss(model, part, alpha, beta), part.n_rows) for part in chunks)


def _snapshot(
    model: Model, into: tuple[list[np.ndarray], list[np.ndarray]] | None
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The model's (weights, biases) copied into `into`, allocated when None."""
    if into is None:
        return [w.copy() for w in model.weights], [b.copy() for b in model.biases]
    for dst, src in zip(into[0] + into[1], model.weights + model.biases):
        np.copyto(dst, src)
    return into


def train(
    model: Model,
    train_data: TrainingData,
    config: TrainConfig,
    val_data: TrainingData | None = None,
    log=None,
) -> list[EpochStats]:
    """Run mini-batch SGD in place on the model; returns per-epoch statistics.

    Deterministic for a fixed config seed: batch order and dropout masks are
    drawn from generators derived from it. A non-finite loss aborts the run
    and rolls the model back to the start of the epoch that diverged, so the
    parameters stay usable; the partial history is attached to the raised
    error. With validation rows, the parameters from the best-validation
    epoch are restored at the end.

    Besides the parameters, a run holds four parameter-sized sets, each
    allocated once: the momentum velocity, the epoch-start snapshot, one
    gradient set that every step's backward pass overwrites, and, with
    validation rows, the best-validation copy.
    """
    dropout_rng = np.random.default_rng(config.seed + 0x5EED)
    state = _Momentum.zeros_like(model)
    grads = ([np.empty_like(w) for w in model.weights], [np.empty_like(b) for b in model.biases])
    history: list[EpochStats] = []
    best_val = np.inf
    epoch_start = best_params = None
    for epoch in range(config.epochs):
        lr = config.learning_rate_at(epoch)
        epoch_start = _snapshot(model, epoch_start)
        weighted: list[tuple[dict[str, float], int]] = []
        for batch in assemble_batches(train_data, config.batch_size, config.seed + epoch):
            cache = _forward(model, batch.inputs, config.dropout, dropout_rng)
            losses, output_grad = loss_and_output_grad(
                model, cache.outputs, batch, config.alpha, config.beta
            )
            if not np.isfinite(losses["total"]):
                model.weights, model.biases = epoch_start
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch + 1}; lower the learning rate", history
                )
            backward(model, cache, output_grad, out=grads)
            sgd_step(model, grads, state, lr, config.momentum)
            weighted.append((losses, batch.n_rows))
        train_losses = mean_losses(weighted)
        val_losses = None
        if val_data is not None and val_data.n_rows > 0:
            val_losses = _dataset_loss(model, val_data, config.alpha, config.beta)
            if val_losses["total"] < best_val:
                best_val = val_losses["total"]
                best_params = _snapshot(model, best_params)
        stats = EpochStats(epoch + 1, lr, train_losses, val_losses)
        history.append(stats)
        if log is not None:
            msg = f"epoch {stats.epoch}/{config.epochs} lr={lr:.6f} train={train_losses['total']:.6f}"
            if val_losses is not None:
                msg += f" val={val_losses['total']:.6f}"
            log(msg)
    if best_params is not None:
        model.weights, model.biases = best_params
    return history


def save_model(path: str | Path, model: Model) -> None:
    """Serialize the model to a little-endian binary checkpoint.

    The header is packed field by field; each array's buffer is then written
    to the file as it is, with no intermediate copy of the parameters.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    parts.append(
        struct.pack(
            "<BII",
            _VARIANT_CODES[model.variant],
            model.tau,
            model.noise_aware_frames,
        )
    )
    parts.append(struct.pack("<I", len(model.weights)))
    for w in model.weights:
        parts.append(struct.pack("<II", w.shape[0], w.shape[1]))
    parts.append(struct.pack("<B", len(model.heads)))
    for spec in model.heads:
        parts.append(struct.pack("<BII", int(spec.kind), spec.offset, spec.width))
    parts.append(struct.pack("<B", len(model.stats)))
    with open(path, "wb") as handle:
        handle.write(b"".join(parts))
        for kind in sorted(model.stats):
            stats = model.stats[kind]
            handle.write(struct.pack("<BI", int(kind), stats.dims))
            handle.write(np.ascontiguousarray(stats.mean, dtype="<f8"))
            handle.write(np.ascontiguousarray(stats.variance, dtype="<f8"))
        for w, b in zip(model.weights, model.biases):
            handle.write(np.ascontiguousarray(w, dtype="<f4"))
            handle.write(np.ascontiguousarray(b, dtype="<f4"))


class _Reader:
    """Reads a checkpoint's fields in order from an open file.

    Every field is checked against the bytes left in the file before it is
    read, so a truncated or corrupt header cannot make it allocate more than
    the file holds; arrays are read straight into their own buffers.
    """

    def __init__(self, handle: BinaryIO, path: Path):
        self.handle = handle
        self.path = path
        self.remaining = os.fstat(handle.fileno()).st_size

    def _claim(self, n: int) -> None:
        if n > self.remaining:
            raise FormatError(f"{self.path}: checkpoint truncated")
        self.remaining -= n

    def take(self, n: int) -> bytes:
        self._claim(n)
        return self.handle.read(n)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, *shape: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        self._claim(dtype.itemsize * math.prod(shape))
        out = np.empty(shape, dtype=dtype)
        self.handle.readinto(out)
        return out


def load_model(path: str | Path) -> Model:
    path = Path(path)
    with open(path, "rb") as handle:
        reader = _Reader(handle, path)
        if reader.take(4) != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a model checkpoint")
        (version,) = reader.unpack("<I")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        variant_code, tau, noise_aware_frames = reader.unpack("<BII")
        if variant_code not in _CODE_VARIANTS:
            raise FormatError(f"{path}: unknown variant code {variant_code}")
        (n_layers,) = reader.unpack("<I")
        if not n_layers:
            raise FormatError(f"{path}: checkpoint has no layers")
        shapes = [reader.unpack("<II") for _ in range(n_layers)]
        for (_, out_prev), (in_next, _) in zip(shapes[:-1], shapes[1:]):
            if out_prev != in_next:
                raise FormatError(f"{path}: inconsistent layer shapes")

        def feature_kind(code: int) -> FeatureKind:
            try:
                return FeatureKind(code)
            except ValueError:
                raise FormatError(f"{path}: unknown feature kind {code}") from None

        (n_heads,) = reader.unpack("<B")
        heads = []
        for _ in range(n_heads):
            kind_code, offset, width = reader.unpack("<BII")
            heads.append(HeadSpec(feature_kind(kind_code), offset, width))
        (n_stats,) = reader.unpack("<B")
        stats = {}
        for _ in range(n_stats):
            kind_code, dims = reader.unpack("<BI")
            mean = reader.array("<f8", dims)
            variance = reader.array("<f8", dims)
            stats[feature_kind(kind_code)] = NormStats(mean, variance)
        # The layout init_model builds for this variant, these statistics and tau.
        variant = _CODE_VARIANTS[variant_code]
        dims = {kind: s.dims for kind, s in stats.items()}
        lps_dims, mfcc_dims = dims.get(FeatureKind.LPS, 0), dims.get(FeatureKind.MFCC, 0)
        layout = head_layout(variant, lps_dims, mfcc_dims)
        widths = (shapes[0][0], shapes[-1][1])
        if tuple(heads) != layout or widths != (
            input_dim(variant, lps_dims, mfcc_dims, tau), sum(h.width for h in layout)
        ):
            raise FormatError(
                f"{path}: head table does not fit variant {variant.value!r} with tau {tau}, "
                f"{lps_dims} LPS and {mfcc_dims} MFCC dims in a {widths[0]}-in, {widths[1]}-out network"
            )
        weights, biases = [], []
        for fan_in, fan_out in shapes:
            weights.append(reader.array("<f4", fan_in, fan_out))
            biases.append(reader.array("<f4", fan_out))
    if reader.remaining:
        raise FormatError(f"{path}: {reader.remaining} trailing bytes")
    return Model(variant, tau, noise_aware_frames, weights, biases, tuple(heads), stats)
