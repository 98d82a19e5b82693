"""Independent reference implementations used to check the fast paths.

Everything here is written the slow, obvious way (scalar loops, naive DFT,
central finite differences) so agreement with the library is meaningful.
"""

import numpy as np

from specjoint import Model, TrainingData, Variant, loss_and_output_grad
from specjoint.network import _forward


def naive_dft(frame: np.ndarray, fft_size: int) -> np.ndarray:
    """O(n^2) one-sided DFT of a single (already windowed) frame."""
    padded = np.zeros(fft_size)
    padded[: len(frame)] = frame
    bins = fft_size // 2 + 1
    out = np.zeros(bins, dtype=np.complex128)
    n = np.arange(fft_size)
    for k in range(bins):
        out[k] = np.sum(padded * np.exp(-2j * np.pi * k * n / fft_size))
    return out


def loop_post_process(
    noisy: np.ndarray, estimate: np.ndarray, mask: np.ndarray, gamma: float, epsilon: float
) -> np.ndarray:
    """Straight-line scalar translation of the three-branch gate."""
    out = np.empty_like(noisy)
    for i in range(noisy.shape[0]):
        for j in range(noisy.shape[1]):
            if mask[i, j] >= gamma:
                out[i, j] = noisy[i, j]
            elif epsilon < mask[i, j] < gamma:
                out[i, j] = (noisy[i, j] + estimate[i, j]) / 2.0
            else:
                out[i, j] = estimate[i, j]
    return out


def model_loss(model: Model, batch: TrainingData, alpha: float, beta: float) -> float:
    outputs = _forward(model, batch.inputs).outputs
    report, _ = loss_and_output_grad(model, outputs, batch, alpha, beta)
    return report.total


def fd_gradient(
    model: Model, batch: TrainingData, alpha: float, beta: float, layer: int, index: tuple, h: float = 1e-5
) -> float:
    """Central finite difference of the total loss w.r.t. one weight."""
    w = model.weights[layer]
    original = w[index]
    w[index] = original + h
    plus = model_loss(model, batch, alpha, beta)
    w[index] = original - h
    minus = model_loss(model, batch, alpha, beta)
    w[index] = original
    return (plus - minus) / (2.0 * h)


def random_training_data(
    variant: Variant, n_rows: int, input_dim: int, lps_dims: int, mfcc_dims: int, seed: int
) -> TrainingData:
    """Random but well-scaled data for loss and gradient exercises."""
    rng = np.random.default_rng(seed)
    from specjoint.features import FeatureKind

    kinds = variant.head_kinds
    return TrainingData(
        variant=variant,
        inputs=rng.standard_normal((n_rows, input_dim)).astype(np.float32),
        targets_lps=rng.standard_normal((n_rows, lps_dims)).astype(np.float32),
        targets_mfcc=(
            rng.standard_normal((n_rows, mfcc_dims)).astype(np.float32)
            if FeatureKind.MFCC in kinds
            else None
        ),
        targets_ibm=(
            (rng.random((n_rows, lps_dims)) > 0.5).astype(np.float32)
            if FeatureKind.IBM in kinds
            else None
        ),
    )


def as_float64(model: Model) -> Model:
    """Same model with f64 parameters, for finite-difference comparisons."""
    model.weights = [w.astype(np.float64) for w in model.weights]
    model.biases = [b.astype(np.float64) for b in model.biases]
    return model
