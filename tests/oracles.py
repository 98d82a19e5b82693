"""Independent reference implementations used to check the fast paths.

Everything here is written the slow, obvious way (scalar loops, naive DFT,
central finite differences) so agreement with the library is meaningful.
"""

from pathlib import Path

import numpy as np

from specjoint import MetricError, Model, TrainingData, Variant, Waveform, loss_and_output_grad
from specjoint import container, metrics
from specjoint.corpus import FEATURES_DIR, feature_path, normalize
from specjoint.features import FeatureKind
from specjoint.network import _forward, _Momentum


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


def loop_frames(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Rows of frame_len samples every hop samples, one slice at a time."""
    rows = [x[start : start + frame_len] for start in range(0, len(x) - frame_len + 1, hop)]
    return np.array(rows).reshape(len(rows), frame_len)


def loop_overlap_add(rows: np.ndarray, hop: int) -> np.ndarray:
    """Rows added hop samples apart, one row at a time in row order."""
    frame_len = rows.shape[1]
    out = np.zeros((rows.shape[0] - 1) * hop + frame_len)
    for i, row in enumerate(rows):
        out[i * hop : i * hop + frame_len] += row
    return out


def loop_stoi(reference: Waveform, test: Waveform) -> float:
    """STOI with a loop over frames for silence removal and over 30-frame segments."""
    n = min(len(reference), len(test))
    ref = metrics._resample_to_stoi_rate(reference.samples[:n], reference.sample_rate)
    tst = metrics._resample_to_stoi_rate(test.samples[:n], reference.sample_rate)
    win = metrics._stoi_window()
    ref_frames = loop_frames(ref, metrics.STOI_FRAME_LEN, metrics.STOI_HOP) * win
    tst_frames = loop_frames(tst, metrics.STOI_FRAME_LEN, metrics.STOI_HOP) * win
    if ref_frames.shape[0] == 0:
        raise MetricError("signal shorter than one frame after resampling")
    energies = 20.0 * np.log10(np.linalg.norm(ref_frames, axis=1) + metrics._EPS)
    keep = energies > np.max(energies) - metrics.STOI_DYN_RANGE_DB
    bands = metrics._third_octave_bands()

    def envelopes(frames: np.ndarray) -> np.ndarray:
        x = loop_overlap_add(frames, metrics.STOI_HOP)
        frames = loop_frames(x, metrics.STOI_FRAME_LEN, metrics.STOI_HOP) * win
        power = np.abs(np.fft.rfft(frames, n=metrics.STOI_FFT_SIZE, axis=1)) ** 2
        return np.sqrt(power @ bands.T)

    ref_env, tst_env = envelopes(ref_frames[keep]), envelopes(tst_frames[keep])
    n_frames = ref_env.shape[0]
    if n_frames < metrics.STOI_SEGMENT:
        raise MetricError(f"only {n_frames} active frames")
    eps = metrics._EPS
    clip_gain = 10.0 ** (-metrics.STOI_CLIP_DB / 20.0)
    total = 0.0
    count = 0
    for m in range(metrics.STOI_SEGMENT, n_frames + 1):
        x = ref_env[m - metrics.STOI_SEGMENT : m].T
        y = tst_env[m - metrics.STOI_SEGMENT : m].T
        scale = np.linalg.norm(x, axis=1, keepdims=True) / (
            np.linalg.norm(y, axis=1, keepdims=True) + eps
        )
        y = np.minimum(y * scale, x * (1.0 + clip_gain))
        x = x - x.mean(axis=1, keepdims=True)
        y = y - y.mean(axis=1, keepdims=True)
        x = x / (np.linalg.norm(x, axis=1, keepdims=True) + eps)
        y = y / (np.linalg.norm(y, axis=1, keepdims=True) + eps)
        total += float(np.sum(x * y))
        count += x.shape[0]
    return total / count


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
    return report["total"]


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


def dense_rows(inputs, targets_lps, targets_mfcc=None, targets_ibm=None) -> TrainingData:
    """Rows whose input matrix is given whole: each row's window is itself."""
    inputs = np.asarray(inputs)
    windows = np.arange(inputs.shape[0])[:, None]
    return TrainingData(inputs, windows, targets_lps, targets_mfcc, targets_ibm)


def random_training_data(
    variant: Variant, n_rows: int, input_dim: int, lps_dims: int, mfcc_dims: int, seed: int
) -> TrainingData:
    """Random but well-scaled data for loss and gradient exercises."""
    rng = np.random.default_rng(seed)
    kinds = variant.head_kinds
    return dense_rows(
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


def out_of_place_sgd_step(
    model: Model, grads: tuple, state: _Momentum, learning_rate: float, momentum: float
) -> None:
    """Momentum SGD with every intermediate as a new array."""
    grad_w, grad_b = grads
    lr = np.float32(learning_rate)
    mom = np.float32(momentum)
    for i in range(len(model.weights)):
        state.velocity_w[i] = mom * state.velocity_w[i] - lr * grad_w[i]
        state.velocity_b[i] = mom * state.velocity_b[i] - lr * grad_b[i]
        model.weights[i] += state.velocity_w[i]
        model.biases[i] += state.velocity_b[i]


def spliced_input_rows(
    noisy_lps: np.ndarray, noisy_mfcc, stats: dict, tau: int, noise_aware_frames: int
) -> np.ndarray:
    """One utterance's input matrix in float64: the normalized features of
    frames i-tau..i+tau, edge frames repeated, then the mean of the first
    noise_aware_frames normalized frames on every row."""
    feat = normalize(noisy_lps, stats[FeatureKind.LPS])
    if noisy_mfcc is not None:
        feat = np.hstack([feat, normalize(noisy_mfcc, stats[FeatureKind.MFCC])])
    n = feat.shape[0]
    if not 1 <= noise_aware_frames <= n:
        raise ValueError(f"need 1 <= k <= n_frames={n}, got k={noise_aware_frames}")
    index = np.clip(np.arange(n)[:, None] + np.arange(-tau, tau + 1)[None, :], 0, n - 1)
    spliced = feat[index].reshape(n, -1)
    noise_vec = feat[:noise_aware_frames].mean(axis=0)
    return np.hstack([spliced, np.tile(noise_vec, (n, 1))])


def materialised_training_data(
    corpus_dir, entries, variant: Variant, stats: dict, tau: int, noise_aware_frames: int
) -> TrainingData:
    """Every utterance's rows built by spliced_input_rows, stacked in float64
    and then cast to float32."""
    features_dir = Path(corpus_dir) / FEATURES_DIR
    want_mfcc = FeatureKind.MFCC in variant.head_kinds
    want_ibm = FeatureKind.IBM in variant.head_kinds
    inputs, t_lps, t_mfcc, t_ibm = [], [], [], []
    for entry in entries:
        uid = entry.utterance_id
        noisy_lps = container.read_features(feature_path(features_dir, uid, "noisy_lps")).data
        noisy_mfcc = None
        if FeatureKind.MFCC in variant.input_kinds:
            noisy_mfcc = container.read_features(feature_path(features_dir, uid, "noisy_mfcc")).data
        inputs.append(spliced_input_rows(noisy_lps, noisy_mfcc, stats, tau, noise_aware_frames))
        clean_lps = container.read_features(feature_path(features_dir, uid, "clean_lps"))
        t_lps.append(normalize(clean_lps.data, stats[FeatureKind.LPS]))
        if want_mfcc:
            clean_mfcc = container.read_features(feature_path(features_dir, uid, "clean_mfcc"))
            t_mfcc.append(normalize(clean_mfcc.data, stats[FeatureKind.MFCC]))
        if want_ibm:
            t_ibm.append(container.read_features(feature_path(features_dir, uid, "ibm")).data)
    return dense_rows(
        inputs=np.vstack(inputs).astype(np.float32),
        targets_lps=np.vstack(t_lps).astype(np.float32),
        targets_mfcc=np.vstack(t_mfcc).astype(np.float32) if want_mfcc else None,
        targets_ibm=np.vstack(t_ibm).astype(np.float32) if want_ibm else None,
    )
