"""Inference on noisy audio, mask-gated touch-up, and waveform resynthesis.

The enhancement path mirrors feature extraction at training time exactly:
log-power (and optionally cepstral) features are normalized, spliced, and
augmented with the leading-frame noise estimate before the forward pass.
The estimated log-power spectra are brought back to their natural scale and
optionally blended with the noisy spectra where the estimated mask says the
bin is speech-dominant, then resynthesized with the noisy phase.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import build_input_rows, denormalize
from .dsp import (
    Spectrogram,
    StftConfig,
    Waveform,
    istft,
    magnitude_phase,
    min_samples,
    stft,
)
from .errors import ConfigError, SpecJointError
from .features import FeatureKind, FeatureMatrix, MelBank, lps, mfcc
from .network import Model, predict

# Estimated masks come from a linear head, so values may overshoot 1 a bit.
_GAMMA_MAX = 1.1


@dataclass(frozen=True)
class PostProcessConfig:
    """Thresholds for the three-way mask gate on enhanced spectra."""

    gamma: float = 0.9
    epsilon: float = 0.6
    enabled: bool = True

    def __post_init__(self):
        if not 0.0 <= self.epsilon < self.gamma <= _GAMMA_MAX:
            raise ConfigError(
                f"need 0 <= epsilon < gamma <= {_GAMMA_MAX}, "
                f"got epsilon={self.epsilon}, gamma={self.gamma}"
            )


@dataclass
class EnhanceResult:
    """An enhanced waveform and its counters: n_frames, n_bins, clipped_samples,
    and the gate's kept_noisy, averaged and kept_estimate when it ran."""

    enhanced: Waveform
    counters: dict[str, int]


def enhance_features(
    model: Model, noisy: Waveform, stft_config: StftConfig, bank: MelBank | None = None
) -> tuple[FeatureMatrix, FeatureMatrix | None, Spectrogram, FeatureMatrix]:
    """Forward pass over one utterance; returns estimates plus the noisy STFT and LPS.

    The log-power estimate is denormalized back to its natural scale; mask
    estimates are returned raw. The noisy spectrogram and its log-power
    spectrum are returned so callers can gate against them and reuse the phase.
    An utterance shorter than the model's noise_aware_frames frames is rejected.
    """
    needed = min_samples(model.noise_aware_frames, stft_config)
    if len(noisy) < needed:
        raise SpecJointError(
            f"{len(noisy)} samples is too short: the model needs at least {needed} samples "
            f"({model.noise_aware_frames} frames)"
        )
    spec = stft(noisy, stft_config)
    noisy_lps = lps(spec)
    noisy_mfcc = None
    if FeatureKind.MFCC in model.variant.input_kinds:
        if bank is None:
            raise ConfigError(f"variant {model.variant.value!r} needs a mel filter bank")
        noisy_mfcc = mfcc(spec, bank).data
    frames, windows = build_input_rows(
        noisy_lps.data, noisy_mfcc, model.stats, model.tau, model.noise_aware_frames
    )
    outputs = predict(model, frames[windows].reshape(noisy_lps.n_frames, -1))
    estimated = denormalize(
        outputs[FeatureKind.LPS].astype(np.float64), model.stats[FeatureKind.LPS]
    )
    mask = None
    if FeatureKind.IBM in outputs:
        mask = FeatureMatrix(outputs[FeatureKind.IBM].astype(np.float64), FeatureKind.IBM)
    return FeatureMatrix(estimated, FeatureKind.LPS), mask, spec, noisy_lps


def post_process(
    noisy_lps: np.ndarray,
    estimated_lps: np.ndarray,
    mask: np.ndarray,
    config: PostProcessConfig,
) -> tuple[np.ndarray, dict[str, int]]:
    """Per-bin three-way gate between the noisy and estimated spectra.

    Where the mask is at least gamma the noisy value is kept (the bin is
    speech-dominant, so the observation is already close to clean); strictly
    between epsilon and gamma the two are averaged; otherwise the estimate
    stands. Operates on unnormalized log-power values. Returns the gated
    spectra and how many units took each branch.
    """
    if not noisy_lps.shape == estimated_lps.shape == mask.shape:
        raise ValueError(
            f"shape mismatch: noisy {noisy_lps.shape}, "
            f"estimate {estimated_lps.shape}, mask {mask.shape}"
        )
    keep = mask >= config.gamma
    blend = (mask > config.epsilon) & ~keep
    out = np.where(keep, noisy_lps, np.where(blend, (noisy_lps + estimated_lps) / 2.0, estimated_lps))
    kept_noisy, averaged = int(keep.sum()), int(blend.sum())
    return out, {
        "kept_noisy": kept_noisy,
        "averaged": averaged,
        "kept_estimate": mask.size - kept_noisy - averaged,
    }


def oracle_post_process(
    noisy_lps: np.ndarray,
    estimated_lps: np.ndarray,
    true_ibm: np.ndarray,
    config: PostProcessConfig,
) -> tuple[np.ndarray, dict[str, int]]:
    """Gate with the ground-truth binary mask; a ceiling for mask quality."""
    if not np.all((true_ibm == 0.0) | (true_ibm == 1.0)):
        raise ValueError("oracle mask must contain only 0 and 1")
    return post_process(noisy_lps, estimated_lps, true_ibm, config)


def reconstruct(
    final_lps: FeatureMatrix | np.ndarray,
    phases: np.ndarray,
    stft_config: StftConfig,
    target_len: int,
    sample_rate: int,
) -> tuple[Waveform, int]:
    """Log-power plus noisy phase back to samples; returns the clip count.

    Magnitudes are exp(lps/2). Samples outside [-1, 1] are clipped and
    counted rather than renormalized, so level-sensitive metrics stay
    comparable across utterances.
    """
    data = final_lps.data if isinstance(final_lps, FeatureMatrix) else final_lps
    if data.shape != phases.shape:
        raise ValueError(f"shape mismatch: lps {data.shape}, phases {phases.shape}")
    spec = Spectrogram(np.exp(data / 2.0) * np.exp(1j * phases), stft_config, sample_rate)
    raw = istft(spec, target_len)
    clipped = int(np.count_nonzero((raw.samples < -1.0) | (raw.samples > 1.0)))
    return Waveform(np.clip(raw.samples, -1.0, 1.0), sample_rate), clipped


def check_post_process(model: Model, post: PostProcessConfig) -> None:
    """Raise unless the gate can run: when enabled, it needs the model's mask head."""
    if post.enabled and not any(h.kind == FeatureKind.IBM for h in model.heads):
        raise ConfigError(f"variant {model.variant.value!r} has no mask head; turn post-processing off")


def enhance_waveform(
    model: Model,
    noisy: Waveform,
    stft_config: StftConfig,
    bank: MelBank | None = None,
    post: PostProcessConfig = PostProcessConfig(),
) -> EnhanceResult:
    """Full enhancement of one utterance.

    The gate is on by default, as in PostProcessConfig() and the command
    line, so the model must have a mask head unless `post` turns it off.
    With the gate disabled the output is built directly from the network
    estimate, bit-exact with a mask-free model of identical weights.
    """
    check_post_process(model, post)
    estimated, mask, spec, noisy_lps = enhance_features(model, noisy, stft_config, bank)
    final = estimated.data
    counters = {"n_frames": final.shape[0], "n_bins": final.shape[1]}
    if post.enabled:
        final, gate = post_process(noisy_lps.data, final, mask.data, post)
        counters.update(gate)
    _, phases = magnitude_phase(spec)
    enhanced, counters["clipped_samples"] = reconstruct(
        final, phases, stft_config, len(noisy), noisy.sample_rate
    )
    return EnhanceResult(enhanced, counters)


def write_diagnostics(path: str | Path, result: EnhanceResult) -> None:
    """The result's counters as UTF-8 key=value lines, sorted by key."""
    lines = [f"{key}={value}" for key, value in sorted(result.counters.items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
