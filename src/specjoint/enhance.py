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
    combine_magnitude_phase,
    istft,
    magnitude_phase,
    min_samples,
    stft,
)
from .errors import ConfigError, SpecJointError
from .features import FeatureKind, FeatureMatrix, MelBank, lps, mfcc
from .network import Model, predict

DEFAULT_GAMMA = 0.9
DEFAULT_EPSILON = 0.6

# Estimated masks come from a linear head, so values may overshoot 1 a bit.
_GAMMA_MAX = 1.1


@dataclass(frozen=True)
class PostProcessConfig:
    """Thresholds for the three-way mask gate on enhanced spectra."""

    gamma: float = DEFAULT_GAMMA
    epsilon: float = DEFAULT_EPSILON
    enabled: bool = True

    def __post_init__(self):
        if not 0.0 <= self.epsilon < self.gamma <= _GAMMA_MAX:
            raise ConfigError(
                f"need 0 <= epsilon < gamma <= {_GAMMA_MAX}, "
                f"got epsilon={self.epsilon}, gamma={self.gamma}"
            )


@dataclass(frozen=True)
class BranchCounts:
    """How many time-frequency units each gate branch handled."""

    kept_noisy: int
    averaged: int
    kept_estimate: int

    @property
    def total(self) -> int:
        return self.kept_noisy + self.averaged + self.kept_estimate


@dataclass
class EnhanceResult:
    enhanced: Waveform
    estimated_lps: FeatureMatrix
    final_lps: FeatureMatrix
    estimated_ibm: FeatureMatrix | None
    branch_counts: BranchCounts | None
    clipped_samples: int

    def diagnostics(self) -> dict[str, int]:
        out = {
            "n_frames": self.final_lps.n_frames,
            "n_bins": self.final_lps.dims,
            "clipped_samples": self.clipped_samples,
        }
        if self.branch_counts is not None:
            out["kept_noisy"] = self.branch_counts.kept_noisy
            out["averaged"] = self.branch_counts.averaged
            out["kept_estimate"] = self.branch_counts.kept_estimate
        return out


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
    if model.variant.mfcc_in_input:
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
) -> tuple[np.ndarray, BranchCounts]:
    """Per-bin three-way gate between the noisy and estimated spectra.

    Where the mask is at least gamma the noisy value is kept (the bin is
    speech-dominant, so the observation is already close to clean); strictly
    between epsilon and gamma the two are averaged; otherwise the estimate
    stands. Operates on unnormalized log-power values.
    """
    noisy_lps = np.asarray(noisy_lps)
    estimated_lps = np.asarray(estimated_lps)
    mask = np.asarray(mask)
    if not noisy_lps.shape == estimated_lps.shape == mask.shape:
        raise ValueError(
            f"shape mismatch: noisy {noisy_lps.shape}, "
            f"estimate {estimated_lps.shape}, mask {mask.shape}"
        )
    keep = mask >= config.gamma
    blend = (mask > config.epsilon) & ~keep
    out = np.where(keep, noisy_lps, np.where(blend, (noisy_lps + estimated_lps) / 2.0, estimated_lps))
    counts = BranchCounts(
        kept_noisy=int(keep.sum()),
        averaged=int(blend.sum()),
        kept_estimate=int(mask.size - keep.sum() - blend.sum()),
    )
    return out, counts


def oracle_post_process(
    noisy_lps: np.ndarray,
    estimated_lps: np.ndarray,
    true_ibm: np.ndarray,
    config: PostProcessConfig,
) -> tuple[np.ndarray, BranchCounts]:
    """Gate with the ground-truth binary mask; a ceiling for mask quality."""
    true_ibm = np.asarray(true_ibm)
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
    data = final_lps.data if isinstance(final_lps, FeatureMatrix) else np.asarray(final_lps)
    if data.shape != phases.shape:
        raise ValueError(f"shape mismatch: lps {data.shape}, phases {phases.shape}")
    magnitudes = np.exp(data / 2.0)
    spec = combine_magnitude_phase(magnitudes, phases, stft_config, sample_rate)
    raw = istft(spec, target_len)
    clipped = int(np.count_nonzero((raw.samples < -1.0) | (raw.samples > 1.0)))
    return Waveform(np.clip(raw.samples, -1.0, 1.0), sample_rate), clipped


def enhance_waveform(
    model: Model,
    noisy: Waveform,
    stft_config: StftConfig,
    bank: MelBank | None = None,
    post: PostProcessConfig | None = None,
) -> EnhanceResult:
    """Full enhancement of one utterance.

    With the gate disabled the output is built directly from the network
    estimate, bit-exact with a mask-free model of identical weights. With it
    enabled the model must have a mask head.
    """
    post = post or PostProcessConfig(enabled=False)
    if post.enabled and not any(h.kind == FeatureKind.IBM for h in model.heads):
        raise ConfigError(
            f"variant {model.variant.value!r} has no mask head; disable post-processing"
        )
    estimated, mask, spec, noisy_lps = enhance_features(model, noisy, stft_config, bank)
    counts = None
    if post.enabled:
        final, counts = post_process(noisy_lps.data, estimated.data, mask.data, post)
        final_lps = FeatureMatrix(final, FeatureKind.LPS)
    else:
        final_lps = estimated
    _, phases = magnitude_phase(spec)
    enhanced, clipped = reconstruct(final_lps, phases, stft_config, len(noisy), noisy.sample_rate)
    return EnhanceResult(
        enhanced=enhanced,
        estimated_lps=estimated,
        final_lps=final_lps,
        estimated_ibm=mask,
        branch_counts=counts,
        clipped_samples=clipped,
    )


def write_diagnostics(path: str | Path, result: EnhanceResult) -> None:
    """Per-utterance counters as UTF-8 key=value lines, stable order."""
    diag = result.diagnostics()
    lines = [f"{key}={diag[key]}" for key in sorted(diag)]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
