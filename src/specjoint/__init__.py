"""Multi-objective spectral-mapping speech enhancement toolkit.

A feed-forward network maps spliced noisy log-power spectra (optionally
with cepstral features and a static noise estimate) to clean spectral
targets under a weighted multi-head loss; an estimated time-frequency mask
then gates a per-bin blend of the noisy and estimated spectra before the
waveform is rebuilt with the noisy phase. Includes corpus mixing at target
SNRs, deterministic training, and segmental-SNR / intelligibility /
log-spectral-distortion evaluation.
"""

from .config import RunConfig
from .container import read_features, write_features
from .corpus import (
    MixSpec,
    NormStats,
    TrainingData,
    Variant,
    assemble_batches,
    build_corpus,
    build_input_rows,
    denormalize,
    estimate_noise_aware_vector,
    input_dim,
    load_training_data,
    mix_at_snr,
    normalize,
    read_corpus_stats,
    read_manifest,
    read_norm_stats,
    write_manifest,
    write_norm_stats,
)
from .dsp import (
    Spectrogram,
    StftConfig,
    Waveform,
    dct_matrix,
    istft,
    magnitude_phase,
    combine_magnitude_phase,
    stft,
    window,
)
from .enhance import (
    PostProcessConfig,
    enhance_features,
    enhance_waveform,
    oracle_post_process,
    post_process,
    reconstruct,
    write_diagnostics,
)
from .errors import (
    AudioFormatError,
    ConfigError,
    FormatError,
    MetricError,
    ScalingError,
    SpecJointError,
    TrainingDivergedError,
)
from .features import (
    FeatureKind,
    FeatureMatrix,
    IbmConfig,
    compute_ibm,
    hz_to_mel,
    lps,
    mel_bank,
    mel_to_hz,
    mfcc,
    splice,
)
from .metrics import (
    distortion_profile,
    profile_csv,
    report_csv,
    ssnr,
    stoi,
)
from .network import (
    EpochStats,
    HeadSpec,
    Model,
    TrainConfig,
    backward,
    batch_loss,
    init_model,
    load_model,
    loss_and_output_grad,
    mean_losses,
    predict,
    save_model,
    sgd_step,
    train,
)
from .wavio import read_wav, write_wav

__version__ = "0.1.0"
