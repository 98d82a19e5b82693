"""Paired noisy/clean corpus construction, normalization, and batching.

A corpus directory is the unit of reproducibility: a text manifest listing
(clean path, noise path, SNR, noise offset, split), feature containers,
global normalization statistics fitted on the noisy training features, and
the mixed noisy waveforms. The clean LPS and MFCC targets depend on the
voice alone, so they are computed and stored once per voice; the noisy
inputs and the mask depend on the noise too, so they are stored once per
mixture.
"""

import contextlib
import enum
import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import container
from .dsp import DEFAULT_SAMPLE_RATE, Spectrogram, StftConfig, Waveform, stft
from .errors import ConfigError, FormatError, ScalingError
from .features import (
    DEFAULT_CONTEXT,
    FeatureKind,
    FeatureMatrix,
    IbmConfig,
    MelBank,
    compute_ibm,
    lps,
    mfcc,
    splice,
)
from .wavio import read_wav, write_wav

DEFAULT_SNR_GRID = (20.0, 15.0, 10.0, 5.0, 0.0, -5.0)
DEFAULT_NOISE_AWARE_FRAMES = 6
DEFAULT_VAL_FRACTION = 0.1
DEFAULT_TEST_FRACTION = 0.2

VARIANCE_FLOOR = 1e-8

SPLITS = ("train", "val", "test")

MANIFEST_NAME = "manifest.tsv"
FEATURES_DIR = "features"
NOISY_DIR = "noisy"
STATS_DIR = "stats"

# Feature containers by the kind they hold. An input file feeds the network's
# input rows and its kind's statistics; a clean file, one per voice, is what
# the head of its kind is trained against; the mask file, one per mixture, is
# the mask head's target.
_INPUT_FILES = {FeatureKind.LPS: "noisy_lps", FeatureKind.MFCC: "noisy_mfcc"}
_CLEAN_FILES = {FeatureKind.LPS: "clean_lps", FeatureKind.MFCC: "clean_mfcc"}
_MASK_FILE = "ibm"

# Statistics container of each input kind, fitted on the train split.
_STATS_FILES = {FeatureKind.LPS: "lps.sjfm", FeatureKind.MFCC: "mfcc.sjfm"}


class Variant(enum.Enum):
    """Which secondary features join the input and the output heads."""

    BASELINE = "baseline"
    MFCC_OUT = "mfcc-o"
    MFCC = "mfcc"
    IBM = "ibm"
    MFCC_IBM = "mfcc+ibm"

    @classmethod
    def parse(cls, name: str) -> "Variant":
        for variant in cls:
            if variant.value == name:
                return variant
        raise ConfigError(f"unknown variant {name!r}; expected one of {[v.value for v in cls]}")

    @property
    def input_kinds(self) -> tuple[FeatureKind, ...]:
        if self in (Variant.MFCC, Variant.MFCC_IBM):
            return (FeatureKind.LPS, FeatureKind.MFCC)
        return (FeatureKind.LPS,)

    @property
    def head_kinds(self) -> tuple[FeatureKind, ...]:
        heads = [FeatureKind.LPS]
        if self in (Variant.MFCC_OUT, Variant.MFCC, Variant.MFCC_IBM):
            heads.append(FeatureKind.MFCC)
        if self in (Variant.IBM, Variant.MFCC_IBM):
            heads.append(FeatureKind.IBM)
        return tuple(heads)


@dataclass(frozen=True)
class MixSpec:
    """One manifest row: how a single noisy utterance is produced."""

    clean_path: Path
    noise_path: Path
    snr_db: float
    noise_offset: int
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        if not np.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")

    @property
    def voice_id(self) -> str:
        """Names the clean voice's own feature files."""
        return self.clean_path.stem

    @property
    def utterance_id(self) -> str:
        return f"{self.voice_id}__{self.noise_path.stem}__snr{self.snr_db:g}dB"


@dataclass(frozen=True)
class NormStats:
    """Per-dimension global mean/variance of the noisy training features."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        variance = np.asarray(self.variance, dtype=np.float64)
        if mean.shape != variance.shape or mean.ndim != 1:
            raise ValueError("mean and variance must be 1-D vectors of equal length")
        if np.any(variance <= 0.0):
            raise ValueError("variance must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)

    @property
    def dims(self) -> int:
        return self.mean.shape[0]


def mix_at_snr(
    clean: Waveform, noise: Waveform, snr_db: float, noise_offset: int
) -> tuple[Waveform, Waveform]:
    """Scale noise to hit the requested SNR and add it to the clean signal.

    The noise is read from noise_offset with wrap-around, then scaled by
    g = sqrt(P_clean / (P_noise * 10^(snr/10))) where P is the mean power
    over the utterance. Returns (noisy, scaled_noise) so mask targets can be
    computed from the exact mixture components.
    """
    if clean.sample_rate != noise.sample_rate:
        raise ValueError(f"sample rates differ: {clean.sample_rate} vs {noise.sample_rate}")
    indices = (noise_offset + np.arange(len(clean))) % len(noise)
    segment = noise.samples[indices]
    clean_power = np.mean(clean.samples**2)
    noise_power = np.mean(segment**2)
    # Below the smallest normal double a power has lost its precision, so
    # the SNR it would set is wrong: count it as silence.
    if clean_power < np.finfo(np.float64).tiny:
        raise ScalingError("clean signal is silent; cannot set an SNR")
    if noise_power < np.finfo(np.float64).tiny:
        raise ScalingError("noise segment is silent; cannot set an SNR")
    try:  # `**` keeps the corpus bits np.power would change, but raises on overflow
        scale = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        scale = np.inf
    with np.errstate(over="ignore", divide="ignore"):
        gain = np.sqrt(clean_power / (noise_power * scale))
    if not np.isfinite(gain):
        raise ScalingError(f"noise segment is too quiet to reach {snr_db:g} dB SNR")
    scaled = segment * gain
    return (
        Waveform(clean.samples + scaled, clean.sample_rate),
        Waveform(scaled, clean.sample_rate),
    )


def estimate_noise_aware_vector(data: np.ndarray, k: int) -> np.ndarray:
    """Static noise estimate: per-dimension mean of the first k frames."""
    if not 1 <= k <= data.shape[0]:
        raise ValueError(f"need 1 <= k <= n_frames={data.shape[0]}, got k={k}")
    return data[:k].mean(axis=0)


class _StreamingStats:
    """Sum-based global mean and population variance, floored at 1e-8, over
    blocks of frames; the result does not depend on how they are split."""

    def __init__(self):
        self.count = 0
        self.total = None
        self.total_sq = None

    def add(self, data: np.ndarray) -> None:
        if self.total is None:
            self.total = np.zeros(data.shape[1])
            self.total_sq = np.zeros(data.shape[1])
        self.count += data.shape[0]
        self.total += data.sum(axis=0)
        self.total_sq += (data**2).sum(axis=0)

    def finish(self) -> NormStats:
        if self.count < 2:
            raise ValueError(f"need at least 2 frames to fit statistics, got {self.count}")
        mean = self.total / self.count
        variance = np.maximum(self.total_sq / self.count - mean**2, VARIANCE_FLOOR)
        return NormStats(mean, variance)


def normalize(data: np.ndarray, stats: NormStats) -> np.ndarray:
    if data.shape[-1] != stats.dims:
        raise ValueError(f"dim mismatch: data has {data.shape[-1]}, stats have {stats.dims}")
    return (data - stats.mean) / np.sqrt(stats.variance)


def denormalize(data: np.ndarray, stats: NormStats) -> np.ndarray:
    if data.shape[-1] != stats.dims:
        raise ValueError(f"dim mismatch: data has {data.shape[-1]}, stats have {stats.dims}")
    return data * np.sqrt(stats.variance) + stats.mean


def write_norm_stats(path: str | Path, stats: NormStats, kind: FeatureKind) -> None:
    """Persist stats as a two-row (mean, variance) feature container."""
    container.write_features(
        path, FeatureMatrix(np.vstack([stats.mean, stats.variance]), kind)
    )


def read_norm_stats(path: str | Path) -> NormStats:
    rows = container.read_features(path)
    if rows.n_frames != 2:
        raise FormatError(f"{path}: stats container must have exactly 2 rows, got {rows.n_frames}")
    try:
        return NormStats(rows.data[0], rows.data[1])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def format_float(value: float) -> str:
    """Short form when it reads back as the same float, else the exact repr."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def write_manifest(path: str | Path, entries: Iterable[MixSpec]) -> None:
    lines = [
        f"{e.clean_path}\t{e.noise_path}\t{format_float(e.snr_db)}\t{e.noise_offset}\t{e.split}"
        for e in entries
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path: str | Path) -> list[MixSpec]:
    entries = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise FormatError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(fields)}")
        clean, noise, snr, offset, split = fields
        try:
            entries.append(MixSpec(Path(clean), Path(noise), float(snr), int(offset), split))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return entries


def extract_mixture_features(
    clean: Waveform,
    clean_spec: Spectrogram,
    noise: Waveform,
    snr_db: float,
    noise_offset: int,
    stft_config: StftConfig,
    bank: MelBank,
    ibm_config: IbmConfig,
) -> tuple[Waveform, dict[str, FeatureMatrix]]:
    """Mix one pair; return the noisy waveform and each per-mixture file's matrix.

    clean_spec is stft(clean), the voice's spectrogram that every one of its
    mixtures shares; the mask compares it with the scaled noise's.
    """
    noisy, scaled_noise = mix_at_snr(clean, noise, snr_db, noise_offset)
    noisy_spec = stft(noisy, stft_config)
    noise_spec = stft(scaled_noise, stft_config)
    return noisy, {
        _INPUT_FILES[FeatureKind.LPS]: lps(noisy_spec),
        _INPUT_FILES[FeatureKind.MFCC]: mfcc(noisy_spec, bank),
        _MASK_FILE: compute_ibm(clean_spec, noise_spec, ibm_config),
    }


def feature_path(features_dir: str | Path, file_id: str, name: str) -> Path:
    """A clean file is named by its voice id, any other by its utterance id."""
    if name not in (*_INPUT_FILES.values(), *_CLEAN_FILES.values(), _MASK_FILE):
        raise ValueError(f"unknown feature name {name!r}")
    return Path(features_dir) / f"{file_id}.{name}.sjfm"


def assign_splits(
    clean_paths: list[Path], val_fraction: float, test_fraction: float, seed: int
) -> dict[Path, str]:
    """Split clean utterances (not mixtures) so no utterance leaks across splits."""
    if not (val_fraction >= 0 and test_fraction >= 0 and val_fraction + test_fraction < 1.0):
        raise ConfigError("val/test fractions must be >= 0 and sum to < 1")
    ordered = sorted(clean_paths)
    rng = np.random.default_rng(seed)
    permuted = [ordered[i] for i in rng.permutation(len(ordered))]
    n_test = int(round(test_fraction * len(ordered)))
    n_val = int(round(val_fraction * len(ordered)))
    if n_test + n_val >= len(ordered):
        raise ConfigError(f"no voice left for training: {len(ordered)} voices, {n_test} test, {n_val} val")
    assignment = {}
    for i, path in enumerate(permuted):
        if i < n_test:
            assignment[path] = "test"
        elif i < n_test + n_val:
            assignment[path] = "val"
        else:
            assignment[path] = "train"
    return assignment


def build_corpus(
    clean_paths: list[Path],
    noise_paths: list[Path],
    out_dir: str | Path,
    stft_config: StftConfig,
    bank: MelBank,
    ibm_config: IbmConfig,
    snr_grid: tuple[float, ...] = DEFAULT_SNR_GRID,
    val_fraction: float = DEFAULT_VAL_FRACTION,
    test_fraction: float = DEFAULT_TEST_FRACTION,
    seed: int = 0,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> list[MixSpec]:
    """Mix every clean x noise x SNR combination and write the corpus directory.

    Writes the manifest; per voice, its clean LPS and MFCC containers, from
    one STFT of the voice; per mixture, its noisy LPS, noisy MFCC and mask
    containers and its noisy waveform; and normalization statistics fitted
    on the noisy train-split features only. Deterministic for a fixed seed.
    Two mixtures that would share an utterance id are a ConfigError before
    anything is written. A call that
    fails part-way removes the directories it made and every file it began
    to write, same-named files of an earlier corpus included. Other files
    stay, among them an earlier manifest unless writing the new one failed.
    """
    if not clean_paths:
        raise ConfigError("no clean utterances given")
    if not noise_paths:
        raise ConfigError("no noise files given")
    splits = assign_splits(clean_paths, val_fraction, test_fraction, seed)
    noises = {path: read_wav(path, expected_rate=sample_rate) for path in sorted(noise_paths)}
    # Offsets are drawn in a fixed (sorted) order so the manifest is
    # byte-identical across runs with the same seed.
    rng = np.random.default_rng(seed + 1)
    entries: dict[str, MixSpec] = {}  # by utterance id, in manifest order
    for clean_path in sorted(clean_paths):
        for noise_path, noise in noises.items():
            for snr_db in snr_grid:
                offset = int(rng.integers(0, len(noise)))
                entry = MixSpec(clean_path, noise_path, float(snr_db), offset, splits[clean_path])
                if entries.setdefault(entry.utterance_id, entry) is not entry:
                    raise ConfigError(f"two mixtures would share the utterance id {entry.utterance_id!r}")
    out_dir = Path(out_dir)
    features_dir = out_dir / FEATURES_DIR
    noisy_dir = out_dir / NOISY_DIR
    stats_dir = out_dir / STATS_DIR
    subdirs = (features_dir, noisy_dir, stats_dir)
    created = sorted(
        {d for sub in subdirs for d in (sub, *sub.parents) if not d.exists()},
        key=lambda d: len(d.parts),
    )
    for sub in subdirs:
        sub.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []  # listed before each write, so a partial file goes too
    try:
        sums = {kind: _StreamingStats() for kind in _STATS_FILES}
        voices = itertools.groupby(entries.values(), key=lambda e: (e.clean_path, e.voice_id))
        for (clean_path, voice_id), mixtures in voices:
            clean = read_wav(clean_path, expected_rate=sample_rate)
            clean_spec = stft(clean, stft_config)
            targets = {FeatureKind.LPS: lps(clean_spec), FeatureKind.MFCC: mfcc(clean_spec, bank)}
            for kind, name in _CLEAN_FILES.items():
                written.append(feature_path(features_dir, voice_id, name))
                container.write_features(written[-1], targets[kind])
            for entry in mixtures:
                try:
                    noisy, features = extract_mixture_features(
                        clean, clean_spec, noises[entry.noise_path], entry.snr_db, entry.noise_offset,
                        stft_config, bank, ibm_config,
                    )
                except ScalingError as exc:
                    raise ScalingError(
                        f"{clean_path} with {entry.noise_path} at offset {entry.noise_offset}: {exc}"
                    ) from exc
                uid = entry.utterance_id
                for name, matrix in features.items():
                    written.append(feature_path(features_dir, uid, name))
                    container.write_features(written[-1], matrix)
                written.append(noisy_dir / f"{uid}.wav")
                write_wav(written[-1], noisy)
                if entry.split == "train":
                    for kind, total in sums.items():
                        total.add(features[_INPUT_FILES[kind]].data)

        for kind, name in _STATS_FILES.items():
            written.append(stats_dir / name)
            write_norm_stats(written[-1], sums[kind].finish(), kind)
        written.append(out_dir / MANIFEST_NAME)
        write_manifest(written[-1], entries.values())
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for directory in reversed(created):
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    return list(entries.values())


def read_corpus_stats(corpus_dir: str | Path) -> dict[FeatureKind, NormStats]:
    return {kind: read_norm_stats(Path(corpus_dir) / STATS_DIR / name) for kind, name in _STATS_FILES.items()}


def build_input_rows(
    noisy_lps: np.ndarray,
    noisy_mfcc: np.ndarray | None,
    stats: dict[FeatureKind, NormStats],
    tau: int,
    noise_aware_frames: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One utterance's network input, as a float32 frame store and its windows.

    The n rows of `frames` are the noisy LPS, then the MFCC when given, each
    normalized with its stats; row n is the static noise-aware estimate, the
    mean of the first noise_aware_frames normalized rows. Row i of `windows`
    lists frames i-tau..i+tau, clamped at the utterance's edges, then n, so
    frames[windows].reshape(n, -1) is the input matrix.
    """
    feat = normalize(noisy_lps, stats[FeatureKind.LPS])
    if noisy_mfcc is not None:
        feat = np.hstack([feat, normalize(noisy_mfcc, stats[FeatureKind.MFCC])])
    n = feat.shape[0]
    noise_vec = estimate_noise_aware_vector(feat, noise_aware_frames)
    frames = np.empty((n + 1, feat.shape[1]), dtype=np.float32)
    frames[:n] = feat
    frames[n] = noise_vec
    windows = np.empty((n, 2 * tau + 2), dtype=np.intp)
    windows[:, :-1] = splice(np.arange(n)[:, None], tau)
    windows[:, -1] = n
    return frames, windows


def feature_widths(variant: Variant, lps_dims: int, mfcc_dims: int) -> tuple[int, dict[FeatureKind, int]]:
    """The width of one input frame and of each head, in order; a mask is as wide as the LPS."""
    widths = {FeatureKind.LPS: lps_dims, FeatureKind.MFCC: mfcc_dims, FeatureKind.IBM: lps_dims}
    frame = sum(widths[kind] for kind in variant.input_kinds)
    return frame, {kind: widths[kind] for kind in variant.head_kinds}


def input_dim(variant: Variant, lps_dims: int, mfcc_dims: int, tau: int) -> int:
    """2 tau + 1 spliced frames, then the noise-aware estimate."""
    return feature_widths(variant, lps_dims, mfcc_dims)[0] * (2 * tau + 2)


@dataclass
class TrainingData:
    """Row-aligned inputs and targets: a whole split, or rows taken from one.

    `frames` holds each distinct feature row once, and row i of `windows`
    lists the rows of `frames` that input row i concatenates. The clean
    targets depend on the voice alone: `clean_lps` and `clean_mfcc` hold
    each voice's frames once, and row i's targets are their row
    `clean_rows[i]`. `inputs`, `targets_lps` and `targets_mfcc` gather on
    demand, so no spliced matrix and no per-row copy of a voice is held.
    """

    frames: np.ndarray
    windows: np.ndarray
    clean_lps: np.ndarray
    clean_mfcc: np.ndarray | None
    clean_rows: np.ndarray
    targets_ibm: np.ndarray | None

    @property
    def n_rows(self) -> int:
        return self.windows.shape[0]

    @property
    def inputs(self) -> np.ndarray:
        """The input matrix, gathered from the frame store."""
        width = self.windows.shape[1] * self.frames.shape[1]
        return self.frames[self.windows].reshape(self.n_rows, width)

    @property
    def targets_lps(self) -> np.ndarray:
        return self.clean_lps[self.clean_rows]

    @property
    def targets_mfcc(self) -> np.ndarray | None:
        return None if self.clean_mfcc is None else self.clean_mfcc[self.clean_rows]

    def take(self, rows) -> "TrainingData":
        """The rows picked by an index array or a slice; shares the frame and clean stores."""
        ibm = None if self.targets_ibm is None else self.targets_ibm[rows]
        return replace(self, windows=self.windows[rows], clean_rows=self.clean_rows[rows], targets_ibm=ibm)

    def targets(self, kind: FeatureKind) -> np.ndarray:
        """The target block a head of the given kind is trained against."""
        if kind == FeatureKind.LPS:
            return self.targets_lps
        block = self.targets_mfcc if kind == FeatureKind.MFCC else self.targets_ibm
        if block is None:
            raise ValueError(f"rows have no {'cepstral' if kind == FeatureKind.MFCC else 'mask'} targets")
        return block


def load_training_data(
    corpus_dir: str | Path,
    entries: list[MixSpec],
    variant: Variant,
    stats: dict[FeatureKind, NormStats],
    tau: int = DEFAULT_CONTEXT,
    noise_aware_frames: int = DEFAULT_NOISE_AWARE_FRAMES,
) -> TrainingData:
    """Read the given manifest entries into float32 frames, windows and targets.

    The frame store lays each utterance's build_input_rows store end to end,
    and offsets its windows to match. The clean stores lay each voice's
    targets end to end, in the order the voices first appear, read once
    however many of its mixtures are given. Clean targets are normalized
    with the noisy-data statistics of their kind; mask targets stay raw
    {0, 1}. Every array is allocated once, sized from the container headers.
    """
    features_dir = Path(corpus_dir) / FEATURES_DIR
    dims = {kind: s.dims for kind, s in stats.items()}
    frame_dims, head_dims = feature_widths(variant, dims[FeatureKind.LPS], dims.get(FeatureKind.MFCC, 0))
    inputs = {kind: _INPUT_FILES[kind] for kind in variant.input_kinds}
    cleans = {kind: _CLEAN_FILES[kind] for kind in variant.head_kinds if kind in _CLEAN_FILES}
    lengths = []
    voices: dict[str, tuple[int, int]] = {}  # voice id -> (first row in the clean stores, frames)
    n_clean = 0
    for entry in entries:
        path = feature_path(features_dir, entry.utterance_id, inputs[FeatureKind.LPS])
        n_frames, _ = container.read_shape(path)
        if n_frames < noise_aware_frames:
            raise FormatError(
                f"{path}: {n_frames} frames is too short: the noise-aware estimate "
                f"needs at least {noise_aware_frames}"
            )
        lengths.append(n_frames)
        target = feature_path(features_dir, entry.voice_id, _CLEAN_FILES[FeatureKind.LPS])
        if entry.voice_id not in voices:
            voices[entry.voice_id] = (n_clean, container.read_shape(target)[0])
            n_clean += voices[entry.voice_id][1]
        _, voice_frames = voices[entry.voice_id]
        if voice_frames != n_frames:
            raise FormatError(f"{target}: {voice_frames} frames, the noisy LPS has {n_frames}")
    n_rows = sum(lengths)
    frames = np.empty((n_rows + len(entries), frame_dims), dtype=np.float32)
    windows = np.empty((n_rows, 2 * tau + 2), dtype=np.intp)
    clean_rows = np.empty(n_rows, dtype=np.intp)
    clean = {kind: np.empty((n_clean, head_dims[kind]), dtype=np.float32) for kind in cleans}
    ibm = np.empty((n_rows, head_dims[FeatureKind.IBM]), np.float32) if FeatureKind.IBM in head_dims else None

    def read(path: Path, kind: FeatureKind, n_frames: int, width: int) -> np.ndarray:
        block = container.read_features(path)
        if block.n_frames != n_frames:
            raise FormatError(f"{path}: {block.n_frames} frames, the noisy LPS has {n_frames}")
        if (block.kind, block.dims) != (kind, width):
            raise FormatError(f"{path}: {block.dims} {block.kind.name} columns, expected {width} {kind.name}")
        return block.data

    start = 0
    for u, (entry, n_frames) in enumerate(zip(entries, lengths)):
        rows = slice(start, start + n_frames)
        store = start + u  # each utterance before this one added a noise row
        noisy = {
            kind: read(feature_path(features_dir, entry.utterance_id, name), kind, n_frames, dims[kind])
            for kind, name in inputs.items()
        }
        utt_frames, utt_windows = build_input_rows(
            noisy[FeatureKind.LPS], noisy.get(FeatureKind.MFCC), stats, tau, noise_aware_frames
        )
        frames[store : store + n_frames + 1] = utt_frames
        np.add(utt_windows, store, out=windows[rows])
        first = voices[entry.voice_id][0]
        clean_rows[rows] = np.arange(first, first + n_frames)
        if ibm is not None:
            path = feature_path(features_dir, entry.utterance_id, _MASK_FILE)
            ibm[rows] = read(path, FeatureKind.IBM, n_frames, head_dims[FeatureKind.IBM])
        start += n_frames
    for voice_id, (first, n_frames) in voices.items():
        for kind, name in cleans.items():
            block = read(feature_path(features_dir, voice_id, name), kind, n_frames, head_dims[kind])
            clean[kind][first : first + n_frames] = normalize(block, stats[kind])
    return TrainingData(
        frames, windows, clean[FeatureKind.LPS], clean.get(FeatureKind.MFCC), clean_rows, ibm
    )


def assemble_batches(data: TrainingData, batch_size: int, shuffle_seed: int) -> Iterator[TrainingData]:
    """Yield shuffled mini-batches; deterministic order for a fixed seed."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(shuffle_seed).permutation(data.n_rows)
    for start in range(0, data.n_rows, batch_size):
        yield data.take(order[start : start + batch_size])
