"""Objective quality and intelligibility measures for enhanced speech.

Three measures: segmental SNR over speech-active frames, a short-time
intelligibility score built from one-third-octave envelope correlations,
and a per-frequency-bin log-spectral error profile. SSNR and STOI each split
into a half that depends on the reference alone and a half per test signal.
score_pairs is the one reader of clean/enhanced pairs; it cuts each pair to
the shorter length, and reads each clean voice once and analyses it once
per length its pairs are cut to.
"""

import csv
import io
import threading
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from pathlib import Path

import numpy as np
from scipy.signal import firwin, resample_poly

from .dsp import Waveform, frame_signal, overlap_add
from .errors import MetricError, SpecJointError
from .wavio import read_wav

SSNR_FRAME_LEN = 512
SSNR_HOP = 256
SSNR_FLOOR_DB = -10.0
SSNR_CEIL_DB = 35.0
SSNR_SILENCE_FLOOR = 1e-8

STOI_RATE = 10000
STOI_FRAME_LEN = 256
STOI_HOP = 128
STOI_FFT_SIZE = 512
STOI_N_BANDS = 15
STOI_MIN_FREQ = 150.0
STOI_SEGMENT = 30
STOI_DYN_RANGE_DB = 40.0
STOI_CLIP_DB = -15.0

_EPS = np.finfo(np.float64).eps


def _aligned(reference: Waveform, test: Waveform) -> tuple[np.ndarray, np.ndarray]:
    if reference.sample_rate != test.sample_rate:
        raise MetricError(
            f"sample rates differ: {reference.sample_rate} vs {test.sample_rate}"
        )
    n = min(len(reference), len(test))
    return reference.samples[:n], test.samples[:n]


def _ssnr_reference(ref: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SSNR's frames of the reference, their powers and the speech-active mask."""
    frames = frame_signal(ref, SSNR_FRAME_LEN, SSNR_HOP)
    if frames.shape[0] == 0:
        raise MetricError(f"signal shorter than one frame ({SSNR_FRAME_LEN} samples)")
    power = np.sum(frames**2, axis=1)
    active = power > SSNR_SILENCE_FLOOR * np.mean(ref**2) * SSNR_FRAME_LEN
    if not np.any(active):
        raise MetricError("reference has no speech-active frames")
    return frames, power, active


def ssnr(reference: Waveform, test: Waveform, analysis: tuple | None = None) -> float:
    """Mean per-frame SNR in dB, clamped to [-10, 35], over active frames.

    A frame is active when its mean power exceeds 1e-8 times the utterance
    mean power of the reference. Zero error clamps at the ceiling. analysis,
    when given, is this reference's half from analyse_reference.
    """
    ref, tst = _aligned(reference, test)
    ref_frames, ref_power, active = _ssnr_reference(ref) if analysis is None else analysis
    err_power = np.sum((ref_frames - frame_signal(tst, SSNR_FRAME_LEN, SSNR_HOP)) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        snr_db = 10.0 * np.log10(np.where(err_power > 0.0, ref_power / err_power, np.inf))
    return float(np.mean(np.clip(snr_db[active], SSNR_FLOOR_DB, SSNR_CEIL_DB)))


def _stoi_window() -> np.ndarray:
    # Interior of a symmetric Hann window, the convention of the reference
    # implementation (no zero endpoints).
    return np.hanning(STOI_FRAME_LEN + 2)[1:-1]


def _resample_filter(rate: int) -> np.ndarray | None:
    """The anti-aliasing filter resample_poly designs by default from rate to
    the STOI rate, or None at the STOI rate."""
    if rate == STOI_RATE:
        return None
    g = np.gcd(rate, STOI_RATE)
    max_rate = max(STOI_RATE // g, rate // g)
    return firwin(20 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0))


def _resample_to_stoi_rate(x: np.ndarray, rate: int, taps: np.ndarray | None = None) -> np.ndarray:
    """x at the STOI rate; taps is _resample_filter(rate), designed here if not given."""
    if rate == STOI_RATE:
        return x
    g = np.gcd(rate, STOI_RATE)
    taps = _resample_filter(rate) if taps is None else taps
    return resample_poly(x, STOI_RATE // g, rate // g, window=taps)


def _third_octave_bands() -> np.ndarray:
    """Rectangular band matrix over rfft bins, edges snapped to bin centers."""
    freqs = np.linspace(0, STOI_RATE, STOI_FFT_SIZE + 1)[: STOI_FFT_SIZE // 2 + 1]
    k = np.arange(STOI_N_BANDS, dtype=np.float64)
    f_low = STOI_MIN_FREQ * 2.0 ** ((2.0 * k - 1.0) / 6.0)
    f_high = STOI_MIN_FREQ * 2.0 ** ((2.0 * k + 1.0) / 6.0)
    bands = np.zeros((STOI_N_BANDS, freqs.shape[0]))
    for i in range(STOI_N_BANDS):
        lo = int(np.argmin((freqs - f_low[i]) ** 2))
        hi = int(np.argmin((freqs - f_high[i]) ** 2))
        bands[i, lo:hi] = 1.0
    return bands


@dataclass(frozen=True)
class _StoiReference:
    """The half of STOI that depends on the reference alone."""

    taps: np.ndarray | None  # the resampling filter, from _resample_filter
    window: np.ndarray
    bands: np.ndarray
    keep: np.ndarray  # frames within 40 dB of the loudest reference frame
    norms: np.ndarray  # per segment and band: the envelope norm
    ceiling: np.ndarray  # the clip ceiling of each envelope value
    unit: np.ndarray  # segments x bands x 30: mean removed, unit norm


def _band_envelopes(kept: np.ndarray, window: np.ndarray, bands: np.ndarray) -> np.ndarray:
    """Band envelopes of the signal rebuilt by overlap-add of the kept windowed frames."""
    frames = frame_signal(overlap_add(kept, STOI_HOP), STOI_FRAME_LEN, STOI_HOP) * window
    power = np.abs(np.fft.rfft(frames, n=STOI_FFT_SIZE, axis=1)) ** 2
    return np.sqrt(power @ bands.T)


def _stoi_reference(samples: np.ndarray, rate: int) -> _StoiReference:
    """Resample the reference to 10 kHz, keep its frames within 40 dB of the
    loudest, and cut its one-third-octave envelopes into 30-frame segments."""
    taps = _resample_filter(rate)
    window = _stoi_window()
    ref = _resample_to_stoi_rate(samples, rate, taps)
    frames = frame_signal(ref, STOI_FRAME_LEN, STOI_HOP) * window
    if frames.shape[0] == 0:
        raise MetricError("signal shorter than one frame after resampling")
    energies = 20.0 * np.log10(np.linalg.norm(frames, axis=1) + _EPS)
    keep = energies > np.max(energies) - STOI_DYN_RANGE_DB
    bands = _third_octave_bands()
    env = _band_envelopes(frames[keep], window, bands)
    if env.shape[0] < STOI_SEGMENT:
        raise MetricError(
            f"only {env.shape[0]} active frames; need at least {STOI_SEGMENT} "
            "(roughly half a second of speech)"
        )
    if np.all(samples == samples[0]):
        raise MetricError("reference is constant; STOI needs a reference that varies")
    # One (band, frame) block per 30-frame segment: segments x bands x 30.
    x = np.lib.stride_tricks.sliding_window_view(env, STOI_SEGMENT, axis=0)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    ceiling = x * (1.0 + 10.0 ** (-STOI_CLIP_DB / 20.0))
    x = x - x.mean(axis=-1, keepdims=True)
    unit = x / (np.linalg.norm(x, axis=-1, keepdims=True) + _EPS)
    return _StoiReference(taps, window, bands, keep, norms, ceiling, unit)


def stoi(reference: Waveform, test: Waveform, analysis: _StoiReference | None = None) -> float:
    """Short-time intelligibility score of test speech against its reference.

    Both signals are resampled to 10 kHz; silent reference frames are
    removed from both; one-third-octave envelopes are compared over
    30-frame segments with per-segment normalization and clipping at
    -15 dB signal-to-distortion ratio. Higher is more intelligible;
    identical signals score 1. analysis, when given, is this reference's
    half from analyse_reference.
    """
    ref, tst = _aligned(reference, test)
    if analysis is None:
        analysis = _stoi_reference(ref, reference.sample_rate)
    tst = _resample_to_stoi_rate(tst, reference.sample_rate, analysis.taps)
    frames = frame_signal(tst, STOI_FRAME_LEN, STOI_HOP) * analysis.window
    env = _band_envelopes(frames[analysis.keep], analysis.window, analysis.bands)
    y = np.lib.stride_tricks.sliding_window_view(env, STOI_SEGMENT, axis=0)
    scale = analysis.norms / (np.linalg.norm(y, axis=-1, keepdims=True) + _EPS)
    y = np.minimum(y * scale, analysis.ceiling)
    y = y - y.mean(axis=-1, keepdims=True)
    y = y / (np.linalg.norm(y, axis=-1, keepdims=True) + _EPS)
    return float(np.mean(np.sum(analysis.unit * y, axis=-1)))


def distortion_profile(clean_lps: np.ndarray, estimated_lps: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-bin sum of (clean - estimated) log-power differences, and the frame count."""
    if clean_lps.shape != estimated_lps.shape:
        raise ValueError(f"shape mismatch: clean {clean_lps.shape}, estimated {estimated_lps.shape}")
    return (clean_lps - estimated_lps).sum(axis=0), clean_lps.shape[0]


def profile_csv(scored, sample_rate: int, fft_size: int) -> str:
    """Rows of bin_hz,mean_distortion for external plotting.

    scored holds score_pairs' (entry, distortion_profile) pairs. Their sums
    are added in the order given, and each bin's mean is taken over every
    frame of every utterance.
    """
    total, n_frames = np.zeros(fft_size // 2 + 1), 0
    for _, (bin_sums, frames) in scored:
        if bin_sums.shape != total.shape:
            raise ValueError(f"profiles cover different bin counts: {bin_sums.shape} vs {total.shape}")
        total, n_frames = total + bin_sums, n_frames + frames
    if n_frames == 0:
        raise MetricError("no frames accumulated")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bin_hz", "mean_distortion"])
    for i, value in enumerate(total / n_frames):
        writer.writerow([f"{i * sample_rate / fft_size:.2f}", f"{value:.6f}"])
    return buf.getvalue()


def score_pairs(
    entries, enhanced_dir: str | Path, analyse, score, sample_rate: int, map_fn
) -> tuple[list[tuple], list[str], list[tuple[Path, str]]]:
    """Apply score(clean, enhanced, analyse(clean)) to each entry's enhanced <utterance_id>.wav.

    Both WAVs are read at sample_rate and cut to the shorter length. The
    pairs are taken one clean voice at a time: its clean WAV is read once,
    in this thread, and analyse runs once per length its pairs are cut to,
    in the first pair's worker. map_fn scores the pairs, so one pair stays
    map_fn's unit of work and a split of few voices still spreads over
    every worker. map_fn may score them in parallel, as long as it keeps
    their order. Returns (entry, score) pairs, the ids with no enhanced WAV,
    and (enhanced path, reason) for each pair whose enhanced WAV cannot be
    read or that analyse or score rejects with a SpecJointError, each in id
    order.
    """
    enhanced_dir = Path(enhanced_dir)
    present, missing = [], []
    for entry in sorted(entries, key=lambda e: e.utterance_id):
        if (enhanced_dir / f"{entry.utterance_id}.wav").exists():
            present.append(entry)
        else:
            missing.append(entry.utterance_id)
    lock = threading.Lock()

    def analysed(clean: Waveform, analyses: dict):
        """analyse(clean), run once per length; what it raised stands in for its result."""
        with lock:
            if len(clean) not in analyses:
                try:
                    analyses[len(clean)] = analyse(clean)
                except SpecJointError as exc:
                    analyses[len(clean)] = exc
            return analyses[len(clean)]

    def score_pair(clean: Waveform, analyses: dict, entry):
        try:
            enhanced = read_wav(enhanced_dir / f"{entry.utterance_id}.wav", expected_rate=sample_rate)
            clean_samples, enhanced_samples = _aligned(clean, enhanced)
            clean = Waveform(clean_samples, sample_rate)
            analysis = analysed(clean, analyses)
            if isinstance(analysis, SpecJointError):
                return analysis
            return score(clean, Waveform(enhanced_samples, sample_rate), analysis)
        except (SpecJointError, OSError) as exc:
            return exc

    results = []
    by_voice = sorted(present, key=lambda e: (e.clean_path, e.utterance_id))
    for clean_path, voice in groupby(by_voice, key=lambda e: e.clean_path):
        voice = list(voice)
        # An unreadable clean WAV is a fault of the corpus or config: it ends the command.
        clean = read_wav(clean_path, expected_rate=sample_rate)
        results += zip(voice, map_fn(partial(score_pair, clean, {}), voice))
    scored, failed = [], []
    for entry, result in sorted(results, key=lambda pair: pair[0].utterance_id):
        if isinstance(result, Exception):
            failed.append((enhanced_dir / f"{entry.utterance_id}.wav", str(result)))
        else:
            scored.append((entry, result))
    return scored, missing, failed


def analyse_reference(clean: Waveform) -> tuple:
    """The halves of SSNR and STOI that depend on the clean signal alone.

    SSNR's comes first, so a clean signal that both reject fails with
    SSNR's reason, as scoring the pair alone does.
    """
    return _ssnr_reference(clean.samples), _stoi_reference(clean.samples, clean.sample_rate)


def ssnr_stoi(clean: Waveform, enhanced: Waveform, analysis: tuple) -> dict[str, float]:
    """Both scores of enhanced against clean; analysis is analyse_reference(clean)."""
    ssnr_half, stoi_half = analysis
    return {"ssnr_db": ssnr(clean, enhanced, ssnr_half), "stoi": stoi(clean, enhanced, stoi_half)}


def condition_means(scored) -> tuple[dict[tuple[str, float], dict[str, float]], dict[str, float]]:
    """Mean of every named score per (noise stem, SNR), and overall.

    scored holds score_pairs' (entry, {name: value}) pairs. Each condition
    sums its utterances in the order given; the overall mean sums the
    conditions in the order first seen, then the utterances within each.
    """
    groups: dict[tuple[str, float], list[dict[str, float]]] = {}
    for entry, scores in scored:
        groups.setdefault((entry.noise_path.stem, entry.snr_db), []).append(scores)

    def means(rows: list[dict[str, float]]) -> dict[str, float]:
        return {name: float(np.mean([row[name] for row in rows])) for name in rows[0]}

    overall = means([row for rows in groups.values() for row in rows])
    return {key: means(rows) for key, rows in groups.items()}, overall


def report_csv(scored, missing: list[str], failed: list[tuple[Path, str]]) -> str:
    """Rows of noise,snr_db,metric,value: one per named score per (noise, SNR),
    then the overall rows with noise=overall.

    Ids with no enhanced file close the table as missing rows, then the
    enhanced files that could not be scored as failed rows.
    """
    per_condition, overall = condition_means(scored)
    rows = [(noise, f"{snr:g}", per_condition[(noise, snr)]) for noise, snr in sorted(per_condition)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["noise", "snr_db", "metric", "value"])
    for noise, snr_text, means in rows + [("overall", "", overall)]:
        for name, value in means.items():
            writer.writerow([noise, snr_text, name, f"{value:.4f}"])
    for utterance_id in missing:
        writer.writerow(["missing", "", "utterance", utterance_id])
    for path, _ in failed:
        writer.writerow(["failed", "", "utterance", path.stem])
    return buf.getvalue()
