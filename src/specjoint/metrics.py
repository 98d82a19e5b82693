"""Objective quality and intelligibility measures for enhanced speech.

Three measures: segmental SNR over speech-active frames, a short-time
intelligibility score built from one-third-octave envelope correlations,
and a per-frequency-bin log-spectral error profile. score_pairs is the one
reader of clean/enhanced pairs; it reads each clean voice once and cuts
each pair to the shorter length.
"""

import csv
import io
from functools import partial
from itertools import groupby
from pathlib import Path

import numpy as np
from scipy.signal import resample_poly

from .dsp import DEFAULT_SAMPLE_RATE, Waveform, frame_signal, overlap_add
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


def ssnr(
    reference: Waveform,
    test: Waveform,
    frame_len: int = SSNR_FRAME_LEN,
    hop: int = SSNR_HOP,
) -> float:
    """Mean per-frame SNR in dB, clamped to [-10, 35], over active frames.

    A frame is active when its mean power exceeds 1e-8 times the utterance
    mean power of the reference. Zero error clamps at the ceiling.
    """
    ref, tst = _aligned(reference, test)
    ref_frames = frame_signal(ref, frame_len, hop)
    tst_frames = frame_signal(tst, frame_len, hop)
    if ref_frames.shape[0] == 0:
        raise MetricError(f"signal shorter than one frame ({frame_len} samples)")
    ref_power = np.sum(ref_frames**2, axis=1)
    err_power = np.sum((ref_frames - tst_frames) ** 2, axis=1)
    active = ref_power > SSNR_SILENCE_FLOOR * np.mean(ref**2) * frame_len
    if not np.any(active):
        raise MetricError("reference has no speech-active frames")
    with np.errstate(divide="ignore", invalid="ignore"):
        snr_db = 10.0 * np.log10(np.where(err_power > 0.0, ref_power / err_power, np.inf))
    return float(np.mean(np.clip(snr_db[active], SSNR_FLOOR_DB, SSNR_CEIL_DB)))


def _stoi_window() -> np.ndarray:
    # Interior of a symmetric Hann window, the convention of the reference
    # implementation (no zero endpoints).
    return np.hanning(STOI_FRAME_LEN + 2)[1:-1]


def _resample_to_stoi_rate(x: np.ndarray, rate: int) -> np.ndarray:
    if rate == STOI_RATE:
        return x
    g = np.gcd(rate, STOI_RATE)
    return resample_poly(x, STOI_RATE // g, rate // g)


def _remove_silent_frames(ref: np.ndarray, tst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop frames more than 40 dB below the loudest reference frame.

    Frames are selected on the reference alone, windowed once, and both
    signals are rebuilt by overlap-add of the surviving frames.
    """
    win = _stoi_window()
    ref_frames = frame_signal(ref, STOI_FRAME_LEN, STOI_HOP) * win
    tst_frames = frame_signal(tst, STOI_FRAME_LEN, STOI_HOP) * win
    if ref_frames.shape[0] == 0:
        raise MetricError("signal shorter than one frame after resampling")
    energies = 20.0 * np.log10(np.linalg.norm(ref_frames, axis=1) + _EPS)
    keep = energies > np.max(energies) - STOI_DYN_RANGE_DB
    return overlap_add(ref_frames[keep], STOI_HOP), overlap_add(tst_frames[keep], STOI_HOP)


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


def _band_envelopes(x: np.ndarray) -> np.ndarray:
    win = _stoi_window()
    frames = frame_signal(x, STOI_FRAME_LEN, STOI_HOP) * win
    power = np.abs(np.fft.rfft(frames, n=STOI_FFT_SIZE, axis=1)) ** 2
    return np.sqrt(power @ _third_octave_bands().T)


def stoi(reference: Waveform, test: Waveform) -> float:
    """Short-time intelligibility score of test speech against its reference.

    Both signals are resampled to 10 kHz; silent reference frames are
    removed from both; one-third-octave envelopes are compared over
    30-frame segments with per-segment normalization and clipping at
    -15 dB signal-to-distortion ratio. Higher is more intelligible;
    identical signals score 1.
    """
    aligned, tst = _aligned(reference, test)
    ref = _resample_to_stoi_rate(aligned, reference.sample_rate)
    tst = _resample_to_stoi_rate(tst, reference.sample_rate)
    ref, tst = _remove_silent_frames(ref, tst)
    ref_env = _band_envelopes(ref)
    tst_env = _band_envelopes(tst)
    n_frames = ref_env.shape[0]
    if n_frames < STOI_SEGMENT:
        raise MetricError(
            f"only {n_frames} active frames; need at least {STOI_SEGMENT} "
            "(roughly half a second of speech)"
        )
    if np.all(aligned == aligned[0]):
        raise MetricError("reference is constant; STOI needs a reference that varies")
    clip_gain = 10.0 ** (-STOI_CLIP_DB / 20.0)
    # One (band, frame) block per 30-frame segment: segments x bands x 30.
    x = np.lib.stride_tricks.sliding_window_view(ref_env, STOI_SEGMENT, axis=0)
    y = np.lib.stride_tricks.sliding_window_view(tst_env, STOI_SEGMENT, axis=0)
    scale = np.linalg.norm(x, axis=-1, keepdims=True) / (
        np.linalg.norm(y, axis=-1, keepdims=True) + _EPS
    )
    y = np.minimum(y * scale, x * (1.0 + clip_gain))
    x = x - x.mean(axis=-1, keepdims=True)
    y = y - y.mean(axis=-1, keepdims=True)
    x = x / (np.linalg.norm(x, axis=-1, keepdims=True) + _EPS)
    y = y / (np.linalg.norm(y, axis=-1, keepdims=True) + _EPS)
    return float(np.mean(np.sum(x * y, axis=-1)))


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
    entries, enhanced_dir: str | Path, score, sample_rate: int = DEFAULT_SAMPLE_RATE, map_fn=map
) -> tuple[list[tuple], list[str], list[tuple[Path, str]]]:
    """Apply score(clean, enhanced) to each entry's enhanced <utterance_id>.wav.

    Both WAVs are read at sample_rate and cut to the shorter length. The
    pairs are taken one clean voice at a time: its clean WAV is read once,
    in this thread, and map_fn scores its pairs, so one pair stays map_fn's
    unit of work and a split of few voices still spreads over every worker.
    map_fn may score them in parallel, as long as it keeps their order.
    Returns (entry, score) pairs, the ids with no enhanced WAV, and
    (enhanced path, reason) for each pair whose enhanced WAV cannot be read
    or that score rejects with a SpecJointError, each in id order.
    """
    enhanced_dir = Path(enhanced_dir)
    present, missing = [], []
    for entry in sorted(entries, key=lambda e: e.utterance_id):
        if (enhanced_dir / f"{entry.utterance_id}.wav").exists():
            present.append(entry)
        else:
            missing.append(entry.utterance_id)

    def score_pair(clean: Waveform, entry):
        try:
            enhanced = read_wav(enhanced_dir / f"{entry.utterance_id}.wav", expected_rate=sample_rate)
            clean_samples, enhanced_samples = _aligned(clean, enhanced)
            return score(Waveform(clean_samples, sample_rate), Waveform(enhanced_samples, sample_rate))
        except (SpecJointError, OSError) as exc:
            return exc

    results = []
    by_voice = sorted(present, key=lambda e: (e.clean_path, e.utterance_id))
    for clean_path, voice in groupby(by_voice, key=lambda e: e.clean_path):
        voice = list(voice)
        # An unreadable clean WAV is a fault of the corpus or config: it ends the command.
        clean = read_wav(clean_path, expected_rate=sample_rate)
        results += zip(voice, map_fn(partial(score_pair, clean), voice))
    scored, failed = [], []
    for entry, result in sorted(results, key=lambda pair: pair[0].utterance_id):
        if isinstance(result, Exception):
            failed.append((enhanced_dir / f"{entry.utterance_id}.wav", str(result)))
        else:
            scored.append((entry, result))
    return scored, missing, failed


def ssnr_stoi(clean: Waveform, enhanced: Waveform) -> dict[str, float]:
    return {"ssnr_db": ssnr(clean, enhanced), "stoi": stoi(clean, enhanced)}


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
