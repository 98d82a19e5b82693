"""Output checks, computed apart from the program.

Every check returns a list of problems; an empty list means the outputs
passed. The checks read WAVs with the standard ``wave`` module and feature
containers with their own parser, and recompute SNR, normalization
statistics, SSNR, losses and the distortion profile with numpy alone, so a
fault in a specjoint reader or metric cannot hide itself.
"""

import csv
import hashlib
import struct
import wave
from pathlib import Path

import numpy as np

PCM_SCALE = 32767.0
FRAME_LEN, HOP, FFT_SIZE = 512, 256, 512  # the STFT both configs use
N_BINS = FFT_SIZE // 2 + 1
POWER_FLOOR = 1e-12
MEL_FILTERS = 40
CONTAINER_HEADER = struct.Struct("<4sIBII")


# --- readers --------------------------------------------------------------


def read_pcm(path: Path) -> np.ndarray:
    with wave.open(str(path), "rb") as handle:
        raw = handle.readframes(handle.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM_SCALE


def wav_length(path: Path) -> int:
    with wave.open(str(path), "rb") as handle:
        return handle.getnframes()


def read_container(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic, _, _, rows, dims = CONTAINER_HEADER.unpack_from(raw)
    if magic != b"SJFM" or len(raw) != CONTAINER_HEADER.size + 4 * rows * dims:
        raise ValueError(f"{path}: not a complete feature container")
    return np.frombuffer(raw, dtype="<f4", offset=CONTAINER_HEADER.size).reshape(rows, dims)


def read_manifest(path: Path) -> list[dict]:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        clean, noise, snr, offset, split = line.split("\t")
        clean, noise = Path(clean), Path(noise)
        rows.append(
            {
                "clean": clean,
                "noise": noise,
                "snr": float(snr),
                "split": split,
                "id": f"{clean.stem}__{noise.stem}__snr{float(snr):g}dB",
            }
        )
    return rows


def frame_count(n_samples: int) -> int:
    return 0 if n_samples < FRAME_LEN else 1 + (n_samples - FRAME_LEN) // HOP


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def check_rewritten(root: Path, since_ns: int, keep=()) -> list[str]:
    """Files a round writes over must all be newer than the round's start.

    A command that silently skipped an output would otherwise leave the
    previous round's file behind, and the digest comparison would pass. File
    times come from a clock that can lag by a tick, hence the 20 ms slack.
    """
    since_ns -= 20_000_000
    stale = [
        str(p.relative_to(root))
        for p in root.rglob("*")
        if p.is_file() and p.relative_to(root).parts[0] not in keep and p.stat().st_mtime_ns < since_ns
    ]
    return [f"{len(stale)} files were not written again, e.g. {stale[0]}"] if stale else []


# --- prepare ----------------------------------------------------------------


def check_manifest(rows: list[dict], clean_names, noise_names, grid) -> list[str]:
    problems = []
    expected = {(c, n, float(s)) for c in clean_names for n in noise_names for s in grid}
    seen = [(r["clean"].name, r["noise"].name, r["snr"]) for r in rows]
    if len(rows) != len(expected) or set(seen) != expected:
        problems.append(
            f"manifest has {len(rows)} rows ({len(set(seen))} distinct), "
            f"expected clean x noise x grid = {len(expected)}"
        )
    splits: dict[str, set] = {}
    for r in rows:
        splits.setdefault(r["clean"].name, set()).add(r["split"])
    for clean, found in sorted(splits.items()):
        if len(found) != 1:
            problems.append(f"{clean} sits in splits {sorted(found)}")
    return problems


def snr_tolerance_db(noise_norm: float, n_samples: int) -> float:
    """Largest SNR error that rounding the noisy WAV to 16 bits can cause.

    Rounding moves each sample by at most half a step, so the recovered noise
    vector is within that error's norm of the true one.
    """
    error = 0.5 / PCM_SCALE * np.sqrt(n_samples)
    if error >= noise_norm:
        return np.inf
    return 20.0 * np.log10(noise_norm / (noise_norm - error)) + 1e-9


def check_mixture_snr(rows: list[dict], noisy_dir: Path) -> list[str]:
    problems = []
    for r in rows:
        clean = read_pcm(r["clean"])
        noisy = read_pcm(noisy_dir / f"{r['id']}.wav")
        if len(noisy) != len(clean):
            problems.append(f"{r['id']}: {len(noisy)} noisy samples, clean has {len(clean)}")
            continue
        noise_norm = np.linalg.norm(noisy - clean)
        snr = 20.0 * np.log10(np.linalg.norm(clean) / noise_norm)
        tolerance = snr_tolerance_db(noise_norm, len(clean))
        if abs(snr - r["snr"]) > tolerance:
            problems.append(
                f"{r['id']}: SNR from the written WAVs is {snr:.4f} dB, "
                f"manifest says {r['snr']:g} dB (tolerance {tolerance:.2g} dB)"
            )
    return problems


def check_norm_stats(rows: list[dict], corpus_dir: Path) -> list[str]:
    """Stored mean/variance against numpy over the train-split noisy containers."""
    problems = []
    features = corpus_dir / "features"
    for name in ("lps", "mfcc"):
        data = np.vstack(
            [
                read_container(features / f"{r['id']}.noisy_{name}.sjfm").astype(np.float64)
                for r in rows
                if r["split"] == "train"
            ]
        )
        stored = read_container(corpus_dir / "stats" / f"{name}.sjfm").astype(np.float64)
        # Containers hold f32, so both sides carry f32 rounding.
        for row, label, want in ((0, "mean", data.mean(axis=0)), (1, "variance", data.var(axis=0))):
            scale = np.abs(want) + (np.abs(data).max() if label == "mean" else 1e-3 * want.max())
            err = np.abs(stored[row] - want) / scale
            if not err.max() <= 1e-5:
                worst = int(np.argmax(err))
                problems.append(
                    f"{name} {label}[{worst}] stored {stored[row][worst]:.7g}, "
                    f"numpy gives {want[worst]:.7g}"
                )
    return problems


# --- train ------------------------------------------------------------------


def expected_layer_shapes(config) -> list[tuple[int, int]]:
    feature_dims = N_BINS + MEL_FILTERS + 1  # LPS plus MFCC with energy
    input_dim = feature_dims * (2 * config.context_tau + 1) + feature_dims
    output_dim = N_BINS + (MEL_FILTERS + 1) + N_BINS  # LPS, MFCC and mask heads
    dims = [input_dim] + [config.hidden_units] * config.hidden_layers + [output_dim]
    return list(zip(dims[:-1], dims[1:]))


def check_layer_shapes(model, config) -> list[str]:
    shapes = [tuple(w.shape) for w in model.weights]
    want = expected_layer_shapes(config)
    if shapes != want or [b.shape[0] for b in model.biases] != [o for _, o in want]:
        return [f"checkpoint layers {shapes}, configured {want}"]
    return []


def joint_loss(weights, biases, inputs, targets, alpha: float, beta: float) -> float:
    """The joint LPS + alpha MFCC + beta mask loss, summed in float64."""
    h = inputs
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    out = (h @ weights[-1] + biases[-1]).astype(np.float64)
    lps_t, mfcc_t, ibm_t = (t.astype(np.float64) for t in targets)
    pred_lps = out[:, :N_BINS]
    pred_mfcc = out[:, N_BINS : N_BINS + mfcc_t.shape[1]]
    pred_ibm = out[:, N_BINS + mfcc_t.shape[1] :]

    def spectral(pred, target):
        denom = np.maximum(np.sum(target**2, axis=1), 1e-8)
        return np.mean(np.sum((pred - target) ** 2, axis=1) / denom)

    return (
        spectral(pred_lps, lps_t)
        + alpha * spectral(pred_mfcc, mfcc_t)
        + beta * np.mean(np.sum((pred_ibm - ibm_t) ** 2, axis=1))
    )


def check_training_helped(trained, untrained, data, config) -> list[str]:
    targets = (data.targets_lps, data.targets_mfcc, data.targets_ibm)
    after = joint_loss(trained.weights, trained.biases, data.inputs, targets, config.alpha, config.beta)
    before = joint_loss(
        untrained.weights, untrained.biases, data.inputs, targets, config.alpha, config.beta
    )
    if not after < before:
        return [f"trained loss {after:.6f} is not below the untrained network's {before:.6f}"]
    return []


# --- enhance ----------------------------------------------------------------


def check_enhanced(in_dir: Path, out_dir: Path) -> list[str]:
    """One WAV per input with its sample count, and whole gate counts."""
    problems = []
    inputs = sorted(p.name for p in in_dir.glob("*.wav"))
    outputs = sorted(p.name for p in out_dir.glob("*.wav"))
    if inputs != outputs:
        problems.append(f"{len(inputs)} inputs but {len(outputs)} enhanced WAVs, or other names")
    for name in inputs:
        if name not in outputs:
            continue
        n = wav_length(in_dir / name)
        got = wav_length(out_dir / name)
        if got != n:
            problems.append(f"{name}: enhanced has {got} samples, input has {n}")
        diag_path = out_dir / f"{Path(name).stem}.diag.txt"
        if not diag_path.exists():
            problems.append(f"{name}: no gate counts")
            continue
        diag = dict(line.split("=") for line in diag_path.read_text().split())
        units = frame_count(n) * N_BINS
        branches = sum(int(diag.get(k, -1)) for k in ("kept_noisy", "averaged", "kept_estimate"))
        if branches != units:
            problems.append(f"{name}: gate branches count {branches} units, frames x bins is {units}")
    return problems


def check_same_bytes(dir_a: Path, dir_b: Path, names) -> list[str]:
    return [
        f"{name}: {dir_a.name} and {dir_b.name} differ"
        for name in names
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()
    ]


# --- evaluate and distortion-profile ----------------------------------------


def frames_of(x: np.ndarray) -> np.ndarray:
    n = frame_count(len(x))
    return x[np.arange(n)[:, None] * HOP + np.arange(FRAME_LEN)]


def segmental_snr(clean: np.ndarray, enhanced: np.ndarray) -> float:
    """Mean per-frame SNR over active frames, clamped to [-10, 35] dB."""
    n = min(len(clean), len(enhanced))
    ref, err = frames_of(clean[:n]), frames_of(clean[:n] - enhanced[:n])
    ref_power, err_power = np.sum(ref**2, axis=1), np.sum(err**2, axis=1)
    active = ref_power > 1e-8 * np.mean(clean[:n] ** 2) * FRAME_LEN
    with np.errstate(divide="ignore"):
        snr = 10.0 * np.log10(ref_power[active] / err_power[active])
    return float(np.mean(np.clip(snr, -10.0, 35.0)))


def read_report(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_report(report_path: Path, test_rows: list[dict], enhanced_dir: Path) -> list[str]:
    problems = []
    report = read_report(report_path)
    by_condition: dict[tuple[str, float], list[float]] = {}
    for r in test_rows:
        clean = read_pcm(r["clean"])
        enhanced = read_pcm(enhanced_dir / f"{r['id']}.wav")
        by_condition.setdefault((r["noise"].stem, r["snr"]), []).append(
            segmental_snr(clean, enhanced)
        )
    if any(row["noise"] == "missing" for row in report):
        problems.append("report lists missing utterances")
    got = {
        (row["noise"], float(row["snr_db"])): float(row["value"])
        for row in report
        if row["metric"] == "ssnr_db" and row["noise"] not in ("overall", "missing")
    }
    if set(got) != set(by_condition):
        problems.append(f"report has conditions {sorted(got)}, test split has {sorted(by_condition)}")
    for key, values in sorted(by_condition.items()):
        if key in got and abs(got[key] - np.mean(values)) > 5e-5 + 1e-9:
            problems.append(f"{key}: report SSNR {got[key]} dB, numpy gives {np.mean(values):.6f} dB")
    for row in report:
        if row["metric"] == "stoi" and not -1.0 <= float(row["value"]) <= 1.0:
            problems.append(f"STOI {row['value']} for {row['noise']} {row['snr_db']} is outside [-1, 1]")
    return problems


def log_power(x: np.ndarray) -> np.ndarray:
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LEN) / FRAME_LEN)
    power = np.abs(np.fft.rfft(frames_of(x) * window, n=FFT_SIZE, axis=1)) ** 2
    return np.log(np.maximum(power, POWER_FLOOR))


def check_profile(profile_path: Path, test_rows: list[dict], enhanced_dir: Path) -> list[str]:
    total, frames = np.zeros(N_BINS), 0
    for r in test_rows:
        clean = log_power(read_pcm(r["clean"]))
        enhanced = log_power(read_pcm(enhanced_dir / f"{r['id']}.wav"))
        total += (clean - enhanced).sum(axis=0)
        frames += clean.shape[0]
    want = total / frames
    with open(profile_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != N_BINS:
        return [f"profile has {len(rows)} bins, expected {N_BINS}"]
    problems = []
    for i, row in enumerate(rows):
        if abs(float(row["bin_hz"]) - i * 16000 / FFT_SIZE) > 0.005 + 1e-9:
            problems.append(f"bin {i} is labelled {row['bin_hz']} Hz")
        # The CSV keeps six decimals.
        if abs(float(row["mean_distortion"]) - want[i]) > 5e-7 + 1e-9 * abs(want[i]) + 1e-9:
            problems.append(f"bin {i}: profile {row['mean_distortion']}, numpy rfft gives {want[i]:.7f}")
    return problems
