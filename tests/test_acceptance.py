"""Acceptance gate: one test per numbered release criterion.

Exact-arithmetic checks (mask gate, loss terms, gradients, transforms) plus
directional quality checks on a miniature synthetic corpus. Each test prints
a single "[criterion N] PASS/FAIL" line straight to the terminal (bypassing
capture), then asserts. The corpus and the three trained networks are built
once and shared; their build times are charged against the runtime budgets
of the criteria that need them.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from specjoint import (
    FeatureKind,
    HeadSpec,
    IbmConfig,
    Model,
    PostProcessConfig,
    StftConfig,
    TrainConfig,
    Variant,
    Waveform,
    backward,
    build_corpus,
    compute_ibm,
    enhance_features,
    enhance_waveform,
    init_model,
    istft,
    load_training_data,
    loss_and_output_grad,
    lps,
    magnitude_phase,
    mel_bank,
    mix_at_snr,
    oracle_post_process,
    post_process,
    read_corpus_stats,
    read_wav,
    reconstruct,
    sgd_step,
    ssnr,
    stft,
    stoi,
    train,
)
from specjoint.cli import main
from specjoint.container import read_features
from specjoint.corpus import (
    DEFAULT_SNR_GRID,
    FEATURES_DIR,
    NOISY_DIR,
    assemble_batches,
    feature_path,
    input_dim,
)
from specjoint.network import _Momentum, _forward
from specjoint.synth import harmonic_voice, white_noise, write_demo_corpus

from oracles import as_float64, dense_rows, loop_post_process, model_loss, random_training_data

SEED = 11
STFT_CFG = StftConfig()
BANK = mel_bank()
IBM_CFG = IbmConfig()
LPS_DIMS = STFT_CFG.n_bins
MFCC_DIMS = BANK.filters.shape[0] + 1
TAU, NAF = 3, 6

TIMES: dict[str, float] = {}


@pytest.fixture(scope="module")
def report(request):
    """Verdict printer that stays visible under pytest's output capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(number, ok, detail, elapsed, budget):
        ok = ok and elapsed <= budget
        verdict = "PASS" if ok else "FAIL"
        line = f"[criterion {number}] {verdict} {detail} [{elapsed:.1f}s of {budget:.0f}s budget]"
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(line)
        else:
            print(line, file=sys.__stderr__, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def corpus_env(tmp_path_factory):
    """Miniature corpus: 24 synthetic voices x 3 noises x 6 SNRs."""
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("acceptance")
    clean, noise = write_demo_corpus(
        root / "clean",
        root / "noise",
        n_voices=24,
        voice_duration=1.0,
        noise_duration=3.0,
        seed=SEED,
    )
    corpus_dir = root / "corpus"
    entries = build_corpus(
        clean,
        noise,
        corpus_dir,
        STFT_CFG,
        BANK,
        IBM_CFG,
        snr_grid=DEFAULT_SNR_GRID,
        val_fraction=0.125,
        test_fraction=0.25,
        seed=SEED,
    )
    stats = read_corpus_stats(corpus_dir)
    TIMES["corpus"] = time.perf_counter() - t0
    return corpus_dir, entries, stats


@pytest.fixture(scope="module")
def models(corpus_env):
    """Three variants trained with one shared seed on the same corpus."""
    corpus_dir, entries, stats = corpus_env
    train_entries = [e for e in entries if e.split == "train"]
    config = TrainConfig(
        epochs=30, batch_size=128, learning_rate=0.003, dropout=0.1, seed=SEED
    )
    out = {}
    for name in ("baseline", "ibm", "mfcc+ibm"):
        t0 = time.perf_counter()
        variant = Variant.parse(name)
        data = load_training_data(corpus_dir, train_entries, variant, stats, TAU, NAF)
        model = init_model(
            variant,
            input_dim(variant, LPS_DIMS, MFCC_DIMS, TAU),
            stats,
            TAU,
            NAF,
            LPS_DIMS,
            MFCC_DIMS,
            hidden_units=256,
            hidden_layers=2,
            seed=SEED,
        )
        history = train(model, data, config)
        out[name] = (model, history)
        TIMES["train:" + name] = time.perf_counter() - t0
    return out


def _test_entries(entries, snr_db=None):
    picked = [e for e in entries if e.split == "test"]
    if snr_db is not None:
        picked = [e for e in picked if e.snr_db == snr_db]
    return picked


def _mean_ssnr(corpus_dir, entries, model, post):
    scores = []
    for entry in entries:
        noisy = read_wav(Path(corpus_dir) / NOISY_DIR / f"{entry.utterance_id}.wav")
        clean = read_wav(entry.clean_path)
        result = enhance_waveform(model, noisy, STFT_CFG, BANK, post)
        scores.append(ssnr(clean, result.enhanced))
    return float(np.mean(scores))


def test_criterion_1_mask_gate_branch_table(report):
    t0 = time.perf_counter()
    config = PostProcessConfig()
    exact = []
    for mask_value, expected in ((0.95, 2.0), (0.75, 1.5), (0.5, 1.0), (0.9, 2.0), (0.6, 1.0)):
        out, _ = post_process(
            np.array([[2.0]]), np.array([[1.0]]), np.array([[mask_value]]), config
        )
        exact.append(out[0, 0] == expected)
    masks = np.repeat((np.arange(111) * 0.01)[:, None], 3, axis=1)
    rng = np.random.default_rng(1)
    noisy = rng.standard_normal(masks.shape)
    estimate = rng.standard_normal(masks.shape)
    fast, _ = post_process(noisy, estimate, masks, config)
    slow = loop_post_process(noisy, estimate, masks, config.gamma, config.epsilon)
    ok = all(exact) and np.array_equal(fast, slow)
    report(
        1,
        ok,
        f"branch table {sum(exact)}/5 exact; 111-level sweep bit-identical to "
        f"straight-line reference: {np.array_equal(fast, slow)}",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_2_loss_arithmetic(report):
    t0 = time.perf_counter()
    head_only = Model(
        variant=Variant.BASELINE,
        tau=0,
        noise_aware_frames=0,
        weights=[np.eye(2, dtype=np.float32)],
        biases=[np.zeros(2, dtype=np.float32)],
        heads=(HeadSpec(FeatureKind.LPS, 0, 2),),
        stats={},
    )
    batch = dense_rows(inputs=np.zeros((1, 2)), targets_lps=np.array([[3.0, 4.0]]))
    zero_est, _ = loss_and_output_grad(head_only, np.zeros((1, 2)), batch, 0.1, 0.002)
    part_est, _ = loss_and_output_grad(head_only, np.array([[3.0, 0.0]]), batch, 0.1, 0.002)
    ok = abs(zero_est["lps"] - 1.0) <= 1e-12 and abs(part_est["lps"] - 0.64) <= 1e-12

    variant = Variant.parse("mfcc+ibm")
    data = random_training_data(variant, 64, 12, 5, 3, seed=2)
    model = init_model(variant, 12, {}, TAU, NAF, 5, 3, hidden_units=16, hidden_layers=2, seed=2)
    config = TrainConfig(epochs=5, batch_size=16, learning_rate=0.01, dropout=0.1, seed=2)
    momentum = _Momentum.zeros_like(model)
    dropout_rng = np.random.default_rng(3)
    worst = 0.0
    batches = 0
    for epoch in range(config.epochs):
        rate = config.learning_rate_at(epoch)
        for batch in assemble_batches(data, config.batch_size, shuffle_seed=epoch):
            cache = _forward(model, batch.inputs, dropout=config.dropout, rng=dropout_rng)
            rep, grad = loss_and_output_grad(model, cache.outputs, batch, 0.1, 0.002)
            recomposed = rep["lps"] + 0.1 * rep["mfcc"] + 0.002 * rep["ibm"]
            worst = max(worst, abs(rep["total"] - recomposed))
            sgd_step(model, backward(model, cache, grad), momentum, rate, config.momentum)
            batches += 1
    ok = ok and worst <= 1e-12
    report(
        2,
        ok,
        f"zero-estimate term 1.0 and partial-estimate term 0.64 within 1e-12; "
        f"decomposition drift {worst:.2e} over {batches} batches of a 5-epoch run",
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_3_gradients_match_finite_differences(report):
    t0 = time.perf_counter()

    def fd(model, batch, arr, idx, h=1e-5):
        original = arr[idx]
        arr[idx] = original + h
        plus = model_loss(model, batch, 0.1, 0.002)
        arr[idx] = original - h
        minus = model_loss(model, batch, 0.1, 0.002)
        arr[idx] = original
        return (plus - minus) / (2.0 * h)

    rng = np.random.default_rng(4)
    worst = 0.0
    for name in ("baseline", "mfcc", "ibm", "mfcc+ibm"):
        variant = Variant.parse(name)
        data = random_training_data(variant, 16, 12, 5, 3, seed=5)
        model = as_float64(
            init_model(variant, 12, {}, TAU, NAF, 5, 3, hidden_units=10, hidden_layers=2, seed=5)
        )
        batch = next(assemble_batches(data, 16, shuffle_seed=0))
        batch = dense_rows(
            batch.inputs.astype(np.float64),
            batch.targets_lps.astype(np.float64),
            None if batch.targets_mfcc is None else batch.targets_mfcc.astype(np.float64),
            None if batch.targets_ibm is None else batch.targets_ibm.astype(np.float64),
        )
        cache = _forward(model, batch.inputs)
        _, out_grad = loss_and_output_grad(model, cache.outputs, batch, 0.1, 0.002)
        grad_w, grad_b = backward(model, cache, out_grad)
        for _ in range(100):
            layer = int(rng.integers(len(model.weights)))
            if rng.random() < 0.8:
                idx = (
                    int(rng.integers(model.weights[layer].shape[0])),
                    int(rng.integers(model.weights[layer].shape[1])),
                )
                analytic = grad_w[layer][idx]
                numeric = fd(model, batch, model.weights[layer], idx)
            else:
                idx = int(rng.integers(model.biases[layer].shape[0]))
                analytic = grad_b[layer][idx]
                numeric = fd(model, batch, model.biases[layer], idx)
            worst = max(worst, abs(analytic - numeric) / max(abs(numeric), 1e-8))
    ok = worst < 1e-4
    report(
        3,
        ok,
        f"analytic vs central differences at 100 random coordinates per head "
        f"configuration (all four), worst relative error {worst:.2e}",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_4_stft_roundtrip(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    margin = STFT_CFG.frame_len
    worst = 0.0
    for _ in range(100):
        samples = rng.uniform(-0.5, 0.5, 16000)
        wave = Waveform(samples, 16000)
        back = istft(stft(wave, STFT_CFG), len(wave))
        diff = back.samples[margin:-margin] - samples[margin:-margin]
        rel = np.linalg.norm(diff) / np.linalg.norm(samples[margin:-margin])
        worst = max(worst, rel)
    ok = worst < 1e-6
    report(
        4,
        ok,
        f"100 random 1 s signals, interior relative L2 error at worst {worst:.2e}",
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_5_mixing_snr(report):
    t0 = time.perf_counter()
    clean = harmonic_voice(1.0, seed=7)
    noise = white_noise(2.5, seed=8)
    rng = np.random.default_rng(9)
    worst = 0.0
    for snr_db in DEFAULT_SNR_GRID:
        for _ in range(4):
            offset = int(rng.integers(0, len(noise)))
            _, scaled = mix_at_snr(clean, noise, snr_db, offset)
            achieved = 10.0 * np.log10(
                np.mean(clean.samples**2) / np.mean(scaled.samples**2)
            )
            worst = max(worst, abs(achieved - snr_db))
    ok = worst < 1e-9
    report(
        5,
        ok,
        f"recomputed mixture SNR across the 20..-5 dB grid, worst deviation {worst:.2e} dB",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_6_training_smoke(corpus_env, models, report):
    t0 = time.perf_counter()
    corpus_dir, entries, _ = corpus_env
    model, history = models["baseline"]
    first, last = history[0].train["total"], history[-1].train["total"]
    at_zero = _test_entries(entries, snr_db=0.0)
    noisy_scores = [
        ssnr(
            read_wav(e.clean_path),
            read_wav(Path(corpus_dir) / NOISY_DIR / f"{e.utterance_id}.wav"),
        )
        for e in at_zero
    ]
    noisy_mean = float(np.mean(noisy_scores))
    enhanced_mean = _mean_ssnr(corpus_dir, at_zero, model, PostProcessConfig(enabled=False))
    ok = last < 0.5 * first and enhanced_mean >= noisy_mean + 2.0
    elapsed = TIMES["corpus"] + TIMES["train:baseline"] + (time.perf_counter() - t0)
    report(
        6,
        ok,
        f"30-epoch loss {first:.3f} -> {last:.3f} (ratio {last / first:.2f} < 0.5); "
        f"0 dB test SSNR noisy {noisy_mean:.2f} dB -> enhanced {enhanced_mean:.2f} dB "
        f"(gain {enhanced_mean - noisy_mean:+.2f} >= +2)",
        elapsed,
        600.0,
    )


def test_criterion_7_objective_ordering(corpus_env, models, report):
    t0 = time.perf_counter()
    corpus_dir, entries, _ = corpus_env
    test_split = _test_entries(entries)
    off = PostProcessConfig(enabled=False)
    on = PostProcessConfig(enabled=True)
    base_raw = _mean_ssnr(corpus_dir, test_split, models["baseline"][0], off)
    ibm_raw = _mean_ssnr(corpus_dir, test_split, models["ibm"][0], off)
    ibm_pp = _mean_ssnr(corpus_dir, test_split, models["ibm"][0], on)
    joint_pp = _mean_ssnr(corpus_dir, test_split, models["mfcc+ibm"][0], on)
    ok = joint_pp >= base_raw and ibm_pp >= ibm_raw
    elapsed = (
        TIMES["corpus"]
        + TIMES["train:baseline"]
        + TIMES["train:ibm"]
        + TIMES["train:mfcc+ibm"]
        + (time.perf_counter() - t0)
    )
    report(
        7,
        ok,
        f"shared-seed mean test SSNR: mfcc+ibm+pp {joint_pp:.2f} >= baseline {base_raw:.2f} "
        f"(margin {joint_pp - base_raw:+.2f}); ibm+pp {ibm_pp:.2f} >= ibm {ibm_raw:.2f} "
        f"(margin {ibm_pp - ibm_raw:+.2f})",
        elapsed,
        3600.0,
    )


def test_criterion_8_oracle_mask_ceiling(corpus_env, models, report):
    t0 = time.perf_counter()
    corpus_dir, entries, _ = corpus_env
    model = models["baseline"][0]
    wins, total = 0, 0
    for entry in _test_entries(entries, snr_db=20.0):
        noisy = read_wav(Path(corpus_dir) / NOISY_DIR / f"{entry.utterance_id}.wav")
        clean = read_wav(entry.clean_path)
        estimated, _, spec, _ = enhance_features(model, noisy, STFT_CFG, BANK)
        _, phases = magnitude_phase(spec)
        raw, _ = reconstruct(estimated, phases, STFT_CFG, len(noisy), noisy.sample_rate)
        true_mask = read_features(
            feature_path(Path(corpus_dir) / FEATURES_DIR, entry.utterance_id, "ibm")
        )
        gated, _ = oracle_post_process(
            lps(spec).data, estimated.data, true_mask.data, PostProcessConfig(enabled=True)
        )
        oracle, _ = reconstruct(gated, phases, STFT_CFG, len(noisy), noisy.sample_rate)
        wins += ssnr(clean, oracle) > ssnr(clean, raw)
        total += 1
    ok = total > 0 and wins / total >= 0.8
    report(
        8,
        ok,
        f"ground-truth mask gating beats the raw network output on {wins}/{total} "
        f"20 dB test utterances ({100.0 * wins / total:.0f}% >= 80%)",
        time.perf_counter() - t0,
        300.0,
    )


def test_criterion_9_stoi_properties(report):
    t0 = time.perf_counter()
    clean = harmonic_voice(2.0, seed=21)
    noise = white_noise(3.0, seed=22)
    identity = stoi(clean, clean)
    grid = (-5.0, 0.0, 5.0, 10.0, 20.0)
    scores = []
    for snr_db in grid:
        noisy, _ = mix_at_snr(clean, noise, snr_db, noise_offset=1234)
        scores.append(stoi(clean, noisy))
    monotone = all(a <= b for a, b in zip(scores, scores[1:]))
    reference, _ = mix_at_snr(clean, noise, 0.0, noise_offset=1234)
    scale_gap = abs(
        stoi(clean, Waveform(0.5 * reference.samples, reference.sample_rate))
        - stoi(clean, reference)
    )
    ok = identity >= 0.999 and monotone and scale_gap < 1e-6
    pretty = ", ".join(f"{s:.3f}" for s in scores)
    report(
        9,
        ok,
        f"self-score {identity:.4f} >= 0.999; scores over -5..20 dB [{pretty}] "
        f"non-decreasing: {monotone}; scale gap {scale_gap:.2e} < 1e-6",
        time.perf_counter() - t0,
        120.0,
    )


def test_criterion_10_mask_statistics(report):
    t0 = time.perf_counter()
    clean = harmonic_voice(1.0, seed=31)
    noise = white_noise(2.0, seed=32)
    means = []
    for snr_db in DEFAULT_SNR_GRID:
        _, scaled = mix_at_snr(clean, noise, snr_db, noise_offset=777)
        mask = compute_ibm(stft(clean, STFT_CFG), stft(scaled, STFT_CFG), IBM_CFG)
        means.append(float(mask.data.mean()))
    ok = all(a > b for a, b in zip(means, means[1:]))
    pretty = ", ".join(f"{m:.3f}" for m in means)
    report(
        10,
        ok,
        f"mean mask over 20..-5 dB [{pretty}] strictly decreasing with SNR: {ok}",
        time.perf_counter() - t0,
        60.0,
    )


DETERMINISM_CONFIG = """\
train.variant = ibm
train.epochs = 3
train.batch_size = 64
train.learning_rate = 0.003
train.dropout = 0.1
train.hidden_units = 32
train.hidden_layers = 1
split.val_fraction = 0
split.test_fraction = 0.5
snr.grid = 5,0
post.enabled = on
seed = 17
"""


def _run_pipeline(root):
    clean_dir, noise_dir = root / "clean", root / "noise"
    write_demo_corpus(
        clean_dir,
        noise_dir,
        n_voices=4,
        voice_duration=0.5,
        noise_duration=2.0,
        noise_kinds=("white",),
        seed=5,
    )
    config_path = root / "run.cfg"
    config_path.write_text(DETERMINISM_CONFIG)
    corpus_dir = root / "corpus"
    checkpoint = root / "model.sjnn"
    enhanced = root / "enhanced"
    codes = [
        main(["prepare", "--config", str(config_path), str(clean_dir), str(noise_dir), str(corpus_dir)]),
        main(["train", "--config", str(config_path), str(corpus_dir), str(checkpoint)]),
        main(["enhance", "--config", str(config_path), str(checkpoint), str(corpus_dir / NOISY_DIR), str(enhanced)]),
    ]
    assert codes == [0, 0, 0]
    return checkpoint, enhanced


def test_criterion_11_pipeline_determinism(tmp_path, report):
    t0 = time.perf_counter()
    ckpt_a, enhanced_a = _run_pipeline(tmp_path / "a")
    ckpt_b, enhanced_b = _run_pipeline(tmp_path / "b")
    same_checkpoint = ckpt_a.read_bytes() == ckpt_b.read_bytes()
    wavs_a = sorted(p.name for p in enhanced_a.glob("*.wav"))
    wavs_b = sorted(p.name for p in enhanced_b.glob("*.wav"))
    same_wavs = bool(wavs_a) and wavs_a == wavs_b and all(
        (enhanced_a / name).read_bytes() == (enhanced_b / name).read_bytes()
        for name in wavs_a
    )
    ok = same_checkpoint and same_wavs
    report(
        11,
        ok,
        f"two seeded prepare/train/enhance runs: checkpoint bytes identical: "
        f"{same_checkpoint}; {len(wavs_a)} enhanced WAVs byte-identical: {same_wavs}",
        time.perf_counter() - t0,
        600.0,
    )
