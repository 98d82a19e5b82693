"""Tests of the benchmark itself: both workloads end to end at a small size,
and one broken output per check that the check must reject.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

# First, so that BLAS gets one thread like the child processes the warm-up
# trains and enhances in: with another thread count the float sums, and so the
# checkpoint bytes, differ.
import run  # noqa: E402, I001

import dataclasses  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import wave  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from specjoint.config import RunConfig  # noqa: E402
from specjoint.network import init_model, load_model  # noqa: E402

SEED = 7

SMALL = {
    "short": dict(n_voices=10, n_latency=6, latency_seconds=(0.7, 1.0), jobs2_sample=3),
    "fullscale": dict(n_latency=4, latency_seconds=(1.0, 1.0), jobs2_sample=2),
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def small_run(request, tmp_path_factory):
    """A traced run of a small copy of the workload; its files stay for the tests."""
    workload = dataclasses.replace(workloads.WORKLOADS[request.param], **SMALL[request.param])
    bench = run.Bench(workload, SEED, seconds=1, trace=True, work=tmp_path_factory.mktemp(request.param))
    record = bench.run()
    return bench, record


@pytest.fixture(scope="module")
def short_outputs(tmp_path_factory):
    workload = dataclasses.replace(workloads.WORKLOADS["short"], **SMALL["short"])
    bench = run.Bench(workload, SEED, seconds=1, trace=False, work=tmp_path_factory.mktemp("neg"))
    bench.run()
    return bench


@pytest.fixture
def warm(short_outputs, tmp_path):
    """A private copy of the rounds' outputs, free to break."""
    copy = tmp_path / "round0"
    shutil.copytree(short_outputs.work / "out", copy)
    return copy


def test_small_workload_passes_every_check(small_run):
    bench, record = small_run
    assert record["problems"] == []
    for name, _ in run.END_TO_END:
        value = record["end_to_end"][name]["value"]
        assert np.isfinite(value) and value > 0, name
    per_layer = record["per_layer"]
    assert [n for n, _ in tracing.per_layer_names()] == list(per_layer)
    # fullscale trains without a validation split.
    idle = {"network.validation.s"} if bench.workload.name == "fullscale" else set()
    for name, metric in per_layer.items():
        assert (metric["value"] >= 0) if name in idle else (metric["value"] > 0), name
    assert bench.attempted > 0


def test_traced_rounds_match_untraced_warmup(small_run):
    bench, record = small_run
    # The timed rounds ran traced and were compared file by file with the
    # untraced warm-up; a difference would be listed as a problem.
    assert record["trace"] and not record["problems"]
    assert len({s.round for s in bench.tracer.spans}) == 2
    assert bench.tracer.self_time_problems() == []


def test_tracer_restores_every_function(small_run):
    import specjoint.enhance
    import specjoint.features

    assert specjoint.enhance.lps is specjoint.features.lps
    assert not hasattr(specjoint.features.lps, "__wrapped__")


def test_runs_nowhere_but_a_checkout(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- each check rejects a broken output -------------------------------------


def _rewrite_pcm(path: Path, samples: np.ndarray) -> None:
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(16000)
        handle.writeframes(np.round(np.clip(samples, -1, 1) * checks.PCM_SCALE).astype("<i2").tobytes())


def test_manifest_check(short_outputs):
    rows = short_outputs.rows
    noises = sorted(p.name for p in short_outputs.inputs["noise"].glob("*.wav"))
    grid = short_outputs.config.snr_grid
    assert checks.check_manifest(rows, short_outputs.clean_names, noises, grid) == []
    assert checks.check_manifest(rows[1:], short_outputs.clean_names, noises, grid)
    moved = [dict(r) for r in rows]
    moved[0]["split"] = "val" if moved[0]["split"] != "val" else "test"
    assert checks.check_manifest(moved, short_outputs.clean_names, noises, grid)


def test_snr_check_rejects_a_mixture_1_db_off(short_outputs, warm):
    row = short_outputs.rows[0]
    noisy_path = warm / "corpus" / "noisy" / f"{row['id']}.wav"
    clean = checks.read_pcm(row["clean"])
    noise = checks.read_pcm(noisy_path) - clean
    assert checks.check_mixture_snr([row], warm / "corpus" / "noisy") == []
    _rewrite_pcm(noisy_path, clean + noise * 10 ** (1 / 20))
    assert checks.check_mixture_snr([row], warm / "corpus" / "noisy")


def test_norm_stats_check(short_outputs, warm):
    path = warm / "corpus" / "stats" / "lps.sjfm"
    assert checks.check_norm_stats(short_outputs.rows, warm / "corpus") == []
    raw = bytearray(path.read_bytes())
    data = np.frombuffer(raw, dtype="<f4", offset=17).copy()
    data[5] *= 1.01  # one mean off by 1 %
    path.write_bytes(bytes(raw[:17]) + data.astype("<f4").tobytes())
    assert checks.check_norm_stats(short_outputs.rows, warm / "corpus")


def test_checkpoint_checks(short_outputs, warm):
    config = short_outputs.config
    trained = load_model(warm / "model.sjnn")
    assert checks.check_layer_shapes(trained, config) == []
    assert checks.check_layer_shapes(trained, config.replace(hidden_units=128))
    untrained = init_model(
        trained.variant, trained.input_dim, trained.stats, config.context_tau,
        config.noise_aware_frames, config.lps_dims, config.mfcc_dims,
        hidden_units=config.hidden_units, hidden_layers=config.hidden_layers, seed=config.seed,
    )
    from specjoint.corpus import load_training_data, read_manifest

    entries = [e for e in read_manifest(warm / "corpus" / "manifest.tsv") if e.split == "train"][:2]
    data = load_training_data(warm / "corpus", entries, trained.variant, trained.stats)
    assert checks.check_training_helped(trained, untrained, data, config) == []
    assert checks.check_training_helped(untrained, untrained, data, config)


def test_enhanced_check_rejects_truncated_and_missing_wavs(warm):
    assert checks.check_enhanced(warm / "enh_in", warm / "enh") == []
    victim = sorted((warm / "enh").glob("*.wav"))[0]
    _rewrite_pcm(victim, checks.read_pcm(victim)[:-100])
    assert checks.check_enhanced(warm / "enh_in", warm / "enh")
    victim.unlink()
    assert checks.check_enhanced(warm / "enh_in", warm / "enh")


def test_enhanced_check_rejects_wrong_gate_counts(warm):
    diag = sorted((warm / "enh").glob("*.diag.txt"))[0]
    lines = diag.read_text().split()
    fields = dict(line.split("=") for line in lines)
    fields["averaged"] = str(int(fields["averaged"]) + 1)
    diag.write_text("\n".join(f"{k}={v}" for k, v in sorted(fields.items())) + "\n")
    assert checks.check_enhanced(warm / "enh_in", warm / "enh")


def test_same_bytes_check(warm, tmp_path):
    names = sorted(p.name for p in (warm / "enh").glob("*.wav"))
    copy = tmp_path / "copy"
    shutil.copytree(warm / "enh", copy)
    assert checks.check_same_bytes(warm / "enh", copy, names) == []
    raw = bytearray((copy / names[0]).read_bytes())
    raw[-1] ^= 1
    (copy / names[0]).write_bytes(bytes(raw))
    assert checks.check_same_bytes(warm / "enh", copy, names)


def _edit_csv(path: Path, predicate, column: str, change) -> None:
    rows = checks.read_report(path)
    for row in rows:
        if predicate(row):
            row[column] = change(row[column])
            break
    header = list(rows[0])
    path.write_text(
        ",".join(header) + "\n" + "".join(",".join(r[h] for h in header) + "\n" for r in rows)
    )


def test_report_check_rejects_a_changed_ssnr(short_outputs, warm):
    report = warm / "report.csv"
    assert checks.check_report(report, short_outputs.test_rows, warm / "enh") == []
    _edit_csv(report, lambda r: r["metric"] == "ssnr_db" and r["noise"] != "overall", "value",
              lambda v: f"{float(v) + 0.01:.4f}")
    assert checks.check_report(report, short_outputs.test_rows, warm / "enh")


def test_report_check_rejects_stoi_out_of_range_and_missing(short_outputs, warm):
    report = warm / "report.csv"
    text = report.read_text()
    _edit_csv(report, lambda r: r["metric"] == "stoi", "value", lambda v: "1.5000")
    assert checks.check_report(report, short_outputs.test_rows, warm / "enh")
    report.write_text(text + "missing,,utterance,x\n")
    assert checks.check_report(report, short_outputs.test_rows, warm / "enh")
    first = next(r for r in checks.read_report(warm / "report.csv") if r["noise"] != "overall")
    report.write_text(
        "".join(line + "\n" for line in text.splitlines() if not line.startswith(f"{first['noise']},{first['snr_db']},"))
    )
    assert checks.check_report(report, short_outputs.test_rows, warm / "enh")


def test_profile_check_rejects_one_changed_bin(short_outputs, warm):
    profile = warm / "profile.csv"
    assert checks.check_profile(profile, short_outputs.test_rows, warm / "enh") == []
    _edit_csv(profile, lambda r: r["bin_hz"] == "1000.00", "mean_distortion",
              lambda v: f"{float(v) + 1e-4:.6f}")
    assert checks.check_profile(profile, short_outputs.test_rows, warm / "enh")


def test_round_digest_sees_any_changed_file(warm):
    before = checks.digest_tree(warm)
    (warm / "profile.csv").write_text((warm / "profile.csv").read_text() + "\n")
    assert checks.digest_tree(warm) != before


def test_self_time_check_rejects_a_child_longer_than_its_parent():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("cli.enhance", 0.0, 1.0, -1, 1, 0),
        tracing.Span("dsp.stft", 0.1, 1.5, 0, 1, 0),
    ]
    assert tracer.self_time_problems()
    tracer.spans[1].end = 0.9
    assert tracer.self_time_problems() == []


def test_layer_counts_must_repeat():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("dsp.stft", 0.0, 0.1, -1, 1, 0),
        tracing.Span("dsp.stft", 0.2, 0.3, -1, 2, 0),
        tracing.Span("dsp.stft", 0.4, 0.5, -1, 2, 0),
    ]
    _, problems = tracer.summary()
    assert any("dsp.stft.calls" in p for p in problems)


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS["short"], n_voices=3, n_latency=2)
    workloads.write_inputs(workload, 1, tmp_path / "a")
    workloads.write_inputs(workload, 1, tmp_path / "b")
    workloads.write_inputs(workload, 2, tmp_path / "c")
    assert checks.digest_tree(tmp_path / "a") == checks.digest_tree(tmp_path / "b")
    assert checks.digest_tree(tmp_path / "a") != checks.digest_tree(tmp_path / "c")


def test_configs_parse():
    for workload in workloads.WORKLOADS.values():
        RunConfig.from_file(workload.config_path)
