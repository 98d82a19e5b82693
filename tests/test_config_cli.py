import dataclasses
import hashlib
import inspect
import logging
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import specjoint
from specjoint import (
    ConfigError,
    EpochStats,
    FeatureKind,
    FeatureMatrix,
    HeadSpec,
    IbmConfig,
    MixSpec,
    PostProcessConfig,
    RunConfig,
    StftConfig,
    TrainConfig,
    Variant,
    Waveform,
    build_corpus,
    init_model,
    input_dim,
    load_model,
    loss_and_output_grad,
    mel_bank,
    read_features,
    read_manifest,
    read_wav,
    save_model,
    write_features,
    write_manifest,
    write_wav,
)
from specjoint import corpus as corpus_mod
from specjoint.cli import _history_csv, build_parser, main
from specjoint.dsp import WINDOW_NAMES
from specjoint.synth import harmonic_voice, white_noise

from oracles import dense_rows


REPO = Path(__file__).resolve().parents[1]


def child_env() -> dict[str, str]:
    """Environment for a child Python: it does not inherit pytest's sys.path, so
    point it at the package these tests import."""
    package_root = str(Path(specjoint.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return env


def run_child(*args: str) -> subprocess.CompletedProcess:
    """Run the command line in a child Python, as a user would."""
    return subprocess.run(
        [sys.executable, "-m", "specjoint.cli", *args],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )


def assert_one_line_error(result: subprocess.CompletedProcess, *names: str) -> None:
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and all(name in lines[0] for name in names), result.stderr


# Files that end inside a WAV header: no bytes, 7 bytes of text, and the
# first 4 and 20 bytes of a valid WAV.
CUT_WAVS = ["empty", "garbage", "riff", "cut-fmt"]


def write_unreadable_wav(path: Path, case: str) -> None:
    """A WAV cut inside its header (a CUT_WAVS case), or a directory in its place."""
    if case == "directory":
        path.mkdir(parents=True)
        return
    write_wav(path, harmonic_voice(0.6, 16000, seed=3))
    valid = path.read_bytes()
    path.write_bytes({"empty": b"", "garbage": b"garbage", "riff": valid[:4], "cut-fmt": valid[:20]}[case])


class TestRunConfig:
    def test_defaults_roundtrip(self):
        assert RunConfig.from_text(RunConfig().dump()) == RunConfig()

    def test_modified_roundtrip(self):
        config = RunConfig(
            variant="mfcc+ibm",
            epochs=5,
            snr_grid=(10.0, 0.0),
            post_enabled=False,
            mel_f_high=7000.0,
        )
        assert RunConfig.from_text(config.dump()) == config

    def test_dump_format(self):
        text = RunConfig().dump()
        assert "train.variant = baseline\n" in text
        assert "snr.grid = 20,15,10,5,0,-5\n" in text
        assert "post.enabled = on\n" in text
        assert text.endswith("\n")

    def test_comments_and_blanks_ignored(self):
        text = "\n# full line comment\ntrain.epochs = 7  # trailing comment\n\n"
        assert RunConfig.from_text(text).epochs == 7

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match=r"<config>:2: unknown key 'train\.width'"):
            RunConfig.from_text("train.epochs = 5\ntrain.width = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="<config>:2: duplicate key 'seed'"):
            RunConfig.from_text("seed = 1\nseed = 2\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="<config>:1: bad value for train.epochs"):
            RunConfig.from_text("train.epochs = soon\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected key = value"):
            RunConfig.from_text("train.epochs\n")

    @pytest.mark.parametrize(
        "text, value",
        [("on", True), ("true", True), ("yes", True), ("1", True),
         ("off", False), ("false", False), ("no", False), ("0", False)],
    )
    def test_bool_spellings(self, text, value):
        assert RunConfig.from_text(f"post.enabled = {text}\n").post_enabled is value

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="expected on/off"):
            RunConfig.from_text("post.enabled = maybe\n")

    def test_grid_parsing(self):
        assert RunConfig.from_text("snr.grid = 15, 5, -5\n").snr_grid == (15.0, 5.0, -5.0)
        with pytest.raises(ConfigError, match="bad value for snr.grid"):
            RunConfig.from_text("snr.grid = \n")

    def test_from_file_names_source(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nope = 1\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1"):
            RunConfig.from_file(path)

    def test_derived_builders(self):
        config = RunConfig()
        assert config.lps_dims == 257
        assert config.mfcc_dims == 41
        assert config.stft_config().n_bins == 257
        assert config.bank().filters.shape == (40, 257)
        assert config.train_config().epochs == 30
        assert config.post_config().gamma == 0.9

    def test_defaults_are_the_library_defaults(self):
        # The Python API and the command line build the same run by default.
        config = RunConfig()
        assert config.train_config() == TrainConfig()
        assert config.stft_config() == StftConfig()
        assert config.post_config() == PostProcessConfig()
        assert config.ibm_config() == IbmConfig()
        assert np.array_equal(config.bank().filters, mel_bank().filters)
        init = inspect.signature(init_model).parameters
        assert init["hidden_units"].default == config.hidden_units
        assert init["hidden_layers"].default == config.hidden_layers
        corpus = inspect.signature(build_corpus).parameters
        assert corpus["val_fraction"].default == config.val_fraction
        assert corpus["test_fraction"].default == config.test_fraction
        assert corpus["snr_grid"].default == config.snr_grid
        assert corpus["sample_rate"].default == config.sample_rate

    def test_replace(self):
        assert RunConfig().replace(seed=9).seed == 9

    def test_float_echo_is_lossless(self):
        config = RunConfig(learning_rate=0.00123456789, snr_grid=(0.1 + 0.2, 5.0))
        text = config.dump()
        assert "train.learning_rate = 0.00123456789\n" in text
        assert "snr.grid = 0.30000000000000004,5\n" in text
        assert RunConfig.from_text(text) == config

    @pytest.mark.parametrize(
        "path",
        [REPO / "configs" / "full-scale.cfg", *sorted((REPO / "perfbench" / "configs").glob("*.cfg"))],
        ids=lambda p: p.name,
    )
    def test_presets_roundtrip(self, path):
        config = RunConfig.from_file(path)
        assert RunConfig.from_text(config.dump()) == config


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_BY_TYPE = {
    int: st.integers(-(2**63), 2**63),
    float: _FINITE,
    bool: st.booleans(),
    tuple[float, ...]: st.lists(_FINITE, min_size=1, max_size=8).map(tuple),
}
_BY_NAME = {
    "stft_window": st.sampled_from(WINDOW_NAMES),
    "variant": st.sampled_from([v.value for v in Variant]),
    # RunConfig rejects values below these.
    "seed": st.integers(0, 2**63),
    "context_tau": st.integers(0, 2**63),
    "noise_aware_frames": st.integers(1, 2**63),
}


@given(
    st.fixed_dictionaries(
        {f.name: _BY_NAME.get(f.name, _BY_TYPE.get(f.type)) for f in dataclasses.fields(RunConfig)}
    ).map(lambda values: RunConfig(**values))
)
def test_dump_roundtrips_any_config(config):
    assert RunConfig.from_text(config.dump()) == config


BASE_CONFIG = """\
train.epochs = 3
train.batch_size = 64
train.learning_rate = 0.003
train.dropout = 0
train.hidden_units = 16
train.hidden_layers = 1
split.val_fraction = 0
split.test_fraction = 0.5
post.enabled = off
seed = 3
"""


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Full prepare -> train -> enhance chain on a miniature corpus."""
    root = tmp_path_factory.mktemp("cli")
    clean_dir, noise_dir = root / "clean", root / "noise"
    clean_dir.mkdir()
    noise_dir.mkdir()
    for i in range(2):
        write_wav(clean_dir / f"v{i}.wav", harmonic_voice(0.6, 16000, f0=150.0 + 40 * i, seed=i))
    write_wav(noise_dir / "white.wav", white_noise(1.0, 16000, seed=42))
    config_path = root / "run.cfg"
    config_path.write_text(BASE_CONFIG)
    corpus_dir = root / "corpus"
    assert main(["prepare", "--config", str(config_path), str(clean_dir), str(noise_dir), str(corpus_dir)]) == 0
    ckpt = root / "models" / "baseline.sjnn"
    assert main(["train", "--config", str(config_path), str(corpus_dir), str(ckpt)]) == 0
    enhanced_dir = root / "enhanced"
    assert main([
        "enhance", "--config", str(config_path), str(ckpt), str(corpus_dir / "noisy"), str(enhanced_dir),
    ]) == 0
    return {
        "root": root,
        "clean_dir": clean_dir,
        "noise_dir": noise_dir,
        "config": config_path,
        "corpus": corpus_dir,
        "ckpt": ckpt,
        "enhanced": enhanced_dir,
    }


class TestPrepare:
    def test_manifest_covers_grid(self, env):
        entries = read_manifest(env["corpus"] / "manifest.tsv")
        assert len(entries) == 2 * 1 * 6  # clean x noise x snr grid
        assert (env["corpus"] / "effective-config.txt").exists()
        assert len(list((env["corpus"] / "noisy").glob("*.wav"))) == 12
        assert len(list((env["corpus"] / "features").glob("*.sjfm"))) == 12 * 5

    def test_rerun_is_byte_identical(self, env, tmp_path):
        again = tmp_path / "corpus2"
        code = main([
            "prepare", "--config", str(env["config"]),
            str(env["clean_dir"]), str(env["noise_dir"]), str(again),
        ])
        assert code == 0
        assert (again / "manifest.tsv").read_bytes() == (env["corpus"] / "manifest.tsv").read_bytes()

    def test_empty_noise_dir_fails(self, env, tmp_path, caplog):
        empty = tmp_path / "no_noise"
        empty.mkdir()
        code = main(["prepare", str(env["clean_dir"]), str(empty), str(tmp_path / "out")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"error: no WAV files in {empty}"]

    def test_empty_clean_dir_fails(self, env, tmp_path, caplog):
        empty = tmp_path / "no_clean"
        empty.mkdir()
        code = main(["prepare", str(empty), str(env["noise_dir"]), str(tmp_path / "out")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"error: no WAV files in {empty}"]
        assert not (tmp_path / "out").exists()

    def test_invalid_wav_fails(self, env, tmp_path):
        bad_dir = tmp_path / "bad_noise"
        bad_dir.mkdir()
        (bad_dir / "corrupt.wav").write_bytes(b"not really audio")
        code = main(["prepare", str(env["clean_dir"]), str(bad_dir), str(tmp_path / "out")])
        assert code == 1
        assert not (tmp_path / "out" / "manifest.tsv").exists()

    @pytest.mark.parametrize(
        "case",
        ["rate", "truncated", "short", "empty-noise", "zero-noise", "zero-clean"]
        + [f"header-{cut}" for cut in CUT_WAVS],
    )
    def test_bad_wav_named_once(self, env, tmp_path, case):
        clean_dir, noise_dir = tmp_path / "clean", tmp_path / "noise"
        shutil.copytree(env["clean_dir"], clean_dir)
        shutil.copytree(env["noise_dir"], noise_dir)
        bad = (noise_dir if case.endswith("noise") else clean_dir) / "bad.wav"
        if case == "rate":
            write_wav(bad, harmonic_voice(0.6, 8000, seed=3))
            reason = "sample rate 8000 Hz, expected 16000 Hz"
        elif case == "short":
            # Two frames: too few for the six-frame noise-aware estimate.
            write_wav(bad, Waveform(harmonic_voice(1.0, 16000, seed=3).samples[:1000]))
            reason = "1000 samples is too short: training needs at least 1792 samples (6 frames)"
        elif case == "truncated":
            write_wav(bad, harmonic_voice(1.0, 16000, seed=3))
            bad.write_bytes(bad.read_bytes()[:-1])
            reason = "sample data ends mid-sample"
        elif case.startswith("header-"):
            write_unreadable_wav(bad, case.removeprefix("header-"))
            reason = "not a valid PCM WAV file"
        else:
            write_wav(bad, Waveform(np.zeros(0 if case == "empty-noise" else 16000), 16000))
            reason = "no nonzero sample"
        result = run_child("prepare", str(clean_dir), str(noise_dir), str(tmp_path / "out"))
        assert_one_line_error(result, f"error: {bad}: {reason}")
        assert result.stderr.count(str(bad)) == 1
        assert not (tmp_path / "out").exists()

    def test_silent_noise_segment_names_the_pair(self, env, tmp_path):
        # One nonzero sample in 30 s of noise: most drawn offsets give a
        # clean-length segment that is all zeros.
        noise_dir = tmp_path / "noise"
        samples = np.zeros(30 * 16000)
        samples[0] = 0.5
        write_wav(noise_dir / "click.wav", Waveform(samples, 16000))
        result = run_child("prepare", str(env["clean_dir"]), str(noise_dir), str(tmp_path / "out"))
        assert_one_line_error(
            result, str(env["clean_dir"] / "v0.wav"), str(noise_dir / "click.wav"),
            "noise segment is silent",
        )

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_prepare_leaves_no_partial_corpus(self, tmp_path, existing):
        # The first drawn offset gives the 0.6 s voice a silent noise segment.
        clean_dir, noise_dir, out = tmp_path / "clean", tmp_path / "noise", tmp_path / "out"
        write_wav(clean_dir / "v.wav", harmonic_voice(0.6, 16000, seed=1))
        samples = np.zeros(30 * 16000)
        samples[0] = 0.5
        write_wav(noise_dir / "click.wav", Waveform(samples, 16000))
        if existing:
            (out / "noisy").mkdir(parents=True)
            (out / "notes.txt").write_text("kept")
        before = sorted(out.rglob("*"))
        result = run_child("prepare", str(clean_dir), str(noise_dir), str(out))
        assert_one_line_error(result, str(clean_dir / "v.wav"), "noise segment is silent")
        assert out.exists() == existing
        assert sorted(out.rglob("*")) == before

    def test_seed_flag_overrides_config(self, env, tmp_path):
        out = tmp_path / "seeded"
        code = main([
            "prepare", "--config", str(env["config"]), "--seed", "11",
            str(env["clean_dir"]), str(env["noise_dir"]), str(out),
        ])
        assert code == 0
        assert "seed = 11\n" in (out / "effective-config.txt").read_text()

    @pytest.mark.parametrize(
        "clean_stems, noise_stems, grid, clash",
        [
            (["v"], ["white"], "5,5", "v__white__snr5dB"),
            (["a", "a__b"], ["c", "b__c"], "5", "a__b__c__snr5dB"),
        ],
        ids=["repeated-snr", "stems-meet"],
    )
    def test_shared_utterance_id_fails_in_one_line(
        self, tmp_path, clean_stems, noise_stems, grid, clash
    ):
        # Two mixtures named alike would write one set of files and count
        # both in the statistics.
        clean_dir, noise_dir, out = tmp_path / "clean", tmp_path / "noise", tmp_path / "out"
        for i, stem in enumerate(clean_stems):
            write_wav(clean_dir / f"{stem}.wav", harmonic_voice(0.6, 16000, seed=i))
        for i, stem in enumerate(noise_stems):
            write_wav(noise_dir / f"{stem}.wav", white_noise(1.0, 16000, seed=10 + i))
        (tmp_path / "run.cfg").write_text(f"snr.grid = {grid}\n")
        result = run_child(
            "prepare", "--config", str(tmp_path / "run.cfg"), str(clean_dir), str(noise_dir), str(out)
        )
        assert_one_line_error(result, repr(clash))
        assert not out.exists()

    def test_no_training_voice_fails_in_one_line(self, env, tmp_path):
        # Of 3 voices, round(1.5) = 2 go to test and round(0.9) = 1 to val.
        clean_dir, out = tmp_path / "clean", tmp_path / "out"
        for i in range(3):
            write_wav(clean_dir / f"v{i}.wav", harmonic_voice(0.6, 16000, seed=i))
        (tmp_path / "run.cfg").write_text("split.val_fraction = 0.3\nsplit.test_fraction = 0.5\n")
        result = run_child(
            "prepare", "--config", str(tmp_path / "run.cfg"), str(clean_dir), str(env["noise_dir"]), str(out),
        )
        assert_one_line_error(result, "no voice left for training: 3 voices, 2 test, 1 val")
        assert not out.exists()

    def test_snr_past_the_float_range_mixes_the_clean_voice(self, env, tmp_path):
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text("snr.grid = 4000\n")
        result = run_child(
            "prepare", "--config", str(tmp_path / "run.cfg"),
            str(env["clean_dir"]), str(env["noise_dir"]), str(out),
        )
        assert result.returncode == 0
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        for entry in read_manifest(out / "manifest.tsv"):
            noisy = read_wav(out / "noisy" / f"{entry.utterance_id}.wav")
            assert np.array_equal(noisy.samples, read_wav(entry.clean_path).samples)

    def test_snr_below_the_float_range_fails_in_one_line(self, env, tmp_path):
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text("snr.grid = -4000\n")
        result = run_child(
            "prepare", "--config", str(tmp_path / "run.cfg"),
            str(env["clean_dir"]), str(env["noise_dir"]), str(out),
        )
        assert_one_line_error(result, "too quiet to reach -4000 dB SNR")
        assert not out.exists()

    def test_out_dir_that_is_a_file_fails_in_one_line(self, env, tmp_path):
        out = tmp_path / "corpus"
        out.write_text("kept")
        result = run_child("prepare", str(env["clean_dir"]), str(env["noise_dir"]), str(out))
        assert_one_line_error(result, str(out))
        assert out.read_text() == "kept"


class TestRejectedConfig:
    """Values that used to end a command deep inside numpy fail when the config loads."""

    @pytest.mark.parametrize(
        "command, line, reason",
        [
            ("prepare", None, "seed must be >= 0, got -1"),
            ("train", "seed = -1", "seed must be >= 0, got -1"),
            ("train", "context.tau = -1", "context.tau must be >= 0, got -1"),
            ("prepare", "noise_aware.frames = 0", "noise_aware.frames must be >= 1, got 0"),
            ("train", "noise_aware.frames = 0", "noise_aware.frames must be >= 1, got 0"),
            ("prepare", "snr.grid = nan", "bad value for snr.grid: expected a finite number"),
            ("prepare", "snr.grid = 20,1e400", "bad value for snr.grid: expected a finite number"),
            ("prepare", "split.val_fraction = nan", "bad value for split.val_fraction"),
        ],
        ids=["seed-flag", "seed", "tau", "frames-prepare", "frames-train", "grid-nan", "grid-inf",
             "val-nan"],
    )
    def test_fails_in_one_line_and_writes_nothing(self, env, tmp_path, command, line, reason):
        out = tmp_path / "out"
        if line is None:
            args = ["--seed", "-1"]
        else:
            (tmp_path / "bad.cfg").write_text(line + "\n")
            args = ["--config", str(tmp_path / "bad.cfg")]
        if command == "prepare":
            result = run_child("prepare", *args, str(env["clean_dir"]), str(env["noise_dir"]), str(out))
        else:
            result = run_child("train", *args, str(env["corpus"]), str(out / "m.sjnn"))
        assert_one_line_error(result, reason)
        assert not out.exists()


class TestTrain:
    def test_checkpoint_loads_with_expected_heads(self, env):
        model = load_model(env["ckpt"])
        assert model.heads == (HeadSpec(FeatureKind.LPS, 0, 257),)
        assert model.input_dim == 2056
        assert model.stats[FeatureKind.LPS].dims == 257

    def test_history_csv_written(self, env):
        lines = env["ckpt"].with_suffix(".history.csv").read_text().splitlines()
        assert lines[0].startswith("epoch,learning_rate,train_total")
        assert len(lines) == 1 + 3  # header + one row per epoch
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[2]) > 0.0  # train_total
        assert first[6] == ""  # no val split configured

    def test_retrain_is_byte_identical(self, env, tmp_path):
        again = tmp_path / "again.sjnn"
        code = main(["train", "--config", str(env["config"]), str(env["corpus"]), str(again)])
        assert code == 0
        assert again.read_bytes() == env["ckpt"].read_bytes()

    def test_zero_rate_freezes_history(self, env, tmp_path):
        config_path = tmp_path / "frozen.cfg"
        config_path.write_text(BASE_CONFIG.replace(
            "train.learning_rate = 0.003", "train.learning_rate = 0"
        ))
        ckpt = tmp_path / "frozen.sjnn"
        code = main(["train", "--config", str(config_path), str(env["corpus"]), str(ckpt)])
        assert code == 0
        rows = ckpt.with_suffix(".history.csv").read_text().splitlines()[1:]
        totals = [float(row.split(",")[2]) for row in rows]
        assert len(totals) == 3
        assert max(totals) - min(totals) <= 1e-12 * max(totals)

    def test_variant_flag_selects_heads(self, env, tmp_path):
        ckpt = tmp_path / "masked.sjnn"
        code = main([
            "train", "--config", str(env["config"]), "--variant", "ibm",
            str(env["corpus"]), str(ckpt),
        ])
        assert code == 0
        model = load_model(ckpt)
        assert [h.kind for h in model.heads] == [FeatureKind.LPS, FeatureKind.IBM]

    @pytest.mark.parametrize(
        "line, variant, config_dims, corpus_dims",
        [("stft.fft_size = 1024", "baseline", 513, 257), ("mel.filters = 30", "mfcc", 31, 41)],
    )
    def test_feature_size_mismatch_fails_in_one_line(
        self, env, tmp_path, line, variant, config_dims, corpus_dims
    ):
        config_path = tmp_path / "resized.cfg"
        config_path.write_text(BASE_CONFIG + line + "\n")
        ckpt = tmp_path / "model.sjnn"
        result = run_child(
            "train", "--config", str(config_path), "--variant", variant, str(env["corpus"]), str(ckpt)
        )
        assert_one_line_error(result, "error:", f"{config_dims} ", f"has {corpus_dims}")
        assert not ckpt.exists()

    def test_no_train_split_fails_in_one_line(self, env, tmp_path, caplog):
        corpus = tmp_path / "corpus"
        shutil.copytree(env["corpus"] / "stats", corpus / "stats")
        manifest = corpus / "manifest.tsv"
        manifest.write_text((env["corpus"] / "manifest.tsv").read_text().replace("\ttrain\n", "\tval\n"))
        ckpt = tmp_path / "m.sjnn"
        assert main(["train", "--config", str(env["config"]), str(corpus), str(ckpt)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"error: manifest {manifest} has no train-split entries"]
        assert not ckpt.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_ends_in_one_error_line(self, env, tmp_path, caplog):
        config_path = tmp_path / "wild.cfg"
        config_path.write_text(BASE_CONFIG.replace(
            "train.learning_rate = 0.003", "train.learning_rate = 1e9"
        ))
        ckpt = tmp_path / "wild.sjnn"
        assert main(["train", "--config", str(config_path), str(env["corpus"]), str(ckpt)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith("error: non-finite loss at epoch ")
        # The rolled-back parameters and the epochs before the divergence are kept.
        assert all(np.all(np.isfinite(w)) for w in load_model(ckpt).weights)
        assert ckpt.with_suffix(".history.csv").read_text().startswith("epoch,learning_rate,")

    def test_checkpoint_directory_fails_before_training(self, env, tmp_path):
        ckpt = tmp_path / "m.sjnn"
        ckpt.mkdir()
        result = run_child("train", "--config", str(env["config"]), str(env["corpus"]), str(ckpt))
        assert_one_line_error(result, f"checkpoint {ckpt} is a directory")
        assert list(tmp_path.iterdir()) == [ckpt] and not any(ckpt.iterdir())

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("train.epochs", "0", "epochs must be >= 1, got 0"),
            ("train.hidden_units", "0", "hidden_units and hidden_layers must be >= 1"),
            ("train.momentum", "1", "momentum must be in [0, 1)"),
            ("train.dropout", "1", "dropout must be in [0, 1)"),
        ],
        ids=["epochs", "hidden-units", "momentum", "dropout"],
    )
    def test_bad_train_value_fails_before_rows_are_read(
        self, env, tmp_path, monkeypatch, caplog, key, value, reason
    ):
        def no_rows(*args, **kwargs):
            raise AssertionError("training rows were read")

        monkeypatch.setattr("specjoint.cli.load_training_data", no_rows)
        kept = [line for line in BASE_CONFIG.splitlines() if not line.startswith(f"{key} ")]
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("\n".join([*kept, f"{key} = {value}"]) + "\n")
        ckpt = tmp_path / "m.sjnn"
        assert main(["train", "--config", str(config_path), str(env["corpus"]), str(ckpt)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith("error: ") and reason in errors[0]
        assert list(tmp_path.iterdir()) == [config_path]

    def test_unknown_variant_rejected_by_parser(self, env):
        with pytest.raises(SystemExit):
            main(["train", "--variant", "bogus", str(env["corpus"]), "x.sjnn"])


def row_losses(variant: Variant, lps, mfcc=None, ibm=None):
    """Losses of one hand-picked output row against the targets (3, 4), (2,) and (0, 1).

    LPS (0, 0) -> 1, (3, 0) -> 0.64, (3, 2) -> 0.16; MFCC (0,) -> 1, (1,) -> 0.25;
    mask (1, 0) -> 2, (0.5, 1) -> 0.25.
    """
    model = init_model(variant, 1, {}, 0, 0, 2, 1, hidden_units=1, hidden_layers=1)
    kinds = variant.head_kinds
    batch = dense_rows(
        inputs=np.zeros((1, 1)),
        targets_lps=np.array([[3.0, 4.0]]),
        targets_mfcc=np.array([[2.0]]) if FeatureKind.MFCC in kinds else None,
        targets_ibm=np.array([[0.0, 1.0]]) if FeatureKind.IBM in kinds else None,
    )
    outputs = np.array([lps + (mfcc or []) + (ibm or [])])
    return loss_and_output_grad(model, outputs, batch, 0.1, 0.002)[0]


class TestHistoryCsv:
    """The exact text of <checkpoint>.history.csv, header included."""

    def test_baseline_without_validation(self):
        history = [
            EpochStats(1, 0.001, row_losses(Variant.BASELINE, [0.0, 0.0]), None),
            EpochStats(2, 0.0001, row_losses(Variant.BASELINE, [3.0, 0.0]), None),
        ]
        assert _history_csv(history) == (
            "epoch,learning_rate,train_total,train_lps,train_mfcc,train_ibm,"
            "val_total,val_lps,val_mfcc,val_ibm\n"
            "1,0.001,1,1,,,,,,\n"
            "2,0.0001,0.64,0.64,,,,,,\n"
        )

    def test_joint_with_validation(self):
        v = Variant.MFCC_IBM
        history = [
            EpochStats(
                1,
                0.001,
                row_losses(v, [0.0, 0.0], [0.0], [1.0, 0.0]),
                row_losses(v, [3.0, 0.0], [1.0], [0.5, 1.0]),
            ),
            EpochStats(
                2,
                0.00055,
                row_losses(v, [3.0, 2.0], [1.0], [0.5, 1.0]),
                row_losses(v, [3.0, 0.0], [0.0], [1.0, 0.0]),
            ),
        ]
        # total = lps + 0.1 mfcc + 0.002 mask
        assert _history_csv(history) == (
            "epoch,learning_rate,train_total,train_lps,train_mfcc,train_ibm,"
            "val_total,val_lps,val_mfcc,val_ibm\n"
            "1,0.001,1.104,1,1,2,0.6655,0.64,0.25,0.25\n"
            "2,0.00055,0.1855,0.16,0.25,0.25,0.744,0.64,1,2\n"
        )


class TestMalformedCorpus:
    """Bad corpus fields end in one error line naming the file, never a traceback."""

    @pytest.mark.parametrize(
        "line",
        [
            "a.wav\tb.wav\t20",
            "a.wav\tb.wav\tloud\t0\ttrain",
            "a.wav\tb.wav\t20\tsoon\ttrain",
            "a.wav\tb.wav\t20\t0\tdev",
        ],
        ids=["fields", "snr", "offset", "split"],
    )
    def test_manifest_line(self, env, tmp_path, line):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        manifest = corpus / "manifest.tsv"
        rows = (env["corpus"] / "manifest.tsv").read_text().splitlines()
        manifest.write_text("\n".join([*rows, line]) + "\n")
        result = run_child("train", str(corpus), str(tmp_path / "m.sjnn"))
        assert_one_line_error(result, f"{manifest}:{len(rows) + 1}: ")

    def test_short_mixture(self, env, tmp_path):
        # A corpus prepared without the length check: one clean voice of 1000 samples.
        clean_dir = tmp_path / "clean"
        shutil.copytree(env["clean_dir"], clean_dir)
        write_wav(clean_dir / "short.wav", Waveform(harmonic_voice(1.0, 16000, seed=3).samples[:1000]))
        corpus = tmp_path / "corpus"
        corpus_mod.build_corpus(
            sorted(clean_dir.glob("*.wav")), sorted(env["noise_dir"].glob("*.wav")), corpus,
            StftConfig(), mel_bank(), IbmConfig(), snr_grid=(0.0,), val_fraction=0.0,
            test_fraction=0.0,
        )
        result = run_child("train", str(corpus), str(tmp_path / "m.sjnn"))
        assert result.returncode == 1 and "Traceback" not in result.stderr
        errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, result.stderr
        assert "short__white__snr0dB.noisy_lps.sjfm: 2 frames is too short" in errors[0]

    def test_narrow_target_container(self, env, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(env["corpus"], corpus)
        entry = next(e for e in read_manifest(corpus / "manifest.tsv") if e.split == "train")
        target = corpus / "features" / f"{entry.utterance_id}.clean_lps.sjfm"
        write_features(target, FeatureMatrix(read_features(target).data[:, :100], FeatureKind.LPS))
        result = run_child("train", "--config", str(env["config"]), str(corpus), str(tmp_path / "m.sjnn"))
        assert result.returncode == 1 and "Traceback" not in result.stderr
        errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {target}: 100 LPS columns, expected 257 LPS"], result.stderr
        assert not (tmp_path / "m.sjnn").exists()

    @pytest.mark.parametrize(
        "rows", [np.ones((3, 257)), np.vstack([np.zeros(257), np.zeros(257)])],
        ids=["row-count", "variance"],
    )
    def test_stats_container(self, env, tmp_path, rows):
        corpus = tmp_path / "corpus"
        shutil.copytree(env["corpus"] / "stats", corpus / "stats")
        shutil.copy(env["corpus"] / "manifest.tsv", corpus)
        stats = corpus / "stats" / "lps.sjfm"
        write_features(stats, FeatureMatrix(rows, FeatureKind.LPS))
        result = run_child("train", str(corpus), str(tmp_path / "m.sjnn"))
        assert_one_line_error(result, str(stats))


class TestEnhance:
    def test_outputs_match_inputs(self, env):
        noisy = sorted(p.name for p in (env["corpus"] / "noisy").glob("*.wav"))
        enhanced = sorted(p.name for p in env["enhanced"].glob("*.wav"))
        assert enhanced == noisy
        diags = list(env["enhanced"].glob("*.diag.txt"))
        assert len(diags) == len(noisy)
        assert (env["enhanced"] / "effective-config.txt").exists()

    def test_single_file_input(self, env, tmp_path):
        src = next(iter((env["corpus"] / "noisy").glob("*.wav")))
        out = tmp_path / "single"
        code = main([
            "enhance", "--config", str(env["config"]), str(env["ckpt"]), str(src), str(out),
        ])
        assert code == 0
        assert (out / src.name).read_bytes() == (env["enhanced"] / src.name).read_bytes()

    def test_parallel_jobs_match_serial(self, env, tmp_path):
        out = tmp_path / "parallel"
        code = main([
            "enhance", "--config", str(env["config"]), "--jobs", "3",
            str(env["ckpt"]), str(env["corpus"] / "noisy"), str(out),
        ])
        assert code == 0
        for path in env["enhanced"].glob("*.wav"):
            assert (out / path.name).read_bytes() == path.read_bytes()

    def test_gate_without_mask_head_fails_early(self, env, tmp_path, caplog):
        out = tmp_path / "gated"
        code = main([
            "enhance", "--config", str(env["config"]), "--post-process", "on",
            str(env["ckpt"]), str(env["corpus"] / "noisy"), str(out),
        ])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "no mask head" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("form", ["directory", "file", "dotted"])
    def test_out_dir_that_is_the_input_directory_fails(self, env, tmp_path, form):
        inputs = tmp_path / "in"
        shutil.copytree(env["corpus"] / "noisy", inputs)
        before = {path.name: path.read_bytes() for path in inputs.iterdir()}
        source = sorted(inputs.glob("*.wav"))[0] if form == "file" else inputs
        out_dir = tmp_path / "in" / ".." / "in" if form == "dotted" else inputs
        result = run_child(
            "enhance", "--config", str(env["config"]), "--post-process", "off",
            str(env["ckpt"]), str(source), str(out_dir),
        )
        assert_one_line_error(result, "error:", str(out_dir))
        assert {path.name: path.read_bytes() for path in inputs.iterdir()} == before

    def test_missing_input_fails(self, env, tmp_path, caplog):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main([
            "enhance", "--config", str(env["config"]), str(env["ckpt"]), str(empty), str(tmp_path / "o"),
        ])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"error: no WAV files in {empty}"]

    def test_short_wav_fails_only_that_file(self, env, tmp_path, caplog):
        # 1,000 samples give 2 frames, fewer than the 6 the noise estimate needs.
        src = tmp_path / "in"
        voice = harmonic_voice(1.0, 16000, seed=7)
        write_wav(src / "a.wav", voice)
        write_wav(src / "b.wav", Waveform(voice.samples[:1000], 16000))
        write_wav(src / "c.wav", harmonic_voice(1.0, 16000, f0=210.0, seed=8))
        config = RunConfig.from_file(env["config"])
        needed = config.stft_frame_len + (config.noise_aware_frames - 1) * config.stft_hop
        written = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            caplog.clear()
            code = main([
                "enhance", "--config", str(env["config"]), "--jobs", jobs,
                str(env["ckpt"]), str(src), str(out),
            ])
            assert code == 1
            errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
            assert len(errors) == 1
            assert str(src / "b.wav") in errors[0] and f"{needed} samples" in errors[0]
            written.append({p.name: p.read_bytes() for p in out.glob("*.wav")})
        assert sorted(written[0]) == ["a.wav", "c.wav"]
        assert written[0] == written[1]

    def test_truncated_checkpoint_fails_in_one_line(self, env, tmp_path):
        blob = env["ckpt"].read_bytes()
        cut = tmp_path / "cut.sjnn"
        cut.write_bytes(blob[: len(blob) // 2])
        result = run_child(
            "enhance", "--config", str(env["config"]),
            str(cut), str(env["corpus"] / "noisy"), str(tmp_path / "o"),
        )
        assert_one_line_error(result, str(cut))

    def test_unreadable_wav_fails_only_that_file(self, env, tmp_path, caplog):
        src = tmp_path / "in"
        write_wav(src / "a.wav", harmonic_voice(1.0, 16000, seed=7))
        write_wav(src / "b.wav", harmonic_voice(1.0, 8000, seed=9))
        write_wav(src / "c.wav", harmonic_voice(1.0, 16000, f0=210.0, seed=8))
        written = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            caplog.clear()
            code = main([
                "enhance", "--config", str(env["config"]), "--jobs", jobs,
                str(env["ckpt"]), str(src), str(out),
            ])
            assert code == 1
            errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
            assert len(errors) == 1
            assert str(src / "b.wav") in errors[0] and "8000 Hz" in errors[0]
            written.append({p.name: p.read_bytes() for p in out.glob("*.wav")})
        assert sorted(written[0]) == ["a.wav", "c.wav"]
        assert written[0] == written[1]

    @pytest.mark.parametrize("case", [*CUT_WAVS, "directory"])
    def test_file_that_cannot_be_read_fails_only_itself(self, env, tmp_path, caplog, case):
        src = tmp_path / "in"
        write_wav(src / "a.wav", harmonic_voice(1.0, 16000, seed=7))
        write_unreadable_wav(src / "b.wav", case)
        write_wav(src / "c.wav", harmonic_voice(1.0, 16000, f0=210.0, seed=8))
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            caplog.clear()
            code = main([
                "enhance", "--config", str(env["config"]), "--jobs", jobs,
                str(env["ckpt"]), str(src), str(out),
            ])
            assert code == 1
            errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
            assert len(errors) == 1 and errors[0].startswith(f"error: {src / 'b.wav'}: ")
            assert sorted(p.name for p in out.glob("*.wav")) == ["a.wav", "c.wav"]

    def test_checkpoint_directory_fails_in_one_line(self, env, tmp_path):
        result = run_child(
            "enhance", "--config", str(env["config"]),
            str(tmp_path), str(env["corpus"] / "noisy"), str(tmp_path / "o"),
        )
        assert_one_line_error(result, str(tmp_path))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("byte", ["head", "stats"])
    def test_unknown_kind_byte_fails_in_one_line(self, env, tmp_path, byte):
        blob = bytearray(env["ckpt"].read_bytes())
        # One hidden layer gives two <II> shapes; the head count byte follows,
        # then <BII> per head, then the stats count byte.
        first_head = 4 + 4 + 9 + 4 + 2 * 8 + 1
        n_heads = blob[first_head - 1]
        blob[first_head if byte == "head" else first_head + 9 * n_heads + 1] = 9
        bad = tmp_path / "bad.sjnn"
        bad.write_bytes(bytes(blob))
        result = run_child(
            "enhance", "--config", str(env["config"]),
            str(bad), str(env["corpus"] / "noisy"), str(tmp_path / "o"),
        )
        assert_one_line_error(result, str(bad), "unknown feature kind 9")


    @pytest.mark.parametrize(
        "line, variant, config_dims, checkpoint_dims",
        [("stft.fft_size = 1024", "baseline", 513, 257), ("mel.filters = 30", "mfcc", 31, 41)],
    )
    def test_feature_size_mismatch_fails_in_one_line(
        self, env, tmp_path, line, variant, config_dims, checkpoint_dims
    ):
        ckpt = tmp_path / f"{variant}.sjnn"
        train = ["train", "--config", str(env["config"]), "--variant", variant]
        assert main([*train, str(env["corpus"]), str(ckpt)]) == 0
        config_path = tmp_path / "resized.cfg"
        config_path.write_text(BASE_CONFIG + line + "\n")
        out = tmp_path / "o"
        result = run_child(
            "enhance", "--config", str(config_path), str(ckpt), str(env["corpus"] / "noisy"), str(out)
        )
        assert_one_line_error(result, "error:", f"{config_dims} ", f"has {checkpoint_dims}")
        assert not out.exists()

    def test_checkpoint_without_stats_fails_in_one_line(self, env, tmp_path):
        dims = input_dim(Variant.BASELINE, 257, 41, 3)
        model = init_model(Variant.BASELINE, dims, {}, 3, 6, 257, 41, hidden_units=8, hidden_layers=1)
        ckpt = tmp_path / "bare.sjnn"
        save_model(ckpt, model)
        out = tmp_path / "o"
        result = run_child(
            "enhance", "--config", str(env["config"]), str(ckpt), str(env["corpus"] / "noisy"), str(out)
        )
        assert_one_line_error(result, "error:", str(ckpt), "head table")
        assert not out.exists()

    def test_misfit_head_width_fails_in_one_line(self, env, tmp_path):
        blob = bytearray(env["ckpt"].read_bytes())
        # The single LPS head's width follows its kind byte and offset.
        width_at = 4 + 4 + 9 + 4 + 2 * 8 + 1 + 1 + 4
        assert struct.unpack_from("<I", blob, width_at) == (257,)
        struct.pack_into("<I", blob, width_at, 100)
        bad = tmp_path / "bad.sjnn"
        bad.write_bytes(bytes(blob))
        result = run_child(
            "enhance", "--config", str(env["config"]),
            str(bad), str(env["corpus"] / "noisy"), str(tmp_path / "o"),
        )
        assert_one_line_error(result, "error:", str(bad), "head table")

    @pytest.mark.parametrize("fault", ["tau", "variant", "first-layer", "lps-head", "ibm-head"])
    def test_checkpoint_off_its_own_layout_fails_in_one_line(self, env, tmp_path, fault):
        # Well-formed files whose layout is not the one init_model builds for
        # their own variant, statistics and tau.
        variant = {"variant": Variant.MFCC_OUT, "ibm-head": Variant.IBM}.get(fault, Variant.BASELINE)
        stats = corpus_mod.read_corpus_stats(env["corpus"])
        lps, mfcc = stats[FeatureKind.LPS].dims, stats[FeatureKind.MFCC].dims
        dims = input_dim(variant, lps, mfcc, 3)
        model = init_model(variant, dims, stats, 3, 6, lps, mfcc, hidden_units=8, hidden_layers=1)
        if fault == "tau":
            model.tau = 2
        elif fault == "variant":
            model.variant = Variant.MFCC  # the same heads, but the MFCC joins the input
        elif fault == "first-layer":
            model.weights[0] = model.weights[0][lps:]
        else:  # narrow the last head, and the output layer with it
            last = model.heads[-1]
            end = last.offset + {"lps-head": 129, "ibm-head": 100}[fault]
            model.heads = (*model.heads[:-1], HeadSpec(last.kind, last.offset, end - last.offset))
            model.weights[-1], model.biases[-1] = model.weights[-1][:, :end], model.biases[-1][:end]
        ckpt = tmp_path / f"{fault}.sjnn"
        save_model(ckpt, model)
        out = tmp_path / "o"
        post = "on" if variant == Variant.IBM else "off"  # only the gate reads the mask
        result = run_child(
            "enhance", "--config", str(env["config"]), "--post-process", post,
            str(ckpt), str(env["corpus"] / "noisy"), str(out),
        )
        assert_one_line_error(result, "error:", str(ckpt), "head table")
        assert not out.exists()


class TestEvaluate:
    def test_writes_report(self, env, tmp_path):
        out_csv = tmp_path / "report.csv"
        code = main(["evaluate", str(env["corpus"]), str(env["enhanced"]), str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "noise,snr_db,metric,value"
        assert any(line.startswith("overall,,ssnr_db,") for line in lines)
        # Test split: 1 voice x 6 SNRs, two metric rows per condition.
        assert sum(line.startswith("white,") for line in lines) == 12

    def test_train_split_selectable(self, env, tmp_path):
        out_csv = tmp_path / "train-report.csv"
        code = main([
            "evaluate", "--split", "train", str(env["corpus"]), str(env["enhanced"]), str(out_csv),
        ])
        assert code == 0

    def test_missing_enhanced_file_fails(self, env, tmp_path):
        partial = tmp_path / "partial"
        shutil.copytree(env["enhanced"], partial)
        removed = sorted(partial.glob("*.wav"))[0]
        removed.unlink()
        out_csv = tmp_path / "partial.csv"
        code = main(["evaluate", "--split", "train", str(env["corpus"]), str(partial), str(out_csv)])
        # The train-split voice may or may not be the removed one; pick the
        # split that contains it to make the outcome deterministic.
        stem = removed.stem
        entries = read_manifest(env["corpus"] / "manifest.tsv")
        split = next(e.split for e in entries if e.utterance_id == stem)
        out_csv2 = tmp_path / "partial2.csv"
        code = main(["evaluate", "--split", split, str(env["corpus"]), str(partial), str(out_csv2)])
        assert code == 1
        assert f"missing,,utterance,{stem}" in out_csv2.read_text()

    def test_config_is_read(self, env, tmp_path):
        config = tmp_path / "narrow.cfg"
        config.write_text("sample_rate = 8000\n")
        result = run_child(
            "evaluate", "--config", str(config),
            str(env["corpus"]), str(env["enhanced"]), str(tmp_path / "r.csv"),
        )
        assert_one_line_error(result, ".wav: sample rate 16000 Hz, expected 8000 Hz")

    def test_empty_split_errors(self, env, tmp_path):
        code = main([
            "evaluate", "--split", "val", str(env["corpus"]), str(env["enhanced"]),
            str(tmp_path / "x.csv"),
        ])
        assert code == 1

    @pytest.mark.parametrize("command", ["evaluate", "distortion-profile"])
    def test_empty_split_names_the_manifest(self, env, tmp_path, command):
        result = run_child(
            command, "--split", "val", str(env["corpus"]), str(env["enhanced"]), str(tmp_path / "x.csv")
        )
        assert_one_line_error(result, "error:", str(env["corpus"] / "manifest.tsv"), "val-split")

    @pytest.mark.parametrize("case", [*CUT_WAVS, "directory"])
    def test_enhanced_file_that_cannot_be_read_fails_only_itself(self, env, tmp_path, caplog, case):
        enhanced = tmp_path / "enhanced"
        shutil.copytree(env["enhanced"], enhanced)
        test_ids = sorted(
            e.utterance_id for e in read_manifest(env["corpus"] / "manifest.tsv") if e.split == "test"
        )
        bad = enhanced / f"{test_ids[1]}.wav"
        bad.unlink()
        write_unreadable_wav(bad, case)
        out_csv = tmp_path / "report.csv"
        code = main(["evaluate", "--config", str(env["config"]), str(env["corpus"]), str(enhanced), str(out_csv)])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith(f"error: {bad}: ")
        lines = out_csv.read_text().splitlines()
        assert lines[-1] == f"failed,,utterance,{test_ids[1]}"
        assert lines[-2].startswith("overall,,stoi,")

    def test_nothing_to_score(self, env, tmp_path):
        # The enhanced directory holds WAVs, but none of the test split's.
        elsewhere = tmp_path / "elsewhere"
        write_wav(elsewhere / "other.wav", harmonic_voice(0.6, 16000, seed=9))
        out_csv = tmp_path / "none.csv"
        result = run_child("evaluate", str(env["corpus"]), str(elsewhere), str(out_csv))
        assert result.returncode == 1
        assert "error: no enhanced utterance of split 'test' could be scored" in result.stderr.splitlines()
        assert not out_csv.exists()


class TestDistortionProfile:
    def test_writes_per_bin_rows(self, env, tmp_path):
        out_csv = tmp_path / "profile.csv"
        code = main([
            "distortion-profile", "--config", str(env["config"]),
            str(env["corpus"]), str(env["enhanced"]), str(out_csv),
        ])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "bin_hz,mean_distortion"
        assert len(lines) == 1 + 257
        assert lines[1].startswith("0.00,")
        assert lines[-1].startswith("8000.00,")

    def test_missing_files_fail(self, env, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code = main([
            "distortion-profile", str(env["corpus"]), str(empty), str(tmp_path / "p.csv"),
        ])
        assert code == 1


@pytest.fixture(scope="module")
def scoring_env(tmp_path_factory):
    """Four voices, two in the test split, mixed with two noises. The noisy
    mixtures stand in for enhanced output, so scoring needs no trained model."""
    root = tmp_path_factory.mktemp("scoring")
    for i in range(4):
        voice = harmonic_voice(0.7, 16000, f0=120.0 + 30 * i, seed=20 + i)
        write_wav(root / "clean" / f"v{i}.wav", voice)
    for i, name in enumerate(["hiss", "white"]):
        write_wav(root / "noise" / f"{name}.wav", white_noise(1.0, 16000, seed=30 + i))
    config_path = root / "run.cfg"
    config_path.write_text(BASE_CONFIG)
    corpus_dir = root / "corpus"
    args = ["prepare", "--config", str(config_path), str(root / "clean"), str(root / "noise")]
    assert main([*args, str(corpus_dir)]) == 0
    entries = read_manifest(corpus_dir / "manifest.tsv")
    test_cleans = sorted({e.clean_path for e in entries if e.split == "test"})
    assert len(test_cleans) == 2
    return {"config": config_path, "corpus": corpus_dir, "entries": entries, "test_cleans": test_cleans}


def score_noisy(scoring_env, command: str, jobs: str, out_csv: Path, corpus_dir=None) -> int:
    return main([
        command, "--config", str(scoring_env["config"]), "--jobs", jobs,
        str(corpus_dir or scoring_env["corpus"]), str(scoring_env["corpus"] / "noisy"), str(out_csv),
    ])


# Bytes the scoring pass writes for scoring_env's noisy test mixtures.
SCORING_GOLDENS = {
    "evaluate": "a08e31b2221e5ca89c65db857662fed687821e7b1ea6f65ac5c82a41452df5c5",
    "distortion-profile": "3e974101f6282e15deb614a9b74b6e84a8c030b5f62e1d39a84352211f66d9a1",
}


class TestScoringPass:
    """evaluate and distortion-profile read clean/enhanced pairs the same way."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", ["evaluate", "distortion-profile"])
    def test_outputs_match_goldens(self, scoring_env, tmp_path, command, jobs):
        out_csv = tmp_path / "out.csv"
        assert score_noisy(scoring_env, command, jobs, out_csv) == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == SCORING_GOLDENS[command]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", ["evaluate", "distortion-profile"])
    def test_each_clean_voice_is_read_once(self, scoring_env, tmp_path, monkeypatch, command, jobs):
        reads = []

        def counting_read_wav(path, *args, **kwargs):
            reads.append(Path(path))
            return read_wav(path, *args, **kwargs)

        monkeypatch.setattr("specjoint.metrics.read_wav", counting_read_wav)
        assert score_noisy(scoring_env, command, jobs, tmp_path / "out.csv") == 0
        clean_dir = scoring_env["test_cleans"][0].parent
        assert sorted(p for p in reads if p.parent == clean_dir) == scoring_env["test_cleans"]
        assert len(reads) == 2 + 24  # two cleans, then 2 voices x 2 noises x 6 SNRs

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", ["evaluate", "distortion-profile"])
    def test_unreadable_clean_ends_the_run(self, scoring_env, tmp_path, caplog, command, jobs):
        bad = tmp_path / "clean" / scoring_env["test_cleans"][1].name
        write_unreadable_wav(bad, "garbage")
        entries = [
            dataclasses.replace(e, clean_path=bad) if e.clean_path.name == bad.name else e
            for e in scoring_env["entries"]
        ]
        (tmp_path / "corpus").mkdir()
        write_manifest(tmp_path / "corpus" / "manifest.tsv", entries)
        out_csv = tmp_path / "out.csv"
        assert score_noisy(scoring_env, command, jobs, out_csv, tmp_path / "corpus") == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith(f"error: {bad}: not a valid PCM WAV")
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["evaluate", "distortion-profile"])
    def test_jobs_match_serial(self, env, tmp_path, command):
        csvs = []
        for jobs in ("1", "2"):
            out_csv = tmp_path / f"jobs{jobs}.csv"
            code = main([
                command, "--config", str(env["config"]), "--jobs", jobs,
                str(env["corpus"]), str(env["enhanced"]), str(out_csv),
            ])
            assert code == 0
            csvs.append(out_csv.read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("command", ["evaluate", "distortion-profile"])
    def test_short_enhanced_wav_is_scored(self, tmp_path, command):
        clean_path = tmp_path / "clean" / "v.wav"
        voice = harmonic_voice(2.0, 16000, seed=5)
        write_wav(clean_path, voice)
        entry = MixSpec(clean_path, Path("white.wav"), 5.0, 0, "test")
        write_manifest(tmp_path / "manifest.tsv", [entry])
        noisy = voice.samples + 0.05 * white_noise(2.0, 16000, seed=6).samples
        enhanced_dir = tmp_path / "enhanced"
        write_wav(enhanced_dir / f"{entry.utterance_id}.wav", Waveform(noisy[:-4000], 16000))
        out_csv = tmp_path / "out.csv"
        assert main([command, str(tmp_path), str(enhanced_dir), str(out_csv)]) == 0
        assert len(out_csv.read_text().splitlines()) > 1


    @pytest.mark.parametrize(
        "command,keep,reason",
        [
            ("evaluate", 3000, "only 13 active frames"),
            ("distortion-profile", 100, "signal of 100 samples is shorter than one frame (512)"),
        ],
    )
    def test_unscorable_file_fails_only_itself(self, env, tmp_path, caplog, command, keep, reason):
        enhanced = tmp_path / "enhanced"
        shutil.copytree(env["enhanced"], enhanced)
        test_ids = sorted(
            e.utterance_id for e in read_manifest(env["corpus"] / "manifest.tsv") if e.split == "test"
        )
        cut = enhanced / f"{test_ids[2]}.wav"
        write_wav(cut, Waveform(read_wav(cut).samples[:keep], 16000))
        csvs = []
        for jobs in ("1", "2"):
            out_csv = tmp_path / f"jobs{jobs}.csv"
            caplog.clear()
            code = main([
                command, "--config", str(env["config"]), "--jobs", jobs,
                str(env["corpus"]), str(enhanced), str(out_csv),
            ])
            assert code == 1
            errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
            assert len(errors) == 1 and errors[0].startswith(f"error: {cut}: {reason}")
            csvs.append(out_csv.read_bytes())
        assert csvs[0] == csvs[1]
        if command == "evaluate":
            lines = csvs[0].decode().splitlines()
            assert lines[-1] == f"failed,,utterance,{test_ids[2]}"
            assert lines[-2].startswith("overall,,stoi,")


class TestMisc:
    def test_dump_defaults(self, capsys):
        assert main(["dump-defaults"]) == 0
        assert capsys.readouterr().out == RunConfig().dump()

    @pytest.mark.parametrize(
        "command",
        ["prepare", "train", "enhance", "evaluate", "distortion-profile", "dump-defaults"],
    )
    def test_help_available(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert command in capsys.readouterr().out

    def test_seed_flag_only_where_it_has_an_effect(self, capsys):
        # enhance draws no random number, so it refuses --seed.
        with pytest.raises(SystemExit) as exc:
            main(["enhance", "--seed", "1", "m.sjnn", "noisy.wav", "out"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        parser = build_parser()
        assert parser.parse_args(["prepare", "--seed", "1", "clean", "noise", "out"]).seed == 1
        assert parser.parse_args(["train", "--seed", "1", "corpus", "m.sjnn"]).seed == 1

    def test_console_script(self, tmp_path):
        # Run the entry point that pyproject.toml declares the way an installed
        # console-script wrapper does, so no install is needed.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["specjoint"]
        module, attr = entry.split(":")
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        def run(*args):
            return subprocess.run(
                [sys.executable, "-c", wrapper, *args],
                capture_output=True, text=True, timeout=60, env=child_env(),
            )

        result = run("dump-defaults")
        assert result.returncode == 0, result.stderr
        assert result.stdout == RunConfig().dump()
        # A failing command must reach the process exit status as well.
        failed = run("train", str(tmp_path), str(tmp_path / "x.sjnn"))
        assert failed.returncode == 1, failed.stderr

    @pytest.mark.skipif(
        shutil.which("specjoint") is None, reason="specjoint command is not installed"
    )
    def test_installed_console_script(self):
        result = subprocess.run(
            ["specjoint", "dump-defaults"], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0
        assert result.stdout == RunConfig().dump()

    def test_spec_error_becomes_exit_code(self, env, tmp_path):
        # A manifest-less corpus raises inside the command; main() maps it to 1.
        code = main(["train", str(tmp_path), str(tmp_path / "x.sjnn")])
        assert code == 1
