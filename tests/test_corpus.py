import re
import shutil
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specjoint import (
    ConfigError,
    FeatureKind,
    FeatureMatrix,
    FormatError,
    IbmConfig,
    MixSpec,
    NormStats,
    ScalingError,
    StftConfig,
    Variant,
    Waveform,
    assemble_batches,
    build_corpus,
    build_input_rows,
    denormalize,
    estimate_noise_aware_vector,
    input_dim,
    load_training_data,
    mel_bank,
    mix_at_snr,
    normalize,
    read_corpus_stats,
    read_manifest,
    read_norm_stats,
    read_wav,
    stft,
    write_manifest,
    write_features,
    write_norm_stats,
    write_wav,
)
from specjoint import corpus as corpus_mod
from specjoint.corpus import assign_splits, feature_path
from specjoint.synth import harmonic_voice, white_noise

from oracles import dense_rows, materialised_training_data, spliced_input_rows


def wave(samples, rate=16000):
    return Waveform(np.asarray(samples, dtype=np.float64), rate)


def fit_stats(blocks):
    """The statistics build_corpus fits, over the given blocks of frames."""
    acc = corpus_mod._StreamingStats()
    for block in blocks:
        acc.add(block)
    return acc.finish()


class TestMixAtSnr:
    def test_zero_db_gain_is_one(self):
        clean = wave([0.5, -0.5, 0.5, -0.5])
        noise = wave([0.5, 0.5, -0.5, -0.5])
        noisy, scaled = mix_at_snr(clean, noise, 0.0, 0)
        assert np.array_equal(scaled.samples, noise.samples)
        assert np.array_equal(noisy.samples, clean.samples + noise.samples)

    def test_twenty_db_gain_is_tenth(self):
        clean = wave([1.0, -1.0, 1.0, -1.0])
        noise = wave([1.0, 1.0, -1.0, -1.0])
        _, scaled = mix_at_snr(clean, noise, 20.0, 0)
        assert scaled.samples == pytest.approx(noise.samples * 0.1, rel=1e-12)

    @pytest.mark.parametrize("snr_db", [20.0, 10.0, 0.0, -5.0, 7.3])
    def test_achieved_snr_matches_request(self, rng, snr_db):
        clean = wave(rng.standard_normal(4000))
        noise = wave(rng.standard_normal(6000))
        _, scaled = mix_at_snr(clean, noise, snr_db, 0)
        achieved = 10.0 * np.log10(np.mean(clean.samples**2) / np.mean(scaled.samples**2))
        assert achieved == pytest.approx(snr_db, abs=1e-9)

    def test_noisy_is_exact_sum(self, rng):
        clean = wave(rng.standard_normal(1000))
        noise = wave(rng.standard_normal(1000))
        noisy, scaled = mix_at_snr(clean, noise, 5.0, 0)
        assert np.array_equal(noisy.samples, clean.samples + scaled.samples)

    def test_offset_and_wraparound(self):
        clean = wave(np.ones(5))
        noise = wave([1.0, 2.0, 3.0, 4.0])
        _, scaled = mix_at_snr(clean, noise, 0.0, noise_offset=2)
        # Segment [3, 4, 1, 2, 3] scaled to unit mean power.
        segment = np.array([3.0, 4.0, 1.0, 2.0, 3.0])
        gain = np.sqrt(1.0 / np.mean(segment**2))
        assert scaled.samples == pytest.approx(segment * gain, rel=1e-12)

    def test_silent_clean_raises(self):
        with pytest.raises(ScalingError, match="clean signal is silent"):
            mix_at_snr(wave(np.zeros(10)), wave(np.ones(10)), 0.0, 0)

    def test_silent_noise_raises(self):
        noise = wave([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ScalingError, match="noise segment is silent"):
            mix_at_snr(wave(np.ones(3)), noise, 0.0, noise_offset=1)

    def test_subnormal_noise_power_raises(self):
        # Power 1e-320 is subnormal: the gain it gives would miss the SNR.
        with pytest.raises(ScalingError, match="noise segment is silent"):
            mix_at_snr(wave([1e-10]), wave([1e-160]), 0.0, 0)

    def test_gain_overflow_raises(self):
        # The overflow is refused in one error, with no RuntimeWarning before it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScalingError, match="too quiet to reach -10 dB"):
                mix_at_snr(wave([1.0]), wave([2e-154]), -10.0, 0)

    def test_snr_past_the_float_range_scales_noise_to_zero(self):
        # 10.0 ** 400.0 overflows a Python float.
        clean = wave([0.5, -0.5, 0.25])
        noisy, scaled = mix_at_snr(clean, wave([0.5, 0.5, -0.5]), 4000.0, 0)
        assert not scaled.samples.any()
        assert np.array_equal(noisy.samples, clean.samples)

    def test_snr_below_the_float_range_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScalingError, match="too quiet to reach -4000 dB"):
                mix_at_snr(wave([0.5, -0.5]), wave([0.5, 0.5]), -4000.0, 0)

    @settings(max_examples=200)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=48).filter(any),
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(-10.0, 30.0),
    )
    def test_mix_properties(self, clean, noise, offset_fraction, snr_db):
        offset = int(offset_fraction * len(noise))
        segment = np.array([noise[(offset + i) % len(noise)] for i in range(len(clean))])
        clean = np.array(clean)
        clean_power, noise_power = np.mean(clean**2), np.mean(segment**2)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            gain = np.sqrt(clean_power / (noise_power * 10.0 ** (snr_db / 10.0)))
        # An all-zero segment, or a power too small to be a normal double,
        # or a gain that overflows, is refused rather than mixed.
        tiny = np.finfo(np.float64).tiny
        if min(clean_power, noise_power) < tiny or not np.isfinite(gain):
            with pytest.raises(ScalingError):
                mix_at_snr(wave(clean), wave(noise), snr_db, noise_offset=offset)
            return
        noisy, scaled = mix_at_snr(wave(clean), wave(noise), snr_db, noise_offset=offset)
        assert scaled.samples == pytest.approx(segment * gain, rel=1e-12, abs=0.0)
        assert np.array_equal(noisy.samples, clean + scaled.samples)
        achieved = 10.0 * np.log10(clean_power / np.mean(scaled.samples**2))
        assert achieved == pytest.approx(snr_db, abs=1e-9)

    def test_rate_mismatch_raises(self):
        with pytest.raises(ValueError, match="sample rates differ"):
            mix_at_snr(wave(np.ones(4)), wave(np.ones(4), rate=8000), 0.0, 0)


class TestNoiseAwareVector:
    def test_single_frame(self):
        data = np.array([[1.0, 2.0], [9.0, 9.0]])
        assert estimate_noise_aware_vector(data, k=1).tolist() == [1.0, 2.0]

    def test_constant_frames(self):
        data = np.full((10, 3), 7.0)
        assert estimate_noise_aware_vector(data, k=6).tolist() == [7.0, 7.0, 7.0]

    def test_ramp_mean(self):
        data = np.arange(10.0)[:, None]
        # Mean of frames 0..5 is 2.5.
        assert estimate_noise_aware_vector(data, k=6).tolist() == [2.5]

    def test_rejects_bad_k(self):
        data = np.zeros((4, 2))
        with pytest.raises(ValueError, match="1 <= k <= n_frames=4"):
            estimate_noise_aware_vector(data, k=5)
        with pytest.raises(ValueError, match="1 <= k"):
            estimate_noise_aware_vector(data, k=0)


class TestNormStats:
    def test_two_frame_hand_case(self):
        stats = fit_stats([np.array([[0.0], [2.0]])])
        assert stats.mean.tolist() == [1.0]
        assert stats.variance.tolist() == [1.0]

    def test_constant_hits_floor(self):
        stats = fit_stats([np.full((5, 2), 3.0)])
        assert stats.mean == pytest.approx([3.0, 3.0])
        assert stats.variance.tolist() == [1e-8, 1e-8]

    def test_chunking_invariance(self, rng):
        # Same totals regardless of utterance boundaries, up to summation
        # roundoff.
        data = rng.standard_normal((30, 4))
        whole = fit_stats([data])
        parts = fit_stats([data[:7], data[7:19], data[19:]])
        assert parts.mean == pytest.approx(whole.mean, rel=1e-12)
        assert parts.variance == pytest.approx(whole.variance, rel=1e-12)

    def test_population_convention(self, rng):
        data = rng.standard_normal((50, 3))
        stats = fit_stats([data])
        assert stats.variance == pytest.approx(data.var(axis=0, ddof=0), rel=1e-9)

    def test_too_few_frames_raises(self):
        with pytest.raises(ValueError, match="at least 2 frames"):
            fit_stats([np.zeros((1, 2))])

    def test_normalize_roundtrip(self, rng):
        data = rng.standard_normal((8, 3)) * 4.0 + 2.0
        stats = fit_stats([data])
        back = denormalize(normalize(data, stats), stats)
        assert back == pytest.approx(data, rel=1e-12)

    def test_normalized_moments(self, rng):
        data = rng.standard_normal((200, 2)) * 3.0 - 1.0
        normed = normalize(data, fit_stats([data]))
        assert normed.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-12)
        assert normed.var(axis=0) == pytest.approx([1.0, 1.0], rel=1e-9)

    def test_dim_mismatch_raises(self):
        stats = NormStats(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="dim mismatch"):
            normalize(np.zeros((2, 4)), stats)
        with pytest.raises(ValueError, match="dim mismatch"):
            denormalize(np.zeros((2, 4)), stats)

    def test_invalid_stats_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            NormStats(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="equal length"):
            NormStats(np.zeros(2), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_stats_rejected(self, bad):
        with pytest.raises(ValueError, match="mean and variance must be finite"):
            NormStats(np.array([0.0, bad]), np.ones(2))
        with pytest.raises(ValueError, match="mean and variance must be finite"):
            NormStats(np.zeros(2), np.array([1.0, bad]))

    def test_file_roundtrip(self, tmp_path):
        # f32-exact values survive the container roundtrip unchanged.
        stats = NormStats(np.array([1.5, -0.25]), np.array([4.0, 0.5]))
        path = tmp_path / "stats.sjfm"
        write_norm_stats(path, stats, FeatureKind.LPS)
        back = read_norm_stats(path)
        assert np.array_equal(back.mean, stats.mean)
        assert np.array_equal(back.variance, stats.variance)

    def test_read_rejects_wrong_row_count(self, tmp_path):
        from specjoint import write_features

        path = tmp_path / "stats.sjfm"
        write_features(path, FeatureMatrix(np.ones((3, 2)), FeatureKind.LPS))
        with pytest.raises(FormatError, match="stats.sjfm: .*exactly 2 rows"):
            read_norm_stats(path)

    def test_read_rejects_non_positive_variance(self, tmp_path):
        from specjoint import write_features

        path = tmp_path / "stats.sjfm"
        write_features(path, FeatureMatrix(np.array([[1.0, 2.0], [1.0, 0.0]]), FeatureKind.LPS))
        with pytest.raises(FormatError, match="stats.sjfm: variance must be strictly positive"):
            read_norm_stats(path)


class TestManifest:
    def entries(self):
        return [
            MixSpec(Path("clean/a.wav"), Path("noise/w.wav"), 20.0, 17, "train"),
            MixSpec(Path("clean/b.wav"), Path("noise/w.wav"), -5.0, 0, "test"),
            MixSpec(Path("clean/c.wav"), Path("noise/p.wav"), 0.5, 3, "val"),
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        write_manifest(path, self.entries())
        assert read_manifest(path) == self.entries()

    def test_utterance_id_format(self):
        a, b, c = self.entries()
        assert a.utterance_id == "a__w__snr20dB"
        assert b.utterance_id == "b__w__snr-5dB"
        assert c.utterance_id == "c__p__snr0.5dB"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        write_manifest(path, self.entries())
        path.write_text(path.read_text() + "\n\n")
        assert len(read_manifest(path)) == 3

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("a.wav\tb.wav\t20\n")
        with pytest.raises(FormatError, match="manifest.tsv:1.*expected 5"):
            read_manifest(path)

    def test_bad_split_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("a.wav\tb.wav\t20\t0\tdev\n")
        with pytest.raises(FormatError, match="manifest.tsv:1: split must be one of"):
            read_manifest(path)

    @pytest.mark.parametrize("snr, offset", [("loud", "0"), ("20", "3.5"), ("nan", "0")])
    def test_bad_number_rejected(self, tmp_path, snr, offset):
        path = tmp_path / "manifest.tsv"
        write_manifest(path, self.entries())
        path.write_text(path.read_text() + f"a.wav\tb.wav\t{snr}\t{offset}\ttrain\n")
        with pytest.raises(FormatError, match="manifest.tsv:4: "):
            read_manifest(path)

    def test_non_finite_snr_rejected(self):
        with pytest.raises(ValueError, match="snr_db must be finite"):
            MixSpec(Path("a.wav"), Path("b.wav"), float("nan"), 0, "train")


class TestVariant:
    @pytest.mark.parametrize(
        "name", ["baseline", "mfcc-o", "mfcc", "ibm", "mfcc+ibm"]
    )
    def test_parse_roundtrip(self, name):
        assert Variant.parse(name).value == name

    def test_parse_unknown(self):
        with pytest.raises(ConfigError, match="unknown variant 'mfccibm'"):
            Variant.parse("mfccibm")

    def test_head_kinds(self):
        assert Variant.BASELINE.head_kinds == (FeatureKind.LPS,)
        assert Variant.MFCC_OUT.head_kinds == (FeatureKind.LPS, FeatureKind.MFCC)
        assert Variant.MFCC.head_kinds == (FeatureKind.LPS, FeatureKind.MFCC)
        assert Variant.IBM.head_kinds == (FeatureKind.LPS, FeatureKind.IBM)
        assert Variant.MFCC_IBM.head_kinds == (
            FeatureKind.LPS,
            FeatureKind.MFCC,
            FeatureKind.IBM,
        )

    def test_mfcc_in_input(self):
        lps_only = (FeatureKind.LPS,)
        assert Variant.BASELINE.input_kinds == lps_only
        assert Variant.MFCC_OUT.input_kinds == lps_only
        assert Variant.IBM.input_kinds == lps_only
        assert Variant.MFCC.input_kinds == (FeatureKind.LPS, FeatureKind.MFCC)
        assert Variant.MFCC_IBM.input_kinds == (FeatureKind.LPS, FeatureKind.MFCC)

    def test_input_dim(self):
        assert input_dim(Variant.BASELINE, 257, 41, 3) == 2056
        assert input_dim(Variant.MFCC_OUT, 257, 41, 3) == 2056
        assert input_dim(Variant.IBM, 257, 41, 3) == 2056
        assert input_dim(Variant.MFCC, 257, 41, 3) == 2384
        assert input_dim(Variant.MFCC_IBM, 257, 41, 3) == 2384


def unit_stats(lps_dims, mfcc_dims=1):
    """Stats under which normalize leaves every value as it is."""
    return {
        FeatureKind.LPS: NormStats(np.zeros(lps_dims), np.ones(lps_dims)),
        FeatureKind.MFCC: NormStats(np.zeros(mfcc_dims), np.ones(mfcc_dims)),
    }


class TestBuildInputRows:
    def test_tau_zero_layout(self, rng):
        feat = rng.standard_normal((10, 4))
        frames, windows = build_input_rows(feat, None, unit_stats(4), tau=0, noise_aware_frames=6)
        assert frames.dtype == np.float32 and frames.shape == (11, 4)
        assert np.array_equal(frames[:10], feat.astype(np.float32))
        assert np.array_equal(frames[10], feat[:6].mean(axis=0).astype(np.float32))
        assert windows.tolist() == [[i, 10] for i in range(10)]

    def test_mfcc_joins_before_splicing(self, rng):
        lps_block = rng.standard_normal((8, 3))
        mfcc_block = rng.standard_normal((8, 2))
        frames, windows = build_input_rows(
            lps_block, mfcc_block, unit_stats(3, 2), tau=0, noise_aware_frames=2
        )
        assert frames.shape == (9, 5) and windows.shape == (8, 2)
        assert np.array_equal(frames[:8, :3], lps_block.astype(np.float32))
        assert np.array_equal(frames[:8, 3:], mfcc_block.astype(np.float32))

    def test_full_width(self, rng):
        lps_block = rng.standard_normal((9, 5))
        mfcc_block = rng.standard_normal((9, 2))
        frames, windows = build_input_rows(
            lps_block, mfcc_block, unit_stats(5, 2), tau=3, noise_aware_frames=6
        )
        assert frames[windows].reshape(9, -1).shape == (9, 7 * 7 + 7)
        assert windows[0].tolist() == [0, 0, 0, 0, 1, 2, 3, 9]
        assert windows[8].tolist() == [5, 6, 7, 8, 8, 8, 8, 9]

    @settings(max_examples=80)
    @given(
        tau=st.integers(0, 4),
        noise_aware_frames=st.integers(1, 6),
        with_mfcc=st.booleans(),
        draw=st.data(),
    )
    def test_gather_matches_oracle_on_any_frame_count(
        self, tau, noise_aware_frames, with_mfcc, draw
    ):
        # From the shortest an utterance may be to past one window, so the
        # windows are clamped at one edge, both edges, and neither.
        n = draw.draw(st.integers(noise_aware_frames, noise_aware_frames + 2 * tau + 3))
        rng = np.random.default_rng(n * 100 + tau * 10 + noise_aware_frames)
        stats = {
            FeatureKind.LPS: NormStats(rng.normal(-3.0, 1.0, 5), rng.uniform(1.0, 5.0, 5)),
            FeatureKind.MFCC: NormStats(rng.normal(1.0, 1.0, 3), rng.uniform(1.0, 9.0, 3)),
        }
        noisy_lps = rng.normal(-3.0, 2.0, (n, 5))
        noisy_mfcc = rng.normal(1.0, 3.0, (n, 3)) if with_mfcc else None
        args = (stats, tau, noise_aware_frames)
        frames, windows = build_input_rows(noisy_lps, noisy_mfcc, *args)
        want = spliced_input_rows(noisy_lps, noisy_mfcc, *args).astype(np.float32)
        assert_same_bytes(frames[windows].reshape(n, -1), want)
        short = draw.draw(st.integers(0, noise_aware_frames - 1))
        with pytest.raises(ValueError, match=f"n_frames={short}"):
            build_input_rows(
                noisy_lps[:short], None if noisy_mfcc is None else noisy_mfcc[:short], *args
            )


class TestBatches:
    def data(self, n=10):
        inputs = np.arange(n, dtype=np.float32)[:, None] * np.ones((1, 3), np.float32)
        return dense_rows(
            inputs=inputs,
            targets_lps=inputs * 10.0,
            targets_mfcc=None,
            targets_ibm=(inputs[:, :1] % 2.0),
        )

    def test_partial_final_batch(self):
        sizes = [b.n_rows for b in assemble_batches(self.data(10), 4, shuffle_seed=0)]
        assert sizes == [4, 4, 2]

    def test_take_slice_matches_indices(self):
        data = self.data(10)
        by_slice, by_index = data.take(slice(2, 6)), data.take(np.arange(2, 6))
        for name in ("inputs", "targets_lps", "targets_ibm"):
            assert np.array_equal(getattr(by_slice, name), getattr(by_index, name))
        assert by_slice.targets_mfcc is None
        with pytest.raises(ValueError, match="no cepstral targets"):
            by_slice.targets(FeatureKind.MFCC)

    def test_rows_covered_once(self):
        batches = list(assemble_batches(self.data(10), 3, shuffle_seed=5))
        seen = np.concatenate([b.inputs[:, 0] for b in batches])
        assert sorted(seen.tolist()) == list(range(10))

    def test_deterministic_order(self):
        a = [b.inputs for b in assemble_batches(self.data(), 4, shuffle_seed=9)]
        b = [b.inputs for b in assemble_batches(self.data(), 4, shuffle_seed=9)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_seed_changes_order(self):
        a = np.concatenate([b.inputs for b in assemble_batches(self.data(), 4, shuffle_seed=0)])
        b = np.concatenate([b.inputs for b in assemble_batches(self.data(), 4, shuffle_seed=1)])
        assert not np.array_equal(a, b)

    def test_rows_stay_aligned(self):
        for batch in assemble_batches(self.data(), 4, shuffle_seed=3):
            assert np.array_equal(batch.targets_lps, batch.inputs * 10.0)
            assert np.array_equal(batch.targets_ibm, batch.inputs[:, :1] % 2.0)
            assert batch.targets_mfcc is None

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ConfigError, match="batch_size must be >= 1"):
            next(assemble_batches(self.data(), 0, shuffle_seed=0))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    clean_dir = root / "clean"
    noise_dir = root / "noise"
    clean_dir.mkdir()
    noise_dir.mkdir()
    clean_paths = []
    for i in range(2):
        voice = harmonic_voice(0.3, 16000, f0=150.0 + 40 * i, seed=i)
        path = clean_dir / f"v{i}.wav"
        write_wav(path, voice)
        clean_paths.append(path)
    noise_path = noise_dir / "white.wav"
    write_wav(noise_path, white_noise(0.5, 16000, seed=99))
    out_dir = root / "out"
    entries = build_corpus(
        clean_paths,
        [noise_path],
        out_dir,
        StftConfig(),
        mel_bank(),
        IbmConfig(),
        snr_grid=(10.0, 0.0),
        val_fraction=0.0,
        test_fraction=0.5,
        seed=7,
    )
    return root, out_dir, entries


class TestBuildCorpus:
    def test_manifest_covers_grid(self, corpus):
        _, out_dir, entries = corpus
        assert len(entries) == 2 * 1 * 2
        assert read_manifest(out_dir / "manifest.tsv") == entries
        snrs = sorted(e.snr_db for e in entries)
        assert snrs == [0.0, 0.0, 10.0, 10.0]

    def test_split_assignment(self, corpus):
        _, _, entries = corpus
        by_clean = {}
        for e in entries:
            by_clean.setdefault(e.clean_path, set()).add(e.split)
        # One clean voice per split, and no voice straddles splits.
        assert sorted(v.pop() for v in by_clean.values()) == ["test", "train"]

    def test_feature_files_written(self, corpus):
        _, out_dir, entries = corpus
        want = set()
        for e in entries:
            want |= {f"{e.utterance_id}.{name}.sjfm" for name in ("noisy_lps", "noisy_mfcc", "ibm")}
            want |= {f"{e.clean_path.stem}.{name}.sjfm" for name in ("clean_lps", "clean_mfcc")}
            assert (out_dir / "noisy" / f"{e.utterance_id}.wav").exists()
        assert {path.name for path in (out_dir / "features").iterdir()} == want
        assert len(want) == 3 * len(entries) + 2 * 2  # two voices

    def test_clean_targets_computed_and_written_once_per_voice(self, corpus, tmp_path, monkeypatch):
        root, out_dir, entries = corpus
        stfts = []
        real_stft, real_write = corpus_mod.stft, corpus_mod.container.write_features

        def counting_stft(*args):
            stfts.append(args)
            return real_stft(*args)

        written = []

        def recording_write(path, features):
            written.append(Path(path).name)
            real_write(path, features)

        monkeypatch.setattr(corpus_mod, "stft", counting_stft)
        monkeypatch.setattr(corpus_mod.container, "write_features", recording_write)
        build_corpus(
            sorted((root / "clean").glob("*.wav")),
            sorted((root / "noise").glob("*.wav")),
            tmp_path / "again",
            StftConfig(),
            mel_bank(),
            IbmConfig(),
            snr_grid=(10.0, 0.0),
            val_fraction=0.0,
            test_fraction=0.5,
            seed=7,
        )
        # One STFT per voice, and the noisy mixture's and scaled noise's per mixture.
        assert len(stfts) == 2 + 2 * len(entries)
        features = [name for name in written if not name.startswith(("lps.", "mfcc."))]
        assert len(features) == len(set(features))
        assert sorted(features) == sorted(path.name for path in (out_dir / "features").iterdir())
        for voice in ("v0", "v1"):
            assert [n for n in features if n.startswith(f"{voice}.")] == [
                f"{voice}.clean_lps.sjfm", f"{voice}.clean_mfcc.sjfm"
            ]

    def test_stats_fitted_on_train_noisy(self, corpus):
        from specjoint import read_features
        from specjoint.corpus import feature_path

        _, out_dir, entries = corpus
        train = [e for e in entries if e.split == "train"]
        blocks = [
            read_features(feature_path(out_dir / "features", e.utterance_id, "noisy_lps")).data
            for e in train
        ]
        frames = np.vstack(blocks)
        stats = read_corpus_stats(out_dir)[FeatureKind.LPS]
        # Stored as f32, so compare at that precision.
        assert stats.mean == pytest.approx(frames.mean(axis=0), rel=1e-6)
        assert stats.variance == pytest.approx(frames.var(axis=0), rel=1e-6)

    def test_rebuild_is_byte_identical(self, corpus, tmp_path, monkeypatch):
        root, out_dir, _ = corpus
        clean_paths = sorted((root / "clean").glob("*.wav"))
        noise_paths = sorted((root / "noise").glob("*.wav"))
        again = tmp_path / "again"
        decoded = []

        def counting_read_wav(path, expected_rate=None):
            decoded.append(Path(path).name)
            return read_wav(path, expected_rate)

        monkeypatch.setattr(corpus_mod, "read_wav", counting_read_wav)
        build_corpus(
            clean_paths,
            noise_paths,
            again,
            StftConfig(),
            mel_bank(),
            IbmConfig(),
            snr_grid=(10.0, 0.0),
            val_fraction=0.0,
            test_fraction=0.5,
            seed=7,
        )
        # Each source is decoded once, not once per mixture.
        assert sorted(decoded) == ["v0.wav", "v1.wav", "white.wav"]
        assert (again / "manifest.tsv").read_bytes() == (out_dir / "manifest.tsv").read_bytes()
        for path in sorted((out_dir / "features").iterdir()):
            assert (again / "features" / path.name).read_bytes() == path.read_bytes()

    def test_load_training_data_baseline(self, corpus):
        _, out_dir, entries = corpus
        stats = read_corpus_stats(out_dir)
        data = load_training_data(out_dir, entries, Variant.BASELINE, stats)
        n_frames = stft(wave(np.zeros(int(0.3 * 16000))), StftConfig()).frames.shape[0]
        assert data.n_rows == n_frames * len(entries)
        assert data.inputs.shape[1] == input_dim(Variant.BASELINE, 257, 41, 3)
        assert data.targets_lps.shape == (data.n_rows, 257)
        assert data.targets_mfcc is None and data.targets_ibm is None
        assert data.inputs.dtype == np.float32

    def test_load_training_data_full(self, corpus):
        _, out_dir, entries = corpus
        stats = read_corpus_stats(out_dir)
        data = load_training_data(out_dir, entries, Variant.MFCC_IBM, stats)
        assert data.inputs.shape[1] == input_dim(Variant.MFCC_IBM, 257, 41, 3)
        assert data.targets_mfcc.shape == (data.n_rows, 41)
        assert data.targets_ibm.shape == (data.n_rows, 257)
        assert set(np.unique(data.targets_ibm)) <= {0.0, 1.0}

    @pytest.mark.parametrize(
        "failing, call",
        [
            ("extract_mixture_features", 3),
            ("stft", 6),
            ("mfcc", 4),
            ("write_wav", 2),
            ("write_norm_stats", 2),
            ("write_manifest", 1),
        ],
    )
    def test_failure_removes_only_what_it_wrote(self, corpus, tmp_path, monkeypatch, failing, call):
        # Each voice has two mixtures. The third mixture fails after the first
        # voice and the second voice's clean files were written; the second
        # voice's STFT after the whole first voice was; its clean MFCC after
        # its clean LPS was; the second noisy WAV after a whole mixture and
        # the second's feature files were; the MFCC stats after the LPS stats
        # were; or the manifest after everything else was.
        root, _, _ = corpus
        out_dir = tmp_path / "out"
        (out_dir / "noisy").mkdir(parents=True)
        (out_dir / "notes.txt").write_text("kept")
        (out_dir / "noisy" / "old.wav").write_bytes(b"kept")
        before = sorted(out_dir.rglob("*"))
        real = getattr(corpus_mod, failing)
        calls = []

        def fail_on_call(*args):
            calls.append(args)
            if len(calls) == call:
                raise ScalingError("injected failure")
            return real(*args)

        monkeypatch.setattr(corpus_mod, failing, fail_on_call)
        with pytest.raises(ScalingError, match="injected failure"):
            build_corpus(
                sorted((root / "clean").glob("*.wav")),
                sorted((root / "noise").glob("*.wav")),
                out_dir,
                StftConfig(),
                mel_bank(),
                IbmConfig(),
                snr_grid=(10.0, 0.0),
                val_fraction=0.0,
                test_fraction=0.5,
                seed=7,
            )
        assert len(calls) == call
        assert sorted(out_dir.rglob("*")) == before
        assert (out_dir / "noisy" / "old.wav").read_bytes() == b"kept"

    def test_failed_rebuild_removes_the_earlier_files_it_overwrote(self, corpus, tmp_path, monkeypatch):
        # Overwriting an earlier corpus is allowed; a rebuild that fails at
        # the MFCC statistics has rewritten every mixture and the LPS
        # statistics by then, and removes them all. Other files stay, among
        # them the earlier manifest, which is written last.
        root, first, _ = corpus
        out_dir = tmp_path / "out"
        shutil.copytree(first, out_dir)
        (out_dir / "notes.txt").write_text("kept")
        (out_dir / "noisy" / "old.wav").write_bytes(b"kept")
        real = corpus_mod.write_norm_stats
        calls = []

        def fail_on_second_call(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ScalingError("injected failure")
            return real(*args)

        monkeypatch.setattr(corpus_mod, "write_norm_stats", fail_on_second_call)
        with pytest.raises(ScalingError, match="injected failure"):
            build_corpus(
                sorted((root / "clean").glob("*.wav")),
                sorted((root / "noise").glob("*.wav")),
                out_dir,
                StftConfig(),
                mel_bank(),
                IbmConfig(),
                snr_grid=(10.0, 0.0),
                val_fraction=0.0,
                test_fraction=0.5,
                seed=7,
            )
        left = sorted(path.relative_to(out_dir).as_posix() for path in out_dir.rglob("*"))
        assert left == ["features", "manifest.tsv", "noisy", "noisy/old.wav", "notes.txt", "stats"]
        assert (out_dir / "manifest.tsv").read_bytes() == (first / "manifest.tsv").read_bytes()

    def test_manifest_keeps_snr_precision(self, tmp_path):
        clean, noise = tmp_path / "clean" / "v.wav", tmp_path / "noise" / "white.wav"
        write_wav(clean, harmonic_voice(0.3, 16000, seed=0))
        write_wav(noise, white_noise(0.5, 16000, seed=10))
        entries = build_corpus(
            [clean], [noise], tmp_path / "out", StftConfig(), mel_bank(), IbmConfig(), snr_grid=(0.1234567,)
        )
        assert [e.snr_db for e in entries] == [0.1234567]
        assert read_manifest(tmp_path / "out" / "manifest.tsv") == entries

    @pytest.mark.parametrize(
        "clean_stems, noise_stems, grid, clash",
        [
            (["v"], ["white"], (5.0, 5.0), "v__white__snr5dB"),
            (["v"], ["white"], (0.1234567, 0.12345678), "v__white__snr0.123457dB"),
            (["a", "a__b"], ["c", "b__c"], (5.0,), "a__b__c__snr5dB"),
        ],
        ids=["repeated-snr", "snrs-print-alike", "stems-meet"],
    )
    def test_shared_utterance_id_rejected_before_writing(
        self, tmp_path, clean_stems, noise_stems, grid, clash
    ):
        clean_paths, noise_paths = [], []
        for i, stem in enumerate(clean_stems):
            clean_paths.append(tmp_path / "clean" / f"{stem}.wav")
            write_wav(clean_paths[-1], harmonic_voice(0.3, 16000, seed=i))
        for i, stem in enumerate(noise_stems):
            noise_paths.append(tmp_path / "noise" / f"{stem}.wav")
            write_wav(noise_paths[-1], white_noise(0.5, 16000, seed=10 + i))
        out_dir = tmp_path / "out"
        with pytest.raises(ConfigError, match=re.escape(f"utterance id {clash!r}")):
            build_corpus(
                clean_paths, noise_paths, out_dir, StftConfig(), mel_bank(), IbmConfig(), snr_grid=grid
            )
        assert not out_dir.exists()

    def test_empty_inputs_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no clean utterances"):
            build_corpus([], [Path("n.wav")], tmp_path, StftConfig(), mel_bank(), IbmConfig())
        with pytest.raises(ConfigError, match="no noise files"):
            build_corpus([Path("c.wav")], [], tmp_path, StftConfig(), mel_bank(), IbmConfig())


def write_feature_corpus(root, lengths, lps_dims, mfcc_dims, seed, n_noises=1):
    """Random feature containers for one voice per length, each mixed with
    n_noises noises, and stats for them. The entries go noise by noise, so
    a voice's mixtures are not next to each other when n_noises > 1."""
    rng = np.random.default_rng(seed)
    features_dir = root / corpus_mod.FEATURES_DIR
    features_dir.mkdir()
    for i, n in enumerate(lengths):
        clean = {
            "clean_lps": (rng.normal(-4.0, 2.0, (n, lps_dims)), FeatureKind.LPS),
            "clean_mfcc": (rng.normal(0.5, 3.0, (n, mfcc_dims)), FeatureKind.MFCC),
        }
        for name, (data, kind) in clean.items():
            write_features(feature_path(features_dir, f"c{i}", name), FeatureMatrix(data, kind))
    entries = []
    for j in range(n_noises):
        for i, n in enumerate(lengths):
            entry = MixSpec(Path(f"c{i}.wav"), Path(f"noise{j}.wav"), 0.0, 0, "train")
            blocks = {
                "noisy_lps": (rng.normal(-3.0, 2.0, (n, lps_dims)), FeatureKind.LPS),
                "noisy_mfcc": (rng.normal(1.0, 3.0, (n, mfcc_dims)), FeatureKind.MFCC),
                "ibm": ((rng.random((n, lps_dims)) > 0.5).astype(float), FeatureKind.IBM),
            }
            for name, (data, kind) in blocks.items():
                write_features(feature_path(features_dir, entry.utterance_id, name), FeatureMatrix(data, kind))
            entries.append(entry)
    stats = {
        FeatureKind.LPS: NormStats(rng.normal(-3.0, 1.0, lps_dims), rng.uniform(1.0, 5.0, lps_dims)),
        FeatureKind.MFCC: NormStats(rng.normal(1.0, 1.0, mfcc_dims), rng.uniform(1.0, 9.0, mfcc_dims)),
    }
    return entries, stats


def assert_same_bytes(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestLoadTrainingData:
    @settings(max_examples=60)
    @given(
        variant=st.sampled_from([Variant.BASELINE, Variant.MFCC_IBM]),
        tau=st.integers(0, 4),
        noise_aware_frames=st.integers(1, 4),
        n_noises=st.integers(1, 2),
        draw=st.data(),
    )
    def test_gather_matches_materialised_rows(self, variant, tau, noise_aware_frames, n_noises, draw):
        # Lengths run from the shortest an utterance may be to past one
        # window, so windows are clamped at both edges.
        longest = max(noise_aware_frames, 2 * tau + 1) + 2
        lengths = draw.draw(st.lists(st.integers(noise_aware_frames, longest), min_size=1, max_size=3))
        with tempfile.TemporaryDirectory() as tmp:
            entries, stats = write_feature_corpus(
                Path(tmp), lengths, 5, 3, seed=sum(lengths) + tau, n_noises=n_noises
            )
            # Any order: a voice's mixtures need not be next to each other.
            entries = draw.draw(st.permutations(entries))
            args = (Path(tmp), entries, variant, stats, tau, noise_aware_frames)
            got, want = load_training_data(*args), materialised_training_data(*args)
        n = sum(lengths) * n_noises
        assert got.clean_lps.shape[0] == sum(lengths)
        picks = draw.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        start, stop = sorted(draw.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
        assert got.n_rows == n
        for rows in (slice(None), np.array(picks, dtype=np.intp), slice(start, stop)):
            a, b = got.take(rows), want.take(rows)
            for name in ("inputs", "targets_lps", "targets_mfcc", "targets_ibm"):
                assert_same_bytes(getattr(a, name), getattr(b, name))

    def test_peak_memory_stays_near_what_it_returns(self, tmp_path):
        entries, stats = write_feature_corpus(tmp_path, [50] * 8, 257, 41, seed=3, n_noises=2)
        tracemalloc.start()
        try:
            data = load_training_data(tmp_path, entries, Variant.MFCC_IBM, stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = (data.frames, data.windows, data.clean_lps, data.clean_mfcc, data.clean_rows, data.targets_ibm)
        held = sum(a.nbytes for a in arrays)
        assert peak < 1.5 * held, f"peak {peak} B for {held} B returned"

    @pytest.mark.parametrize(
        "variant, name, data, kind, message",
        [
            (Variant.BASELINE, "clean_lps", np.zeros((8, 3)), FeatureKind.LPS, "3 LPS columns, expected 5 LPS"),
            (Variant.MFCC, "noisy_mfcc", np.zeros((8, 2)), FeatureKind.MFCC, "2 MFCC columns, expected 3 MFCC"),
            (Variant.IBM, "ibm", np.zeros((8, 5)), FeatureKind.LPS, "5 LPS columns, expected 5 IBM"),
        ],
        ids=["target-width", "input-width", "kind"],
    )
    def test_misfit_container_named(self, tmp_path, variant, name, data, kind, message):
        entries, stats = write_feature_corpus(tmp_path, [8], 5, 3, seed=1)
        file_id = entries[0].clean_path.stem if name.startswith("clean") else entries[0].utterance_id
        target = feature_path(tmp_path / corpus_mod.FEATURES_DIR, file_id, name)
        write_features(target, FeatureMatrix(data, kind))
        with pytest.raises(FormatError, match=re.escape(f"{target}: {message}")):
            load_training_data(tmp_path, entries, variant, stats)

    @pytest.mark.parametrize("value", [0.5, -1.0, 2.0])
    def test_mask_that_is_not_0_or_1_named(self, tmp_path, value):
        entries, stats = write_feature_corpus(tmp_path, [8, 8], 5, 3, seed=1)
        target = feature_path(tmp_path / corpus_mod.FEATURES_DIR, entries[1].utterance_id, "ibm")
        mask = np.eye(8, 5)
        mask[3, 2] = value
        write_features(target, FeatureMatrix(mask, FeatureKind.IBM))
        with pytest.raises(FormatError, match=re.escape(f"{target}: a mask value is neither 0 nor 1")):
            load_training_data(tmp_path, entries, Variant.IBM, stats)

    def test_misaligned_target_named(self, tmp_path):
        entries, stats = write_feature_corpus(tmp_path, [8], 5, 3, seed=1)
        target = feature_path(tmp_path / corpus_mod.FEATURES_DIR, entries[0].clean_path.stem, "clean_lps")
        write_features(target, FeatureMatrix(np.zeros((7, 5)), FeatureKind.LPS))
        with pytest.raises(FormatError, match=re.escape(f"{target}: 7 frames, the noisy LPS has 8")):
            load_training_data(tmp_path, entries, Variant.BASELINE, stats)

    @pytest.mark.parametrize(
        "variant, file_id, name, kind, width, named, counts",
        [
            (Variant.MFCC_OUT, "c0", "clean_mfcc", FeatureKind.MFCC, 3, "clean_mfcc", (7, 8)),
            (Variant.BASELINE, "c0__noise1__snr0dB", "noisy_lps", FeatureKind.LPS, 5, "clean_lps", (8, 7)),
        ],
        ids=["voice-mfcc", "second-mixture"],
    )
    def test_voice_misaligned_with_a_mixture_named(
        self, tmp_path, variant, file_id, name, kind, width, named, counts
    ):
        # The voice's clean MFCC, or the noisy LPS of its second mixture,
        # gets 7 frames; the error names the voice's file and both counts.
        entries, stats = write_feature_corpus(tmp_path, [8], 5, 3, seed=1, n_noises=2)
        features_dir = tmp_path / corpus_mod.FEATURES_DIR
        write_features(feature_path(features_dir, file_id, name), FeatureMatrix(np.zeros((7, width)), kind))
        message = f"{feature_path(features_dir, 'c0', named)}: {counts[0]} frames, the noisy LPS has {counts[1]}"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_training_data(tmp_path, entries, variant, stats)


class TestAssignSplits:
    def test_fractions(self):
        paths = [Path(f"{i}.wav") for i in range(10)]
        splits = assign_splits(paths, val_fraction=0.2, test_fraction=0.3, seed=0)
        counts = {s: sum(1 for v in splits.values() if v == s) for s in ("train", "val", "test")}
        assert counts == {"train": 5, "val": 2, "test": 3}

    def test_deterministic(self):
        paths = [Path(f"{i}.wav") for i in range(10)]
        a = assign_splits(paths, 0.2, 0.3, seed=4)
        b = assign_splits(list(reversed(paths)), 0.2, 0.3, seed=4)
        assert a == b

    def test_rejects_a_split_with_no_training_voice(self):
        paths = [Path(f"{i}.wav") for i in range(3)]
        with pytest.raises(ConfigError, match="no voice left for training: 3 voices, 2 test, 1 val"):
            assign_splits(paths, val_fraction=0.3, test_fraction=0.5, seed=0)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ConfigError, match="sum to < 1"):
            assign_splits([Path("a.wav")], 0.5, 0.5, seed=0)

    @pytest.mark.parametrize("val, test", [(float("nan"), 0.2), (0.1, float("nan"))])
    def test_rejects_nan_fractions(self, val, test):
        with pytest.raises(ConfigError, match="sum to < 1"):
            assign_splits([Path("a.wav")], val, test, seed=0)
