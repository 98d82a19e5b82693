import numpy as np
import pytest

from specjoint import (
    ConfigError,
    FeatureKind,
    HeadSpec,
    Model,
    NormStats,
    PostProcessConfig,
    StftConfig,
    Variant,
    Waveform,
    enhance_features,
    enhance_waveform,
    lps,
    magnitude_phase,
    mel_bank,
    oracle_post_process,
    post_process,
    reconstruct,
    stft,
    write_diagnostics,
)

from oracles import loop_post_process

SMALL = StftConfig(frame_len=32, hop=16, fft_size=32)
BINS = SMALL.n_bins  # 17
GATE_OFF = PostProcessConfig(enabled=False)


def identity_stats(dims):
    return NormStats(np.zeros(dims), np.ones(dims))


def copying_model(variant=Variant.BASELINE, with_mask=False):
    """Linear model whose spectral head reproduces the current frame."""
    # Input rows are [frame | noise_vec] at tau=0; copying the frame block
    # makes the estimate equal the noisy log-power spectrum.
    heads = [HeadSpec(FeatureKind.LPS, 0, BINS)]
    out_dim = BINS
    if with_mask:
        heads.append(HeadSpec(FeatureKind.IBM, BINS, BINS))
        out_dim += BINS
    weight = np.zeros((2 * BINS, out_dim), dtype=np.float32)
    weight[:BINS, :BINS] = np.eye(BINS)
    return Model(
        variant=variant,
        tau=0,
        noise_aware_frames=2,
        weights=[weight],
        biases=[np.zeros(out_dim, dtype=np.float32)],
        heads=tuple(heads),
        stats={FeatureKind.LPS: identity_stats(BINS)},
    )


class TestPostProcessConfig:
    def test_defaults(self):
        cfg = PostProcessConfig()
        assert (cfg.gamma, cfg.epsilon, cfg.enabled) == (0.9, 0.6, True)

    def test_gamma_may_exceed_one(self):
        assert PostProcessConfig(gamma=1.1, epsilon=0.6).gamma == 1.1

    @pytest.mark.parametrize(
        "gamma, epsilon",
        [(0.5, 0.6), (0.6, 0.6), (1.2, 0.6), (0.9, -0.1)],
    )
    def test_rejects_bad_thresholds(self, gamma, epsilon):
        with pytest.raises(ConfigError, match="epsilon < gamma"):
            PostProcessConfig(gamma=gamma, epsilon=epsilon)


class TestPostProcess:
    @pytest.mark.parametrize(
        "mask_value, expected",
        [
            (0.95, 2.0),  # above gamma: keep the noisy value
            (0.90, 2.0),  # at gamma: still keep it
            (0.75, 1.5),  # between the thresholds: average
            (0.60, 1.0),  # at epsilon: take the estimate
            (0.50, 1.0),  # below epsilon: take the estimate
        ],
    )
    def test_gate_examples(self, mask_value, expected):
        out, _ = post_process(
            np.array([[2.0]]), np.array([[1.0]]), np.array([[mask_value]]), PostProcessConfig()
        )
        assert out[0, 0] == expected

    def test_matches_scalar_loop_over_mask_sweep(self, rng):
        noisy = rng.standard_normal((111, 4))
        estimate = rng.standard_normal((111, 4))
        mask = np.repeat((np.arange(111) * 0.01)[:, None], 4, axis=1)
        cfg = PostProcessConfig()
        fast, _ = post_process(noisy, estimate, mask, cfg)
        slow = loop_post_process(noisy, estimate, mask, cfg.gamma, cfg.epsilon)
        assert np.array_equal(fast, slow)

    def test_branch_counts(self):
        noisy = np.zeros((1, 5))
        estimate = np.ones((1, 5))
        mask = np.array([[0.95, 0.9, 0.7, 0.6, 0.1]])
        _, counts = post_process(noisy, estimate, mask, PostProcessConfig())
        assert counts == {"kept_noisy": 2, "averaged": 1, "kept_estimate": 2}
        assert sum(counts.values()) == mask.size

    def test_output_stays_between_inputs(self, rng):
        noisy = rng.standard_normal((20, 9))
        estimate = rng.standard_normal((20, 9))
        mask = rng.uniform(-0.2, 1.2, (20, 9))
        out, _ = post_process(noisy, estimate, mask, PostProcessConfig())
        low = np.minimum(noisy, estimate)
        high = np.maximum(noisy, estimate)
        assert np.all(out >= low) and np.all(out <= high)

    def test_idempotent_for_binary_masks(self, rng):
        noisy = rng.standard_normal((8, 6))
        estimate = rng.standard_normal((8, 6))
        mask = (rng.random((8, 6)) > 0.5).astype(float)
        cfg = PostProcessConfig()
        once, _ = post_process(noisy, estimate, mask, cfg)
        twice, _ = post_process(noisy, once, mask, cfg)
        assert np.array_equal(once, twice)

    def test_raising_gamma_keeps_fewer_noisy_bins(self, rng):
        noisy = rng.standard_normal((10, 10))
        estimate = rng.standard_normal((10, 10))
        mask = rng.uniform(0.0, 1.1, (10, 10))
        kept = [
            post_process(noisy, estimate, mask, PostProcessConfig(gamma=g))[1]["kept_noisy"]
            for g in (0.7, 0.8, 0.9, 1.0, 1.1)
        ]
        assert kept == sorted(kept, reverse=True)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            post_process(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 2)), PostProcessConfig())


class TestOraclePostProcess:
    def test_all_ones_keeps_noisy(self, rng):
        noisy = rng.standard_normal((4, 5))
        estimate = rng.standard_normal((4, 5))
        out, counts = oracle_post_process(noisy, estimate, np.ones((4, 5)), PostProcessConfig())
        assert np.array_equal(out, noisy)
        assert counts["kept_noisy"] == 20

    def test_all_zeros_keeps_estimate(self, rng):
        noisy = rng.standard_normal((4, 5))
        estimate = rng.standard_normal((4, 5))
        out, counts = oracle_post_process(noisy, estimate, np.zeros((4, 5)), PostProcessConfig())
        assert np.array_equal(out, estimate)
        assert counts["kept_estimate"] == 20

    def test_binary_mask_selects_per_bin(self, rng):
        noisy = rng.standard_normal((6, 7))
        estimate = rng.standard_normal((6, 7))
        mask = (rng.random((6, 7)) > 0.5).astype(float)
        out, _ = oracle_post_process(noisy, estimate, mask, PostProcessConfig())
        assert np.array_equal(out, np.where(mask == 1.0, noisy, estimate))

    def test_rejects_soft_mask(self):
        with pytest.raises(ValueError, match="only 0 and 1"):
            oracle_post_process(
                np.zeros((1, 2)), np.zeros((1, 2)), np.array([[0.5, 1.0]]), PostProcessConfig()
            )


class TestReconstruct:
    def test_noisy_roundtrip(self, speech_like, stft_config):
        spec = stft(speech_like, stft_config)
        _, phases = magnitude_phase(spec)
        out, clipped = reconstruct(
            lps(spec), phases, stft_config, len(speech_like), speech_like.sample_rate
        )
        assert clipped == 0
        assert len(out) == len(speech_like)
        edge = stft_config.frame_len
        x = speech_like.samples[edge:-edge]
        y = out.samples[edge:-edge]
        assert np.linalg.norm(y - x) / np.linalg.norm(x) < 1e-5

    def test_silence_floor_reconstructs_to_near_zero(self, stft_config):
        frames = np.full((10, stft_config.n_bins), np.log(1e-12))
        phases = np.zeros_like(frames)
        out, clipped = reconstruct(frames, phases, stft_config, 16000, 16000)
        assert clipped == 0
        assert np.max(np.abs(out.samples)) < 1e-4

    def test_counts_clipped_samples(self, rng, stft_config):
        # Enormous log-power drives the synthesis far outside [-1, 1].
        frames = np.full((10, stft_config.n_bins), 10.0)
        phases = rng.uniform(-np.pi, np.pi, frames.shape)
        out, clipped = reconstruct(frames, phases, stft_config, 2816, 16000)
        assert clipped > 0
        assert np.all(out.samples >= -1.0) and np.all(out.samples <= 1.0)

    def test_shape_mismatch_rejected(self, stft_config):
        with pytest.raises(ValueError, match="shape mismatch"):
            reconstruct(np.zeros((3, 5)), np.zeros((5, 3)), stft_config, 100, 16000)


class TestEnhanceWaveform:
    def noisy(self, seconds=0.2, seed=0):
        rng = np.random.default_rng(seed)
        return Waveform(0.1 * rng.standard_normal(int(seconds * 16000)), 16000)

    def test_copying_model_reproduces_noisy(self):
        noisy = self.noisy()
        result = enhance_waveform(copying_model(), noisy, SMALL, post=GATE_OFF)
        estimated, _, spec, _ = enhance_features(copying_model(), noisy, SMALL)
        # The estimate passes through a float32 forward pass.
        assert estimated.data == pytest.approx(lps(spec).data, rel=1e-5)
        edge = SMALL.frame_len
        x = noisy.samples[edge:-edge]
        y = result.enhanced.samples[edge:-edge]
        assert np.linalg.norm(y - x) / np.linalg.norm(x) < 1e-4

    def test_disabled_gate_passes_estimate_through(self):
        noisy = self.noisy(seed=1)
        model = copying_model(Variant.IBM, with_mask=True)
        explicit = enhance_waveform(model, noisy, SMALL, post=GATE_OFF)
        estimated, _, spec, _ = enhance_features(model, noisy, SMALL)
        _, phases = magnitude_phase(spec)
        raw, _ = reconstruct(estimated, phases, SMALL, len(noisy), noisy.sample_rate)
        assert np.array_equal(explicit.enhanced.samples, raw.samples)
        assert sorted(explicit.counters) == ["clipped_samples", "n_bins", "n_frames"]

    def test_gate_requires_mask_head(self):
        with pytest.raises(ConfigError, match="no mask head"):
            enhance_waveform(
                copying_model(), self.noisy(), SMALL, post=PostProcessConfig()
            )

    def test_gate_is_on_by_default(self):
        # As in PostProcessConfig() and the command line: a call without
        # `post` gates, and a mask-free model then fails.
        noisy = self.noisy(seed=4)
        model = copying_model(Variant.IBM, with_mask=True)
        model.biases[0][BINS:] = np.linspace(0.0, 1.1, BINS)
        default = enhance_waveform(model, noisy, SMALL)
        gated = enhance_waveform(model, noisy, SMALL, post=PostProcessConfig())
        plain = enhance_waveform(model, noisy, SMALL, post=GATE_OFF)
        assert np.array_equal(default.enhanced.samples, gated.enhanced.samples)
        assert default.counters == gated.counters and "kept_noisy" in default.counters
        assert not np.array_equal(default.enhanced.samples, plain.enhanced.samples)
        with pytest.raises(ConfigError, match="no mask head"):
            enhance_waveform(copying_model(), noisy, SMALL)

    def test_mask_variant_populates_diagnostics(self):
        noisy = self.noisy(seed=2)
        model = copying_model(Variant.IBM, with_mask=True)
        result = enhance_waveform(model, noisy, SMALL, post=PostProcessConfig())
        _, mask, spec, _ = enhance_features(model, noisy, SMALL)
        assert mask.data.shape == (spec.frames.shape[0], BINS)
        counters = result.counters
        assert counters["n_frames"] == spec.frames.shape[0]
        assert counters["n_bins"] == BINS
        gate = [counters[key] for key in ("kept_noisy", "averaged", "kept_estimate")]
        assert sum(gate) == spec.frames.shape[0] * BINS

    def test_mask_of_zeros_equals_disabled_gate(self):
        # The copying model's mask head outputs all zeros, so every bin takes
        # the estimate branch and the gate changes nothing.
        noisy = self.noisy(seed=3)
        model = copying_model(Variant.IBM, with_mask=True)
        gated = enhance_waveform(model, noisy, SMALL, post=PostProcessConfig())
        plain = enhance_waveform(model, noisy, SMALL, post=GATE_OFF)
        assert np.array_equal(gated.enhanced.samples, plain.enhanced.samples)
        assert gated.counters == {
            **plain.counters,
            "kept_noisy": 0,
            "averaged": 0,
            "kept_estimate": plain.counters["n_frames"] * BINS,
        }

    def test_cepstral_variant_needs_bank(self, speech_like):
        model = copying_model()
        model.variant = Variant.MFCC
        model.stats[FeatureKind.MFCC] = identity_stats(41)
        with pytest.raises(ConfigError, match="needs a mel filter bank"):
            enhance_waveform(model, speech_like, SMALL, post=GATE_OFF)

    def test_full_scale_variant_runs(self, speech_like, stft_config):
        # End to end with the real feature sizes and a trained-shape model.
        from specjoint import init_model, input_dim, mfcc as mfcc_fn

        bank = mel_bank()
        spec = stft(speech_like, stft_config)
        stats = {
            kind: NormStats(data.mean(axis=0), np.maximum(data.var(axis=0), 1e-8))
            for kind, data in (
                (FeatureKind.LPS, lps(spec).data),
                (FeatureKind.MFCC, mfcc_fn(spec, bank).data),
            )
        }
        model = init_model(
            Variant.MFCC_IBM,
            input_dim(Variant.MFCC_IBM, 257, 41, 3),
            stats,
            tau=3,
            noise_aware_frames=6,
            lps_dims=257,
            mfcc_dims=41,
            hidden_units=32,
            hidden_layers=2,
            seed=0,
        )
        result = enhance_waveform(
            model, speech_like, stft_config, bank=bank, post=PostProcessConfig()
        )
        assert len(result.enhanced) == len(speech_like)
        assert (result.counters["n_frames"], result.counters["n_bins"]) == (spec.frames.shape[0], 257)


class TestDiagnosticsFile:
    def test_sorted_key_value_lines(self, tmp_path):
        noisy = Waveform(0.1 * np.random.default_rng(0).standard_normal(3200), 16000)
        model = copying_model(Variant.IBM, with_mask=True)
        result = enhance_waveform(model, noisy, SMALL, post=PostProcessConfig())
        path = tmp_path / "sub" / "utt.diag.txt"
        path.parent.mkdir()
        write_diagnostics(path, result)
        lines = path.read_text().splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        assert keys == sorted(keys)
        assert f"n_bins={BINS}" in lines
        values = dict(line.split("=", 1) for line in lines)
        total = int(values["kept_noisy"]) + int(values["averaged"]) + int(values["kept_estimate"])
        assert total == int(values["n_frames"]) * int(values["n_bins"])

    # The diagnostics format byte for byte: a renamed, dropped or reordered
    # counter changes it.
    GOLDEN = {
        "ungated": "clipped_samples=543\nn_bins=17\nn_frames=199\n",
        "gated": (
            "averaged=995\nclipped_samples=0\nkept_estimate=1791\nkept_noisy=597\n"
            "n_bins=17\nn_frames=199\n"
        ),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_golden_text(self, tmp_path, case):
        noisy = Waveform(0.1 * np.random.default_rng(5).standard_normal(3200), 16000)
        if case == "gated":
            # A constant mask rising across the bins reaches all three branches.
            model = copying_model(Variant.IBM, with_mask=True)
            model.biases[0][BINS:] = np.linspace(0.0, 1.1, BINS)
            post = PostProcessConfig()
        else:
            # A 4-nat log-power boost drives many samples past full scale.
            model = copying_model()
            model.biases[0] += 4.0
            post = GATE_OFF
        path = tmp_path / "utt.diag.txt"
        write_diagnostics(path, enhance_waveform(model, noisy, SMALL, post=post))
        assert path.read_bytes() == self.GOLDEN[case].encode("utf-8")
