import contextlib
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import resample_poly

from specjoint import (
    MetricError,
    MixSpec,
    Waveform,
    distortion_profile,
    profile_csv,
    read_wav,
    report_csv,
    ssnr,
    stoi,
    write_wav,
)
from specjoint import metrics
from specjoint.cli import main
from specjoint.corpus import write_manifest
from specjoint.synth import harmonic_voice, white_noise
from oracles import loop_stoi


def wave(samples, rate=16000):
    return Waveform(np.asarray(samples, dtype=np.float64), rate)


class TestSsnr:
    def test_identical_signals_hit_ceiling(self, speech_like):
        assert ssnr(speech_like, speech_like) == 35.0

    def test_zero_test_signal_gives_zero_db(self, speech_like):
        silent = wave(np.zeros(len(speech_like)))
        assert ssnr(speech_like, silent) == pytest.approx(0.0, abs=1e-12)

    def test_inverted_signal(self, speech_like):
        flipped = wave(-speech_like.samples)
        # Error energy is four times the reference energy in every frame.
        assert ssnr(speech_like, flipped) == pytest.approx(10.0 * np.log10(0.25), abs=1e-9)

    def test_floor_clamp(self, rng, speech_like):
        buried = wave(speech_like.samples + 1000.0 * rng.standard_normal(len(speech_like)))
        assert ssnr(speech_like, buried) == -10.0

    def test_values_between_clamps(self, rng, speech_like):
        noisy = wave(speech_like.samples + 0.01 * rng.standard_normal(len(speech_like)))
        value = ssnr(speech_like, noisy)
        assert -10.0 < value < 35.0

    def test_digital_silence_excluded(self):
        samples = np.zeros(2048)
        samples[:1024] = np.sin(2 * np.pi * 440 * np.arange(1024) / 16000)
        ref = wave(samples)
        corrupted = samples.copy()
        corrupted[1536:] += 0.5  # error confined to silent frames
        assert ssnr(ref, wave(corrupted)) == 35.0

    def test_trims_to_shorter_signal(self, speech_like):
        longer = wave(np.concatenate([speech_like.samples, np.ones(5000)]))
        assert ssnr(speech_like, longer) == 35.0

    def test_rate_mismatch(self, speech_like):
        with pytest.raises(MetricError, match="sample rates differ"):
            ssnr(speech_like, wave(np.zeros(8000), rate=8000))

    def test_too_short(self):
        with pytest.raises(MetricError, match="shorter than one frame"):
            ssnr(wave(np.ones(100)), wave(np.ones(100)))

    def test_all_silent_reference(self):
        with pytest.raises(MetricError, match="no speech-active frames"):
            ssnr(wave(np.zeros(2048)), wave(np.ones(2048)))


class TestStoi:
    def test_identical_signals(self, speech_like):
        assert stoi(speech_like, speech_like) >= 0.999

    def test_scale_invariance(self, rng, speech_like):
        noisy = wave(speech_like.samples + 0.05 * rng.standard_normal(len(speech_like)))
        base = stoi(speech_like, noisy)
        scaled = stoi(speech_like, wave(3.7 * noisy.samples))
        assert abs(scaled - base) < 1e-6

    def test_more_noise_scores_lower(self, speech_like):
        noise = white_noise(1.0, 16000, seed=5)
        light = wave(speech_like.samples + 0.02 * noise.samples)
        heavy = wave(speech_like.samples + 0.8 * noise.samples)
        assert stoi(speech_like, heavy) < stoi(speech_like, light)

    def test_unrelated_noise_scores_low(self, speech_like):
        noise = white_noise(1.0, 16000, seed=3)
        assert stoi(speech_like, noise) < 0.5

    def test_too_short(self):
        with pytest.raises(MetricError, match="active frames"):
            stoi(wave(np.ones(3000)), wave(np.ones(3000)))

    @pytest.mark.parametrize("length", [6349, 16000])
    @pytest.mark.parametrize("level", [1.0, 0.3, -0.5])
    def test_constant_reference_rejected(self, length, level):
        # Long enough to pass the active-frame check; a DC reference has no
        # envelope to correlate, so it must not score as intelligible.
        with pytest.raises(MetricError, match="reference is constant"):
            stoi(wave(np.full(length, level)), wave(np.full(length, level)))

    def test_rate_mismatch(self, speech_like):
        with pytest.raises(MetricError, match="sample rates differ"):
            stoi(speech_like, wave(np.zeros(8000), rate=8000))


_SEED = st.integers(0, 2**32 - 1)
_NOISE = st.floats(0.0, 2.0)


def assert_matches_loop(reference: Waveform, test: Waveform) -> None:
    """Same score within 1e-12, or both reject the pair."""
    try:
        expected = loop_stoi(reference, test)
    except MetricError:
        with pytest.raises(MetricError):
            stoi(reference, test)
        return
    assert abs(stoi(reference, test) - expected) <= 1e-12


class TestStoiMatchesLoop:
    """stoi scores all 30-frame segments at once; the oracle loops over them."""

    @settings(max_examples=25)
    @given(st.integers(10000, 24000), _NOISE, _SEED)
    def test_random_inputs(self, length, noise, seed):
        rng = np.random.default_rng(seed)
        # Loudness steps of 60 dB make silence removal drop some frames.
        loudness = np.repeat(10.0 ** rng.uniform(-3.0, 0.0, length // 400 + 1), 400)[:length]
        ref = rng.standard_normal(length) * loudness
        assert_matches_loop(wave(ref), wave(ref + noise * rng.standard_normal(length)))

    @settings(max_examples=25)
    @given(_NOISE, _SEED)
    def test_exactly_one_segment(self, noise, seed):
        rng = np.random.default_rng(seed)
        # At the STOI rate, 30 frames of 256 samples every 128.
        ref = rng.standard_normal(29 * metrics.STOI_HOP + metrics.STOI_FRAME_LEN)
        tst = ref + noise * rng.standard_normal(len(ref))
        # Silence removal keeps all 30 frames: one segment of 30 envelope frames.
        segments = metrics._stoi_reference(ref, metrics.STOI_RATE).unit
        assert segments.shape[0] == 1 and segments.shape[-1] == metrics.STOI_SEGMENT
        assert_matches_loop(wave(ref, metrics.STOI_RATE), wave(tst, metrics.STOI_RATE))

    @settings(max_examples=25)
    @given(st.integers(8000, 16000), st.integers(1, 16000), _NOISE, _SEED)
    def test_silent_tail(self, length, tail, noise, seed):
        rng = np.random.default_rng(seed)
        ref = np.concatenate([rng.standard_normal(length), np.zeros(tail)])
        assert_matches_loop(wave(ref), wave(ref + noise * rng.standard_normal(len(ref))))

    @settings(max_examples=25)
    @given(st.integers(1, 6000), st.floats(-1.0, 1.0))
    def test_short_dc_inputs_raise(self, length, level):
        # Under 6,349 samples at 16 kHz give fewer than 30 frames at 10 kHz.
        dc = wave(np.full(length, level))
        with pytest.raises(MetricError):
            stoi(dc, dc)
        with pytest.raises(MetricError):
            loop_stoi(dc, dc)


class TestResampleFilter:
    """STOI designs its resampling filter once per reference and hands it to
    resample_poly; the output must be the bytes of resample_poly's own default."""

    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100])
    def test_matches_resample_poly_default(self, rng, rate):
        x = rng.standard_normal(rate // 2)
        g = np.gcd(rate, metrics.STOI_RATE)
        want = resample_poly(x, metrics.STOI_RATE // g, rate // g).tobytes()
        taps = metrics._resample_filter(rate)
        assert metrics._resample_to_stoi_rate(x, rate, taps).tobytes() == want

    def test_stoi_rate_input_is_returned_unchanged(self, rng):
        x = rng.standard_normal(5000)
        assert metrics._resample_filter(metrics.STOI_RATE) is None
        assert metrics._resample_to_stoi_rate(x, metrics.STOI_RATE, None) is x


def profile_means(profiles, n_bins: int) -> np.ndarray:
    """The mean_distortion column profile_csv writes for these utterance profiles."""
    text = profile_csv([(None, profile) for profile in profiles], 16000, 2 * (n_bins - 1))
    return np.array([float(line.split(",")[1]) for line in text.splitlines()[1:]])


class TestDistortionProfile:
    def test_perfect_estimate_gives_zeros(self, rng):
        clean = rng.standard_normal((6, 5))
        bin_sums, n_frames = distortion_profile(clean, clean)
        assert np.array_equal(bin_sums, np.zeros(5))
        assert n_frames == 6

    def test_constant_offset(self, rng):
        clean = rng.standard_normal((4, 3))
        bin_sums, n_frames = distortion_profile(clean, clean - 1.0)
        assert bin_sums / n_frames == pytest.approx(np.ones(3), rel=1e-12)

    def test_chunked_accumulation(self, rng):
        clean = rng.standard_normal((20, 4))
        est = rng.standard_normal((20, 4))
        whole = distortion_profile(clean, est)
        chunks = [distortion_profile(clean[:8], est[:8]), distortion_profile(clean[8:], est[8:])]
        assert sum(frames for _, frames in chunks) == whole[1]
        assert profile_means(chunks, 4) == pytest.approx(whole[0] / whole[1], abs=1e-6)

    def test_merge(self, rng):
        a = distortion_profile(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        b = distortion_profile(rng.standard_normal((5, 4)), rng.standard_normal((5, 4)))
        assert profile_means([a, b], 4) == pytest.approx((a[0] + b[0]) / 8, abs=1e-6)

    def test_merge_mismatch(self):
        with pytest.raises(ValueError, match="different bin counts"):
            profile_csv([(None, (np.zeros(4), 1)), (None, (np.zeros(5), 1))], 16000, 6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            distortion_profile(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_empty_profile_has_no_mean(self):
        with pytest.raises(MetricError, match="no frames accumulated"):
            profile_csv([], 16000, 4)

    def test_csv_layout(self):
        profile = distortion_profile(np.ones((2, 3)), np.zeros((2, 3)))
        text = profile_csv([(None, profile)], sample_rate=16000, fft_size=4)
        lines = text.splitlines()
        assert lines[0] == "bin_hz,mean_distortion"
        assert lines[1] == "0.00,1.000000"
        assert lines[2] == "4000.00,1.000000"
        assert lines[3] == "8000.00,1.000000"
        assert len(lines) == 4


@pytest.fixture(scope="module")
def eval_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval")
    clean_dir = root / "clean"
    enhanced_dir = root / "enhanced"
    clean_dir.mkdir()
    enhanced_dir.mkdir()
    entries = []
    for i, (noise_stem, snr_db) in enumerate([("white", 0.0), ("white", 10.0), ("hum", 0.0)]):
        voice = harmonic_voice(0.7, 16000, f0=140.0 + 30 * i, seed=i)
        clean_path = clean_dir / f"u{i}.wav"
        write_wav(clean_path, voice)
        entry = MixSpec(clean_path, Path(f"{noise_stem}.wav"), snr_db, 0, "test")
        entries.append(entry)
        # "Enhanced" output is the clean signal itself: the easy reference
        # point where both metrics sit at their ceilings.
        write_wav(enhanced_dir / f"{entry.utterance_id}.wav", voice)
    return entries, enhanced_dir


def score_with_analysis(entries, enhanced_dir, map_fn=map):
    """The evaluate command's scoring of every pair, each clean voice analysed once."""
    return metrics.score_pairs(
        entries, enhanced_dir, metrics.analyse_reference, metrics.ssnr_stoi, 16000, map_fn
    )


def evaluate(entries, enhanced_dir):
    """The evaluate command's pass: score every pair, then average per condition and overall."""
    scored, missing, failed = score_with_analysis(entries, enhanced_dir)
    return scored, missing, failed, metrics.condition_means(scored)


class TestEvaluateCondition:
    def test_perfect_enhancement_maxes_metrics(self, eval_setup):
        entries, enhanced_dir = eval_setup
        scored, missing, failed, (_, overall) = evaluate(entries, enhanced_dir)
        assert len(scored) == 3
        assert overall["ssnr_db"] == 35.0
        assert overall["stoi"] >= 0.999
        assert not missing and not failed

    def test_per_condition_grouping(self, eval_setup):
        entries, enhanced_dir = eval_setup
        scored, _, _, (per_condition, _) = evaluate(entries, enhanced_dir)
        assert set(per_condition) == {("white", 0.0), ("white", 10.0), ("hum", 0.0)}
        # entries[0] is the only white 0 dB utterance, so its mean is its score.
        assert per_condition[("white", 0.0)] == next(s for e, s in scored if e == entries[0])

    def test_order_independent(self, eval_setup):
        entries, enhanced_dir = eval_setup
        a = evaluate(entries, enhanced_dir)
        b = evaluate(list(reversed(entries)), enhanced_dir)
        assert a[3] == b[3]
        assert report_csv(*a[:3]) == report_csv(*b[:3])

    def test_missing_files_reported(self, eval_setup):
        entries, enhanced_dir = eval_setup
        extra = MixSpec(entries[0].clean_path, Path("pink.wav"), 5.0, 0, "test")
        scored, missing, failed, _ = evaluate(entries + [extra], enhanced_dir)
        assert missing == [extra.utterance_id]
        assert not failed
        assert len(scored) == 3

    def test_report_csv_layout(self, eval_setup):
        entries, enhanced_dir = eval_setup
        extra = MixSpec(entries[0].clean_path, Path("pink.wav"), 5.0, 0, "test")
        scored, missing, failed, _ = evaluate(entries + [extra], enhanced_dir)
        lines = report_csv(scored, missing, failed).splitlines()
        assert lines[0] == "noise,snr_db,metric,value"
        assert lines[1] == "hum,0,ssnr_db,35.0000"
        assert lines[2].startswith("hum,0,stoi,")
        # Conditions are sorted, overall rows follow, missing rows close out.
        assert lines[-3] == "overall,,ssnr_db,35.0000"
        assert lines[-2].startswith("overall,,stoi,")
        assert lines[-1] == f"missing,,utterance,{extra.utterance_id}"


def write_voices(tmp_path, stems, noises):
    """One clean WAV per stem, and an enhanced copy of it per noise at 0 dB."""
    entries = []
    for i, stem in enumerate(stems):
        voice = harmonic_voice(0.7, 16000, f0=140.0 + 60 * i, seed=i)
        write_wav(tmp_path / "clean" / f"{stem}.wav", voice)
        for noise in noises:
            entry = MixSpec(tmp_path / "clean" / f"{stem}.wav", Path(f"{noise}.wav"), 0.0, 0, "test")
            write_wav(tmp_path / "enhanced" / f"{entry.utterance_id}.wav", voice)
            entries.append(entry)
    return entries


def same_samples(clean, enhanced, analysis):
    """Whether enhanced, and the clean signal analysis was made from, equal clean."""
    return all(np.array_equal(clean.samples, x.samples) for x in (enhanced, analysis))


def itself(clean):
    return clean


def test_interleaved_voices_are_scored_against_their_own_clean(tmp_path, monkeypatch):
    # In id order the pairs of stems "a" and "a_" interleave: a__Hum, a___Hum,
    # a___white, a__white. Each clean WAV is still read once.
    entries = write_voices(tmp_path, ["a", "a_"], ["Hum", "white"])
    reads = []

    def counting_read_wav(path, *args, **kwargs):
        reads.append(Path(path))
        return read_wav(path, *args, **kwargs)

    monkeypatch.setattr(metrics, "read_wav", counting_read_wav)
    scored, missing, failed = metrics.score_pairs(
        entries, tmp_path / "enhanced", itself, same_samples, 16000, map
    )
    assert [e.utterance_id for e, _ in scored] == sorted(e.utterance_id for e in entries)
    assert [e.clean_path.stem for e, _ in scored] == ["a", "a_", "a_", "a"]
    assert all(same for _, same in scored) and not missing and not failed
    assert sorted(p.name for p in reads if p.parent.name == "clean") == ["a.wav", "a_.wav"]


def test_each_pair_is_one_unit_of_work(tmp_path):
    """A split of one voice still hands map_fn one item per pair, so --jobs spreads them."""
    entries = write_voices(tmp_path, ["v0"], ["babble", "hum", "white"])
    handed = []

    def recording_map(fn, items):
        items = list(items)
        handed.append(len(items))
        return map(fn, items)

    scored, _, _ = metrics.score_pairs(
        entries, tmp_path / "enhanced", itself, same_samples, 16000, recording_map
    )
    assert handed == [3] and len(scored) == 3


class TestReportCsv:
    def test_any_named_score_gets_rows(self):
        """A third score needs no code change, and every mean matches numpy's."""
        rng = np.random.default_rng(7)
        conditions = [("white", 10.0), ("babble", -5.0), ("white", 0.0), ("babble", 5.0)]
        scored = []
        for i in range(12):
            noise, snr_db = conditions[i % len(conditions)]
            entry = MixSpec(Path(f"v{i:02d}.wav"), Path(f"{noise}.wav"), snr_db, i, "test")
            scores = {"ssnr_db": rng.normal(5, 3), "stoi": rng.uniform(), "lsd_db": rng.normal(9, 2)}
            scored.append((entry, scores))
        scored.sort(key=lambda pair: pair[0].utterance_id)
        failed = [(Path("enh/v99__white__snr0dB.wav"), "too short")]
        lines = report_csv(scored, ["v98__white__snr0dB"], failed).splitlines()

        expected = ["noise,snr_db,metric,value"]
        names = ["ssnr_db", "stoi", "lsd_db"]
        for noise, snr_db in sorted(set(conditions)):
            rows = [s for e, s in scored if (e.noise_path.stem, e.snr_db) == (noise, snr_db)]
            for name in names:
                value = np.mean(np.array([row[name] for row in rows]))
                expected.append(f"{noise},{snr_db:g},{name},{value:.4f}")
        for name in names:
            value = np.mean(np.array([row[name] for _, row in scored]))
            expected.append(f"overall,,{name},{value:.4f}")
        expected += ["missing,,utterance,v98__white__snr0dB", "failed,,utterance,v99__white__snr0dB"]
        assert lines == expected
        assert sum(",lsd_db," in line for line in lines) == 5


@contextlib.contextmanager
def map_on(jobs: int):
    """The builtin map for one job, else an order-keeping map over a pool of
    that many threads that waits at most 60 s for each result."""
    if jobs == 1:
        yield map
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield lambda fn, items: pool.map(fn, items, timeout=60)


def write_scoring_pairs(tmp_path, voices: dict, noises, cut_ids=()):
    """One clean WAV per named voice, and per noise a noisy copy as its
    enhanced WAV; the ids in cut_ids lose their last 3,000 samples."""
    entries = []
    for i, (stem, voice) in enumerate(voices.items()):
        write_wav(tmp_path / "clean" / f"{stem}.wav", voice)
        for j, noise in enumerate(noises):
            entry = MixSpec(tmp_path / "clean" / f"{stem}.wav", Path(f"{noise}.wav"), 5.0, 0, "test")
            noise_samples = white_noise(len(voice) / 16000, 16000, seed=10 * i + j).samples
            noisy = voice.samples + 0.05 * noise_samples
            if entry.utterance_id in cut_ids:
                noisy = noisy[:-3000]
            write_wav(tmp_path / "enhanced" / f"{entry.utterance_id}.wav", wave(noisy))
            entries.append(entry)
    return entries


def read_pair(tmp_path, entry):
    return read_wav(entry.clean_path), read_wav(tmp_path / "enhanced" / f"{entry.utterance_id}.wav")


class TestPerVoiceAnalysis:
    """score_pairs analyses each clean voice once per length its pairs are cut to."""

    NOISES = ["babble", "hum", "white"]

    @pytest.fixture
    def pairs(self, tmp_path):
        voices = {f"v{i}": harmonic_voice(1.0, 16000, f0=130.0 + 40 * i, seed=i) for i in range(2)}
        cut = MixSpec(tmp_path / "clean" / "v1.wav", Path("hum.wav"), 5.0, 0, "test").utterance_id
        return write_scoring_pairs(tmp_path, voices, self.NOISES, cut_ids={cut})

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scores_equal_each_pair_analysed_alone(self, tmp_path, monkeypatch, pairs, jobs):
        builds = []
        bands = metrics._third_octave_bands
        monkeypatch.setattr(metrics, "_third_octave_bands", lambda: builds.append(1) or bands())
        with map_on(jobs) as map_fn:
            scored, missing, failed = score_with_analysis(pairs, tmp_path / "enhanced", map_fn)
        analyses = len(builds)
        assert len(scored) == len(pairs) and not missing and not failed
        lengths = set()
        for entry, scores in scored:
            clean, enhanced = read_pair(tmp_path, entry)
            n = min(len(clean), len(enhanced))
            lengths.add((entry.clean_path, n))
            cut_clean, cut_enhanced = wave(clean.samples[:n]), wave(enhanced.samples[:n])
            alone = metrics.ssnr_stoi(cut_clean, cut_enhanced, metrics.analyse_reference(cut_clean))
            assert scores == alone
            assert scores == {"ssnr_db": ssnr(clean, enhanced), "stoi": stoi(clean, enhanced)}
        # Two voices, one of them also cut short once: three reference analyses.
        assert len(lengths) == 3 and analyses == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "level,reason",
        [(0.3, "reference is constant"), (0.0, "reference has no speech-active frames")],
    )
    def test_rejected_clean_fails_only_its_own_pairs(self, tmp_path, jobs, level, reason):
        # A DC clean voice passes SSNR and fails STOI; a silent one fails both,
        # and scoring a pair alone reports SSNR's reason.
        voices = {"flat": wave(np.full(16000, level)), "voiced": harmonic_voice(1.0, 16000, seed=4)}
        entries = write_scoring_pairs(tmp_path, voices, self.NOISES)
        with pytest.raises(MetricError) as alone:
            clean, enhanced = read_pair(tmp_path, entries[0])
            ssnr(clean, enhanced), stoi(clean, enhanced)
        assert str(alone.value).startswith(reason)
        analysed = []

        def counting_analyse(clean):
            analysed.append(len(clean))
            return metrics.analyse_reference(clean)

        with map_on(jobs) as map_fn:
            scored, missing, failed = metrics.score_pairs(
                entries, tmp_path / "enhanced", counting_analyse, metrics.ssnr_stoi, 16000, map_fn
            )
        flat_ids = sorted(e.utterance_id for e in entries if e.clean_path.stem == "flat")
        assert [path.stem for path, _ in failed] == flat_ids
        assert all(why == str(alone.value) for _, why in failed)
        assert sorted(e.clean_path.stem for e, _ in scored) == ["voiced"] * 3 and not missing
        assert len(analysed) == 2  # the rejected analysis is not tried again per pair
        write_manifest(tmp_path / "manifest.tsv", entries)
        args = [str(tmp_path), str(tmp_path / "enhanced"), str(tmp_path / "r.csv")]
        assert main(["evaluate", "--jobs", str(jobs), *args]) == 1
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[-3:] == [f"failed,,utterance,{uid}" for uid in flat_ids]

    def test_many_workers_analyse_each_length_once(self, tmp_path):
        """With more threads than cores and a short switch interval, no length
        is analysed twice and every pair gets the analysis of its own length."""
        voice = harmonic_voice(0.5, 16000, seed=2)
        write_wav(tmp_path / "clean" / "v.wav", voice)
        entries = []
        for i in range(24):
            entry = MixSpec(tmp_path / "clean" / "v.wav", Path(f"n{i:02d}.wav"), 0.0, 0, "test")
            cut = voice.samples[: 8000 - 100 * (i % 4)]
            write_wav(tmp_path / "enhanced" / f"{entry.utterance_id}.wav", wave(cut))
            entries.append(entry)
        analysed = []

        def slow_length(clean):
            analysed.append(len(clean))
            time.sleep(0.01)  # widen the window a second analysis would slip into
            return len(clean)

        def lengths(clean, enhanced, analysis):
            return len(enhanced), analysis

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with map_on(8) as map_fn:
                scored, _, failed = metrics.score_pairs(
                    entries, tmp_path / "enhanced", slow_length, lengths, 16000, map_fn
                )
        finally:
            sys.setswitchinterval(interval)
        assert not failed and len(scored) == 24
        assert all(length == analysis for _, (length, analysis) in scored)
        assert sorted(analysed) == [7700, 7800, 7900, 8000]
