"""Train a small mask-head network and enhance a held-out utterance."""

from pathlib import Path
from tempfile import mkdtemp

from specjoint import (
    IbmConfig,
    PostProcessConfig,
    StftConfig,
    TrainConfig,
    Variant,
    build_corpus,
    enhance_waveform,
    init_model,
    load_training_data,
    mel_bank,
    read_corpus_stats,
    read_wav,
    ssnr,
    stoi,
    train,
)
from specjoint.corpus import input_dim
from specjoint.synth import write_demo_corpus

root = Path(mkdtemp(prefix="specjoint-demo-"))
stft_config = StftConfig()
bank = mel_bank()

clean, noise = write_demo_corpus(
    root / "clean", root / "noise", n_voices=8, voice_duration=1.0, seed=12
)
entries = build_corpus(
    clean, noise, root / "corpus", stft_config, bank, IbmConfig(),
    snr_grid=(10.0, 5.0, 0.0), val_fraction=0.0, test_fraction=0.25, seed=12,
)
stats = read_corpus_stats(root / "corpus")

# Mask-head variant: log-power regression plus a binary-mask head that
# later drives the gate. Small network, enough epochs to move the loss.
variant = Variant.parse("ibm")
data = load_training_data(
    root / "corpus", [e for e in entries if e.split == "train"], variant, stats
)
model = init_model(
    variant, input_dim(variant, 257, 41, tau=3), stats, tau=3,
    noise_aware_frames=6, lps_dims=257, mfcc_dims=41,
    hidden_units=64, hidden_layers=2, seed=12,
)
history = train(
    model, data, TrainConfig(epochs=25, batch_size=64, learning_rate=0.003, seed=12)
)
print(f"training loss {history[0].train['total']:.3f} -> {history[-1].train['total']:.3f}")

# Enhance one test utterance twice: straight network output, then with
# the three-way gate that trusts the noisy bins the mask calls speech.
# At this toy scale the mapping over-smooths temporal detail, so SSNR
# improves while STOI still favors the unprocessed mixture.
entry = next(e for e in entries if e.split == "test" and e.snr_db == 0.0)
noisy = read_wav(root / "corpus" / "noisy" / f"{entry.utterance_id}.wav")
reference = read_wav(entry.clean_path)

plain = enhance_waveform(model, noisy, stft_config, bank, PostProcessConfig(enabled=False))
gated = enhance_waveform(model, noisy, stft_config, bank, PostProcessConfig(enabled=True))
counts = gated.counters
print(f"{entry.utterance_id}")
print(f"  gate branches: noisy={counts['kept_noisy']} averaged={counts['averaged']} "
      f"estimate={counts['kept_estimate']}")
for label, wave in (("noisy", noisy), ("enhanced", plain.enhanced), ("gated", gated.enhanced)):
    print(f"  {label:9s} ssnr {ssnr(reference, wave):6.2f} dB   "
          f"stoi {stoi(reference, wave):.3f}")
