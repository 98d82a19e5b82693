"""Command-line front end: prepare, train, enhance, evaluate, profile.

Every command takes an optional key=value config file; flags override the
file; the effective configuration is echoed next to the primary outputs so
a run can be reproduced from its artifacts alone. With a fixed seed all
primary outputs (manifests, checkpoints, WAVs, CSVs) are byte-identical
across reruns.
"""

import argparse
import contextlib
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from .config import RunConfig
from .corpus import Variant, load_training_data, read_corpus_stats, read_manifest
from .dsp import min_samples, stft
from .enhance import check_post_process, enhance_waveform, write_diagnostics
from .errors import ConfigError, SpecJointError, TrainingDivergedError
from .features import FeatureKind, lps
from .network import LOSS_NAMES, EpochStats, init_model, load_model, save_model, train
from .wavio import read_wav, write_wav

log = logging.getLogger("specjoint")

CONFIG_ECHO_NAME = "effective-config.txt"

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level_name = os.environ.get("SPECJOINT_LOG", "info").lower()
    if level_name not in _LOG_LEVELS:
        print(
            f"warning: SPECJOINT_LOG={level_name!r} not one of {sorted(_LOG_LEVELS)}; using info",
            file=sys.stderr,
        )
        level_name = "info"
    logging.basicConfig(stream=sys.stderr, format="%(message)s", level=_LOG_LEVELS[level_name])


def _load_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        config = config.replace(seed=args.seed)
    if getattr(args, "variant", None) is not None:
        config = config.replace(variant=args.variant)
    if getattr(args, "post_process", None) is not None:
        config = config.replace(post_enabled=args.post_process == "on")
    return config


def _echo_config(config: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / CONFIG_ECHO_NAME).write_text(config.dump(), encoding="utf-8")


def _check_dims(config: RunConfig, stats, with_mfcc: bool, source: str) -> None:
    """Raise unless the config's feature sizes are the ones source was built with."""
    wanted = {FeatureKind.LPS: config.lps_dims}
    if with_mfcc:
        wanted[FeatureKind.MFCC] = config.mfcc_dims
    for kind, dims in wanted.items():
        have = stats[kind].dims if kind in stats else 0
        if have != dims:
            raise ConfigError(f"the config gives {dims} {kind.name} dims but {source} has {have}")


def _wav_list(directory: Path) -> list[Path]:
    paths = sorted(directory.glob("*.wav"))
    if not paths:
        raise SpecJointError(f"no WAV files in {directory}")
    return paths


@contextlib.contextmanager
def _per_file_map(jobs: int):
    """Yield a map that keeps input order: the builtin for one job, so the
    work stays in this thread, else a pool of that many threads."""
    if jobs == 1:
        yield map
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield pool.map


def cmd_prepare(args) -> int:
    config = _load_config(args)
    clean_dir, noise_dir, out_dir = Path(args.clean_dir), Path(args.noise_dir), Path(args.out_dir)
    clean_paths, noise_paths = _wav_list(clean_dir), _wav_list(noise_dir)
    # Every source must carry signal to be mixed at an SNR, and a clean voice
    # must give the noise-aware estimate its frames at train time.
    needed = min_samples(config.noise_aware_frames, config.stft_config())
    bad = []
    for i, path in enumerate(clean_paths + noise_paths):
        try:
            wav = read_wav(path, expected_rate=config.sample_rate)
        except SpecJointError as exc:
            bad.append(str(exc))
            continue
        if not wav.samples.any():
            bad.append(f"{path}: no nonzero sample; a silent source cannot be mixed at an SNR")
        elif i < len(clean_paths) and len(wav) < needed:
            bad.append(
                f"{path}: {len(wav)} samples is too short: training needs at least {needed} "
                f"samples ({config.noise_aware_frames} frames)"
            )
    if bad:
        for line in bad:
            log.error("error: %s", line)
        return 1
    entries = corpus_mod.build_corpus(
        clean_paths,
        noise_paths,
        out_dir,
        config.stft_config(),
        config.bank(),
        config.ibm_config(),
        snr_grid=config.snr_grid,
        val_fraction=config.val_fraction,
        test_fraction=config.test_fraction,
        seed=config.seed,
        sample_rate=config.sample_rate,
    )
    _echo_config(config, out_dir)
    log.info("prepared %d mixtures in %s", len(entries), out_dir)
    return 0


def _history_csv(history: list[EpochStats]) -> str:
    """One row per epoch; a cell is empty for an absent head or validation split."""
    columns = [f"{split}_{name}" for split in ("train", "val") for name in LOSS_NAMES]
    lines = [",".join(["epoch", "learning_rate", *columns])]
    for item in history:
        cells = [
            f"{losses[name]:.10g}" if name in losses else ""
            for losses in (item.train, item.val or {})
            for name in LOSS_NAMES
        ]
        lines.append(",".join([str(item.epoch), f"{item.learning_rate:.10g}", *cells]))
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    config = _load_config(args)
    corpus_dir = Path(args.corpus_dir)
    checkpoint_path = Path(args.checkpoint)
    if checkpoint_path.is_dir():
        raise ConfigError(f"checkpoint {checkpoint_path} is a directory")
    variant = Variant.parse(config.variant)
    manifest = corpus_dir / corpus_mod.MANIFEST_NAME
    entries = read_manifest(manifest)
    stats = read_corpus_stats(corpus_dir)
    _check_dims(config, stats, FeatureKind.MFCC in variant.head_kinds, f"the corpus in {corpus_dir}")
    train_entries = [e for e in entries if e.split == "train"]
    val_entries = [e for e in entries if e.split == "val"]
    if not train_entries:
        raise SpecJointError(f"manifest {manifest} has no train-split entries")
    # Check every train.* value before any row is read.
    train_config = config.train_config()
    model = init_model(
        variant,
        corpus_mod.input_dim(variant, config.lps_dims, config.mfcc_dims, config.context_tau),
        stats,
        config.context_tau,
        config.noise_aware_frames,
        config.lps_dims,
        config.mfcc_dims,
        hidden_units=config.hidden_units,
        hidden_layers=config.hidden_layers,
        seed=config.seed,
    )
    log.info(
        "training %s on %d train / %d val utterances",
        variant.value,
        len(train_entries),
        len(val_entries),
    )
    train_data = load_training_data(
        corpus_dir, train_entries, variant, stats, config.context_tau, config.noise_aware_frames
    )
    val_data = None
    if val_entries:
        val_data = load_training_data(
            corpus_dir, val_entries, variant, stats, config.context_tau, config.noise_aware_frames
        )
    exit_code = 0
    try:
        history = train(model, train_data, train_config, val_data, log=log.info)
    except TrainingDivergedError as exc:
        history = exc.history
        log.error("error: %s; keeping last finite parameters", exc)
        exit_code = 1
    save_model(checkpoint_path, model)
    checkpoint_path.with_suffix(".history.csv").write_text(_history_csv(history), encoding="utf-8")
    _echo_config(config, checkpoint_path.parent)
    log.info("wrote %s", checkpoint_path)
    return exit_code


def cmd_enhance(args) -> int:
    config = _load_config(args)
    model = load_model(args.checkpoint)
    in_path, out_dir = Path(args.input), Path(args.out_dir)
    wav_paths = _wav_list(in_path) if in_path.is_dir() else [in_path]
    if out_dir.resolve() == (in_path if in_path.is_dir() else in_path.parent).resolve():
        raise ConfigError(f"output directory {out_dir} holds the input; enhancing would overwrite it")
    post = config.post_config()
    mfcc_input = FeatureKind.MFCC in model.variant.input_kinds
    bank = config.bank() if mfcc_input else None
    # Fail the configuration checks before touching any files.
    check_post_process(model, post)
    _check_dims(config, model.stats, mfcc_input, f"checkpoint {args.checkpoint}")
    out_dir.mkdir(parents=True, exist_ok=True)

    def process(path: Path) -> str | None:
        """Enhance one file; returns why it failed, or None."""
        try:
            noisy = read_wav(path, expected_rate=config.sample_rate)
            result = enhance_waveform(model, noisy, config.stft_config(), bank, post)
            write_wav(out_dir / path.name, result.enhanced)
            write_diagnostics(out_dir / f"{path.stem}.diag.txt", result)
        except (SpecJointError, OSError) as exc:
            return f"{path}: {exc}"
        return None

    failed = 0
    with _per_file_map(args.jobs) as map_fn:
        for path, failure in zip(wav_paths, map_fn(process, wav_paths)):
            if failure is None:
                log.info("enhanced %s", path.name)
            else:
                log.error("error: %s", failure)
                failed += 1
    _echo_config(config, out_dir)
    return 1 if failed else 0


def _score_split(args, config: RunConfig, analyse, score):
    """metrics.score_pairs over the chosen split, logging each utterance
    with no enhanced WAV and each that cannot be scored; fails when none
    can be scored."""
    manifest = Path(args.corpus_dir) / corpus_mod.MANIFEST_NAME
    selected = [e for e in read_manifest(manifest) if e.split == args.split]
    if not selected:
        raise SpecJointError(f"manifest {manifest} has no {args.split}-split entries")
    with _per_file_map(args.jobs) as map_fn:
        scored, missing, failed = metrics_mod.score_pairs(
            selected, args.enhanced_dir, analyse, score, config.sample_rate, map_fn
        )
    for utterance_id in missing:
        log.error("missing enhanced file for %s", utterance_id)
    for path, reason in failed:
        log.error("error: %s: %s", path, reason)
    if not scored:
        raise SpecJointError(f"no enhanced utterance of split {args.split!r} could be scored")
    return scored, missing, failed


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    scored, missing, failed = _score_split(
        args, config, metrics_mod.analyse_reference, metrics_mod.ssnr_stoi
    )
    report = metrics_mod.report_csv(scored, missing, failed)
    Path(args.out_csv).write_text(report, encoding="utf-8")
    # Log the overall rows as written rather than averaging a second time.
    overall = [line.split(",")[2:] for line in report.splitlines() if line.startswith("overall,,")]
    log.info(
        "%s over %d utterances", ", ".join(f"{name} {value}" for name, value in overall), len(scored)
    )
    return 1 if missing or failed else 0


def cmd_distortion(args) -> int:
    config = _load_config(args)
    stft_config = config.stft_config()

    def clean_lps(clean):
        return lps(stft(clean, stft_config)).data

    def profile_of(clean, enhanced, clean_lps):
        return metrics_mod.distortion_profile(clean_lps, lps(stft(enhanced, stft_config)).data)

    scored, missing, failed = _score_split(args, config, clean_lps, profile_of)
    profile = metrics_mod.profile_csv(scored, config.sample_rate, config.stft_fft_size)
    Path(args.out_csv).write_text(profile, encoding="utf-8")
    return 1 if missing or failed else 0


def cmd_dump_defaults(args) -> int:
    sys.stdout.write(RunConfig().dump())
    return 0


def _worker_count(text: str) -> int:
    """The value of --jobs: a whole number of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1, got {text!r}")
    return jobs


def _add_common(parser: argparse.ArgumentParser, seed: bool = True) -> None:
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    if seed:
        parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--jobs",
        type=_worker_count,
        default=1,
        metavar="N",
        help="parallel workers for per-file work in enhance, evaluate and distortion-profile",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specjoint",
        description="Train and run a multi-objective spectral-mapping speech enhancer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="mix a noisy corpus and extract features")
    _add_common(p)
    p.add_argument("clean_dir")
    p.add_argument("noise_dir")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a network on a prepared corpus")
    _add_common(p)
    p.add_argument("--variant", choices=[v.value for v in Variant], help="override train.variant")
    p.add_argument("corpus_dir")
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="enhance a WAV file or directory")
    _add_common(p, seed=False)
    p.add_argument("--post-process", choices=["on", "off"], dest="post_process")
    p.add_argument("checkpoint")
    p.add_argument("input")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("evaluate", help="score enhanced utterances against their cleans")
    _add_common(p, seed=False)
    p.add_argument("--split", default="test", choices=corpus_mod.SPLITS)
    p.add_argument("corpus_dir")
    p.add_argument("enhanced_dir")
    p.add_argument("out_csv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("distortion-profile", help="per-frequency log-spectral error profile")
    _add_common(p, seed=False)
    p.add_argument("--split", default="test", choices=corpus_mod.SPLITS)
    p.add_argument("corpus_dir")
    p.add_argument("enhanced_dir")
    p.add_argument("out_csv")
    p.set_defaults(func=cmd_distortion)

    p = sub.add_parser("dump-defaults", help="print the default configuration")
    p.set_defaults(func=cmd_dump_defaults)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecJointError, OSError) as exc:
        log.error("error: %s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
