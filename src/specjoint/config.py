"""Run configuration: a flat key=value file mirroring every tunable.

Each field of RunConfig carries its file key; the field's type picks the
parser and formatter, and its default is read from the type or function that
consumes the value, so the Python API and the CLI build the same run.
Parsing, validation and default dumping all read that one schema, so keys,
types and defaults cannot drift apart. Unknown keys are rejected.
"""

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .corpus import (
    DEFAULT_NOISE_AWARE_FRAMES,
    DEFAULT_SNR_GRID,
    DEFAULT_TEST_FRACTION,
    DEFAULT_VAL_FRACTION,
    format_float,
)
from .dsp import DEFAULT_SAMPLE_RATE, StftConfig
from .enhance import PostProcessConfig
from .errors import ConfigError
from .features import (
    DEFAULT_CONTEXT,
    DEFAULT_F_HIGH,
    DEFAULT_F_LOW,
    DEFAULT_N_MELS,
    IbmConfig,
    MelBank,
    mel_bank,
)
from .network import DEFAULT_HIDDEN_LAYERS, DEFAULT_HIDDEN_UNITS, TrainConfig


def _key(key: str, default):
    """A RunConfig field read from and dumped under `key` in the file."""
    return dataclasses.field(default=default, metadata={"key": key})


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


def _parse_float(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    if not text.strip():
        raise ValueError("empty list")
    return tuple(_parse_float(part) for part in text.split(","))


def _format_bool(value: bool) -> str:
    return "on" if value else "off"


def _format_floats(value: tuple[float, ...]) -> str:
    return ",".join(format_float(v) for v in value)


# field type -> (parser, formatter)
_CODECS = {
    int: (int, str),
    float: (_parse_float, format_float),
    str: (str, str),
    bool: (_parse_bool, _format_bool),
    tuple[float, ...]: (_parse_floats, _format_floats),
}


@dataclass(frozen=True)
class RunConfig:
    sample_rate: int = _key("sample_rate", DEFAULT_SAMPLE_RATE)
    stft_frame_len: int = _key("stft.frame_len", StftConfig.frame_len)
    stft_hop: int = _key("stft.hop", StftConfig.hop)
    stft_fft_size: int = _key("stft.fft_size", StftConfig.fft_size)
    stft_window: str = _key("stft.window", StftConfig.window)
    mel_filters: int = _key("mel.filters", DEFAULT_N_MELS)
    mel_f_low: float = _key("mel.f_low", DEFAULT_F_LOW)
    mel_f_high: float = _key("mel.f_high", DEFAULT_F_HIGH)
    ibm_threshold_db: float = _key("ibm.threshold_db", IbmConfig.local_snr_threshold)
    context_tau: int = _key("context.tau", DEFAULT_CONTEXT)
    noise_aware_frames: int = _key("noise_aware.frames", DEFAULT_NOISE_AWARE_FRAMES)
    snr_grid: tuple[float, ...] = _key("snr.grid", DEFAULT_SNR_GRID)
    val_fraction: float = _key("split.val_fraction", DEFAULT_VAL_FRACTION)
    test_fraction: float = _key("split.test_fraction", DEFAULT_TEST_FRACTION)
    variant: str = _key("train.variant", "baseline")
    epochs: int = _key("train.epochs", TrainConfig.epochs)
    batch_size: int = _key("train.batch_size", TrainConfig.batch_size)
    learning_rate: float = _key("train.learning_rate", TrainConfig.learning_rate)
    lr_final_fraction: float = _key("train.lr_final_fraction", TrainConfig.lr_final_fraction)
    momentum: float = _key("train.momentum", TrainConfig.momentum)
    dropout: float = _key("train.dropout", TrainConfig.dropout)
    alpha: float = _key("train.alpha", TrainConfig.alpha)
    beta: float = _key("train.beta", TrainConfig.beta)
    hidden_units: int = _key("train.hidden_units", DEFAULT_HIDDEN_UNITS)
    hidden_layers: int = _key("train.hidden_layers", DEFAULT_HIDDEN_LAYERS)
    post_gamma: float = _key("post.gamma", PostProcessConfig.gamma)
    post_epsilon: float = _key("post.epsilon", PostProcessConfig.epsilon)
    post_enabled: bool = _key("post.enabled", PostProcessConfig.enabled)
    seed: int = _key("seed", 0)

    def __post_init__(self):
        # Values below these end a command deep inside numpy or the training loop.
        for key, least in (("seed", 0), ("context.tau", 0), ("noise_aware.frames", 1)):
            value = getattr(self, _SCHEMA[key][0])
            if value < least:
                raise ConfigError(f"{key} must be >= {least}, got {value}")

    # --- derived builders -------------------------------------------------

    @property
    def lps_dims(self) -> int:
        return self.stft_fft_size // 2 + 1

    @property
    def mfcc_dims(self) -> int:
        return self.mel_filters + 1

    def stft_config(self) -> StftConfig:
        return StftConfig(self.stft_frame_len, self.stft_hop, self.stft_window, self.stft_fft_size)

    def bank(self) -> MelBank:
        return mel_bank(
            self.mel_filters, self.stft_fft_size, self.sample_rate, self.mel_f_low, self.mel_f_high
        )

    def ibm_config(self) -> IbmConfig:
        return IbmConfig(self.ibm_threshold_db)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(TrainConfig)}
        )

    def post_config(self) -> PostProcessConfig:
        return PostProcessConfig(self.post_gamma, self.post_epsilon, self.post_enabled)

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    # --- file format --------------------------------------------------------

    def dump(self) -> str:
        """All keys with their current values, in schema order."""
        lines = []
        for key, (attr, _, formatter) in _SCHEMA.items():
            lines.append(f"{key} = {formatter(getattr(self, attr))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "RunConfig":
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SCHEMA:
                raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
            attr, parser, _ = _SCHEMA[key]
            if attr in values:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            try:
                values[attr] = parser(value)
            except ValueError as exc:
                raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
        try:
            return cls(**values)
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        return cls.from_text(path.read_text(encoding="utf-8"), source=str(path))


# file key -> (attribute, parser, formatter), in field order
_SCHEMA: dict[str, tuple[str, object, object]] = {
    f.metadata["key"]: (f.name, *_CODECS[f.type]) for f in dataclasses.fields(RunConfig)
}
