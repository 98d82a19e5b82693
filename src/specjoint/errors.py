"""Exception types shared across the toolkit."""


class SpecJointError(Exception):
    """Base class for all toolkit errors."""


class AudioFormatError(SpecJointError, ValueError):
    """WAV file is not PCM-16 mono at the expected sample rate."""


class ConfigError(SpecJointError, ValueError):
    """Invalid configuration: bad key, bad value, or incompatible combination."""


class ScalingError(SpecJointError, ValueError):
    """Mixing cannot scale a silent clean or noise signal."""


class ShortSignalError(SpecJointError, ValueError):
    """A signal is shorter than one analysis frame."""


class MetricError(SpecJointError, ValueError):
    """Metric is undefined for the given inputs (e.g. all-silent reference)."""


class FormatError(SpecJointError, ValueError):
    """A feature container or model checkpoint is truncated or malformed."""


class TrainingDivergedError(SpecJointError, RuntimeError):
    """Training produced a non-finite loss and was aborted; history holds the finished epochs."""

    def __init__(self, message: str, history: list):
        super().__init__(message)
        self.history = history
