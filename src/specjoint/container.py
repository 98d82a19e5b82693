"""Flat binary container for feature matrices.

Layout: magic "SJFM", version u32, kind u8, n_frames u32, dims u32, then
row-major little-endian f32 payload. Normalization statistics reuse the same
container as two rows (mean, variance).
"""

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .features import FeatureKind, FeatureMatrix

MAGIC = b"SJFM"
VERSION = 1

_HEADER = struct.Struct("<4sIBII")


def write_features(path: str | Path, features: FeatureMatrix) -> None:
    """Serialize a feature matrix; payload is stored as f32."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = np.ascontiguousarray(features.data, dtype="<f4")
    header = _HEADER.pack(MAGIC, VERSION, int(features.kind), features.n_frames, features.dims)
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(data)


def _unpack_header(raw: bytes, path) -> tuple[FeatureKind, int, int]:
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated container")
    magic, version, kind, n_frames, dims = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    if kind not in {k.value for k in FeatureKind}:
        raise FormatError(f"{path}: unknown feature kind {kind}")
    return FeatureKind(kind), n_frames, dims


def read_shape(path: str | Path) -> tuple[int, int]:
    """(n_frames, dims) from a container's header, without reading its payload."""
    with open(path, "rb") as handle:
        return _unpack_header(handle.read(_HEADER.size), path)[1:]


def read_features(path: str | Path) -> FeatureMatrix:
    """Read a feature matrix written by write_features()."""
    raw = Path(path).read_bytes()
    kind, n_frames, dims = _unpack_header(raw, path)
    expected = _HEADER.size + 4 * n_frames * dims
    if len(raw) != expected:
        raise FormatError(f"{path}: payload size {len(raw)} != expected {expected}")
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(n_frames, dims)
    return FeatureMatrix(data.astype(np.float64), kind)
