import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specjoint import FeatureKind, FeatureMatrix, FormatError, read_features, write_features


@pytest.mark.parametrize("kind", list(FeatureKind))
def test_roundtrip_all_kinds(tmp_path, rng, kind):
    data = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "f.sjfm"
    write_features(path, FeatureMatrix(data, kind))
    back = read_features(path)
    assert back.kind == kind
    assert back.n_frames == 7 and back.dims == 5
    assert np.array_equal(back.data, data)


def test_payload_is_f32(tmp_path):
    # Values beyond f32 precision are rounded on write; the read-back value
    # is the f32 representation, not the original f64.
    value = 1.0 + 1e-12
    path = tmp_path / "f.sjfm"
    write_features(path, FeatureMatrix(np.array([[value]]), FeatureKind.LPS))
    back = read_features(path)
    assert back.data[0, 0] != value
    assert back.data[0, 0] == np.float32(value)


def test_header_layout(tmp_path):
    path = tmp_path / "f.sjfm"
    write_features(path, FeatureMatrix(np.zeros((2, 3)), FeatureKind.MFCC))
    blob = path.read_bytes()
    magic, version, kind, n_frames, dims = struct.unpack("<4sIBII", blob[:17])
    assert magic == b"SJFM"
    assert version == 1
    assert kind == int(FeatureKind.MFCC)
    assert (n_frames, dims) == (2, 3)
    assert len(blob) == 17 + 2 * 3 * 4


def test_bad_magic(tmp_path):
    path = tmp_path / "f.sjfm"
    write_features(path, FeatureMatrix(np.zeros((1, 1)), FeatureKind.LPS))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="bad magic"):
        read_features(path)


def test_bad_version(tmp_path):
    path = tmp_path / "f.sjfm"
    write_features(path, FeatureMatrix(np.zeros((1, 1)), FeatureKind.LPS))
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        read_features(path)


def test_bad_kind(tmp_path):
    path = tmp_path / "f.sjfm"
    write_features(path, FeatureMatrix(np.zeros((1, 1)), FeatureKind.LPS))
    blob = bytearray(path.read_bytes())
    blob[8] = 77
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="unknown feature kind 77"):
        read_features(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "f.sjfm"
    write_features(path, FeatureMatrix(np.zeros((4, 4)), FeatureKind.IBM))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError, match="payload size"):
        read_features(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "f.sjfm"
    path.write_bytes(b"SJFM\x01")
    with pytest.raises(FormatError, match="truncated"):
        read_features(path)


_MATRICES = st.builds(
    lambda kind, n_frames, dims, seed: FeatureMatrix(
        np.random.default_rng(seed).standard_normal((n_frames, dims)).astype(np.float32), kind
    ),
    st.sampled_from(list(FeatureKind)),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 2**16),
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100)
@given(matrix=_MATRICES, cut=st.floats(0.0, 1.0, exclude_max=True))
def test_every_strict_prefix_is_rejected(scratch, matrix, cut):
    path = scratch / "cut.sjfm"
    write_features(path, matrix)
    blob = path.read_bytes()
    path.write_bytes(blob[: int(cut * len(blob))])
    with pytest.raises(FormatError) as err:
        read_features(path)
    message = str(err.value)
    assert message.startswith(f"{path}: ") and "\n" not in message
    assert "truncated container" in message or "payload size" in message


@settings(max_examples=50)
@given(matrix=_MATRICES, extra=st.binary(min_size=1, max_size=64))
def test_appended_bytes_are_rejected(scratch, matrix, extra):
    path = scratch / "long.sjfm"
    write_features(path, matrix)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(FormatError) as err:
        read_features(path)
    assert str(err.value) == f"{path}: payload size {size + len(extra)} != expected {size}"


@settings(max_examples=50)
@given(matrix=_MATRICES)
def test_untouched_file_round_trips(scratch, matrix):
    first, second = scratch / "first.sjfm", scratch / "second.sjfm"
    write_features(first, matrix)
    back = read_features(first)
    write_features(second, back)
    assert first.read_bytes() == second.read_bytes()
    assert back.kind == matrix.kind
    assert back.data.tobytes() == matrix.data.tobytes()
