"""Property tests: the v3 column codecs and chunk format are lossless.

The chunked trace format stacks four transformations (delta, zigzag,
varint, zlib/zstd) whose failure mode is silent data change — exactly
what a compressed trace must never do.  Everything here is adversarial
about the int64 edges: ``NONE_SENTINEL`` (int64 min, the columnar
``None``), ``OPTIONAL_MIN``/``OPTIONAL_MAX``, sign flips between
neighboring values (worst case for wrapping deltas), empty and
single-value chunks, plus truncation-recovery parity with the v2
semantics (longest complete *chunk* prefix instead of longest complete
row prefix).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import Executor
from repro.instrument.plan import PLAN_FULL
from repro.trace import _native_codec, codec
from repro.trace.columnar import (
    NONE_SENTINEL,
    OPTIONAL_MAX,
    OPTIONAL_MIN,
)
from repro.trace.io import TruncatedTraceError, read_trace, write_trace
from repro.trace.trace import TraceError

from tests.conftest import build_toy_doacross

MEASURED = Executor(seed=23).run(build_toy_doacross(trips=18), PLAN_FULL).trace

#: Every int64, with the reserved/boundary values oversampled.
int64s = st.one_of(
    st.sampled_from([
        0, 1, -1, NONE_SENTINEL, OPTIONAL_MIN, OPTIONAL_MAX,
        OPTIONAL_MAX - 1, 2**32, -(2**32), 127, 128, -128,
    ]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
int64_lists = st.lists(int64s, max_size=200)


def _arr(values):
    return np.array(values, dtype=np.int64)


# ------------------------------------------------------------ stage codecs
@given(int64_lists)
def test_zigzag_roundtrip(values):
    arr = _arr(values)
    assert np.array_equal(codec.zigzag_decode(codec.zigzag_encode(arr)), arr)


@given(int64_lists)
def test_delta_roundtrip(values):
    arr = _arr(values)
    assert np.array_equal(codec.delta_decode(codec.delta_encode(arr)), arr)


@given(int64_lists)
def test_varint_roundtrip(values):
    u = codec.zigzag_encode(_arr(values))
    assert np.array_equal(codec.varint_decode(codec.varint_encode(u), len(u)), u)


@given(int64_lists, st.sampled_from(["delta", "raw"]))
def test_column_codec_roundtrip(values, encoding):
    arr = _arr(values)
    payload = codec.encode_column(arr, encoding)
    assert np.array_equal(codec.decode_column(payload, len(arr), encoding), arr)


@given(int64_lists, st.sampled_from(["zlib", "none"]),
       st.integers(min_value=1, max_value=9))
def test_compressed_column_roundtrip(values, compressor, level):
    arr = _arr(values)
    blob = codec.compress(codec.encode_column(arr, "delta"), compressor, level)
    out = codec.decode_column(codec.decompress(blob, compressor), len(arr), "delta")
    assert np.array_equal(out, arr)


def test_zstd_roundtrip_when_available():
    if not codec.HAVE_ZSTD:
        pytest.skip("zstandard not installed")
    arr = _arr([NONE_SENTINEL, 0, OPTIONAL_MAX])
    blob = codec.compress(codec.encode_column(arr, "raw"), "zstd")
    assert np.array_equal(
        codec.decode_column(codec.decompress(blob, "zstd"), len(arr), "raw"),
        arr,
    )


# ------------------------------------------------------- malformed payloads
@given(st.binary(max_size=64))
def test_varint_decode_never_misreports_count(buf):
    """Arbitrary bytes either decode to the requested count or raise."""
    try:
        out = codec.varint_decode(buf, 5)
    except codec.CodecError:
        return
    assert len(out) == 5


def test_varint_trailing_bytes_rejected():
    good = codec.varint_encode(np.array([1, 2], dtype=np.uint64))
    with pytest.raises(codec.CodecError):
        codec.varint_decode(good + b"\x01", 2)
    with pytest.raises(codec.CodecError):
        codec.varint_decode(good, 1)
    with pytest.raises(codec.CodecError):
        codec.varint_decode(b"", 1)


def test_overlong_varint_rejected():
    with pytest.raises(codec.CodecError):
        codec.varint_decode(b"\x80" * 11 + b"\x01", 1)


def test_corrupt_zlib_payload_is_codec_error():
    with pytest.raises(codec.CodecError):
        codec.decompress(b"this is not zlib", "zlib")


# ------------------------------------------------- native kernel differential
@pytest.mark.skipif(
    _native_codec.kernel() is None,
    reason="no C compiler available; numpy codec is the only path",
)
@given(st.binary(max_size=128), st.integers(min_value=0, max_value=12),
       st.sampled_from(["raw", "delta"]))
def test_native_kernel_agrees_with_numpy_on_arbitrary_bytes(buf, rows, encoding):
    """The C kernel and the numpy codec accept/reject/decode identically.

    ``decode_into`` returning False covers both "kernel rejected" and a
    decode the numpy path must then also reject; when it returns True the
    numpy path must produce the same values.
    """
    out = np.empty(rows, dtype=np.int64)
    accepted = _native_codec.decode_into(buf, rows, encoding, out)
    try:
        u = codec.varint_decode(buf, rows)
    except codec.CodecError:
        assert not accepted
        return
    sign = u & np.uint64(1)
    u >>= np.uint64(1)
    u ^= np.uint64(0) - sign
    staged = u.view(np.int64)
    if encoding == "delta":
        staged = codec.delta_decode(staged)
    assert accepted  # numpy accepted, so the kernel must have too
    assert np.array_equal(out, staged)


# -------------------------------------------------------------- whole files
chunk_sizes = st.sampled_from([1, 3, 17, 64, 100_000])


@settings(max_examples=25, deadline=None)
@given(chunk_sizes, st.sampled_from(["zlib", "none"]))
def test_v3_file_roundtrip_any_chunking(tmp_path_factory, chunk_events, compressor):
    path = tmp_path_factory.mktemp("v3") / "t.rpt"
    write_trace(MEASURED, path, format="v3",
                chunk_events=chunk_events, codec=compressor)
    back = read_trace(path)
    assert back.events == MEASURED.events
    assert back.meta == MEASURED.meta


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_v3_truncation_parity_with_v2_semantics(tmp_path_factory, data):
    """Any prefix of a v3 file behaves like a truncated v2/JSONL trace.

    Cutting the file at an arbitrary byte must either load completely
    (nothing actually lost) or raise :class:`TruncatedTraceError` and,
    under ``tolerate_truncation``, recover an event-exact prefix that is
    a whole number of chunks — possibly all of them, when only the
    footer/trailer was lost — never garbage, and never a plain
    :class:`TraceError` for a clean shortfall past the header.
    """
    tmp = tmp_path_factory.mktemp("trunc")
    path = tmp / "t.rpt"
    chunk_events = data.draw(st.sampled_from([5, 32, 1000]))
    write_trace(MEASURED, path, format="v3", chunk_events=chunk_events)
    raw = path.read_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    clipped = tmp / "clipped.rpt"
    clipped.write_bytes(raw[:cut])

    import struct

    header_end = 16 + struct.unpack("<Q", raw[8:16])[0]
    if cut < 8:  # not even a magic: unrecognizable, not truncated
        with pytest.raises(TraceError):
            read_trace(clipped)
        return
    try:
        full = read_trace(clipped)
    except TruncatedTraceError:
        back = read_trace(clipped, tolerate_truncation=True)
        assert back.meta.get("truncated") is True
        k = len(back)
        assert 0 <= k <= len(MEASURED)
        assert k == len(MEASURED) or k % chunk_events == 0
        assert back.events == MEASURED.events[:k]
    except TraceError:
        # A cut inside the header itself leaves nothing to recover (no
        # column names, no string tables); that is the only clean prefix
        # allowed to raise the generic error — same rule as v2.
        assert cut < header_end
    else:
        assert full.events == MEASURED.events
