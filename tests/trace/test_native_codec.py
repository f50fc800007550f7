"""Tests for the JIT-built C codec kernel (repro.trace._native_codec).

The kernel is a pure accelerator: every observable behavior must be
identical to the numpy codec, and every failure mode must fall back to
it.  When no compiler is present in the environment the parity tests
skip — the fallback test still runs, because fallback is exactly what
that environment exercises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace import _native_codec as native_codec
from repro.trace.codec import CodecError, decode_column, encode_column

I64 = np.iinfo(np.int64)
EDGE = np.array([I64.min, I64.max, 0, -1, 1, 127, 128, -128], dtype=np.int64)

needs_kernel = pytest.mark.skipif(
    native_codec.kernel() is None,
    reason="no C compiler / native disabled; numpy fallback covered elsewhere",
)


@pytest.fixture()
def forced_numpy(monkeypatch):
    """Environment where the kernel reports unavailable."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    yield
    # monkeypatch restores the env; kernel() re-fingerprints on next call.


@needs_kernel
@pytest.mark.parametrize("encoding", ["raw", "delta"])
def test_kernel_matches_numpy_codec(encoding, monkeypatch):
    rng = np.random.default_rng(91)
    cases = [
        EDGE,
        rng.integers(I64.min, I64.max, 257),
        np.cumsum(rng.integers(0, 40, 4096)).astype(np.int64),
        np.zeros(1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    ]
    for values in cases:
        payload = encode_column(values, encoding)
        via_kernel = decode_column(payload, len(values), encoding)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        via_numpy = decode_column(payload, len(values), encoding)
        monkeypatch.delenv("REPRO_NATIVE")
        assert np.array_equal(via_kernel, via_numpy)
        assert np.array_equal(via_kernel, values)


@needs_kernel
def test_kernel_writes_into_preallocated_slice():
    values = np.arange(-50, 50, dtype=np.int64)
    payload = encode_column(values, "delta")
    backing = np.full(300, 7, dtype=np.int64)
    out = backing[100:200]
    got = decode_column(payload, 100, "delta", out=out)
    assert got is out
    assert np.array_equal(backing[100:200], values)
    assert (backing[:100] == 7).all() and (backing[200:] == 7).all()


@needs_kernel
@pytest.mark.parametrize(
    "payload, rows, match",
    [
        (b"\x80", 1, "holds 0 value"),            # dangling continuation
        (b"\x80" * 11 + b"\x01", 1, "overlong"),  # 12-byte varint
        (b"\x01\x01", 1, "holds 2 value"),        # too many values
        (b"\x01\x80", 1, "holds 0 value|final value"),  # trailing cont byte
    ],
)
def test_malformed_payloads_raise_canonical_errors(payload, rows, match):
    """Kernel failure statuses re-run the numpy codec for the message."""
    with pytest.raises(CodecError, match=match):
        decode_column(payload, rows, "raw")


def test_env_gate_disables_kernel(forced_numpy):
    assert native_codec.kernel() is None
    # The numpy path still round-trips (and honors out=).
    payload = encode_column(EDGE, "delta")
    out = np.empty(len(EDGE), dtype=np.int64)
    got = decode_column(payload, len(EDGE), "delta", out=out)
    assert got is out
    assert np.array_equal(out, EDGE)


def test_decode_into_reports_malformed_as_fallback():
    """decode_into never raises on damage; it defers to the numpy codec."""
    out = np.empty(1, dtype=np.int64)
    assert native_codec.decode_into(b"\x80", 1, "raw", out) is False


def test_source_digest_is_stable():
    assert native_codec.source_digest() == native_codec.source_digest()
    assert native_codec.CODEC_KERNEL_NAME in native_codec.codec_source()
