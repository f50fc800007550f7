"""Column codecs for the chunked packed trace format (``.rpt`` v3).

One column chunk travels through a three-stage pipeline::

    int64 values --delta?--> int64 deltas --zigzag--> uint64 --varint--> bytes
                                                               --compress-->

* **delta** (monotone-ish columns: ``time``/``seq``): wrapping uint64
  differences, first value kept absolute.  Deltas in these traces are
  tiny and highly repetitive, which is what makes the later stages pay.
* **zigzag** maps signed deltas to small unsigned ints
  (``0,-1,1,-2,... -> 0,1,2,3,...``) so varint length tracks magnitude,
  not sign.
* **varint** is LEB128: 7 value bits per byte, high bit = continuation.
  Both directions are vectorized over numpy byte arrays — at most ten
  masked passes, one per varint byte position, never a per-value Python
  loop.
* **compress** is stdlib ``zlib`` by default; ``zstd`` is used when the
  ``zstandard`` package is importable, ``none`` stores the varint bytes
  raw.  The codec name is recorded in the file header, so readers never
  guess.

All arithmetic is modular over uint64 (numpy wraps unsigned silently),
so every int64 value round-trips exactly — including ``NONE_SENTINEL``
(int64 min) and both ``OPTIONAL_MIN``/``OPTIONAL_MAX`` extremes; the
hypothesis suite in ``tests/property/test_codec_roundtrip.py`` pins this.
"""

from __future__ import annotations

import zlib

from repro.trace import _native_codec, columnar as _columnar
from repro.trace.trace import TraceError

try:  # pragma: no cover - optional accelerator, absent in the base image
    import zstandard as _zstandard

    HAVE_ZSTD = True
except ImportError:  # pragma: no cover - the stdlib path is the default
    _zstandard = None  # type: ignore[assignment]
    HAVE_ZSTD = False

#: Compression codecs accepted by :func:`compress`/:func:`decompress`.
COMPRESSORS = ("zlib", "zstd", "none")

#: Per-column encodings.  ``delta`` for monotone-ish columns, ``raw``
#: where values are small already; the writer measures both per chunk
#: (:func:`choose_encoding`) except for the always-delta columns below.
ENCODINGS = ("delta", "raw")

#: Columns the v3 writer always delta-encodes (monotone by construction).
DELTA_COLUMNS = frozenset({"time", "seq"})

#: Default zlib/zstd compression level for chunk payloads.
DEFAULT_LEVEL = 6


class CodecError(TraceError):
    """A chunk payload could not be decoded (damage, not truncation)."""


def default_compressor() -> str:
    """``zstd`` when the optional package is importable, else ``zlib``."""
    return "zstd" if HAVE_ZSTD else "zlib"


# ----------------------------------------------------------------- zigzag
def zigzag_encode(values):
    """int64 array -> uint64 array, small magnitudes -> small values."""
    np = _columnar.np
    v = np.ascontiguousarray(values, dtype=np.int64)
    return (v.view(np.uint64) << np.uint64(1)) ^ (v >> np.int64(63)).view(
        np.uint64
    )


def zigzag_decode(encoded):
    """Inverse of :func:`zigzag_encode` (uint64 array -> int64 array)."""
    np = _columnar.np
    u = np.ascontiguousarray(encoded, dtype=np.uint64)
    return ((u >> np.uint64(1)) ^ (np.uint64(0) - (u & np.uint64(1)))).view(
        np.int64
    )


# ------------------------------------------------------------------ delta
def delta_encode(values):
    """int64 array -> int64 deltas (first value absolute, wrapping).

    Differences are taken modulo 2**64, so consecutive values anywhere in
    the int64 range (including a jump from ``OPTIONAL_MAX`` down to
    ``NONE_SENTINEL``) produce a well-defined delta that
    :func:`delta_decode`'s wrapping cumulative sum undoes exactly.
    """
    np = _columnar.np
    v = np.ascontiguousarray(values, dtype=np.int64)
    if len(v) == 0:
        return v
    u = v.view(np.uint64)
    out = np.empty(len(v), dtype=np.uint64)
    out[0] = u[0]
    np.subtract(u[1:], u[:-1], out=out[1:])
    return out.view(np.int64)


def delta_decode(deltas):
    """Inverse of :func:`delta_encode` (wrapping cumulative sum)."""
    np = _columnar.np
    d = np.ascontiguousarray(deltas, dtype=np.int64)
    if len(d) == 0:
        return d
    return np.cumsum(d.view(np.uint64), dtype=np.uint64).view(np.int64)


# ----------------------------------------------------------------- varint
def varint_encode(values) -> bytes:
    """uint64 array -> LEB128 byte stream (vectorized).

    Byte lengths come from nine threshold comparisons; the payload is
    then filled position-by-position (at most ten masked scatter passes).
    """
    np = _columnar.np
    u = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(u)
    if n == 0:
        return b""
    nbytes = np.ones(n, dtype=np.int64)
    for k in range(1, 10):
        nbytes += u >= np.uint64(1 << (7 * k))
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    seven_f = np.uint64(0x7F)
    for j in range(10):
        mask = nbytes > j
        if not mask.any():
            break
        byte = ((u[mask] >> np.uint64(7 * j)) & seven_f).astype(np.uint8)
        cont = (nbytes[mask] - 1 > j).astype(np.uint8) << np.uint8(7)
        out[starts[mask] + j] = byte | cont
    return out.tobytes()


def varint_decode(buf: bytes, count: int):
    """LEB128 byte stream -> uint64 array of exactly ``count`` values.

    Vectorized: terminal bytes (high bit clear) delimit values, then one
    masked gather pass per byte position accumulates the payload bits.
    Streams whose varints are all one byte — the dominant case for
    delta-encoded trace columns — decode in a single ``astype``; only the
    values still carrying a continuation bit stay in each later pass.
    Anything malformed — wrong value count, trailing bytes, an overlong
    varint — raises :class:`CodecError`.
    """
    np = _columnar.np
    b = np.frombuffer(buf, dtype=np.uint8)
    if count == 0:
        if len(b):
            raise CodecError(f"varint stream has {len(b)} trailing byte(s)")
        return np.empty(0, dtype=np.uint64)
    term = b < 0x80
    n_term = int(term.sum())
    if n_term != count:
        raise CodecError(
            f"varint stream holds {n_term} value(s), expected {count}"
        )
    if n_term == len(b):  # all one-byte varints: the bytes ARE the values
        return b.astype(np.uint64)
    extra = len(b) - count  # continuation bytes across the whole stream
    if extra <= 512:
        # Almost every varint is one byte (e.g. a delta column whose
        # first value is absolute): decode as one-byte values, then
        # reassemble the few multi-byte ones in a scalar loop.
        if term[-1] != True:  # noqa: E712 - numpy bool
            raise CodecError("varint stream has bytes after the final value")
        values = b[term].astype(np.uint64)
        cont = np.flatnonzero(~term).tolist()
        i = 0
        while i < len(cont):
            j = i
            while j + 1 < len(cont) and cont[j + 1] == cont[j] + 1:
                j += 1
            start, end = cont[i], cont[j] + 1  # bytes start..end, end terminal
            if end - start + 1 > 10:
                raise CodecError("overlong varint (more than 10 bytes)")
            v = 0
            for k, p in enumerate(range(start, end + 1)):
                v |= (int(b[p]) & 0x7F) << (7 * k)
            # A 10-byte varint can set bits past 63; wrap mod 2**64 like
            # the vectorized path (numpy shifts discard high bits).
            values[start - i] = v & 0xFFFFFFFFFFFFFFFF  # rank among terminals
            i = j + 1
        return values
    ends = np.flatnonzero(term)
    if int(ends[-1]) != len(b) - 1:
        raise CodecError("varint stream has bytes after the final value")
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    first = b[starts]
    values = (first & np.uint8(0x7F)).astype(np.uint64)
    active = np.flatnonzero(first >= 0x80)
    pos = starts[active] + 1
    seven_f = np.uint8(0x7F)
    shift = 7
    while len(active):
        if shift > 63:
            raise CodecError("overlong varint (more than 10 bytes)")
        byte = b[pos]
        values[active] |= (byte & seven_f).astype(np.uint64) << np.uint64(shift)
        cont = byte >= 0x80
        active = active[cont]
        pos = pos[cont] + 1
        shift += 7
    return values


# ----------------------------------------------------------- column codec
def varint_size(values) -> int:
    """Total LEB128 bytes the uint64 array would occupy (no encoding)."""
    np = _columnar.np
    u = np.ascontiguousarray(values, dtype=np.uint64)
    total = len(u)
    for k in range(1, 10):
        more = int((u >= np.uint64(1 << (7 * k))).sum())
        if not more:
            break
        total += more
    return total


def choose_encoding(values) -> str:
    """Smaller-footprint encoding (``delta`` vs ``raw``) for one chunk.

    The chunk descriptor records the choice per column, so the writer is
    free to measure: columns that look like ids or carry the
    ``NONE_SENTINEL`` cost 5-10 varint bytes per value raw but often
    collapse to one byte as deltas — and one-byte streams also take the
    fast decode path.  Ties go to ``raw`` (no cumsum on read).
    """
    if len(values) < 2:
        return "raw"
    raw_size = varint_size(zigzag_encode(values))
    delta_size = varint_size(zigzag_encode(delta_encode(values)))
    return "delta" if delta_size < raw_size else "raw"


def encode_column(values, encoding: str) -> bytes:
    """One int64 column chunk -> uncompressed varint payload."""
    if encoding == "delta":
        staged = delta_encode(values)
    elif encoding == "raw":
        staged = values
    else:
        raise ValueError(
            f"unknown column encoding {encoding!r}; expected one of {ENCODINGS}"
        )
    return varint_encode(zigzag_encode(staged))


def decode_column(payload: bytes, rows: int, encoding: str, out=None):
    """Inverse of :func:`encode_column`; returns an int64 array.

    ``out``, when given, must be a C-contiguous int64 array of exactly
    ``rows`` elements; the decoded column is written into it (and it is
    also the return value), which lets a chunked reader decode straight
    into a preallocated full-trace column with no per-chunk concatenate.
    When the JIT codec kernel is available the whole varint + zigzag +
    delta pipeline runs as one C pass over the payload.
    """
    np = _columnar.np
    if encoding not in ENCODINGS:
        raise ValueError(
            f"unknown column encoding {encoding!r}; expected one of {ENCODINGS}"
        )
    target = out if out is not None else np.empty(rows, dtype=np.int64)
    if _native_codec.decode_into(payload, rows, encoding, target):
        return target
    # Pure-numpy path (also the arbiter for malformed payloads: a kernel
    # failure status re-runs this to raise the canonical CodecError).
    u = varint_decode(payload, rows)
    # In-place zigzag decode: varint_decode always returns a fresh array.
    sign = u & np.uint64(1)
    u >>= np.uint64(1)
    u ^= np.uint64(0) - sign
    staged = u.view(np.int64)
    if encoding == "delta":
        staged = delta_decode(staged)
    if out is None:
        return staged
    np.copyto(out, staged)
    return out


# ------------------------------------------------------------ compression
def compress(data: bytes, codec: str, level: int = DEFAULT_LEVEL) -> bytes:
    """Compress one payload; an out-of-range ``level`` raises ValueError."""
    if codec == "zlib":
        try:
            return zlib.compress(data, level)
        except zlib.error as exc:
            raise ValueError(
                f"invalid zlib compression level {level!r}: {exc}"
            ) from exc
    if codec == "zstd":
        if not HAVE_ZSTD:
            raise CodecError("zstd codec requested but zstandard is not installed")
        return _zstandard.ZstdCompressor(level=level).compress(data)
    if codec == "none":
        return data
    raise ValueError(
        f"unknown compression codec {codec!r}; expected one of {COMPRESSORS}"
    )


def decompress(data: bytes, codec: str, size_hint: int = 0) -> bytes:
    """Undo :func:`compress`.  ``size_hint`` is an upper bound on the
    decompressed size (0 = unknown): passing it lets zlib allocate the
    output buffer once instead of geometrically growing it, which on a
    ~1 MB column payload removes two full extra copies of the output.
    """
    try:
        if codec == "zlib":
            if size_hint > 0:
                return zlib.decompress(data, bufsize=size_hint)
            return zlib.decompress(data)
        if codec == "zstd":
            if not HAVE_ZSTD:
                raise CodecError(
                    "trace was written with zstd but zstandard is not installed"
                )
            return _zstandard.ZstdDecompressor().decompress(data)
    except CodecError:
        raise
    except Exception as exc:  # zlib.error / ZstdError: damage, not truncation
        raise CodecError(f"corrupt {codec} chunk payload: {exc}") from exc
    if codec == "none":
        return data
    raise CodecError(
        f"unknown compression codec {codec!r}; expected one of {COMPRESSORS}"
    )
