"""Packed binary trace files (``.rpt``): v3 is written, v2 and v3 are read.

v2 layout (``RPTRACE2``, read-only)::

    bytes 0..7    magic  b"RPTRACE2"
    bytes 8..15   little-endian uint64: JSON header length H
    bytes 16..16+H  UTF-8 JSON header:
                    {"format": "repro-trace", "version": 2,
                     "meta": {...}, "n_events": N,
                     "columns": [...], "sync_var_table": [...],
                     "label_table": [...]}
    then, per column named in "columns", N little-endian int64 values.

The v2 column buffers are the :class:`~repro.trace.columnar.TraceColumns`
arrays verbatim, so loading is ``np.frombuffer`` per column.  Existing v2
files stay readable; nothing writes them any more.

v3 layout (``RPTRACE3``) replaces the flat buffers with fixed-size event
chunks whose columns are delta/varint/zlib-encoded (see
:mod:`repro.trace.codec`)::

    magic b"RPTRACE3"
    <Q header_len> <header JSON>      # + "chunk_events", "codec"
    per chunk:
        b"CHNK" <Q blob_len> blob
        blob = <I desc_len> <desc JSON> <column payloads...>
        desc = {"rows": R, "cols": {name: {"enc": "delta"|"raw",
                "nbytes": B, "min": lo, "max": hi}}}
    footer:
        b"FOOT" <Q footer_len> <footer JSON>   # chunk index (offsets,
                                               # rows, per-column min/max)
        <Q footer_block_len> b"RPT3FTR\\0"     # fixed 16-byte trailer

Each chunk is self-describing, so a sequential reader (and the
truncation-recovery path) never needs the footer; the footer lets
:class:`~repro.trace.stream.ChunkReader` seek straight to any chunk — or
skip it entirely on a min/max predicate — without touching the rest of
the file.

v3 writes are atomic exactly like JSONL writes: data goes
to a ``.tmp`` sibling that is fsynced and renamed over the destination.
A short file (external damage; our own writes can't produce one) raises
:class:`~repro.trace.io.TruncatedTraceError`; ``tolerate_truncation=True``
recovers the longest prefix of complete rows (v2) / complete chunks (v3)
present.  Mid-file damage that is not a clean shortfall — an undecodable
chunk payload, a bad marker — is corruption and always raises
:class:`~repro.trace.trace.TraceError`.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import IO, Optional, Union

from repro.obs import core as obs
from repro.trace import codec as _codec
from repro.trace import columnar as _columnar
from repro.trace.columnar import COLUMN_NAMES, TraceColumns
from repro.trace.trace import Trace, TraceError

MAGIC = b"RPTRACE2"
MAGIC_V3 = b"RPTRACE3"
FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 2
FORMAT_VERSION_V3 = 3

CHUNK_MARK = b"CHNK"
FOOTER_MARK = b"FOOT"
TRAILER_MAGIC = b"RPT3FTR\0"

#: v3 default chunk size in events (64Ki).
DEFAULT_CHUNK_EVENTS = 64 * 1024

#: Columns whose ``None`` values are stored as ``NONE_SENTINEL`` (int64
#: min).  Their chunk statistics must not be computed over raw values —
#: the sentinel would poison ``min`` and predicate pushdown could never
#: prune on them — so the writer records the non-sentinel ``min``/``max``
#: plus a ``has_none`` flag (both ``None`` when every value is the
#: sentinel).  Files written before this flag existed carry raw,
#: possibly sentinel-poisoned bounds; readers detect that by the missing
#: ``has_none`` key and treat those bounds as unusable.
OPTIONAL_STAT_COLUMNS = ("iteration", "sync_index")

_ITEMSIZE = 8  # int64


def write_trace_binary(
    trace: Trace,
    path: Union[str, Path, IO[bytes]],
    *,
    chunk_events: Optional[int] = None,
    codec: Optional[str] = None,
    level: Optional[int] = None,
) -> None:
    """Write ``trace`` as a packed v3 ``.rpt`` file (path or binary handle).

    ``chunk_events``/``codec``/``level`` tune the chunk layout; out-of-range
    values raise :class:`ValueError` before anything is written.
    """
    if hasattr(path, "write"):
        _write_stream_v3(
            trace, path, chunk_events=chunk_events, codec=codec, level=level
        )
        return
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            _write_stream_v3(
                trace, fh, chunk_events=chunk_events, codec=codec, level=level
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    obs.count("io.bytes_written", target.stat().st_size)


# ------------------------------------------------------------------ v3 write
def _column_stats(name: str, values) -> dict:
    """Chunk-descriptor ``min``/``max`` stats for one column slice.

    Optional columns get sentinel-free bounds plus ``has_none`` (see
    :data:`OPTIONAL_STAT_COLUMNS`); all other columns keep the plain
    raw-value bounds.
    """
    if name not in OPTIONAL_STAT_COLUMNS:
        return {"min": int(values.min()), "max": int(values.max())}
    present = values != _columnar.NONE_SENTINEL
    if present.all():
        lo, hi = int(values.min()), int(values.max())
        return {"min": lo, "max": hi, "has_none": False}
    if not present.any():
        return {"min": None, "max": None, "has_none": True}
    kept = values[present]
    return {"min": int(kept.min()), "max": int(kept.max()), "has_none": True}


def _write_stream_v3(
    trace: Trace,
    fh: IO[bytes],
    *,
    chunk_events: Optional[int] = None,
    codec: Optional[str] = None,
    level: Optional[int] = None,
) -> None:
    chunk_events = DEFAULT_CHUNK_EVENTS if chunk_events is None else chunk_events
    if chunk_events < 1:
        raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
    codec = codec if codec else _codec.default_compressor()
    if codec not in _codec.COMPRESSORS:
        raise ValueError(
            f"unknown compression codec {codec!r}; "
            f"expected one of {_codec.COMPRESSORS}"
        )
    level = _codec.DEFAULT_LEVEL if level is None else level
    _codec.compress(b"", codec, level)  # a bad level fails before any write
    cols = trace.columns
    n = len(cols)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION_V3,
        "meta": trace.meta,
        "n_events": n,
        "columns": list(COLUMN_NAMES),
        "chunk_events": chunk_events,
        "codec": {"pack": "varint", "compress": codec},
        "sync_var_table": list(cols.sync_var_table),
        "label_table": list(cols.label_table),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    fh.write(MAGIC_V3)
    fh.write(struct.pack("<Q", len(blob)))
    fh.write(blob)
    offset = len(MAGIC_V3) + 8 + len(blob)
    index = []
    for start in range(0, n, chunk_events):
        stop = min(start + chunk_events, n)
        with obs.span("trace.v3.encode_chunk", rows=stop - start):
            desc_cols = {}
            payloads = []
            for name in COLUMN_NAMES:
                values = getattr(cols, name)[start:stop]
                enc = (
                    "delta" if name in _codec.DELTA_COLUMNS
                    else _codec.choose_encoding(values)
                )
                payload = _codec.compress(
                    _codec.encode_column(values, enc), codec, level
                )
                desc_cols[name] = {
                    "enc": enc,
                    "nbytes": len(payload),
                    **_column_stats(name, values),
                }
                payloads.append(payload)
            desc = json.dumps(
                {"rows": stop - start, "cols": desc_cols}, sort_keys=True
            ).encode("utf-8")
            body = b"".join(payloads)
            blob_len = 4 + len(desc) + len(body)
            fh.write(CHUNK_MARK)
            fh.write(struct.pack("<Q", blob_len))
            fh.write(struct.pack("<I", len(desc)))
            fh.write(desc)
            fh.write(body)
        index.append({
            "offset": offset,
            "blob_len": blob_len,
            "rows": stop - start,
            "start_row": start,
            "cols": desc_cols,
        })
        offset += len(CHUNK_MARK) + 8 + blob_len
    footer = json.dumps(
        {"chunks": index, "n_events": n}, sort_keys=True
    ).encode("utf-8")
    fh.write(FOOTER_MARK)
    fh.write(struct.pack("<Q", len(footer)))
    fh.write(footer)
    footer_block_len = len(FOOTER_MARK) + 8 + len(footer)
    fh.write(struct.pack("<Q", footer_block_len))
    fh.write(TRAILER_MAGIC)


# ------------------------------------------------------------------- reads
def read_trace_binary(
    path: Union[str, Path, IO[bytes]], *, tolerate_truncation: bool = False
) -> Trace:
    """Read a packed ``.rpt`` trace (path or binary handle, v2 or v3)."""
    if hasattr(path, "read"):
        return _read_stream(path, tolerate_truncation)  # type: ignore[arg-type]
    size = None
    try:
        size = Path(path).stat().st_size
    except OSError:
        pass
    with open(path, "rb") as fh:
        trace = _read_stream(fh, tolerate_truncation)
    if size is not None:
        obs.count("io.bytes_read", size)
    return trace


def _read_stream(fh: IO[bytes], tolerate_truncation: bool) -> Trace:
    magic = fh.read(len(MAGIC))
    if magic == MAGIC:
        return _read_stream_v2(fh, tolerate_truncation)
    if magic == MAGIC_V3:
        return _read_stream_v3(fh, tolerate_truncation)
    raise TraceError(f"not a packed {FORMAT_NAME} file (magic={magic!r})")


#: Per-piece cap for reads whose length came off the wire.
_READ_STEP = 1 << 26


def _read_declared(fh: IO[bytes], length: int) -> bytes:
    """Read up to ``length`` bytes without trusting ``length``.

    Length fields in a corrupt file are arbitrary uint64s; handing one
    straight to ``fh.read`` raises OverflowError past ``sys.maxsize`` and
    below that tries to allocate the declared size up front.  Reading in
    bounded pieces makes an absurd length surface as an ordinary short
    read, which every caller already diagnoses.
    """
    if length <= _READ_STEP:
        return fh.read(length)
    parts = []
    remaining = length
    while remaining > 0:
        piece = fh.read(min(remaining, _READ_STEP))
        if not piece:
            break
        parts.append(piece)
        remaining -= len(piece)
    return b"".join(parts)


def _read_header(fh: IO[bytes], expect_version: int) -> dict:
    """Parse the JSON header following a just-consumed magic."""
    raw_len = fh.read(8)
    if len(raw_len) != 8:
        raise TraceError("truncated .rpt header length")
    (header_len,) = struct.unpack("<Q", raw_len)
    blob = _read_declared(fh, header_len)
    if len(blob) != header_len:
        raise TraceError("truncated .rpt header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(f"bad .rpt header: {exc}") from exc
    if header.get("format") != FORMAT_NAME:
        raise TraceError(
            f"not a {FORMAT_NAME} file (format={header.get('format')!r})"
        )
    if header.get("version") != expect_version:
        raise TraceError(
            f"unsupported packed trace version {header.get('version')!r}"
        )
    names = header.get("columns", list(COLUMN_NAMES))
    if set(names) != set(COLUMN_NAMES):
        raise TraceError(f"unexpected .rpt column set: {names}")
    return header


def _read_stream_v2(fh: IO[bytes], tolerate_truncation: bool) -> Trace:
    from repro.trace.io import TruncatedTraceError  # local: io imports us too

    np = _columnar.np
    header = _read_header(fh, FORMAT_VERSION)
    names = header.get("columns", list(COLUMN_NAMES))
    n = int(header.get("n_events", 0))
    meta = header.get("meta", {})

    payload = memoryview(_read_declared(fh, len(names) * n * _ITEMSIZE))
    arrays = {}
    complete = n  # rows recoverable from every column
    for i, name in enumerate(names):
        start = i * n * _ITEMSIZE
        chunk = payload[start: start + n * _ITEMSIZE]
        rows = len(chunk) // _ITEMSIZE
        complete = min(complete, rows)
        arrays[name] = np.frombuffer(
            chunk[: rows * _ITEMSIZE], dtype="<i8"
        ).astype(np.int64, copy=False)
    if complete < n:
        if not tolerate_truncation:
            raise TruncatedTraceError(
                f"truncated packed trace: header declares {n} events, "
                f"only {complete} complete rows present "
                "(pass tolerate_truncation=True to accept the prefix)",
                declared=n, parsed=complete, lineno=0,
            )
        arrays = {name: a[:complete] for name, a in arrays.items()}
        meta = dict(meta)
        meta["truncated"] = True
    columns = TraceColumns(
        sync_var_table=header.get("sync_var_table", []),
        label_table=header.get("label_table", []),
        **arrays,
    )
    return Trace.from_columns(columns, meta=meta)


# -------------------------------------------------------------- v3 chunks
def parse_chunk_desc(blob: bytes) -> tuple[dict, int]:
    """(desc dict, payload offset within blob) of one chunk blob."""
    if len(blob) < 4:
        raise TraceError("corrupt .rpt v3 chunk: blob shorter than its header")
    (desc_len,) = struct.unpack("<I", blob[:4])
    raw = blob[4: 4 + desc_len]
    if len(raw) != desc_len:
        raise TraceError("corrupt .rpt v3 chunk: descriptor overruns the blob")
    try:
        desc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(f"corrupt .rpt v3 chunk descriptor: {exc}") from exc
    if not isinstance(desc, dict) or "rows" not in desc or "cols" not in desc:
        raise TraceError("corrupt .rpt v3 chunk descriptor: missing fields")
    return desc, 4 + desc_len


def decode_chunk(
    blob: bytes,
    compressor: str,
    out: dict | None = None,
    start_row: int = 0,
    columns=None,
) -> dict:
    """One chunk blob -> {column name: int64 array} (plus ``"rows"``).

    With ``out`` (a dict of preallocated full-length int64 column arrays)
    the chunk is decoded in place at ``start_row``, the per-column arrays
    are omitted from the result, and no per-chunk allocations survive the
    call — the full reader uses this to skip the final concatenate.

    With ``columns`` (an iterable of column names) only those columns are
    decompressed and decoded; the rest are skipped by advancing past
    their payloads, which is what makes projected scans (query, slice,
    head-dump) cheap on wide chunks.  ``columns`` and ``out`` are
    mutually exclusive — the in-place path always fills every column.
    """
    desc, offset = parse_chunk_desc(blob)
    rows = int(desc["rows"])
    cols_desc = desc["cols"]
    arrays: dict = {"rows": rows}
    want = None if columns is None else frozenset(columns)
    if want is not None:
        if out is not None:
            raise ValueError("decode_chunk: columns= and out= are exclusive")
        unknown = want.difference(COLUMN_NAMES)
        if unknown:
            raise TraceError(f"unknown trace columns: {sorted(unknown)}")
    if out is not None and start_row + rows > len(out[COLUMN_NAMES[0]]):
        raise TraceError(
            "corrupt .rpt v3 file: chunks hold more events than the "
            "header declares"
        )
    with obs.span("trace.v3.decode_chunk", rows=rows):
        for name in COLUMN_NAMES:
            info = cols_desc.get(name)
            if info is None:
                raise TraceError(
                    f"corrupt .rpt v3 chunk: missing column {name!r}"
                )
            nbytes = int(info["nbytes"])
            payload = blob[offset: offset + nbytes]
            if len(payload) != nbytes:
                raise TraceError(
                    f"corrupt .rpt v3 chunk: column {name!r} payload overruns"
                )
            offset += nbytes
            if want is not None and name not in want:
                continue
            decoded = _codec.decode_column(
                # A varint value is at most 10 bytes, so rows*10 bounds
                # the decompressed size: one exact-ish allocation.
                _codec.decompress(payload, compressor, size_hint=rows * 10),
                rows,
                info["enc"],
                out=(
                    out[name][start_row: start_row + rows]
                    if out is not None
                    else None
                ),
            )
            if out is None:
                arrays[name] = decoded
    if offset != len(blob):
        raise TraceError(
            f".rpt v3 chunk has {len(blob) - offset} undeclared trailing bytes"
        )
    obs.count("io.chunks_decoded")
    return arrays


def iter_chunk_blobs(fh: IO[bytes]):
    """Yield ``(offset, blob_len, blob)`` for each complete chunk, in order.

    Generator protocol for the sequential v3 scan shared by the full
    reader, the truncation-recovery path, and
    :class:`~repro.trace.stream.ChunkReader`'s footer-less fallback.
    Raises :class:`TraceError` on structural damage; raises
    ``_TruncatedV3`` (caught by callers) on a clean shortfall, carrying
    whether the footer was seen.
    """
    offset = len(MAGIC_V3)
    # The caller has consumed magic + header; track offsets from what it
    # reports via ``fh.tell()`` when seekable, else recompute lazily.
    try:
        offset = fh.tell()
    except (OSError, AttributeError):  # pragma: no cover - exotic streams
        offset = -1
    while True:
        marker = fh.read(len(CHUNK_MARK))
        if len(marker) < len(CHUNK_MARK):
            raise _TruncatedV3("chunk marker missing (footer never reached)")
        if marker == FOOTER_MARK:
            raw_len = fh.read(8)
            if len(raw_len) != 8:
                raise _TruncatedV3("footer length missing")
            (flen,) = struct.unpack("<Q", raw_len)
            raw = _read_declared(fh, flen)
            if len(raw) != flen:
                raise _TruncatedV3("footer incomplete")
            try:
                footer = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise TraceError(f"bad .rpt v3 footer: {exc}") from exc
            return footer
        if marker != CHUNK_MARK:
            raise TraceError(
                f"corrupt .rpt v3 file: bad chunk marker {marker!r}"
            )
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise _TruncatedV3("chunk length missing")
        (blob_len,) = struct.unpack("<Q", raw_len)
        blob = _read_declared(fh, blob_len)
        if len(blob) != blob_len:
            raise _TruncatedV3("chunk blob incomplete")
        yield offset, blob_len, blob
        if offset >= 0:
            offset += len(CHUNK_MARK) + 8 + blob_len


class _TruncatedV3(Exception):
    """Internal: the v3 stream ended cleanly short (not corruption)."""


def _read_stream_v3(fh: IO[bytes], tolerate_truncation: bool) -> Trace:
    from repro.trace.io import TruncatedTraceError  # local: io imports us too

    np = _columnar.np
    header = _read_header(fh, FORMAT_VERSION_V3)
    n = int(header.get("n_events", 0))
    meta = header.get("meta", {})
    compressor = header.get("codec", {}).get("compress", "zlib")

    # Columns are preallocated at their final size and every chunk
    # decodes straight into its slot — no per-chunk arrays, no final
    # concatenate.  A chunk overrunning the declared count raises inside
    # decode_chunk before anything is written past the buffers.
    arrays = {name: np.empty(n, dtype=np.int64) for name in COLUMN_NAMES}
    rows_read = 0
    truncated = False
    gen = iter_chunk_blobs(fh)
    while True:
        try:
            _offset, _blob_len, blob = next(gen)
        except StopIteration:
            break  # footer parsed; stream complete
        except _TruncatedV3 as exc:
            truncated = True
            shortfall = str(exc)
            break
        rows_read += decode_chunk(
            blob, compressor, out=arrays, start_row=rows_read
        )["rows"]
    if truncated:
        if not tolerate_truncation:
            raise TruncatedTraceError(
                f"truncated packed trace: header declares {n} events, "
                f"{rows_read} recovered from complete chunks ({shortfall}) "
                "(pass tolerate_truncation=True to accept the prefix)",
                declared=n, parsed=rows_read, lineno=0,
            )
        arrays = {name: a[:rows_read] for name, a in arrays.items()}
        meta = dict(meta)
        meta["truncated"] = True
    elif rows_read != n:
        raise TraceError(
            f"corrupt .rpt v3 file: header declares {n} events, "
            f"chunks hold {rows_read}"
        )
    columns = TraceColumns(
        sync_var_table=header.get("sync_var_table", []),
        label_table=header.get("label_table", []),
        **arrays,
    )
    return Trace.from_columns(columns, meta=meta)
