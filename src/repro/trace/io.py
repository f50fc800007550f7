"""Trace file I/O.

Two on-disk formats share one entry point pair:

* **JSONL** (format v1): a header object on the first line
  (``{"format": ..., "meta": {...}}``) followed by one event object per
  line.  Streamable, diffable, human-inspectable.
* **Packed binary v3** (``.rpt``, :mod:`repro.trace.binio`): the columnar
  backend's columns split into fixed-size event chunks,
  delta/varint/zlib-encoded per column, with a chunk index so
  :mod:`repro.trace.stream` can analyze arbitrarily large traces in
  bounded memory.  See ``docs/FORMATS.md``.

:func:`read_trace` auto-detects the format from the file's leading bytes
(the ``RPTRACE3`` magic, or ``RPTRACE2`` for legacy flat packed files,
which are still read but no longer written), so readers never need to
care which one they were handed.  :func:`write_trace` picks the format
from the target's suffix (``.rpt`` -> packed v3, anything else -> JSONL)
unless ``format=`` forces one.  ``repro-trace convert`` translates
between them.

Robustness guarantees:

* :func:`write_trace` is **atomic** for path targets — it writes to a
  ``.tmp`` sibling and :func:`os.replace`\\ s it into place, so a crash
  mid-write can never leave a half-trace behind under the final name;
* :func:`read_trace` distinguishes *truncated* traces (a partial final
  line or fewer events than the header declares — what a crashed tracer
  leaves behind) from mid-file corruption, reports exactly how much was
  recovered, and with ``tolerate_truncation=True`` returns the parsed
  prefix instead of raising.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Optional, Union

from repro.trace.events import TraceEvent
from repro.trace.trace import Trace, TraceError

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1


class TruncatedTraceError(TraceError):
    """The trace file ends early (crash mid-write, disk full, ...).

    Attributes
    ----------
    declared:
        Event count the header promised (None if the header lacked one).
    parsed:
        Events successfully parsed before the file ended.
    lineno:
        Line number of the first unreadable/absent line.
    """

    def __init__(self, message: str, *, declared, parsed: int, lineno: int):
        super().__init__(message)
        self.declared = declared
        self.parsed = parsed
        self.lineno = lineno


def write_trace(
    trace: Trace,
    path: Union[str, Path, IO[str], IO[bytes]],
    *,
    format: Optional[str] = None,
    chunk_events: Optional[int] = None,
    codec: Optional[str] = None,
    level: Optional[int] = None,
) -> None:
    """Write a trace to ``path`` (a path or an open handle).

    ``format`` is ``"jsonl"``, ``"rpt"`` or ``"v3"`` (synonyms: the packed
    v3 format), or None to infer: a ``.rpt`` path suffix (or a binary
    handle) selects the packed format, anything else JSONL.
    ``chunk_events``/``codec``/``level`` tune the v3 chunk layout and are
    rejected for JSONL.
    Path targets are written atomically: the data goes to a ``.tmp``
    sibling which is fsynced and renamed over the destination, so readers
    never observe a partially written trace under the final name.
    """
    from repro.trace import binio

    if format not in (None, "jsonl", "rpt", "v3"):
        raise ValueError(
            f"unknown trace format {format!r} (writable: 'jsonl', 'rpt'/'v3')"
        )
    if format is None:
        if hasattr(path, "write"):
            format = "rpt" if _is_binary_handle(path) else "jsonl"
        else:
            format = "rpt" if Path(path).suffix == ".rpt" else "jsonl"
    if format != "jsonl":
        binio.write_trace_binary(
            trace, path, chunk_events=chunk_events, codec=codec, level=level
        )
        return
    if chunk_events is not None or codec is not None or level is not None:
        raise ValueError("chunk_events/codec/level only apply to trace format v3")
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "meta": trace.meta,
        "n_events": len(trace),
    }
    if hasattr(path, "write"):
        _write_stream(trace, header, path)  # type: ignore[arg-type]
        return
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            _write_stream(trace, header, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_stream(trace: Trace, header: dict, fh: IO[str]) -> None:
    fh.write(json.dumps(header, sort_keys=True) + "\n")
    for event in trace:
        fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")


def _is_binary_handle(fh) -> bool:
    """True if ``fh`` yields/accepts bytes rather than text."""
    mode = getattr(fh, "mode", "")
    if isinstance(mode, str) and "b" in mode:
        return True
    # In-memory streams have no mode; probe the buffer type instead.
    import io as _io

    return isinstance(fh, (_io.RawIOBase, _io.BufferedIOBase))


def read_trace(
    path: Union[str, Path, IO[str], IO[bytes]],
    *,
    tolerate_truncation: bool = False,
) -> Trace:
    """Read a trace previously written by :func:`write_trace`.

    The on-disk format (JSONL v1 vs packed ``.rpt`` v2/v3) is
    auto-detected from the file's leading bytes; binary handles are
    likewise sniffed for the ``RPTRACE2``/``RPTRACE3`` magic.

    A file that ends early — a partial final line, or fewer events than
    the header's ``n_events`` — raises :class:`TruncatedTraceError`
    reporting the failing line, the declared count, and how many events
    were recovered.  Pass ``tolerate_truncation=True`` to get the parsed
    prefix back instead (its ``meta`` gains ``truncated: True``).
    Corruption *before* the final line is never tolerated: that is damage,
    not truncation, and always raises :class:`TraceError`.
    """
    from repro.trace.binio import MAGIC, MAGIC_V3, read_trace_binary

    if hasattr(path, "read"):
        if _is_binary_handle(path):
            head = path.read(len(MAGIC))
            rest = path.read()
            import io as _io

            if head in (MAGIC, MAGIC_V3):
                return read_trace_binary(
                    _io.BytesIO(head + rest),
                    tolerate_truncation=tolerate_truncation,
                )
            try:
                text = _io.StringIO((head + rest).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise TraceError(f"not a trace file: {exc}") from exc
            return _read_stream(text, tolerate_truncation)
        return _read_stream(path, tolerate_truncation)  # type: ignore[arg-type]
    with open(path, "rb") as probe:
        is_packed = probe.read(len(MAGIC)) in (MAGIC, MAGIC_V3)
    if is_packed:
        return read_trace_binary(path, tolerate_truncation=tolerate_truncation)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _read_stream(fh, tolerate_truncation)
    except UnicodeDecodeError as exc:
        raise TraceError(f"not a trace file: {exc}") from exc


def _read_stream(fh: IO[str], tolerate_truncation: bool = False) -> Trace:
    first = fh.readline()
    if not first:
        raise TraceError("empty trace file")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise TraceError(f"bad trace header: {exc}") from exc
    if header.get("format") != FORMAT_NAME:
        raise TraceError(f"not a {FORMAT_NAME} file (format={header.get('format')!r})")
    if header.get("version") != FORMAT_VERSION:
        raise TraceError(f"unsupported trace version {header.get('version')!r}")
    declared = header.get("n_events")
    meta = header.get("meta", {})
    events: list[TraceEvent] = []
    bad: tuple[int, Exception] | None = None  # first unparseable line
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        if bad is not None:
            # A parseable-or-not line *after* the failure means the damage
            # was mid-file — corruption, not truncation.
            badline, exc = bad
            raise TraceError(f"bad event on line {badline}: {exc}") from exc
        try:
            events.append(TraceEvent.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            bad = (lineno, exc)
    if bad is not None:
        # The damaged line was the last one: a classic torn final write.
        lineno, exc = bad
        if not tolerate_truncation:
            raise TruncatedTraceError(
                f"truncated trace: unparseable final line {lineno}; header "
                f"declares {declared} events, {len(events)} parsed cleanly "
                "(pass tolerate_truncation=True to accept the prefix)",
                declared=declared, parsed=len(events), lineno=lineno,
            ) from exc
        return _truncated(events, meta)
    if declared is not None and declared != len(events):
        if len(events) < declared and tolerate_truncation:
            return _truncated(events, meta)
        raise TruncatedTraceError(
            f"truncated trace: header declares {declared} events, found "
            f"{len(events)}"
            + (" (pass tolerate_truncation=True to accept the prefix)"
               if len(events) < declared else ""),
            declared=declared, parsed=len(events), lineno=len(events) + 2,
        )
    return Trace(events, meta=meta)


def _truncated(events: list[TraceEvent], meta: dict) -> Trace:
    meta = dict(meta)
    meta["truncated"] = True
    return Trace(events, meta=meta)
