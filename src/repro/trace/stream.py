"""Bounded-memory access to chunked packed traces (``.rpt`` v3).

:class:`ChunkReader` opens a v3 file and yields one
:class:`~repro.trace.columnar.TraceColumns` per chunk — never more than
one chunk's columns are resident at a time, so traces far larger than RAM
can be analyzed.  The chunk index (the v3 footer) is located via the
fixed trailer at end-of-file; files whose footer is missing (truncated by
a crash) fall back to a sequential scan and, with
``tolerate_truncation=True``, expose the longest complete-chunk prefix.

On top of the reader sit incremental drivers for the three whole-trace
passes:

* :func:`stream_time_based` — the time-based model's per-thread
  clipped-delta cumsum, run chunk-by-chunk with explicit carry state
  (:class:`TimeBasedFold`).  Byte-identical to the in-memory columnar
  backend: splitting a cumsum at a chunk boundary and carrying
  ``(last t_m, last t_a)`` per thread is associativity, not
  approximation.  The same fold powers
  ``time_based_approximation(..., backend="streaming")``.
* :func:`stream_trace_stats` — per-chunk partial statistics merged into
  one :class:`~repro.trace.stats.TraceStats`.
* :func:`stream_validate` — feeds each chunk's events through the
  bounded-state :class:`~repro.resilience.validate.StreamingValidator`.

:func:`storage_report` summarizes the on-disk layout (per-column bytes,
chunk count, compression ratio) for ``repro-trace stats``.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from repro.obs import core as obs
from repro.trace import binio as _binio
from repro.trace import columnar as _columnar
from repro.trace.columnar import COLUMN_NAMES, TraceColumns
from repro.trace.trace import TraceError

#: ``chunks(where=...)`` predicates receive one chunk-index entry:
#: ``{"rows": R, "start_row": S, "cols": {name: {"min": lo, "max": hi}}}``.
ChunkPredicate = Callable[[dict], bool]


class ChunkReader:
    """Random and sequential access to the chunks of a ``.rpt`` v3 file.

    The constructor reads only the header and the chunk index; column
    data is decoded one chunk at a time on demand.  Use as a context
    manager (or call :meth:`close`).

    ``tolerate_truncation`` mirrors :func:`~repro.trace.io.read_trace`:
    a file that ends early (no footer) normally raises
    :class:`~repro.trace.io.TruncatedTraceError`; with the flag set the
    reader exposes the longest complete-chunk prefix instead and
    ``meta["truncated"]`` is True.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        tolerate_truncation: bool = False,
    ):
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        try:
            self._load_index(tolerate_truncation)
        except BaseException:
            self._fh.close()
            raise

    # ------------------------------------------------------------- setup
    def _load_index(self, tolerate_truncation: bool) -> None:
        from repro.trace.io import TruncatedTraceError

        fh = self._fh
        magic = fh.read(len(_binio.MAGIC_V3))
        if magic == _binio.MAGIC:
            raise TraceError(
                f"{self.path} is a v2 (unchunked) packed trace; "
                "ChunkReader requires v3 — convert with "
                "'repro-trace convert --format v3'"
            )
        if magic != _binio.MAGIC_V3:
            raise TraceError(
                f"{self.path} is not a chunked packed trace "
                f"(magic={magic!r})"
            )
        header = _binio._read_header(fh, _binio.FORMAT_VERSION_V3)
        self.meta: dict = header.get("meta", {})
        self.declared_events: int = int(header.get("n_events", 0))
        self.chunk_events: int = int(
            header.get("chunk_events", _binio.DEFAULT_CHUNK_EVENTS)
        )
        self.codec: dict = header.get("codec", {})
        self._compressor: str = self.codec.get("compress", "zlib")
        self.sync_var_table = tuple(header.get("sync_var_table", []))
        self.label_table = tuple(header.get("label_table", []))
        self.truncated = False

        index = self._index_from_trailer()
        if index is None:
            index = self._index_from_scan()
            if index is None:  # clean shortfall: no footer reachable
                index = self._scanned_prefix
                rows = sum(c["rows"] for c in index)
                if not tolerate_truncation:
                    raise TruncatedTraceError(
                        f"truncated packed trace: header declares "
                        f"{self.declared_events} events, {rows} recovered "
                        "from complete chunks (pass tolerate_truncation="
                        "True to accept the prefix)",
                        declared=self.declared_events, parsed=rows, lineno=0,
                    )
                self.truncated = True
                self.meta = dict(self.meta)
                self.meta["truncated"] = True
        self.chunk_index: list[dict] = index
        self.n_events: int = sum(c["rows"] for c in index)
        if not self.truncated and self.n_events != self.declared_events:
            raise TraceError(
                f"corrupt .rpt v3 file: header declares "
                f"{self.declared_events} events, chunks hold {self.n_events}"
            )

    def _index_from_trailer(self) -> Optional[list[dict]]:
        """Chunk index via the fixed 16-byte end-of-file trailer."""
        fh = self._fh
        tail_len = 8 + len(_binio.TRAILER_MAGIC)
        try:
            fh.seek(-tail_len, 2)
        except OSError:
            return None
        tail = fh.read(tail_len)
        if len(tail) != tail_len or tail[8:] != _binio.TRAILER_MAGIC:
            return None
        (footer_block_len,) = struct.unpack("<Q", tail[:8])
        end = fh.seek(0, 2)
        foot_at = end - tail_len - footer_block_len
        if foot_at < len(_binio.MAGIC_V3):
            return None
        fh.seek(foot_at)
        if fh.read(len(_binio.FOOTER_MARK)) != _binio.FOOTER_MARK:
            return None
        (flen,) = struct.unpack("<Q", fh.read(8))
        if flen != footer_block_len - len(_binio.FOOTER_MARK) - 8:
            return None
        import json

        try:
            footer = json.loads(fh.read(flen).decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
        chunks = footer.get("chunks")
        if not isinstance(chunks, list):
            return None
        return chunks

    def _index_from_scan(self) -> Optional[list[dict]]:
        """Sequential fallback: walk chunk markers, parse descriptors.

        Returns the index if the footer is eventually reached; on a clean
        shortfall returns None with the complete-chunk prefix stashed in
        ``self._scanned_prefix``.  Corruption raises.
        """
        fh = self._fh
        fh.seek(len(_binio.MAGIC_V3))
        _binio._read_header(fh, _binio.FORMAT_VERSION_V3)
        index: list[dict] = []
        start_row = 0
        gen = _binio.iter_chunk_blobs(fh)
        while True:
            try:
                offset, blob_len, blob = next(gen)
            except StopIteration:
                return index
            except _binio._TruncatedV3:
                self._scanned_prefix = index
                return None
            desc, _payload_at = _binio.parse_chunk_desc(blob)
            index.append({
                "offset": offset,
                "blob_len": blob_len,
                "rows": int(desc["rows"]),
                "start_row": start_row,
                "cols": desc["cols"],
            })
            start_row += int(desc["rows"])

    # ------------------------------------------------------------ access
    @property
    def n_chunks(self) -> int:
        return len(self.chunk_index)

    def chunk_info(self, i: int) -> dict:
        """Index entry for chunk ``i`` (rows, start_row, per-column min/max)."""
        return self.chunk_index[i]

    def read_blob(self, i: int) -> bytes:
        """Raw (still-compressed) blob of chunk ``i`` (one seek).

        Callers that decode the same chunk twice at different projections
        (e.g. the streaming slicer's thread-mask-then-full pass) fetch
        the blob once and run :func:`~repro.trace.binio.decode_chunk`
        themselves with different ``columns=``.
        """
        info = self.chunk_index[i]
        fh = self._fh
        fh.seek(int(info["offset"]))
        marker = fh.read(len(_binio.CHUNK_MARK))
        if marker != _binio.CHUNK_MARK:
            raise TraceError(
                f"corrupt .rpt v3 file: chunk {i} index points at "
                f"{marker!r}, not a chunk marker"
            )
        (blob_len,) = struct.unpack("<Q", fh.read(8))
        if blob_len != int(info["blob_len"]):
            raise TraceError(
                f"corrupt .rpt v3 file: chunk {i} length disagrees with "
                "the footer index"
            )
        blob = _binio._read_declared(fh, blob_len)
        if len(blob) != blob_len:
            raise TraceError(f"corrupt .rpt v3 file: chunk {i} cut short")
        return blob

    @property
    def compressor(self) -> str:
        """Compression codec name chunk payloads were written with."""
        return self._compressor

    def read_chunk_arrays(self, i: int, columns=None) -> dict:
        """Decode chunk ``i`` to ``{name: int64 array}`` plus ``"rows"``.

        ``columns`` projects the decode: only the named columns are
        decompressed (the rest are skipped byte-wise), so scans that
        touch two or three columns never pay for all ten.
        """
        arrays = _binio.decode_chunk(
            self.read_blob(i), self._compressor, columns=columns
        )
        if arrays["rows"] != int(self.chunk_index[i]["rows"]):
            raise TraceError(
                f"corrupt .rpt v3 file: chunk {i} row count disagrees with "
                "the footer index"
            )
        return arrays

    def read_chunk(self, i: int) -> TraceColumns:
        """Decode chunk ``i`` into a :class:`TraceColumns` (one seek)."""
        arrays = self.read_chunk_arrays(i)
        arrays.pop("rows")
        return TraceColumns(
            sync_var_table=self.sync_var_table,
            label_table=self.label_table,
            **arrays,
        )

    def chunks(
        self, where: Optional[ChunkPredicate] = None
    ) -> Iterator[tuple[int, TraceColumns]]:
        """Yield ``(start_row, columns)`` per chunk, in file order.

        ``where`` receives each chunk's index entry (with per-column
        min/max) *before* any decoding; returning False skips the chunk
        without reading its bytes (counted as ``io.chunks_skipped``).
        """
        for i, info in enumerate(self.chunk_index):
            if where is not None and not where(info):
                obs.count("io.chunks_skipped")
                continue
            yield int(info["start_row"]), self.read_chunk(i)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "ChunkReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------- time-based fold
class TimeBasedFold:
    """Chunk-by-chunk time-based analysis with per-thread carry state.

    Feeding the chunks of a trace in storage order reproduces the
    in-memory columnar backend exactly: along one thread the model is a
    cumulative sum of zero-clipped deltas, and a cumsum split at any
    boundary is recovered by carrying ``(last t_m, last t_a)`` — integer
    associativity, no approximation.  State is O(threads); each
    :meth:`feed` allocates O(chunk).
    """

    def __init__(self, per_kind_overhead):
        self._per_kind = per_kind_overhead
        self._carry: dict[int, tuple[int, int]] = {}

    def feed(self, cols: TraceColumns):
        """Process one chunk; returns its ``t_a`` array (row-aligned)."""
        np = _columnar.np
        overhead = self._per_kind[cols.kind]
        ta = np.empty(len(cols), dtype=np.int64)
        for tid, idx in zip(*cols.thread_order()):
            tm = cols.time[idx]
            ov = overhead[idx]
            deltas = np.empty(len(idx), dtype=np.int64)
            prev = self._carry.get(tid)
            if prev is None:
                base = 0
                deltas[0] = max(0, int(tm[0]) - int(ov[0]))
            else:
                prev_tm, base = prev
                deltas[0] = max(0, int(tm[0]) - prev_tm - int(ov[0]))
            if len(idx) > 1:
                np.subtract(tm[1:], tm[:-1], out=deltas[1:])
                deltas[1:] -= ov[1:]
                np.maximum(deltas[1:], 0, out=deltas[1:])
            ta_t = np.cumsum(deltas)
            ta_t += base
            ta[idx] = ta_t
            self._carry[tid] = (int(tm[-1]), int(ta_t[-1]))
        return ta


class StreamingAnalysis:
    """Result of :func:`stream_time_based`.

    ``times`` is the full ``seq -> t_a`` mapping when collected, else
    None (total-only mode keeps peak memory at O(chunk)).
    """

    __slots__ = ("times", "total_time", "n_events")

    def __init__(self, times: Optional[dict], total_time: int, n_events: int):
        self.times = times
        self.total_time = total_time
        self.n_events = n_events


def stream_time_based(
    path: Union[str, Path],
    constants,
    *,
    collect_times: bool = True,
    chunk_reader: Optional[ChunkReader] = None,
) -> StreamingAnalysis:
    """Time-based analysis of a v3 file without materializing the trace.

    With ``collect_times=False`` only the total approximated time is
    tracked and peak memory stays O(chunk) + O(threads); with the default
    the per-event mapping is accumulated (the output itself is O(n)).
    Raises the same :class:`~repro.analysis.approximation.AnalysisError`
    as ``time_based_approximation`` on empty or uninstrumented traces, so
    the backends agree on failures too.
    """
    from repro.analysis.approximation import AnalysisError

    np = _columnar.np
    owns = chunk_reader is None
    reader = chunk_reader or ChunkReader(path)
    try:
        if reader.n_events == 0:
            raise AnalysisError("cannot analyze an empty trace")
        if not reader.meta.get("instrumented", True):
            raise AnalysisError(
                "trace is not a measured (instrumented) trace; "
                "nothing to remove"
            )
        fold = TimeBasedFold(_columnar.overhead_table(constants.costs))
        total = 0
        collected: list[tuple] = []
        with obs.span(
            "analysis.timebased", backend="streaming-file",
            n_events=reader.n_events,
        ):
            for _start, cols in reader.chunks():
                ta = fold.feed(cols)
                total = max(total, int(ta.max()))
                if collect_times:
                    collected.append((cols.seq, ta))
        times = None
        if collect_times:
            seqs = np.concatenate([s for s, _ in collected])
            tas = np.concatenate([t for _, t in collected])
            times = dict(zip(seqs.tolist(), tas.tolist()))
        return StreamingAnalysis(times, total, reader.n_events)
    finally:
        if owns:
            reader.close()


# ------------------------------------------------------------------ stats
def stream_trace_stats(path: Union[str, Path]):
    """Chunk-by-chunk :func:`~repro.trace.stats.trace_stats` equivalent.

    Merges per-chunk partials (bincounts, per-thread counts, overhead
    sums, masked string-table uniques); matches the in-memory result
    field-for-field while holding one chunk at a time.
    """
    from repro.trace.events import EventKind
    from repro.trace.stats import TraceStats

    np = _columnar.np
    with ChunkReader(path) as reader:
        kind_counts = np.zeros(len(_columnar.KIND_LIST), dtype=np.int64)
        by_thread: dict[int, int] = {}
        total_overhead = 0
        sync_idx: set[int] = set()
        lock_idx: set[int] = set()
        loop_idx: set[int] = set()
        start_time = end_time = 0
        first = True
        for _start, cols in reader.chunks():
            kind_counts += np.bincount(
                cols.kind, minlength=len(_columnar.KIND_LIST)
            )
            threads, counts = np.unique(cols.thread, return_counts=True)
            for t, c in zip(threads.tolist(), counts.tolist()):
                by_thread[t] = by_thread.get(t, 0) + c
            total_overhead += int(cols.overhead.sum())
            sync_idx.update(np.unique(cols.sync_var[_columnar.kind_code_mask(
                cols.kind, EventKind.ADVANCE, EventKind.AWAIT_B,
                EventKind.AWAIT_E)]).tolist())
            lock_idx.update(np.unique(cols.sync_var[_columnar.kind_code_mask(
                cols.kind, EventKind.LOCK_REQ, EventKind.LOCK_ACQ,
                EventKind.LOCK_REL)]).tolist())
            loop_idx.update(np.unique(cols.label[
                cols.kind == _columnar.KIND_CODE[EventKind.LOOP_BEGIN]
            ]).tolist())
            if first and len(cols):
                start_time = int(cols.time[0])
                first = False
            if len(cols):
                end_time = int(cols.time[-1])
        by_kind = {
            _columnar.KIND_LIST[code].value: int(count)
            for code, count in enumerate(kind_counts.tolist())
            if count
        }
        sv_table, lb_table = reader.sync_var_table, reader.label_table
        sync_vars = {sv_table[i] for i in sync_idx if i >= 0 and sv_table[i]}
        locks = {sv_table[i] for i in lock_idx if i >= 0 and sv_table[i]}
        loops = {"" if i < 0 else lb_table[i] for i in loop_idx}
        return TraceStats(
            n_events=reader.n_events,
            n_threads=len(by_thread),
            duration=end_time - start_time,
            by_kind=dict(sorted(by_kind.items())),
            by_thread=dict(sorted(by_thread.items())),
            total_overhead=total_overhead,
            sync_vars=tuple(sorted(sync_vars)),
            locks=tuple(sorted(locks)),
            loops=tuple(sorted(loops)),
        )


# --------------------------------------------------------------- validate
def stream_validate(path: Union[str, Path]):
    """Chunk-by-chunk :func:`~repro.resilience.validate.validate_trace`.

    Feeds each chunk's events through the bounded-state
    :class:`~repro.resilience.validate.StreamingValidator` in storage
    (total) order — the same order the in-memory validator sees — so the
    diagnostics match while only one chunk's events exist at a time.
    """
    from repro.resilience.validate import StreamingValidator

    with ChunkReader(path) as reader:
        validator = StreamingValidator(
            sem_capacities=reader.meta.get("semaphores")
        )
        for _start, cols in reader.chunks():
            for event in cols.to_events():
                validator.feed(event)
        return validator.finish()


# ------------------------------------------------------------ disk layout
def storage_report(path: Union[str, Path]) -> dict:
    """On-disk layout summary of a v3 file for ``repro-trace stats``.

    Returns ``{"n_chunks", "chunk_events", "codec", "file_bytes",
    "logical_bytes", "ratio", "columns": {name: bytes}}`` where
    ``logical_bytes`` is what the same columns cost in v2 (8 bytes per
    field) and ``ratio`` is logical/actual column payload compression.
    """
    path = Path(path)
    with ChunkReader(path) as reader:
        per_column = {name: 0 for name in COLUMN_NAMES}
        for info in reader.chunk_index:
            for name, col in info["cols"].items():
                per_column[name] += int(col["nbytes"])
        payload = sum(per_column.values())
        logical = reader.n_events * len(COLUMN_NAMES) * 8
        return {
            "n_chunks": reader.n_chunks,
            "chunk_events": reader.chunk_events,
            "codec": dict(reader.codec),
            "file_bytes": path.stat().st_size,
            "payload_bytes": payload,
            "logical_bytes": logical,
            "ratio": (logical / payload) if payload else 0.0,
            "columns": per_column,
        }
