"""Tests for bounded-memory streaming over chunked (.rpt v3) traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import time_based_approximation
from repro.analysis.approximation import AnalysisError
from repro.exec import Executor
from repro.instrument import InstrumentationCosts, calibrate_analysis_constants
from repro.instrument.plan import PLAN_FULL, PLAN_NONE
from repro.machine.costs import FX80
from repro.obs import core as obs_core
from repro.resilience.validate import validate_trace
from repro.trace.binio import TRAILER_MAGIC
from repro.trace.io import TruncatedTraceError, read_trace, write_trace
from repro.trace.stats import trace_stats
from repro.trace.stream import (
    ChunkReader,
    TimeBasedFold,
    storage_report,
    stream_time_based,
    stream_trace_stats,
    stream_validate,
)
from repro.trace.trace import Trace, TraceError

from tests.conftest import build_toy_doacross, write_v2_trace

CONSTANTS = calibrate_analysis_constants(FX80, InstrumentationCosts())


@pytest.fixture(scope="module")
def measured():
    return Executor(seed=17).run(build_toy_doacross(trips=30), PLAN_FULL).trace


@pytest.fixture()
def v3_file(measured, tmp_path):
    path = tmp_path / "m.rpt"
    write_trace(measured, path, format="v3", chunk_events=64)
    return path


@pytest.fixture(autouse=True)
def obs_isolated():
    saved = (obs_core._enabled, obs_core._state)
    obs_core._enabled = False
    obs_core._state = None
    yield
    obs_core._enabled, obs_core._state = saved


# ------------------------------------------------------------- ChunkReader
def test_chunk_reader_index_and_iteration(measured, v3_file):
    with ChunkReader(v3_file) as reader:
        assert reader.n_events == len(measured)
        assert reader.n_chunks == -(-len(measured) // 64)
        rows = 0
        events = []
        for start, cols in reader.chunks():
            assert start == rows
            assert len(cols) <= 64
            rows += len(cols)
            events.extend(cols.to_events())
        assert events == measured.events


def test_chunk_reader_random_access(measured, v3_file):
    with ChunkReader(v3_file) as reader:
        last = reader.read_chunk(reader.n_chunks - 1)
        start = reader.chunk_info(reader.n_chunks - 1)["start_row"]
        assert last.to_events() == measured.events[start:]
        # Reading out of order works: the index carries absolute offsets.
        first = reader.read_chunk(0)
        assert first.to_events() == measured.events[: len(first)]


def test_chunk_reader_scan_fallback_without_trailer(measured, v3_file):
    """Stripping the trailer forces the sequential scan; same index."""
    raw = v3_file.read_bytes()
    assert raw.endswith(TRAILER_MAGIC)
    v3_file.write_bytes(raw[:-16])  # drop <Q len> + trailer magic
    with ChunkReader(v3_file) as reader:
        assert not reader.truncated  # the footer itself is still there
        assert reader.n_events == len(measured)
        events = [e for _s, c in reader.chunks() for e in c.to_events()]
        assert events == measured.events


def test_chunk_reader_truncation(measured, v3_file):
    raw = v3_file.read_bytes()
    v3_file.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncatedTraceError):
        ChunkReader(v3_file)
    with ChunkReader(v3_file, tolerate_truncation=True) as reader:
        assert reader.truncated
        assert reader.meta["truncated"] is True
        assert 0 < reader.n_events < len(measured)
        assert reader.n_events % 64 == 0
        events = [e for _s, c in reader.chunks() for e in c.to_events()]
        assert events == measured.events[: reader.n_events]


def test_chunk_reader_rejects_v2(measured, tmp_path):
    path = tmp_path / "m.rpt"
    write_v2_trace(measured, path)
    with pytest.raises(TraceError, match="convert"):
        ChunkReader(path)


def test_chunk_predicate_skips_without_decoding(measured, v3_file):
    obs_core.enable(buffer_size=256)
    cutoff = measured.events[-1].time // 2
    with ChunkReader(v3_file) as reader:
        n_chunks = reader.n_chunks
        n_late = sum(
            len(cols)
            for _s, cols in reader.chunks(
                where=lambda info: info["cols"]["time"]["max"] >= cutoff
            )
        )
    snap = obs_core.snapshot()
    decoded = snap.counters["io.chunks_decoded"]
    skipped = snap.counters["io.chunks_skipped"]
    assert skipped > 0  # min/max pruning actually skipped early chunks
    assert decoded + skipped == n_chunks
    # The skip is sound: every event past the cutoff lives in a kept chunk.
    assert n_late >= sum(1 for e in measured.events if e.time >= cutoff)


# ------------------------------------------------------ streaming analysis
def test_stream_time_based_matches_columnar(measured, v3_file):
    ref = time_based_approximation(measured, CONSTANTS, backend="columnar")
    got = stream_time_based(v3_file, CONSTANTS)
    assert got.times == ref.times
    assert got.total_time == ref.total_time
    assert got.n_events == len(measured)


def test_stream_time_based_total_only_mode(measured, v3_file):
    ref = time_based_approximation(measured, CONSTANTS, backend="columnar")
    got = stream_time_based(v3_file, CONSTANTS, collect_times=False)
    assert got.times is None
    assert got.total_time == ref.total_time


def test_stream_time_based_error_parity_empty(tmp_path):
    path = tmp_path / "empty.rpt"
    write_trace(Trace([], {"program": "void"}), path, format="v3")
    with pytest.raises(AnalysisError, match="empty"):
        stream_time_based(path, CONSTANTS)


def test_stream_time_based_error_parity_uninstrumented(tmp_path):
    logical = Executor(seed=17).run(build_toy_doacross(trips=5), PLAN_NONE).trace
    path = tmp_path / "logical.rpt"
    write_trace(logical, path, format="v3")
    with pytest.raises(AnalysisError, match="instrumented"):
        stream_time_based(path, CONSTANTS)


def test_streaming_backend_in_memory_matches_columnar(measured):
    col = time_based_approximation(measured, CONSTANTS, backend="columnar")
    stream = time_based_approximation(measured, CONSTANTS, backend="streaming")
    assert stream.times == col.times
    assert stream.total_time == col.total_time


def test_timebased_fold_is_chunking_invariant(measured):
    """Any chunking of the same trace folds to identical times."""
    from repro.trace.columnar import overhead_table

    cols = measured.columns
    table = overhead_table(CONSTANTS.costs)
    full = TimeBasedFold(table).feed(cols)
    for chunk in (1, 13, 100):
        fold = TimeBasedFold(table)
        parts = [
            fold.feed(cols.slice(i, min(i + chunk, len(cols))))
            for i in range(0, len(cols), chunk)
        ]
        assert np.array_equal(np.concatenate(parts), full)


# -------------------------------------------------------- stats / validate
def test_stream_trace_stats_matches_in_memory(measured, v3_file):
    assert stream_trace_stats(v3_file) == trace_stats(measured)


def test_stream_validate_matches_in_memory(measured, v3_file):
    streamed = stream_validate(v3_file)
    direct = validate_trace(measured)
    assert [(d.severity, d.code) for d in streamed] == [
        (d.severity, d.code) for d in direct
    ]


def test_storage_report_accounts_for_every_column(measured, v3_file):
    report = storage_report(v3_file)
    assert report["n_chunks"] == -(-len(measured) // 64)
    assert report["chunk_events"] == 64
    from repro.trace.columnar import COLUMN_NAMES

    assert set(report["columns"]) == set(COLUMN_NAMES)
    assert report["payload_bytes"] == sum(report["columns"].values())
    assert report["logical_bytes"] == len(measured) * 10 * 8
    assert report["ratio"] > 1.0  # compression actually helps
    assert report["file_bytes"] == v3_file.stat().st_size
