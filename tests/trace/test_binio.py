"""Tests for the packed binary trace format (.rpt) and format auto-detection.

v3 is the only packed format written; the legacy v2 layout is still read,
exercised through the hand-built files of :func:`write_v2_trace`.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np
import pytest

from repro.exec import Executor
from repro.instrument.plan import PLAN_FULL
from repro.trace.binio import MAGIC, MAGIC_V3, read_trace_binary, write_trace_binary
from repro.trace.columnar import COLUMN_NAMES
from repro.trace.events import EventKind, TraceEvent
from repro.trace.io import TruncatedTraceError, read_trace, write_trace
from repro.trace.trace import Trace, TraceError

from tests.conftest import build_toy_doacross, write_v2_trace


@pytest.fixture(scope="module")
def measured():
    return Executor(seed=11).run(build_toy_doacross(trips=25), PLAN_FULL).trace


def test_rpt_roundtrip_preserves_everything(measured, tmp_path):
    path = tmp_path / "m.rpt"
    write_trace(measured, path)
    back = read_trace(path)
    assert back.has_columns  # loads straight into the columnar backend
    assert back.events == measured.events
    assert back.meta == measured.meta


def test_rpt_suffix_selects_packed_format(measured, tmp_path):
    path = tmp_path / "m.rpt"
    write_trace(measured, path)
    assert path.read_bytes()[: len(MAGIC)] == MAGIC_V3


def test_format_override_beats_suffix(measured, tmp_path):
    path = tmp_path / "m.trace"
    write_trace(measured, path, format="rpt")
    assert path.read_bytes()[: len(MAGIC)] == MAGIC_V3
    assert read_trace(path).events == measured.events


def test_environment_sets_packed_default(measured, tmp_path, monkeypatch):
    """REPRO_TRACE_FORMAT no longer chooses the packed format: whatever a
    stale environment holds (perfbench still exports it), .rpt means v3."""
    for value in ("v3", "v2", "jsonl"):
        monkeypatch.setenv("REPRO_TRACE_FORMAT", value)
        path = tmp_path / f"m-{value}.rpt"
        write_trace(measured, path)
        assert path.read_bytes()[: len(MAGIC)] == MAGIC_V3
        assert read_trace(path).events == measured.events


def test_v2_write_rejected(measured, tmp_path):
    path = tmp_path / "m.rpt"
    with pytest.raises(ValueError, match="unknown trace format 'v2'"):
        write_trace(measured, path, format="v2")
    assert not path.exists()


def test_v2_file_still_reads(measured, tmp_path):
    path = tmp_path / "m.rpt"
    write_v2_trace(measured, path)
    back = read_trace(path)
    assert back.has_columns
    assert back.events == measured.events
    assert back.meta == measured.meta


def test_jsonl_remains_default(measured, tmp_path):
    path = tmp_path / "m.trace"
    write_trace(measured, path)
    first = path.read_text().splitlines()[0]
    assert json.loads(first)["format"] == "repro-trace"


def test_autodetect_reads_both(measured, tmp_path):
    jsonl = tmp_path / "m.jsonl"
    rpt = tmp_path / "m.rpt"
    write_trace(measured, jsonl)
    write_trace(measured, rpt)
    assert read_trace(jsonl).events == read_trace(rpt).events


def test_binary_stream_roundtrip(measured):
    buf = io.BytesIO()
    write_trace(measured, buf)
    buf.seek(0)
    assert read_trace(buf).events == measured.events


def test_binary_stream_holding_jsonl_detected(measured):
    text = io.StringIO()
    write_trace(measured, text)
    raw = io.BytesIO(text.getvalue().encode("utf-8"))
    assert read_trace(raw).events == measured.events


def test_jsonl_to_rpt_and_back_identical(measured, tmp_path):
    jsonl = tmp_path / "a.jsonl"
    rpt = tmp_path / "b.rpt"
    jsonl2 = tmp_path / "c.jsonl"
    write_trace(measured, jsonl)
    write_trace(read_trace(jsonl), rpt)
    write_trace(read_trace(rpt), jsonl2)
    assert read_trace(jsonl2).events == measured.events
    assert read_trace(jsonl2).meta == measured.meta


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.rpt"
    path.write_bytes(b"NOTATRACEFILE")
    with pytest.raises(TraceError):
        read_trace_binary(path)


def test_bad_version_rejected(measured, tmp_path):
    path = tmp_path / "m.rpt"
    write_trace(measured, path)
    raw = bytearray(path.read_bytes())
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16: 16 + hlen].decode())
    header["version"] = 99
    blob = json.dumps(header, sort_keys=True).encode()
    rebuilt = raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen:]
    path.write_bytes(bytes(rebuilt))
    with pytest.raises(TraceError, match="version"):
        read_trace(path)


def test_truncated_rpt_raises_with_counts(measured, tmp_path):
    path = tmp_path / "m.rpt"
    write_trace(measured, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - len(raw) // 3])
    with pytest.raises(TruncatedTraceError) as exc:
        read_trace(path)
    assert exc.value.declared == len(measured)
    assert 0 <= exc.value.parsed < len(measured)


def test_truncated_rpt_prefix_recovery(measured, tmp_path):
    path = tmp_path / "m.rpt"
    write_v2_trace(measured, path)  # v2: row-exact recovery
    raw = path.read_bytes()
    # Tear off the tail of the last column: every column still has rows,
    # so a non-empty row-exact prefix is recoverable.
    path.write_bytes(raw[:-20])
    back = read_trace(path, tolerate_truncation=True)
    assert back.meta["truncated"] is True
    k = len(back)
    assert 0 < k < len(measured)
    assert back.events == measured.events[:k]


# ------------------------------------------------------------------ v3
def test_v3_roundtrip_preserves_everything(measured, tmp_path):
    path = tmp_path / "m.rpt"
    write_trace(measured, path, format="v3", chunk_events=64)
    assert path.read_bytes()[: len(MAGIC)] == MAGIC_V3
    back = read_trace(path)
    assert back.has_columns
    assert back.events == measured.events
    assert back.meta == measured.meta


def test_v3_is_smaller_than_v2(measured, tmp_path):
    """v3 beats the flat int64 columns v2 stored, header and index included."""
    v3 = tmp_path / "m3.rpt"
    write_trace(measured, v3, format="v3")
    assert v3.stat().st_size < len(measured) * len(COLUMN_NAMES) * 8


def test_v3_truncation_recovers_chunk_prefix(measured, tmp_path):
    path = tmp_path / "m.rpt"
    write_trace(measured, path, format="v3", chunk_events=32)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncatedTraceError) as exc:
        read_trace(path)
    assert exc.value.declared == len(measured)
    back = read_trace(path, tolerate_truncation=True)
    assert back.meta["truncated"] is True
    k = len(back)
    assert 0 < k < len(measured)
    assert k % 32 == 0  # v3 recovers whole chunks, never partial rows
    assert back.events == measured.events[:k]


def test_v3_mid_file_damage_is_corruption(measured, tmp_path):
    path = tmp_path / "m.rpt"
    write_trace(measured, path, format="v3", chunk_events=32)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF  # scribble inside a chunk payload
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceError):
        read_trace(path)
    with pytest.raises(TraceError):
        # tolerate_truncation is about clean shortfalls, not damage
        read_trace(path, tolerate_truncation=True)


def test_v3_chunk_options_rejected_for_v2(measured, tmp_path):
    with pytest.raises(ValueError, match="v3"):
        write_trace(measured, tmp_path / "m.rpt", format="v2", chunk_events=64)
    with pytest.raises(ValueError, match="v3"):
        write_trace(measured, tmp_path / "m.jsonl", format="jsonl", codec="zlib")
    with pytest.raises(ValueError, match="chunk_events must be >= 1, got 0"):
        write_trace(measured, tmp_path / "m.rpt", format="v3", chunk_events=0)
    with pytest.raises(ValueError, match="compression level 99"):
        write_trace(measured, tmp_path / "m.rpt", format="v3", level=99)
    assert not list(tmp_path.iterdir())  # rejected before any write


def test_v3_single_chunk_and_odd_sizes(measured, tmp_path):
    for chunk in (1, 7, len(measured), 10 * len(measured)):
        path = tmp_path / f"m{chunk}.rpt"
        write_trace(measured, path, format="v3", chunk_events=chunk)
        assert read_trace(path).events == measured.events


def test_v3_binary_stream_roundtrip(measured):
    buf = io.BytesIO()
    write_trace(measured, buf, format="v3", chunk_events=64)
    buf.seek(0)
    assert read_trace(buf).events == measured.events


def test_atomic_write_leaves_no_tmp(measured, tmp_path):
    path = tmp_path / "m.rpt"
    write_trace_binary(measured, path)
    assert not (tmp_path / "m.rpt.tmp").exists()


def test_empty_trace_roundtrip(tmp_path):
    path = tmp_path / "empty.rpt"
    write_trace(Trace([], {"program": "void"}), path)
    back = read_trace(path)
    assert len(back) == 0
    assert back.meta == {"program": "void"}


def test_string_tables_roundtrip(tmp_path):
    events = [
        TraceEvent(time=1, thread=0, kind=EventKind.ADVANCE, seq=0,
                   sync_var="outer/Q", sync_index=0, label="λ-label"),
        TraceEvent(time=2, thread=0, kind=EventKind.LOOP_BEGIN, seq=1,
                   label=""),
    ]
    path = tmp_path / "s.rpt"
    write_trace(Trace(events), path)
    back = read_trace(path)
    assert back.events == events


# ------------------------------------------------------- v3 chunk stats
def test_column_stats_exclude_none_sentinel():
    from repro.trace.binio import _column_stats
    from repro.trace.columnar import NONE_SENTINEL

    plain = np.array([5, 2, 9], dtype=np.int64)
    assert _column_stats("time", plain) == {"min": 2, "max": 9}

    mixed = np.array([NONE_SENTINEL, 4, 7], dtype=np.int64)
    assert _column_stats("sync_index", mixed) == {
        "min": 4, "max": 7, "has_none": True,
    }
    assert _column_stats("iteration", plain) == {
        "min": 2, "max": 9, "has_none": False,
    }
    all_none = np.full(3, NONE_SENTINEL, dtype=np.int64)
    assert _column_stats("sync_index", all_none) == {
        "min": None, "max": None, "has_none": True,
    }


def test_v3_file_chunk_stats_are_sentinel_free(measured, tmp_path):
    """Written chunk descriptors carry usable optional-column bounds."""
    from repro.trace.binio import OPTIONAL_STAT_COLUMNS
    from repro.trace.columnar import NONE_SENTINEL
    from repro.trace.stream import ChunkReader

    path = tmp_path / "m.rpt"
    write_trace(measured, path, format="v3", chunk_events=32)
    with ChunkReader(path) as reader:
        assert reader.n_chunks > 1
        for info in reader.chunk_index:
            for name, stats in info["cols"].items():
                if name in OPTIONAL_STAT_COLUMNS:
                    assert "has_none" in stats
                    assert stats["min"] != NONE_SENTINEL
                else:
                    assert "has_none" not in stats
                if stats["min"] is not None:
                    assert stats["min"] <= stats["max"]
