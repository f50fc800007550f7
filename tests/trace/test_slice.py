"""Unit tests for backward causal trace slicing (repro.trace.slice)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import Executor
from repro.instrument.plan import PLAN_FULL
from repro.trace.events import EventKind, TraceEvent
from repro.trace.io import write_trace
from repro.trace.slice import (
    FileSliceResult,
    slice_event_indices,
    slice_file,
    slice_trace,
)
from repro.trace.trace import Trace, TraceError

from tests.conftest import build_toy_doacross


def ev(i, thread, kind, var=None, idx=None, time=None):
    return TraceEvent(
        time=time if time is not None else i + 1,
        thread=thread, kind=kind, seq=i,
        sync_var=var, sync_index=idx,
    )


# ------------------------------------------------------------ rule units
def test_await_pulls_in_first_matching_advance():
    events = [
        ev(0, 0, EventKind.ADVANCE, "A", 0),
        ev(1, 0, EventKind.ADVANCE, "A", 1),
        ev(2, 1, EventKind.AWAIT_E, "A", 1),
        ev(3, 0, EventKind.ADVANCE, "A", 2),
    ]
    assert slice_event_indices(events, 2) == [0, 1, 2]


def test_barrier_exit_pulls_in_every_arrival_of_its_generation():
    events = [
        ev(0, 0, EventKind.BARRIER_ARRIVE, "B", 0),
        ev(1, 1, EventKind.BARRIER_ARRIVE, "B", 0),
        ev(2, 0, EventKind.BARRIER_EXIT, "B", 0),
        ev(3, 1, EventKind.BARRIER_EXIT, "B", 0),
        ev(4, 0, EventKind.BARRIER_ARRIVE, "B", 1),
    ]
    assert slice_event_indices(events, 2) == [0, 1, 2]


def test_lock_acquisition_depends_on_previous_release():
    events = [
        ev(0, 0, EventKind.LOCK_REQ, "L", 0),
        ev(1, 0, EventKind.LOCK_ACQ, "L", 0),
        ev(2, 0, EventKind.STMT),
        ev(3, 0, EventKind.LOCK_REL, "L", 0),
        ev(4, 1, EventKind.LOCK_REQ, "L", 1),
        ev(5, 1, EventKind.LOCK_ACQ, "L", 1),
        ev(6, 1, EventKind.LOCK_REL, "L", 1),
        ev(7, 2, EventKind.STMT),
    ]
    # T1's acquire chains to T0's release, which drags in T0's whole
    # critical section by program order; T2 and T1's release stay out.
    assert slice_event_indices(events, 5) == [0, 1, 2, 3, 4, 5]


def test_sem_acquire_depends_on_latest_earlier_signal():
    events = [
        ev(0, 0, EventKind.SEM_SIG, "S", 0),
        ev(1, 1, EventKind.SEM_REQ, "S", 0),
        ev(2, 1, EventKind.SEM_ACQ, "S", 0),
        ev(3, 0, EventKind.SEM_SIG, "S", 1),
    ]
    assert slice_event_indices(events, 2) == [0, 1, 2]


def test_slice_is_per_thread_prefix_of_the_source():
    trace = Executor(seed=3).run(build_toy_doacross(trips=30), PLAN_FULL).trace
    sliced = slice_trace(trace, index=len(trace) // 2)
    by_thread_src = {t: [e for e in trace if e.thread == t]
                     for t in trace.threads}
    for t in sliced.threads:
        mine = [e for e in sliced if e.thread == t]
        assert mine == by_thread_src[t][: len(mine)]


# -------------------------------------------------------- in-memory front
@pytest.fixture(scope="module")
def measured():
    return Executor(seed=3).run(build_toy_doacross(trips=60), PLAN_FULL).trace


def test_slice_trace_by_seq_and_index_agree(measured):
    target = measured.events[200]
    by_seq = slice_trace(measured, seq=target.seq)
    by_index = slice_trace(measured, index=200)
    assert by_seq.events == by_index.events
    assert by_seq.meta["slice"] == by_index.meta["slice"]


def test_slice_keeps_original_seqs_and_records_meta(measured):
    sliced = slice_trace(measured, index=150)
    assert sliced.meta["slice"] == {
        "target_seq": measured.events[150].seq,
        "target_index": 150,
        "source_events": len(measured),
    }
    kept = set(e.seq for e in sliced)
    assert measured.events[150].seq in kept
    source_seqs = {e.seq for e in measured}
    assert kept <= source_seqs  # no restamping


def test_slice_backends_agree(measured):
    for target in (0, 97, len(measured) - 1):
        obj = slice_trace(measured, index=target, backend="object")
        col = slice_trace(measured, index=target, backend="columnar")
        assert obj.events == col.events


def test_negative_index_counts_from_the_end(measured):
    assert (
        slice_trace(measured, index=-1).events
        == slice_trace(measured, index=len(measured) - 1).events
    )


def test_slice_target_validation(measured):
    with pytest.raises(TraceError, match="exactly one"):
        slice_trace(measured)
    with pytest.raises(TraceError, match="exactly one"):
        slice_trace(measured, seq=1, index=1)
    with pytest.raises(TraceError, match="out of range"):
        slice_trace(measured, index=len(measured))
    with pytest.raises(TraceError, match="no event with seq"):
        slice_trace(measured, seq=10**9)
    with pytest.raises(TraceError, match="backend"):
        slice_trace(measured, index=0, backend="quantum")


# ------------------------------------------------------------- streaming
@pytest.fixture(scope="module")
def v3_file(measured, tmp_path_factory):
    path = tmp_path_factory.mktemp("slices") / "m.rpt"
    write_trace(measured, path, format="v3", chunk_events=64)
    return path


def test_slice_file_matches_in_memory_slice(measured, v3_file):
    for target in (5, len(measured) // 3, len(measured) - 1):
        want = slice_trace(measured, index=target)
        got = slice_file(v3_file, index=target)
        assert isinstance(got, FileSliceResult)
        assert got.trace.events == want.events
        assert got.trace.meta["slice"] == want.meta["slice"]
        assert got.n_source_events == len(measured)


def test_slice_file_by_seq(measured, v3_file):
    target = measured.events[77]
    got = slice_file(v3_file, seq=target.seq)
    want = slice_trace(measured, seq=target.seq)
    assert got.trace.events == want.events


def test_slice_file_prunes_chunks_past_the_frontier(measured, v3_file):
    # An early target leaves most of the file past the slice frontier.
    got = slice_file(v3_file, index=10)
    assert got.n_chunks == -(-len(measured) // 64)
    assert got.chunks_pruned > 0
    assert got.chunks_decoded + got.chunks_pruned <= got.n_chunks
    # A last-event target must not prune anything.
    full = slice_file(v3_file, index=len(measured) - 1)
    assert full.chunks_pruned == 0


def test_slice_file_target_validation(v3_file, measured):
    with pytest.raises(TraceError, match="exactly one"):
        slice_file(v3_file)
    with pytest.raises(TraceError, match="out of range"):
        slice_file(v3_file, index=len(measured))
    with pytest.raises(TraceError, match="no event with seq"):
        slice_file(v3_file, seq=10**9)
