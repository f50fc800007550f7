"""Property tests: backward causal slicing is sound and stable.

Three properties are load-bearing for slicing-based witness minimization:

* *idempotence* — re-slicing a slice from the same target changes
  nothing, so a sliced witness is a fixed point (this is why the
  semaphore rule chains signals instead of replaying capacity ranks;
  see the module docstring of :mod:`repro.trace.slice`);
* *closure* — a slice is per-thread prefix closed and contains the
  producers its sync consumers depend on (checked here by an
  independent re-implementation of the rules);
* *backend agreement* — the object reference, the vectorized columnar
  path, and the two-pass streaming file path select the same events.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.trace.events import EventKind, TraceEvent
from repro.trace.io import write_trace
from repro.trace.slice import slice_event_indices, slice_file, slice_trace
from repro.trace.trace import Trace

# Sync-heavy fuzzing: a tiny pool of sync variables and indices makes
# advance/await partners, barrier generations, and lock/semaphore chains
# actually collide; uniform random events essentially never sync.
sync_vars = st.sampled_from([None, "A", "B"])
small_idx = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
events = st.builds(
    TraceEvent,
    time=st.integers(min_value=0, max_value=60),
    thread=st.integers(min_value=0, max_value=3),
    kind=st.sampled_from(list(EventKind)),
    eid=st.integers(min_value=-1, max_value=9),
    seq=st.integers(min_value=0, max_value=999),
    iteration=small_idx,
    sync_var=sync_vars,
    sync_index=small_idx,
    label=st.just(""),
    overhead=st.integers(min_value=0, max_value=9),
)
event_lists = st.lists(events, min_size=1, max_size=50)
targets = st.integers(min_value=0, max_value=10**6)


def _gen(e):
    return (e.sync_var, e.sync_index if e.sync_index is not None else 0)


def check_closed_under_dependences(evs, kept):
    """Independent re-statement of the slicing rules."""
    kset = set(kept)
    for t in {e.thread for e in evs}:
        flags = [i in kset for i, e in enumerate(evs) if e.thread == t]
        # Per-thread prefix: no excluded event precedes an included one.
        assert flags == sorted(flags, reverse=True)
    first_advance = {}
    for i, e in enumerate(evs):
        if (e.kind is EventKind.ADVANCE and e.sync_var is not None
                and e.sync_index is not None):
            first_advance.setdefault((e.sync_var, e.sync_index), i)
    for i in kept:
        e = evs[i]
        if (e.kind is EventKind.AWAIT_E and e.sync_var is not None
                and e.sync_index is not None):
            producer = first_advance.get((e.sync_var, e.sync_index))
            if producer is not None:
                assert producer in kset
        if e.kind is EventKind.BARRIER_EXIT:
            for j, o in enumerate(evs):
                if o.kind is EventKind.BARRIER_ARRIVE and _gen(o) == _gen(e):
                    assert j in kset


@settings(max_examples=120, deadline=None)
@given(event_lists, targets)
def test_slice_contains_target_and_is_closed(evs, pick):
    target = pick % len(evs)
    kept = slice_event_indices(evs, target)
    assert target in kept
    assert kept == sorted(set(kept))
    check_closed_under_dependences(evs, kept)


@settings(max_examples=120, deadline=None)
@given(event_lists, targets)
def test_slice_is_idempotent(evs, pick):
    target = pick % len(evs)
    kept = slice_event_indices(evs, target)
    sub = [evs[i] for i in kept]
    again = slice_event_indices(sub, kept.index(target))
    assert again == list(range(len(sub)))


@settings(max_examples=100, deadline=None)
@given(event_lists, targets)
def test_object_and_columnar_slices_agree(evs, pick):
    trace = Trace(list(evs), {"n": 1})
    target = pick % len(trace)
    obj = slice_trace(trace, index=target, backend="object")
    col = slice_trace(trace, index=target, backend="columnar")
    assert obj.events == col.events
    assert obj.meta["slice"] == col.meta["slice"]


@settings(max_examples=15, deadline=None)
@given(event_lists, targets)
def test_streaming_file_slice_agrees_with_memory(evs, pick):
    trace = Trace(list(evs), {"n": 1})
    assume(len(trace) > 0)
    target = pick % len(trace)
    want = slice_trace(trace, index=target)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.rpt"
        write_trace(trace, path, format="v3", chunk_events=8)
        got = slice_file(path, index=target)
    assert got.trace.events == want.events
    assert got.trace.meta["slice"] == want.meta["slice"]


@settings(max_examples=60, deadline=None)
@given(event_lists, targets)
def test_slicing_twice_from_kept_seq_is_stable(evs, pick):
    """Trace-level idempotence through the seq-named front door."""
    trace = Trace(list(evs), {"n": 1})
    target = pick % len(trace)
    once = slice_trace(trace, index=target)
    seq = once.meta["slice"]["target_seq"]
    assume(sum(1 for e in trace if e.seq == seq) == 1)  # seq names target
    twice = slice_trace(once, seq=seq)
    assert twice.events == once.events
