"""Property tests: the columnar backend is indistinguishable from objects.

Three equivalences are load-bearing for the storage-layer rewrite:

* packing any event list into :class:`TraceColumns` and materializing it
  back reproduces the events exactly;
* the packed binary format (``.rpt``) round-trips any trace exactly,
  including via the JSONL interchange format;
* both analysis models produce byte-identical results (every approximated
  timestamp) whether the measured trace is object-backed or
  columnar-backed — including under the repair/skip degradation policies
  on injector-damaged traces.
"""

from __future__ import annotations

import io

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import event_based_approximation, time_based_approximation
from repro.analysis.approximation import AnalysisError
from repro.exec import Executor
from repro.instrument import InstrumentationCosts, calibrate_analysis_constants
from repro.instrument.plan import PLAN_FULL
from repro.machine.costs import FX80
from repro.resilience.inject import DropEvents, DuplicateEvents, ReorderEvents, inject
from repro.resilience.validate import validate_events, validate_trace
from repro.trace.columnar import OPTIONAL_MIN, TraceColumns
from repro.trace.events import EventKind, TraceEvent
from repro.trace.io import read_trace, write_trace
from repro.trace.trace import Trace

from tests.conftest import build_toy_doacross

CONSTANTS = calibrate_analysis_constants(FX80, InstrumentationCosts())
MEASURED = Executor(seed=42).run(build_toy_doacross(trips=20), PLAN_FULL).trace

kinds = st.sampled_from(list(EventKind))
names = st.one_of(st.none(), st.text(min_size=1, max_size=6))
times = st.integers(min_value=0, max_value=2**48)
maybe_index = st.one_of(st.none(), st.integers(min_value=-4, max_value=100))

events = st.builds(
    TraceEvent,
    time=times,
    thread=st.integers(min_value=0, max_value=12),
    kind=kinds,
    eid=st.integers(min_value=-1, max_value=500),
    seq=st.integers(min_value=-1, max_value=10_000),
    iteration=maybe_index,
    sync_var=names,
    sync_index=maybe_index,
    label=st.text(max_size=8),
    overhead=st.integers(min_value=0, max_value=1000),
)
event_lists = st.lists(events, max_size=60)

# Adversarial variant: a tiny time domain guarantees duplicate timestamps
# (and duplicate (time, seq) pairs), and the optional-index domain reaches
# down to the edge of the representable range, one above the None sentinel.
# The wide strategies above essentially never generate either.
dup_times = st.integers(min_value=0, max_value=3)
edge_index = st.one_of(
    st.none(),
    st.integers(min_value=-4, max_value=100),
    st.integers(min_value=OPTIONAL_MIN, max_value=OPTIONAL_MIN + 2),
)
dup_events = st.builds(
    TraceEvent,
    time=dup_times,
    thread=st.integers(min_value=0, max_value=3),
    kind=kinds,
    eid=st.integers(min_value=-1, max_value=20),
    seq=st.integers(min_value=-1, max_value=5),
    iteration=edge_index,
    sync_var=names,
    sync_index=edge_index,
    label=st.text(max_size=4),
    overhead=st.integers(min_value=0, max_value=50),
)
dup_event_lists = st.lists(dup_events, max_size=40)


def columnar_copy(trace: Trace) -> Trace:
    """Same trace, columnar-backed (fresh columns, no shared cache)."""
    return Trace.from_columns(
        TraceColumns.from_events(trace.events), dict(trace.meta)
    )


@settings(max_examples=60, deadline=None)
@given(event_lists)
def test_columns_roundtrip_any_events(evs):
    cols = TraceColumns.from_events(evs)
    assert cols.to_events() == evs


@settings(max_examples=40, deadline=None)
@given(event_lists)
def test_trace_backends_agree_after_normalization(evs):
    obj = Trace(list(evs), {"n": 1})
    col = Trace.from_columns(TraceColumns.from_events(evs), {"n": 1})
    assert col.events == obj.events
    assert col.threads == obj.threads
    for t in obj.threads:
        assert col.thread(t).events == obj.thread(t).events
        assert col.thread(t).start_time == obj.thread(t).start_time
        assert col.thread(t).end_time == obj.thread(t).end_time


@settings(max_examples=30, deadline=None)
@given(event_lists)
def test_rpt_roundtrip_any_trace(evs):
    trace = Trace(list(evs), {"program": "prop", "n_threads": 13})
    buf = io.BytesIO()
    write_trace(trace, buf)
    buf.seek(0)
    back = read_trace(buf)
    assert back.events == trace.events
    assert back.meta == trace.meta


@settings(max_examples=20, deadline=None)
@given(event_lists)
def test_jsonl_and_rpt_agree(evs):
    trace = Trace(list(evs), {"program": "prop"})
    text = io.StringIO()
    write_trace(trace, text)
    text.seek(0)
    via_jsonl = read_trace(text)
    raw = io.BytesIO()
    write_trace(trace, raw)
    raw.seek(0)
    via_rpt = read_trace(raw)
    assert via_jsonl.events == via_rpt.events
    assert via_jsonl.meta == via_rpt.meta


@settings(max_examples=40, deadline=None)
@given(event_lists)
def test_validate_agrees_across_backends(evs):
    obj = Trace(list(evs), {"n": 1})
    col = columnar_copy(obj)
    expected = validate_events(obj.events, sem_capacities=None)
    assert validate_trace(col) == expected


@settings(max_examples=60, deadline=None)
@given(dup_event_lists)
def test_backends_agree_on_duplicate_timestamps(evs):
    """Equal-timestamp ordering matches across storage backends.

    Regression guard for the tie-breaking rules: the object path keeps
    input order among equal ``(time, seq)`` keys, and the columnar path
    (stable argsort / lexsort plus the relaxed ``is_sorted`` tie rule)
    must do exactly the same.
    """
    obj = Trace(list(evs), {"n": 1})
    col = Trace.from_columns(TraceColumns.from_events(evs), {"n": 1})
    assert col.events == obj.events
    assert col.threads == obj.threads
    for t in obj.threads:
        assert col.thread(t).events == obj.thread(t).events


@settings(max_examples=30, deadline=None)
@given(dup_event_lists)
def test_rpt_roundtrip_duplicate_timestamps_and_edge_indices(evs):
    """Packed format is lossless under ties and near-sentinel indices."""
    trace = Trace(list(evs), {"program": "prop-dup"})
    buf = io.BytesIO()
    write_trace(trace, buf)
    buf.seek(0)
    back = read_trace(buf)
    assert back.events == trace.events
    text = io.StringIO()
    write_trace(trace, text)
    text.seek(0)
    assert read_trace(text).events == trace.events


def assert_same_approximation(a, b):
    assert a.times == b.times  # every approximated timestamp
    assert a.total_time == b.total_time
    assert a.method == b.method
    assert a.trace.events == b.trace.events


def test_time_based_identical_across_backends():
    obj = time_based_approximation(MEASURED, CONSTANTS, backend="object")
    col = time_based_approximation(
        columnar_copy(MEASURED), CONSTANTS, backend="columnar"
    )
    assert_same_approximation(obj, col)


def test_event_based_identical_across_backends():
    obj = event_based_approximation(MEASURED, CONSTANTS)
    col = event_based_approximation(columnar_copy(MEASURED), CONSTANTS)
    assert_same_approximation(obj, col)


faults = st.lists(
    st.one_of(
        st.builds(DropEvents,
                  fraction=st.floats(min_value=0.05, max_value=0.6),
                  kinds=st.none(), thread=st.none()),
        st.builds(DuplicateEvents,
                  fraction=st.floats(min_value=0.05, max_value=0.4)),
        st.builds(ReorderEvents,
                  fraction=st.floats(min_value=0.05, max_value=0.4)),
    ),
    min_size=1, max_size=2,
)


@settings(max_examples=15, deadline=None)
@given(faults, st.integers(min_value=0, max_value=2**16),
       st.sampled_from(["repair", "skip"]))
def test_degraded_analysis_identical_across_backends(fault_list, seed, policy):
    broken = inject(MEASURED, fault_list, seed=seed)
    obj = time_based_approximation(
        broken, CONSTANTS, policy=policy, backend="object"
    )
    col = time_based_approximation(
        columnar_copy(broken), CONSTANTS, policy=policy, backend="columnar"
    )
    assert obj.times == col.times
    assert obj.total_time == col.total_time
    assert obj.trace.events == col.trace.events
    assert obj.diagnostics == col.diagnostics
    # The event-based resolver can legitimately give up on badly damaged
    # traces (AnalysisError from its bounded repair loop); the equivalence
    # contract is that both backends reach the *same* outcome, success or
    # failure.
    try:
        ev_obj = event_based_approximation(broken, CONSTANTS, policy=policy)
    except AnalysisError as exc:
        ev_obj = type(exc)
    try:
        ev_col = event_based_approximation(
            columnar_copy(broken), CONSTANTS, policy=policy
        )
    except AnalysisError as exc:
        ev_col = type(exc)
    if isinstance(ev_obj, type) or isinstance(ev_col, type):
        assert ev_obj == ev_col
    else:
        assert ev_obj.times == ev_col.times
        assert ev_obj.trace.events == ev_col.trace.events
