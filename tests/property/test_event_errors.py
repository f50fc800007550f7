"""Property tests: columnar ``per_event_errors`` equals the dict oracle.

The production matcher sorts both traces' columns together and pairs the
k-th occurrence of each identity; the oracle keys ``TraceEvent`` objects
in dicts.  Every :class:`EventErrorStats` field must be identical,
floats included, on random traces built to collide: a few threads, eids
and sync variables, repeated identities, ``None`` iteration/sync fields,
and sync-variable tables interned in different orders.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis import (
    event_based_approximation,
    per_event_errors,
    time_based_approximation,
)
from repro.analysis.approximation import Approximation
from repro.analysis.errors import EventErrorStats
from repro.experiments import QUICK_CONFIG
from repro.experiments.accuracy import accuracy_specs
from repro.runtime import simulate_many
from repro.trace.columnar import TraceColumns
from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import Trace

from tests.analysis.errors_oracle import per_event_errors_reference

KINDS = [EventKind.STMT, EventKind.ADVANCE, EventKind.AWAIT_B,
         EventKind.AWAIT_E, EventKind.BARRIER_ARRIVE]
maybe_small = st.one_of(st.none(), st.integers(min_value=-1, max_value=2))

events = st.builds(
    TraceEvent,
    time=st.integers(min_value=0, max_value=2**40),
    thread=st.integers(min_value=0, max_value=2),
    kind=st.sampled_from(KINDS),
    eid=st.integers(min_value=0, max_value=3),
    seq=st.just(-1),
    iteration=maybe_small,
    sync_var=st.sampled_from([None, "a", "b", "c"]),
    sync_index=maybe_small,
    label=st.sampled_from(["", "L"]),
)
event_lists = st.lists(events, max_size=50)
kind_filters = st.one_of(st.none(), st.sets(st.sampled_from(KINDS), max_size=3))


def _approx(trace: Trace) -> Approximation:
    return Approximation(
        trace=trace, method="test", total_time=trace.end_time,
        times={e.seq: e.time for e in trace},
    )


def _columnar(trace: Trace) -> Trace:
    """The same trace, column-backed (as cached and simulated traces are)."""
    return Trace.from_columns(TraceColumns.from_events(trace.events), trace.meta)


def _check(a_events, b_events, kinds) -> EventErrorStats:
    a, b = Trace(a_events), Trace(b_events)
    expected = per_event_errors_reference(_approx(a), b, kinds)
    assert per_event_errors(_approx(a), b, kinds) == expected
    assert per_event_errors(_approx(_columnar(a)), _columnar(b), kinds) == expected
    return expected


@settings(max_examples=300, deadline=None)
@given(event_lists, event_lists, kind_filters)
def test_columnar_matches_oracle(a_events, b_events, kinds):
    _check(a_events, b_events, kinds)


@settings(max_examples=100, deadline=None)
@given(event_lists, st.integers(min_value=-1000, max_value=1000), kind_filters)
def test_retimed_copy_matches_every_event(a_events, shift, kinds):
    """A re-timed copy matches each selected event once (repeated
    identities pair up by occurrence) with the same signed shift."""
    b_events = [e.with_time(e.time + 2000 + shift) for e in a_events]
    stats = _check(b_events, a_events, kinds)
    selected = [e for e in a_events if kinds is None or e.kind in kinds]
    assert stats.n_matched == len(selected)
    if selected:
        assert stats.mean_signed_error == 2000 + shift


def test_sync_var_tables_interned_in_different_orders():
    """Two traces whose string tables list the same names in opposite
    orders: matching goes by name, not by table index."""
    def ev(time, var, index):
        return TraceEvent(time=time, thread=0, kind=EventKind.ADVANCE, eid=1,
                          iteration=index, sync_var=var, sync_index=index)

    a = Trace([ev(10, "x", 0), ev(20, "y", 0), ev(30, "x", 1)])
    b = Trace([ev(5, "y", 0), ev(6, "x", 0), ev(7, "x", 1)])
    assert a.columns.sync_var_table == ("x", "y")
    assert b.columns.sync_var_table == ("y", "x")
    stats = per_event_errors(_approx(a), b)
    assert stats == per_event_errors_reference(_approx(a), b)
    assert stats.n_matched == 3
    assert stats.mean_signed_error == (4 + 15 + 23) / 3


def test_empty_and_disjoint():
    empty = Trace([])
    one = Trace([TraceEvent(time=3, thread=0, kind=EventKind.STMT, eid=0)])
    zero = EventErrorStats(0, 0.0, 0, 0.0, 0.0)
    assert per_event_errors(_approx(empty), empty) == zero
    assert per_event_errors(_approx(one), empty) == zero
    assert per_event_errors(_approx(empty), one) == zero
    assert per_event_errors(_approx(one), one, kinds=set()) == zero
    assert per_event_errors(_approx(one), one, kinds={EventKind.ADVANCE}) == zero


def test_accuracy_experiment_inputs_match_oracle():
    """Exact equality on the traces the accuracy experiment scores."""
    config = QUICK_CONFIG
    constants = config.constants()
    results = simulate_many(accuracy_specs(config))
    pairs = [(time_based_approximation(results[1].trace, constants), results[0])]
    for i in range(2, len(results), 2):
        pairs.append(
            (event_based_approximation(results[i + 1].trace, constants), results[i])
        )
    assert len(pairs) == 4
    for approx, actual in pairs:
        stats = per_event_errors(approx, actual.trace)
        assert stats.n_matched > 100
        assert stats == per_event_errors_reference(approx, actual.trace)
