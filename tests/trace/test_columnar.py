"""Tests for the struct-of-arrays trace backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import Executor
from repro.instrument.plan import PLAN_FULL
from repro.trace.columnar import (
    NONE_SENTINEL,
    OPTIONAL_MAX,
    OPTIONAL_MIN,
    StringTable,
    TraceColumns,
    kind_code_mask,
    overhead_table,
)
from repro.trace.events import KIND_CODE, KIND_LIST, EventKind, TraceEvent
from repro.trace.stats import trace_stats
from repro.trace.trace import ThreadView, Trace

from tests.conftest import build_toy_doacross


def sample_events():
    return [
        TraceEvent(time=5, thread=0, kind=EventKind.PROG_BEGIN, seq=0),
        TraceEvent(time=9, thread=0, kind=EventKind.STMT, eid=3, seq=1,
                   iteration=0, label="work", overhead=128),
        TraceEvent(time=11, thread=1, kind=EventKind.ADVANCE, eid=4, seq=2,
                   iteration=1, sync_var="A", sync_index=-1, overhead=64),
        TraceEvent(time=15, thread=1, kind=EventKind.AWAIT_B, eid=5, seq=3,
                   sync_var="A", sync_index=0),
        TraceEvent(time=20, thread=0, kind=EventKind.PROG_END, seq=4),
    ]


def columnar_trace(events, meta=None):
    return Trace.from_columns(TraceColumns.from_events(events), meta)


class TestStringTable:
    def test_intern_dedupes(self):
        t = StringTable()
        assert t.intern("A") == 0
        assert t.intern("B") == 1
        assert t.intern("A") == 0
        assert len(t) == 2

    def test_none_is_minus_one(self):
        t = StringTable()
        assert t.intern(None) == -1
        assert t.lookup(-1) is None
        assert t.lookup(t.intern("x")) == "x"

    def test_rebuild_from_strings(self):
        t = StringTable(["A", "B"])
        assert t.intern("B") == 1
        assert t.intern("C") == 2


class TestTraceColumns:
    def test_roundtrip_exact(self):
        events = sample_events()
        cols = TraceColumns.from_events(events)
        assert len(cols) == len(events)
        assert cols.to_events() == events
        assert [cols.event(i) for i in range(len(cols))] == events

    def test_none_sentinels(self):
        cols = TraceColumns.from_events(sample_events())
        assert cols.iteration[0] == NONE_SENTINEL  # PROG_BEGIN: None
        assert cols.iteration[1] == 0
        assert cols.sync_index[2] == -1  # negative index is a real value
        assert cols.sync_index[0] == NONE_SENTINEL

    def test_kind_codes_follow_declaration_order(self):
        cols = TraceColumns.from_events(sample_events())
        assert KIND_LIST[cols.kind[0]] is EventKind.PROG_BEGIN
        assert all(KIND_CODE[KIND_LIST[i]] == i for i in range(len(KIND_LIST)))

    def test_take_and_replace(self):
        cols = TraceColumns.from_events(sample_events())
        sub = cols.take(np.array([1, 2]))
        assert sub.to_events() == sample_events()[1:3]
        shifted = cols.replace(time=cols.time + 100)
        assert shifted.to_events()[0].time == 105

    def test_is_sorted_and_sorting(self):
        cols = TraceColumns.from_events(sample_events())
        assert cols.is_sorted()
        shuffled = cols.take(np.array([3, 0, 4, 1, 2]))
        assert not shuffled.is_sorted()
        assert shuffled.sorted_by_time_seq().to_events() == sample_events()

    def test_sorted_noop_returns_self(self):
        cols = TraceColumns.from_events(sample_events())
        assert cols.sorted_by_time_seq() is cols

    def test_stamped_seq(self):
        events = [
            TraceEvent(time=9, thread=0, kind=EventKind.STMT, seq=-1),
            TraceEvent(time=5, thread=0, kind=EventKind.STMT, seq=-1),
        ]
        stamped = TraceColumns.from_events(events).stamped_seq()
        assert stamped.time.tolist() == [5, 9]
        assert stamped.seq.tolist() == [0, 1]

    def test_thread_order_is_stable(self):
        cols = TraceColumns.from_events(sample_events())
        ids, groups = cols.thread_order()
        assert ids == [0, 1]
        assert groups[0].tolist() == [0, 1, 4]
        assert groups[1].tolist() == [2, 3]

    def test_equals_ignores_table_permutation(self):
        events = sample_events()
        a = TraceColumns.from_events(events)
        b = TraceColumns.from_events(list(events))
        assert a.equals(b)
        assert not a.equals(a.take(np.array([0, 1])))

    def test_mask_and_overhead_table(self):
        from repro.instrument.costs import InstrumentationCosts

        cols = TraceColumns.from_events(sample_events())
        mask = kind_code_mask(cols.kind, EventKind.ADVANCE, EventKind.AWAIT_B)
        assert mask.tolist() == [False, False, True, True, False]
        table = overhead_table(InstrumentationCosts())
        per_event = table[cols.kind]
        assert per_event[1] == 128 and per_event[2] == 64


class TestColumnarTrace:
    def test_lazy_materialization(self):
        tr = columnar_trace(sample_events(), {"program": "t"})
        assert tr.has_columns
        assert tr._events is None  # nothing materialized yet
        assert len(tr) == 5
        assert tr.start_time == 5 and tr.end_time == 20
        assert tr._events is None  # len/timing read the columns
        assert tr.events == sample_events()  # now materialized, cached
        assert tr.events is tr.events

    def test_columns_cached_on_object_trace(self):
        tr = Trace(sample_events())
        assert not tr.has_columns
        cols = tr.columns
        assert tr.has_columns
        assert tr.columns is cols

    def test_from_columns_normalizes_unsorted(self):
        cols = TraceColumns.from_events(sample_events())
        shuffled = cols.take(np.array([4, 2, 0, 3, 1]))
        tr = Trace.from_columns(shuffled)
        assert [e.seq for e in tr.events] == [0, 1, 2, 3, 4]

    def test_from_columns_stamps_missing_seq(self):
        events = [
            TraceEvent(time=9, thread=0, kind=EventKind.STMT, seq=-1),
            TraceEvent(time=5, thread=0, kind=EventKind.STMT, seq=-1),
        ]
        tr = Trace.from_columns(TraceColumns.from_events(events))
        assert [(e.time, e.seq) for e in tr] == [(5, 0), (9, 1)]

    def test_by_thread_lazy_views(self):
        tr = columnar_trace(sample_events())
        views = tr.by_thread()
        assert sorted(views) == [0, 1]
        assert tr._events is None  # grouping never built objects
        v0 = views[0]
        assert len(v0) == 3
        assert v0.start_time == 5 and v0.end_time == 20
        assert tr._events is None  # neither did span probing
        assert [e.seq for e in v0] == [0, 1, 4]
        assert v0[1].kind is EventKind.STMT

    def test_threadview_eq_across_backends(self):
        obj = Trace(sample_events()).by_thread()[0]
        col = columnar_trace(sample_events()).by_thread()[0]
        assert obj == col

    def test_relabelled_keeps_columnar_backend(self):
        tr = columnar_trace(sample_events(), {"kind": "measured"})
        re = tr.relabelled(kind="approximated")
        assert re.has_columns and re._events is None
        assert re.meta["kind"] == "approximated"
        assert re.events == tr.events

    def test_matches_executor_trace(self):
        measured = Executor(seed=5).run(
            build_toy_doacross(trips=12), PLAN_FULL
        ).trace
        back = Trace.from_columns(measured.columns, measured.meta)
        assert back.events == measured.events
        assert back.threads == measured.threads


class TestStatsFromColumns:
    def test_stats_identical_across_backends(self):
        measured = Executor(seed=5).run(
            build_toy_doacross(trips=12), PLAN_FULL
        ).trace
        obj_stats = trace_stats(Trace(list(measured.events), measured.meta))
        col_stats = trace_stats(
            Trace.from_columns(measured.columns, measured.meta)
        )
        assert obj_stats == col_stats

    def test_stats_creates_no_event_objects(self, monkeypatch):
        tr = columnar_trace(sample_events(), {"program": "t"})
        created = []
        original = TraceEvent.__init__

        def counting(self, *args, **kwargs):
            created.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(TraceEvent, "__init__", counting)
        stats = trace_stats(tr)
        assert created == []  # streamed from columns, zero materialization
        assert stats.n_events == 5
        assert stats.by_kind["stmt"] == 1
        assert stats.sync_vars == ("A",)


class TestSortednessGuards:
    def test_sortedness_probes(self):
        from repro.trace import trace as trace_mod

        events = sample_events()
        assert trace_mod._is_time_seq_sorted(events)
        assert trace_mod._is_time_sorted(events)
        assert not trace_mod._is_time_sorted(list(reversed(events)))
        # Equal times with descending seq: time-sorted but not (time, seq).
        a = TraceEvent(time=5, thread=0, kind=EventKind.STMT, seq=1)
        b = TraceEvent(time=5, thread=0, kind=EventKind.STMT, seq=0)
        assert trace_mod._is_time_sorted([a, b])
        assert not trace_mod._is_time_seq_sorted([a, b])

    def test_trace_init_preserves_sorted_input(self):
        events = sample_events()
        tr = Trace(events)
        assert tr.events == events

    def test_unsorted_input_still_sorted(self):
        events = list(reversed(sample_events()))
        tr = Trace(events)
        assert [e.seq for e in tr] == [0, 1, 2, 3, 4]

    def test_equal_timestamps_preserve_given_order_when_stamping(self):
        a = TraceEvent(time=5, thread=0, kind=EventKind.STMT, eid=1)
        b = TraceEvent(time=5, thread=1, kind=EventKind.STMT, eid=2)
        tr = Trace([a, b])
        assert [e.eid for e in tr] == [1, 2]


class TestOptionalFieldRange:
    """int64-min is the None sentinel; packing must refuse it loudly."""

    def _event(self, **kwargs):
        return TraceEvent(time=1, thread=0, kind=EventKind.STMT, eid=0,
                          seq=0, **kwargs)

    @pytest.mark.parametrize("field", ["iteration", "sync_index"])
    def test_sentinel_value_rejected(self, field):
        # Regression: this used to pack silently and come back as None.
        with pytest.raises(ValueError, match=field):
            TraceColumns.from_events([self._event(**{field: NONE_SENTINEL})])

    @pytest.mark.parametrize("field", ["iteration", "sync_index"])
    @pytest.mark.parametrize("value", [OPTIONAL_MIN, OPTIONAL_MIN + 1,
                                       -1, 0, OPTIONAL_MAX])
    def test_range_extremes_round_trip(self, field, value):
        cols = TraceColumns.from_events([self._event(**{field: value})])
        assert getattr(cols.to_events()[0], field) == value

    def test_near_sentinel_survives_rpt_round_trip(self, tmp_path):
        from repro.trace.io import read_trace, write_trace

        events = [
            self._event(iteration=OPTIONAL_MIN, sync_index=OPTIONAL_MIN),
            TraceEvent(time=2, thread=0, kind=EventKind.PROG_END, seq=1),
        ]
        path = tmp_path / "near-sentinel.rpt"
        write_trace(Trace(events), path, format="rpt")
        back = read_trace(path)
        assert back.events[0].iteration == OPTIONAL_MIN
        assert back.events[0].sync_index == OPTIONAL_MIN

    def test_none_still_packs_to_sentinel(self):
        cols = TraceColumns.from_events([self._event()])
        assert cols.iteration[0] == NONE_SENTINEL
        assert cols.to_events()[0].iteration is None

    def test_equal_time_seq_pairs_count_as_sorted(self):
        """is_sorted must accept what the object-path probe accepts.

        Regression: duplicate (time, seq) pairs used to flunk only the
        columnar probe, sending one backend through a re-sort.
        """
        from repro.trace.trace import _is_time_seq_sorted

        a = TraceEvent(time=5, thread=0, kind=EventKind.STMT, seq=3)
        b = TraceEvent(time=5, thread=1, kind=EventKind.STMT, seq=3)
        events = [a, b]
        assert _is_time_seq_sorted(events)
        assert TraceColumns.from_events(events).is_sorted()
        # Strictly decreasing seq at a tie still fails both probes.
        c = TraceEvent(time=5, thread=1, kind=EventKind.STMT, seq=2)
        assert not _is_time_seq_sorted([a, c])
        assert not TraceColumns.from_events([a, c]).is_sorted()
