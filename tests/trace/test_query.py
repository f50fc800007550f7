"""Unit tests for the vectorized trace query engine (repro.trace.query)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import Executor
from repro.instrument.plan import PLAN_FULL
from repro.trace.events import EventKind
from repro.trace.io import write_trace
from repro.trace.query import (
    Predicate,
    QueryError,
    parse_where,
    run_query,
)

from tests.conftest import build_toy_doacross


@pytest.fixture(scope="module")
def measured():
    return Executor(seed=3).run(build_toy_doacross(trips=60), PLAN_FULL).trace


@pytest.fixture(scope="module")
def v3_file(measured, tmp_path_factory):
    path = tmp_path_factory.mktemp("queries") / "m.rpt"
    write_trace(measured, path, format="v3", chunk_events=64)
    return path


# ------------------------------------------------------------- the parser
def test_parse_where_conjunction():
    preds = parse_where("thread == 3 and kind != advance and time >= 100")
    assert preds == (
        Predicate("thread", "==", 3),
        Predicate("kind", "!=", "advance"),
        Predicate("time", ">=", 100),
    )


def test_parse_where_values():
    assert parse_where("sync_index == none")[0].value is None
    assert parse_where("sync_var == 'TQ'")[0].value == "TQ"
    assert parse_where("label == 7")[0].value == "7"  # strings stay strings
    assert parse_where("eid == -3")[0].value == -3


def test_parse_where_rejects_garbage():
    with pytest.raises(QueryError, match="cannot parse"):
        parse_where("thread === 3")
    with pytest.raises(QueryError, match="unknown query column"):
        parse_where("threads == 3")
    with pytest.raises(QueryError, match="== and !="):
        parse_where("kind < advance")
    with pytest.raises(QueryError, match="EventKind"):
        parse_where("kind == warp")
    with pytest.raises(QueryError, match="integer"):
        parse_where("time == soon")
    with pytest.raises(QueryError, match="none"):
        parse_where("iteration < none")


# ---------------------------------------------------------------- queries
def test_query_filters_match_python_semantics(measured):
    result = run_query(measured, where="thread == 3 and kind == advance")
    want = [e for e in measured
            if e.thread == 3 and e.kind is EventKind.ADVANCE]
    assert result.events == want
    assert result.n_matched == len(want)
    assert result.n_source == len(measured)


def test_optional_column_none_semantics(measured):
    result = run_query(measured, where="sync_index != 3")
    want = [e for e in measured if e.sync_index != 3]  # None != 3 is True
    assert result.events == want
    ordered = run_query(measured, where="sync_index >= 3")
    assert ordered.events == [
        e for e in measured if e.sync_index is not None and e.sync_index >= 3
    ]
    nones = run_query(measured, where="sync_index == none")
    assert nones.events == [e for e in measured if e.sync_index is None]


def test_absent_string_matches_nothing(measured):
    assert run_query(measured, where="sync_var == NOPE").n_matched == 0
    inverted = run_query(measured, where="sync_var != NOPE")
    assert inverted.n_matched == len(measured)


def test_group_by_counts_match_counter(measured):
    from collections import Counter

    result = run_query(measured, where=(), group_by="kind", limit=0)
    want = Counter(e.kind.value for e in measured)
    assert {k: s.count for k, s in result.groups.items()} == dict(want)
    stats = result.groups["advance"]
    times = [e.time for e in measured if e.kind is EventKind.ADVANCE]
    assert (stats.time_min, stats.time_max) == (min(times), max(times))
    assert stats.overhead == sum(
        e.overhead for e in measured if e.kind is EventKind.ADVANCE
    )


def test_group_by_rejects_high_cardinality_columns(measured):
    with pytest.raises(QueryError, match="group by"):
        run_query(measured, group_by="time")


def test_limit_bounds_materialized_events(measured):
    result = run_query(measured, where=(), limit=5)
    assert result.events == measured.events[:5]
    assert result.n_matched == len(measured)  # counting is not limited
    assert run_query(measured, limit=0).events == []


# --------------------------------------------------------------- v3 files
def test_file_query_matches_in_memory(measured, v3_file):
    for where in ("thread == 2", "kind == awaitE and sync_index < 10",
                  "sync_var == 'TQ'"):
        mem = run_query(measured, where=where)
        file = run_query(v3_file, where=where)
        assert file.events == mem.events
        assert file.n_matched == mem.n_matched


def test_file_query_pushdown_prunes_chunks(measured, v3_file):
    # seq is monotone, so a tight seq range proves most chunks irrelevant.
    result = run_query(v3_file, where="seq <= 10")
    assert result.chunks_pruned > 0
    assert result.chunks_scanned < result.chunks_pruned + result.chunks_scanned
    assert result.events == [e for e in measured if e.seq <= 10]
    # An always-true predicate prunes nothing.
    assert run_query(v3_file, where="time >= 0").chunks_pruned == 0


def test_file_query_early_stop_reads_prefix_only(measured, v3_file):
    result = run_query(v3_file, limit=3, stop_after_limit=True)
    assert result.events == measured.events[:3]
    assert result.truncated
    assert result.chunks_scanned == 1  # first chunk already satisfied it


def test_file_group_by_matches_in_memory(measured, v3_file):
    mem = run_query(measured, group_by="thread", limit=0)
    file = run_query(v3_file, group_by="thread", limit=0)
    assert {k: s.as_dict() for k, s in file.groups.items()} == {
        k: s.as_dict() for k, s in mem.groups.items()
    }


def test_optional_pushdown_respects_has_none(measured, v3_file):
    # sync_index == none rows exist in every chunk of this toy trace, so
    # pruning must not discard any chunk for the == none query...
    nones = run_query(v3_file, where="sync_index == none")
    assert nones.events == [e for e in measured if e.sync_index is None]
    # ...and values beyond every chunk's maximum prove a prune.
    big = max(e.sync_index for e in measured if e.sync_index is not None)
    result = run_query(v3_file, where=f"sync_index > {big}")
    assert result.n_matched == 0
    assert result.chunks_pruned == -(-len(measured) // 64)


def test_legacy_stats_without_has_none_never_prune():
    from repro.trace.query import _may_match

    pred = Predicate("sync_index", "==", 5)
    # Sentinel-poisoned legacy bounds (no has_none flag): must scan.
    legacy = {"min": -(2**63), "max": 7}
    assert _may_match(pred, legacy, 5)
    # Fixed bounds prove the same chunk prunable.
    fixed = {"min": 6, "max": 7, "has_none": True}
    assert not _may_match(pred, fixed, 5)
    none_pred = Predicate("sync_index", "==", None)
    from repro.trace.columnar import NONE_SENTINEL

    assert _may_match(none_pred, fixed, NONE_SENTINEL)
    assert not _may_match(
        none_pred, {"min": 6, "max": 7, "has_none": False}, NONE_SENTINEL
    )


def test_predicate_validation():
    with pytest.raises(QueryError, match="only supports"):
        Predicate("sync_var", "<", "TQ")
    with pytest.raises(QueryError, match="integer"):
        Predicate("thread", "==", "three")
    with pytest.raises(QueryError, match="integer"):
        Predicate("thread", "==", True)
    with pytest.raises(QueryError, match="operator"):
        Predicate("thread", "~", 3)
    assert Predicate("kind", "==", EventKind.ADVANCE).value == "advance"


def test_query_result_counters_inert_for_memory_sources(measured):
    result = run_query(measured, where="thread == 0")
    assert result.chunks_scanned == 0 and result.chunks_pruned == 0
    assert not result.truncated
