"""Event-trace model: events, traces, partial orders, and trace file I/O.

Terminology follows the paper (§2): a *logical event trace* τ is the
time-ordered event sequence of the uninstrumented ("actual") execution; a
*measured event trace* τ_m is the trace captured by instrumentation and
reflects the perturbed execution.  Perturbation analysis
(:mod:`repro.analysis`) maps τ_m to an *approximated* trace τ_a.
"""

from repro.trace.events import (
    EventKind,
    TraceEvent,
    SYNC_KINDS,
    KIND_LIST,
    KIND_CODE,
    is_sync_kind,
    kind_from_value,
)
from repro.trace.trace import Trace, ThreadView, TraceError
from repro.trace.columnar import NONE_SENTINEL, StringTable, TraceColumns
from repro.trace.order import (
    happened_before_pairs,
    sync_partial_order,
    verify_causality,
    verify_feasible,
    CausalityViolation,
)
from repro.trace.io import write_trace, read_trace
from repro.trace.stream import (
    ChunkReader,
    stream_time_based,
    stream_trace_stats,
    stream_validate,
)
from repro.trace.slice import FileSliceResult, slice_file, slice_trace
from repro.trace.query import Predicate, QueryError, QueryResult, parse_where, run_query

__all__ = [
    "FileSliceResult",
    "slice_file",
    "slice_trace",
    "Predicate",
    "QueryError",
    "QueryResult",
    "parse_where",
    "run_query",
    "ChunkReader",
    "stream_time_based",
    "stream_trace_stats",
    "stream_validate",
    "EventKind",
    "TraceEvent",
    "SYNC_KINDS",
    "KIND_LIST",
    "KIND_CODE",
    "is_sync_kind",
    "kind_from_value",
    "NONE_SENTINEL",
    "StringTable",
    "TraceColumns",
    "Trace",
    "ThreadView",
    "TraceError",
    "happened_before_pairs",
    "sync_partial_order",
    "verify_causality",
    "verify_feasible",
    "CausalityViolation",
    "write_trace",
    "read_trace",
]
