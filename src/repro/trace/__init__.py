"""Event-trace model: events, traces, partial orders, and trace file I/O.

Terminology follows the paper (§2): a *logical event trace* τ is the
time-ordered event sequence of the uninstrumented ("actual") execution; a
*measured event trace* τ_m is the trace captured by instrumentation and
reflects the perturbed execution.  Perturbation analysis
(:mod:`repro.analysis`) maps τ_m to an *approximated* trace τ_a.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".slice": ("FileSliceResult", "slice_file", "slice_trace"),
    ".query": ("Predicate", "QueryError", "QueryResult", "parse_where", "run_query"),
    ".stream": (
        "ChunkReader",
        "stream_time_based",
        "stream_trace_stats",
        "stream_validate",
    ),
    ".events": (
        "EventKind",
        "TraceEvent",
        "SYNC_KINDS",
        "KIND_LIST",
        "KIND_CODE",
        "is_sync_kind",
        "kind_from_value",
    ),
    ".columnar": ("NONE_SENTINEL", "StringTable", "TraceColumns"),
    ".trace": ("Trace", "ThreadView", "TraceError"),
    ".order": (
        "happened_before_pairs",
        "sync_partial_order",
        "verify_causality",
        "verify_feasible",
        "CausalityViolation",
    ),
    ".io": ("write_trace", "read_trace"),
})
