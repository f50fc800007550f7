"""Trace resilience: fault injection, validation, and best-effort repair.

Measured traces are already distorted artifacts (the paper's premise), and
real tracing systems additionally lose, duplicate, and reorder events under
buffer pressure.  This package lets the pipeline face such traces head on:

* :mod:`repro.resilience.inject` — composable, seed-deterministic fault
  injectors over :class:`~repro.trace.trace.Trace` objects, for testing and
  benchmarking the rest of the stack;
* :mod:`repro.resilience.validate` — a streaming validator emitting
  structured :class:`~repro.resilience.validate.Diagnostic` records instead
  of raising on the first problem;
* :mod:`repro.resilience.repair` — best-effort repair that re-pairs sync
  events, quarantines unrecoverable per-thread segments, and interpolates
  missing timestamps, returning a
  :class:`~repro.resilience.repair.RepairReport` of everything it changed.

The analysis layer consumes these through its ``policy`` parameter
(``"strict"`` / ``"repair"`` / ``"skip"``); see
:func:`repro.analysis.event_based_approximation`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".inject": (
        "Fault",
        "DropEvents",
        "DuplicateEvents",
        "ReorderEvents",
        "ClockSkew",
        "CorruptFields",
        "Truncate",
        "inject",
    ),
    ".validate": (
        "Severity",
        "Diagnostic",
        "StreamingValidator",
        "validate_trace",
        "validate_file",
        "error_count",
    ),
    ".repair": (
        "RepairAction",
        "RepairReport",
        "RepairResult",
        "SYNTHESIZED_MARK",
        "is_synthesized",
        "repair_trace",
    ),
})
