"""Time-based perturbation analysis (§3).

Model assumption: events are execution-independent, so an event's true time
differs from its measured time only by the accumulated instrumentation
overhead on its own thread.  Along each thread::

    t_a(e_1) = t_m(e_1) - overhead(e_1)
    t_a(e_k) = t_a(e_{k-1}) + [t_m(e_k) - t_m(e_{k-1})] - overhead(e_k)

i.e. inter-event intervals are preserved minus the probe cost charged at the
later event.  This is exact for sequential and vector execution, where the
execution states form a total order and event times are affected only by
instrumentation overhead.  For dependent concurrent execution it fails in
both directions (Table 1): waiting that instrumentation *removed* is not
reintroduced (loops 3/4 → under-approximation) and waiting that
instrumentation *caused* is not removed (loop 17 → over-approximation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.analysis.approximation import (
    AnalysisError,
    Approximation,
    build_approx_trace,
    check_policy,
)
from repro.instrument.costs import AnalysisConstants, InstrumentationCosts
from repro.obs import core as obs
from repro.trace import columnar as _columnar
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.repair import RepairReport
    from repro.resilience.validate import Diagnostic

#: Analysis backends accepted by :func:`time_based_approximation`.
BACKENDS = ("auto", "columnar", "object", "streaming")

#: Above this many events ``backend="auto"`` picks the streaming fold:
#: identical output, but the working set drops from whole-trace delta
#: arrays to one chunk's worth.
STREAMING_AUTO_THRESHOLD = 1 << 20


def _per_event_times(measured: Trace, costs: InstrumentationCosts) -> dict[int, int]:
    """Reference implementation: per-event Python loop over thread views.

    The reference oracle for the columnar and streaming backends (and
    the baseline ``benchmarks/bench_columnar.py`` compares against); the
    vectorized paths must reproduce it value-for-value.
    """
    times: dict[int, int] = {}
    for view in measured.by_thread().values():
        prev_tm: Optional[int] = None
        prev_ta: Optional[int] = None
        for e in view:
            overhead = costs.overhead_for(e.kind)
            if prev_tm is None:
                ta = e.time - overhead
            else:
                ta = prev_ta + (e.time - prev_tm) - overhead
            # Overhead mis-calibration (an ablation input) could drive an
            # interval negative; clamp to preserve thread order.
            if prev_ta is not None and ta < prev_ta:
                ta = prev_ta
            if ta < 0:
                ta = 0
            times[e.seq] = ta
            prev_tm, prev_ta = e.time, ta
    return times


def _vectorized_times(measured: Trace, costs: InstrumentationCosts) -> dict[int, int]:
    """Columnar implementation: per-thread cumulative sums, no event loop.

    Along one thread the recurrence ``t_a(e_k) = t_a(e_{k-1}) +
    max(0, Δt_m - overhead_k)`` (with ``t_a(e_1) = max(0, t_m(e_1) -
    overhead_1)``) is exactly the loop in :func:`_per_event_times` — the
    clamp-to-previous rule is the same as clipping each interval at zero —
    so the whole thread reduces to one ``cumsum`` over clipped deltas.
    """
    np = _columnar.np
    cols = measured.columns
    per_kind = _columnar.overhead_table(costs)
    overhead = per_kind[cols.kind]
    ta_all = np.empty(len(cols), dtype=np.int64)
    for _tid, idx in zip(*cols.thread_order()):
        tm = cols.time[idx]
        ov = overhead[idx]
        deltas = np.empty(len(idx), dtype=np.int64)
        deltas[0] = max(0, int(tm[0]) - int(ov[0]))
        if len(idx) > 1:
            np.subtract(tm[1:], tm[:-1], out=deltas[1:])
            deltas[1:] -= ov[1:]
            np.maximum(deltas[1:], 0, out=deltas[1:])
        ta_all[idx] = np.cumsum(deltas)
    return dict(zip(cols.seq.tolist(), ta_all.tolist()))


def _streaming_times(
    measured: Trace,
    costs: InstrumentationCosts,
    chunk_events: Optional[int] = None,
) -> dict[int, int]:
    """Chunked implementation: the columnar cumsum run slice-by-slice.

    Drives :class:`repro.trace.stream.TimeBasedFold` over contiguous
    column slices, exactly the pass :func:`repro.trace.stream.stream_time_based`
    runs over a v3 file's chunks — so the audit pair that pins
    streaming == columnar on in-memory traces covers the on-file path's
    arithmetic too.  Output is identical to :func:`_vectorized_times`
    (cumsum associativity; see the fold's docstring).
    """
    from repro.trace.binio import DEFAULT_CHUNK_EVENTS
    from repro.trace.stream import TimeBasedFold

    np = _columnar.np
    cols = measured.columns
    n = len(cols)
    step = chunk_events if chunk_events else DEFAULT_CHUNK_EVENTS
    fold = TimeBasedFold(_columnar.overhead_table(costs))
    ta_all = np.empty(n, dtype=np.int64)
    for start in range(0, n, step):
        stop = min(start + step, n)
        ta_all[start:stop] = fold.feed(cols.slice(start, stop))
    return dict(zip(cols.seq.tolist(), ta_all.tolist()))


def time_based_approximation(
    measured: Trace,
    constants: AnalysisConstants,
    policy: str = "strict",
    *,
    backend: str = "auto",
) -> Approximation:
    """Apply the time-based model to a measured trace.

    ``constants.costs`` supplies the per-event-kind overheads to remove
    (the paper's in-vitro measured instrumentation costs).

    Thread anchoring: the first event on each thread is anchored at its
    measured absolute time minus its own overhead.  The model has no
    inter-thread knowledge, so lateness a thread inherited from *another*
    thread's instrumented execution (e.g. an inflated sequential prologue
    delaying loop start) is retained — one of the systematic errors
    event-based analysis corrects.

    ``policy``: ``"strict"`` analyzes the trace as-is (the model itself
    never interprets sync structure, so it only rejects empty or
    uninstrumented traces); ``"repair"`` / ``"skip"`` first validate and
    mend/drop damage (missing timestamps, clock regressions, broken sync
    structure) via :mod:`repro.resilience`, attaching diagnostics and the
    repair report to the result.

    ``backend``: ``"columnar"`` runs the vectorized per-thread cumsum over
    ``measured.columns``; ``"streaming"`` runs the same cumsum
    chunk-by-chunk with per-thread carry state (bounded working set, the
    arithmetic behind :func:`repro.trace.stream.stream_time_based`);
    ``"object"`` runs the per-event reference oracle; ``"auto"`` (default)
    picks columnar, switching to streaming above
    :data:`STREAMING_AUTO_THRESHOLD` events.  All backends produce
    identical results (property- and audit-tested).
    """
    check_policy(policy)
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown analysis backend {backend!r}; expected one of {BACKENDS}"
        )
    diagnostics: list[Diagnostic] = []
    report: Optional[RepairReport] = None
    if policy != "strict":
        from repro.resilience.repair import repair_trace
        from repro.resilience.validate import validate_trace

        diagnostics = validate_trace(measured)
        result = repair_trace(measured, mode=policy)
        measured, report = result.trace, result.report
    if not len(measured):
        raise AnalysisError("cannot analyze an empty trace")
    if not measured.meta.get("instrumented", True):
        raise AnalysisError(
            "trace is not a measured (instrumented) trace; nothing to remove"
        )
    if backend == "auto":
        backend = (
            "streaming" if len(measured) > STREAMING_AUTO_THRESHOLD
            else "columnar"
        )
    with obs.span(
        "analysis.timebased", backend=backend, n_events=len(measured)
    ):
        if backend == "columnar":
            times = _vectorized_times(measured, constants.costs)
        elif backend == "streaming":
            times = _streaming_times(measured, constants.costs)
        else:
            times = _per_event_times(measured, constants.costs)
    total = max(times.values())
    return Approximation(
        trace=build_approx_trace(measured, times, "time-based"),
        method="time-based",
        total_time=total,
        times=times,
        source_meta=dict(measured.meta),
        diagnostics=diagnostics,
        repair_report=report,
    )
