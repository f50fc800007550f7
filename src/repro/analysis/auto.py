"""Convenience front-end: pick the right analysis for a trace.

``auto_approximation`` inspects the measured trace: if it carries
synchronization identity (paired advance/await, lock, or semaphore
events) the event-based model applies; otherwise only the time-based
model can be used (and a warning is attached when the trace clearly came
from a parallel execution, where time-based results are unreliable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.approximation import AnalysisError, Approximation
from repro.analysis.eventbased import event_based_approximation
from repro.analysis.timebased import time_based_approximation
from repro.instrument.costs import AnalysisConstants
from repro.obs import core as obs
from repro.trace.columnar import kind_code_mask
from repro.trace.events import SYNC_KINDS, EventKind
from repro.trace.trace import Trace


@dataclass(frozen=True)
class AutoResult:
    """An approximation plus how/why the method was chosen."""

    approximation: Approximation
    method: str
    reason: str
    warnings: tuple[str, ...] = ()

    @property
    def total_time(self) -> int:
        return self.approximation.total_time


def _has_sync_identity(trace: Trace) -> bool:
    """True if the trace carries anything the event-based rules can use:
    paired sync events, barrier markers, or loop-entry markers.

    When the columnar form is already realized this is one vectorized
    kind-mask over ``columns.kind`` instead of materializing every event
    object just to look at its kind.
    """
    if trace.has_columns:
        return bool(
            kind_code_mask(
                trace.columns.kind, *SYNC_KINDS, EventKind.LOOP_BEGIN
            ).any()
        )
    return any(
        e.kind in SYNC_KINDS or e.kind is EventKind.LOOP_BEGIN
        for e in trace.events
    )


def _looks_parallel(trace: Trace) -> bool:
    if trace.has_columns:
        thread = trace.columns.thread
        return bool(len(thread)) and bool((thread != thread[0]).any())
    return len(trace.threads) > 1


def auto_approximation(
    measured: Trace,
    constants: AnalysisConstants,
    method: str = "auto",
    *,
    time_backend: str = "auto",
) -> AutoResult:
    """Analyze a measured trace with the best applicable model.

    ``method``: ``"auto"`` (default), ``"event"`` or ``"time"`` to force.

    ``time_backend`` is forwarded to :func:`time_based_approximation`
    when the time-based model runs (``"auto"`` picks columnar, switching
    to the bounded-memory streaming fold above
    :data:`~repro.analysis.timebased.STREAMING_AUTO_THRESHOLD` events);
    the event-based model keeps its own backend pick.
    """
    warnings: list[str] = []
    if method == "event" or (method == "auto" and _has_sync_identity(measured)):
        obs.count("analysis.auto.event")
        approx = event_based_approximation(measured, constants)
        reason = (
            "trace carries synchronization identity"
            if method == "auto"
            else "forced by caller"
        )
        return AutoResult(approx, "event-based", reason, tuple(warnings))
    if method not in ("auto", "time"):
        raise AnalysisError(f"unknown method {method!r}; use auto/event/time")
    if _looks_parallel(measured):
        warnings.append(
            "trace is multi-threaded but carries no synchronization "
            "identity: time-based results are unreliable for dependent "
            "execution (paper Table 1) — re-measure with the FULL plan"
        )
    obs.count("analysis.auto.time")
    approx = time_based_approximation(measured, constants, backend=time_backend)
    reason = (
        "no synchronization identity in trace"
        if method == "auto"
        else "forced by caller"
    )
    return AutoResult(approx, "time-based", reason, tuple(warnings))
