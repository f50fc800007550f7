"""Reference oracle for :func:`repro.analysis.errors.per_event_errors`.

The literal, dict-keyed matcher: every event becomes a ``TraceEvent``
keyed by ``(thread, eid, iteration, kind, sync_var, sync_index)`` plus a
per-key occurrence counter, and the timing differences of keys present in
both traces are scored.  The production function runs the same match on
columns and must agree with this field for field.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.analysis.approximation import Approximation
from repro.analysis.errors import EventErrorStats
from repro.trace.events import EventKind
from repro.trace.trace import Trace


def per_event_errors_reference(
    approx: Approximation,
    actual: Trace,
    kinds: Optional[set[EventKind]] = None,
) -> EventErrorStats:
    def keyed(trace_events):
        counters: dict[tuple, int] = {}
        out = {}
        for e in trace_events:
            base = (e.thread, e.eid, e.iteration, e.kind, e.sync_var, e.sync_index)
            n = counters.get(base, 0)
            counters[base] = n + 1
            out[base + (n,)] = e
        return out

    wanted = kinds
    a_events = [e for e in approx.trace if wanted is None or e.kind in wanted]
    b_events = [e for e in actual if wanted is None or e.kind in wanted]
    amap = keyed(a_events)
    bmap = keyed(b_events)
    diffs = [
        amap[k].time - bmap[k].time for k in amap.keys() & bmap.keys()
    ]
    if not diffs:
        return EventErrorStats(0, 0.0, 0, 0.0, 0.0)
    abs_diffs = [abs(d) for d in diffs]
    return EventErrorStats(
        n_matched=len(diffs),
        mean_abs_error=sum(abs_diffs) / len(diffs),
        max_abs_error=max(abs_diffs),
        mean_signed_error=sum(diffs) / len(diffs),
        rms_error=math.sqrt(sum(d * d for d in diffs) / len(diffs)),
    )
