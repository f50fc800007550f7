"""Scoring approximations against ground truth.

The paper reports two ratios per experiment (Tables 1/2):
``Measured/Actual`` (how badly instrumentation perturbed the run) and
``Approximated/Actual`` (how well the analysis recovered it).  These
utilities compute them plus per-event error statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.approximation import Approximation
from repro.trace.columnar import TraceColumns
from repro.trace.events import KIND_CODE, EventKind
from repro.trace.trace import Trace


def percent_error(approx: float, actual: float) -> float:
    """Signed percent error of ``approx`` relative to ``actual``."""
    if actual == 0:
        raise ZeroDivisionError("actual value is zero")
    return 100.0 * (approx - actual) / actual


@dataclass(frozen=True)
class ExecutionRatios:
    """The paper's headline comparison for one loop/experiment."""

    name: str
    actual_time: int
    measured_time: int
    approximated_time: int
    method: str = ""

    @property
    def measured_over_actual(self) -> float:
        return self.measured_time / self.actual_time

    @property
    def approximated_over_actual(self) -> float:
        return self.approximated_time / self.actual_time

    @property
    def approximation_error_pct(self) -> float:
        return percent_error(self.approximated_time, self.actual_time)

    @property
    def accuracy_improvement(self) -> float:
        """Factor by which the approximation shrinks the measurement error.

        The paper quotes "a factor of over 8 in improved accuracy" for
        loop 17; this is |measured error| / |approximation error|.
        """
        meas_err = abs(self.measured_time - self.actual_time)
        appr_err = abs(self.approximated_time - self.actual_time)
        if appr_err == 0:
            return math.inf
        return meas_err / appr_err

    def row(self) -> str:
        return (
            f"{self.name:<12} {self.measured_over_actual:>9.2f} "
            f"{self.approximated_over_actual:>14.2f} "
            f"({self.approximation_error_pct:+.1f}% error)"
        )


def compare_ratios(
    name: str,
    actual_time: int,
    measured_time: int,
    approximation: Approximation,
) -> ExecutionRatios:
    """Bundle the three execution times into the paper's ratio row."""
    return ExecutionRatios(
        name=name,
        actual_time=actual_time,
        measured_time=measured_time,
        approximated_time=approximation.total_time,
        method=approximation.method,
    )


@dataclass(frozen=True)
class EventErrorStats:
    """Per-event timing error of an approximation vs. the actual trace."""

    n_matched: int
    mean_abs_error: float
    max_abs_error: int
    mean_signed_error: float
    rms_error: float


def per_event_errors(
    approx: Approximation,
    actual: Trace,
    kinds: Optional[set[EventKind]] = None,
) -> EventErrorStats:
    """Match approximated events to actual events and score timing error.

    Matching key: (thread, eid, iteration, kind, sync identity) with a
    per-key occurrence counter — robust to re-timing.  Events present in
    only one trace (e.g. probes of structural markers not in the other
    plan's vocabulary) are skipped; the fraction matched is reported via
    ``n_matched``.

    Runs on ``trace.columns``: both traces' rows are sorted together by
    key (stably, so equal keys stay in trace order, approximation rows
    first), and within each key the k-th approximation row pairs with the
    k-th actual row.  No event objects are built.  The diffs are summed as
    Python ints, so every statistic is exact.
    """
    a_cols = _selected(approx.trace.columns, kinds)
    b_cols = _selected(actual.columns, kinds)
    n_a = len(a_cols)
    if not n_a or not len(b_cols):
        return EventErrorStats(0, 0.0, 0, 0.0, 0.0)

    def both(name: str):
        return np.concatenate([getattr(a_cols, name), getattr(b_cols, name)])

    # The two traces intern sync-variable names in their own orders.
    union: dict[str, int] = {}
    sync_var = np.concatenate([
        _reinterned(a_cols.sync_var, a_cols.sync_var_table, union),
        _reinterned(b_cols.sync_var, b_cols.sync_var_table, union),
    ])
    keys = [both("sync_index"), sync_var, both("kind"), both("iteration"),
            both("eid"), both("thread")]
    order = np.lexsort(keys)  # stable: trace order within a key
    changed = np.zeros(len(order), dtype=bool)
    changed[0] = True
    for key in keys:
        k = key[order]
        changed[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(changed)
    sizes = np.diff(np.append(starts, len(order)))
    from_a = np.add.reduceat((order < n_a).astype(np.int64), starts)
    pairs = np.minimum(from_a, sizes - from_a)
    # Row i of group g pairs approximation row starts[g] + i with actual
    # row starts[g] + from_a[g] + i, for i < pairs[g].
    group = np.repeat(np.arange(len(starts)), pairs)
    rank = np.arange(len(group)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    first = starts[group] + rank
    a_rows = order[first]
    b_rows = order[first + from_a[group]] - n_a
    diffs = [
        ta - tb
        for ta, tb in zip(a_cols.time[a_rows].tolist(), b_cols.time[b_rows].tolist())
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


def _selected(cols: TraceColumns, kinds: Optional[set[EventKind]]) -> TraceColumns:
    """The rows of ``cols`` whose kind is in ``kinds`` (all if None)."""
    if kinds is None:
        return cols
    codes = [KIND_CODE[k] for k in kinds]
    return cols.take(np.flatnonzero(np.isin(cols.kind, codes)))


def _reinterned(codes, table: tuple[str, ...], union: dict[str, int]):
    """``codes`` (indices into ``table``, -1 for None) as ``union`` ids."""
    lookup = np.array(
        [union.setdefault(s, len(union)) for s in table] + [-1], dtype=np.int64
    )
    return lookup[codes]
