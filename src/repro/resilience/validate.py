"""Streaming trace validation with structured diagnostics.

Unlike the fail-fast checks on :class:`~repro.trace.trace.Trace` (which
raise on the first malformation), the validator walks the event stream once
with bounded per-key state and reports *everything* it finds as
:class:`Diagnostic` records with severities.  That makes it usable both as
a lint pass (``repro-trace validate``) and as the damage census the repair
pass and the degradation policies consume.

Checks
------
* negative / missing timestamps (``missing-timestamp``);
* per-thread clock regressions in feed order (``non-monotonic-clock``);
* sync events without pairing identity (``missing-sync-identity``);
* duplicate / unpaired ``advance`` / ``awaitB`` / ``awaitE``
  (``duplicate-*``, ``awaitB-without-awaitE``, ``awaitE-without-awaitB``,
  ``await-without-advance``);
* await pairs whose end precedes their begin (``await-ends-before-begin``);
* incomplete or duplicated lock / semaphore triples
  (``incomplete-lock-use``, ``incomplete-semaphore-use``, ``duplicate-*``);
* semaphore events without declared capacities (``missing-sem-capacities``);
* barrier generations with exits but no arrivals
  (``barrier-exit-without-arrivals``) or vice versa
  (``barrier-never-released``);
* header / event-count mismatches when validating a file
  (``event-count-mismatch``) and unparseable lines (``bad-event-line``).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import Trace, TraceError


class Severity(enum.IntEnum):
    """How bad a diagnostic is for downstream analysis."""

    INFO = 0  # harmless oddity, analysis unaffected
    WARNING = 1  # suspicious; analysis proceeds but may be degraded
    ERROR = 2  # strict analysis would fail or produce nonsense

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding about a trace.

    ``code`` is a stable kebab-case identifier tests and tools can match
    on; ``message`` is the human explanation.  ``thread`` / ``seq`` locate
    the offending event when one exists.
    """

    severity: Severity
    code: str
    message: str
    thread: Optional[int] = None
    seq: Optional[int] = None

    def __str__(self) -> str:
        where = ""
        if self.thread is not None:
            where += f" ce={self.thread}"
        if self.seq is not None:
            where += f" seq={self.seq}"
        return f"{self.severity.name} [{self.code}]{where}: {self.message}"


_LOCK_ROLES = {
    EventKind.LOCK_REQ: "req",
    EventKind.LOCK_ACQ: "acq",
    EventKind.LOCK_REL: "rel",
}
_SEM_ROLES = {
    EventKind.SEM_REQ: "req",
    EventKind.SEM_ACQ: "acq",
    EventKind.SEM_SIG: "sig",
}


class StreamingValidator:
    """Single-pass validator; :meth:`feed` events, then :meth:`finish`.

    State is bounded by the number of distinct sync keys, not by trace
    length, so arbitrarily long traces can be validated while being read.
    """

    def __init__(self, *, declared_events: Optional[int] = None,
                 sem_capacities: Optional[dict] = None):
        self.declared_events = declared_events
        self.sem_capacities = sem_capacities
        self.diagnostics: list[Diagnostic] = []
        self._n_fed = 0
        self._last_time: dict[int, int] = {}
        self._advances: dict[tuple[str, int], TraceEvent] = {}
        self._await_open: dict[tuple[str, int], TraceEvent] = {}
        self._await_done: dict[tuple[str, int], tuple[TraceEvent, TraceEvent]] = {}
        self._locks: dict[tuple[str, int], dict[str, TraceEvent]] = {}
        self._sems: dict[tuple[str, int], dict[str, TraceEvent]] = {}
        self._barriers: dict[tuple[str, int], dict[str, int]] = {}
        self._saw_sem = False

    # ------------------------------------------------------------------
    def _emit(self, severity: Severity, code: str, message: str,
              event: Optional[TraceEvent] = None) -> None:
        self.diagnostics.append(
            Diagnostic(
                severity=severity, code=code, message=message,
                thread=event.thread if event is not None else None,
                seq=event.seq if event is not None else None,
            )
        )

    def _sync_key(self, e: TraceEvent) -> Optional[tuple[str, int]]:
        if e.sync_var is None or e.sync_index is None:
            self._emit(
                Severity.ERROR, "missing-sync-identity",
                f"{e.kind.value} event lacks sync_var/sync_index", e,
            )
            return None
        return (e.sync_var, e.sync_index)

    def feed(self, e: TraceEvent) -> None:
        """Examine one event; diagnostics accumulate on the validator."""
        self._n_fed += 1
        if e.time < 0:
            self._emit(
                Severity.ERROR, "missing-timestamp",
                f"{e.kind.value} event has no usable timestamp ({e.time})", e,
            )
        else:
            last = self._last_time.get(e.thread)
            if last is not None and e.time < last:
                self._emit(
                    Severity.WARNING, "non-monotonic-clock",
                    f"clock ran backwards on CE {e.thread}: {last} -> {e.time}", e,
                )
            self._last_time[e.thread] = e.time

        kind = e.kind
        if kind is EventKind.ADVANCE:
            key = self._sync_key(e)
            if key is None:
                return
            if key in self._advances:
                self._emit(Severity.ERROR, "duplicate-advance",
                           f"duplicate advance for {key}", e)
            else:
                self._advances[key] = e
        elif kind is EventKind.AWAIT_B:
            key = self._sync_key(e)
            if key is None:
                return
            if key in self._await_open or key in self._await_done:
                self._emit(Severity.ERROR, "duplicate-awaitB",
                           f"duplicate awaitB for {key}", e)
            else:
                self._await_open[key] = e
        elif kind is EventKind.AWAIT_E:
            key = self._sync_key(e)
            if key is None:
                return
            begin = self._await_open.pop(key, None)
            if begin is None:
                code = ("duplicate-awaitE" if key in self._await_done
                        else "awaitE-without-awaitB")
                self._emit(Severity.ERROR, code,
                           f"awaitE without open awaitB for {key}", e)
            else:
                if e.time < begin.time and e.time >= 0 and begin.time >= 0:
                    self._emit(Severity.WARNING, "await-ends-before-begin",
                               f"awaitE precedes awaitB for {key}", e)
                self._await_done[key] = (begin, e)
        elif kind in _LOCK_ROLES:
            key = self._sync_key(e)
            if key is None:
                return
            role = _LOCK_ROLES[kind]
            bucket = self._locks.setdefault(key, {})
            if role in bucket:
                self._emit(Severity.ERROR, f"duplicate-lock-{role}",
                           f"duplicate lock {role} for {key}", e)
            else:
                bucket[role] = e
        elif kind in _SEM_ROLES:
            self._saw_sem = True
            key = self._sync_key(e)
            if key is None:
                return
            role = _SEM_ROLES[kind]
            bucket = self._sems.setdefault(key, {})
            if role in bucket:
                self._emit(Severity.ERROR, f"duplicate-sem-{role}",
                           f"duplicate semaphore {role} for {key}", e)
            else:
                bucket[role] = e
        elif kind in (EventKind.BARRIER_ARRIVE, EventKind.BARRIER_EXIT):
            key = (e.sync_var or "barrier", e.sync_index or 0)
            bucket = self._barriers.setdefault(key, {"arrive": 0, "exit": 0})
            bucket["arrive" if kind is EventKind.BARRIER_ARRIVE else "exit"] += 1

    def finish(self) -> list[Diagnostic]:
        """Close the stream: end-of-trace pairing checks, then results."""
        for key, begin in sorted(self._await_open.items()):
            self._emit(Severity.ERROR, "awaitB-without-awaitE",
                       f"awaitB without awaitE for {key}", begin)
        for key, (begin, _end) in sorted(self._await_done.items()):
            if key not in self._advances and key[1] >= 0:
                self._emit(Severity.ERROR, "await-without-advance",
                           f"await {key} has no matching advance", begin)
        for key, adv in sorted(self._advances.items()):
            if key not in self._await_done and key not in self._await_open:
                self._emit(Severity.INFO, "advance-never-awaited",
                           f"advance {key} is never awaited", adv)
        for key, bucket in sorted(self._locks.items()):
            if set(bucket) != {"req", "acq", "rel"}:
                self._emit(
                    Severity.ERROR, "incomplete-lock-use",
                    f"lock use {key} has only {sorted(bucket)}",
                    next(iter(bucket.values())),
                )
        for key, bucket in sorted(self._sems.items()):
            if set(bucket) != {"req", "acq", "sig"}:
                self._emit(
                    Severity.ERROR, "incomplete-semaphore-use",
                    f"semaphore use {key} has only {sorted(bucket)}",
                    next(iter(bucket.values())),
                )
        if self._saw_sem and not self.sem_capacities:
            self._emit(Severity.ERROR, "missing-sem-capacities",
                       "trace has semaphore events but no declared capacities")
        for key, bucket in sorted(self._barriers.items()):
            if bucket["exit"] and not bucket["arrive"]:
                self._emit(Severity.ERROR, "barrier-exit-without-arrivals",
                           f"barrier {key} has exits but no arrivals")
            elif bucket["arrive"] and not bucket["exit"]:
                self._emit(Severity.WARNING, "barrier-never-released",
                           f"barrier {key} has arrivals but no exits")
            elif bucket["exit"] > bucket["arrive"]:
                self._emit(
                    Severity.WARNING, "barrier-arrivals-missing",
                    f"barrier {key}: {bucket['exit']} exits but only "
                    f"{bucket['arrive']} arrivals",
                )
        if self.declared_events is not None and self.declared_events != self._n_fed:
            self._emit(
                Severity.ERROR, "event-count-mismatch",
                f"header declares {self.declared_events} events, "
                f"stream held {self._n_fed}",
            )
        return self.diagnostics


def validate_events(events: Iterable[TraceEvent], *,
                    declared_events: Optional[int] = None,
                    sem_capacities: Optional[dict] = None) -> list[Diagnostic]:
    """Validate an event stream; returns all diagnostics."""
    v = StreamingValidator(declared_events=declared_events,
                           sem_capacities=sem_capacities)
    for e in events:
        v.feed(e)
    return v.finish()


def _columns_provably_clean(trace: Trace) -> bool:
    """Vectorized all-clear screen over the columnar backend.

    Returns True only when column-level checks *prove* the streaming
    validator would emit zero diagnostics (of any severity): timestamps
    present, clocks monotonic per thread, every sync event carrying its
    identity, advance/await/lock/semaphore pairing exactly complete and
    duplicate-free, every advance awaited, barrier generations balanced,
    and semaphore capacities declared when semaphores appear.  Any doubt
    returns False and the caller falls back to the streaming walk for
    exact per-event diagnostics.
    """
    from repro.trace import columnar as _c

    np = _c.np
    cols = trace.columns
    n = len(cols)
    if n == 0:
        return True
    if bool(np.any(cols.time < 0)):
        return False
    # validate_trace feeds events in total (time, seq) order, so global
    # monotonicity implies per-thread monotonicity; normalized traces are
    # sorted, making this a cheap certain check.
    if bool(np.any(np.diff(cols.time) < 0)):
        return False

    def keys_of(mask):
        """(sync_var idx, sync_index) rows as a lexsorted 2-column array."""
        v, i = cols.sync_var[mask], cols.sync_index[mask]
        order = np.lexsort((i, v))
        return np.stack([v[order], i[order]], axis=1), np.flatnonzero(mask)[order]

    def has_duplicates(sorted_keys):
        if len(sorted_keys) < 2:
            return False
        return bool(np.any(np.all(sorted_keys[1:] == sorted_keys[:-1], axis=1)))

    sync_mask = _c.kind_code_mask(
        cols.kind, EventKind.ADVANCE, EventKind.AWAIT_B, EventKind.AWAIT_E,
        *_LOCK_ROLES, *_SEM_ROLES,
    )
    if bool(np.any(sync_mask)):
        if bool(np.any(cols.sync_var[sync_mask] < 0)):
            return False
        if bool(np.any(cols.sync_index[sync_mask] == _c.NONE_SENTINEL)):
            return False

    adv_keys, _ = keys_of(cols.kind == _c.KIND_CODE[EventKind.ADVANCE])
    awb_keys, awb_pos = keys_of(cols.kind == _c.KIND_CODE[EventKind.AWAIT_B])
    awe_keys, awe_pos = keys_of(cols.kind == _c.KIND_CODE[EventKind.AWAIT_E])
    if has_duplicates(adv_keys) or has_duplicates(awb_keys) or has_duplicates(awe_keys):
        return False
    # Every awaitE pairs with an awaitB of the same key, opened earlier.
    if len(awb_keys) != len(awe_keys) or not np.array_equal(awb_keys, awe_keys):
        return False
    if bool(np.any(awe_pos < awb_pos)):
        return False
    if len(awe_keys) and bool(
        np.any(cols.time[awe_pos] < cols.time[awb_pos])
    ):
        return False  # await-ends-before-begin
    # Advances and awaits must cover each other exactly: an unawaited
    # advance is an INFO diagnostic, an unadvanced await (non-negative
    # index) an ERROR.  Negative-index awaits (DOACROSS prologue) need no
    # producer but would still flag any matching advance as unawaited
    # unless present, so exact set logic mirrors the validator's.
    nonneg = awb_keys[:, 1] >= 0 if len(awb_keys) else awb_keys[:, :0]
    wanted = awb_keys[nonneg] if len(awb_keys) else awb_keys
    if len(adv_keys) != len(wanted) or not np.array_equal(adv_keys, wanted):
        return False

    for roles in (_LOCK_ROLES, _SEM_ROLES):
        role_keys = []
        for kind in roles:
            keys, _pos = keys_of(cols.kind == _c.KIND_CODE[kind])
            if has_duplicates(keys):
                return False
            role_keys.append(keys)
        first = role_keys[0]
        for other in role_keys[1:]:
            if len(other) != len(first) or not np.array_equal(other, first):
                return False
    sem_mask = _c.kind_code_mask(cols.kind, *_SEM_ROLES)
    if bool(np.any(sem_mask)) and not trace.meta.get("semaphores"):
        return False

    arrive = cols.kind == _c.KIND_CODE[EventKind.BARRIER_ARRIVE]
    exit_ = cols.kind == _c.KIND_CODE[EventKind.BARRIER_EXIT]
    if bool(np.any(arrive)) or bool(np.any(exit_)):
        # Barrier keys apply `or`-style defaulting: missing/empty var ->
        # "barrier", missing sync_index -> generation 0.
        def barrier_keys(mask):
            v = cols.sync_var[mask].copy()
            i = cols.sync_index[mask].copy()
            empty = np.array(
                [idx for idx, s in enumerate(cols.sync_var_table) if not s],
                dtype=np.int64,
            )
            if len(empty):
                v[np.isin(v, empty)] = -1
            i[i == _c.NONE_SENTINEL] = 0
            order = np.lexsort((i, v))
            return np.stack([v[order], i[order]], axis=1)

        def group_counts(sorted_keys):
            if len(sorted_keys) == 0:
                return sorted_keys, np.array([], dtype=np.int64)
            new = np.ones(len(sorted_keys), dtype=bool)
            new[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
            starts = np.flatnonzero(new)
            counts = np.diff(np.append(starts, len(sorted_keys)))
            return sorted_keys[starts], counts

        a_uniq, a_counts = group_counts(barrier_keys(arrive))
        e_uniq, e_counts = group_counts(barrier_keys(exit_))
        # Clean: every generation has arrivals AND exits, exits <= arrivals.
        if len(a_uniq) != len(e_uniq) or not np.array_equal(a_uniq, e_uniq):
            return False
        if bool(np.any(e_counts > a_counts)):
            return False
    return True


def validate_trace(trace: Trace) -> list[Diagnostic]:
    """Validate an in-memory trace (events fed in total order).

    Fast path: when the trace's columnar form is already realized (e.g.
    it was loaded from a packed ``.rpt`` file), a vectorized screen over
    the columns proves the common all-clean case without materializing a
    single event object; only traces the screen cannot certify fall
    through to the exact streaming walk.
    """
    if trace.has_columns and _columns_provably_clean(trace):
        return []
    return validate_events(
        trace.events, sem_capacities=trace.meta.get("semaphores"),
    )


def validate_file(path: Union[str, Path]) -> list[Diagnostic]:
    """Validate a trace file without materialising a Trace.

    Feeds events in *file* order (recording order) so clock regressions
    the in-memory sort would hide are visible, tolerates unparseable
    lines (reported as ``bad-event-line``), and checks the header's
    declared event count against what the file actually holds.
    """
    diagnostics: list[Diagnostic] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            declared = None
            sem_capacities = None
            try:
                header = json.loads(first) if first else {}
            except json.JSONDecodeError:
                header = {}
            if not isinstance(header, dict) or "format" not in header:
                diagnostics.append(Diagnostic(
                    Severity.ERROR, "bad-header",
                    "first line is not a trace header",
                ))
            else:
                declared = header.get("n_events")
                meta = header.get("meta") or {}
                sem_capacities = meta.get("semaphores")
            v = StreamingValidator(declared_events=declared,
                                   sem_capacities=sem_capacities)
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = TraceEvent.from_dict(json.loads(line))
                except (json.JSONDecodeError, KeyError, ValueError,
                        TypeError) as exc:
                    diagnostics.append(Diagnostic(
                        Severity.ERROR, "bad-event-line",
                        f"line {lineno} is not a valid event: {exc}",
                    ))
                    continue
                v.feed(event)
    except UnicodeDecodeError as exc:
        # Binary junk that is neither packed (.rpt magic) nor text: the
        # line-oriented linter has nothing to lint.  Surface the same
        # TraceError the loaders raise so CLIs report it uniformly.
        raise TraceError(f"{path}: not a trace file ({exc})") from exc
    diagnostics.extend(v.finish())
    return diagnostics


def error_count(diagnostics: Iterable[Diagnostic]) -> int:
    """Number of ERROR-severity diagnostics (the repair success metric)."""
    return sum(1 for d in diagnostics if d.severity is Severity.ERROR)
