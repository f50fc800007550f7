"""Event-based perturbation analysis (§4).

The constructive algorithm of §4.2.3: resolve an approximated time ``t_a``
for each measured event, thread by thread, where every event is execution
dependent on its thread predecessor, and synchronization events additionally
depend on their counterparts:

* ``advance``: ``t_a = t_a(u) + [t_m(advance) - t_m(u)] - a``
  (``u`` = thread predecessor, ``a`` = advance probe overhead);
* ``awaitB``: ``t_a = t_a(v) + [t_m(awaitB) - t_m(v)] - β``;
* ``awaitE``: if ``t_a(advance) <= t_a(awaitB)`` then no waiting occurs in
  the approximation and ``t_a = t_a(awaitB) + s_nowait``; otherwise waiting
  occurs and ``t_a = t_a(advance) + s_wait``;
* barrier exits: ``t_a = max(t_a of all arrivals) + barrier_release``
  (DOACROSS loop ends are handled as barriers, §5.1);
* loop begins: anchored to the initiating thread's pre-fork event, so
  lateness inherited from an instrumented sequential section is removed;
* lock acquisitions (general mutual exclusion, beyond the paper's
  testbed but within its framework [18]): the measured acquisition order
  per lock is preserved — conservatively, the analysis cannot know that
  a different serialization would have been legal — and
  ``t_a(lockAcq) = max(t_a(lockReq) + lock_nowait,
  t_a(previous holder's lockRel) + lock_handoff)``.

Because instrumentation can *reorder* advance and await operations relative
to the actual execution, waiting present in the measurement may disappear in
the approximation and vice versa (Figure 2) — this is exactly what the
awaitE rule reconstructs.  The result is a *conservative approximation*: it
preserves the measured partial order of dependent events and is therefore a
feasible execution (§4.1); whether it is the *likely* execution depends on
scheduling effects conservative analysis cannot see (see
:mod:`repro.analysis.reschedule` for the liberal extension).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.approximation import (
    AnalysisError,
    Approximation,
    build_approx_trace,
    check_policy,
)
from repro.instrument.costs import AnalysisConstants
from repro.obs import core as obs
from repro.resilience.repair import (
    RepairReport,
    quarantine_threads,
    repair_trace,
)
from repro.resilience.validate import Diagnostic, validate_trace
from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import Trace

#: Analysis backends accepted by :func:`event_based_approximation`,
#: fastest first; ``"auto"`` picks the first one available here.
BACKENDS = ("auto", "native", "columnar", "object")


def pick_backend() -> str:
    """The backend ``"auto"`` resolves to right now: native when the
    compiled kernel can be built/loaded, else columnar.  The object
    worklist is the reference oracle, used only when asked for."""
    from repro import native

    if native.native_available():
        return "native"
    # Compiler-less host or REPRO_NATIVE=0: the interpreted columnar
    # path carries the load.
    obs.count("analysis.backend.native_fallback")
    return "columnar"


#: Backend used when the caller does not pass one (see configure_backend).
_DEFAULT_BACKEND = "auto"


def configure_backend(backend: str) -> str:
    """Set the process-wide default analysis backend; returns the previous.

    This is what the CLI's ``--backend`` flag calls: experiment code never
    mentions a backend, so one configuration point redirects every
    event-based analysis in the run.
    """
    global _DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown analysis backend {backend!r}; expected one of {BACKENDS}"
        )
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = backend
    return previous


class ResolutionError(AnalysisError):
    """Resolution failed on specific events (carried for quarantining).

    ``events`` are the trace events implicated in the failure; the
    non-strict degradation policies quarantine their threads and retry.
    """

    def __init__(self, message: str, events: tuple[TraceEvent, ...] = ()):
        super().__init__(message)
        self.events = tuple(events)


class _Resolver:
    """Worklist resolution of approximated event times."""

    def __init__(self, measured: Trace, constants: AnalysisConstants):
        self.measured = measured
        self.constants = constants
        self.costs = constants.costs
        self.times: dict[int, int] = {}
        self.views = {t: v.events for t, v in measured.by_thread().items()}
        self.pos = {t: 0 for t in self.views}
        self._index_sync()

    # -------------------------------------------------------------- indexes
    def _index_sync(self) -> None:
        self.advances: dict[tuple[str, int], TraceEvent] = {}
        self.await_begin: dict[tuple[str, int], TraceEvent] = {}
        self.barrier_arrivals: dict[tuple[str, int], list[TraceEvent]] = {}
        self.loop_anchor: dict[str, Optional[TraceEvent]] = {}
        prev_on_thread: dict[int, Optional[TraceEvent]] = {}
        pred_of: dict[int, Optional[TraceEvent]] = {}
        for e in self.measured.events:
            pred_of[e.seq] = prev_on_thread.get(e.thread)
            prev_on_thread[e.thread] = e
            if e.kind is EventKind.ADVANCE:
                key = e.sync_key
                if key in self.advances:
                    raise ResolutionError(f"duplicate advance for {key}", (e,))
                self.advances[key] = e
            elif e.kind is EventKind.AWAIT_B:
                self.await_begin[e.sync_key] = e
            elif e.kind is EventKind.BARRIER_ARRIVE:
                key = (e.sync_var or "barrier", e.sync_index or 0)
                self.barrier_arrivals.setdefault(key, []).append(e)
            elif e.kind is EventKind.LOOP_BEGIN:
                # The initiator's last pre-fork event anchors every
                # participant's loop entry.  Among the predecessors of the
                # loop's LOOP_BEGIN events it is the *latest* one: workers
                # were idle (their predecessors are stale barrier exits of
                # the previous loop) while the initiator executed right up
                # to the fork.
                prev = pred_of[e.seq]
                current = self.loop_anchor.get(e.label)
                if e.label not in self.loop_anchor:
                    self.loop_anchor[e.label] = prev
                elif prev is not None and (
                    current is None
                    or (prev.time, prev.seq) > (current.time, current.seq)
                ):
                    self.loop_anchor[e.label] = prev
        self.pred_of = pred_of
        # Lock structure: per-use triples and the measured per-lock
        # acquisition order (which the conservative analysis preserves).
        self.lock_uses = self.measured.lock_uses()
        self.lock_prev_rel: dict[int, Optional[TraceEvent]] = {}
        for _lock, keys in self.measured.lock_acquisition_order().items():
            prev_rel: Optional[TraceEvent] = None
            for key in keys:
                use = self.lock_uses[key]
                self.lock_prev_rel[use["acq"].seq] = prev_rel
                prev_rel = use["rel"]
        # Semaphores: the k-th grant (measured order) consumes the unit of
        # the (k - capacity)-th signal (measured order); the measured grant
        # order itself is preserved (conservative total order, §4.1).
        self.sem_uses = self.measured.sem_uses()
        self.sem_enabler: dict[int, Optional[TraceEvent]] = {}
        self.sem_prev_acq: dict[int, Optional[TraceEvent]] = {}
        if self.sem_uses:
            capacities = self.measured.meta.get("semaphores")
            if not capacities:
                raise AnalysisError(
                    "trace has semaphore events but no declared capacities "
                    "in its metadata"
                )
            signal_order = self.measured.sem_signal_order()
            for sem, grants in self.measured.sem_grant_order().items():
                cap = int(capacities[sem])
                signals = signal_order[sem]
                prev_acq: Optional[TraceEvent] = None
                for k, key in enumerate(grants):
                    acq = self.sem_uses[key]["acq"]
                    if k >= cap:
                        self.sem_enabler[acq.seq] = self.sem_uses[
                            signals[k - cap]
                        ]["sig"]
                    else:
                        self.sem_enabler[acq.seq] = None
                    self.sem_prev_acq[acq.seq] = prev_acq
                    prev_acq = acq

    # ---------------------------------------------------------- resolution
    def _resolved(self, e: Optional[TraceEvent]) -> bool:
        return e is None or e.seq in self.times

    def _chain(self, e: TraceEvent, basis: Optional[TraceEvent]) -> int:
        """Default rule: preserve the measured interval minus e's overhead."""
        overhead = self.costs.overhead_for(e.kind)
        if basis is None:
            return max(0, e.time - overhead)
        return self.times[basis.seq] + (e.time - basis.time) - overhead

    def _try_resolve(self, e: TraceEvent) -> bool:
        """Resolve t_a(e) if its dependencies are ready; True on success."""
        pred = self.pred_of[e.seq]
        if not self._resolved(pred):
            return False

        if e.kind is EventKind.AWAIT_E:
            ta = self._resolve_await_end(e, pred)
            if ta is None:
                return False
        elif e.kind is EventKind.LOCK_ACQ:
            ta = self._resolve_lock_acquire(e)
            if ta is None:
                return False
        elif e.kind is EventKind.SEM_ACQ:
            ta = self._resolve_sem_acquire(e)
            if ta is None:
                return False
        elif e.kind is EventKind.BARRIER_EXIT:
            ta = self._resolve_barrier_exit(e)
            if ta is None:
                return False
        elif e.kind is EventKind.LOOP_BEGIN:
            anchor = self.loop_anchor.get(e.label)
            if not self._resolved(anchor):
                return False
            # Chain from the initiator's pre-fork event only.  Chaining
            # from the participant's own predecessor (its previous loop's
            # barrier exit) would re-import the initiator's instrumented
            # inter-loop section through the idle gap; the monotonic clamp
            # below still guarantees per-thread order.
            ta = self._chain(e, anchor)
        else:
            ta = self._chain(e, pred)

        if pred is not None:
            ta = max(ta, self.times[pred.seq])  # thread order is causal
        self.times[e.seq] = max(0, ta)
        return True

    def _resolve_await_end(
        self, e: TraceEvent, pred: Optional[TraceEvent]
    ) -> Optional[int]:
        key = e.sync_key
        begin = self.await_begin.get(key)
        if begin is None:
            raise ResolutionError(f"awaitE without awaitB for {key}", (e,))
        if begin.seq not in self.times:
            return None
        t_begin = self.times[begin.seq]
        advance = self.advances.get(key)
        if advance is None:
            if key[1] >= 0:
                raise ResolutionError(
                    f"awaitE {key} has no matching advance", (e,)
                )
            # DOACROSS prologue await: satisfied immediately by convention.
            return t_begin + self.constants.s_nowait
        if advance.seq not in self.times:
            return None
        t_advance = self.times[advance.seq]
        if t_advance <= t_begin:
            return t_begin + self.constants.s_nowait
        return t_advance + self.constants.s_wait

    def _resolve_lock_acquire(self, e: TraceEvent) -> Optional[int]:
        use = self.lock_uses.get(e.sync_key)
        if use is None:  # pragma: no cover - lock_uses covers all triples
            raise AnalysisError(f"lock acquire without use record: {e}")
        req = use["req"]
        if req.seq not in self.times:
            return None
        prev_rel = self.lock_prev_rel.get(e.seq)
        uncontended = self.times[req.seq] + self.constants.lock_nowait
        if prev_rel is None:
            return uncontended
        if prev_rel.seq not in self.times:
            return None
        handoff = self.times[prev_rel.seq] + self.constants.lock_handoff
        return max(uncontended, handoff)

    def _resolve_sem_acquire(self, e: TraceEvent) -> Optional[int]:
        use = self.sem_uses.get(e.sync_key)
        if use is None:  # pragma: no cover - sem_uses covers all triples
            raise AnalysisError(f"semaphore grant without use record: {e}")
        req = use["req"]
        if req.seq not in self.times:
            return None
        candidates = [self.times[req.seq] + self.constants.lock_nowait]
        enabler = self.sem_enabler.get(e.seq)
        if enabler is not None:
            if enabler.seq not in self.times:
                return None
            candidates.append(self.times[enabler.seq] + self.constants.lock_handoff)
        prev_acq = self.sem_prev_acq.get(e.seq)
        if prev_acq is not None:
            if prev_acq.seq not in self.times:
                return None
            # Preserve the measured grant order (conservative total order).
            candidates.append(self.times[prev_acq.seq])
        return max(candidates)

    def _resolve_barrier_exit(self, e: TraceEvent) -> Optional[int]:
        key = (e.sync_var or "barrier", e.sync_index or 0)
        arrivals = self.barrier_arrivals.get(key)
        if not arrivals:
            raise ResolutionError(f"barrier exit {key} without arrivals", (e,))
        if any(a.seq not in self.times for a in arrivals):
            return None
        return max(self.times[a.seq] for a in arrivals) + self.constants.barrier_release

    def run(self) -> dict[int, int]:
        remaining = len(self.measured)
        while remaining > 0:
            progress = 0
            for thread, events in self.views.items():
                i = self.pos[thread]
                while i < len(events) and self._try_resolve(events[i]):
                    i += 1
                    progress += 1
                self.pos[thread] = i
            if progress == 0:
                stuck = [
                    events[self.pos[t]]
                    for t, events in self.views.items()
                    if self.pos[t] < len(events)
                ]
                raise ResolutionError(
                    "event resolution deadlocked (malformed trace?); "
                    "unresolvable events:\n  "
                    + "\n  ".join(str(e) for e in stuck[:8]),
                    tuple(stuck),
                )
            remaining -= progress
        return self.times


def event_based_approximation(
    measured: Trace,
    constants: AnalysisConstants,
    policy: str = "strict",
    *,
    backend: Optional[str] = None,
) -> Approximation:
    """Apply event-based perturbation analysis to a measured trace.

    The trace must carry synchronization identity (the FULL instrumentation
    plan): paired ``advance``/``awaitB``/``awaitE`` events and loop/barrier
    markers.  Statement-only traces degrade to time-based behaviour for the
    unsynchronized portions, which defeats the purpose — use
    :func:`repro.analysis.timebased.time_based_approximation` for those.

    ``policy`` controls how imperfect traces are handled:

    * ``"strict"`` (default) — any structural damage raises;
    * ``"repair"`` — the trace is validated and mended best-effort first
      (:func:`repro.resilience.repair.repair_trace`); threads the resolver
      still cannot make progress on are quarantined and the analysis
      retried, so one corrupt thread costs that thread's results, not the
      whole analysis;
    * ``"skip"`` — like ``"repair"`` but damage is dropped rather than
      mended (no synthesized events, whole-thread quarantine on local
      corruption).

    Under a non-strict policy the returned approximation carries the
    validator's ``diagnostics`` and the ``repair_report`` of every change.

    ``backend``: ``"native"`` resolves through the JIT-built C kernel
    (:mod:`repro.analysis.eventbased_native`; raises
    :class:`~repro.analysis.approximation.AnalysisError` when no compiler
    or cached build is available — see :mod:`repro.native`);
    ``"columnar"`` resolves over ``measured.columns`` — vectorized
    per-thread prefix sums with a scalar worklist visiting only
    synchronization events (:mod:`repro.analysis.eventbased_columnar`);
    ``"object"`` runs the per-event reference worklist (the oracle the
    other two are checked against); ``"auto"`` (default) picks native
    when the kernel is available, else columnar.  All backends produce identical results — and identical
    failures, so the degradation policies quarantine the same threads
    (property-tested).  Omitting ``backend`` uses the process-wide
    default (``"auto"`` unless :func:`configure_backend` changed it).
    """
    check_policy(policy)
    if backend is None:
        backend = _DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown analysis backend {backend!r}; expected one of {BACKENDS}"
        )
    requested = backend
    if backend == "auto":
        backend = pick_backend()
    if obs.enabled():
        obs.count(f"analysis.backend.requested.{requested}")
        obs.count(f"analysis.backend.picked.{backend}")
        if policy != "strict":
            obs.count(f"analysis.policy.{policy}")
    if backend == "native":
        from repro import native
        from repro.analysis.eventbased_native import resolve_native

        try:  # fail fast, before any validation/repair work
            native.get_resolve_kernel()
        except native.NativeUnavailable as exc:
            raise AnalysisError(
                f"native backend requested but unavailable: {exc}"
            ) from exc

        def _solve(trace: Trace) -> dict[int, int]:
            return resolve_native(trace, constants)

    elif backend == "columnar":
        from repro.analysis.eventbased_columnar import resolve_columnar

        def _solve(trace: Trace) -> dict[int, int]:
            return resolve_columnar(trace, constants)

    else:

        def _solve(trace: Trace) -> dict[int, int]:
            return _Resolver(trace, constants).run()

    diagnostics: list[Diagnostic] = []
    report: Optional[RepairReport] = None
    if policy != "strict":
        with obs.span("analysis.eventbased.repair", policy=policy):
            diagnostics = validate_trace(measured)
            result = repair_trace(measured, mode=policy)
            measured, report = result.trace, result.report
    if not len(measured):
        raise AnalysisError("cannot analyze an empty trace")
    if not measured.meta.get("instrumented", True):
        raise AnalysisError(
            "trace is not a measured (instrumented) trace; nothing to remove"
        )
    if policy == "strict":
        with obs.span(
            "analysis.eventbased.resolve", backend=backend, n_events=len(measured)
        ):
            times = _solve(measured)
    else:
        # Bounded retry: each failed resolution names the events it could
        # not resolve; quarantining their threads removes at least one
        # thread per round, so this terminates.
        for _ in range(len(measured.threads) + 1):
            try:
                with obs.span(
                    "analysis.eventbased.resolve",
                    backend=backend,
                    n_events=len(measured),
                ):
                    times = _solve(measured)
                break
            except ResolutionError as exc:
                bad_threads = {e.thread for e in exc.events}
                if not bad_threads:
                    raise
                obs.count("analysis.quarantine.rounds")
                obs.count("analysis.quarantine.threads", len(bad_threads))
                result = quarantine_threads(measured, bad_threads, report)
                measured = result.trace
                if not len(measured):
                    raise AnalysisError(
                        "no analyzable events remain after quarantining "
                        f"thread(s) {sorted(bad_threads)}"
                    ) from exc
        else:  # pragma: no cover - defensive; loop always breaks or raises
            raise AnalysisError("event resolution failed to converge")
    total = max(times.values())
    return Approximation(
        trace=build_approx_trace(measured, times, "event-based"),
        method="event-based",
        total_time=total,
        times=times,
        source_meta=dict(measured.meta),
        diagnostics=diagnostics,
        repair_report=report,
    )
