"""Discrete-event simulation engine with generator-based processes.

The engine keeps a priority queue of pending *occurrences* ordered by
``(time, sequence)``.  Simulated activities are Python generator functions
("processes") that ``yield`` effect objects:

* :class:`Timeout` — suspend the process for a fixed number of cycles.
* :class:`Signal` — suspend until another process triggers the signal; the
  value passed to :meth:`Signal.trigger` is returned from the ``yield``.
* :class:`AllOf` — suspend until every child effect has completed.
* another :class:`Process` — suspend until that process terminates; its
  return value is returned from the ``yield``.

Time is an integer cycle count.  The engine is strictly deterministic: ties
at equal timestamps are broken by insertion order.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs import core as obs


class SimulationError(RuntimeError):
    """Base class for all simulation-kernel errors."""


class SimulationDeadlock(SimulationError):
    """Raised by :meth:`Engine.run` when live processes remain but no
    occurrence is scheduled (every runnable process is blocked forever).

    The message dumps every blocked process and the effect it waits on;
    the same information is available structurally as ``blocked``, a tuple
    of ``(process, effect)`` pairs.
    """

    def __init__(self, message: str, blocked: tuple = ()):
        super().__init__(message)
        self.blocked = tuple(blocked)


class SimulationTimeout(SimulationError):
    """Raised by :meth:`Engine.run` when a ``max_cycles`` or ``max_events``
    budget is exhausted before the simulation completes (livelock guard).

    Attributes mirror :class:`SimulationDeadlock`: ``blocked`` holds
    ``(process, effect)`` pairs for every process still live at timeout.
    """

    def __init__(self, message: str, blocked: tuple = ()):
        super().__init__(message)
        self.blocked = tuple(blocked)


class ProcessCrashed(SimulationError):
    """Raised when a process generator raised an unhandled exception.

    The original exception is available as ``__cause__``.
    """

    def __init__(self, process: "Process", original: BaseException):
        super().__init__(f"process {process.name!r} crashed: {original!r}")
        self.process = process
        self.original = original


class Interrupt(Exception):
    """Thrown *into* a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Effect:
    """Base class for things a process may yield.

    Subclasses implement :meth:`_subscribe`, which arranges for
    ``callback(value)`` to run when the effect completes.
    """

    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        raise NotImplementedError


class Timeout(_Effect):
    """Suspend the yielding process for ``delay`` cycles (``delay >= 0``)."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: int, value: Any = None):
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = int(delay)
        self.value = value

    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        engine.schedule(self.delay, callback, self.value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


class Signal(_Effect):
    """A one-shot broadcast event.

    Processes yield the signal to wait on it.  :meth:`trigger` wakes every
    waiter (in subscription order) with the trigger value.  Waiting on an
    already-triggered signal resumes immediately with the stored value; this
    makes signals safe for "has X already happened?" rendezvous such as the
    advance/await registers of the concurrency bus.
    """

    __slots__ = ("name", "_triggered", "_value", "_waiters")

    def __init__(self, name: str = ""):
        self.name = name
        self._triggered = False
        self._value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"signal {self.name!r} has not been triggered")
        return self._value

    def trigger(self, engine: "Engine", value: Any = None) -> None:
        if self._triggered:
            raise SimulationError(f"signal {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            engine.schedule(0, cb, value)

    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        if self._triggered:
            engine.schedule(0, callback, self._value)
        else:
            self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"Signal({self.name!r}, {state})"


class AllOf(_Effect):
    """Completes when every child effect completes.

    The resume value is a list of child values in child order.
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[_Effect]):
        self.children = list(children)

    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        n = len(self.children)
        if n == 0:
            engine.schedule(0, callback, [])
            return
        results: list[Any] = [None] * n
        remaining = [n]

        def make_child_cb(index: int) -> Callable[[Any], None]:
            def child_cb(value: Any) -> None:
                results[index] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    callback(results)

            return child_cb

        for i, child in enumerate(self.children):
            child._subscribe(engine, make_child_cb(i))


class Process(_Effect):
    """A running simulation process wrapping a generator.

    Created via :meth:`Engine.process`.  A process is itself an effect:
    yielding it from another process waits for termination and receives the
    generator's return value.
    """

    __slots__ = (
        "engine", "name", "_gen", "_done", "_result", "_waiters", "_crashed",
        "_waiting_on",
    )

    def __init__(self, engine: "Engine", gen: Generator[_Effect, Any, Any], name: str):
        self.engine = engine
        self.name = name
        self._gen = gen
        self._done = False
        self._crashed: Optional[BaseException] = None
        self._result: Any = None
        self._waiters: list[Callable[[Any], None]] = []
        self._waiting_on: Optional[_Effect] = None
        engine._live_processes += 1
        engine._processes.add(self)
        engine.schedule(0, self._step, None)

    # -- state ---------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    @property
    def result(self) -> Any:
        if not self._done:
            raise SimulationError(f"process {self.name!r} has not finished")
        if self._crashed is not None:
            raise ProcessCrashed(self, self._crashed) from self._crashed
        return self._result

    # -- driving -------------------------------------------------------
    def _step(self, send_value: Any) -> None:
        if self._done:
            return
        self._waiting_on = None
        engine = self.engine
        gen = self._gen
        queue = engine._queue
        while True:
            try:
                if isinstance(send_value, BaseException):
                    effect = gen.throw(send_value)
                else:
                    effect = gen.send(send_value)
            except StopIteration as stop:
                self._finish(stop.value, None)
                return
            except Interrupt:
                # An interrupt escaped the generator: treat as clean termination.
                self._finish(None, None)
                return
            except BaseException as exc:  # noqa: BLE001 - deliberate trap
                self._finish(None, exc)
                return
            if type(effect) is not Timeout:
                break
            # Exact run-ahead: a wake-up strictly earlier than the heap
            # head (or with the heap empty) is the very next occurrence
            # the run loop would pop, so resume here without the heap
            # round trip.  Ties go through the heap to keep (time, seq)
            # order.  Only ``Engine.run`` opens the window, bounded by
            # ``until``/``max_cycles`` and ``max_events``; anything else
            # is pushed for the run loop to pop and check.
            when = engine.now + effect.delay
            executed = engine._executed + 1
            if (
                (not queue or when < queue[0][0])
                and when <= engine._horizon
                and executed < engine._max_executed
            ):
                # The occurrence that just yielded is done: count it as the
                # run loop would have, then start the next one.
                engine._executed = executed
                if engine._obs_on and (executed & 0x3FFF) == 0:
                    engine._heartbeat()
                engine.now = when
                send_value = effect.value
                continue
            engine._seq += 1
            heapq.heappush(queue, (when, engine._seq, self._step, effect.value))
            self._waiting_on = effect
            return
        if not isinstance(effect, _Effect):
            self._finish(
                None,
                SimulationError(
                    f"process {self.name!r} yielded {effect!r}, expected an effect"
                ),
            )
            return
        self._waiting_on = effect
        effect._subscribe(self.engine, self._step)

    def _finish(self, result: Any, crashed: Optional[BaseException]) -> None:
        self._done = True
        self._result = result
        self._crashed = crashed
        self._waiting_on = None
        self.engine._live_processes -= 1
        self.engine._processes.discard(self)
        if crashed is not None:
            self.engine._record_crash(ProcessCrashed(self, crashed))
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            self.engine.schedule(0, cb, result)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._done:
            return
        self.engine.schedule(0, self._step, Interrupt(cause))

    # -- effect protocol ------------------------------------------------
    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        if self._done:
            engine.schedule(0, callback, self._result)
        else:
            self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self._done else "running"
        return f"Process({self.name!r}, {state})"


def _describe(effect: Optional[_Effect]) -> str:
    """Human description of what a process is waiting on (for dumps)."""
    if effect is None:
        return "the scheduler (runnable)"
    if isinstance(effect, Signal):
        name = effect.name or "<anonymous>"
        return f"signal {name!r}"
    if isinstance(effect, Process):
        return f"process {effect.name!r}"
    if isinstance(effect, Timeout):
        return f"Timeout({effect.delay})"
    if isinstance(effect, AllOf):
        return f"AllOf({len(effect.children)} children)"
    return repr(effect)


class Engine:
    """The deterministic discrete-event simulation core.

    >>> eng = Engine()
    >>> def hello():
    ...     yield Timeout(5)
    ...     return eng.now
    >>> p = eng.process(hello())
    >>> eng.run()
    5
    >>> p.result
    5
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list[tuple[int, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        self._live_processes = 0
        self._processes: set[Process] = set()
        self._crashes: list[ProcessCrashed] = []
        # Run-ahead window, opened by :meth:`run` only: the latest wake
        # time and the occurrence count a process may reach without the
        # heap.  Closed (0 occurrences) so a bare :meth:`step` runs one.
        self._horizon: float = -1
        self._max_executed: float = 0
        self._executed = 0
        self._obs_on = False

    # -- scheduling ------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[Any], None], value: Any = None) -> None:
        """Arrange ``callback(value)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + int(delay), self._seq, callback, value))

    def process(self, gen: Generator[_Effect, Any, Any], name: str = "") -> Process:
        """Register a generator as a new process, started at the current time."""
        if not name:
            name = getattr(gen, "__name__", "proc")
        return Process(self, gen, name)

    def signal(self, name: str = "") -> Signal:
        """Create a fresh one-shot :class:`Signal`."""
        return Signal(name)

    def _record_crash(self, crash: ProcessCrashed) -> None:
        self._crashes.append(crash)

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Execute the single next occurrence."""
        if not self._queue:
            raise SimulationError("no scheduled occurrences")
        time, _seq, callback, value = heapq.heappop(self._queue)
        if time < self.now:  # pragma: no cover - internal invariant
            raise SimulationError("event queue time went backwards")
        self.now = time
        callback(value)

    # -- observability -----------------------------------------------------
    def blocked_processes(self) -> list[tuple["Process", Optional[_Effect]]]:
        """Every live process with the effect it is currently waiting on.

        Sorted by name for deterministic dumps.  The effect is None for a
        process that is scheduled to run (not actually blocked).
        """
        return [
            (p, p._waiting_on)
            for p in sorted(self._processes, key=lambda p: (p.name, id(p)))
        ]

    def _format_blocked(self) -> str:
        lines = []
        for proc, effect in self.blocked_processes():
            lines.append(f"  process {proc.name!r} waiting on {_describe(effect)}")
        return "\n".join(lines) if lines else "  (no live processes)"

    def run(
        self,
        until: Optional[int] = None,
        *,
        max_cycles: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the queue drains (or simulated time reaches ``until``).

        Returns the final simulation time.  Raises
        :class:`SimulationDeadlock` if live processes remain with nothing
        scheduled, and :class:`ProcessCrashed` if any process raised.

        Watchdog budgets guard against runaway workloads: ``max_cycles``
        bounds simulated time and ``max_events`` bounds the number of
        executed occurrences.  Exhausting either raises
        :class:`SimulationTimeout` whose message names every still-live
        process and the effect it waits on — unlike ``until``, which
        pauses cleanly, a budget overrun is an error (livelock guard).

        A process whose ``Timeout`` wakes strictly before every queued
        occurrence resumes without a heap round trip (run-ahead, see
        :meth:`Process._step`).  Each such step counts as one executed
        occurrence and never passes ``until`` or ``max_cycles``, so
        results, ``now`` and the watchdogs are exactly those of a
        heap-only run.
        """
        inf = float("inf")
        limit = min(
            inf if until is None else until,
            inf if max_cycles is None else max_cycles,
        )
        max_executed = inf if max_events is None else max_events
        queue = self._queue
        pop = heapq.heappop
        pops = 0
        # One flag read up front: per-occurrence obs cost is a single
        # boolean test plus a mask check (heartbeat gauges for watchdog
        # triage; granular spans here would perturb what we measure).
        obs_on = self._obs_on = obs.enabled()
        self._executed = 0
        self._horizon = limit
        self._max_executed = max_executed
        try:
            while queue:
                when = queue[0][0]
                if when > limit:
                    if until is not None and when > until:
                        self.now = until
                        break
                    if obs_on:
                        obs.count("sim.watchdog.max_cycles")
                    raise SimulationTimeout(
                        f"simulation exceeded max_cycles={max_cycles} (next "
                        f"occurrence at t={when}); live processes:\n"
                        + self._format_blocked(),
                        tuple(self.blocked_processes()),
                    )
                if self._executed >= max_executed:
                    if obs_on:
                        obs.count("sim.watchdog.max_events")
                    raise SimulationTimeout(
                        f"simulation exceeded max_events={max_events} at "
                        f"t={self.now}; live processes:\n" + self._format_blocked(),
                        tuple(self.blocked_processes()),
                    )
                _when, _seq, callback, value = pop(queue)
                pops += 1
                self.now = when
                callback(value)
                self._executed += 1
                if obs_on and (self._executed & 0x3FFF) == 0:
                    self._heartbeat()
                if self._crashes:
                    raise self._crashes[0]
        finally:
            self._horizon = -1
            self._max_executed = 0
            if obs_on:
                # Once per run, so a sweep's manifest sums them.
                obs.count("sim.engine.heap_pops", pops)
                obs.count("sim.engine.run_ahead", self._executed - pops)
        if obs_on:
            self._heartbeat()
        if until is None and self._live_processes > 0:
            obs.count("sim.engine.deadlock")
            raise SimulationDeadlock(
                f"{self._live_processes} process(es) blocked with an empty "
                "event queue:\n" + self._format_blocked(),
                tuple(self.blocked_processes()),
            )
        return self.now

    def _heartbeat(self) -> None:
        """Watchdog-triage gauges (every 16384 occurrences and at the end)."""
        obs.gauge("sim.engine.occurrences", self._executed)
        obs.gauge("sim.engine.now", self.now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Engine(now={self.now}, pending={len(self._queue)})"
