"""The program executor.

Execution semantics (kept deliberately explicit so the analysis formulas in
:mod:`repro.analysis` line up exactly):

* **Compute statement** — work for its (possibly jittered/dilated) cost.
  Logical trace: a STMT event at completion, zero overhead.  Measured
  trace (if probed): after the work, the probe runs for
  ``costs.stmt_event`` cycles and records a STMT event at probe
  completion.  Hence on any thread ``t_m(e_k) - t_m(e_{k-1}) =
  work_k + overhead_k`` — the invariant time-based analysis relies on.
* **Await** — if sync events are probed, the ``awaitB`` probe (β) runs
  *before* the await operation and records awaitB; then the operation
  (``s_nowait`` cycles, or blocking until the advance then ``s_wait``
  cycles); then the ``awaitE`` probe records awaitE.  Unprobed awaits
  execute the bare operation.
* **Advance** — the bare operation (``advance_op`` cycles, making the index
  visible to waiters at operation completion), then the probe (α) if sync
  events are probed.
* **Parallel loops** — every CE forks in (``loop_fork``), self-schedules
  iterations from the concurrency bus (``dispatch`` per request) or follows
  a static assignment, then meets at the loop-end barrier; all CEs pay
  ``barrier_op`` after the last arrival (the paper treats DOACROSS ends as
  barriers, §5.1).

Ancillary perturbation: instrumented runs may dilate memory-referencing
statements by a configurable factor (trace-buffer cache pollution) that the
analysis does *not* know about — the paper's point that probes also perturb
memory behaviour, bounding achievable accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from repro.exec.result import CESnapshot, ExecutionResult, SyncVarStats
from repro.instrument.costs import InstrumentationCosts
from repro.instrument.plan import InstrumentationPlan
from repro.ir.program import (
    DoAcrossLoop,
    DoAllLoop,
    Loop,
    Program,
    ProgramError,
    Schedule,
    SequentialLoop,
)
from repro.ir.statements import (
    Advance,
    Await,
    Compute,
    LockAcquire,
    LockRelease,
    SemSignal,
    SemWait,
    Statement,
)
from repro.ir.validate import validate_program
from repro.machine.costs import MachineConfig, FX80
from repro.machine.machine import Machine
from repro.sim.engine import AllOf, Timeout
from repro.trace.columnar import (
    COLUMN_NAMES,
    NONE_SENTINEL,
    StringTable,
    TraceColumns,
)
from repro.trace.events import KIND_CODE, EventKind
from repro.trace.trace import Trace


@dataclass(frozen=True)
class PerturbationConfig:
    """Ancillary (non-probe) perturbation applied to instrumented runs.

    Attributes
    ----------
    dilation:
        Fractional slowdown applied to memory-referencing statements when
        any instrumentation is active (probe buffer traffic polluting the
        cache).  Unknown to the analysis.
    jitter:
        Fractional, deterministic pseudo-random variation of statement
        costs (memory/bus contention noise), applied to *all* runs with
        per-run streams.  Makes the measured and actual interleavings
        genuinely different, like on real hardware.
    """

    dilation: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.dilation < 0 or self.jitter < 0:
            raise ValueError("perturbation fractions must be >= 0")


class Executor:
    """Runs IR programs on a freshly built machine per call.

    Parameters
    ----------
    machine_config:
        Machine to simulate (defaults to the FX/80-like configuration).
    inst_costs:
        Instrumentation probe overheads in effect for measured runs.
    perturb:
        Ancillary perturbation configuration.
    seed:
        Machine noise seed.  Runs with the same seed and plan are
        bit-identical; instrumented and uninstrumented runs use distinct
        derived streams so their noise differs (as it would across real
        executions).
    """

    def __init__(
        self,
        machine_config: MachineConfig = FX80,
        inst_costs: Optional[InstrumentationCosts] = None,
        perturb: Optional[PerturbationConfig] = None,
        seed: int = 1,
    ):
        self.machine_config = machine_config
        self.inst_costs = inst_costs if inst_costs is not None else InstrumentationCosts()
        self.perturb = perturb if perturb is not None else PerturbationConfig()
        self.seed = seed

    # ------------------------------------------------------------------ API
    def run(
        self,
        program: Program,
        plan: InstrumentationPlan,
        *,
        max_cycles: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> ExecutionResult:
        """Execute ``program`` under ``plan`` and return the result.

        ``max_cycles`` / ``max_events`` are watchdog budgets forwarded to
        :meth:`repro.sim.Engine.run`; a program that livelocks past either
        budget raises :class:`repro.sim.SimulationTimeout` naming the
        blocked CEs instead of hanging the host.
        """
        validate_program(program)
        run = _Run(self, program, plan, max_cycles=max_cycles, max_events=max_events)
        return run.execute()


class _Run:
    """State for one execution (one machine power-on)."""

    def __init__(
        self,
        executor: Executor,
        program: Program,
        plan: InstrumentationPlan,
        *,
        max_cycles: Optional[int] = None,
        max_events: Optional[int] = None,
    ):
        self.max_cycles = max_cycles
        self.max_events = max_events
        self.cfg = executor.machine_config
        self.inst = executor.inst_costs
        self.perturb = executor.perturb
        self.program = program
        self.plan = plan
        self.logical = not plan.any_probes  # uninstrumented = logical trace
        # Instrumented and uninstrumented runs draw from different noise
        # streams (distinct executions), but the same plan+seed reproduces.
        stream = 1 if self.logical else 2
        self.machine = Machine(self.cfg, seed=(executor.seed * 1_000_003 + stream))
        self.engine = self.machine.engine
        # The trace is recorded straight into columns: one flat row of
        # ``COLUMN_NAMES`` values per event, strings interned in
        # first-seen (= recording) order, converted once at the end.
        self._rows: list[int] = []
        self._sync_vars = StringTable()
        self._labels = StringTable()
        self._seq = 0
        self.assignments: dict[str, dict[int, int]] = {}
        self._barrier_gen: dict[str, int] = {}

    # -------------------------------------------------------------- helpers
    @property
    def costs(self):
        return self.cfg.costs

    def _record(
        self,
        ce_id: int,
        kind: EventKind,
        stmt: Optional[Statement] = None,
        iteration: Optional[int] = None,
        sync_var: Optional[str] = None,
        sync_index: Optional[int] = None,
        label: str = "",
        overhead: int = 0,
    ) -> None:
        if stmt is not None:
            eid = stmt.eid
            label = label or stmt.label
        else:
            eid = -1
        self._rows.extend((
            self.engine.now,
            ce_id,
            KIND_CODE[kind],
            eid,
            self._seq,
            NONE_SENTINEL if iteration is None else iteration,
            NONE_SENTINEL if sync_index is None else sync_index,
            overhead,
            self._sync_vars.intern(sync_var),
            self._labels.intern(label) if label else -1,
        ))
        self._seq += 1

    def _columns(self) -> TraceColumns:
        """The recorded rows as one column block (a single numpy pass)."""
        rows, self._rows = self._rows, []
        table = np.array(rows, dtype=np.int64).reshape(-1, len(COLUMN_NAMES))
        del rows  # release the per-value int objects before the copy
        table = np.ascontiguousarray(table.T)
        return TraceColumns(
            **dict(zip(COLUMN_NAMES, table)),
            sync_var_table=self._sync_vars.strings,
            label_table=self._labels.strings,
        )

    def _probe(
        self,
        ce_id: int,
        kind: EventKind,
        stmt: Optional[Statement] = None,
        iteration: Optional[int] = None,
        sync_var: Optional[str] = None,
        sync_index: Optional[int] = None,
        label: str = "",
    ) -> Generator[Any, Any, None]:
        """Execute a trace probe: overhead cycles, then record the event."""
        ov = self.inst.overhead_for(kind)
        if ov:
            yield Timeout(ov)
            self.machine.ce(ce_id).overhead_cycles += ov
        self._record(
            ce_id,
            kind,
            stmt=stmt,
            iteration=iteration,
            sync_var=sync_var,
            sync_index=sync_index,
            label=label,
            overhead=ov,
        )

    # ------------------------------------------------------ statement exec
    def _statement_cost(self, ce_id: int, stmt: Compute, iteration: Optional[int]) -> int:
        cost = stmt.nominal_cost(iteration)
        if self.perturb.jitter > 0:
            cost = self.machine.ce_rngs[ce_id].jitter(cost, self.perturb.jitter)
        if (not self.logical) and self.perturb.dilation > 0 and stmt.memory_refs > 0:
            cost = round(cost * (1.0 + self.perturb.dilation))
        return cost

    def _exec_compute(
        self, ce_id: int, stmt: Compute, iteration: Optional[int]
    ) -> Generator[Any, Any, None]:
        ce = self.machine.ce(ce_id)
        cost = self._statement_cost(ce_id, stmt, iteration)
        if cost:
            yield Timeout(cost)
        ce.busy_cycles += cost
        if self.logical:
            self._record(ce_id, EventKind.STMT, stmt=stmt, iteration=iteration)
        elif self.plan.probes_statement(stmt) and not stmt.compound_member:
            yield from self._probe(ce_id, EventKind.STMT, stmt=stmt, iteration=iteration)

    def _exec_await(
        self, ce_id: int, stmt: Await, iteration: int
    ) -> Generator[Any, Any, None]:
        ce = self.machine.ce(ce_id)
        reg = self.machine.bus.register(stmt.var)
        index = stmt.index_for(iteration)
        probed = (not self.logical) and self.plan.sync_events
        if self.logical:
            self._record(
                ce_id,
                EventKind.AWAIT_B,
                stmt=stmt,
                iteration=iteration,
                sync_var=stmt.var,
                sync_index=index,
            )
        elif probed:
            yield from self._probe(
                ce_id,
                EventKind.AWAIT_B,
                stmt=stmt,
                iteration=iteration,
                sync_var=stmt.var,
                sync_index=index,
            )
        t0 = self.engine.now
        waited = yield from reg.await_(index, self.costs)
        elapsed = self.engine.now - t0
        processing = self.costs.await_resume if waited else self.costs.await_check
        blocked = max(0, elapsed - processing)
        ce.wait_cycles += blocked
        ce.busy_cycles += processing
        if self.logical:
            self._record(
                ce_id,
                EventKind.AWAIT_E,
                stmt=stmt,
                iteration=iteration,
                sync_var=stmt.var,
                sync_index=index,
            )
        elif probed:
            yield from self._probe(
                ce_id,
                EventKind.AWAIT_E,
                stmt=stmt,
                iteration=iteration,
                sync_var=stmt.var,
                sync_index=index,
            )
        elif self.plan.sync_as_statements:
            yield from self._probe(ce_id, EventKind.STMT, stmt=stmt, iteration=iteration)

    def _exec_advance(
        self, ce_id: int, stmt: Advance, iteration: int
    ) -> Generator[Any, Any, None]:
        ce = self.machine.ce(ce_id)
        reg = self.machine.bus.register(stmt.var)
        index = stmt.index_for(iteration)
        yield from reg.advance(index, self.costs)
        ce.busy_cycles += self.costs.advance_op
        if self.logical:
            self._record(
                ce_id,
                EventKind.ADVANCE,
                stmt=stmt,
                iteration=iteration,
                sync_var=stmt.var,
                sync_index=index,
            )
        elif self.plan.sync_events:
            yield from self._probe(
                ce_id,
                EventKind.ADVANCE,
                stmt=stmt,
                iteration=iteration,
                sync_var=stmt.var,
                sync_index=index,
            )
        elif self.plan.sync_as_statements:
            yield from self._probe(ce_id, EventKind.STMT, stmt=stmt, iteration=iteration)

    def _sync_event_or_stmt(
        self, ce_id: int, kind: EventKind, stmt: Statement, iteration: int,
        sync_var: str,
    ) -> Generator[Any, Any, None]:
        """Record a sync-op event per the plan (identity / plain / none)."""
        if self.logical:
            self._record(
                ce_id, kind, stmt=stmt, iteration=iteration,
                sync_var=sync_var, sync_index=iteration,
            )
        elif self.plan.sync_events:
            yield from self._probe(
                ce_id, kind, stmt=stmt, iteration=iteration,
                sync_var=sync_var, sync_index=iteration,
            )
        elif self.plan.sync_as_statements:
            yield from self._probe(ce_id, EventKind.STMT, stmt=stmt, iteration=iteration)

    def _exec_lock_acquire(
        self, ce_id: int, stmt: LockAcquire, iteration: int
    ) -> Generator[Any, Any, None]:
        ce = self.machine.ce(ce_id)
        lock = self.machine.bus.lock(stmt.lock)
        probed = (not self.logical) and self.plan.sync_events
        if self.logical:
            self._record(
                ce_id, EventKind.LOCK_REQ, stmt=stmt, iteration=iteration,
                sync_var=stmt.lock, sync_index=iteration,
            )
        elif probed:
            yield from self._probe(
                ce_id, EventKind.LOCK_REQ, stmt=stmt, iteration=iteration,
                sync_var=stmt.lock, sync_index=iteration,
            )
        t0 = self.engine.now
        waited = yield from lock.acquire(self.costs)
        elapsed = self.engine.now - t0
        processing = self.costs.lock_handoff if waited else self.costs.lock_acquire
        ce.wait_cycles += max(0, elapsed - processing)
        ce.busy_cycles += processing
        if self.logical:
            self._record(
                ce_id, EventKind.LOCK_ACQ, stmt=stmt, iteration=iteration,
                sync_var=stmt.lock, sync_index=iteration,
            )
        elif probed:
            yield from self._probe(
                ce_id, EventKind.LOCK_ACQ, stmt=stmt, iteration=iteration,
                sync_var=stmt.lock, sync_index=iteration,
            )
        elif self.plan.sync_as_statements:
            yield from self._probe(ce_id, EventKind.STMT, stmt=stmt, iteration=iteration)

    def _exec_lock_release(
        self, ce_id: int, stmt: LockRelease, iteration: int
    ) -> Generator[Any, Any, None]:
        ce = self.machine.ce(ce_id)
        lock = self.machine.bus.lock(stmt.lock)
        yield from lock.release(self.costs)
        ce.busy_cycles += self.costs.lock_release
        yield from self._sync_event_or_stmt(
            ce_id, EventKind.LOCK_REL, stmt, iteration, stmt.lock
        )

    def _exec_sem_wait(
        self, ce_id: int, stmt: SemWait, iteration: int
    ) -> Generator[Any, Any, None]:
        ce = self.machine.ce(ce_id)
        capacity = self.program.semaphores[stmt.sem]
        sem = self.machine.bus.semaphore(stmt.sem, capacity)
        probed = (not self.logical) and self.plan.sync_events
        if self.logical:
            self._record(
                ce_id, EventKind.SEM_REQ, stmt=stmt, iteration=iteration,
                sync_var=stmt.sem, sync_index=iteration,
            )
        elif probed:
            yield from self._probe(
                ce_id, EventKind.SEM_REQ, stmt=stmt, iteration=iteration,
                sync_var=stmt.sem, sync_index=iteration,
            )
        t0 = self.engine.now
        waited = yield from sem.wait(self.costs)
        elapsed = self.engine.now - t0
        processing = self.costs.lock_handoff if waited else self.costs.lock_acquire
        ce.wait_cycles += max(0, elapsed - processing)
        ce.busy_cycles += processing
        if self.logical:
            self._record(
                ce_id, EventKind.SEM_ACQ, stmt=stmt, iteration=iteration,
                sync_var=stmt.sem, sync_index=iteration,
            )
        elif probed:
            yield from self._probe(
                ce_id, EventKind.SEM_ACQ, stmt=stmt, iteration=iteration,
                sync_var=stmt.sem, sync_index=iteration,
            )
        elif self.plan.sync_as_statements:
            yield from self._probe(ce_id, EventKind.STMT, stmt=stmt, iteration=iteration)

    def _exec_sem_signal(
        self, ce_id: int, stmt: SemSignal, iteration: int
    ) -> Generator[Any, Any, None]:
        ce = self.machine.ce(ce_id)
        capacity = self.program.semaphores[stmt.sem]
        sem = self.machine.bus.semaphore(stmt.sem, capacity)
        yield from sem.signal(self.costs)
        ce.busy_cycles += self.costs.lock_release
        yield from self._sync_event_or_stmt(
            ce_id, EventKind.SEM_SIG, stmt, iteration, stmt.sem
        )

    def _exec_statement(
        self, ce_id: int, stmt: Statement, iteration: Optional[int]
    ) -> Generator[Any, Any, None]:
        if isinstance(stmt, Compute):
            yield from self._exec_compute(ce_id, stmt, iteration)
        elif isinstance(stmt, Await):
            if iteration is None:
                raise ProgramError(f"await {stmt.label!r} outside a loop")
            yield from self._exec_await(ce_id, stmt, iteration)
        elif isinstance(stmt, Advance):
            if iteration is None:
                raise ProgramError(f"advance {stmt.label!r} outside a loop")
            yield from self._exec_advance(ce_id, stmt, iteration)
        elif isinstance(stmt, LockAcquire):
            if iteration is None:
                raise ProgramError(f"lock {stmt.label!r} outside a loop")
            yield from self._exec_lock_acquire(ce_id, stmt, iteration)
        elif isinstance(stmt, LockRelease):
            if iteration is None:
                raise ProgramError(f"unlock {stmt.label!r} outside a loop")
            yield from self._exec_lock_release(ce_id, stmt, iteration)
        elif isinstance(stmt, SemWait):
            if iteration is None:
                raise ProgramError(f"P {stmt.label!r} outside a loop")
            yield from self._exec_sem_wait(ce_id, stmt, iteration)
        elif isinstance(stmt, SemSignal):
            if iteration is None:
                raise ProgramError(f"V {stmt.label!r} outside a loop")
            yield from self._exec_sem_signal(ce_id, stmt, iteration)
        else:  # pragma: no cover - defensive
            raise ProgramError(f"cannot execute statement {stmt!r}")

    # ----------------------------------------------------------- loop exec
    def _loop_marker(
        self, ce_id: int, kind: EventKind, loop: Loop
    ) -> Generator[Any, Any, None]:
        if self.logical:
            self._record(ce_id, kind, label=loop.name)
        elif self.plan.loop_events:
            yield from self._probe(ce_id, kind, label=loop.name)

    def _barrier_event(
        self, ce_id: int, kind: EventKind, loop: Loop, generation: int
    ) -> Generator[Any, Any, None]:
        if self.logical:
            self._record(
                ce_id, kind, label=loop.name, sync_var=f"{loop.name}.barrier",
                sync_index=generation,
            )
        elif self.plan.loop_events:
            yield from self._probe(
                ce_id, kind, label=loop.name, sync_var=f"{loop.name}.barrier",
                sync_index=generation,
            )

    def _static_assignment(self, loop: Loop, schedule: Schedule) -> list[list[int]]:
        n = self.machine.n_ce
        out: list[list[int]] = [[] for _ in range(n)]
        if schedule is Schedule.STATIC_CYCLIC:
            for i in range(loop.trips):
                out[i % n].append(i)
        elif schedule is Schedule.STATIC_BLOCK:
            per = (loop.trips + n - 1) // n
            for i in range(loop.trips):
                out[min(i // per, n - 1)].append(i)
        else:  # pragma: no cover - callers guard
            raise ProgramError(f"not a static schedule: {schedule}")
        return out

    def _worker(
        self,
        ce_id: int,
        loop: Loop,
        dispatcher,
        static_iters: Optional[list[int]],
        barrier,
    ) -> Generator[Any, Any, None]:
        ce = self.machine.ce(ce_id)
        yield Timeout(self.costs.loop_fork)
        ce.busy_cycles += self.costs.loop_fork
        yield from self._loop_marker(ce_id, EventKind.LOOP_BEGIN, loop)
        assignment = self.assignments.setdefault(loop.name, {})
        if static_iters is None:
            while True:
                t0 = self.engine.now
                index = yield from dispatcher.next_iteration(ce_id)
                ce.dispatch_cycles += self.engine.now - t0
                if index is None:
                    break
                ce.iterations_run += 1
                for stmt in loop.body:
                    yield from self._exec_statement(ce_id, stmt, index)
        else:
            for index in static_iters:
                assignment[index] = ce_id
                ce.iterations_run += 1
                for stmt in loop.body:
                    yield from self._exec_statement(ce_id, stmt, index)
        # Loop-end barrier (the paper handles DOACROSS ends as barriers).
        generation = self._barrier_gen.setdefault(loop.name, 0)
        yield from self._barrier_event(ce_id, EventKind.BARRIER_ARRIVE, loop, generation)
        t0 = self.engine.now
        yield barrier.arrive()
        ce.wait_cycles += self.engine.now - t0
        yield Timeout(self.costs.barrier_op)
        ce.busy_cycles += self.costs.barrier_op
        yield from self._barrier_event(ce_id, EventKind.BARRIER_EXIT, loop, generation)

    def _run_parallel_loop(self, loop: Loop) -> Generator[Any, Any, None]:
        n = self.machine.n_ce
        schedule = getattr(loop, "schedule", Schedule.SELF)
        if schedule is Schedule.SELF:
            dispatcher = self.machine.bus.dispatcher(loop.trips, loop.name)
            static: Optional[list[list[int]]] = None
        else:
            dispatcher = None
            static = self._static_assignment(loop, schedule)
        barrier = self.machine.bus.barrier(n, f"{loop.name}.barrier")
        workers = [
            self.engine.process(
                self._worker(
                    ce_id,
                    loop,
                    dispatcher,
                    static[ce_id] if static is not None else None,
                    barrier,
                ),
                name=f"{loop.name}.ce{ce_id}",
            )
            for ce_id in range(n)
        ]
        yield AllOf(workers)
        if dispatcher is not None:
            self.assignments.setdefault(loop.name, {}).update(dispatcher.assignment)
        self._barrier_gen[loop.name] = self._barrier_gen.get(loop.name, 0) + 1
        # Initiating CE resumes sequential execution.
        yield Timeout(self.costs.loop_join)
        self.machine.ce(0).busy_cycles += self.costs.loop_join
        yield from self._loop_marker(0, EventKind.LOOP_END, loop)

    def _run_sequential_loop(self, loop: SequentialLoop) -> Generator[Any, Any, None]:
        yield from self._loop_marker(0, EventKind.LOOP_BEGIN, loop)
        for i in range(loop.trips):
            for stmt in loop.body:
                yield from self._exec_statement(0, stmt, i)
        yield from self._loop_marker(0, EventKind.LOOP_END, loop)

    # ------------------------------------------------------------- program
    def _main(self) -> Generator[Any, Any, None]:
        for item in self.program.items:
            if isinstance(item, Statement):
                yield from self._exec_statement(0, item, None)
            elif isinstance(item, SequentialLoop):
                yield from self._run_sequential_loop(item)
            elif isinstance(item, (DoAllLoop, DoAcrossLoop)):
                yield from self._run_parallel_loop(item)
            else:  # pragma: no cover - defensive
                raise ProgramError(f"cannot execute program item {item!r}")

    def execute(self) -> ExecutionResult:
        self.machine.mark_used()
        self.engine.process(self._main(), name=f"{self.program.name}.main")
        total_time = self.engine.run(
            max_cycles=self.max_cycles, max_events=self.max_events
        )
        meta = {
            "program": self.program.name,
            "kind": "logical" if self.logical else "measured",
            "instrumented": not self.logical,
            "plan": self.plan.describe(),
            "n_threads": self.machine.n_ce,
            "clock_mhz": self.cfg.clock_mhz,
            "total_time": total_time,
        }
        if self.program.semaphores:
            # Declared capacities are program knowledge the tracer records;
            # the semaphore analysis rule needs them.
            meta["semaphores"] = dict(self.program.semaphores)
        # Rows are recorded in (time, seq) order, so this never re-sorts;
        # ``trace.events`` is materialized only if a caller walks objects.
        trace = Trace.from_columns(self._columns(), meta=meta)
        ce_stats = [
            CESnapshot(
                ce_id=ce.ce_id,
                busy=ce.busy_cycles,
                wait=ce.wait_cycles,
                dispatch=ce.dispatch_cycles,
                overhead=ce.overhead_cycles,
                iterations=ce.iterations_run,
            )
            for ce in self.machine.ces
        ]
        sync_stats = {
            var: SyncVarStats(
                var=var,
                wait_count=reg.wait_count,
                nowait_count=reg.nowait_count,
                total_wait_cycles=reg.total_wait_cycles,
            )
            for var, reg in self.machine.bus.registers().items()
        }
        sync_stats.update(
            {
                name: SyncVarStats(
                    var=name,
                    wait_count=lock.wait_count,
                    nowait_count=lock.nowait_count,
                    total_wait_cycles=lock.total_wait_cycles,
                )
                for name, lock in self.machine.bus.locks().items()
            }
        )
        sync_stats.update(
            {
                name: SyncVarStats(
                    var=name,
                    wait_count=sem.wait_count,
                    nowait_count=sem.nowait_count,
                    total_wait_cycles=sem.total_wait_cycles,
                )
                for name, sem in self.machine.bus.semaphores().items()
            }
        )
        return ExecutionResult(
            program=self.program.name,
            plan=self.plan,
            trace=trace,
            total_time=total_time,
            n_ce=self.machine.n_ce,
            clock_mhz=self.cfg.clock_mhz,
            ce_stats=ce_stats,
            sync_stats=sync_stats,
            assignments=self.assignments,
        )
