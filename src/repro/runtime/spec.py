"""Declarative simulation work items and their content hashes.

A :class:`RunSpec` names everything that determines one simulated
execution: the program (by Livermore kernel/mode/trips, so workers rebuild
the IR locally instead of unpickling statement graphs), the
instrumentation plan, the machine and perturbation configurations, the
noise seed, and the optional watchdog budgets.  Two specs with equal
fields produce bit-identical :class:`~repro.exec.result.ExecutionResult`\\ s
in any process — that determinism is what makes both the process-pool
fan-out and the content-addressed cache sound.

:func:`spec_key` derives the cache key: a SHA-256 over a canonical JSON
rendering of the *built* program IR (statement structure and per-iteration
costs, so kernel model changes invalidate old artifacts) plus every other
spec field and the code/schema version.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Optional

from repro.exec.perturbation import PerturbationConfig
from repro.instrument.costs import InstrumentationCosts
from repro.instrument.plan import InstrumentationPlan
from repro.ir.program import Loop, Program, Schedule
from repro.ir.statements import Statement
from repro.machine.costs import MachineConfig

#: Bump to invalidate every cached artifact after a semantics-affecting
#: change to the simulator or the serialized result schema.
CACHE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ProgramSpec:
    """Recipe for (re)building one Livermore program IR.

    Shipping the recipe instead of the built :class:`Program` keeps specs
    small and trivially picklable; workers call :meth:`build` locally.
    """

    kernel: int
    mode: str = "doacross"
    trips: Optional[int] = None

    def build(self) -> Program:
        from repro.livermore import livermore_program

        return livermore_program(self.kernel, mode=self.mode, trips=self.trips)


@dataclass(frozen=True)
class RunSpec:
    """One simulation tuple: everything that determines one execution."""

    program: ProgramSpec
    plan: InstrumentationPlan
    machine: MachineConfig
    costs: InstrumentationCosts
    perturb: PerturbationConfig
    seed: int
    max_cycles: Optional[int] = None
    max_events: Optional[int] = None


def _canon(value: Any) -> Any:
    """Canonical JSON-safe rendering of config dataclasses and enums."""
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canon(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, Schedule):
        return value.value
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _statement_digest(stmt: Statement, trips: Optional[int]) -> dict[str, Any]:
    """Canonical rendering of one statement, costs made concrete.

    Iteration-dependent costs (loop 17's branchy critical section) are
    sampled over the loop's whole trip range so the digest reflects the
    actual work the simulator will charge, callable or not.
    """
    d: dict[str, Any] = {"type": type(stmt).__name__}
    for f in fields(stmt):
        v = getattr(stmt, f.name)
        if f.name == "cost" and callable(v):
            costs = [stmt.nominal_cost(i) for i in range(trips or 0)]
            v = "fn:" + hashlib.sha256(
                json.dumps(costs).encode()
            ).hexdigest()[:16]
        d[f.name] = _canon(v)
    return d


def program_digest(program: Program) -> dict[str, Any]:
    """Canonical, JSON-safe description of a program's full IR."""
    items: list[dict[str, Any]] = []
    for item in program.items:
        if isinstance(item, Loop):
            items.append(
                {
                    "type": type(item).__name__,
                    "name": item.name,
                    "trips": item.trips,
                    "schedule": _canon(getattr(item, "schedule", None)),
                    "body": [
                        _statement_digest(s, item.trips) for s in item.body
                    ],
                }
            )
        else:
            items.append(_statement_digest(item, None))
    return {
        "name": program.name,
        "semaphores": _canon(program.semaphores),
        "items": items,
    }


def spec_key(spec: RunSpec, program: Optional[Program] = None) -> str:
    """Stable content hash of a spec (the artifact cache address).

    Pass ``program`` to reuse an already-built IR; otherwise the spec's
    program is built here (cheap relative to simulating it).
    """
    if program is None:
        program = spec.program.build()
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "program": program_digest(program),
        "plan": _canon(spec.plan),
        "machine": _canon(spec.machine),
        "costs": _canon(spec.costs),
        "perturb": _canon(spec.perturb),
        "seed": spec.seed,
        "max_cycles": spec.max_cycles,
        "max_events": spec.max_events,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
