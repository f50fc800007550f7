"""Enabled-mode wiring: the toolchain's hot paths actually record."""

from __future__ import annotations

import pytest

from repro.obs import core
from tests.conftest import build_toy_doacross


@pytest.fixture()
def full_trace(constants):
    from repro.exec import Executor
    from repro.instrument.plan import PLAN_FULL

    program = build_toy_doacross(trips=24)
    return Executor(seed=7).run(program, PLAN_FULL).trace


def test_eventbased_analysis_records_spans_and_backend(full_trace, constants):
    from repro.analysis.eventbased import event_based_approximation

    core.enable(buffer_size=4096)
    event_based_approximation(full_trace, constants, backend="object")
    snap = core.snapshot()
    assert "analysis.eventbased.resolve" in snap.spans
    assert snap.counters.get("analysis.backend.requested.object") == 1
    assert snap.counters.get("analysis.backend.picked.object") == 1


def test_nonstrict_policy_is_counted(full_trace, constants):
    from repro.analysis.eventbased import event_based_approximation

    core.enable(buffer_size=4096)
    event_based_approximation(
        full_trace, constants, policy="repair", backend="object"
    )
    snap = core.snapshot()
    assert snap.counters.get("analysis.policy.repair") == 1
    assert "analysis.eventbased.repair" in snap.spans


def test_timebased_analysis_records_span(full_trace, constants):
    from repro.analysis.timebased import time_based_approximation

    core.enable(buffer_size=4096)
    time_based_approximation(full_trace, constants, backend="object")
    snap = core.snapshot()
    assert snap.spans["analysis.timebased"].count == 1


def test_auto_analysis_counts_method(full_trace, constants):
    from repro.analysis.auto import auto_approximation

    core.enable(buffer_size=4096)
    auto_approximation(full_trace, constants)
    assert core.snapshot().counters.get("analysis.auto.event") == 1


def test_runner_records_simulate_and_cache_counters(tmp_path):
    from repro.runtime import (
        ArtifactCache,
        RuntimeContext,
        clear_memory_cache,
        simulate,
    )
    from tests.runtime.conftest import make_spec

    clear_memory_cache()
    core.enable(buffer_size=4096)
    spec = make_spec(trips=16)
    ctx = RuntimeContext(jobs=1, cache=ArtifactCache(tmp_path))
    simulate(spec, context=ctx)
    snap = core.snapshot()
    assert "runtime.simulate" in snap.spans
    assert "runtime.execute_spec" in snap.spans
    assert snap.counters.get("runtime.cache.miss") == 1
    assert snap.counters.get("runtime.cache.store") == 1

    # Second call in the same process memo-hits before the disk cache.
    simulate(spec, context=ctx)
    assert core.snapshot().counters.get("runtime.memo.hit") == 1


def test_sim_engine_reports_heartbeat_gauges(full_trace):
    # full_trace's executor already ran an Engine, but under its own obs
    # state; run a fresh one while enabled.
    from repro.exec import Executor
    from repro.instrument.plan import PLAN_FULL

    core.enable(buffer_size=4096)
    Executor(seed=3).run(build_toy_doacross(trips=16), PLAN_FULL)
    snap = core.snapshot()
    assert snap.gauges.get("sim.engine.occurrences", 0) > 0
    assert "sim.engine.now" in snap.gauges


def test_sim_engine_counts_heap_pops_and_run_ahead():
    from repro.exec import Executor
    from repro.instrument.plan import PLAN_FULL, PLAN_NONE

    core.enable(buffer_size=4096)
    occurrences = 0
    for plan in (PLAN_NONE, PLAN_FULL):
        Executor(seed=3).run(build_toy_doacross(trips=16), plan)
        occurrences += core.snapshot().gauges["sim.engine.occurrences"]
    counters = core.snapshot().counters
    # Counted once per run, so two runs sum: every occurrence was either
    # popped off the heap or resolved by run-ahead, never both.
    assert counters["sim.engine.heap_pops"] > 0
    assert counters["sim.engine.run_ahead"] > 0
    assert (
        counters["sim.engine.heap_pops"] + counters["sim.engine.run_ahead"]
        == occurrences
    )


def test_quarantine_records_counters(full_trace, constants):
    from repro.analysis.eventbased import event_based_approximation
    from repro.trace.trace import Trace

    # Drop one thread's advance events: repair demotes/quarantines.
    victim = sorted(full_trace.threads)[0]
    broken = Trace(
        [
            e
            for e in full_trace.events
            if not (e.thread == victim and e.kind.name == "ADVANCE")
        ],
        dict(full_trace.meta),
    )
    core.enable(buffer_size=8192)
    event_based_approximation(
        broken, constants, policy="skip", backend="object"
    )
    snap = core.snapshot()
    # The repair pass ran and did *something* observable.
    assert snap.counters.get("analysis.policy.skip") == 1
    assert "analysis.eventbased.repair" in snap.spans
