"""Property tests: columnar event-based resolution ≡ the object worklist.

The columnar resolver (:mod:`repro.analysis.eventbased_columnar`) must be
indistinguishable from the reference worklist — same approximated
timestamp for every event, and on malformed traces the *same failure*
(type and message), so the repair/skip degradation policies quarantine
the same threads and converge to the same degraded result.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.approximation import AnalysisError
from repro.analysis.eventbased import BACKENDS, event_based_approximation
from repro.analysis.eventbased_columnar import resolve_columnar
from repro.exec import Executor, PerturbationConfig
from repro.instrument import InstrumentationCosts, calibrate_analysis_constants
from repro.instrument.plan import PLAN_FULL
from repro.ir import ProgramBuilder, loop_body
from repro.machine.costs import FX80
from repro.resilience.inject import DropEvents, DuplicateEvents, ReorderEvents, inject
from repro.trace.columnar import TraceColumns
from repro.trace.trace import Trace

from tests.conftest import build_toy_bigcs, build_toy_doacross

CONSTANTS = calibrate_analysis_constants(FX80, InstrumentationCosts())


def _mixed_sync_program():
    """Advance/await, locks, and semaphores in one program."""
    return (
        ProgramBuilder("mixed-kinds")
        .semaphore("MS", capacity=2)
        .compute("init", cost=20)
        .doacross(
            "k1",
            trips=20,
            body=loop_body()
            .compute("w", cost=20, memory_refs=1)
            .await_("MV", distance=1)
            .compute("c", cost=3, compound=True)
            .advance("MV"),
        )
        .doall(
            "k2",
            trips=20,
            body=loop_body()
            .compute("w", cost=15, memory_refs=1)
            .lock("MLK")
            .compute("c", cost=4)
            .unlock("MLK"),
        )
        .doall(
            "k3",
            trips=20,
            body=loop_body()
            .compute("w", cost=10)
            .sem_wait("MS")
            .compute("burst", cost=25, memory_refs=2)
            .sem_signal("MS"),
        )
        .compute("fini", cost=10)
        .build()
    )


def _measured(program, seed=42, noisy=False):
    perturb = PerturbationConfig(dilation=0.04, jitter=0.05) if noisy else None
    ex = Executor(seed=seed, **({"perturb": perturb} if perturb else {}))
    return ex.run(program, PLAN_FULL).trace


DOACROSS = _measured(build_toy_doacross(trips=25))
BIGCS = _measured(build_toy_bigcs(trips=20), noisy=True)
MIXED = _measured(_mixed_sync_program(), seed=11)


def columnar_copy(trace: Trace) -> Trace:
    return Trace.from_columns(
        TraceColumns.from_events(trace.events), dict(trace.meta)
    )


def _outcome(trace, policy, backend):
    """Result of one analysis, success or failure, in comparable form."""
    try:
        approx = event_based_approximation(
            trace, CONSTANTS, policy=policy, backend=backend
        )
    except Exception as exc:  # noqa: BLE001 - the failure IS the outcome
        return ("raise", type(exc), str(exc))
    return approx


def assert_same_outcome(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        assert a == b  # same exception type and message
        return
    assert a.times == b.times
    assert a.total_time == b.total_time
    assert a.trace.events == b.trace.events
    assert a.diagnostics == b.diagnostics


@pytest.mark.parametrize("trace", [DOACROSS, BIGCS, MIXED],
                         ids=["doacross", "bigcs", "mixed-sync"])
def test_resolver_times_identical(trace):
    """Raw resolver equivalence: every t_a, on both trace backends."""
    from repro.analysis.eventbased import _Resolver

    expected = _Resolver(trace, CONSTANTS).run()
    assert resolve_columnar(trace, CONSTANTS) == expected
    assert resolve_columnar(columnar_copy(trace), CONSTANTS) == expected


@pytest.mark.parametrize("trace", [DOACROSS, BIGCS, MIXED],
                         ids=["doacross", "bigcs", "mixed-sync"])
def test_approximation_identical_across_analysis_backends(trace):
    obj = event_based_approximation(trace, CONSTANTS, backend="object")
    col = event_based_approximation(trace, CONSTANTS, backend="columnar")
    auto = event_based_approximation(trace, CONSTANTS, backend="auto")
    for other in (col, auto):
        assert obj.times == other.times
        assert obj.total_time == other.total_time
        assert obj.trace.events == other.trace.events


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown analysis backend"):
        event_based_approximation(DOACROSS, CONSTANTS, backend="simd")
    assert BACKENDS == ("auto", "native", "columnar", "object")


faults = st.lists(
    st.one_of(
        st.builds(DropEvents,
                  fraction=st.floats(min_value=0.05, max_value=0.6),
                  kinds=st.none(), thread=st.none()),
        st.builds(DuplicateEvents,
                  fraction=st.floats(min_value=0.05, max_value=0.4)),
        st.builds(ReorderEvents,
                  fraction=st.floats(min_value=0.05, max_value=0.4)),
    ),
    min_size=1, max_size=2,
)


@settings(max_examples=20, deadline=None)
@given(faults, st.integers(min_value=0, max_value=2**16),
       st.sampled_from(["strict", "repair", "skip"]))
def test_damaged_traces_same_outcome(fault_list, seed, policy):
    """Both backends succeed identically or fail identically — message
    parity is what keeps the quarantine retry loop on the same path.

    The contract is per-trace: on any *given* trace, swapping the
    analysis backend changes nothing.  (The two trace storage backends
    visit threads in different orders, so between *traces* a different
    structural error may legitimately surface first — that is storage
    behavior, compared separately in test_columnar_equivalence.)
    """
    broken = inject(DOACROSS, fault_list, seed=seed)
    for trace in (broken, columnar_copy(broken)):
        obj = _outcome(trace, policy, "object")
        col = _outcome(trace, policy, "columnar")
        assert_same_outcome(obj, col)


@settings(max_examples=10, deadline=None)
@given(faults, st.integers(min_value=0, max_value=2**16))
def test_damaged_mixed_sync_same_outcome(fault_list, seed):
    """Lock and semaphore resolution rules degrade identically too."""
    broken = inject(MIXED, fault_list, seed=seed)
    for policy in ("strict", "repair"):
        for trace in (broken, columnar_copy(broken)):
            obj = _outcome(trace, policy, "object")
            col = _outcome(trace, policy, "columnar")
            assert_same_outcome(obj, col)


def test_no_sync_identity_error_matches():
    """A sync event stripped of identity raises the same ValueError."""
    from dataclasses import replace

    events = [
        replace(e, sync_var=None) if e.sync_var is not None else e
        for e in DOACROSS.events
    ]
    stripped = Trace(events, dict(DOACROSS.meta))
    for trace in (stripped, columnar_copy(stripped)):
        obj = _outcome(trace, "strict", "object")
        col = _outcome(trace, "strict", "columnar")
        assert isinstance(obj, tuple) and obj[1] is ValueError
        assert_same_outcome(obj, col)
