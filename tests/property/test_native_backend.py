"""Property tests: compiled native resolution ≡ columnar ≡ object.

The native backend (:mod:`repro.analysis.eventbased_native` over the
``repro.native`` JIT-built kernel) joins the same contract the columnar
resolver honors: byte-identical approximated times on valid traces, and
*identical failures* (exception type and message) on damaged ones, so
the repair/skip degradation policies quarantine the same threads no
matter which backend ran.  Fuzzing injects drop/duplicate/reorder faults
and checks the full three-way outcome equality; a separate leg pins the
``REPRO_NATIVE=0`` escape hatch and the int64-overflow guard to the
interpreted fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.analysis.approximation import AnalysisError
from repro.analysis.eventbased import event_based_approximation
from repro.resilience.inject import DropEvents, DuplicateEvents, ReorderEvents, inject

from tests.conftest import build_toy_bigcs
from tests.property.test_eventbased_backends import (
    CONSTANTS,
    DOACROSS,
    MIXED,
    _measured,
    _outcome,
    assert_same_outcome,
    columnar_copy,
)

pytestmark = pytest.mark.skipif(
    not native.native_available(),
    reason=f"native backend unavailable: {native.native_reason()}",
)

NOISY_BIGCS = _measured(build_toy_bigcs(trips=20), noisy=True)


@pytest.mark.parametrize("trace", [DOACROSS, NOISY_BIGCS, MIXED],
                         ids=["doacross", "bigcs", "mixed-sync"])
def test_native_times_identical(trace):
    """Raw resolver equivalence: every t_a, on both trace storages."""
    from repro.analysis.eventbased import _Resolver
    from repro.analysis.eventbased_native import resolve_native

    expected = _Resolver(trace, CONSTANTS).run()
    assert resolve_native(trace, CONSTANTS) == expected
    assert resolve_native(columnar_copy(trace), CONSTANTS) == expected


@pytest.mark.parametrize("trace", [DOACROSS, NOISY_BIGCS, MIXED],
                         ids=["doacross", "bigcs", "mixed-sync"])
def test_native_approximation_identical(trace):
    obj = event_based_approximation(trace, CONSTANTS, backend="object")
    nat = event_based_approximation(trace, CONSTANTS, backend="native")
    assert obj.times == nat.times
    assert obj.total_time == nat.total_time
    assert obj.trace.events == nat.trace.events


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
def test_damaged_traces_same_outcome_as_columnar(fault_list, seed, policy):
    """On any given trace the native backend succeeds identically or
    fails identically — message parity included, because the quarantine
    retry loop parses the implicated threads out of the failure."""
    broken = inject(DOACROSS, fault_list, seed=seed)
    for trace in (broken, columnar_copy(broken)):
        col = _outcome(trace, policy, "columnar")
        nat = _outcome(trace, policy, "native")
        assert_same_outcome(col, nat)


@settings(max_examples=10, deadline=None)
@given(faults, st.integers(min_value=0, max_value=2**16))
def test_damaged_mixed_sync_same_outcome_as_object(fault_list, seed):
    """Lock/semaphore error replay matches the reference worklist too."""
    broken = inject(MIXED, fault_list, seed=seed)
    for policy in ("strict", "repair"):
        for trace in (broken, columnar_copy(broken)):
            obj = _outcome(trace, policy, "object")
            nat = _outcome(trace, policy, "native")
            assert_same_outcome(obj, nat)


def test_auto_prefers_native_and_matches():
    from repro.analysis.eventbased import pick_backend

    assert pick_backend() == "native"
    auto = event_based_approximation(DOACROSS, CONSTANTS, backend="auto")
    nat = event_based_approximation(DOACROSS, CONSTANTS, backend="native")
    assert auto.times == nat.times


def test_int64_overflow_guard_falls_back(monkeypatch):
    """A trace the kernel cannot represent safely is resolved by the
    interpreted path — same answer, no wraparound."""
    from repro.analysis import eventbased_native as en
    from repro.analysis.eventbased_native import _NativeResolver

    resolver = _NativeResolver(columnar_copy(DOACROSS), CONSTANTS)
    assert resolver._int64_safe()

    # Force the guard: pretend a prefix is past the headroom limit.
    monkeypatch.setattr(en, "_INT64_HEADROOM", 1)
    guarded = _NativeResolver(columnar_copy(DOACROSS), CONSTANTS)
    assert not guarded._int64_safe()
    expected = event_based_approximation(DOACROSS, CONSTANTS,
                                         backend="columnar").times
    assert guarded.run() == expected


class TestEscapeHatch:
    """REPRO_NATIVE=0: explicit native errors out; auto degrades."""

    @pytest.fixture(autouse=True)
    def _disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        yield
        native._reset_memo()

    def test_explicit_native_raises(self):
        with pytest.raises(AnalysisError,
                           match="native backend requested but unavailable"):
            event_based_approximation(DOACROSS, CONSTANTS, backend="native")

    def test_auto_falls_back_to_columnar(self):
        from repro.analysis.eventbased import pick_backend

        assert pick_backend() == "columnar"
        auto = event_based_approximation(DOACROSS, CONSTANTS, backend="auto")
        obj = event_based_approximation(DOACROSS, CONSTANTS, backend="object")
        assert auto.times == obj.times
        assert auto.total_time == obj.total_time
