"""Differential oracle: clean parity, seeded divergences, minimization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.audit import (
    AuditFinding,
    audit_program,
    audit_trace,
    first_divergence,
    fuzz_audit,
    fuzz_repro_command,
    minimize_events,
)
from repro.audit.differential import TRACE_CHECKS
from repro.exec import Executor
from repro.instrument.plan import PLAN_FULL
from repro.ir.fuzz import random_program
from repro.trace.events import EventKind, TraceEvent

from tests.conftest import build_toy_doacross


def _measured(seed=7, trips=12):
    return Executor(seed=seed).run(build_toy_doacross(trips=trips), PLAN_FULL).trace


# ------------------------------------------------------------- divergences
def _evt(i, **kw):
    base = dict(time=i * 10, thread=0, kind=EventKind.STMT, eid=i, seq=i)
    base.update(kw)
    return TraceEvent(**base)


def test_first_divergence_none_on_equal():
    events = [_evt(i) for i in range(4)]
    assert first_divergence(events, list(events)) is None


def test_first_divergence_localizes_field():
    a = [_evt(0), _evt(1, label="x"), _evt(2)]
    b = [_evt(0), _evt(1, label="y"), _evt(2)]
    index, field, expected, actual = first_divergence(a, b)
    assert (index, field) == (1, "label")
    assert expected == "'x'" and actual == "'y'"


def test_first_divergence_length_mismatch():
    a = [_evt(0), _evt(1)]
    index, field, expected, actual = first_divergence(a, a[:1])
    assert (index, field) == (1, "length")
    assert (expected, actual) == ("2", "1")


def test_minimize_events_shrinks_to_witness():
    events = [_evt(i) for i in range(50)]
    events[31] = _evt(31, label="bad")

    def diverges(evs):
        return any(e.label == "bad" for e in evs)

    minimal = minimize_events(events, diverges)
    assert len(minimal) == 1 and minimal[0].label == "bad"


def test_minimize_events_is_bounded():
    events = [_evt(i) for i in range(64)]
    calls = 0

    def diverges(evs):
        nonlocal calls
        calls += 1
        return len(evs) >= 2  # needs at least a pair: can't reach size 1

    minimal = minimize_events(events, diverges, max_probes=30)
    assert calls <= 30
    assert 2 <= len(minimal) <= len(events)


# ---------------------------------------------------------- clean pipeline
def test_clean_trace_passes_every_check():
    from repro import native

    report = audit_trace(_measured(), program="toy", minimize=False)
    assert report.ok
    # One packed round-trip pair: v3 is the only packed format written.
    assert "roundtrip-rpt3" in TRACE_CHECKS
    assert "roundtrip-rpt" not in TRACE_CHECKS
    if native.native_available():
        assert report.checks_run == len(TRACE_CHECKS)
        assert report.skipped == []  # compiler present: nothing skipped
    else:
        # No compiler (or REPRO_NATIVE=0): only the native pairs skip,
        # and they are recorded, never silently dropped.
        assert report.skipped == [
            "eventbased-native-columnar", "eventbased-native-object",
        ]
        assert report.checks_run == len(TRACE_CHECKS) - 2


def test_fuzz_audit_clean_matrix():
    report = fuzz_audit(3, base_seed=100, minimize=False)
    assert report.ok
    assert report.programs_checked == 3


def test_fuzz_audit_reports_progress():
    lines = []
    fuzz_audit(2, base_seed=5, minimize=False, progress=lines.append)
    assert lines == ["[1/2] fuzz seed 5", "[2/2] fuzz seed 6"]


def test_audit_program_gates_on_static_issues():
    """A structurally broken program is reported, never simulated."""
    from repro.ir.program import Block, DoAcrossLoop, Program
    from repro.ir.statements import Advance

    bad = Program("broken", [
        DoAcrossLoop(trips=5, name="L", body=Block([Advance(var="A")])),
    ])
    report = audit_program(bad, seed=9, repro="cmd")
    assert not report.ok
    assert all(f.check == "static" for f in report.findings)
    assert report.findings[0].seed == 9
    assert report.findings[0].repro == "cmd"


# -------------------------------------------------- seeded divergences
@pytest.fixture
def corrupt_columnar_timebased(monkeypatch):
    """Mutation: the vectorized time-based path drifts by one cycle.

    This is the audit's reason to exist — a silently wrong redundant
    implementation.  The object path stays correct, so every check that
    compares the two must fire.
    """
    from repro.analysis import timebased

    original = timebased._vectorized_times

    def corrupted(measured, costs):
        times = original(measured, costs)
        if times:
            first = min(times)
            times[first] = times[first] + 1
        return times

    monkeypatch.setattr(timebased, "_vectorized_times", corrupted)


def test_seeded_timebased_divergence_is_detected(corrupt_columnar_timebased):
    trace = _measured()
    report = audit_trace(
        trace, program="toy", seed=123,
        repro=fuzz_repro_command(123), minimize=True,
    )
    assert not report.ok
    checks = {f.check for f in report.findings}
    # Every pair that includes the mutated columnar backend fires: the
    # object reference, the chunked streaming backend, and the on-file
    # streaming driver all disagree with it.
    assert checks == {
        "timebased-backends", "timebased-streaming", "timebased-streaming-file",
    }
    finding = report.findings[0]
    assert finding.check == "timebased-backends"
    assert finding.field == "t_a"
    assert finding.event_index is not None  # localized to one event seq
    assert finding.expected != finding.actual
    assert finding.seed == 123
    assert finding.repro == "repro-ppopp91 audit --fuzz 1 --seed 123"
    # Delta-minimization shrank the witness well below the full trace.
    assert "minimized witness" in finding.detail
    import re

    n = int(re.search(r"minimized witness: (\d+) events", finding.detail)[1])
    assert n < len(trace.events)


def test_seeded_divergence_through_fuzz_matrix(corrupt_columnar_timebased):
    report = fuzz_audit(1, base_seed=42, minimize=False)
    assert not report.ok
    finding = report.findings[0]
    assert finding.seed == 42
    assert finding.program == random_program(42).name
    assert finding.repro == "repro-ppopp91 audit --fuzz 1 --seed 42"


def test_seeded_stats_divergence_is_detected(monkeypatch):
    """A second, independent mutation point: columnar statistics."""
    from repro.trace import stats as stats_mod

    original = stats_mod._columnar_stats

    def corrupted(trace):
        s = original(trace)
        object.__setattr__(s, "total_overhead", s.total_overhead + 7)
        return s

    monkeypatch.setattr(stats_mod, "_columnar_stats", corrupted)
    report = audit_trace(_measured(), program="toy", minimize=False)
    assert {f.check for f in report.findings} == {"stats-backends"}
    assert report.findings[0].field == "total_overhead"


def test_report_render_includes_repro_and_location():
    finding = AuditFinding(
        check="timebased-backends", program="fuzz-0000002a",
        detail="divergence", seed=42, event_index=17, field="t_a",
        expected="100", actual="101",
        repro="repro-ppopp91 audit --fuzz 1 --seed 42",
    )
    text = finding.render()
    assert "timebased-backends" in text
    assert "event 17" in text and "'t_a'" in text
    assert "seed: 42" in text
    assert "repro: repro-ppopp91 audit --fuzz 1 --seed 42" in text


# ------------------------------------------- slicing-based minimization
def test_large_trace_gets_sliced_witness(corrupt_columnar_timebased):
    """Regression: minimization used to be silently skipped past the limit.

    The causal slice has no size cliff, so a trace well beyond
    MINIMIZE_LIMIT still reports a minimized witness — and the slice is
    re-verified to reproduce the divergence before being reported.
    """
    import re

    from repro.audit.differential import MINIMIZE_LIMIT

    trace = _measured(trips=2600)
    assert len(trace.events) > MINIMIZE_LIMIT
    report = audit_trace(trace, program="big", minimize=True)
    finding = next(
        f for f in report.findings if f.check == "timebased-backends"
    )
    m = re.search(r"minimized witness: (\d+) events", finding.detail)
    assert m, finding.detail
    assert int(m[1]) < len(trace.events)
    assert "skipped" not in finding.detail


def test_sliced_witness_reproduces_divergence(corrupt_columnar_timebased):
    """The slice from the diverging seq is itself a failing input."""
    from repro.trace.slice import slice_trace

    trace = _measured(trips=40)
    report = audit_trace(trace, program="toy", minimize=True)
    finding = next(
        f for f in report.findings if f.check == "timebased-backends"
    )
    assert finding.field == "t_a"
    witness = slice_trace(trace, seq=finding.event_index)
    check, _req = TRACE_CHECKS["timebased-backends"]
    assert check(witness) is not None  # still diverges on the slice


def test_skipped_minimization_states_reason(monkeypatch):
    """Satellite: unminimized findings must say why, not stay silent."""
    from repro.audit import differential
    from repro.trace import stats as stats_mod

    original = stats_mod._columnar_stats

    def corrupted(trace):
        s = original(trace)
        object.__setattr__(s, "total_overhead", s.total_overhead + 7)
        return s

    # Stats divergences have no single diverging event to slice from; on
    # a "large" trace (limit shrunk for test speed) delta-min is out too.
    monkeypatch.setattr(stats_mod, "_columnar_stats", corrupted)
    monkeypatch.setattr(differential, "MINIMIZE_LIMIT", 10)
    report = audit_trace(_measured(), program="toy", minimize=True)
    finding = next(
        f for f in report.findings if f.check == "stats-backends"
    )
    assert "minimization skipped" in finding.detail
    assert "no single diverging event" in finding.detail
    assert "minimized witness" not in finding.detail
