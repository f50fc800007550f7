"""Differential oracle: cross-backend and cross-encoding parity checks.

The repo maintains several implementations of each pipeline layer — two
trace storage backends (event objects and numpy columns), two on-disk
encodings (JSONL and chunked compressed ``.rpt`` v3), and object/columnar/streaming variants of the time-based and
event-based analyses.  All pairs are supposed to be
observationally identical; this module enforces that by running every pair
on the same trace and reporting any field-level divergence as an
:class:`~repro.audit.findings.AuditFinding`.

Programs come from :func:`repro.ir.fuzz.random_program` (seed-deterministic)
or from the standard Livermore set; each finding carries its generating
seed and a one-line repro command, and the trace witnessing a divergence
is minimized — by a backward causal slice from the first diverging event
(see :mod:`repro.trace.slice`), tightened by bounded delta-debugging on
small traces — so the report points at the smallest failing input.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Callable, Optional

from repro.audit.findings import AuditFinding, AuditReport
from repro.audit.static import static_audit, trace_structure_issues
from repro.obs import core as obs
from repro.exec import Executor, PerturbationConfig
from repro.instrument import InstrumentationCosts, calibrate_analysis_constants
from repro.instrument.plan import PLAN_FULL
from repro.ir.fuzz import FuzzLimits, random_program
from repro.machine.costs import FX80
from repro.trace.events import TraceEvent
from repro.trace.io import read_trace, write_trace
from repro.trace.stats import trace_stats
from repro.trace.trace import Trace

#: Every comparable field of a trace event, in reporting order.
EVENT_FIELDS = (
    "time", "thread", "kind", "eid", "seq",
    "iteration", "sync_var", "sync_index", "label", "overhead",
)

#: Traces larger than this skip the delta-debugging tightening pass; the
#: causal slice (which scales with dependence depth, not trace size) is
#: still attempted, and findings say so when no witness could be produced.
MINIMIZE_LIMIT = 4000

_CONSTANTS = None


def _constants():
    global _CONSTANTS
    if _CONSTANTS is None:
        _CONSTANTS = calibrate_analysis_constants(FX80, InstrumentationCosts())
    return _CONSTANTS


# --------------------------------------------------------------- divergence
def first_divergence(
    reference: list[TraceEvent], candidate: list[TraceEvent]
) -> Optional[tuple[int, str, str, str]]:
    """(index, field, expected, actual) of the first mismatch, or None."""
    for i, (a, b) in enumerate(zip(reference, candidate)):
        if a == b:
            continue
        for name in EVENT_FIELDS:
            va, vb = getattr(a, name), getattr(b, name)
            if va != vb:
                return (i, name, repr(va), repr(vb))
        return (i, "event", repr(a), repr(b))  # pragma: no cover - defensive
    if len(reference) != len(candidate):
        i = min(len(reference), len(candidate))
        return (i, "length", str(len(reference)), str(len(candidate)))
    return None


def minimize_events(
    events: list[TraceEvent],
    diverges: Callable[[list[TraceEvent]], bool],
    max_probes: int = 200,
) -> list[TraceEvent]:
    """Smallest event subsequence for which ``diverges`` still holds.

    Delta-debugging chunk removal: repeatedly try dropping contiguous
    chunks, halving the chunk size whenever no chunk can be removed.
    Bounded by ``max_probes`` predicate evaluations, so minimization can
    never dominate the audit's runtime.
    """
    current = list(events)
    probes = 0
    chunk = max(1, len(current) // 2)
    while chunk >= 1 and probes < max_probes:
        removed_any = False
        start = 0
        while start < len(current) and probes < max_probes:
            candidate = current[:start] + current[start + chunk:]
            probes += 1
            if candidate and diverges(candidate):
                current = candidate
                removed_any = True
                # retry the same start: the next chunk slid into place
            else:
                start += chunk
        if not removed_any:
            if chunk == 1:
                break
            chunk //= 2
    return current


# ------------------------------------------------------------------ checks
def _columnar_rebuild(trace: Trace) -> Trace:
    from repro.trace.columnar import TraceColumns

    return Trace.from_columns(
        TraceColumns.from_events(trace.events), dict(trace.meta)
    )


def _check_storage_normalization(trace: Trace):
    """Object-path normalization ≡ columnar-path normalization."""
    ref = Trace(list(trace.events), dict(trace.meta)).events
    got = _columnar_rebuild(trace).events
    return first_divergence(ref, got)


def _roundtrip(trace: Trace, fmt: str) -> Trace:
    suffix = ".jsonl" if fmt == "jsonl" else ".rpt"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"audit{suffix}"
        write_trace(trace, path, format=fmt)
        return read_trace(path)


def _check_roundtrip(trace: Trace, fmt: str):
    """Events survive a write/read cycle through one encoding."""
    return first_divergence(trace.events, _roundtrip(trace, fmt).events)


def _check_encoding_chain(trace: Trace):
    """JSONL -> ``.rpt`` -> JSONL transcoding is lossless."""
    via_jsonl = _roundtrip(trace, "jsonl")
    via_chain = _roundtrip(_roundtrip(trace, "rpt"), "jsonl")
    return first_divergence(via_jsonl.events, via_chain.events)


def _approx_fingerprint(approx):
    return (approx.times, approx.total_time, approx.trace.events)


def _analysis_outcome(fn, trace: Trace, backend: str):
    """Value or failure of one analysis call, in comparable form."""
    try:
        return _approx_fingerprint(
            fn(trace, _constants(), backend=backend)
        )
    except Exception as exc:  # noqa: BLE001 - the failure IS the outcome
        return ("raise", type(exc).__name__, str(exc))


def _analysis_divergence(
    fn, trace: Trace, reference: str = "object", candidate: str = "columnar"
):
    """First divergence between two analysis backends on one trace."""
    obj = _analysis_outcome(fn, trace, reference)
    col = _analysis_outcome(fn, trace, candidate)
    if obj == col:
        return None
    if (
        isinstance(obj, tuple) and isinstance(col, tuple)
        and obj and col and obj[0] != "raise" and col[0] != "raise"
    ):
        # Both succeeded: localize the first diverging approximated time.
        times_o, total_o, events_o = obj
        times_c, total_c, events_c = col
        for seq in sorted(set(times_o) | set(times_c)):
            if times_o.get(seq) != times_c.get(seq):
                return (seq, "t_a", repr(times_o.get(seq)),
                        repr(times_c.get(seq)))
        if total_o != total_c:
            return (None, "total_time", repr(total_o), repr(total_c))
        return first_divergence(list(events_o), list(events_c))
    return (None, "outcome", repr(obj)[:200], repr(col)[:200])


def _check_timebased_backends(trace: Trace):
    from repro.analysis.timebased import time_based_approximation

    return _analysis_divergence(time_based_approximation, trace)


def _check_timebased_streaming(trace: Trace):
    """Chunked-with-carry time-based backend ≡ whole-trace columnar."""
    from repro.analysis.timebased import time_based_approximation

    return _analysis_divergence(
        time_based_approximation, trace,
        reference="columnar", candidate="streaming",
    )


def _check_streaming_file(trace: Trace):
    """On-file v3 streaming analysis ≡ in-memory columnar analysis.

    Writes the trace as a chunked v3 file (small chunks, so even audit-
    sized traces span several) and runs the bounded-memory driver over it;
    the approximated times, the total, and any failure must match the
    in-memory backend exactly.
    """
    from repro.analysis.timebased import time_based_approximation
    from repro.trace.stream import stream_time_based

    try:
        approx = time_based_approximation(
            trace, _constants(), backend="columnar"
        )
        ref = (approx.times, approx.total_time)
    except Exception as exc:  # noqa: BLE001 - the failure IS the outcome
        ref = ("raise", type(exc).__name__, str(exc))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "audit.rpt"
        write_trace(trace, path, format="v3", chunk_events=512)
        try:
            got = stream_time_based(path, _constants())
            cand = (got.times, got.total_time)
        except Exception as exc:  # noqa: BLE001 - as above
            cand = ("raise", type(exc).__name__, str(exc))
    if ref == cand:
        return None
    if ref[0] != "raise" and cand[0] != "raise":
        times_r, total_r = ref
        times_c, total_c = cand
        for seq in sorted(set(times_r) | set(times_c)):
            if times_r.get(seq) != times_c.get(seq):
                return (seq, "t_a", repr(times_r.get(seq)),
                        repr(times_c.get(seq)))
        return (None, "total_time", repr(total_r), repr(total_c))
    return (None, "outcome", repr(ref)[:200], repr(cand)[:200])


def _check_eventbased_backends(trace: Trace):
    from repro.analysis.eventbased import event_based_approximation

    return _analysis_divergence(event_based_approximation, trace)


def _check_eventbased_native(candidate_reference: str):
    def check(trace: Trace):
        from repro.analysis.eventbased import event_based_approximation

        return _analysis_divergence(
            event_based_approximation, trace,
            reference=candidate_reference, candidate="native",
        )

    return check


def _stats_fingerprint(stats):
    return (
        stats.n_events, stats.n_threads, stats.duration, stats.by_kind,
        stats.by_thread, stats.total_overhead, stats.sync_vars,
        stats.locks, stats.loops,
    )


def _check_stats_backends(trace: Trace):
    """Object-walk statistics ≡ vectorized columnar statistics."""
    obj = trace_stats(Trace(list(trace.events), dict(trace.meta)))
    col = trace_stats(_columnar_rebuild(trace))
    a, b = _stats_fingerprint(obj), _stats_fingerprint(col)
    if a == b:
        return None
    names = ("n_events", "n_threads", "duration", "by_kind", "by_thread",
             "total_overhead", "sync_vars", "locks", "loops")
    for name, va, vb in zip(names, a, b):
        if va != vb:
            return (None, name, repr(va)[:200], repr(vb)[:200])
    return None  # pragma: no cover - defensive


def _check_trace_structure(trace: Trace):
    issues = trace_structure_issues(trace)
    if not issues:
        return None
    return (None, "structure", "balanced sync structure",
            "; ".join(i.render() for i in issues)[:400])


#: name -> (check, requirement).  The requirement is ``None`` (always
#: runnable) or ``"native"``; checks whose requirement is not
#: met here are recorded as skipped, never silently dropped.  Every
#: registered check runs on every audited trace; additions here are picked
#: up by the CLI and CI for free.
TRACE_CHECKS: dict[str, tuple[Callable[[Trace], Optional[tuple]], Optional[str]]] = {
    "storage-normalization": (_check_storage_normalization, None),
    "roundtrip-jsonl": (lambda t: _check_roundtrip(t, "jsonl"), None),
    "roundtrip-rpt3": (lambda t: _check_roundtrip(t, "v3"), None),
    "encoding-chain": (_check_encoding_chain, None),
    "timebased-backends": (_check_timebased_backends, None),
    "timebased-streaming": (_check_timebased_streaming, None),
    "timebased-streaming-file": (_check_streaming_file, None),
    "eventbased-backends": (_check_eventbased_backends, None),
    "eventbased-native-columnar": (_check_eventbased_native("columnar"), "native"),
    "eventbased-native-object": (_check_eventbased_native("object"), "native"),
    "stats-backends": (_check_stats_backends, None),
    "trace-structure": (_check_trace_structure, None),
}


def _requirement_met(requirement: Optional[str]) -> bool:
    if requirement is None:
        return True
    if requirement == "native":
        from repro import native

        return native.native_available()
    raise ValueError(f"unknown check requirement {requirement!r}")


def _localize_divergence(trace: Trace, divergence) -> Optional[tuple[str, int]]:
    """``("seq"|"index", value)`` naming the diverging event, or None.

    Analysis-time divergences (``t_a``) report the event *seq* whose
    approximated time differs; event-field divergences report a list
    position.  Length, outcome, total-time and structure mismatches have
    no single diverging event to slice from.
    """
    index, fld, _expected, _actual = divergence
    if index is None or fld == "length":
        return None
    if fld == "t_a":
        return ("seq", index)
    if 0 <= index < len(trace.events):
        return ("index", index)
    return None


def _witness_detail(trace: Trace, check, divergence) -> str:
    """Witness-minimization suffix for one finding's detail line.

    Prefers a backward causal slice from the diverging event — it scales
    with dependence depth rather than trace size, so there is no size
    cliff — and only reports the slice after re-checking that it still
    reproduces the divergence.  On traces within ``MINIMIZE_LIMIT`` the
    bounded delta-debugger then tightens the verified slice (or, when the
    divergence is not localizable, the whole trace), so the reported
    witness is never larger than the old minimizer's.  When no witness
    can be produced the detail says why instead of silently omitting it.
    """
    from repro.trace.slice import slice_trace

    def diverges(events: list[TraceEvent]) -> bool:
        try:
            return check(Trace(list(events), dict(trace.meta))) is not None
        except Exception:  # noqa: BLE001 - shrunk traces may be degenerate
            return False

    witness: Optional[list[TraceEvent]] = None
    where = _localize_divergence(trace, divergence)
    if where is not None:
        kind, value = where
        try:
            sliced = slice_trace(
                trace, **({"seq": value} if kind == "seq" else {"index": value})
            ).events
        except Exception:  # noqa: BLE001 - slicing is best-effort here
            sliced = None
        if sliced and diverges(sliced):
            witness = sliced
    if len(trace.events) <= MINIMIZE_LIMIT:
        base = witness if witness is not None else trace.events
        witness = minimize_events(base, diverges)
    if witness is not None:
        return f" (minimized witness: {len(witness)} events)"
    _index, fld, _expected, _actual = divergence
    if where is None:
        reason = (
            f"divergence field {fld!r} has no single diverging event to "
            f"slice from, and {len(trace.events)} events exceeds the "
            f"delta-min limit of {MINIMIZE_LIMIT}"
        )
    else:
        reason = (
            "causal slice did not reproduce the divergence, and "
            f"{len(trace.events)} events exceeds the delta-min limit of "
            f"{MINIMIZE_LIMIT}"
        )
    return f" (minimization skipped: {reason})"


# ------------------------------------------------------------- audit entry
def audit_trace(
    trace: Trace,
    *,
    program: str = "<trace>",
    seed: Optional[int] = None,
    repro: Optional[str] = None,
    minimize: bool = True,
    report: Optional[AuditReport] = None,
) -> AuditReport:
    """Run every registered differential check on one trace."""
    report = report if report is not None else AuditReport()
    with obs.span("audit.trace", program=program, n_events=len(trace.events)):
        for name, (check, requirement) in TRACE_CHECKS.items():
            if not _requirement_met(requirement):
                report.skipped.append(name)
                continue
            report.checks_run += 1
            obs.count("audit.checks")
            divergence = check(trace)
            if divergence is None:
                continue
            index, fld, expected, actual = divergence
            detail = f"{name} divergence on {len(trace.events)} events"
            if minimize:
                detail += _witness_detail(trace, check, divergence)
            obs.count("audit.findings")
            report.findings.append(AuditFinding(
                check=name,
                program=program,
                detail=detail,
                seed=seed,
                event_index=index,
                field=fld,
                expected=expected,
                actual=actual,
                repro=repro,
            ))
    return report


def audit_program(
    program,
    *,
    seed: Optional[int] = None,
    exec_seed: int = 42,
    noisy: bool = True,
    repro: Optional[str] = None,
    minimize: bool = True,
    report: Optional[AuditReport] = None,
) -> AuditReport:
    """Static-audit ``program``, execute it, and differential-audit the trace."""
    report = report if report is not None else AuditReport()
    report.programs_checked += 1
    report.checks_run += 1
    issues = static_audit(program)
    if issues:
        obs.count("audit.findings", len(issues))
        for issue in issues:
            report.findings.append(AuditFinding(
                check="static",
                program=program.name,
                detail=issue.render(),
                seed=seed,
                repro=repro,
            ))
        return report  # don't simulate a structurally broken program
    perturb = PerturbationConfig(dilation=0.04, jitter=0.05) if noisy else None
    executor = Executor(seed=exec_seed, **({"perturb": perturb} if perturb else {}))
    trace = executor.run(program, PLAN_FULL).trace
    return audit_trace(
        trace, program=program.name, seed=seed, repro=repro,
        minimize=minimize, report=report,
    )


def fuzz_repro_command(seed: int) -> str:
    return f"repro-ppopp91 audit --fuzz 1 --seed {seed}"


def fuzz_audit(
    n: int,
    base_seed: int = 0,
    limits: FuzzLimits = FuzzLimits(),
    *,
    minimize: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> AuditReport:
    """Audit ``n`` fuzzed programs seeded ``base_seed .. base_seed+n-1``.

    Program ``i`` uses fuzz seed ``base_seed + i``, so any finding's repro
    command regenerates exactly one program: ``audit --fuzz 1 --seed S``.
    """
    report = AuditReport()
    for i in range(n):
        seed = base_seed + i
        if progress:
            progress(f"[{i + 1}/{n}] fuzz seed {seed}")
        audit_program(
            random_program(seed, limits),
            seed=seed,
            exec_seed=seed,
            repro=fuzz_repro_command(seed),
            minimize=minimize,
            report=report,
        )
    return report


def standard_audit(
    *, trips: Optional[int] = None, minimize: bool = True
) -> AuditReport:
    """One-shot audit over the paper's standard program set."""
    from repro.livermore import livermore_program

    report = AuditReport()
    for kernel, mode in ((3, "doacross"), (17, "doacross"), (21, "doall")):
        program = livermore_program(kernel, mode=mode, trips=trips)
        audit_program(
            program,
            exec_seed=1991,
            repro="repro-ppopp91 audit",
            minimize=minimize,
            report=report,
        )
    return report
