"""Child processes of the benchmark; ``run.py`` starts every one of them.

Each subcommand runs in a fresh interpreter, so import time and peak
resident memory belong to the work it does, and prints one JSON object
as the last line of its standard output::

    python perfbench/worker.py setup --entry repro.cli [--summary]
    python perfbench/worker.py record --seed S --trips N --seconds T --out DIR [--trace-dir DIR]
    python perfbench/worker.py prep-analyze --seed S --trips N --out DIR
    python perfbench/worker.py analyze --seconds T --out DIR [--trace-dir DIR]
    python perfbench/worker.py report-traced --obs-dir DIR -- <repro-ppopp91 args>

``--trace-dir`` adds one traced iteration after the timed loop and
writes its spans there.

``repro`` is imported only inside the subcommands, never at module
level, so ``setup`` times the entry module's import from a cold start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import types
import uuid
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Instrumenter, self_times  # noqa: E402

#: The experiments' default ancillary perturbation (memory dilation and
#: statement jitter); without it every seed simulates the same run.
PERTURB = {"dilation": 0.04, "jitter": 0.05}

#: ``repro-trace query --where "seq <= K"`` cutoff and ``slice --index``
#: target of the analyze workload: half and a quarter of one default
#: 64k-event v3 chunk, so both can skip every later chunk.
QUERY_CUTOFF = 32_768
EARLY_SLICE_INDEX = 16_384

OBS_BUFFER = 1 << 20


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def columns_digest(columns) -> str:
    """Order-sensitive digest of a trace's events (string tables resolved)."""
    h = hashlib.sha256()
    for name in ("time", "thread", "kind", "eid", "seq", "iteration",
                 "sync_index", "overhead"):
        h.update(getattr(columns, name).tobytes())
    for name, table in (("sync_var", "sync_var_table"),
                        ("label", "label_table")):
        strings = getattr(columns, table)
        resolved = [strings[i] if i >= 0 else None
                    for i in getattr(columns, name).tolist()]
        h.update(json.dumps(resolved).encode())
    return h.hexdigest()[:16]


def executor(seed: int):
    from repro.exec import Executor, PerturbationConfig

    return Executor(seed=seed, perturb=PerturbationConfig(**PERTURB))


# --------------------------------------------------------------- loops
def timed_loop(seconds: float, once, check) -> dict:
    """Closed loop, one client: run ``once`` until ``seconds`` have passed.

    Only ``once`` is timed, in wall and in CPU seconds.  The reference
    work is timed before the first operation and after each one's check,
    so ``refs`` has one entry more than ``walls``.  ``check(result)``
    returns a list of problems and runs outside the timed region.  Each
    iteration is one attempted operation, failed when its check finds a
    problem.
    """
    from reference import reference_s

    walls: list[float] = []
    cpus: list[float] = []
    refs = [reference_s()]
    loop = {"walls": walls, "cpus": cpus, "refs": refs, "attempted": 0,
            "failed": 0, "failures": []}
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = once()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        # Nothing of this operation may stay alive into the next one, or
        # the peak resident memory would count two operations.
        problems = check(result)
        del result
        refs.append(reference_s())
        tally(loop, problems)
    return loop


def tally(loop: dict, problems: list[str]) -> None:
    loop["attempted"] += 1
    if problems:
        loop["failed"] += 1
        loop["failures"].extend(problems)


def traced_once(once, export_dir: Path) -> tuple[dict, object]:
    """One more iteration with ``repro.obs`` on and every layer spanned.

    The spans stay in the in-memory ring while the iteration runs and are
    written out (manifest, event log, Chrome trace) once it ends.
    """
    from repro import obs

    inst = Instrumenter(uuid.uuid4().hex[:12])
    inst.install()
    obs.enable(buffer_size=OBS_BUFFER)
    obs.reset()
    t0 = time.perf_counter()
    try:
        result = once()
        wall = time.perf_counter() - t0
    finally:
        obs.disable()
        inst.uninstall()
    snap = obs.snapshot()
    obs.write_run(export_dir)
    layers, covered = self_times(snap.events)
    return traced_summary(inst, snap, layers, covered, wall), result


def traced_summary(inst, snap, layers, covered, wall) -> dict:
    return {
        "run_id": inst.run_id,
        "wall_s": wall,
        "covered_s": covered,
        "layers": layers,
        "totals": dict(inst.totals),
        "counts": dict(inst.counts),
        "unique_specs": len(inst.specs),
        "obs_spans": {n: s.total_ns / 1e9 for n, s in snap.spans.items()},
        "obs_counters": dict(snap.counters),
        "dropped_events": snap.dropped_events,
    }


# --------------------------------------------------------------- setup
def cmd_setup(args) -> int:
    import importlib

    t0 = time.perf_counter()
    importlib.import_module(args.entry)
    t1 = time.perf_counter()
    from repro import native

    native.native_available()
    t2 = time.perf_counter()
    analysis_constants()
    t3 = time.perf_counter()
    from repro.analysis.eventbased import pick_backend

    out = {
        "setup_s": t3 - t0,
        "import_s": t1 - t0,
        "native_load_s": t2 - t1,
        "backend": pick_backend(),
    }
    if args.summary:
        from repro.obs import bench_summary

        out["summary"] = bench_summary()
    emit(out)
    return 0


# -------------------------------------------------------------- record
def record_once(seed: int, trips: int, out: Path) -> dict:
    from repro.instrument.plan import PLAN_FULL, PLAN_NONE
    from repro.livermore import doacross_program
    from repro.trace.io import write_trace

    program = doacross_program(3, trips=trips)
    results = {}
    for name, plan in (("none", PLAN_NONE), ("full", PLAN_FULL)):
        result = executor(seed).run(program, plan)
        # Column conversion is timed apart from the encoder that needs it.
        result.trace.columns
        write_trace(result.trace, out / f"{name}.rpt", format="v3")
        results[name] = result
    return results


def cmd_record(args) -> int:
    from repro.trace.io import read_trace

    out = Path(args.out)
    first: dict = {}
    fingerprint: dict = {}

    def check(results) -> list[str]:
        """Compare digests, dropping each trace before its read-back so
        the check never holds more traces than the operation did."""
        problems = []
        for name in list(results):
            result = results.pop(name)
            stats = {"events": len(result.trace), "sim_cycles": result.total_time}
            digest = columns_digest(result.trace.columns)
            del result
            if columns_digest(read_trace(out / f"{name}.rpt").columns) != digest:
                problems.append(f"{name}: events read back from v3 differ "
                                "from the events written")
            if name not in first:
                first[name] = stats
                fingerprint[name] = dict(stats, digest=digest)
            elif stats != first[name]:
                problems.append(f"{name}: exec.events/exec.sim_cycles "
                                f"{stats} differ from the first run {first[name]}")
        return problems

    def once():
        return record_once(args.seed, args.trips, out)

    loop = timed_loop(args.seconds, once, check)
    loop["fingerprint"] = fingerprint
    if args.trace_dir:
        from repro.analysis import event_based_approximation

        traced, results = traced_once(once, Path(args.trace_dir))
        actual = results["none"].total_time
        approx = event_based_approximation(
            results["full"].trace, analysis_constants())
        traced["approx_error_pct"] = 100.0 * abs(approx.total_time - actual) / actual
        tally(loop, check(results))
        loop["traced"] = traced
    emit(loop)
    return 0


# ------------------------------------------------------------- analyze
def analysis_constants():
    from repro.instrument import InstrumentationCosts, calibrate_analysis_constants
    from repro.machine.costs import FX80

    return calibrate_analysis_constants(FX80, InstrumentationCosts())


def cmd_prep_analyze(args) -> int:
    """Record the measured trace the analyze workload reads, once per seed."""
    from repro.analysis import event_based_approximation
    from repro.instrument.plan import PLAN_FULL, PLAN_NONE
    from repro.livermore import doacross_program
    from repro.trace.io import write_trace

    program = doacross_program(3, trips=args.trips)
    actual = executor(args.seed).run(program, PLAN_NONE).total_time
    measured = executor(args.seed).run(program, PLAN_FULL).trace
    write_trace(measured, Path(args.out) / "loop3.rpt", format="v3")
    constants = analysis_constants()
    reference = event_based_approximation(measured, constants, backend="columnar")
    default = event_based_approximation(measured, constants)
    prep = {
        "actual": actual,
        "n_events": len(measured),
        "reference_total": reference.total_time,
        "default_total": default.total_time,
        "query_expected": int((measured.columns.seq <= QUERY_CUTOFF).sum()),
    }
    (Path(args.out) / "prep.json").write_text(json.dumps(prep))
    emit(prep)
    return 0


def analyze_once(path: Path, constants) -> dict:
    """What ``repro-trace analyze|query|slice`` do with the same arguments."""
    from repro.analysis import event_based_approximation, time_based_approximation
    from repro.trace.io import read_trace
    from repro.trace.query import run_query
    from repro.trace.slice import slice_file
    from repro.trace.stream import stream_time_based

    trace = read_trace(path)
    time_based = time_based_approximation(trace, constants)
    event_based = event_based_approximation(trace, constants)
    streamed = stream_time_based(path, constants)
    selective = run_query(path, where=f"seq <= {QUERY_CUTOFF}", limit=None)
    grouped = run_query(path, group_by="kind", limit=0)
    early = slice_file(path, index=EARLY_SLICE_INDEX % len(trace))
    late = slice_file(path, index=-1)
    return {
        "n_events": len(trace),
        "time_total": time_based.total_time,
        "event_total": event_based.total_time,
        "stream_total": streamed.total_time,
        "matched": selective.n_matched,
        "returned": len(selective.events),
        "groups": {str(k): g.count for k, g in grouped.groups.items()},
        "early_kept": len(early.trace),
        "late_kept": len(late.trace),
    }


def cmd_analyze(args) -> int:
    from repro.analysis.eventbased import pick_backend

    out = Path(args.out)
    prep = json.loads((out / "prep.json").read_text())
    path = out / "loop3.rpt"
    constants = analysis_constants()
    first: dict = {}

    def check(r) -> list[str]:
        problems = []
        if r["event_total"] != prep["reference_total"]:
            problems.append(f"event-based total {r['event_total']} != columnar "
                            f"reference {prep['reference_total']}")
        if r["stream_total"] != r["time_total"]:
            problems.append(f"stream_time_based total {r['stream_total']} != "
                            f"time-based total {r['time_total']}")
        if not r["matched"] == r["returned"] == prep["query_expected"]:
            problems.append(f"selective query matched {r['matched']} "
                            f"(returned {r['returned']}), expected "
                            f"{prep['query_expected']}")
        if sum(r["groups"].values()) != prep["n_events"]:
            problems.append("group-by counts do not sum to the event count")
        if not first:
            first.update(r)
        elif r != first:
            problems.append("analysis outputs differ between runs of one trace")
        return problems

    loop = timed_loop(args.seconds, lambda: analyze_once(path, constants), check)
    loop["fingerprint"] = dict(first, actual=prep["actual"])
    loop["backend"] = pick_backend()
    if args.trace_dir:
        traced, r = traced_once(lambda: analyze_once(path, constants),
                                Path(args.trace_dir))
        tally(loop, check(r))
        traced["approx_error_pct"] = (
            100.0 * abs(r["event_total"] - prep["actual"]) / prep["actual"])
        loop["traced"] = traced
    emit(loop)
    return 0


# -------------------------------------------------------------- report
def cmd_report_traced(args) -> int:
    """One ``repro-ppopp91`` invocation in-process, every layer spanned.

    The entry module's import is timed by hand (``repro.obs`` is part of
    the package being imported) and enters the stream as a root span.
    The CLI's own obs export is held back until the command has returned,
    and ``post_s`` reports everything done after that (folding the spans,
    writing them out), so the caller can take it off the process's wall
    time: it is tracing work, not program work.
    """
    import contextlib
    import io

    t_import = time.monotonic_ns()
    import repro.cli
    t_imported = time.monotonic_ns()
    from repro import obs

    inst = Instrumenter(uuid.uuid4().hex[:12])
    inst.install()
    obs.enable(buffer_size=OBS_BUFFER)
    obs.reset()
    held = types.SimpleNamespace(manifest="(held back)", trace="(held back)")
    write_run, obs.write_run = obs.write_run, lambda *a, **k: held
    text = io.StringIO()
    try:
        with contextlib.redirect_stdout(text):
            with obs.span("cli.main", run=inst.run_id):
                rc = repro.cli.main(args.cli_args)
    finally:
        obs.write_run = write_run
        obs.disable()
        inst.uninstall()
    t_done = time.perf_counter()
    snap = obs.snapshot()
    events = [("B", "import.cli", t_import), ("E", "import.cli", t_imported)]
    events.extend(snap.events)
    layers, covered = self_times(events)
    summary = traced_summary(inst, snap, layers, covered, None)
    summary["exit_code"] = rc
    summary["text_sha256"] = hashlib.sha256(text.getvalue().encode()).hexdigest()
    write_run(args.obs_dir, snap)
    summary["post_s"] = time.perf_counter() - t_done
    emit(summary)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--entry", required=True)
    p.add_argument("--summary", action="store_true")
    for name in ("record", "prep-analyze", "analyze"):
        p = sub.add_parser(name)
        p.add_argument("--out", required=True)
        if name != "analyze":
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--trips", type=int, required=True)
        if name != "prep-analyze":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace-dir", default=None)
    p = sub.add_parser("report-traced")
    p.add_argument("--obs-dir", required=True)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if getattr(args, "cli_args", None) and args.cli_args[0] == "--":
        args.cli_args = args.cli_args[1:]
    handlers = {
        "setup": cmd_setup,
        "record": cmd_record,
        "prep-analyze": cmd_prep_analyze,
        "analyze": cmd_analyze,
        "report-traced": cmd_report_traced,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
