"""``repro-trace`` — command-line utilities for trace files.

Subcommands::

    repro-trace info FILE              # metadata + summary statistics
    repro-trace stats FILE             # alias of info (columnar streaming)
    repro-trace convert FILE -o OUT    # translate JSONL <-> .rpt v3
    repro-trace dump FILE [-n N] [--thread T] [--kind K]
    repro-trace query FILE [--where EXPR] [--group-by COL] [-n N]
    repro-trace slice FILE (--seq S | --index I) [-o OUT] [--show N]
    repro-trace validate FILE          # streaming diagnostics + causality
    repro-trace repair FILE -o OUT     # best-effort repair, prints report
    repro-trace inject FILE -o OUT     # seed-deterministic fault injection
    repro-trace diff FILE_A FILE_B     # compare two traces of one program
    repro-trace analyze FILE [--method event|time] [--policy strict|repair|skip]

``analyze`` applies perturbation analysis to a measured trace file using
the default FX/80 platform constants (override the probe-cost scale with
``--cost-scale``) and prints the approximated execution time plus,
optionally, the recovered waiting/parallelism statistics.  ``--policy
repair`` / ``skip`` analyzes damaged traces best-effort (see
:mod:`repro.resilience`); ``inject`` deliberately corrupts a trace, which
is how the resilience stack itself is exercised and benchmarked.

Every trace format is accepted everywhere (``read_trace`` auto-detects
JSONL vs packed ``.rpt`` v3, and still reads legacy flat v2 files);
``convert`` translates between JSONL and v3, picking the output format
from the ``-o`` suffix unless ``--format`` forces one (packed output
takes ``--chunk-events``/``--codec``/``--level``).  JSONL is the diffable
interchange format, v3 the compressed chunked format that ``stats``,
``validate`` and ``analyze --backend streaming`` process in bounded
memory; ``stats`` on a v3 file additionally reports the on-disk layout
(bytes per column, chunk count, compression ratio).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis import event_based_approximation, time_based_approximation
from repro.analysis.approximation import AnalysisError
from repro.instrument import InstrumentationCosts, calibrate_analysis_constants
from repro.machine.costs import FX80
from repro.metrics import average_parallelism, waiting_percentages
from repro.resilience.inject import (
    ClockSkew,
    CorruptFields,
    DropEvents,
    DuplicateEvents,
    Fault,
    ReorderEvents,
    Truncate,
    inject,
)
from repro.resilience.repair import repair_trace
from repro.resilience.validate import Severity, validate_file
from repro.trace.events import EventKind
from repro.trace.io import read_trace, write_trace
from repro.trace.order import CausalityViolation, verify_causality
from repro.trace.stats import render_stats, trace_stats
from repro.trace.trace import TraceError


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace", description="Inspect and analyze repro trace files."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="metadata and summary statistics")
    p_info.add_argument("file")

    p_stats = sub.add_parser(
        "stats", help="summary statistics (alias of info; streams from "
        "columns on packed traces)",
    )
    p_stats.add_argument("file")

    p_conv = sub.add_parser(
        "convert", help="translate between JSONL and packed .rpt traces"
    )
    p_conv.add_argument("file")
    p_conv.add_argument("-o", "--output", required=True, help="converted trace path")
    p_conv.add_argument(
        "--format", choices=("jsonl", "rpt", "v3"), default=None,
        help="output format (default: inferred from the -o suffix; 'rpt' "
        "and 'v3' both write packed v3)",
    )
    p_conv.add_argument(
        "--chunk-events", type=int, default=None,
        help="v3 only: events per chunk (default 65536)",
    )
    p_conv.add_argument(
        "--codec", choices=("zlib", "zstd", "none"), default=None,
        help="v3 only: chunk compression codec (default: zstd when "
        "importable, else zlib)",
    )
    p_conv.add_argument(
        "--level", type=int, default=None,
        help="v3 only: compression level (default 6)",
    )

    p_dump = sub.add_parser("dump", help="print events")
    p_dump.add_argument("file")
    p_dump.add_argument("-n", type=int, default=40, help="max events (0 = all)")
    p_dump.add_argument("--thread", type=int, default=None, help="filter by CE")
    p_dump.add_argument("--kind", default=None, help="filter by event kind")

    p_query = sub.add_parser(
        "query", help="filter and aggregate events (vectorized; v3 files "
        "are scanned chunk-at-a-time with min/max pushdown)",
    )
    p_query.add_argument("file")
    p_query.add_argument(
        "--where", default=None, metavar="EXPR",
        help="filter conjunction, e.g. \"kind == advance and thread == 0\" "
        "(ops: == != < <= > >=; 'none' matches missing values)",
    )
    p_query.add_argument(
        "--group-by", default=None, metavar="COLUMN",
        help="aggregate matches per value of COLUMN "
        "(thread/kind/eid/sync_var/label/iteration)",
    )
    p_query.add_argument(
        "-n", "--limit", type=int, default=20,
        help="max events to print (0 = all matches)",
    )
    p_query.add_argument(
        "--count", action="store_true",
        help="print only counts (and groups), no events",
    )

    p_slice = sub.add_parser(
        "slice", help="extract the backward causal slice of a target event "
        "(program order + sync dependences; streams v3 files)",
    )
    p_slice.add_argument("file")
    target = p_slice.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--seq", type=int, default=None,
        help="target event by trace sequence number",
    )
    target.add_argument(
        "--index", type=int, default=None,
        help="target event by position in total order (negative = from "
        "the end; --index -1 slices from the last event)",
    )
    p_slice.add_argument(
        "-o", "--output", default=None, help="write the slice to this path"
    )
    p_slice.add_argument(
        "--format", choices=("jsonl", "rpt", "v3"), default=None,
        help="output format (default: inferred from the -o suffix)",
    )
    p_slice.add_argument(
        "--show", type=int, default=0, metavar="N",
        help="also print the first N slice events",
    )

    p_val = sub.add_parser("validate", help="causality and pairing checks")
    p_val.add_argument("file")

    p_rep = sub.add_parser("repair", help="best-effort repair of a damaged trace")
    p_rep.add_argument("file")
    p_rep.add_argument("-o", "--output", required=True, help="repaired trace path")
    p_rep.add_argument(
        "--mode", choices=("repair", "skip"), default="repair",
        help="mend damage (repair) or drop it wholesale (skip)",
    )

    p_inj = sub.add_parser("inject", help="corrupt a trace deterministically")
    p_inj.add_argument("file")
    p_inj.add_argument("-o", "--output", required=True, help="corrupted trace path")
    p_inj.add_argument("--seed", type=int, default=0, help="injection RNG seed")
    p_inj.add_argument(
        "--drop-kinds", default=None,
        help="comma-separated event kinds to drop (e.g. advance,awaitB)",
    )
    p_inj.add_argument(
        "--drop-fraction", type=float, default=1.0,
        help="drop probability among matching events (default 1.0)",
    )
    p_inj.add_argument("--drop-thread", type=int, default=None, help="limit drops to one CE")
    p_inj.add_argument(
        "--duplicate-fraction", type=float, default=0.0,
        help="duplicate this fraction of events",
    )
    p_inj.add_argument(
        "--reorder-fraction", type=float, default=0.0,
        help="swap timestamps of this fraction of adjacent same-CE events",
    )
    p_inj.add_argument(
        "--corrupt-fraction", type=float, default=0.0,
        help="scribble over fields of this fraction of events",
    )
    p_inj.add_argument(
        "--skew", nargs=2, type=int, metavar=("THREAD", "OFFSET"), default=None,
        help="shift one CE's clock by OFFSET cycles",
    )
    p_inj.add_argument(
        "--truncate-fraction", type=float, default=None,
        help="keep only this fraction of the trace prefix",
    )

    p_diff = sub.add_parser("diff", help="compare two traces of one program")
    p_diff.add_argument("file_a")
    p_diff.add_argument("file_b")

    p_an = sub.add_parser("analyze", help="apply perturbation analysis")
    p_an.add_argument("file")
    p_an.add_argument(
        "--method", choices=("event", "time"), default="event",
        help="analysis model (default: event-based)",
    )
    p_an.add_argument(
        "--cost-scale", type=float, default=1.0,
        help="scale factor on the default probe-cost table",
    )
    p_an.add_argument(
        "--stats", action="store_true",
        help="also print recovered waiting/parallelism statistics",
    )
    p_an.add_argument(
        "--policy", choices=("strict", "repair", "skip"), default="strict",
        help="degradation policy for damaged traces (default: strict)",
    )
    p_an.add_argument(
        "--backend", default="auto",
        help="analysis backend: auto/object/columnar plus streaming "
        "(time-based; chunked, bounded memory) or native (event-based)",
    )
    return parser


def _packed_version(path) -> Optional[int]:
    """2 / 3 for packed ``.rpt`` files, None for JSONL (or anything else)."""
    from repro.trace.binio import MAGIC, MAGIC_V3

    with open(path, "rb") as probe:
        head = probe.read(len(MAGIC))
    if head == MAGIC:
        return 2
    if head == MAGIC_V3:
        return 3
    return None


def cmd_info(args: argparse.Namespace) -> int:
    if _packed_version(args.file) == 3:
        # Chunked traces are summarized without ever materializing them:
        # per-chunk partial statistics plus the footer's layout info.
        from repro.trace.stream import ChunkReader, storage_report, stream_trace_stats

        with ChunkReader(args.file) as reader:
            meta = reader.meta
        print(render_stats(stream_trace_stats(args.file), meta=meta))
        layout = storage_report(args.file)
        print(
            f"\non-disk layout (v3, {layout['codec'].get('compress', '?')}): "
            f"{layout['n_chunks']} chunk(s) x {layout['chunk_events']} events, "
            f"{layout['file_bytes']} bytes on disk"
        )
        print(
            f"column payloads: {layout['payload_bytes']} bytes vs "
            f"{layout['logical_bytes']} flat int64 — {layout['ratio']:.1f}x "
            "compression"
        )
        width = max(len(n) for n in layout["columns"])
        for name, nbytes in layout["columns"].items():
            print(f"  {name:<{width}} {nbytes:>10} bytes")
        return 0
    trace = read_trace(args.file)
    print(render_stats(trace_stats(trace), meta=trace.meta))
    return 0


def _output_format(args: argparse.Namespace) -> str:
    """``"jsonl"`` or ``"v3"``: ``--format``, else the ``-o`` suffix."""
    fmt = args.format
    if fmt is None:
        fmt = "rpt" if str(args.output).endswith(".rpt") else "jsonl"
    return "jsonl" if fmt == "jsonl" else "v3"


def cmd_convert(args: argparse.Namespace) -> int:
    fmt = _output_format(args)
    if fmt != "v3" and (
        args.chunk_events is not None or args.codec is not None
        or args.level is not None
    ):
        print("error: --chunk-events/--codec/--level require --format v3",
              file=sys.stderr)
        return 2
    trace = read_trace(args.file)
    try:
        write_trace(
            trace, args.output, format=fmt,
            chunk_events=args.chunk_events, codec=args.codec, level=args.level,
        )
    except ValueError as exc:  # out-of-range --chunk-events / --level
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(trace)} event(s) to {args.output} ({fmt})")
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    if _packed_version(args.file) == 3:
        # Head-dumping a chunked trace must not decode the whole file:
        # the query engine stops at the first chunks that satisfy -n and
        # never reads the rest.
        from repro.trace.query import Predicate, run_query

        preds = []
        if args.thread is not None:
            preds.append(Predicate("thread", "==", args.thread))
        if args.kind:
            preds.append(Predicate("kind", "==", args.kind))
        result = run_query(
            args.file, where=preds,
            limit=(args.n if args.n else None),
            stop_after_limit=bool(args.n),
        )
        for e in result.events:
            print(e)
        if args.n and len(result.events) >= args.n:
            remaining = result.n_source - len(result.events)
            if remaining > 0:
                print(f"... ({remaining} more; use -n 0 for all)")
        return 0
    trace = read_trace(args.file)
    if args.kind:
        try:
            kind = EventKind(args.kind)
        except ValueError:
            raise TraceError(
                f"{args.kind!r} is not a valid EventKind"
            ) from None
    else:
        kind = None
    shown = 0
    for e in trace:
        if args.thread is not None and e.thread != args.thread:
            continue
        if kind is not None and e.kind is not kind:
            continue
        print(e)
        shown += 1
        if args.n and shown >= args.n:
            remaining = len(trace) - shown
            if remaining > 0:
                print(f"... ({remaining} more; use -n 0 for all)")
            break
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from repro.trace.query import run_query

    limit = 0 if args.count else (None if args.limit == 0 else args.limit)
    result = run_query(
        args.file, where=(args.where or ()), group_by=args.group_by,
        limit=limit,
    )
    chunked = result.chunks_scanned or result.chunks_pruned
    chunk_note = (
        f" ({result.chunks_scanned} chunk(s) decoded, "
        f"{result.chunks_pruned} pruned)" if chunked else ""
    )
    print(
        f"matched {result.n_matched} of {result.n_source} "
        f"event(s){chunk_note}"
    )
    if result.groups is not None:
        width = max(
            [len(str(k)) for k in result.groups] + [len(args.group_by)]
        )
        print(
            f"\n{args.group_by:<{width}} {'count':>10} {'overhead':>12} "
            f"{'time span':>21}"
        )
        for key, stats in result.groups.items():
            span = (
                f"[{stats.time_min}, {stats.time_max}]"
                if stats.count else "-"
            )
            print(
                f"{str(key):<{width}} {stats.count:>10} "
                f"{stats.overhead:>12} {span:>21}"
            )
    if result.events:
        print()
        for e in result.events:
            print(e)
        hidden = result.n_matched - len(result.events)
        if hidden > 0:
            print(f"... ({hidden} more; use -n 0 for all)")
    return 0


def cmd_slice(args: argparse.Namespace) -> int:
    if _packed_version(args.file) == 3:
        from repro.trace.slice import slice_file

        result = slice_file(args.file, seq=args.seq, index=args.index)
        sliced = result.trace
        n_source = result.n_source_events
        chunk_note = (
            f"; chunks: {result.chunks_decoded} of {result.n_chunks} "
            f"decoded, {result.chunks_pruned} pruned"
        )
    else:
        from repro.trace.slice import slice_trace

        trace = read_trace(args.file)
        sliced = slice_trace(trace, seq=args.seq, index=args.index)
        n_source = len(trace)
        chunk_note = ""
    info = sliced.meta.get("slice", {})
    print(
        f"slice: kept {len(sliced)} of {n_source} event(s) "
        f"(target seq {info.get('target_seq')}, "
        f"index {info.get('target_index')}){chunk_note}"
    )
    if args.show:
        for e in list(sliced)[: args.show]:
            print(e)
        if len(sliced) > args.show:
            print(f"... ({len(sliced) - args.show} more)")
    if args.output:
        fmt = _output_format(args)
        write_trace(sliced, args.output, format=fmt)
        print(f"wrote {len(sliced)} event(s) to {args.output} ({fmt})")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    packed = _packed_version(args.file)
    if packed == 3:
        # Chunked traces are validated one chunk at a time: the streaming
        # validator's state is bounded by sync keys, not trace length.
        from repro.trace.stream import stream_validate

        diagnostics = stream_validate(args.file)
    elif packed == 2:
        # Packed traces have no per-line structure to lint; validate the
        # loaded columns (vectorized fast path when the trace is clean).
        from repro.resilience.validate import validate_trace

        diagnostics = validate_trace(read_trace(args.file))
    else:
        diagnostics = validate_file(args.file)
    # The streaming validator covers pairing/structure; the causality check
    # needs the materialised trace, so only attempt it on loadable files.
    causality_failure = None
    try:
        trace = read_trace(args.file, tolerate_truncation=True)
        verify_causality(trace)
        n_events = len(trace)
    except (CausalityViolation, TraceError) as exc:
        causality_failure = f"causality: {exc}"
        n_events = None
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    warnings = [d for d in diagnostics if d.severity is Severity.WARNING]
    infos = [d for d in diagnostics if d.severity is Severity.INFO]
    for d in errors:
        print(f"FAIL {d}")
    if causality_failure and not errors:
        print(f"FAIL {causality_failure}")
    for d in warnings:
        print(d)
    for d in infos:
        print(d)
    if errors or causality_failure:
        return 1
    shown = f"{n_events} events, " if n_events is not None else ""
    print(f"OK {shown}causality and pairing verified")
    return 0


def cmd_repair(args: argparse.Namespace) -> int:
    trace = read_trace(args.file, tolerate_truncation=True)
    if trace.meta.get("truncated"):
        print("note: input was truncated; repairing the recovered prefix")
    result = repair_trace(trace, mode=args.mode)
    write_trace(result.trace, args.output)
    print(result.report.summary())
    for action in result.report.actions:
        print(f"  {action}")
    print(f"wrote {len(result.trace)} event(s) to {args.output}")
    return 0


def _build_faults(args: argparse.Namespace) -> list[Fault]:
    faults: list[Fault] = []
    if args.drop_kinds:
        try:
            kinds = frozenset(
                EventKind(k.strip()) for k in args.drop_kinds.split(",")
            )
        except ValueError:
            valid = ",".join(k.value for k in EventKind)
            raise TraceError(
                f"bad --drop-kinds {args.drop_kinds!r}; valid kinds: {valid}"
            ) from None
        faults.append(DropEvents(fraction=args.drop_fraction, kinds=kinds,
                                 thread=args.drop_thread))
    elif args.drop_thread is not None or args.drop_fraction < 1.0:
        faults.append(DropEvents(fraction=args.drop_fraction,
                                 thread=args.drop_thread))
    if args.duplicate_fraction > 0:
        faults.append(DuplicateEvents(fraction=args.duplicate_fraction))
    if args.reorder_fraction > 0:
        faults.append(ReorderEvents(fraction=args.reorder_fraction))
    if args.corrupt_fraction > 0:
        faults.append(CorruptFields(fraction=args.corrupt_fraction))
    if args.skew is not None:
        faults.append(ClockSkew(thread=args.skew[0], offset=args.skew[1]))
    if args.truncate_fraction is not None:
        faults.append(Truncate(keep_fraction=args.truncate_fraction))
    return faults


def cmd_inject(args: argparse.Namespace) -> int:
    trace = read_trace(args.file)
    faults = _build_faults(args)
    if not faults:
        print("error: no faults requested; see repro-trace inject --help",
              file=sys.stderr)
        return 2
    corrupted = inject(trace, faults, seed=args.seed)
    write_trace(corrupted, args.output)
    print(
        f"injected {len(faults)} fault(s) with seed {args.seed}: "
        f"{len(trace)} -> {len(corrupted)} events"
    )
    print(f"wrote {args.output}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    a = read_trace(args.file_a)
    b = read_trace(args.file_b)
    sa, sb = trace_stats(a), trace_stats(b)
    print(f"A: {args.file_a}: {sa.n_events} events, {sa.duration} cycles")
    print(f"B: {args.file_b}: {sb.n_events} events, {sb.duration} cycles")
    if sa.duration:
        print(f"duration ratio B/A: {sb.duration / sa.duration:.3f}")
    kinds = sorted(set(sa.by_kind) | set(sb.by_kind))
    print("\nevent counts by kind (A -> B):")
    for kind in kinds:
        ca, cb = sa.by_kind.get(kind, 0), sb.by_kind.get(kind, 0)
        marker = "" if ca == cb else "   <- differs"
        print(f"  {kind:<16} {ca:>8} -> {cb:<8}{marker}")
    # Per-event timing comparison where identities match.
    from repro.analysis.approximation import Approximation
    from repro.analysis.errors import per_event_errors

    pseudo = Approximation(
        trace=b, method="diff", total_time=b.end_time,
        times={e.seq: e.time for e in b},
    )
    stats = per_event_errors(pseudo, a)
    if stats.n_matched:
        print(
            f"\nmatched {stats.n_matched} events by identity: "
            f"mean time shift {stats.mean_signed_error:+.1f} cycles, "
            f"mean |shift| {stats.mean_abs_error:.1f}, "
            f"max |shift| {stats.max_abs_error}"
        )
    else:
        print("\nno events matched by identity")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.method == "event":
        from repro.analysis.eventbased import BACKENDS as _event_backends

        allowed = _event_backends
    else:
        from repro.analysis.timebased import BACKENDS as _time_backends

        allowed = _time_backends
    if args.backend not in allowed:
        print(
            f"error: backend {args.backend!r} is not valid for "
            f"--method {args.method} (choose from {', '.join(allowed)})",
            file=sys.stderr,
        )
        return 2
    trace = read_trace(args.file)
    costs = InstrumentationCosts().scaled(args.cost_scale)
    constants = calibrate_analysis_constants(FX80, costs)
    if args.method == "event":
        approx = event_based_approximation(
            trace, constants, policy=args.policy, backend=args.backend
        )
    else:
        approx = time_based_approximation(
            trace, constants, policy=args.policy, backend=args.backend
        )
    if args.policy != "strict":
        errors = [d for d in approx.diagnostics if d.severity is Severity.ERROR]
        if errors:
            print(f"degraded analysis ({args.policy}): "
                  f"{len(errors)} validation error(s) in input")
        if approx.repair_report:
            print(f"  {approx.repair_report.summary()}")
    measured_total = trace.end_time
    print(f"measured total:      {measured_total} cycles")
    print(f"approximated actual: {approx.total_time} cycles "
          f"({approx.method})")
    if approx.total_time:
        print(f"perturbation removed: {measured_total / approx.total_time:.2f}x")
    if args.stats:
        report = waiting_percentages(approx.trace, constants)
        print("\nrecovered per-CE waiting:")
        for ce, pct in report.percentages().items():
            print(f"  CE{ce}: {pct:5.2f}%")
        try:
            avg = average_parallelism(approx.trace, constants)
            print(f"recovered average parallelism: {avg:.2f}")
        except ValueError:
            pass
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "stats": cmd_info,
        "convert": cmd_convert,
        "dump": cmd_dump,
        "query": cmd_query,
        "slice": cmd_slice,
        "validate": cmd_validate,
        "repair": cmd_repair,
        "inject": cmd_inject,
        "analyze": cmd_analyze,
        "diff": cmd_diff,
    }
    try:
        return handlers[args.command](args)
    except (TraceError, AnalysisError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. piped into `head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
