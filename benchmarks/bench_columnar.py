#!/usr/bin/env python
"""Columnar-backend benchmark: trace load and time-based analysis.

Not a paper reproduction — this is the perf baseline for the storage
layer.  It generates a Livermore loop 3 (inner product, DOACROSS) measured
trace of ~1M events (``--quick``: ~100k), writes it in both trace formats,
and times the two hot paths the columnar backend rewrites:

* **load**: JSONL parse vs packed ``.rpt`` (v3) read;
* **time-based analysis**: per-event Python loop (``backend="object"``)
  vs vectorized per-thread cumsum (``backend="columnar"``).

Results go to stdout and, machine-readable, to ``BENCH_columnar.json``
(override with ``--out``), so successive PRs can track the perf
trajectory.  Exit status enforces the regression tripwire: the columnar
analysis path must beat the object path (``--quick``, the CI smoke job),
and the full run must hit the PR targets of >=5x on analysis and >=10x on
load.  Both traces' analysis results are asserted identical before any
timing is reported.

Usage::

    PYTHONPATH=src python benchmarks/bench_columnar.py [--quick] [--events N]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.analysis import time_based_approximation
from repro.exec import Executor, PerturbationConfig
from repro.instrument import InstrumentationCosts, calibrate_analysis_constants
from repro.instrument.plan import PLAN_FULL
from repro.livermore import livermore_program
from repro.machine.costs import FX80
from repro.resilience.validate import validate_trace
from repro.trace.io import read_trace, write_trace
from repro.trace.stats import trace_stats

#: Loop 3 DOACROSS emits ~5 events per trip under PLAN_FULL.
EVENTS_PER_TRIP = 5

FULL_EVENTS = 1_000_000
QUICK_EVENTS = 100_000

#: PR acceptance targets (full run only).
TARGET_ANALYSIS_SPEEDUP = 5.0
TARGET_LOAD_SPEEDUP = 10.0


def build_loop3_trace(n_events: int):
    """Measured (fully instrumented) Livermore loop 3 DOACROSS trace."""
    trips = max(1, n_events // EVENTS_PER_TRIP)
    program = livermore_program(3, mode="doacross", trips=trips)
    executor = Executor(
        machine_config=FX80,
        inst_costs=InstrumentationCosts(),
        perturb=PerturbationConfig(dilation=0.04, jitter=0.05),
        seed=1991,
    )
    return executor.run(program, plan=PLAN_FULL).trace


def timed(fn, repeats: int = 1):
    """(best wall-clock seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run(n_events: int, out_path: Path, repeats: int) -> dict:
    constants = calibrate_analysis_constants(FX80, InstrumentationCosts())
    print(f"generating ~{n_events} event loop 3 trace ...", flush=True)
    t0 = time.perf_counter()
    trace = build_loop3_trace(n_events)
    gen_secs = time.perf_counter() - t0
    print(f"  {len(trace)} events in {gen_secs:.1f}s")

    results: dict = {
        "benchmark": "columnar",
        "program": "livermore loop 3 (doacross, PLAN_FULL)",
        "n_events": len(trace),
        "n_threads": len(trace.threads),
    }

    with TemporaryDirectory(prefix="bench_columnar_") as tmp:
        jsonl = Path(tmp) / "loop3.jsonl"
        rpt = Path(tmp) / "loop3.rpt"
        write_secs_jsonl, _ = timed(lambda: write_trace(trace, jsonl))
        write_secs_rpt, _ = timed(lambda: write_trace(trace, rpt))
        results["write"] = {
            "jsonl_secs": write_secs_jsonl,
            "rpt_secs": write_secs_rpt,
            "jsonl_bytes": jsonl.stat().st_size,
            "rpt_bytes": rpt.stat().st_size,
        }

        load_secs_jsonl, obj_trace = timed(lambda: read_trace(jsonl), repeats)
        load_secs_rpt, col_trace = timed(lambda: read_trace(rpt), repeats)
        load_speedup = load_secs_jsonl / load_secs_rpt
        results["load"] = {
            "jsonl_secs": load_secs_jsonl,
            "rpt_secs": load_secs_rpt,
            "speedup": load_speedup,
        }
        print(f"load:     jsonl {load_secs_jsonl:.3f}s  "
              f"rpt {load_secs_rpt:.3f}s  ({load_speedup:.1f}x)")

        # Analysis correctness gate before timing: identical output on
        # both backends, whichever backing store the trace came from.
        a_obj = time_based_approximation(obj_trace, constants, backend="object")
        a_col = time_based_approximation(col_trace, constants, backend="columnar")
        if a_obj.times != a_col.times or a_obj.total_time != a_col.total_time:
            raise SystemExit("FATAL: object and columnar analyses disagree")

        an_obj_secs, _ = timed(
            lambda: time_based_approximation(obj_trace, constants,
                                             backend="object"),
            repeats,
        )
        an_col_secs, _ = timed(
            lambda: time_based_approximation(col_trace, constants,
                                             backend="columnar"),
            repeats,
        )
        analysis_speedup = an_obj_secs / an_col_secs
        results["time_based_analysis"] = {
            "object_secs": an_obj_secs,
            "columnar_secs": an_col_secs,
            "speedup": analysis_speedup,
            "total_time_cycles": a_col.total_time,
        }
        print(f"analysis: object {an_obj_secs:.3f}s  "
              f"columnar {an_col_secs:.3f}s  ({analysis_speedup:.1f}x)")

        # Secondary hot paths riding on the same columns.
        val_secs, _ = timed(lambda: validate_trace(col_trace), repeats)
        stats_secs, _ = timed(lambda: trace_stats(col_trace), repeats)
        results["secondary"] = {
            "validate_columnar_secs": val_secs,
            "stats_columnar_secs": stats_secs,
        }
        print(f"validate(columnar) {val_secs:.3f}s  "
              f"stats(columnar) {stats_secs:.3f}s")

    from repro.obs import bench_summary

    results["obs"] = bench_summary()
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"~{QUICK_EVENTS} events and a slower-than-object tripwire "
        "only (the CI smoke mode)",
    )
    parser.add_argument("--events", type=int, default=None,
                        help="override the event-count target")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repetitions; best run is reported")
    parser.add_argument("--out", type=Path, default=Path("BENCH_columnar.json"),
                        help="machine-readable results path")
    args = parser.parse_args(argv)

    n_events = args.events or (QUICK_EVENTS if args.quick else FULL_EVENTS)
    results = run(n_events, args.out, max(1, args.repeats))

    analysis_speedup = results["time_based_analysis"]["speedup"]
    load_speedup = results["load"]["speedup"]
    if args.quick:
        if analysis_speedup < 1.0:
            print(f"FAIL: columnar analysis path is {analysis_speedup:.2f}x "
                  "the object path (regression tripwire)", file=sys.stderr)
            return 1
        print(f"OK: columnar analysis {analysis_speedup:.1f}x, "
              f"load {load_speedup:.1f}x")
        return 0
    failed = False
    if analysis_speedup < TARGET_ANALYSIS_SPEEDUP:
        print(f"FAIL: analysis speedup {analysis_speedup:.1f}x < "
              f"{TARGET_ANALYSIS_SPEEDUP}x target", file=sys.stderr)
        failed = True
    if load_speedup < TARGET_LOAD_SPEEDUP:
        print(f"FAIL: load speedup {load_speedup:.1f}x < "
              f"{TARGET_LOAD_SPEEDUP}x target", file=sys.stderr)
        failed = True
    if not failed:
        print(f"OK: analysis {analysis_speedup:.1f}x (target "
              f"{TARGET_ANALYSIS_SPEEDUP}x), load {load_speedup:.1f}x "
              f"(target {TARGET_LOAD_SPEEDUP}x)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
