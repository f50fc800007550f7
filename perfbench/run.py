#!/usr/bin/env python3
"""The repository's end-to-end, layer-attributed benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload record-loop3 --seed 1991 --seconds 20 --trace 0

Workloads (why each exists: ``perfbench/README.md``):

* ``record-loop3``  — simulate Livermore loop 3 DOACROSS uninstrumented
  and fully instrumented, write both traces as ``.rpt`` v3;
* ``analyze-loop3`` — read a measured loop-3 trace recorded in set-up and
  run every ``repro-trace`` analysis, query and slice on it;
* ``report-cold``   — ``repro-ppopp91 all`` in a fresh process against an
  empty artifact cache;
* ``report-warm``   — the same command against the cache one untimed
  cold run filled.

Every workload is a closed loop with one client, ``jobs=1``, a private
artifact cache and a pinned ``REPRO_*`` environment.  The outputs are
checked on every iteration.  Every timing is scaled by a fixed
reference work timed right before and right after it
(``reference.py``), so a slow phase of a shared host does not read as a
slow program.  With ``--trace 0`` the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``
with the end-to-end metrics (tracing off); with ``--trace 1`` the same
run is followed by one traced iteration and ``metrics`` holds the
per-layer breakdown instead.  The line before it carries the samples,
quartiles, environment fingerprint, observed output fingerprints and
every failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import LAYER_NAMES  # noqa: E402
from reference import REFERENCE_S, reference_s, scaled  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
#: Scratch space inside the checkout (git-ignored): native kernel build
#: cache shared across runs, per-run caches/traces, last traced export.
WORK_DIR = ".perfbench-work"

WORKLOADS = ("record-loop3", "analyze-loop3", "report-cold", "report-warm")
DEFAULT_SEED = 1991
ENTRY = {
    "record-loop3": "repro.cli",
    "analyze-loop3": "repro.tracetool",
    "report-cold": "repro.cli",
    "report-warm": "repro.cli",
}
#: ``full`` is what BENCHMARK.json measures; ``tiny`` is for the tests.
SIZES = {
    "full": {"record_trips": 5_000, "analyze_trips": 20_000,
             "setup_repeats": 5, "report_args": ["--quick"]},
    "tiny": {"record_trips": 100, "analyze_trips": 300,
             "setup_repeats": 1, "report_args": ["--trips", "10"]},
}
CHILD_TIMEOUT_S = 150
#: Reference units timed around each report operation (one to several
#: seconds long); the loop-3 operations and set-up processes take one.
REPORT_REFERENCE_UNITS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "exec.run_s": "s",
    "exec.build_s": "s",
    "exec.us_per_event": "us",
    "exec.events": "count",
    "exec.sim_cycles": "cycles",
    "runtime.simulate_many_s": "s",
    "runtime.sim_calls": "count",
    "runtime.unique_specs": "count",
    "runtime.useful_ratio": "ratio",
    "runtime.cache.store_s": "s",
    "runtime.cache.load_s": "s",
    "runtime.cache.hits": "count",
    "trace.to_columns_s": "s",
    "trace.v3.write_s": "s",
    "trace.v3.bytes": "bytes",
    "trace.v3.read_s": "s",
    "trace.query_s": "s",
    "trace.query.chunks_pruned": "count",
    "trace.slice_s": "s",
    "trace.slice.chunks_decoded": "count",
    "trace.stream_s": "s",
    "analysis.eventbased_s": "s",
    "analysis.timebased_s": "s",
    "analysis.liberal_s": "s",
    "analysis.errors_s": "s",
    "analysis.approx_error_pct": "%",
    "native.load_s": "s",
    "import.cli_s": "s",
    "import.tracetool_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYER_NAMES},
    "uncovered_s": "s",
    "traced.wall_s": "s",
    "tracing.overhead_s": "s",
    "host.wall_s": "s",
    "host.reference_s": "s",
}


class BenchError(RuntimeError):
    """The harness itself failed; no result is printed."""


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0],
                "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


class Bench:
    def __init__(self, root: Path, args: argparse.Namespace):
        self.root = root
        self.args = args
        self.size = SIZES[args.size]
        self.work = root / WORK_DIR
        self.run_dir = self.work / f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        (self.run_dir / "tmp").mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.info: dict = {"workload": args.workload, "seed": args.seed,
                           "seconds": args.seconds, "trace": args.trace,
                           "size": args.size}
        self.env = self._pinned_env()
        self.info["cpu"] = self._pin_cpu()
        self.info["repro_env"] = {k: v for k, v in sorted(self.env.items())
                                  if k.startswith(("REPRO_", "OPENBLAS_"))}

    @staticmethod
    def _pin_cpu():
        """Pin this process, and so every child it starts, to one CPU.

        The CPUs of a shared virtual machine run at different speeds at
        any one time.  The reference work run here scales the times of
        the operations run in child processes, so both must run on the
        same CPU.  One client with ``jobs=1`` never needs a second CPU.
        """
        if not hasattr(os, "sched_setaffinity"):
            return None
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu

    def _pinned_env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(self.root / "src"),
            TMPDIR=str(self.run_dir / "tmp"),
            REPRO_TRACE_FORMAT="v3",
            REPRO_JOBS="1",
            REPRO_CACHE_DIR=str(self.run_dir / "cache"),
            REPRO_NATIVE_CACHE_DIR=str(self.work / "native"),
            REPRO_OBS_DIR=str(self.run_dir / "obs"),
            # One thread of computation, like jobs=1: OpenBLAS would
            # otherwise start a spinning thread per CPU that competes with
            # the workload for the host's two CPUs.
            OPENBLAS_NUM_THREADS="1",
        )
        return env

    # ------------------------------------------------------------ checks
    def check(self, ok: bool, message: str) -> None:
        """One attempted operation that fails with ``message`` unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)

    def absorb(self, loop: dict) -> None:
        """Take over a worker loop's tally of attempted and failed runs."""
        self.attempted += loop["attempted"]
        self.failed += loop["failed"]
        self.failures.extend(loop["failures"])

    def check_fingerprint(self, key: str, observed) -> None:
        self.info.setdefault("fingerprints", {})[key] = observed
        if self.args.seed != DEFAULT_SEED:
            return
        stored = json.loads(FINGERPRINTS.read_text())
        expected = stored.get(self.args.size, {}).get(key)
        self.check(expected == observed,
                   f"{key}: output fingerprint {observed} does not match the "
                   f"stored {expected} for seed {DEFAULT_SEED}")

    # --------------------------------------------------------- processes
    def child(self, argv: list[str]) -> tuple[int, str, float, float, float]:
        """(exit code, stdout, wall s, CPU s, peak RSS MB) of one process."""
        with open(self.run_dir / "tmp" / "out", "w+b") as out, \
                open(self.run_dir / "tmp" / "err", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode()
            if proc.returncode != 0:
                sys.stderr.write(err.read().decode()[-4000:])
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, stdout, wall, cpu, usage.ru_maxrss / 1024.0

    def worker(self, *args: str) -> tuple[dict, float, float]:
        rc, stdout, wall, _, rss = self.child([sys.executable, str(WORKER), *args])
        if rc != 0:
            raise BenchError(f"worker {args[0]} exited with code {rc}")
        return json.loads(stdout.strip().splitlines()[-1]), wall, rss

    def fresh_dir(self, name: str) -> Path:
        path = self.run_dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    # ------------------------------------------------------------- setup
    def measure_setup(self, entry: str) -> list[dict]:
        """Fresh set-up processes, each with its time scaled by the
        reference work timed right before and right after it."""
        refs = [reference_s()]
        runs = []
        for _ in range(self.size["setup_repeats"]):
            runs.append(self.worker("setup", "--entry", entry)[0])
            refs.append(reference_s())
        for run, value in zip(runs, scaled([r["setup_s"] for r in runs], refs)):
            run["scaled_setup_s"] = value
        return runs

    def prepare(self) -> dict:
        """Untimed warm-up, then the set-up time of fresh processes.

        The warm-up builds the native kernel and byte-compiles the
        package on a fresh checkout, and records the environment.
        """
        entry = ENTRY[self.args.workload]
        warm, _, _ = self.worker("setup", "--entry", entry, "--summary")
        self.info["environment"] = warm["summary"]
        self.info["backend"] = warm["backend"]
        self.check(warm["backend"] == "native",
                   f"event-based backend resolved to {warm['backend']!r}, not "
                   f"'native' ({warm['summary']['backend']['native_reason']})")
        setups = {entry: self.measure_setup(entry)}
        if self.args.trace:
            for other in set(ENTRY.values()) - {entry}:
                setups[other] = self.measure_setup(other)
        return setups

    # --------------------------------------------------------- workloads
    def loop_args(self) -> list[str]:
        args = ["--seconds", str(self.args.seconds)]
        if self.args.trace:
            args += ["--trace-dir", str(self.trace_export_dir())]
        return args

    def run_record(self):
        out = self.fresh_dir("record")
        res, _, rss = self.worker("record", "--seed", str(self.args.seed),
                                  "--trips", str(self.size["record_trips"]),
                                  "--out", str(out), *self.loop_args())
        self.absorb(res)
        self.check_fingerprint("record-loop3", res["fingerprint"])
        return res["walls"], res["cpus"], res["refs"], [rss], res.get("traced")

    def run_analyze(self):
        out = self.fresh_dir("analyze")
        prep, _, _ = self.worker("prep-analyze", "--seed", str(self.args.seed),
                                 "--trips", str(self.size["analyze_trips"]),
                                 "--out", str(out))
        self.check(prep["default_total"] == prep["reference_total"],
                   f"event-based total {prep['default_total']} != columnar "
                   f"reference {prep['reference_total']}")
        res, _, rss = self.worker("analyze", "--out", str(out), *self.loop_args())
        self.absorb(res)
        self.check(res["backend"] == "native",
                   f"analysis ran on backend {res['backend']!r}, not 'native'")
        self.check_fingerprint("analyze-loop3", res["fingerprint"])
        return res["walls"], res["cpus"], res["refs"], [rss], res.get("traced")

    def cli_argv(self, cache: Path) -> list[str]:
        return ["all", "--seed", str(self.args.seed), "--cache-dir", str(cache),
                "--jobs", "1", *self.size["report_args"]]

    def run_report(self, cold: bool):
        warm_cache = self.run_dir / "cache-warm"
        reference = None
        if not cold:
            rc, reference, _, _, _ = self.child(
                [sys.executable, "-m", "repro.cli", *self.cli_argv(warm_cache)])
            self.check(rc == 0, f"cache-filling cold run exited with code {rc}")
        walls: list[float] = []
        cpus: list[float] = []
        rss: list[float] = []
        refs = [reference_s(REPORT_REFERENCE_UNITS)]
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < self.args.seconds:
            cache = self.fresh_dir("cache-cold") if cold else warm_cache
            rc, text, wall, cpu, peak = self.child(
                [sys.executable, "-m", "repro.cli", *self.cli_argv(cache)])
            refs.append(reference_s(REPORT_REFERENCE_UNITS))
            walls.append(wall)
            cpus.append(cpu)
            rss.append(peak)
            if reference is None:
                reference = text
            self.check(rc == 0 and text == reference,
                       f"report run {len(walls)} (exit {rc}) printed text that "
                       f"differs from the {'first' if cold else 'cold'} run")
        digest = hashlib.sha256(reference.encode()).hexdigest()
        self.check_fingerprint("report", digest)
        traced = None
        if self.args.trace:
            cache = self.fresh_dir("cache-cold") if cold else warm_cache
            traced, wall, _ = self.worker(
                "report-traced", "--obs-dir", str(self.trace_export_dir()),
                "--", *self.cli_argv(cache))
            traced["wall_s"] = wall - traced["post_s"]
            self.check(traced["exit_code"] == 0 and traced["text_sha256"] == digest,
                       "traced report printed text that differs from the "
                       "untraced runs")
        return walls, cpus, refs, rss, traced

    def trace_export_dir(self) -> Path:
        path = self.work / "traces" / self.args.workload
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    # ----------------------------------------------------------- metrics
    def per_layer(self, traced: dict, untraced_wall: float, reference: float,
                  setups: dict) -> dict:
        totals, counts = traced["totals"], traced["counts"]
        events = counts.get("exec.events", 0)
        calls = counts.get("runtime.sim_calls", 0)
        run_s = totals.get("exec.run", 0.0)
        self.check(traced["dropped_events"] == 0,
                   f"obs ring dropped {traced['dropped_events']} span entries")

        def setup_median(entry: str, key: str) -> float:
            return statistics.median(r[key] for r in setups[entry])

        values = {
            "exec.run_s": run_s,
            "exec.build_s": totals.get("exec.build", 0.0),
            "exec.us_per_event": run_s / events * 1e6 if events else 0.0,
            "exec.events": events,
            "exec.sim_cycles": counts.get("exec.sim_cycles", 0),
            "runtime.simulate_many_s": traced["obs_spans"].get(
                "runtime.simulate_many", 0.0),
            "runtime.sim_calls": calls,
            "runtime.unique_specs": traced["unique_specs"],
            "runtime.useful_ratio": traced["unique_specs"] / calls if calls else 0.0,
            "runtime.cache.store_s": totals.get("runtime.cache.store", 0.0),
            "runtime.cache.load_s": totals.get("runtime.cache.load", 0.0),
            "runtime.cache.hits": counts.get("runtime.cache.hits", 0),
            "trace.to_columns_s": totals.get("trace.to_columns", 0.0),
            "trace.v3.write_s": totals.get("trace.v3.write", 0.0),
            "trace.v3.bytes": counts.get("trace.v3.bytes", 0),
            "trace.v3.read_s": totals.get("trace.v3.read", 0.0),
            "trace.query_s": totals.get("trace.query", 0.0),
            "trace.query.chunks_pruned": counts.get("trace.query.chunks_pruned", 0),
            "trace.slice_s": totals.get("trace.slice", 0.0),
            "trace.slice.chunks_decoded": counts.get("trace.slice.chunks_decoded", 0),
            "trace.stream_s": totals.get("trace.stream", 0.0),
            "analysis.eventbased_s": totals.get("analysis.eventbased", 0.0),
            "analysis.timebased_s": totals.get("analysis.timebased", 0.0),
            "analysis.liberal_s": totals.get("analysis.liberal", 0.0),
            "analysis.errors_s": totals.get("analysis.errors", 0.0),
            "analysis.approx_error_pct": traced.get("approx_error_pct", 0.0),
            "native.load_s": setup_median(ENTRY[self.args.workload], "native_load_s"),
            "import.cli_s": setup_median("repro.cli", "import_s"),
            "import.tracetool_s": setup_median("repro.tracetool", "import_s"),
            **{f"{layer}.self_s": traced["layers"][layer] for layer in LAYER_NAMES},
            "uncovered_s": traced["wall_s"] - traced["covered_s"],
            "traced.wall_s": traced["wall_s"],
            "tracing.overhead_s": traced["wall_s"] - untraced_wall,
            "host.wall_s": untraced_wall,
            "host.reference_s": reference,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER.items()}

    def run(self) -> dict:
        setups = self.prepare()
        workload = self.args.workload
        if workload == "record-loop3":
            walls, cpus, refs, rss, traced = self.run_record()
        elif workload == "analyze-loop3":
            walls, cpus, refs, rss, traced = self.run_analyze()
        else:
            walls, cpus, refs, rss, traced = self.run_report(
                cold=workload == "report-cold")
        setup = setups[ENTRY[workload]]
        samples = {
            "wall_s": scaled(walls, refs),
            "setup_s": [r["scaled_setup_s"] for r in setup],
            "peak_rss_mb": rss,
            "host_wall_s": walls,
            "host_setup_s": [r["setup_s"] for r in setup],
            "cpu_s": cpus,
            "reference_s": refs,
        }
        self.info["reference_unit_s"] = REFERENCE_S
        self.info["samples"] = samples
        self.info["summary"] = {k: quartiles(v) for k, v in samples.items()}
        if self.args.trace:
            metrics = self.per_layer(traced, statistics.median(walls),
                                     statistics.median(refs), setups)
            self.info["traced"] = {k: traced[k] for k in ("run_id", "obs_counters")}
        else:
            metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                       for name, unit in END_TO_END.items()}
        self.info["failures"] = self.failures
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the closed loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="input sizes; 'tiny' exists for the tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} is not a repro checkout (no src/repro); run "
              "from the repository root", file=sys.stderr)
        return 2
    bench = Bench(root, args)
    try:
        result = bench.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    print(json.dumps(bench.info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
