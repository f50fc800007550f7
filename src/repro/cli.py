"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    repro-ppopp91 all            # every table and figure
    repro-ppopp91 all --jobs 8   # fan simulations out over 8 processes
    repro-ppopp91 table2         # one experiment
    repro-ppopp91 figure1 --quick
    repro-ppopp91 table3 --trips 400 --seed 7
    repro-ppopp91 cache stats    # inspect the simulation artifact cache
    repro-ppopp91 cache clear
    repro-ppopp91 audit              # cross-backend parity, standard programs
    repro-ppopp91 audit --fuzz 50 --seed 0   # seeded differential fuzzing
    repro-ppopp91 native info    # compiled-kernel availability and cache
    repro-ppopp91 native clear   # drop cached kernel builds
    repro-ppopp91 all --backend native   # force one analysis backend
    repro-ppopp91 all --obs          # record spans/counters, write manifest
    repro-ppopp91 obs report         # render the latest run manifest
    repro-ppopp91 obs export         # latest event log -> Chrome trace JSON
    repro-ppopp91 obs calibrate      # measure the obs layer's own overhead
    repro-ppopp91 all --log-level debug   # stderr diagnostics ($REPRO_LOG)
    python -m repro figure5

Simulations are deterministic per (program, plan, machine, seed) tuple,
so ``--jobs`` and the artifact cache change wall-clock only — report text
is byte-identical to a serial, cold run.

Trace artifacts (e.g. the simulation cache) are stored in the chunked
compressed ``.rpt`` v3 format, the only packed format written (see
``docs/FORMATS.md``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from repro.analysis.approximation import AnalysisError
from repro.analysis.eventbased import BACKENDS as ANALYSIS_BACKENDS
from repro.analysis.eventbased import configure_backend
from repro.exec import PerturbationConfig
from repro.experiments import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    run_accuracy,
    run_figure1,
    run_figure4,
    run_figure5,
    run_loop_studies,
    run_mode_study,
    run_scaling,
    run_table1,
    run_table2,
    run_table3,
    run_volume,
)
from repro.experiments.table1 import DOACROSS_LOOPS
from repro.logutil import configure_logging, get_logger
from repro.runtime import ArtifactCache, RunSpec, configure, simulate_many

log = get_logger("cli")

EXPERIMENTS = (
    "figure1",
    "table1",
    "table2",
    "table3",
    "figure4",
    "figure5",
    "modes",
    "accuracy",
    "scaling",
    "volume",
)


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    config = DEFAULT_CONFIG
    if args.quick:
        config = config.quick()
    if args.trips is not None:
        config = replace(config, trips=args.trips)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.no_noise:
        config = replace(config, perturb=PerturbationConfig())
    return config


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ppopp91",
        description=(
            "Reproduce the tables and figures of Malony, 'Event-Based "
            "Performance Perturbation: A Case Study' (PPoPP 1991) on a "
            "simulated Alliant FX/80."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + ("all", "cache", "audit", "native", "obs"),
        help=(
            "which table/figure to regenerate, 'cache' to manage the "
            "artifact cache, 'audit' to run the cross-backend "
            "correctness audit, 'native' to manage the compiled "
            "analysis kernel, or 'obs' to inspect self-instrumentation "
            "runs"
        ),
    )
    parser.add_argument(
        "action",
        nargs="?",
        choices=("stats", "clear", "info", "report", "export", "calibrate"),
        default=None,
        help=(
            "management action: with 'cache' stats|clear (default stats); "
            "with 'native' info|clear (default info); with 'obs' "
            "report|export|calibrate (default report)"
        ),
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced loop lengths (fast)"
    )
    parser.add_argument(
        "--trips", type=int, default=None, help="override loop trip counts"
    )
    parser.add_argument("--seed", type=int, default=None, help="machine noise seed")
    parser.add_argument(
        "--no-noise",
        action="store_true",
        help="disable ancillary perturbation (jitter/dilation); approximations become exact",
    )
    parser.add_argument(
        "--width", type=int, default=72, help="chart width in characters"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="simulation worker processes (default: $REPRO_JOBS or 1 = serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk simulation artifact cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="artifact cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro-ppopp91)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-25 cumulative entries",
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        default=None,
        metavar="N",
        help=(
            "(audit) differential-audit N fuzzed programs seeded "
            "SEED..SEED+N-1 instead of the standard program set"
        ),
    )
    parser.add_argument(
        "--no-minimize",
        action="store_true",
        help="(audit) skip delta-minimization of divergence witnesses",
    )
    parser.add_argument(
        "--backend",
        choices=ANALYSIS_BACKENDS,
        default=None,
        help=(
            "event-based analysis backend for this run (default: auto — "
            "native, then columnar, then object)"
        ),
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help=(
            "record self-instrumentation spans/counters during the run "
            "and write a run manifest, event log, and Chrome trace "
            "(equivalent to REPRO_OBS=1)"
        ),
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help=(
            "where obs exports land (default: $REPRO_OBS_DIR or "
            "<artifact cache>/obs)"
        ),
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help=(
            "stderr diagnostics level: debug/info/warning/error "
            "(default: $REPRO_LOG or info)"
        ),
    )
    return parser


def all_specs(config: ExperimentConfig) -> list[RunSpec]:
    """Every simulation tuple the full report needs, for one-shot fan-out.

    Duplicates across experiments (e.g. the accuracy study re-measures the
    loop-study tuples) are fine: the runner deduplicates by spec.
    """
    from repro.experiments.accuracy import accuracy_specs
    from repro.experiments.common import loop_study_specs, sequential_study_specs
    from repro.experiments.modes import mode_study_specs
    from repro.experiments.scaling import scaling_specs
    from repro.experiments.volume import volume_specs
    from repro.livermore.classify import figure1_kernels

    specs: list[RunSpec] = []
    for k in figure1_kernels():
        specs.extend(sequential_study_specs(k, config))
    for k in DOACROSS_LOOPS:
        specs.extend(loop_study_specs(k, config))
    specs.extend(mode_study_specs(config))
    specs.extend(accuracy_specs(config))
    specs.extend(scaling_specs(17, config))
    specs.extend(scaling_specs(3, config))
    specs.extend(volume_specs(20, config))
    return specs


def run(experiment: str, config: ExperimentConfig, width: int = 72) -> str:
    """Run one experiment (or 'all') and return its report text."""
    sections: list[str] = []
    if experiment == "all":
        # One batch for the whole report: cache hits resolve immediately
        # and every remaining simulation fans out in a single wave.
        simulate_many(all_specs(config))
    # Loop studies are the expensive part; share them across experiments.
    studies = None
    if experiment in ("table1", "table2", "table3", "figure4", "figure5", "all"):
        studies = run_loop_studies(DOACROSS_LOOPS, config)
    if experiment in ("figure1", "all"):
        sections.append(run_figure1(config).render())
    if experiment in ("table1", "all"):
        sections.append(run_table1(config, studies=studies).render())
    if experiment in ("table2", "all"):
        sections.append(run_table2(config, studies=studies).render())
    if experiment in ("table3", "all"):
        sections.append(run_table3(config, study=studies[17]).render())
    if experiment in ("figure4", "all"):
        sections.append(run_figure4(config, study=studies[17]).render(width=width))
    if experiment in ("figure5", "all"):
        sections.append(run_figure5(config, study=studies[17]).render(width=width))
    if experiment in ("modes", "all"):
        sections.append(run_mode_study(config).render())
    if experiment in ("accuracy", "all"):
        sections.append(run_accuracy(config).render())
    if experiment in ("scaling", "all"):
        sections.append(run_scaling(17, config).render())
        sections.append(run_scaling(3, config).render())
    if experiment in ("volume", "all"):
        sections.append(run_volume(20, config).render())
    return "\n\n" + "\n\n\n".join(sections) + "\n"


def _run_audit_command(args: argparse.Namespace) -> int:
    from repro.audit import fuzz_audit, standard_audit

    minimize = not args.no_minimize
    if args.fuzz is not None:
        if args.fuzz < 1:
            make_parser().error("--fuzz requires N >= 1")
        report = fuzz_audit(
            args.fuzz,
            base_seed=args.seed if args.seed is not None else 0,
            minimize=minimize,
            progress=log.info,
        )
    else:
        report = standard_audit(trips=args.trips, minimize=minimize)
    print(report.render())
    return 0 if report.ok else 1


def _run_cache_command(args: argparse.Namespace) -> int:
    cache = ArtifactCache(args.cache_dir)
    action = args.action or "stats"
    if action == "info":
        make_parser().error("'cache' supports actions: stats, clear")
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached artifacts from {cache.root}")
    else:
        print(cache.stats().describe())
    return 0


def _run_native_command(args: argparse.Namespace) -> int:
    from repro import native

    action = args.action or "info"
    if action not in ("info", "clear"):
        make_parser().error("'native' supports actions: info, clear")
    if action == "clear":
        root = native.native_cache_dir()
        removed = native.clear_native_cache()
        print(f"removed {removed} cached kernel builds from {root}")
        return 0
    print(native.describe_status())
    return 0


def _run_obs_command(args: argparse.Namespace) -> int:
    from repro import obs

    action = args.action or "report"
    if action not in ("report", "export", "calibrate"):
        make_parser().error("'obs' supports actions: report, export, calibrate")
    directory = args.obs_dir  # None -> $REPRO_OBS_DIR or <cache>/obs
    if action == "calibrate":
        print(obs.calibrate().describe())
        return 0
    if action == "export":
        jsonl = obs.latest_jsonl(directory)
        if jsonl is None:
            print(
                "error: no obs event log found; run an experiment with "
                "--obs (or REPRO_OBS=1) first",
                file=sys.stderr,
            )
            return 1
        doc = obs.chrome_trace_from_jsonl(jsonl)
        out = jsonl.with_name(jsonl.name.replace(".events.jsonl", ".trace.json"))
        import json as _json

        out.write_text(_json.dumps(doc) + "\n")
        print(out)
        return 0
    found = obs.latest_manifest(directory)
    if found is None:
        print(
            "error: no obs run manifest found; run an experiment with "
            "--obs (or REPRO_OBS=1) first",
            file=sys.stderr,
        )
        return 1
    path, manifest = found
    print(obs.render_manifest(manifest))
    log.info("manifest: %s", path)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _main(argv)
    except AnalysisError as exc:
        # e.g. --backend native on a host where the kernel can't run
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. piped into `head`
        return 0


def _main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    configure_logging(args.log_level, default="info")
    if args.backend is not None:
        configure_backend(args.backend)
    if args.experiment == "cache":
        return _run_cache_command(args)
    if args.experiment == "native":
        return _run_native_command(args)
    if args.experiment == "obs":
        return _run_obs_command(args)
    if args.experiment == "audit":
        if args.action is not None:
            make_parser().error(
                f"'{args.action}' only applies to the 'cache', 'native', "
                "and 'obs' commands"
            )
        return _run_audit_command(args)
    if args.fuzz is not None:
        make_parser().error("--fuzz only applies to the 'audit' command")
    if args.action is not None:
        make_parser().error(
            f"'{args.action}' only applies to the 'cache', 'native', and "
            "'obs' commands"
        )
    configure(
        jobs=args.jobs,
        cache=None if args.no_cache else ArtifactCache(args.cache_dir),
    )
    config = _build_config(args)
    from repro import obs

    if args.obs and not obs.enabled():
        obs.enable()
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        report = profiler.runcall(run, args.experiment, config, width=args.width)
        print(report)
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(25)
    else:
        print(run(args.experiment, config, width=args.width))
    if obs.enabled():
        paths = obs.write_run(args.obs_dir)
        log.info("obs manifest: %s", paths.manifest)
        log.info("obs trace:    %s", paths.trace)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
