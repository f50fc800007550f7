"""repro — reproduction of Malony, "Event-Based Performance Perturbation:
A Case Study" (PPoPP 1991).

The package provides, end to end:

* a deterministic discrete-event simulator of an Alliant FX/80-class
  multiprocessor (:mod:`repro.sim`, :mod:`repro.machine`);
* a statement-level program IR with DOACROSS advance/await synchronization
  (:mod:`repro.ir`) and Lawrence Livermore Loop models
  (:mod:`repro.livermore`);
* trace instrumentation with configurable detail and per-event costs
  (:mod:`repro.instrument`, :mod:`repro.exec`, :mod:`repro.trace`);
* the paper's perturbation-analysis models — time-based and event-based —
  plus the liberal rescheduling extension (:mod:`repro.analysis`);
* performance statistics (waiting, parallelism profiles) and the paper's
  experiments (:mod:`repro.metrics`, :mod:`repro.experiments`).

Quickstart::

    from repro import (
        Executor, PLAN_NONE, PLAN_FULL, InstrumentationCosts,
        calibrate_analysis_constants, event_based_approximation,
    )
    from repro.machine.costs import FX80
    from repro.livermore import livermore_program

    prog = livermore_program(3)
    actual = Executor().run(prog, PLAN_NONE)        # ground truth
    measured = Executor().run(prog, PLAN_FULL)      # what a tool sees
    constants = calibrate_analysis_constants(FX80, InstrumentationCosts())
    approx = event_based_approximation(measured.trace, constants)
    print(measured.total_time / actual.total_time)  # perturbation
    print(approx.total_time / actual.total_time)    # recovered ~1.0
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.approximation": ("Approximation", "AnalysisError"),
    "repro.analysis.errors": (
        "ExecutionRatios",
        "compare_ratios",
        "per_event_errors",
        "percent_error",
    ),
    "repro.analysis.eventbased": ("event_based_approximation",),
    "repro.analysis.reschedule": ("liberal_approximation",),
    "repro.analysis.timebased": ("time_based_approximation",),
    "repro.exec.executor": ("Executor",),
    "repro.exec.perturbation": ("PerturbationConfig",),
    "repro.exec.result": ("ExecutionResult",),
    "repro.instrument.costs": ("AnalysisConstants", "InstrumentationCosts"),
    "repro.instrument.plan": (
        "Detail",
        "InstrumentationPlan",
        "PLAN_FULL",
        "PLAN_NONE",
        "PLAN_STATEMENTS",
        "PLAN_SYNC_ONLY",
    ),
    "repro.instrument.calibrate": ("calibrate_analysis_constants",),
    "repro.instrument.rewrite": ("instrument_program", "probe_count"),
    "repro.ir.program": (
        "DoAcrossLoop",
        "DoAllLoop",
        "Program",
        "Schedule",
        "SequentialLoop",
    ),
    "repro.ir.builder": ("ProgramBuilder", "loop_body"),
    "repro.machine.costs": ("MachineConfig", "FX80"),
    "repro.trace.trace": ("Trace",),
    "repro.trace.events": ("TraceEvent", "EventKind"),
    "repro.trace.io": ("read_trace", "write_trace"),
})
__all__.append("__version__")
