"""Performance perturbation analysis — the paper's contribution.

Given a *measured* trace τ_m and the platform constants
(:class:`repro.instrument.AnalysisConstants`), these models reconstruct an
*approximated* trace τ_a estimating the uninstrumented execution:

* :func:`time_based_approximation` (§3) — removes per-event instrumentation
  overhead along each thread independently.  Exact for sequential/vector
  execution; systematically wrong when instrumentation changed
  synchronization waiting.
* :func:`event_based_approximation` (§4) — additionally replays
  advance/await and barrier semantics so waiting is reconstructed from
  dependency structure rather than copied from the perturbed measurement.

Both consume **only** the measured trace and the analysis constants; the
uninstrumented ground truth is used solely for scoring
(:mod:`repro.analysis.errors`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".auto": ("auto_approximation", "AutoResult"),
    ".approximation": ("Approximation", "AnalysisError", "POLICIES", "check_policy"),
    ".eventbased": ("ResolutionError", "event_based_approximation"),
    ".timebased": ("time_based_approximation",),
    ".reschedule": ("liberal_approximation",),
    ".errors": ("ExecutionRatios", "compare_ratios", "percent_error", "per_event_errors"),
})
