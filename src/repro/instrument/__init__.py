"""Trace instrumentation: plans, costs, and in-vitro calibration.

Instrumentation of a program ``P = S1..Sn`` is a choice of instrumentation
points ``I(P) = I1,S1,...,In,Sn`` (§2).  An :class:`InstrumentationPlan`
selects which statement classes get points; :class:`InstrumentationCosts`
gives the per-event execution overheads the tracer adds; and
:func:`calibrate_analysis_constants` measures, in vitro, the machine
synchronization processing constants (``s_nowait``, ``s_wait``, barrier
release cost) the perturbation analysis needs as input.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".costs": ("InstrumentationCosts", "AnalysisConstants"),
    ".plan": ("InstrumentationPlan", "Detail"),
    ".calibrate": ("calibrate_analysis_constants",),
    ".rewrite": ("instrument_program", "probe_count"),
})
