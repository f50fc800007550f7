"""Program execution on the simulated machine.

The executor interprets IR programs on a :class:`repro.machine.Machine`,
producing either a *logical* trace (uninstrumented run — the ground truth,
observable only because this is a simulator) or a *measured* trace
(instrumented run, with per-event overheads and ancillary perturbations
applied).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".executor": ("Executor",),
    ".perturbation": ("PerturbationConfig",),
    ".result": ("ExecutionResult", "CESnapshot", "SyncVarStats"),
})
