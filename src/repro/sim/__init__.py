"""Deterministic discrete-event simulation kernel.

This subpackage is the foundation substrate for the reproduction: a small,
fully deterministic discrete-event simulator with generator-based processes,
in the style of SimPy but with integer (cycle-granular) time and strictly
reproducible event ordering.

Determinism guarantees:

* Simulation time is an integer number of machine cycles — no floating-point
  scheduling drift.
* Ties in the event queue are broken by a monotonically increasing sequence
  number, so two runs of the same program produce byte-identical traces.
* All randomness flows through :class:`repro.sim.rng.SplitMix64` streams that
  are seeded explicitly.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": (
        "Engine",
        "Process",
        "ProcessCrashed",
        "SimulationDeadlock",
        "SimulationError",
        "SimulationTimeout",
        "Timeout",
        "Signal",
        "AllOf",
        "Interrupt",
    ),
    ".primitives": ("Semaphore", "Mutex", "SimQueue", "Barrier", "Store"),
    ".rng": ("SplitMix64",),
})
