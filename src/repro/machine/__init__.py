"""Alliant FX/80 machine model.

The FX/80 (Perron & Mundie 1986) is an 8-way shared-memory multiprocessor
whose *computational elements* (CEs) cooperate on parallel loops through a
dedicated *concurrency control bus* providing hardware iteration
self-scheduling, advance/await synchronization registers, and a hardware
barrier at concurrent-loop exit.  This package models those components with
cycle-level cost tables on top of :mod:`repro.sim`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".costs": ("CostTables", "MachineConfig"),
    ".bus": ("ConcurrencyBus", "SyncRegister", "IterationDispatcher", "LockUnit"),
    ".machine": ("Machine", "ComputationalElement"),
})
