"""Statement-level program intermediate representation.

The paper defines instrumentation over a program ``P = S1, S2, ..., Sn`` —
an event is the execution of a statement.  This IR models such programs at
exactly that granularity: straight-line blocks of costed statements, with
sequential loops, DOALL loops, and DOACROSS loops whose loop-carried
dependences are expressed as ``advance`` / ``await`` statements (the form the
Alliant FX Fortran compiler produced for the Livermore loops).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".statements": (
        "Statement",
        "Compute",
        "Advance",
        "Await",
        "LockAcquire",
        "LockRelease",
        "SemWait",
        "SemSignal",
        "CostFn",
    ),
    ".program": (
        "Block",
        "Loop",
        "SequentialLoop",
        "DoAllLoop",
        "DoAcrossLoop",
        "Program",
        "ProgramError",
        "Schedule",
    ),
    ".builder": ("ProgramBuilder", "loop_body"),
    ".dependence": ("Dependence", "loop_dependences", "max_distance"),
    ".validate": ("validate_program",),
})
