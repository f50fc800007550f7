"""Execution statistics derived from (approximated) traces.

Event-based analysis "can also generate statistics about loop execution
such as the amount of waiting on each processor and the degree of
parallelism across processors" (§5.3).  These functions compute exactly
those: per-CE waiting intervals and percentages (Table 3, Figure 4) and
the parallelism-over-time profile (Figure 5).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".intervals": ("Interval", "StepFunction", "merge_intervals", "subtract_intervals"),
    ".waiting": (
        "WaitingInterval",
        "waiting_intervals",
        "waiting_by_thread",
        "waiting_percentages",
        "WaitingReport",
    ),
    ".parallelism": (
        "activity_intervals",
        "parallelism_profile",
        "average_parallelism",
        "ParallelismProfile",
    ),
    ".segments": (
        "IterationSegment",
        "LoopSchedule",
        "loop_schedules",
        "schedule_diff",
        "render_schedule",
    ),
    ".phases": ("Phase", "PhaseReport", "phase_report"),
})
