"""Scale test: the pipeline on a large trace stays fast and correct."""

from __future__ import annotations

import time

import pytest

from repro.analysis import event_based_approximation
from repro.exec import Executor
from repro.instrument.plan import PLAN_FULL, PLAN_NONE
from repro.livermore import doacross_program


def test_large_trace_pipeline(constants):
    """3000-iteration loop 3: ~15k-event trace; full pipeline in seconds."""
    prog = doacross_program(3, trips=3000)
    ex = Executor(seed=1)
    t0 = time.perf_counter()
    actual = ex.run(prog, PLAN_NONE)
    measured = ex.run(prog, PLAN_FULL)
    approx = event_based_approximation(measured.trace, constants)
    elapsed = time.perf_counter() - t0
    assert len(measured.trace) > 15_000
    assert approx.total_time == actual.total_time
    # Generous bound: the whole pipeline should be comfortably sub-30s
    # even on slow CI machines (typically < 2s).
    assert elapsed < 30.0


def test_analysis_scales_linearly(constants):
    """Event resolution is near-linear in trace size: 4x the events must
    not cost more than ~10x the time (allows constant overheads)."""
    import gc
    import time as _t

    def analysis_time(trips: int) -> tuple[int, float]:
        prog = doacross_program(3, trips=trips)
        measured = Executor(seed=1).run(prog, PLAN_FULL)
        # A full collection landing inside one timed call, but not the
        # other, can swamp a small call's time: collect first, then keep
        # the collector out of the timed window.
        gc.collect()
        gc.disable()
        try:
            t0 = _t.perf_counter()
            event_based_approximation(measured.trace, constants)
            elapsed = _t.perf_counter() - t0
        finally:
            gc.enable()
        return len(measured.trace), elapsed

    n_small, t_small = analysis_time(500)
    n_big, t_big = analysis_time(2000)
    assert n_big > 3.5 * n_small
    assert t_big < 10 * max(t_small, 1e-3)
