"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import (
    AllOf,
    Engine,
    Interrupt,
    Process,
    ProcessCrashed,
    Signal,
    SimulationDeadlock,
    SimulationError,
    SimulationTimeout,
    Timeout,
)


def test_timeout_advances_clock():
    eng = Engine()

    def proc():
        yield Timeout(5)
        yield Timeout(7)
        return eng.now

    p = eng.process(proc())
    assert eng.run() == 12
    assert p.result == 12


def test_zero_timeout_runs_same_cycle():
    eng = Engine()

    def proc():
        yield Timeout(0)
        return eng.now

    p = eng.process(proc())
    eng.run()
    assert p.result == 0


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Timeout(-1)


def test_timeout_value_passed_back():
    eng = Engine()
    got = []

    def proc():
        v = yield Timeout(3, value="payload")
        got.append(v)

    eng.process(proc())
    eng.run()
    assert got == ["payload"]


def test_process_return_value():
    eng = Engine()

    def proc():
        yield Timeout(1)
        return 99

    p = eng.process(proc())
    eng.run()
    assert p.done and p.result == 99


def test_result_before_done_raises():
    eng = Engine()

    def proc():
        yield Timeout(1)

    p = eng.process(proc())
    with pytest.raises(SimulationError):
        _ = p.result


def test_waiting_on_process_gets_return_value():
    eng = Engine()

    def child():
        yield Timeout(10)
        return "child-done"

    def parent():
        result = yield eng.process(child())
        return (eng.now, result)

    p = eng.process(parent())
    eng.run()
    assert p.result == (10, "child-done")


def test_waiting_on_already_finished_process():
    eng = Engine()

    def child():
        yield Timeout(1)
        return 5

    c = eng.process(child())

    def parent():
        yield Timeout(20)
        v = yield c
        return (eng.now, v)

    p = eng.process(parent())
    eng.run()
    assert p.result == (20, 5)


def test_signal_wakes_all_waiters_in_order():
    eng = Engine()
    sig = Signal("s")
    order = []

    def waiter(name):
        v = yield sig
        order.append((name, eng.now, v))

    def trigger():
        yield Timeout(50)
        sig.trigger(eng, "go")

    eng.process(waiter("a"))
    eng.process(waiter("b"))
    eng.process(trigger())
    eng.run()
    assert order == [("a", 50, "go"), ("b", 50, "go")]


def test_signal_already_triggered_resumes_immediately():
    eng = Engine()
    sig = Signal()
    sig.trigger(eng, 123)

    def proc():
        v = yield sig
        return (eng.now, v)

    p = eng.process(proc())
    eng.run()
    assert p.result == (0, 123)


def test_signal_double_trigger_raises():
    eng = Engine()
    sig = Signal("x")
    sig.trigger(eng)
    with pytest.raises(SimulationError):
        sig.trigger(eng)


def test_signal_value_property():
    eng = Engine()
    sig = Signal("v")
    with pytest.raises(SimulationError):
        _ = sig.value
    sig.trigger(eng, 7)
    assert sig.value == 7 and sig.triggered


def test_allof_waits_for_every_child():
    eng = Engine()

    def child(d):
        yield Timeout(d)
        return d

    def parent():
        results = yield AllOf([eng.process(child(5)), eng.process(child(12)), eng.process(child(3))])
        return (eng.now, results)

    p = eng.process(parent())
    eng.run()
    assert p.result == (12, [5, 12, 3])


def test_allof_empty_completes_immediately():
    eng = Engine()

    def parent():
        res = yield AllOf([])
        return (eng.now, res)

    p = eng.process(parent())
    eng.run()
    assert p.result == (0, [])


def test_crash_propagates_from_run():
    eng = Engine()

    def bad():
        yield Timeout(1)
        raise ValueError("boom")

    eng.process(bad(), name="bad")
    with pytest.raises(ProcessCrashed) as exc:
        eng.run()
    assert isinstance(exc.value.original, ValueError)
    assert "bad" in str(exc.value)


def test_crashed_process_result_raises():
    eng = Engine()

    def bad():
        yield Timeout(1)
        raise RuntimeError("x")

    p = eng.process(bad())
    with pytest.raises(ProcessCrashed):
        eng.run()
    assert p.done
    with pytest.raises(ProcessCrashed):
        _ = p.result


def test_yielding_non_effect_crashes():
    eng = Engine()

    def bad():
        yield 42

    eng.process(bad())
    with pytest.raises(ProcessCrashed):
        eng.run()


def test_deadlock_detected():
    eng = Engine()
    sig = Signal("never")

    def stuck():
        yield sig

    eng.process(stuck(), name="stuck-proc")
    with pytest.raises(SimulationDeadlock) as exc:
        eng.run()
    # The dump names every blocked process and the signal it waits on.
    assert "stuck-proc" in str(exc.value)
    assert "signal 'never'" in str(exc.value)
    blocked = exc.value.blocked
    assert len(blocked) == 1
    proc, effect = blocked[0]
    assert proc.name == "stuck-proc" and effect is sig


def test_deadlock_dump_lists_all_blocked_processes():
    eng = Engine()
    a, b = Signal("sig-a"), Signal("sig-b")

    def waiter(sig):
        yield sig

    eng.process(waiter(a), name="first")
    eng.process(waiter(b), name="second")
    with pytest.raises(SimulationDeadlock) as exc:
        eng.run()
    msg = str(exc.value)
    assert "first" in msg and "sig-a" in msg
    assert "second" in msg and "sig-b" in msg


def test_deadlock_dump_names_awaited_process():
    eng = Engine()
    sig = Signal("never")

    def child():
        yield sig

    def parent():
        yield eng.process(child(), name="blocked-child")

    eng.process(parent(), name="the-parent")
    with pytest.raises(SimulationDeadlock) as exc:
        eng.run()
    assert "process 'blocked-child'" in str(exc.value)


def test_max_cycles_timeout_on_livelock():
    eng = Engine()

    def spinner():
        while True:
            yield Timeout(10)

    eng.process(spinner(), name="spinner")
    with pytest.raises(SimulationTimeout) as exc:
        eng.run(max_cycles=1000)
    assert "max_cycles=1000" in str(exc.value)
    assert "spinner" in str(exc.value)  # names at least one blocked process
    assert eng.now <= 1000


def test_max_events_timeout_on_zero_delay_livelock():
    eng = Engine()

    def zero_spinner():
        while True:
            yield Timeout(0)  # livelock that never advances the clock

    eng.process(zero_spinner(), name="zero-spinner")
    with pytest.raises(SimulationTimeout) as exc:
        eng.run(max_events=500)
    assert "max_events=500" in str(exc.value)
    assert "zero-spinner" in str(exc.value)
    assert eng.now == 0


def test_budgets_do_not_fire_on_completing_workload():
    eng = Engine()

    def proc():
        yield Timeout(5)
        return eng.now

    p = eng.process(proc())
    assert eng.run(max_cycles=100, max_events=100) == 5
    assert p.result == 5


def test_blocked_processes_empty_after_clean_run():
    eng = Engine()

    def proc():
        yield Timeout(1)

    eng.process(proc())
    eng.run()
    assert eng.blocked_processes() == []


def test_run_until_stops_at_time():
    eng = Engine()

    def proc():
        yield Timeout(100)

    eng.process(proc())
    assert eng.run(until=30) == 30
    assert eng.now == 30
    # Continue to completion.
    assert eng.run() == 100


def test_interrupt_terminates_process():
    eng = Engine()

    def sleeper():
        yield Timeout(1000)
        return "never"

    p = eng.process(sleeper())

    def killer():
        yield Timeout(5)
        p.interrupt("stop")

    eng.process(killer())
    eng.run()
    assert p.done and p.result is None


def test_interrupt_catchable_inside_process():
    eng = Engine()
    caught = []

    def sleeper():
        try:
            yield Timeout(1000)
        except Interrupt as i:
            caught.append(i.cause)
            yield Timeout(3)
        return eng.now

    p = eng.process(sleeper())

    def killer():
        yield Timeout(5)
        p.interrupt("why")

    eng.process(killer())
    eng.run()
    assert caught == ["why"]
    assert p.result == 8


def test_interrupt_after_done_is_noop():
    eng = Engine()

    def quick():
        yield Timeout(1)
        return 1

    p = eng.process(quick())
    eng.run()
    p.interrupt()
    eng.run()
    assert p.result == 1


def test_ties_broken_in_schedule_order():
    eng = Engine()
    order = []

    def proc(name):
        yield Timeout(10)
        order.append(name)

    for name in ("first", "second", "third"):
        eng.process(proc(name))
    eng.run()
    assert order == ["first", "second", "third"]


def test_schedule_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.schedule(-1, lambda v: None)


def test_step_without_events_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.step()


def test_determinism_two_runs_identical():
    def build():
        eng = Engine()
        trace = []

        def worker(wid, delay):
            for i in range(5):
                yield Timeout(delay)
                trace.append((eng.now, wid, i))

        for w in range(4):
            eng.process(worker(w, 3 + w))
        eng.run()
        return trace

    assert build() == build()


def test_nested_yield_from_composition():
    eng = Engine()

    def inner():
        yield Timeout(4)
        return "inner"

    def outer():
        v = yield from inner()
        yield Timeout(6)
        return (v, eng.now)

    p = eng.process(outer())
    eng.run()
    assert p.result == ("inner", 10)


def test_process_named_from_generator():
    eng = Engine()

    def my_proc():
        yield Timeout(1)

    p = eng.process(my_proc())
    assert p.name == "my_proc"
    eng.run()


# -- run-ahead ---------------------------------------------------------------
# A Timeout that wakes strictly before the heap head resumes without a
# heap round trip.  These cases pin that the shortcut is invisible: the
# watchdogs, ``until`` and tie order see exactly the heap-only sequence.


def _staggered(eng, log):
    """A ticks every cycle to t=10; B wakes at 5 and 105.

    Heap-only occurrence order, worked by hand (B's t=5 wake was queued
    before A's, so it wins the tie at t=5):
    A@0 B@0 A@1 A@2 A@3 A@4 B@5 A@5 A@6 A@7 A@8 A@9 A@10 B@105.
    A@1..A@4 and A@6..A@10 are run-ahead steps.
    """

    def ticker():
        for _ in range(10):
            log.append(("A", eng.now))
            yield Timeout(1)
        log.append(("A", eng.now))

    def sleeper():
        log.append(("B", eng.now))
        yield Timeout(5)
        log.append(("B", eng.now))
        yield Timeout(100)
        log.append(("B", eng.now))

    eng.process(ticker(), name="A")
    eng.process(sleeper(), name="B")


HEAP_ONLY_ORDER = [
    ("A", 0), ("B", 0), ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 5),
    ("A", 5), ("A", 6), ("A", 7), ("A", 8), ("A", 9), ("A", 10), ("B", 105),
]


def test_run_ahead_keeps_heap_only_order():
    eng, log = Engine(), []
    _staggered(eng, log)
    assert eng.run() == 105
    assert log == HEAP_ONLY_ORDER


@pytest.mark.parametrize(
    "budget, now", [(1, 0), (2, 0), (3, 1), (5, 3), (6, 4), (7, 5), (10, 7), (13, 10)]
)
def test_max_events_counts_run_ahead_steps(budget, now):
    eng, log = Engine(), []
    _staggered(eng, log)
    with pytest.raises(SimulationTimeout) as exc:
        eng.run(max_events=budget)
    assert eng.now == now
    assert f"max_events={budget} at t={now};" in str(exc.value)
    assert log == HEAP_ONLY_ORDER[:budget]


def test_max_events_equal_to_total_completes():
    eng, log = Engine(), []
    _staggered(eng, log)
    assert eng.run(max_events=len(HEAP_ONLY_ORDER)) == 105


def test_run_until_stops_run_ahead_at_the_horizon():
    eng, log = Engine(), []

    def stride():
        while eng.now < 30:
            log.append(eng.now)
            yield Timeout(3)

    eng.process(stride(), name="stride")
    assert eng.run(until=7) == 7
    assert eng.now == 7
    assert log == [0, 3, 6]  # nothing resumed past t=7
    assert eng.run(until=9) == 9
    assert log == [0, 3, 6, 9]  # t == until still runs
    eng.run()
    assert log == list(range(0, 30, 3))


def test_max_cycles_never_overshot_by_run_ahead():
    eng, log = Engine(), []

    def spinner():
        while True:
            log.append(eng.now)
            yield Timeout(7)

    eng.process(spinner(), name="spinner")
    with pytest.raises(SimulationTimeout) as exc:
        # The event budget only keeps a broken horizon from spinning forever.
        eng.run(max_cycles=50, max_events=1000)
    assert log == list(range(0, 50, 7))  # last resume at t=49
    assert eng.now == 49
    assert "next occurrence at t=56" in str(exc.value)
    assert "waiting on Timeout(7)" in str(exc.value)


def test_zero_timeout_tie_resumes_in_insertion_order():
    eng, order = Engine(), []

    def first():
        order.append("first@start")
        eng.schedule(0, lambda _: order.append("callback"))
        yield Timeout(0)  # ties with the callback queued just before
        order.append("first@resume")

    def second():
        order.append("second@start")
        yield Timeout(0)
        order.append("second@resume")

    eng.process(first())
    eng.process(second())
    eng.run()
    assert order == [
        "first@start", "second@start", "callback", "first@resume",
        "second@resume",
    ]


def test_step_outside_run_executes_one_occurrence():
    eng, log = Engine(), []

    def ticker():
        while True:
            log.append(eng.now)
            yield Timeout(1)

    eng.process(ticker())
    eng.step()
    eng.step()
    assert log == [0, 1]
    assert eng.now == 1
    # A finished run closes the run-ahead window again.
    assert eng.run(until=3) == 3
    eng.step()
    assert log == [0, 1, 2, 3, 4]
    assert eng.now == 4
