"""Golden simulator digests: traces must stay byte-identical.

Every run in a fixed grid (DOACROSS loops 3/4/17, Livermore
sequential/vector/DOALL programs and ``repro.ir.fuzz`` programs, each
under four instrumentation plans, two seeds and two perturbation
settings) is reduced to one sha256 digest.  The digest covers the trace
columns, their resolved string tables, the trace metadata, the result's
``total_time``/``ce_stats``/``sync_stats``/``assignments``, and the first
and last 50 events materialized as objects.  The committed
``golden_traces.json`` pins those digests, so any change to the simulator
or the trace recording path that moves a single cycle, ``seq`` number,
string-table order or event field fails here.

Regenerate (only for a deliberate change of simulated behaviour)::

    PYTHONPATH=src python tests/sim/test_golden_traces.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.exec import Executor
from repro.exec.executor import PerturbationConfig
from repro.instrument.plan import (
    PLAN_FULL,
    PLAN_NONE,
    PLAN_STATEMENTS,
    PLAN_SYNC_ONLY,
)
from repro.ir.fuzz import random_program
from repro.ir.program import Schedule
from repro.livermore import doacross_program
from repro.livermore.programs import doall_program, sequential_program, vector_program
from repro.trace.columnar import COLUMN_NAMES

GOLDEN = Path(__file__).with_name("golden_traces.json")

PLANS = {
    "none": PLAN_NONE,
    "full": PLAN_FULL,
    "stmts": PLAN_STATEMENTS,
    "sync": PLAN_SYNC_ONLY,
}
SEEDS = (1, 7)
PERTURBS = {
    "quiet": PerturbationConfig(),
    "noisy": PerturbationConfig(dilation=0.04, jitter=0.05),
}
FUZZ_SEEDS = range(30)
HEAD_TAIL = 50


def _programs():
    progs = {
        "lfk3-doacross": doacross_program(3, trips=40),
        "lfk4-doacross": doacross_program(4, trips=40),
        "lfk17-doacross": doacross_program(17, trips=30),
        "lfk3-doacross-cyclic": doacross_program(
            3, trips=24, schedule=Schedule.STATIC_CYCLIC
        ),
        "lfk7-seq": sequential_program(7, trips=30),
        "lfk1-vector": vector_program(1, trips=64),
        "lfk21-doall": doall_program(21, trips=40),
        "lfk1-doall-block": doall_program(
            1, trips=30, schedule=Schedule.STATIC_BLOCK
        ),
    }
    for s in FUZZ_SEEDS:
        progs[f"fuzz{s}"] = random_program(s)
    return progs


def _grid():
    for pname, program in _programs().items():
        for plan_name, plan in PLANS.items():
            for seed in SEEDS:
                for noise_name, perturb in PERTURBS.items():
                    run_id = f"{pname}/{plan_name}/s{seed}/{noise_name}"
                    yield run_id, program, plan, seed, perturb


def _event_repr(e) -> str:
    # repr keeps field types visible: a numpy scalar or a str-vs-None
    # slip in materialization changes the digest.
    return repr((
        e.time, e.thread, e.kind.value, e.eid, e.seq, e.iteration,
        e.sync_var, e.sync_index, e.label, e.overhead,
    ))


def digest_run(program, plan, seed, perturb) -> list:
    """Run once; ``[n_events, total_time, sha256]`` of everything observable."""
    result = Executor(seed=seed, perturb=perturb).run(program, plan)
    trace = result.trace
    cols = trace.columns
    h = hashlib.sha256()
    for name in COLUMN_NAMES:
        h.update(name.encode())
        h.update(getattr(cols, name).astype("<i8").tobytes())
    h.update(json.dumps(list(cols.sync_var_table)).encode())
    h.update(json.dumps(list(cols.label_table)).encode())
    h.update(json.dumps(trace.meta, sort_keys=True).encode())
    h.update(repr(result.total_time).encode())
    h.update(repr(result.ce_stats).encode())
    h.update(repr(sorted(result.sync_stats.items())).encode())
    h.update(repr(sorted(
        (loop, sorted(a.items())) for loop, a in result.assignments.items()
    )).encode())
    events = trace.events
    for e in events[:HEAD_TAIL] + events[-HEAD_TAIL:]:
        h.update(_event_repr(e).encode())
    return [len(trace), result.total_time, h.hexdigest()]


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())["runs"]


def test_golden_grid_is_complete():
    ids = [run_id for run_id, *_ in _grid()]
    assert sorted(ids) == sorted(_golden())


@pytest.mark.parametrize("pname", list(_programs()))
def test_traces_match_golden_digests(pname):
    golden = _golden()
    mismatches = []
    for run_id, program, plan, seed, perturb in _grid():
        if not run_id.startswith(pname + "/"):
            continue
        got = digest_run(program, plan, seed, perturb)
        if got != golden[run_id]:
            mismatches.append(f"{run_id}: expected {golden[run_id]}, got {got}")
    assert not mismatches, "\n".join(mismatches)


def _write() -> None:
    runs = {
        run_id: digest_run(program, plan, seed, perturb)
        for run_id, program, plan, seed, perturb in _grid()
    }
    # One run per line keeps the committed file diffable.
    lines = ",\n".join(
        f"  {json.dumps(run_id)}: {json.dumps(runs[run_id])}"
        for run_id in sorted(runs)
    )
    GOLDEN.write_text('{"runs": {\n' + lines + "\n}}\n")
    print(f"wrote {len(runs)} digests to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write()
