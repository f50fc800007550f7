"""Shared fixtures: toy programs, executors, calibrated constants."""

from __future__ import annotations

import json
import struct

import pytest

from repro.exec import Executor, PerturbationConfig
from repro.instrument import InstrumentationCosts, calibrate_analysis_constants
from repro.instrument.plan import PLAN_FULL, PLAN_NONE, PLAN_STATEMENTS
from repro.ir import ProgramBuilder, loop_body
from repro.machine.costs import FX80, MachineConfig


@pytest.fixture(scope="session")
def fx80() -> MachineConfig:
    return FX80


@pytest.fixture(scope="session")
def inst_costs() -> InstrumentationCosts:
    return InstrumentationCosts()


@pytest.fixture(scope="session")
def constants(fx80, inst_costs):
    return calibrate_analysis_constants(fx80, inst_costs)


def write_v2_trace(trace, path) -> None:
    """Emit ``trace`` in the legacy flat v2 ``.rpt`` layout (read-only in
    the library, so tests build it by hand): magic, ``<Q`` header length,
    JSON header, then each column's raw little-endian int64 values."""
    from repro.trace.columnar import COLUMN_NAMES

    cols = trace.columns
    header = json.dumps({
        "format": "repro-trace", "version": 2, "meta": trace.meta,
        "n_events": len(cols), "columns": list(COLUMN_NAMES),
        "sync_var_table": list(cols.sync_var_table),
        "label_table": list(cols.label_table),
    }).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"RPTRACE2" + struct.pack("<Q", len(header)) + header)
        for name in COLUMN_NAMES:
            fh.write(getattr(cols, name).astype("<i8").tobytes())


def build_toy_doacross(trips: int = 120, outside: int = 14, cs: int = 4):
    """Loop-3-shaped toy: a reduction with a tiny critical section."""
    return (
        ProgramBuilder("toy-doacross")
        .compute("setup", cost=40, memory_refs=2)
        .doacross(
            "T",
            trips=trips,
            body=loop_body()
            .compute("control", cost=6)
            .compute("multiply", cost=outside, memory_refs=2)
            .await_("TQ", distance=1)
            .compute("accumulate", cost=cs, memory_refs=1, compound=True)
            .advance("TQ"),
        )
        .compute("wrapup", cost=20, memory_refs=1)
        .build()
    )


def build_toy_bigcs(trips: int = 80):
    """Loop-17-shaped toy: large critical section of probed statements.

    Calibrated so the uninstrumented run is mostly parallel (outside work
    exceeds 7x the serialized window) while statement probes inside the
    critical section re-serialize the measured run.
    """
    body = loop_body().compute("control", cost=6)
    for i in range(4):
        body.compute(f"outside{i}", cost=80, memory_refs=2)
    body.await_("BC", distance=1)
    for i in range(3):
        body.compute(f"inside{i}", cost=6, memory_refs=1)
    body.advance("BC")
    return (
        ProgramBuilder("toy-bigcs")
        .compute("setup", cost=40, memory_refs=2)
        .doacross("B", trips=trips, body=body)
        .compute("wrapup", cost=20, memory_refs=1)
        .build()
    )


def build_toy_sequential(trips: int = 100):
    return (
        ProgramBuilder("toy-seq")
        .compute("setup", cost=30, memory_refs=1)
        .sequential_loop(
            "S",
            trips,
            loop_body()
            .compute("control", cost=6)
            .compute("work", cost=18, memory_refs=3),
        )
        .compute("wrapup", cost=10)
        .build()
    )


def build_toy_doall(trips: int = 64):
    return (
        ProgramBuilder("toy-doall")
        .compute("setup", cost=30)
        .doall(
            "D",
            trips,
            loop_body().compute("control", cost=6).compute("work", cost=25, memory_refs=2),
        )
        .compute("wrapup", cost=10)
        .build()
    )


@pytest.fixture
def toy_doacross():
    return build_toy_doacross()


@pytest.fixture
def toy_bigcs():
    return build_toy_bigcs()


@pytest.fixture
def toy_sequential():
    return build_toy_sequential()


@pytest.fixture
def toy_doall():
    return build_toy_doall()


@pytest.fixture
def executor() -> Executor:
    """Noise-free executor: approximations should be exact."""
    return Executor(seed=42)


@pytest.fixture
def noisy_executor() -> Executor:
    return Executor(perturb=PerturbationConfig(dilation=0.04, jitter=0.05), seed=42)


@pytest.fixture
def plans():
    return {"none": PLAN_NONE, "stmt": PLAN_STATEMENTS, "full": PLAN_FULL}
