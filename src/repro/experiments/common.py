"""Shared experiment pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

from repro.analysis import (
    Approximation,
    event_based_approximation,
    liberal_approximation,
    time_based_approximation,
)
from repro.exec.perturbation import PerturbationConfig
from repro.exec.result import ExecutionResult
from repro.instrument import (
    AnalysisConstants,
    InstrumentationCosts,
    calibrate_analysis_constants,
)
from repro.instrument.plan import (
    PLAN_FULL,
    PLAN_NONE,
    PLAN_STATEMENTS,
    InstrumentationPlan,
)
from repro.livermore import livermore_program, sequential_program
from repro.machine.costs import FX80, MachineConfig
from repro.runtime import ProgramSpec, RunSpec, simulate, simulate_many


@lru_cache(maxsize=None)
def calibrated_constants(
    machine: MachineConfig, costs: InstrumentationCosts
) -> AnalysisConstants:
    """Memoized :func:`calibrate_analysis_constants`.

    Calibration runs five micro-benchmarks on a simulated machine; every
    experiment needs the same constants for the same (machine, costs)
    pair, so compute them once per configuration.  Both argument types are
    frozen dataclasses, hence hashable.
    """
    return calibrate_analysis_constants(machine, costs)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    ``trips`` overrides the per-kernel standard loop length (None keeps
    McMahon's lengths); ``perturb`` sets the ancillary perturbation the
    analysis does not know about (non-zero by default, as on real
    hardware); ``seed`` feeds the machine noise streams.
    """

    machine: MachineConfig = FX80
    costs: InstrumentationCosts = field(default_factory=InstrumentationCosts)
    perturb: PerturbationConfig = field(
        default_factory=lambda: PerturbationConfig(dilation=0.04, jitter=0.05)
    )
    trips: Optional[int] = None
    seed: int = 1991

    def constants(self) -> AnalysisConstants:
        """Calibrated platform constants for the analysis (in vitro)."""
        return calibrated_constants(self.machine, self.costs)

    def quick(self, trips: int = 200) -> "ExperimentConfig":
        return replace(self, trips=trips)

    def spec(
        self,
        program: ProgramSpec,
        plan: InstrumentationPlan,
        seed_salt: int,
        machine: Optional[MachineConfig] = None,
    ) -> RunSpec:
        """A :class:`RunSpec` for one run under this configuration.

        ``seed_salt`` is the per-study offset historically passed to
        :class:`Executor` (``seed=config.seed + salt``); keeping the same
        derivation keeps every result byte-identical to the pre-runner
        inline calls.
        """
        return RunSpec(
            program=program,
            plan=plan,
            machine=machine if machine is not None else self.machine,
            costs=self.costs,
            perturb=self.perturb,
            seed=self.seed + seed_salt,
        )


DEFAULT_CONFIG = ExperimentConfig()
#: Reduced loop lengths for fast test/bench runs; ratios are insensitive
#: to trip count once startup is amortized.
QUICK_CONFIG = DEFAULT_CONFIG.quick()


@dataclass
class LoopStudy:
    """The full measurement + analysis bundle for one DOACROSS loop."""

    loop: int
    actual: ExecutionResult
    measured_statements: ExecutionResult
    measured_full: ExecutionResult
    time_based: Approximation
    event_based: Approximation
    liberal: Approximation
    constants: AnalysisConstants

    # -- the paper's ratios ------------------------------------------------
    @property
    def actual_time(self) -> int:
        return self.actual.total_time

    def measured_ratio(self, full: bool) -> float:
        m = self.measured_full if full else self.measured_statements
        return m.total_time / self.actual_time

    @property
    def time_based_ratio(self) -> float:
        return self.time_based.total_time / self.actual_time

    @property
    def event_based_ratio(self) -> float:
        return self.event_based.total_time / self.actual_time

    @property
    def liberal_ratio(self) -> float:
        return self.liberal.total_time / self.actual_time


def loop_study_specs(
    loop: int, config: ExperimentConfig = DEFAULT_CONFIG
) -> list[RunSpec]:
    """The three simulation tuples behind one DOACROSS loop study."""
    program = ProgramSpec(loop, "doacross", config.trips)
    return [
        config.spec(program, plan, seed_salt=loop)
        for plan in (PLAN_NONE, PLAN_STATEMENTS, PLAN_FULL)
    ]


def run_loop_study(loop: int, config: ExperimentConfig = DEFAULT_CONFIG) -> LoopStudy:
    """Run the Tables 1/2 pipeline for one of the DOACROSS loops (3/4/17)."""
    actual, measured_stmt, measured_full = simulate_many(
        loop_study_specs(loop, config)
    )
    constants = config.constants()
    tb = time_based_approximation(measured_stmt.trace, constants)
    eb = event_based_approximation(measured_full.trace, constants)
    lib = liberal_approximation(eb, constants)
    return LoopStudy(
        loop=loop,
        actual=actual,
        measured_statements=measured_stmt,
        measured_full=measured_full,
        time_based=tb,
        event_based=eb,
        liberal=lib,
        constants=constants,
    )


def run_loop_studies(
    loops: tuple[int, ...], config: ExperimentConfig = DEFAULT_CONFIG
) -> dict[int, LoopStudy]:
    """Loop studies for several loops, simulations batched for fan-out."""
    simulate_many([s for k in loops for s in loop_study_specs(k, config)])
    return {k: run_loop_study(k, config) for k in loops}


@dataclass
class SequentialStudy:
    """Measurement + time-based analysis for a sequentially-executed loop."""

    loop: int
    actual: ExecutionResult
    measured: ExecutionResult
    time_based: Approximation
    constants: AnalysisConstants

    @property
    def measured_ratio(self) -> float:
        return self.measured.total_time / self.actual.total_time

    @property
    def model_ratio(self) -> float:
        return self.time_based.total_time / self.actual.total_time


def sequential_study_specs(
    loop: int, config: ExperimentConfig = DEFAULT_CONFIG
) -> list[RunSpec]:
    """The two simulation tuples behind one sequential-loop study."""
    program = ProgramSpec(loop, "sequential", config.trips)
    return [
        config.spec(program, plan, seed_salt=100 + loop)
        for plan in (PLAN_NONE, PLAN_STATEMENTS)
    ]


def run_sequential_study(
    loop: int, config: ExperimentConfig = DEFAULT_CONFIG
) -> SequentialStudy:
    """Run the Figure 1 pipeline for one sequentially-executed loop."""
    actual, measured = simulate_many(sequential_study_specs(loop, config))
    constants = config.constants()
    tb = time_based_approximation(measured.trace, constants)
    return SequentialStudy(
        loop=loop, actual=actual, measured=measured, time_based=tb, constants=constants
    )
