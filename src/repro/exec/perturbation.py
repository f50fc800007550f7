"""Ancillary perturbation settings for instrumented runs.

Kept apart from :mod:`repro.exec.executor` so run specs, experiment
configurations and the CLI can name a perturbation without importing the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PerturbationConfig:
    """Ancillary (non-probe) perturbation applied to instrumented runs.

    Attributes
    ----------
    dilation:
        Fractional slowdown applied to memory-referencing statements when
        any instrumentation is active (probe buffer traffic polluting the
        cache).  Unknown to the analysis.
    jitter:
        Fractional, deterministic pseudo-random variation of statement
        costs (memory/bus contention noise), applied to *all* runs with
        per-run streams.  Makes the measured and actual interleavings
        genuinely different, like on real hardware.
    """

    dilation: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.dilation < 0 or self.jitter < 0:
            raise ValueError("perturbation fractions must be >= 0")
