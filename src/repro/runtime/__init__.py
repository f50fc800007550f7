"""Scale-out experiment runtime.

The paper's evaluation is a *sweep*: every table and figure re-simulates
Livermore loops under several instrumentation plans, machine widths, and
seeds.  This package turns those simulations into declarative, picklable
work items and executes them through one scheduler:

* :class:`~repro.runtime.spec.RunSpec` — one simulation tuple
  (program, instrumentation plan, machine, perturbation, seed), cheap to
  ship to a worker process and stable to hash;
* :func:`~repro.runtime.runner.simulate` /
  :func:`~repro.runtime.runner.simulate_many` — execute specs serially
  (the default: results are byte-identical to the historical inline
  ``Executor`` calls) or fanned out over a ``ProcessPoolExecutor`` when
  ``jobs > 1`` (``--jobs N`` / ``REPRO_JOBS``), with ordered result
  collection;
* :class:`~repro.runtime.cache.ArtifactCache` — a content-addressed
  on-disk cache keyed by a stable hash of the full simulation input
  (program IR, plan, machine config, perturbation, seed, code version),
  so identical tuples are never simulated twice across experiments or
  invocations.  Reads are corruption-tolerant: a damaged artifact is a
  cache miss, never an error.

Simulation is deterministic given a spec, so scheduling (serial,
parallel, or cache replay) never changes a result — only how fast it
arrives.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ("ArtifactCache", "CacheStats", "default_cache_dir"),
    ".runner": (
        "RuntimeContext",
        "clear_memory_cache",
        "configure",
        "execute_spec",
        "get_context",
        "simulate",
        "simulate_many",
    ),
    ".spec": ("ProgramSpec", "RunSpec", "spec_key"),
})
