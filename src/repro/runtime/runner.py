"""Sweep scheduler: execute :class:`RunSpec`\\ s serially or fanned out.

Three layers, each optional and each semantics-preserving:

1. an in-process memo (specs are frozen/hashable) so one ``all``
   invocation never simulates the same tuple twice across experiments;
2. the on-disk :class:`~repro.runtime.cache.ArtifactCache`, keyed by
   :func:`~repro.runtime.spec.spec_key`, surviving across invocations;
3. a ``ProcessPoolExecutor`` fan-out for cache misses when ``jobs > 1``.

Simulation is a pure function of the spec — the executor builds a fresh
machine seeded only from spec fields — so results are identical whichever
layer produces them, and ``executor.map`` keeps collection ordered.  The
default is serial, no disk cache: byte-identical behaviour to the
historical inline ``Executor`` calls.

Configuration: :func:`configure` (used by the CLI for ``--jobs`` /
``--no-cache``) or the ``REPRO_JOBS`` / ``REPRO_CACHE`` /
``REPRO_CACHE_DIR`` environment variables.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from repro.exec.executor import Executor
from repro.exec.result import ExecutionResult
from repro.logutil import get_logger
from repro.obs import core as obs
from repro.runtime.cache import ArtifactCache
from repro.runtime.spec import RunSpec, spec_key

log = get_logger("runtime.runner")


@dataclass
class RuntimeContext:
    """How specs get executed: worker count and cache attachment.

    ``jobs=1`` is strictly serial.  ``cache=None`` disables the on-disk
    layer (the in-process memo is always active — it cannot change
    results, only skip identical work).
    """

    jobs: int = 1
    cache: Optional[ArtifactCache] = None


def _env_context() -> RuntimeContext:
    jobs = 1
    raw = os.environ.get("REPRO_JOBS", "")
    if raw.strip():
        try:
            jobs = max(1, int(raw))
        except ValueError:
            jobs = 1
    cache: Optional[ArtifactCache] = None
    if os.environ.get("REPRO_CACHE", "").strip().lower() in {"1", "on", "true", "yes"}:
        cache = ArtifactCache()
    return RuntimeContext(jobs=jobs, cache=cache)


_context: Optional[RuntimeContext] = None

#: In-process memo: RunSpec -> ExecutionResult.  Results are treated as
#: immutable by every consumer (analyses re-time *copies* of traces).
_memory: dict[RunSpec, ExecutionResult] = {}


def get_context() -> RuntimeContext:
    """The active runtime context (configured, else from the environment)."""
    global _context
    if _context is None:
        _context = _env_context()
    return _context


def configure(
    jobs: Optional[int] = None,
    cache: Union[ArtifactCache, None, bool] = False,
) -> RuntimeContext:
    """Install a runtime context and return it.

    ``jobs=None`` keeps the current/env value.  ``cache`` accepts an
    :class:`ArtifactCache`, ``None`` (disable disk cache), ``True``
    (enable at the default location), or ``False`` (keep current).
    """
    global _context
    ctx = get_context()
    if jobs is not None:
        ctx.jobs = max(1, int(jobs))
    if cache is True:
        ctx.cache = ArtifactCache()
    elif cache is not False:
        ctx.cache = cache
    _context = ctx
    return ctx


def clear_memory_cache() -> None:
    """Drop the in-process memo (tests; long-lived sessions)."""
    _memory.clear()


def execute_spec(spec: RunSpec) -> ExecutionResult:
    """Simulate one spec, no caching.  The process-pool worker entrypoint.

    Pure: builds the program and a fresh seeded machine from spec fields
    only, so any process computes the identical result.
    """
    with obs.span(
        "runtime.execute_spec",
        kernel=spec.program.kernel,
        mode=spec.program.mode,
        seed=spec.seed,
    ):
        program = spec.program.build()
        ex = Executor(
            machine_config=spec.machine,
            inst_costs=spec.costs,
            perturb=spec.perturb,
            seed=spec.seed,
        )
        return ex.run(
            program, spec.plan, max_cycles=spec.max_cycles, max_events=spec.max_events
        )


def _load_cached(spec: RunSpec, cache: Optional[ArtifactCache]):
    """(result | None, disk key | None) for a spec, checking memo then disk."""
    if spec in _memory:
        obs.count("runtime.memo.hit")
        return _memory[spec], None
    if cache is None:
        return None, None
    key = spec_key(spec)
    result = cache.load(key)
    if result is not None:
        _memory[spec] = result
    return result, key


def simulate(
    spec: RunSpec, *, context: Optional[RuntimeContext] = None
) -> ExecutionResult:
    """Execute one spec through the cache layers (always in-process)."""
    ctx = context if context is not None else get_context()
    with obs.span("runtime.simulate"):
        result, key = _load_cached(spec, ctx.cache)
        if result is None:
            result = execute_spec(spec)
            _memory[spec] = result
            if ctx.cache is not None:
                ctx.cache.store(key if key is not None else spec_key(spec), result)
    return result


def simulate_many(
    specs: Sequence[RunSpec],
    *,
    context: Optional[RuntimeContext] = None,
    jobs: Optional[int] = None,
) -> list[ExecutionResult]:
    """Execute specs, in order, fanning cache misses out over processes.

    Returns one result per spec, aligned with the input.  Duplicates are
    allowed: each distinct spec is looked up, and on a miss simulated,
    exactly once.  With ``jobs == 1`` (the default context) everything
    runs in this process, byte-identical to calling :func:`simulate` in a
    loop.
    """
    ctx = context if context is not None else get_context()
    n_jobs = ctx.jobs if jobs is None else max(1, int(jobs))

    with obs.span("runtime.simulate_many", n_specs=len(specs), jobs=n_jobs):
        results: dict[RunSpec, ExecutionResult] = {}
        keys: dict[RunSpec, Optional[str]] = {}
        misses: list[RunSpec] = []
        with obs.span("runtime.simulate_many.probe_cache"):
            for spec in specs:
                if spec in keys:  # a repeat: its first occurrence decides
                    continue
                cached, key = _load_cached(spec, ctx.cache)
                keys[spec] = key
                if cached is not None:
                    results[spec] = cached
                else:
                    misses.append(spec)

        if misses:
            if n_jobs > 1 and len(misses) > 1:
                workers = min(n_jobs, len(misses))
                log.debug(
                    "fanning %d cache miss(es) out over %d worker process(es)",
                    len(misses), workers,
                )
                obs.count("runtime.pool.sweeps")
                obs.count("runtime.pool.tasks", len(misses))
                obs.gauge("runtime.pool.workers", workers)
                obs.gauge(
                    "runtime.pool.tasks_per_worker", len(misses) / workers
                )
                with obs.span(
                    "runtime.simulate_many.fanout",
                    misses=len(misses),
                    workers=workers,
                ):
                    with ProcessPoolExecutor(max_workers=workers) as pool:
                        fresh = list(pool.map(execute_spec, misses))
            else:
                log.debug("executing %d cache miss(es) serially", len(misses))
                fresh = [execute_spec(s) for s in misses]
            for spec, result in zip(misses, fresh):
                results[spec] = result
                _memory[spec] = result
                if ctx.cache is not None:
                    key = keys.get(spec) or spec_key(spec)
                    ctx.cache.store(key, result)

    return [results[spec] for spec in specs]
