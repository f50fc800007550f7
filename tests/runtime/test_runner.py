"""Sweep runner: memoization, cache layering, and parallel determinism."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.runtime import (
    ArtifactCache,
    RuntimeContext,
    clear_memory_cache,
    execute_spec,
    simulate,
    simulate_many,
)
from repro.runtime import runner
from repro.runtime.runner import _env_context

from tests.runtime.conftest import assert_results_equal, make_actual_spec, make_spec


def test_simulate_matches_direct_execution():
    spec = make_spec(trips=10)
    assert_results_equal(simulate(spec), execute_spec(spec))


def test_memo_returns_the_same_object():
    spec = make_spec(trips=10)
    first = simulate(spec)
    assert simulate(spec) is first
    clear_memory_cache()
    assert simulate(spec) is not first  # recomputed after clearing


def test_simulate_many_preserves_order_and_dedups():
    a, b = make_spec(trips=10), make_actual_spec(trips=10)
    results = simulate_many([a, b, a])
    assert results[0] is results[2]  # one simulation for duplicate specs
    assert_results_equal(results[0], execute_spec(a))
    assert_results_equal(results[1], execute_spec(b))


@pytest.mark.parametrize("jobs", [1, 2])
def test_simulate_many_simulates_each_distinct_miss_once(monkeypatch, jobs):
    a, b, c = (make_spec(trips=8, seed=1991 + i) for i in range(3))
    specs = [a, b, a, c, b, a]
    calls = []

    def counting(spec):
        calls.append(spec)
        return execute_spec(spec)

    monkeypatch.setattr(runner, "execute_spec", counting)
    # Fan out over threads: the pool path runs, and the counter sees it.
    monkeypatch.setattr(runner, "ProcessPoolExecutor", ThreadPoolExecutor)
    results = simulate_many(specs, jobs=jobs)
    assert sorted(calls, key=specs.index) == [a, b, c]
    assert len(results) == len(specs)
    for spec, result in zip(specs, results):
        assert result is results[specs.index(spec)]
        assert_results_equal(result, execute_spec(spec))


def test_parallel_results_identical_to_serial():
    specs = [make_spec(trips=10, seed=1991 + i) for i in range(4)]
    serial = simulate_many(specs, jobs=1)
    clear_memory_cache()
    parallel = simulate_many(specs, jobs=2)
    for s, p in zip(serial, parallel):
        assert_results_equal(s, p)


def test_disk_cache_round_trip_through_runner(tmp_path):
    ctx = RuntimeContext(jobs=1, cache=ArtifactCache(tmp_path / "cache"))
    spec = make_spec(trips=10)
    first = simulate(spec, context=ctx)
    assert ctx.cache.stores == 1
    clear_memory_cache()
    second = simulate(spec, context=ctx)  # must come from disk
    assert ctx.cache.hits == 1
    assert_results_equal(first, second)


def test_simulate_many_stores_and_hits_disk(tmp_path):
    ctx = RuntimeContext(jobs=1, cache=ArtifactCache(tmp_path / "cache"))
    specs = [make_spec(trips=10), make_actual_spec(trips=10)]
    cold = simulate_many(specs, context=ctx)
    assert ctx.cache.stores == 2
    clear_memory_cache()
    warm = simulate_many(specs, context=ctx)
    assert ctx.cache.hits == 2
    for c, w in zip(cold, warm):
        assert_results_equal(c, w)


def test_corrupt_cache_falls_back_to_simulation(tmp_path):
    ctx = RuntimeContext(jobs=1, cache=ArtifactCache(tmp_path / "cache"))
    spec = make_spec(trips=10)
    reference = simulate(spec, context=ctx)
    clear_memory_cache()
    for path in (tmp_path / "cache").glob("??/*"):
        path.write_bytes(b"garbage")
    recomputed = simulate(spec, context=ctx)
    assert ctx.cache.evictions >= 1
    assert_results_equal(reference, recomputed)


def test_env_context_parses_jobs_and_cache(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    ctx = _env_context()
    assert ctx.jobs == 1 and ctx.cache is None  # hermetic default

    monkeypatch.setenv("REPRO_JOBS", "4")
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    ctx = _env_context()
    assert ctx.jobs == 4
    assert ctx.cache is not None
    assert ctx.cache.root == tmp_path / "envcache"

    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert _env_context().jobs == 1
    monkeypatch.setenv("REPRO_JOBS", "-3")
    assert _env_context().jobs == 1  # clamped to serial


def test_explicit_jobs_overrides_env(monkeypatch):
    """CLI --jobs (configure) must beat REPRO_JOBS, not merge with it."""
    from repro.runtime import configure
    from repro.runtime import runner as runner_mod

    monkeypatch.setenv("REPRO_JOBS", "8")
    monkeypatch.setattr(runner_mod, "_context", None)  # drop cached context
    try:
        assert runner_mod.get_context().jobs == 8  # env honoured by default
        ctx = configure(jobs=2, cache=None)
        assert ctx.jobs == 2  # explicit wins
        # And a per-call jobs= overrides the context for that call only.
        specs = [make_spec(trips=8, seed=1991 + i) for i in range(2)]
        serial = simulate_many(specs, jobs=1)
        clear_memory_cache()
        assert ctx.jobs == 2
        again = simulate_many(specs, jobs=1)
        for s, p in zip(serial, again):
            assert_results_equal(s, p)
    finally:
        monkeypatch.setattr(runner_mod, "_context", None)


def test_no_cache_context_never_writes_artifacts(tmp_path, monkeypatch):
    """cache=None must not create the cache dir, even via env defaults."""
    from repro.runtime import configure
    from repro.runtime import runner as runner_mod

    cache_dir = tmp_path / "should-stay-absent"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setattr(runner_mod, "_context", None)
    try:
        configure(jobs=1, cache=None)  # the CLI's --no-cache path
        simulate_many([make_spec(trips=8), make_actual_spec(trips=8)])
        assert not cache_dir.exists()
    finally:
        monkeypatch.setattr(runner_mod, "_context", None)


def test_warm_cache_parallel_run_byte_identical_to_serial(tmp_path):
    import io

    from repro.trace.io import write_trace

    def trace_bytes(result):
        buf = io.BytesIO()
        write_trace(result.trace, buf)
        return buf.getvalue()

    specs = [make_spec(trips=8, seed=1991 + i) for i in range(3)]
    cold_ctx = RuntimeContext(jobs=1, cache=ArtifactCache(tmp_path / "c"))
    serial = simulate_many(specs, context=cold_ctx)
    assert cold_ctx.cache.stores == len(specs)

    clear_memory_cache()
    warm_ctx = RuntimeContext(jobs=2, cache=ArtifactCache(tmp_path / "c"))
    parallel = simulate_many(specs, context=warm_ctx)
    assert warm_ctx.cache.hits == len(specs)  # all from disk, no workers
    for s, p in zip(serial, parallel):
        assert_results_equal(s, p)
        assert trace_bytes(s) == trace_bytes(p)  # byte-level, not just eq
