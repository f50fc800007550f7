"""Build-layer tests for the ``repro.native`` JIT subsystem.

Cache correctness (hit without recompile, corruption tolerance) for both
kernels that share :func:`repro.native.build.ensure_library` — the
resolve kernel and the v3 codec kernel — the environment knobs
(``REPRO_NATIVE``, ``REPRO_NATIVE_CACHE_DIR``), and the ctypes argument
checks.  Everything runs against an isolated cache directory; the
user-level cache is never touched.  Tests that need a working C compiler skip cleanly where none
exists (the ``REPRO_NATIVE=0`` CI leg).
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.native import build as nb
from repro.native.build import (
    CACHE_ENV,
    NATIVE_ENV,
    NativeUnavailable,
    build_key,
    cache_entries,
    clear_cache,
    ensure_kernel,
    find_compiler,
    kernel_source,
)
from repro.native.source import RESOLVE_ARGS, STATUS_OK
from repro.trace import _native_codec

HAVE_CC = find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on host")


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    """Point the build cache at a throwaway dir; reset the memo around it.

    Also clears an inherited ``REPRO_NATIVE=0`` setting: these tests
    exercise the subsystem on purpose, even on the CI leg that disables
    it for the rest of the suite.
    """
    cache = tmp_path / "native-cache"
    monkeypatch.setenv(CACHE_ENV, str(cache))
    monkeypatch.delenv(NATIVE_ENV, raising=False)
    native._reset_memo()
    yield cache
    native._reset_memo()


def _trivial_args() -> list:
    """Arguments for the resolve kernel on an empty (zero-thread) pack."""
    return [
        0 if kind == "scalar" else np.zeros(1, dtype=np.int64)
        for kind, _name in RESOLVE_ARGS
    ]


def _trivial_call(handle) -> int:
    """Invoke the kernel on an empty (zero-thread) pack: must return OK."""
    return handle(*_trivial_args())


def _codec_works(lib) -> bool:
    """Decode the one-byte varint 0x01 (zigzag -1) through the codec kernel."""
    out = np.zeros(1, dtype=np.int64)
    status = lib.fn(
        b"\x01", 1, 1, 0, out.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))
    )
    return status == _native_codec.STATUS_OK and out[0] == -1


#: Both kernels built by ``ensure_library``:
#: name -> (ensure function, cache subdirectory, smoke check).
KERNELS = {
    "resolve": (
        ensure_kernel, "", lambda h: _trivial_call(h) == STATUS_OK
    ),
    "codec": (_native_codec.ensure_codec, "codec", _codec_works),
}


@needs_cc
def test_cold_build_then_cache_hit_without_recompile(isolated_cache, monkeypatch):
    handle = ensure_kernel()
    assert handle.path.exists()
    assert _trivial_call(handle) == STATUS_OK
    [so] = cache_entries()
    first_mtime = so.stat().st_mtime_ns

    # Second load must reuse the artifact, not rebuild it — poisoning the
    # compiler proves no compile happens on the warm path.
    native._reset_memo()
    monkeypatch.setattr(
        nb, "compile_shared_lib",
        lambda *a, **k: pytest.fail("cache hit must not recompile"),
    )
    handle2 = ensure_kernel()
    assert handle2.key == handle.key
    assert so.stat().st_mtime_ns == first_mtime
    assert _trivial_call(handle2) == STATUS_OK


def _corrupt(so, payload: bytes) -> None:
    """Replace ``so`` with garbage on a *fresh inode*.

    In-place truncation of a library this process already dlopen'd would
    fault the live mapping (SIGBUS).  Unlink-then-write is what real cache
    corruption looks like to a cold loader: new bytes, fresh open.
    """
    so.unlink()
    so.write_bytes(payload)


def _ensure_in_fresh_process(cache, kernel: str = "resolve") -> str:
    """Build ``kernel`` in a new interpreter; return the build key.

    dlopen dedups by path within a process, so once a library has been
    loaded here, reloading the same path silently reuses the stale
    mapping — corrupt bytes on disk are only ever *seen* by a fresh
    process.  That cold-start is exactly the case load-as-miss covers.
    """
    import subprocess
    import sys as _sys

    env = dict(os.environ, REPRO_NATIVE_CACHE_DIR=str(cache))
    src_dir = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")])
    )
    ensure = KERNELS[kernel][0]
    proc = subprocess.run(
        [_sys.executable, "-c",
         f"from {ensure.__module__} import {ensure.__name__}; "
         f"print({ensure.__name__}().key)"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@needs_cc
def test_corrupt_artifact_is_a_miss_not_an_error(isolated_cache):
    for name, (ensure, subdir, _works) in KERNELS.items():
        built = ensure()
        [so] = cache_entries(isolated_cache / subdir)
        _corrupt(so, b"this is not a shared library")

        # A cold process must treat the garbage as a miss: evict, rebuild,
        # and come back with the same content-addressed key.
        assert _ensure_in_fresh_process(isolated_cache, name) == built.key
        assert so.read_bytes()[:4] == b"\x7fELF"


@needs_cc
def test_truncated_artifact_recovers(isolated_cache):
    for name, (ensure, subdir, _works) in KERNELS.items():
        built = ensure()
        [so] = cache_entries(isolated_cache / subdir)
        # Keep only the ELF header: dlopen rejects it cleanly as too short.
        _corrupt(so, so.read_bytes()[:64])
        assert _ensure_in_fresh_process(isolated_cache, name) == built.key
        assert so.stat().st_size > 64


@needs_cc
def test_resolve_kernel_loads_via_ctypes_and_checks_arrays(isolated_cache):
    handle = native.get_resolve_kernel()
    # A typed ctypes prototype generated from RESOLVE_ARGS.
    assert len(handle._fn.argtypes) == len(RESOLVE_ARGS)
    assert handle._fn.restype is ctypes.c_int64
    assert _trivial_call(handle) == STATUS_OK

    array_slot = next(
        i for i, (kind, _name) in enumerate(RESOLVE_ARGS) if kind != "scalar"
    )
    for bad in (
        np.zeros(4, dtype=np.int64)[::2],  # not C-contiguous
        np.zeros(1, dtype=np.int32),  # not int64
        [0],  # not an ndarray
    ):
        args = _trivial_args()
        args[array_slot] = bad
        with pytest.raises(TypeError, match="C-contiguous int64"):
            handle(*args)
    with pytest.raises(TypeError, match="arguments"):
        handle(*_trivial_args()[:-1])


def test_escape_hatch_disables(isolated_cache, monkeypatch):
    monkeypatch.setenv(NATIVE_ENV, "0")
    native._reset_memo()
    assert not native.native_available()
    assert "disabled" in (native.native_reason() or "")
    with pytest.raises(NativeUnavailable, match="disabled"):
        native.get_resolve_kernel()


def test_availability_tracks_env_changes(isolated_cache, monkeypatch):
    """The memo re-evaluates when the controlling env changes — no stale
    verdicts after flipping the escape hatch (no _reset_memo needed)."""
    monkeypatch.setenv(NATIVE_ENV, "0")
    assert not native.native_available()
    monkeypatch.delenv(NATIVE_ENV, raising=False)
    if HAVE_CC:
        assert native.native_available()
        assert native.native_reason() is None
    monkeypatch.setenv(NATIVE_ENV, "off")
    assert not native.native_available()


@needs_cc
def test_clear_cache_removes_builds(isolated_cache):
    ensure_kernel()
    assert len(cache_entries()) == 1
    assert native.clear_native_cache() == 1
    assert cache_entries() == []
    assert clear_cache() == 0  # idempotent


@needs_cc
def test_build_key_changes_with_source(isolated_cache):
    cmd = find_compiler()
    base = build_key(kernel_source(), cmd)
    assert build_key(kernel_source() + "\n/* x */\n", cmd) != base
    assert build_key(kernel_source(), cmd) == base  # deterministic


def test_status_snapshot_shapes(isolated_cache):
    status = native.native_status()
    assert status["cache_dir"] == str(isolated_cache)
    assert isinstance(status["source_sha256"], str)
    text = native.describe_status(status)
    assert "native backend:" in text
    if status["available"]:
        assert "build key:" in text
    else:
        assert status["reason"] in text


@needs_cc
def test_no_compiler_falls_back_to_cached_build(isolated_cache, monkeypatch):
    """With the compiler gone, a previously cached .so still loads."""
    built = {name: ensure() for name, (ensure, _s, _w) in KERNELS.items()}
    native._reset_memo()
    monkeypatch.setattr(nb, "find_compiler", lambda: None)
    for name, (ensure, _subdir, works) in KERNELS.items():
        cached = ensure()
        assert cached.key == built[name].key
        assert works(cached)


def test_no_compiler_no_cache_is_unavailable(isolated_cache, monkeypatch):
    monkeypatch.setattr(nb, "find_compiler", lambda: None)
    for ensure, _subdir, _works in KERNELS.values():
        with pytest.raises(NativeUnavailable, match="no C compiler"):
            ensure()
