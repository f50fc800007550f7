"""``repro.native`` — JIT-built C kernel for event-based resolution.

Public surface of the compiled sync-replay subsystem:

* :func:`get_resolve_kernel` — the loaded kernel handle (compiling and
  caching on first use); raises :class:`NativeUnavailable` when the
  backend cannot run here;
* :func:`native_available` / :func:`native_reason` — cheap availability
  probe for ``backend="auto"`` selection and audit/CI gating;
* :func:`native_status` — diagnostic snapshot for ``repro-ppopp91 native
  info``;
* :func:`clear_native_cache` — drop every cached build.

Availability is re-evaluated whenever the controlling environment changes
(``REPRO_NATIVE``, ``REPRO_CC``, ``REPRO_NATIVE_CACHE_DIR``), so tests and
operators can flip the escape hatch at runtime; the verdict is memoized
per environment (:func:`repro.native.build.memoized`).
"""

from __future__ import annotations

from typing import Optional

from repro.native.build import (
    NATIVE_ENV,
    KernelHandle,
    NativeBuildError,
    NativeUnavailable,
    cache_entries,
    clear_cache,
    ensure_kernel,
    find_compiler,
    memoized,
    native_cache_dir,
    native_enabled,
)
from repro.native.build import reset_memo as _reset_memo
from repro.native.source import (
    KERNEL_NAME,
    STATUS_DEADLOCK,
    STATUS_ERROR,
    STATUS_OK,
    kernel_source,
    source_digest,
)

__all__ = [
    "KERNEL_NAME",
    "KernelHandle",
    "NativeBuildError",
    "NativeUnavailable",
    "STATUS_DEADLOCK",
    "STATUS_ERROR",
    "STATUS_OK",
    "clear_native_cache",
    "get_resolve_kernel",
    "kernel_source",
    "native_available",
    "native_cache_dir",
    "native_enabled",
    "native_reason",
    "native_status",
    "source_digest",
]


def _build_resolve_kernel() -> KernelHandle:
    try:
        return ensure_kernel()
    except NativeUnavailable:
        from repro.obs import core as obs

        obs.count("native.unavailable")
        raise


def get_resolve_kernel() -> KernelHandle:
    """The compiled worklist kernel (built/cached/loaded on first use)."""
    return memoized("resolve", _build_resolve_kernel)


def native_available() -> bool:
    """True if ``backend="native"`` would work right now."""
    try:
        get_resolve_kernel()
        return True
    except NativeUnavailable:
        return False


def native_reason() -> Optional[str]:
    """Why the native backend is unavailable, or None if it is available."""
    try:
        get_resolve_kernel()
        return None
    except NativeUnavailable as exc:
        return str(exc)


def clear_native_cache() -> int:
    """Remove every cached kernel build; returns the count removed."""
    removed = clear_cache()
    _reset_memo()
    return removed


def native_status() -> dict:
    """Diagnostic snapshot (the ``repro-ppopp91 native info`` payload)."""
    root = native_cache_dir()
    entries = cache_entries(root)
    size = 0
    for so in entries:
        try:
            size += so.stat().st_size
        except OSError:
            pass
    compiler = find_compiler()
    status: dict = {
        "enabled": native_enabled(),
        "available": False,
        "reason": None,
        "key": None,
        "compiler": " ".join(compiler) if compiler else None,
        "cache_dir": str(root),
        "cached_builds": len(entries),
        "cache_bytes": size,
        "source_sha256": source_digest(),
    }
    try:
        handle = get_resolve_kernel()
        status["available"] = True
        status["key"] = handle.key
    except NativeUnavailable as exc:
        status["reason"] = str(exc)
    return status


def describe_status(status: Optional[dict] = None) -> str:
    """Human-readable ``native info`` text."""
    st = status if status is not None else native_status()
    lines = [
        f"native backend: {'available' if st['available'] else 'unavailable'}",
        f"enabled:        {st['enabled']} ({NATIVE_ENV}=0 disables)",
        f"compiler:       {st['compiler'] or 'none found'}",
        f"cache dir:      {st['cache_dir']}",
        f"cached builds:  {st['cached_builds']} ({st['cache_bytes'] / 1e3:.1f} kB)",
        f"source sha256:  {st['source_sha256'][:16]}…",
    ]
    if st["key"]:
        lines.append(f"build key:      {st['key'][:16]}…")
    if st["reason"]:
        lines.append(f"reason:         {st['reason']}")
    return "\n".join(lines)
