"""Build, cache, and load the JIT-compiled C kernels.

One pipeline serves every kernel (the sync-replay kernel of
:mod:`repro.native.source` and the v3 column decoder of
:mod:`repro.trace._native_codec`): generated C → compile it to a plain
shared library → load the exported symbol through ctypes.  Builds land in
a content-addressed on-disk cache keyed by the SHA-256 of the generated
source plus the compiler identity, mirroring
:class:`repro.runtime.cache.ArtifactCache`'s corruption-tolerant
semantics: a missing, truncated, or unloadable artifact is a *miss* (the
entry is swept and rebuilt), never an error.  When no compiler and no
cached build are available the kernel reports itself unavailable and its
caller falls back to the numpy implementation.

Environment knobs (all optional):

* ``REPRO_NATIVE=0`` — disable every native kernel;
* ``REPRO_CC`` — compiler command (default: ``$CC`` from the Python build,
  then ``cc``/``gcc``/``clang`` on ``PATH``);
* ``REPRO_NATIVE_CACHE_DIR`` — build-cache location (default:
  ``<artifact cache>/native``, i.e. ``$REPRO_CACHE_DIR`` aware).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from repro.logutil import get_logger
from repro.native.source import KERNEL_NAME, RESOLVE_ARGS, kernel_source
from repro.obs import core as obs

log = get_logger("native.build")

NATIVE_ENV = "REPRO_NATIVE"
CC_ENV = "REPRO_CC"
CACHE_ENV = "REPRO_NATIVE_CACHE_DIR"

#: Bumping this invalidates every cached build (key ingredient).
BUILD_SCHEMA = 1

_FALSY = ("0", "false", "no", "off")


class NativeUnavailable(RuntimeError):
    """The native backend cannot run here; callers should fall back."""


class NativeBuildError(NativeUnavailable):
    """Compilation was attempted and failed."""


def native_enabled() -> bool:
    """False when the ``REPRO_NATIVE=0`` escape hatch is set."""
    return os.environ.get(NATIVE_ENV, "1").strip().lower() not in _FALSY


def native_cache_dir() -> Path:
    """Build-cache location (``REPRO_NATIVE_CACHE_DIR`` override)."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    from repro.runtime.cache import default_cache_dir

    return default_cache_dir() / "native"


# ------------------------------------------------------------------ compiler
def find_compiler() -> Optional[list[str]]:
    """The C compiler command to use, or None if none is on this host."""
    env = os.environ.get(CC_ENV)
    if env:
        cmd = env.split()
        return cmd if cmd and shutil.which(cmd[0]) else None
    candidates = []
    cc_var = (sysconfig.get_config_var("CC") or "").split()
    if cc_var:
        candidates.append(cc_var)
    candidates += [["cc"], ["gcc"], ["clang"]]
    for cmd in candidates:
        if shutil.which(cmd[0]):
            return cmd
    return None


_COMPILER_ID: dict[str, str] = {}


def compiler_id(cmd: list[str]) -> str:
    """Stable identity string for ``cmd`` (resolved path + version line)."""
    exe = shutil.which(cmd[0]) or cmd[0]
    cached = _COMPILER_ID.get(exe)
    if cached is not None:
        return cached
    try:
        probe = subprocess.run(
            [exe, "--version"], capture_output=True, text=True, timeout=30
        )
        version = (probe.stdout or probe.stderr).splitlines()[0].strip()
    except (OSError, subprocess.TimeoutExpired, IndexError):
        version = "unknown"
    ident = f"{exe} {version}"
    _COMPILER_ID[exe] = ident
    return ident


def build_key(source: str, cmd: list[str]) -> str:
    """Content address of one build: source + compiler + ABI ingredients."""
    h = hashlib.sha256()
    for part in (
        f"repro-native-schema-{BUILD_SCHEMA}",
        source,
        " ".join(cmd),
        compiler_id(cmd),
        sys.platform,
        str(sys.maxsize),
    ):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


# --------------------------------------------------------------------- build
def _entry(cache_dir: Path, key: str) -> Path:
    return cache_dir / key[:2] / key


def _remove_entry(entry: Path) -> None:
    for suffix in (".so", ".c", ".json"):
        try:
            entry.with_suffix(suffix).unlink()
        except OSError:
            pass


def compile_shared_lib(source: str, cmd: list[str], out_path: Path) -> None:
    """Compile ``source`` to a shared library at ``out_path`` (atomic)."""
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(
        prefix="repro-native-", dir=str(out_path.parent)
    ) as tmp:
        c_path = Path(tmp) / "kernel.c"
        so_path = Path(tmp) / "kernel.so"
        c_path.write_text(source)
        argv = cmd + [
            "-O2", "-shared", "-fPIC", "-std=c99",
            str(c_path), "-o", str(so_path),
        ]
        log.debug("compiling kernel: %s", " ".join(argv))
        with obs.span("native.compile", compiler=cmd[0]):
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=300
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                obs.count("native.build.failed")
                log.warning("kernel compiler failed to run: %r", exc)
                raise NativeBuildError(
                    f"compiler failed to run: {exc}"
                ) from exc
            if proc.returncode != 0 or not so_path.exists():
                tail = (proc.stderr or proc.stdout or "").strip()[-800:]
                obs.count("native.build.failed")
                log.warning(
                    "kernel compilation failed (exit %d)", proc.returncode
                )
                raise NativeBuildError(
                    f"kernel compilation failed ({' '.join(argv[:1])} exit "
                    f"{proc.returncode}):\n{tail}"
                )
            os.replace(so_path, out_path)
        obs.count("native.build.compile")


def _write_sidecar(
    entry: Path, key: str, cmd: list[str], symbol: str, source: str
) -> None:
    payload = {
        "schema": BUILD_SCHEMA,
        "key": key,
        "kernel": symbol,
        "compiler": compiler_id(cmd),
    }
    try:
        tmp = entry.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2))
        os.replace(tmp, entry.with_suffix(".json"))
        entry.with_suffix(".c").write_text(source)
    except OSError as exc:
        # The .so alone is sufficient; sidecars are diagnostics.
        log.debug("sidecar write failed for %s: %r", key, exc)


# ------------------------------------------------------------ build + load
class Library(NamedTuple):
    """One loaded kernel: the typed ctypes function and its cache entry."""

    fn: Callable
    path: Path
    key: str


def _load(path: Path, key: str, symbol: str, argtypes: Sequence) -> Library:
    """dlopen ``path`` and type ``symbol`` (int64 return); an unloadable
    artifact raises :class:`NativeUnavailable`."""
    with obs.span("native.load", path=path.name):
        try:
            fn = getattr(ctypes.CDLL(str(path)), symbol)
        except (OSError, AttributeError) as exc:
            raise NativeUnavailable(f"cannot load {path.name}: {exc}") from exc
    fn.restype = ctypes.c_int64
    fn.argtypes = list(argtypes)
    log.debug("loaded %s from %s", symbol, path.name)
    return Library(fn, path, key)


def ensure_library(
    source: str,
    symbol: str,
    argtypes: Sequence,
    *,
    subdir: str = "",
    cache_dir: Optional[Path] = None,
) -> Library:
    """Compile, cache and load ``symbol`` from the C ``source``.

    The build lives under ``<cache>/<subdir>`` so kernels never collide.
    A cached build is reused; an unloadable one is evicted and rebuilt.
    Raises :class:`NativeUnavailable` when disabled, or when neither a
    loadable cached build nor a working compiler exists.
    """
    if not native_enabled():
        raise NativeUnavailable(f"native backend disabled ({NATIVE_ENV}=0)")
    root = (
        Path(cache_dir) if cache_dir is not None else native_cache_dir()
    ) / subdir
    cmd = find_compiler()
    if cmd is None:
        # No compiler: a previously cached build may still be loadable.
        for so in sorted(root.glob("??/*.so")):
            try:
                return _load(so, so.stem, symbol, argtypes)
            except NativeUnavailable:
                continue
        raise NativeUnavailable(
            f"no C compiler found (set ${CC_ENV}) and no cached build of "
            f"{symbol}"
        )
    key = build_key(source, cmd)
    entry = _entry(root, key)
    so_path = entry.with_suffix(".so")
    if so_path.exists():
        try:
            lib = _load(so_path, key, symbol, argtypes)
        except NativeUnavailable as exc:
            # Corrupt or ABI-stale artifact: treat as a miss and rebuild.
            obs.count("native.build.evict")
            log.debug("evicting unloadable build %s: %r", key, exc)
            _remove_entry(entry)
        else:
            obs.count("native.build.cache_hit")
            return lib
    compile_shared_lib(source, cmd, so_path)
    _write_sidecar(entry, key, cmd, symbol, source)
    return _load(so_path, key, symbol, argtypes)


def env_fingerprint() -> tuple:
    """The environment every kernel's availability depends on."""
    env = os.environ
    return (env.get(NATIVE_ENV), env.get(CC_ENV), env.get(CACHE_ENV))


#: name -> (env fingerprint, value, failure reason) per memoized kernel.
_MEMO: dict[str, tuple[tuple, object, Optional[str]]] = {}


def memoized(name: str, factory: Callable[[], object]):
    """``factory()``'s result, memoized until the environment changes.

    A :class:`NativeUnavailable` verdict is memoized too (and re-raised),
    so a compiler-less host probes once, not once per call.
    """
    fingerprint = env_fingerprint()
    state = _MEMO.get(name)
    if state is None or state[0] != fingerprint:
        try:
            state = (fingerprint, factory(), None)
        except NativeUnavailable as exc:
            state = (fingerprint, None, str(exc))
        _MEMO[name] = state
    if state[2] is not None:
        raise NativeUnavailable(state[2])
    return state[1]


def reset_memo() -> None:
    """Forget every memoized kernel (tests flip the environment)."""
    _MEMO.clear()


# ---------------------------------------------------------- resolve kernel
_PTR = ctypes.POINTER(ctypes.c_int64)


class KernelHandle:
    """The loaded resolve kernel: callable with the :data:`RESOLVE_ARGS`
    tuple.

    Scalars are passed as Python ints, arrays as C-contiguous ``int64``
    numpy arrays; the handle marshals them to typed pointers and returns
    the kernel's int status.
    """

    __slots__ = ("path", "key", "_fn")

    def __init__(self, lib: Library):
        self.path = lib.path
        self.key = lib.key
        self._fn = lib.fn

    def __call__(self, *args) -> int:
        if len(args) != len(RESOLVE_ARGS):
            raise TypeError(
                f"{KERNEL_NAME} takes {len(RESOLVE_ARGS)} arguments, "
                f"got {len(args)}"
            )
        marshalled = [
            int(value) if kind == "scalar"
            else _check_array(value, name).ctypes.data_as(_PTR)
            for (kind, name), value in zip(RESOLVE_ARGS, args)
        ]
        return int(self._fn(*marshalled))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KernelHandle({self.path.name})"


def _check_array(arr, name: str):
    import numpy as np

    if (
        not isinstance(arr, np.ndarray)
        or arr.dtype != np.int64
        or not arr.flags["C_CONTIGUOUS"]
    ):
        raise TypeError(
            f"kernel argument {name!r} must be a C-contiguous int64 "
            f"numpy array, got {type(arr).__name__}"
        )
    return arr


def ensure_kernel(cache_dir: Optional[Path] = None) -> KernelHandle:
    """The resolve kernel: loaded from cache, or compiled then cached."""
    argtypes = [
        ctypes.c_int64 if kind == "scalar" else _PTR for kind, _ in RESOLVE_ARGS
    ]
    return KernelHandle(ensure_library(
        kernel_source(), KERNEL_NAME, argtypes, cache_dir=cache_dir
    ))


def cache_entries(cache_dir: Optional[Path] = None) -> list[Path]:
    """Cached kernel builds (``.so`` paths) currently on disk."""
    root = Path(cache_dir) if cache_dir is not None else native_cache_dir()
    if not root.is_dir():
        return []
    return sorted(root.glob("??/*.so"))


def clear_cache(cache_dir: Optional[Path] = None) -> int:
    """Remove every cached build; returns the number of builds removed."""
    root = Path(cache_dir) if cache_dir is not None else native_cache_dir()
    removed = 0
    if not root.is_dir():
        return 0
    for path in root.glob("??/*"):
        if path.suffix == ".so":
            removed += 1
        try:
            path.unlink()
        except OSError:
            pass
    for shard in root.glob("??"):
        try:
            shard.rmdir()
        except OSError:
            pass
    return removed
