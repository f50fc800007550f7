"""Exporters for the recorded observability stream.

Three formats, all derived from one :class:`~repro.obs.core.ObsSnapshot`:

* **JSONL event log** — one JSON object per ring entry (plus a leading
  ``meta`` line), the lossless raw stream;
* **run manifest** — one aggregated JSON document: environment
  fingerprint, per-span totals, counter/gauge tables, drop statistics.
  Written next to the cache artifacts by default so a sweep's manifest
  lives with the results it describes;
* **Chrome trace-event format** (``.trace.json``) — paired ``B``/``E``
  duration events loadable in Perfetto / ``chrome://tracing`` for
  flame-graph views of a pipeline run.  Ring overflow can orphan an
  ``E`` (its ``B`` was dropped) or leave a ``B`` unclosed (snapshot taken
  mid-span); the exporter drops the former and closes the latter so the
  emitted stream is always properly paired.

The export directory is ``$REPRO_OBS_DIR``, else ``<artifact
cache>/obs`` (``$REPRO_CACHE_DIR`` aware).  Each run writes a
``run-<timestamp>-<pid>`` triple; :func:`latest_manifest` finds the most
recent one for ``repro-ppopp91 obs report``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from repro.obs.core import DIR_ENV, ObsSnapshot, snapshot as _snapshot

#: Manifest schema version (bump on incompatible layout changes).
MANIFEST_SCHEMA = 1
MANIFEST_KIND = "repro-obs-manifest"

#: Chrome trace timestamps are microseconds.
_NS_PER_US = 1000.0


def obs_dir() -> Path:
    """Export location: ``$REPRO_OBS_DIR`` or ``<artifact cache>/obs``."""
    env = os.environ.get(DIR_ENV)
    if env:
        return Path(env)
    from repro.runtime.cache import default_cache_dir

    return default_cache_dir() / "obs"


def env_fingerprint() -> dict:
    """Where this run happened: interpreter, platform, deps, knobs.

    Benchmarks embed this in their ``BENCH_*.json`` so a regression can
    be attributed to the environment that produced the numbers.
    """
    from repro import __version__

    import numpy

    return {
        "repro_version": __version__,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "n_cpus": os.cpu_count(),
        "numpy": numpy.__version__,
        "env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_")
        },
    }


def bench_summary() -> dict:
    """The attribution block benchmarks embed in ``BENCH_*.json``:
    environment fingerprint, the analysis backend ``"auto"`` resolves to
    right now, and the state of both on-disk caches."""
    from repro import native
    from repro.analysis.eventbased import pick_backend
    from repro.runtime.cache import ArtifactCache

    artifact_stats = ArtifactCache().stats()
    return {
        "env": env_fingerprint(),
        "backend": {
            "eventbased_auto": pick_backend(),
            "native_available": native.native_available(),
            "native_reason": native.native_reason(),
        },
        "cache": {
            "artifact_dir": artifact_stats.root,
            "artifact_entries": artifact_stats.entries,
            "native_builds": len(native.cache_entries()),
        },
    }


def run_manifest(
    snap: Optional[ObsSnapshot] = None, extra: Optional[dict] = None
) -> dict:
    """Aggregated JSON document describing one recorded run."""
    snap = snap if snap is not None else _snapshot()
    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "kind": MANIFEST_KIND,
        "created_unix": time.time(),
        "started_unix": snap.started_unix,
        "pid": snap.pid,
        "argv": list(sys.argv),
        "env": env_fingerprint(),
        "buffer_size": snap.buffer_size,
        "recorded_events": len(snap.events),
        "dropped_events": snap.dropped_events,
        "spans": {
            s.name: {
                "count": s.count,
                "total_ns": s.total_ns,
                "min_ns": s.min_ns,
                "max_ns": s.max_ns,
                "mean_ns": s.mean_ns,
            }
            for s in snap.spans.values()
        },
        "counters": dict(snap.counters),
        "gauges": dict(snap.gauges),
    }
    if extra:
        manifest["extra"] = extra
    return manifest


def _attrs_jsonable(attrs: Optional[dict]) -> Optional[dict]:
    if not attrs:
        return None
    safe = {}
    for k, v in attrs.items():
        if isinstance(v, (str, int, float, bool)) or v is None:
            safe[k] = v
        else:
            safe[k] = repr(v)
    return safe


def jsonl_lines(snap: Optional[ObsSnapshot] = None) -> list[str]:
    """The raw stream as JSON lines (leading ``meta`` record first)."""
    snap = snap if snap is not None else _snapshot()
    lines = [
        json.dumps(
            {
                "type": "meta",
                "schema": MANIFEST_SCHEMA,
                "pid": snap.pid,
                "started_unix": snap.started_unix,
                "buffer_size": snap.buffer_size,
                "dropped_events": snap.dropped_events,
            }
        )
    ]
    for entry in snap.events:
        phase, name, t_ns, pid, tid, attrs = entry
        record: dict[str, Any] = {
            "type": phase,
            "name": name,
            "ts_ns": t_ns,
            "pid": pid,
            "tid": tid,
        }
        safe = _attrs_jsonable(attrs)
        if safe:
            record["attrs"] = safe
        lines.append(json.dumps(record))
    return lines


def chrome_trace_events(snap: Optional[ObsSnapshot] = None) -> list[dict]:
    """Paired ``B``/``E`` Chrome trace events, sanitized for validity.

    Guarantees, per ``(pid, tid)`` track: every ``E`` has a preceding
    matching ``B`` (orphans from ring overflow are dropped) and every
    ``B`` is eventually closed (unclosed spans get a synthetic ``E`` at
    the track's last timestamp), so strict flame-graph viewers accept
    the file.
    """
    snap = snap if snap is not None else _snapshot()
    out: list[dict] = []
    open_stacks: dict[tuple, list[int]] = {}  # track -> out-indices of open B
    last_ts: dict[tuple, float] = {}
    for entry in snap.events:
        phase, name, t_ns, pid, tid, attrs = entry
        track = (pid, tid)
        ts = t_ns / _NS_PER_US
        last_ts[track] = ts
        if phase == "B":
            event = {
                "ph": "B",
                "name": name,
                "cat": "repro",
                "ts": ts,
                "pid": pid,
                "tid": tid,
            }
            safe = _attrs_jsonable(attrs)
            if safe:
                event["args"] = safe
            open_stacks.setdefault(track, []).append(len(out))
            out.append(event)
        elif phase == "E":
            stack = open_stacks.get(track)
            if not stack:
                continue  # the matching B fell out of the ring
            begin = out[stack.pop()]
            out.append(
                {
                    "ph": "E",
                    "name": begin["name"],
                    "cat": "repro",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                }
            )
    # Close anything still open (snapshot taken mid-span).
    for track, stack in open_stacks.items():
        pid, tid = track
        while stack:
            begin = out[stack.pop()]
            out.append(
                {
                    "ph": "E",
                    "name": begin["name"],
                    "cat": "repro",
                    "ts": last_ts[track],
                    "pid": pid,
                    "tid": tid,
                }
            )
    return out


def chrome_trace_document(snap: Optional[ObsSnapshot] = None) -> dict:
    """The full Chrome trace JSON object (``traceEvents`` + metadata)."""
    return {
        "traceEvents": chrome_trace_events(snap),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "schema": MANIFEST_SCHEMA},
    }


@dataclass(frozen=True)
class RunExport:
    """Paths of one exported run triple."""

    manifest: Path
    jsonl: Path
    trace: Path


def write_run(
    directory: Union[str, Path, None] = None,
    snap: Optional[ObsSnapshot] = None,
    extra: Optional[dict] = None,
) -> RunExport:
    """Write the manifest + JSONL + Chrome trace triple for one run."""
    snap = snap if snap is not None else _snapshot()
    root = Path(directory) if directory is not None else obs_dir()
    root.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    base = f"run-{stamp}-{snap.pid}"
    paths = RunExport(
        manifest=root / f"{base}.manifest.json",
        jsonl=root / f"{base}.events.jsonl",
        trace=root / f"{base}.trace.json",
    )
    paths.manifest.write_text(
        json.dumps(run_manifest(snap, extra=extra), indent=2) + "\n"
    )
    paths.jsonl.write_text("\n".join(jsonl_lines(snap)) + "\n")
    paths.trace.write_text(json.dumps(chrome_trace_document(snap)) + "\n")
    return paths


def latest_manifest(
    directory: Union[str, Path, None] = None,
) -> Optional[tuple[Path, dict]]:
    """The newest ``*.manifest.json`` in the export dir, parsed; None if
    the directory holds no readable manifest."""
    root = Path(directory) if directory is not None else obs_dir()
    if not root.is_dir():
        return None
    candidates = sorted(
        root.glob("run-*.manifest.json"),
        key=lambda p: (p.stat().st_mtime, p.name),
    )
    for path in reversed(candidates):
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if payload.get("kind") == MANIFEST_KIND:
            return path, payload
    return None


def latest_jsonl(
    directory: Union[str, Path, None] = None,
) -> Optional[Path]:
    """The ``.events.jsonl`` sibling of the latest manifest, if present."""
    found = latest_manifest(directory)
    if found is None:
        return None
    path = found[0].with_name(
        found[0].name.replace(".manifest.json", ".events.jsonl")
    )
    return path if path.is_file() else None


def chrome_trace_from_jsonl(jsonl_path: Union[str, Path]) -> dict:
    """Rebuild a Chrome trace document from a written JSONL event log
    (the ``obs export`` CLI path: re-export without re-running)."""
    events = []
    meta = {"pid": 0, "started_unix": 0.0, "buffer_size": 0,
            "dropped_events": 0}
    for line in Path(jsonl_path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("type") == "meta":
            meta.update({k: record[k] for k in meta if k in record})
            continue
        events.append(
            (
                record["type"],
                record["name"],
                record["ts_ns"],
                record["pid"],
                record["tid"],
                record.get("attrs"),
            )
        )
    snap = ObsSnapshot(
        enabled=False,
        pid=int(meta["pid"]),
        started_unix=float(meta["started_unix"]),
        buffer_size=int(meta["buffer_size"]),
        dropped_events=int(meta["dropped_events"]),
        events=tuple(events),
    )
    return chrome_trace_document(snap)


def render_manifest(manifest: dict) -> str:
    """Human-readable ``obs report`` text for one manifest."""
    env = manifest.get("env", {})
    lines = [
        "observability run manifest",
        f"  created:  {time.strftime('%Y-%m-%d %H:%M:%S', time.gmtime(manifest.get('created_unix', 0)))} UTC"
        f"  (pid {manifest.get('pid')})",
        f"  host:     python {env.get('python')} on {env.get('platform')}"
        f"  ({env.get('n_cpus')} cpus)",
        f"  events:   {manifest.get('recorded_events', 0)} recorded, "
        f"{manifest.get('dropped_events', 0)} dropped "
        f"(ring {manifest.get('buffer_size', 0)})",
    ]
    spans = manifest.get("spans", {})
    if spans:
        lines.append("")
        lines.append(f"  {'span':<44} {'count':>8} {'total ms':>10} "
                     f"{'mean µs':>10}")
        ordered = sorted(
            spans.items(), key=lambda kv: kv[1]["total_ns"], reverse=True
        )
        for name, agg in ordered:
            lines.append(
                f"  {name:<44} {agg['count']:>8} "
                f"{agg['total_ns'] / 1e6:>10.2f} "
                f"{agg['mean_ns'] / 1e3:>10.1f}"
            )
    counters = manifest.get("counters", {})
    if counters:
        lines.append("")
        lines.append(f"  {'counter':<52} {'value':>10}")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<52} {value:>10}")
    gauges = manifest.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append(f"  {'gauge':<52} {'value':>10}")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:<52} {value!s:>10}")
    return "\n".join(lines)
