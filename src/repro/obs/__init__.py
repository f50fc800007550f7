"""``repro.obs`` — self-instrumentation: spans, counters, run manifests.

The toolchain applying the paper's discipline to itself: hot paths are
wrapped in :func:`span`\\ s and bump :func:`count`/:func:`gauge` metrics;
the stream exports as a JSONL event log, an aggregated run manifest, and
Chrome trace-event JSON (:mod:`repro.obs.export`); and the layer
measures its own perturbation (:mod:`repro.obs.calibrate`), exactly the
way ``repro.instrument.calibrate`` measures the simulated platform's.

Disabled (the default) every entry point is a guard-flag no-op with no
allocation, so committed benchmark numbers are unaffected.  Enable with
``REPRO_OBS=1``, the CLI's ``--obs``, or :func:`enable`; inspect with
``repro-ppopp91 obs report|export|calibrate``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".calibrate": ("ObsCalibration", "calibrate"),
    ".core": (
        "BUFFER_ENV",
        "DEFAULT_BUFFER",
        "DIR_ENV",
        "OBS_ENV",
        "ObsSnapshot",
        "SpanStats",
        "count",
        "disable",
        "enable",
        "enabled",
        "gauge",
        "reset",
        "shutdown",
        "snapshot",
        "span",
        "traced",
    ),
    ".export": (
        "MANIFEST_KIND",
        "MANIFEST_SCHEMA",
        "RunExport",
        "bench_summary",
        "chrome_trace_document",
        "chrome_trace_events",
        "chrome_trace_from_jsonl",
        "env_fingerprint",
        "jsonl_lines",
        "latest_jsonl",
        "latest_manifest",
        "obs_dir",
        "render_manifest",
        "run_manifest",
        "write_run",
    ),
})
