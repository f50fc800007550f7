"""Per-layer attribution for the traced run.

Two halves:

* :class:`Instrumenter` wraps the repository's public functions in
  ``repro.obs`` spans from the outside — nothing under ``src/`` changes.
  Every module that bound a wrapped function (``from x import f``) is
  re-pointed at the wrapper, so calls the program makes internally are
  spanned as well as the calls the benchmark makes.  Each wrapper also
  accumulates its own inclusive time and result-derived counts (events
  simulated, cache hits, chunks pruned, ...) where they are produced.
* :func:`self_times` folds the recorded begin/end stream into per-layer
  self time (a span's duration minus what its child spans cover) plus
  the wall time no span covers.

The layers are the repository's modules; :data:`LAYERS` maps span-name
prefixes to them.  A span whose prefix is unknown lands in ``other``, so
the self times plus the uncovered remainder always add up to the wall
time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

#: Layer -> span-name prefixes (first dotted component) it owns.
LAYERS = {
    "exec": ("exec", "sim", "machine", "livermore", "instrument", "ir"),
    "runtime": ("runtime",),
    "trace": ("trace", "io", "query", "slice", "stream"),
    "analysis": ("analysis", "metrics"),
    "native": ("native",),
    "experiments": ("experiments",),
    "cli": ("cli", "tracetool", "import"),
}
LAYER_NAMES = tuple(LAYERS) + ("other",)
_PREFIX_LAYER = {p: layer for layer, prefixes in LAYERS.items() for p in prefixes}


def layer_of(span_name: str) -> str:
    return _PREFIX_LAYER.get(span_name.split(".", 1)[0], "other")


class SpanStreamError(ValueError):
    """The begin/end stream does not nest (dropped or unbalanced entries)."""


def self_times(events) -> tuple[dict, float]:
    """(layer -> self seconds, seconds covered by root spans).

    ``events`` are one thread's ``repro.obs`` ring entries
    ``(phase, name, t_ns, ...)`` in recording order.  The self times of
    all layers add up to the covered time; a run's wall time minus the
    covered time is the part no span explains.
    """
    stack: list[list] = []
    self_ns: dict[str, int] = defaultdict(int)
    root_ns = 0
    for entry in events:
        phase, name, t_ns = entry[0], entry[1], entry[2]
        if phase == "B":
            stack.append([name, t_ns, 0])
            continue
        if not stack or stack[-1][0] != name:
            raise SpanStreamError(f"span end {name!r} does not match an open span")
        _, start, child_ns = stack.pop()
        dur = t_ns - start
        self_ns[layer_of(name)] += dur - child_ns
        if stack:
            stack[-1][2] += dur
        else:
            root_ns += dur
    if stack:
        raise SpanStreamError(f"{len(stack)} span(s) never ended")
    layers = {layer: self_ns.get(layer, 0) / 1e9 for layer in LAYER_NAMES}
    return layers, root_ns / 1e9


class Instrumenter:
    """Wraps public entry points of each layer in tagged obs spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: span name -> inclusive seconds (outermost call of that name only)
        self.totals: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.specs: set = set()
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # ------------------------------------------------------------ wrapping
    def _wrap(self, fn, name, after=None):
        from repro.obs import core as obs

        inst = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                outer = inst._depth[name] == 0
                inst._depth[name] += 1
                t0 = time.perf_counter()
                try:
                    with obs.span(name, run=inst.run_id):
                        result = fn(*args, **kwargs)
                finally:
                    inst._depth[name] -= 1
                    if outer:
                        inst.totals[name] += time.perf_counter() - t0
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch_function(self, fn, name, after=None) -> None:
        """Re-point every loaded module's binding of ``fn`` at a wrapper."""
        wrapper = self._wrap(fn, name, after)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, attr, name, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name, after))
        else:
            wrapped = self._wrap(raw, name, after)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------- layers
    def install(self) -> None:
        """Span the public calls of every layer the workloads reach."""
        import repro.experiments as experiments
        from repro.analysis.errors import per_event_errors
        from repro.analysis.eventbased import event_based_approximation
        from repro.analysis.reschedule import liberal_approximation
        from repro.analysis.timebased import time_based_approximation
        from repro.exec.executor import Executor
        from repro.livermore.programs import doacross_program, livermore_program
        from repro.runtime import runner
        from repro.runtime.cache import ArtifactCache
        from repro.runtime.spec import ProgramSpec
        from repro.trace.columnar import TraceColumns
        from repro.trace.io import read_trace, write_trace
        from repro.trace.query import run_query
        from repro.trace.slice import slice_file
        from repro.trace.stream import stream_time_based

        counts = self.counts

        def on_run(args, kwargs, result):
            counts["exec.events"] += len(result.trace)
            counts["exec.sim_cycles"] += result.total_time

        def on_execute(args, kwargs, result):
            counts["runtime.sim_calls"] += 1
            self.specs.add(args[0])

        def on_load(args, kwargs, result):
            counts["runtime.cache.hits"] += result is not None

        def on_write(args, kwargs, result):
            target = args[1] if len(args) > 1 else kwargs.get("path")
            if isinstance(target, (str, os.PathLike)):
                counts["trace.v3.bytes"] += os.stat(target).st_size

        def on_query(args, kwargs, result):
            counts["trace.query.chunks_pruned"] += result.chunks_pruned

        def on_slice(args, kwargs, result):
            counts["trace.slice.chunks_decoded"] += result.chunks_decoded

        self.patch_method(Executor, "run", "exec.run", on_run)
        self.patch_method(ProgramSpec, "build", "exec.build")
        self.patch_function(doacross_program, "exec.build")
        self.patch_function(livermore_program, "exec.build")
        # runtime.execute_spec is already spanned inside the program.
        self.patch_function(runner.execute_spec, None, on_execute)
        self.patch_method(ArtifactCache, "load", "runtime.cache.load", on_load)
        self.patch_method(ArtifactCache, "store", "runtime.cache.store")
        self.patch_method(TraceColumns, "from_events", "trace.to_columns")
        self.patch_function(write_trace, "trace.v3.write", on_write)
        self.patch_function(read_trace, "trace.v3.read")
        self.patch_function(run_query, "trace.query", on_query)
        self.patch_function(slice_file, "trace.slice", on_slice)
        self.patch_function(stream_time_based, "trace.stream")
        self.patch_function(event_based_approximation, "analysis.eventbased")
        self.patch_function(time_based_approximation, "analysis.timebased")
        self.patch_function(liberal_approximation, "analysis.liberal")
        self.patch_function(per_event_errors, "analysis.errors")
        for attr in experiments.__all__:
            obj = getattr(experiments, attr)
            if attr.startswith("run_") and callable(obj):
                self.patch_function(obj, f"experiments.{attr}")
            elif isinstance(obj, type) and "render" in obj.__dict__:
                self.patch_method(obj, "render", "experiments.render")
