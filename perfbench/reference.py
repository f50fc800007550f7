"""The fixed reference work that every timing is scaled by.

The benchmark runs on shared virtual machines whose speed changes by
itself: in slow phases, lasting from seconds to minutes, every operation
takes up to twice as long, in CPU seconds as in wall seconds. A
median over one run cannot take that out when it lasts longer than the
run. So the benchmark times this reference work right before and right
after every measured operation, and reports the operation's time
scaled to a host on which the reference takes :data:`REFERENCE_S`::

    scaled = host_s * REFERENCE_S / mean(reference before, reference after)

The reference is a mix like the workloads': an interpreted event loop
over a heap of small tuples and a dict (like the simulator), numpy
passes over an array that fits in the cache (like the analyses) and a
zlib round trip (like the ``.rpt`` v3 codec). It uses only the standard
library and numpy, never the program, so a change to the program can
not move it. It holds a few megabytes while it runs and nothing after,
and runs only between operations, once each operation's results are
dropped, so it does not raise a process's peak resident memory above
what the operation itself needs.
"""

from __future__ import annotations

import heapq
import time
import zlib

import numpy as np

#: Seconds of one reference unit on the host the scale is quoted for
#: (a quiet 2-CPU x86_64 virtual machine, CPython 3.11).
REFERENCE_S = 0.05

_EVENTS = 25_000
_ARRAY = 1 << 17
_BLOB = 1 << 16


def _event_loop() -> int:
    heap: list[tuple[int, int]] = []
    state: dict[int, tuple[int, int]] = {}
    acc = 0
    for i in range(_EVENTS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 64:
            t, k = heapq.heappop(heap)
            state[k & 1023] = (t, k)
            acc += t
    return acc + len(state)


def _array_passes() -> int:
    base = np.arange(_ARRAY, dtype=np.int64)
    acc = 0
    for shift in range(4):
        a = np.cumsum(base * (shift + 3) + 1) % 1_000_003
        acc += int(np.sort(a)[shift])
    return acc


def _codec() -> int:
    blob = (np.arange(_BLOB, dtype=np.int64) // 7).tobytes()
    return len(zlib.decompress(zlib.compress(blob, 6)))


def reference_s(units: int = 1) -> float:
    """Host seconds of one unit of reference work, averaged over ``units``.

    Operations of a second or more take several units, so that the
    reference's own scatter stays small next to theirs.
    """
    t0 = time.perf_counter()
    for _ in range(units):
        _event_loop()
        _array_passes()
        _codec()
    return (time.perf_counter() - t0) / units


def scaled(host: list[float], refs: list[float]) -> list[float]:
    """Scale each ``host[i]`` by the references timed around it.

    ``refs`` has one more entry than ``host``: ``refs[i]`` was timed right
    before operation ``i`` and ``refs[i + 1]`` right after it.
    """
    if len(refs) != len(host) + 1:
        raise ValueError(f"{len(host)} operations need {len(host) + 1} "
                         f"references, got {len(refs)}")
    return [t * REFERENCE_S * 2.0 / (refs[i] + refs[i + 1])
            for i, t in enumerate(host)]
