"""Causal slicing of event traces.

Given a target event, the *backward causal slice* is the sub-trace of
events the target transitively depends on through (a) per-thread program
order and (b) synchronization dependences — exactly the relation the
paper's conservative approximation preserves (§4.1), so re-analyzing the
slice reproduces the target's behaviour.  This is the trace analogue of
program slicing over event traces (Smith & Korel; see PAPERS.md) and is
what :mod:`repro.audit.differential` uses to minimize divergence
witnesses without the bounded delta-debugging size cliff.

Dependence rules
----------------
Program order makes the slice *per-thread prefix closed*: including an
event includes everything earlier on its thread.  A slice is therefore
fully described by one frontier position per thread, and the sync rules
only ever move frontiers:

* ``awaitE(A, i)`` depends on the first ``advance(A, i)``;
* each ``barrier_exit`` of a generation depends on every
  ``barrier_arrive`` of the same (barrier, generation);
* each dynamic lock use chains ``lockReq -> lockAcq -> lockRel``, and
  the k+1-th ``lockAcq`` of a lock depends on the release of the k-th
  acquisition (mutual exclusion, in the trace's own acquisition order);
* each semaphore use chains ``semReq -> semAcq -> semSig``; each
  ``semAcq`` additionally depends on the latest earlier ``semSig`` of
  the same semaphore, and signals of one semaphore are chained in trace
  order.

The semaphore rule deliberately over-approximates the capacity rule of
:func:`repro.trace.order.sync_partial_order` (the k-th grant consumes
the (k - capacity)-th signal): grant *ranks* change when a trace is
subset, so a capacity-based slice of a slice could differ from the
slice.  Chaining signals and depending on the latest earlier one is (a)
a superset of the capacity edge, hence still a sound conservative
slice, and (b) stable under taking subsets, which gives the property
tests their idempotence guarantee: ``slice(slice(T, e), e) ==
slice(T, e)``.

Three implementations share these rules event-for-event:

* :func:`slice_event_indices` — the pure-Python reference oracle over
  :class:`~repro.trace.events.TraceEvent` objects;
* :func:`slice_rows` — vectorized over :class:`TraceColumns` int64
  columns (argsort/searchsorted matching, one compact pass over the
  sync rows only);
* :func:`slice_file` — two-pass bounded-memory streaming over a ``.rpt``
  v3 :class:`~repro.trace.stream.ChunkReader`: pass 1 decodes only the
  columns each chunk needs (``thread`` always; sync identity columns
  only for chunks whose ``kind`` stats admit sync events) and collects
  a compact sync table, pass 2 re-reads only chunks at or before the
  slice frontier and keeps only selected rows.  Chunks past the
  frontier are never read (counted as ``slice.chunks_pruned``).

:func:`slice_trace` is the in-memory front door used by the CLI and the
audit witness minimizer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from repro.obs import core as obs
from repro.trace import columnar as _columnar
from repro.trace.columnar import NONE_SENTINEL, TraceColumns
from repro.trace.events import KIND_CODE, SYNC_KINDS, EventKind, TraceEvent
from repro.trace.trace import Trace, TraceError

#: Sync kinds occupy a contiguous suffix of the kind-code space, so one
#: comparison classifies a row (and a chunk's kind ``max`` bounds whether
#: it can hold sync events at all).
SYNC_CODE_MIN = KIND_CODE[EventKind.ADVANCE]
assert all(
    (KIND_CODE[k] >= SYNC_CODE_MIN) == (k in SYNC_KINDS) for k in EventKind
), "sync kinds are no longer a contiguous code suffix; fix the fast paths"


# ------------------------------------------------------- object reference
def slice_event_indices(
    events: Sequence[TraceEvent], target: int
) -> list[int]:
    """Backward causal slice of ``events``: sorted indices, target included.

    ``events`` must be in the trace's storage (total) order; ``target``
    is a position in that sequence.  This is the pure-Python reference
    implementation — :func:`slice_rows` must select the identical index
    set (property-tested).
    """
    n = len(events)
    if not 0 <= target < n:
        raise TraceError(
            f"slice target index {target} out of range for {n} events"
        )
    # Program order: remember each event's same-thread predecessor.
    prev_in_thread: list[Optional[int]] = [None] * n
    last_on: dict[int, int] = {}
    for i, e in enumerate(events):
        prev_in_thread[i] = last_on.get(e.thread)
        last_on[e.thread] = i
    deps: dict[int, list[int]] = {}

    def add(src: Optional[int], dst: int) -> None:
        if src is not None:
            deps.setdefault(dst, []).append(src)

    # advance(A, i) -> awaitE(A, i): first advance with the key wins.
    first_advance: dict[tuple, int] = {}
    first_lock: dict[tuple, int] = {}
    first_sem: dict[tuple, int] = {}
    lock_acqs: dict[Optional[str], list[int]] = {}
    sem_sigs: dict[Optional[str], list[int]] = {}
    sem_acqs: dict[Optional[str], list[int]] = {}
    barrier_gens: dict[tuple, dict[str, list[int]]] = {}
    _LOCK_ROLE = {
        EventKind.LOCK_REQ: "req",
        EventKind.LOCK_ACQ: "acq",
        EventKind.LOCK_REL: "rel",
    }
    _SEM_ROLE = {
        EventKind.SEM_REQ: "req",
        EventKind.SEM_ACQ: "acq",
        EventKind.SEM_SIG: "sig",
    }
    for i, e in enumerate(events):
        kind = e.kind
        has_key = e.sync_var is not None and e.sync_index is not None
        if kind is EventKind.ADVANCE and has_key:
            first_advance.setdefault((e.sync_var, e.sync_index), i)
        elif kind in (EventKind.BARRIER_ARRIVE, EventKind.BARRIER_EXIT):
            gen_key = (
                e.sync_var,
                e.sync_index if e.sync_index is not None else 0,
            )
            bucket = barrier_gens.setdefault(
                gen_key, {"arrive": [], "exit": []}
            )
            side = "arrive" if kind is EventKind.BARRIER_ARRIVE else "exit"
            bucket[side].append(i)
        elif kind in _LOCK_ROLE:
            if has_key:
                first_lock.setdefault(
                    (_LOCK_ROLE[kind], e.sync_var, e.sync_index), i
                )
            if kind is EventKind.LOCK_ACQ and has_key:
                lock_acqs.setdefault(e.sync_var, []).append(i)
        elif kind in _SEM_ROLE:
            if has_key:
                first_sem.setdefault(
                    (_SEM_ROLE[kind], e.sync_var, e.sync_index), i
                )
            if kind is EventKind.SEM_SIG and e.sync_var is not None:
                sem_sigs.setdefault(e.sync_var, []).append(i)
            elif kind is EventKind.SEM_ACQ and e.sync_var is not None:
                sem_acqs.setdefault(e.sync_var, []).append(i)
    for i, e in enumerate(events):
        has_key = e.sync_var is not None and e.sync_index is not None
        if not has_key:
            continue
        key = (e.sync_var, e.sync_index)
        if e.kind is EventKind.AWAIT_E:
            add(first_advance.get(key), i)
        elif e.kind is EventKind.LOCK_ACQ:
            add(first_lock.get(("req",) + key), i)
        elif e.kind is EventKind.LOCK_REL:
            add(first_lock.get(("acq",) + key), i)
        elif e.kind is EventKind.SEM_ACQ:
            add(first_sem.get(("req",) + key), i)
        elif e.kind is EventKind.SEM_SIG:
            add(first_sem.get(("acq",) + key), i)
    for bucket in barrier_gens.values():
        for exit_i in bucket["exit"]:
            for arrive_i in bucket["arrive"]:
                add(arrive_i, exit_i)
    for acqs in lock_acqs.values():
        for prev_acq, next_acq in zip(acqs, acqs[1:]):
            prev = events[prev_acq]
            if prev.sync_index is not None:
                add(
                    first_lock.get(("rel", prev.sync_var, prev.sync_index)),
                    next_acq,
                )
    import bisect

    for var, sigs in sem_sigs.items():
        for prev_sig, next_sig in zip(sigs, sigs[1:]):
            add(prev_sig, next_sig)
        for acq_i in sem_acqs.get(var, ()):
            at = bisect.bisect_left(sigs, acq_i)
            if at > 0:
                add(sigs[at - 1], acq_i)

    included = [False] * n
    stack = [target]
    while stack:
        i = stack.pop()
        if included[i]:
            continue
        included[i] = True
        p = prev_in_thread[i]
        if p is not None and not included[p]:
            stack.append(p)
        for j in deps.get(i, ()):
            if not included[j]:
                stack.append(j)
    return [i for i in range(n) if included[i]]


# ----------------------------------------------------- vectorized matching
def _concat_ranges(np, lo, hi):
    """Concatenation of ``arange(lo[i], hi[i])`` for every i (vectorized)."""
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    reps = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - reps + np.repeat(lo, counts)


def _match_first(np, producers, consumers, svar, sidx):
    """(src, dst): first producer sharing each consumer's sync key.

    ``producers``/``consumers`` are compact indices in ascending row
    order; rows without a full (sync_var, sync_index) identity never
    match (mirrors the object path's ``has_key`` guard).
    """
    empty = np.empty(0, dtype=np.int64)
    keyed_p = producers[
        (svar[producers] >= 0) & (sidx[producers] != NONE_SENTINEL)
    ]
    keyed_c = consumers[
        (svar[consumers] >= 0) & (sidx[consumers] != NONE_SENTINEL)
    ]
    if len(keyed_p) == 0 or len(keyed_c) == 0:
        return empty, empty
    src_parts, dst_parts = [], []
    for var in np.unique(svar[keyed_c]).tolist():
        prod = keyed_p[svar[keyed_p] == var]
        cons = keyed_c[svar[keyed_c] == var]
        if len(prod) == 0:
            continue
        # Stable sort by key keeps ascending row order within equal keys,
        # so searchsorted-left lands on the *first* matching producer.
        order = np.argsort(sidx[prod], kind="stable")
        keys = sidx[prod][order]
        at = np.searchsorted(keys, sidx[cons], side="left")
        hit = at < len(keys)
        at = np.minimum(at, len(keys) - 1)
        hit &= keys[at] == sidx[cons]
        if hit.any():
            src_parts.append(prod[order][at[hit]])
            dst_parts.append(cons[hit])
    if not src_parts:
        return empty, empty
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def _sync_edges(np, kind, svar, sidx):
    """All sync-dependence edges over a compact sync-row table.

    ``kind``/``svar``/``sidx`` are aligned arrays covering only the sync
    rows of a trace, in ascending row order; the returned ``(src, dst)``
    arrays hold compact indices (dst depends on src).  The rules are the
    module-level ones — byte-for-byte the object path's.
    """
    empty = np.empty(0, dtype=np.int64)
    src_parts, dst_parts = [], []

    def add(src, dst):
        if len(src):
            src_parts.append(src)
            dst_parts.append(dst)

    def of(kind_: EventKind):
        return np.flatnonzero(kind == KIND_CODE[kind_])

    add(*_match_first(np, of(EventKind.ADVANCE), of(EventKind.AWAIT_E),
                      svar, sidx))

    arrive, exit_ = of(EventKind.BARRIER_ARRIVE), of(EventKind.BARRIER_EXIT)
    if len(arrive) and len(exit_):
        gen = np.where(sidx == NONE_SENTINEL, 0, sidx)
        for var in np.unique(svar[exit_]).tolist():
            arr_v = arrive[svar[arrive] == var]
            ext_v = exit_[svar[exit_] == var]
            if len(arr_v) == 0 or len(ext_v) == 0:
                continue
            order = np.argsort(gen[arr_v], kind="stable")
            arr_s = arr_v[order]
            gens_s = gen[arr_v][order]
            lo = np.searchsorted(gens_s, gen[ext_v], side="left")
            hi = np.searchsorted(gens_s, gen[ext_v], side="right")
            add(arr_s[_concat_ranges(np, lo, hi)],
                np.repeat(ext_v, hi - lo))

    req, acq, rel = (of(EventKind.LOCK_REQ), of(EventKind.LOCK_ACQ),
                     of(EventKind.LOCK_REL))
    add(*_match_first(np, req, acq, svar, sidx))
    add(*_match_first(np, acq, rel, svar, sidx))
    keyed_acq = acq[(svar[acq] >= 0) & (sidx[acq] != NONE_SENTINEL)]
    for var in np.unique(svar[keyed_acq]).tolist():
        acq_v = keyed_acq[svar[keyed_acq] == var]
        if len(acq_v) < 2:
            continue
        # rel of the k-th acquisition -> the (k+1)-th acquisition.
        src, dst = _match_first(np, rel, acq_v[:-1], svar, sidx)
        remap = np.searchsorted(acq_v[:-1], dst)
        add(src, acq_v[1:][remap])

    req, acq, sig = (of(EventKind.SEM_REQ), of(EventKind.SEM_ACQ),
                     of(EventKind.SEM_SIG))
    add(*_match_first(np, req, acq, svar, sidx))
    add(*_match_first(np, acq, sig, svar, sidx))
    named_sig = sig[svar[sig] >= 0]
    named_acq = acq[svar[acq] >= 0]
    for var in np.unique(svar[named_sig]).tolist():
        sig_v = named_sig[svar[named_sig] == var]
        add(sig_v[:-1], sig_v[1:])
        acq_v = named_acq[svar[named_acq] == var]
        if len(acq_v):
            at = np.searchsorted(sig_v, acq_v, side="left") - 1
            hit = at >= 0
            add(sig_v[at[hit]], acq_v[hit])

    if not src_parts:
        return empty, empty
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def _closure(np, thread, pos, rows, src, dst, seed):
    """Per-thread slice frontier: thread -> (max pos included, its row).

    ``seed`` is the target's ``(thread, pos, row)``.  Edges are replayed
    in descending destination-row order: on a causally-ordered trace
    every dependence points backward, so one pass cascades chains fully;
    the loop repeats until a pass makes no change so forward-pointing
    edges in damaged traces still converge.
    """
    frontier: dict[int, tuple[int, int]] = {seed[0]: (seed[1], seed[2])}
    if len(src) == 0:
        return frontier
    order = np.argsort(rows[dst], kind="stable")[::-1]
    src_l = src[order].tolist()
    dst_l = dst[order].tolist()
    thread_l = thread.tolist()
    pos_l = pos.tolist()
    rows_l = rows.tolist()
    changed = True
    while changed:
        changed = False
        for s, d in zip(src_l, dst_l):
            at = frontier.get(thread_l[d])
            if at is None or pos_l[d] > at[0]:
                continue  # destination not in the slice: edge inert
            have = frontier.get(thread_l[s])
            if have is None or pos_l[s] > have[0]:
                frontier[thread_l[s]] = (pos_l[s], rows_l[s])
                changed = True
    return frontier


def _thread_positions(np, cols: TraceColumns):
    """(dense per-row thread rank arrays): row -> position on its thread."""
    pos = np.empty(len(cols), dtype=np.int64)
    ids, groups = cols.thread_order()
    for idx in groups:
        pos[idx] = np.arange(len(idx), dtype=np.int64)
    return pos


def slice_rows(cols: TraceColumns, target_row: int):
    """Backward causal slice over columns: ascending row-index array.

    Vectorized equivalent of :func:`slice_event_indices` — identical
    selection by construction of the shared rule set.
    """
    np = _columnar.np
    n = len(cols)
    if not 0 <= target_row < n:
        raise TraceError(
            f"slice target index {target_row} out of range for {n} events"
        )
    with obs.span("trace.slice", backend="columnar", n_events=n):
        pos = _thread_positions(np, cols)
        sync_rows = np.flatnonzero(cols.kind >= SYNC_CODE_MIN)
        src, dst = _sync_edges(
            np,
            cols.kind[sync_rows],
            cols.sync_var[sync_rows],
            cols.sync_index[sync_rows],
        )
        frontier = _closure(
            np,
            cols.thread[sync_rows],
            pos[sync_rows],
            sync_rows,
            src,
            dst,
            (int(cols.thread[target_row]), int(pos[target_row]), target_row),
        )
        keep = np.zeros(n, dtype=bool)
        for tid, (limit, _row) in frontier.items():
            keep |= (cols.thread == tid) & (pos <= limit)
        return np.flatnonzero(keep)


# ------------------------------------------------------------- front door
def _resolve_target(n: int, seqs, seq: Optional[int], index: Optional[int]):
    """Target row from exactly one of ``seq`` (trace seq) / ``index`` (row)."""
    if (seq is None) == (index is None):
        raise TraceError("pass exactly one of seq= or index= to slice")
    if index is not None:
        row = index if index >= 0 else n + index
        if not 0 <= row < n:
            raise TraceError(
                f"slice target index {index} out of range for {n} events"
            )
        return row
    for row, s in enumerate(seqs):
        if s == seq:
            return row
    raise TraceError(f"no event with seq {seq} in trace of {n} events")


def slice_trace(
    trace: Trace,
    *,
    seq: Optional[int] = None,
    index: Optional[int] = None,
    backend: str = "auto",
) -> Trace:
    """The backward causal slice of ``trace`` as a new :class:`Trace`.

    The target is named by ``seq`` (the event's trace sequence number —
    how audit findings name diverging events) or ``index`` (position in
    total order, negatives Python-style).  Sliced events keep their
    original ``seq`` numbers so analysis results on the slice can be
    compared seq-for-seq against the full trace; ``meta["slice"]``
    records the target and source size.

    ``backend`` is ``"auto"`` (columnar), ``"columnar"`` or ``"object"``
    (the reference oracle); both produce identical slices.
    """
    if backend == "auto":
        backend = "columnar"
    n = len(trace)
    meta = dict(trace.meta)
    if backend == "columnar":
        np = _columnar.np
        if (seq is None) == (index is None):
            raise TraceError("pass exactly one of seq= or index= to slice")
        cols = trace.columns
        if index is not None:
            row = index if index >= 0 else n + index
            if not 0 <= row < n:
                raise TraceError(
                    f"slice target index {index} out of range for {n} events"
                )
        else:
            hits = np.flatnonzero(cols.seq == seq)
            if len(hits) == 0:
                raise TraceError(
                    f"no event with seq {seq} in trace of {n} events"
                )
            row = int(hits[0])
        rows = slice_rows(cols, row)
        meta["slice"] = {
            "target_seq": int(cols.seq[row]),
            "target_index": int(row),
            "source_events": n,
        }
        return Trace.from_columns(cols.take(rows), meta=meta)
    if backend != "object":
        raise TraceError(f"unknown slice backend {backend!r}")
    events = trace.events
    row = _resolve_target(
        n, (e.seq for e in events), seq=seq, index=index
    )
    with obs.span("trace.slice", backend="object", n_events=n):
        kept = slice_event_indices(events, row)
    meta["slice"] = {
        "target_seq": int(events[row].seq),
        "target_index": int(row),
        "source_events": n,
    }
    return Trace([events[i] for i in kept], meta=meta)


# --------------------------------------------------------- streaming slice
class FileSliceResult:
    """Outcome of :func:`slice_file`.

    ``trace`` is the slice; the counters describe how much of the file
    the two passes actually touched (``chunks_pruned`` chunks were never
    read in pass 2 because they lie entirely past the slice frontier).
    """

    __slots__ = (
        "trace", "n_source_events", "n_chunks",
        "chunks_decoded", "chunks_pruned",
    )

    def __init__(self, trace, n_source_events, n_chunks,
                 chunks_decoded, chunks_pruned):
        self.trace = trace
        self.n_source_events = n_source_events
        self.n_chunks = n_chunks
        self.chunks_decoded = chunks_decoded
        self.chunks_pruned = chunks_pruned


def _chunk_positions(np, thread, running: dict) -> "object":
    """Global per-thread positions for one chunk's ``thread`` column.

    ``running`` carries the events-seen-so-far count per thread across
    chunks; it is updated in place.
    """
    order = np.argsort(thread, kind="stable")
    sorted_threads = thread[order]
    pos = np.empty(len(thread), dtype=np.int64)
    if len(sorted_threads) == 0:
        return pos
    boundaries = np.flatnonzero(np.diff(sorted_threads)) + 1
    groups = np.split(order, boundaries)
    ids = [int(sorted_threads[0])] + [
        int(sorted_threads[b]) for b in boundaries
    ]
    for tid, idx in zip(ids, groups):
        base = running.get(tid, 0)
        pos[idx] = np.arange(base, base + len(idx), dtype=np.int64)
        running[tid] = base + len(idx)
    return pos


def _chunk_may_hold_seq(info: dict, seq: int) -> bool:
    bounds = info.get("cols", {}).get("seq")
    if not bounds:
        return True
    lo, hi = bounds.get("min"), bounds.get("max")
    if lo is None or hi is None:
        return True
    return lo <= seq <= hi


def slice_file(
    path: Union[str, Path],
    *,
    seq: Optional[int] = None,
    index: Optional[int] = None,
) -> FileSliceResult:
    """Backward causal slice of a chunked ``.rpt`` v3 file.

    Never materializes the full trace: pass 1 streams a column-projected
    decode of each chunk (``thread`` always; ``kind``/``sync_var``/
    ``sync_index`` only when the chunk's ``kind`` stats admit sync
    events; ``seq`` only while the target is still being located) and
    collects the compact sync table; pass 2 re-reads only chunks up to
    the slice frontier, masks rows by a thread-only decode, and decodes
    the remaining columns just for chunks that contribute rows.  Memory
    is O(sync events + slice size), not O(trace).
    """
    from repro.trace import binio as _binio
    from repro.trace.stream import ChunkReader

    np = _columnar.np
    if (seq is None) == (index is None):
        raise TraceError("pass exactly one of seq= or index= to slice")
    with ChunkReader(path) as reader, obs.span(
        "trace.slice", backend="streaming-file", n_events=reader.n_events
    ):
        n = reader.n_events
        n_chunks = reader.n_chunks
        target_row = None
        if index is not None:
            target_row = index if index >= 0 else n + index
            if not 0 <= target_row < n:
                raise TraceError(
                    f"slice target index {index} out of range for {n} events"
                )
        # ---- pass 1: locate the target, collect the compact sync table
        running: dict[int, int] = {}
        seed = None
        sync_parts: list[tuple] = []
        for i, info in enumerate(reader.chunk_index):
            start = int(info["start_row"])
            rows = int(info["rows"])
            kind_stats = info.get("cols", {}).get("kind", {})
            kind_max = kind_stats.get("max")
            has_sync = kind_max is None or int(kind_max) >= SYNC_CODE_MIN
            hunting = seed is None and (
                (target_row is not None and start <= target_row < start + rows)
                or (seq is not None and _chunk_may_hold_seq(info, seq))
            )
            need = {"thread"}
            if has_sync:
                need |= {"kind", "sync_var", "sync_index"}
            if hunting and seq is not None:
                need.add("seq")
            arrays = reader.read_chunk_arrays(i, columns=sorted(need))
            thread = arrays["thread"]
            pos = _chunk_positions(np, thread, running)
            if hunting:
                local = None
                if target_row is not None:
                    local = target_row - start
                else:
                    hits = np.flatnonzero(arrays["seq"] == seq)
                    if len(hits):
                        local = int(hits[0])
                if local is not None:
                    seed = (
                        int(thread[local]), int(pos[local]), start + local
                    )
            if has_sync:
                kind = arrays["kind"]
                at = np.flatnonzero(kind >= SYNC_CODE_MIN)
                if len(at):
                    sync_parts.append((
                        start + at,
                        kind[at],
                        thread[at],
                        pos[at],
                        arrays["sync_var"][at],
                        arrays["sync_index"][at],
                    ))
        if seed is None:
            raise TraceError(
                f"no event with seq {seq} in trace of {n} events"
            )
        if sync_parts:
            s_rows, s_kind, s_thread, s_pos, s_svar, s_sidx = (
                np.concatenate([p[j] for p in sync_parts])
                for j in range(6)
            )
        else:
            s_rows = s_kind = s_thread = s_pos = s_svar = s_sidx = (
                np.empty(0, dtype=np.int64)
            )
        src, dst = _sync_edges(np, s_kind, s_svar, s_sidx)
        frontier = _closure(np, s_thread, s_pos, s_rows, src, dst, seed)
        max_row = max(row for _pos, row in frontier.values())
        # ---- pass 2: collect selected rows, pruning past the frontier
        running2: dict[int, int] = {}
        kept: list[dict] = []
        decoded = 0
        pruned = 0
        target_seq = int(seq) if seq is not None else None
        for i, info in enumerate(reader.chunk_index):
            start = int(info["start_row"])
            if start > max_row:
                pruned = n_chunks - i
                obs.count("slice.chunks_pruned", pruned)
                break
            blob = reader.read_blob(i)
            thread = _binio.decode_chunk(
                blob, reader.compressor, columns=("thread",)
            )["thread"]
            pos = _chunk_positions(np, thread, running2)
            mask = np.zeros(len(thread), dtype=bool)
            for tid, (limit, _row) in frontier.items():
                mask |= (thread == tid) & (pos <= limit)
            if not mask.any():
                continue
            rest = _binio.decode_chunk(
                blob, reader.compressor,
                columns=[c for c in _columnar.COLUMN_NAMES if c != "thread"],
            )
            decoded += 1
            at = np.flatnonzero(mask)
            selection = {"thread": thread[at], "__rows": start + at}
            for name in _columnar.COLUMN_NAMES:
                if name != "thread":
                    selection[name] = rest[name][at]
            if target_seq is None and start <= seed[2] < start + len(thread):
                # The target row is always selected (it sits at or below
                # its own thread frontier); recover its seq in passing.
                hit = np.flatnonzero(selection["__rows"] == seed[2])
                if len(hit):
                    target_seq = int(selection["seq"][hit[0]])
            kept.append(selection)
        if target_seq is None:
            raise TraceError(
                "slice target row was not selected (internal error)"
            )
        arrays = {
            name: (
                np.concatenate([part[name] for part in kept])
                if kept else np.empty(0, dtype=np.int64)
            )
            for name in _columnar.COLUMN_NAMES
        }
        cols = TraceColumns(
            sync_var_table=reader.sync_var_table,
            label_table=reader.label_table,
            **arrays,
        )
        meta = dict(reader.meta)
        meta["slice"] = {
            "target_seq": target_seq,
            "target_index": int(seed[2]),
            "source_events": n,
        }
        trace = Trace.from_columns(cols, meta=meta)
        return FileSliceResult(trace, n, n_chunks, decoded, pruned)
