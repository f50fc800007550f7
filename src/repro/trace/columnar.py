"""Struct-of-arrays trace backend.

A :class:`TraceColumns` holds one execution trace as eight parallel numpy
``int64`` columns (``time``/``thread``/``kind``/``eid``/``seq``/
``iteration``/``sync_index``/``overhead``) plus two interned string tables
(``sync_var`` and ``label``).  The layout follows the columnar-buffer
school of trace storage (LTTng-style packed records; xobjects-style
struct-of-arrays device buffers): analysis passes touch whole columns with
vectorized numpy kernels instead of walking millions of per-event Python
objects, and the packed binary trace format (:mod:`repro.trace.binio`)
serialises the same columns chunk by chunk.

Encoding conventions
--------------------
* ``kind`` stores the integer code of the :class:`~repro.trace.events.EventKind`
  (its position in :data:`~repro.trace.events.KIND_LIST`);
* ``iteration`` and ``sync_index`` use :data:`NONE_SENTINEL` (int64 min)
  for ``None`` — both fields may legitimately be negative (DOACROSS
  prologue awaits use negative indices), so ``-1`` is not available;
* ``sync_var`` / ``label`` store indices into the per-trace string tables;
  index ``-1`` means ``None`` (for ``sync_var``) / ``""`` (for ``label``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from repro.trace.events import KIND_CODE, KIND_LIST, EventKind, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

#: int64 stand-in for ``None`` in the ``iteration``/``sync_index`` columns.
NONE_SENTINEL = -(2**63)

#: Range of optional-field values the columnar backend can represent.
#: ``NONE_SENTINEL`` itself is reserved, so true int64-min is *not* a legal
#: ``iteration``/``sync_index`` value — packing it must fail loudly rather
#: than silently round-tripping to ``None``.
OPTIONAL_MIN = NONE_SENTINEL + 1
OPTIONAL_MAX = 2**63 - 1

#: Column names, in storage order (also the binary-format buffer order).
COLUMN_NAMES = (
    "time",
    "thread",
    "kind",
    "eid",
    "seq",
    "iteration",
    "sync_index",
    "overhead",
    "sync_var",
    "label",
)


def _checked_optional(value: int, field: str, row: int) -> int:
    """``value`` if the int64 columns can represent it, else ValueError.

    ``NONE_SENTINEL`` (int64 min) is reserved for ``None``; anything
    outside int64 would overflow the column.  Both must be rejected here —
    numpy would accept the sentinel silently and the event would come back
    with ``field=None``, a lossy round trip no caller can detect.
    """
    if OPTIONAL_MIN <= value <= OPTIONAL_MAX:
        return value
    raise ValueError(
        f"event {row}: {field}={value} is not representable in the columnar "
        f"backend (int64 min is reserved as the None sentinel; legal range "
        f"is [{OPTIONAL_MIN}, {OPTIONAL_MAX}])"
    )


class StringTable:
    """Interned string storage: each distinct string stored once.

    Index ``-1`` is reserved for the missing value (``None`` / ``""``).
    """

    __slots__ = ("strings", "_index")

    def __init__(self, strings: Sequence[str] = ()):
        self.strings: list[str] = list(strings)
        self._index: dict[str, int] = {s: i for i, s in enumerate(self.strings)}

    def intern(self, s: Optional[str]) -> int:
        """Index of ``s``, adding it to the table if new.  None -> -1."""
        if s is None:
            return -1
        idx = self._index.get(s)
        if idx is None:
            idx = len(self.strings)
            self.strings.append(s)
            self._index[s] = idx
        return idx

    def lookup(self, idx: int) -> Optional[str]:
        return None if idx < 0 else self.strings[idx]

    def __len__(self) -> int:
        return len(self.strings)


class TraceColumns:
    """One trace as parallel int64 columns plus interned string tables.

    Columns are index-aligned: row ``i`` across all columns is one event.
    Instances are treated as immutable; transforming operations
    (:meth:`take`, :meth:`replace`) return new views/copies.
    """

    __slots__ = (
        "time",
        "thread",
        "kind",
        "eid",
        "seq",
        "iteration",
        "sync_index",
        "overhead",
        "sync_var",
        "label",
        "sync_var_table",
        "label_table",
    )

    def __init__(
        self,
        *,
        time,
        thread,
        kind,
        eid,
        seq,
        iteration,
        sync_index,
        overhead,
        sync_var,
        label,
        sync_var_table: Sequence[str],
        label_table: Sequence[str],
    ):
        given = {
            "time": time, "thread": thread, "kind": kind, "eid": eid,
            "seq": seq, "iteration": iteration, "sync_index": sync_index,
            "overhead": overhead, "sync_var": sync_var, "label": label,
        }
        n = len(time)
        for name, raw in given.items():
            col = np.ascontiguousarray(raw, dtype=np.int64)
            if len(col) != n:
                raise ValueError(
                    f"column {name!r} has {len(col)} rows, expected {n}"
                )
            setattr(self, name, col)
        self.sync_var_table = tuple(sync_var_table)
        self.label_table = tuple(label_table)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_events(cls, events: Sequence[TraceEvent]) -> "TraceColumns":
        """Pack an event sequence into columns (one pass, O(n))."""
        n = len(events)
        cols = {name: np.empty(n, dtype=np.int64) for name in COLUMN_NAMES}
        sync_vars = StringTable()
        labels = StringTable()
        t, th, k, ei, sq, it, si, ov, sv, lb = (
            cols["time"], cols["thread"], cols["kind"], cols["eid"],
            cols["seq"], cols["iteration"], cols["sync_index"],
            cols["overhead"], cols["sync_var"], cols["label"],
        )
        kind_code = KIND_CODE
        for i, e in enumerate(events):
            t[i] = e.time
            th[i] = e.thread
            k[i] = kind_code[e.kind]
            ei[i] = e.eid
            sq[i] = e.seq
            it[i] = NONE_SENTINEL if e.iteration is None else _checked_optional(
                e.iteration, "iteration", i
            )
            si[i] = NONE_SENTINEL if e.sync_index is None else _checked_optional(
                e.sync_index, "sync_index", i
            )
            ov[i] = e.overhead
            sv[i] = sync_vars.intern(e.sync_var)
            lb[i] = labels.intern(e.label if e.label else None)
        return cls(
            sync_var_table=sync_vars.strings, label_table=labels.strings, **cols
        )

    @classmethod
    def empty(cls) -> "TraceColumns":
        return cls.from_events([])

    # -- container protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self.time)

    # -- materialization ---------------------------------------------------
    def event(self, i: int) -> TraceEvent:
        """Materialize row ``i`` as a :class:`TraceEvent`."""
        iteration = int(self.iteration[i])
        sync_index = int(self.sync_index[i])
        sv = int(self.sync_var[i])
        lb = int(self.label[i])
        return TraceEvent(
            time=int(self.time[i]),
            thread=int(self.thread[i]),
            kind=KIND_LIST[int(self.kind[i])],
            eid=int(self.eid[i]),
            seq=int(self.seq[i]),
            iteration=None if iteration == NONE_SENTINEL else iteration,
            sync_index=None if sync_index == NONE_SENTINEL else sync_index,
            sync_var=None if sv < 0 else self.sync_var_table[sv],
            label="" if lb < 0 else self.label_table[lb],
            overhead=int(self.overhead[i]),
        )

    def to_events(self) -> list[TraceEvent]:
        """Materialize every row (batched array->list conversion first)."""
        kinds = KIND_LIST
        sv_table = self.sync_var_table
        lb_table = self.label_table
        none = NONE_SENTINEL
        return [
            TraceEvent(
                time=t,
                thread=th,
                kind=kinds[k],
                eid=ei,
                seq=sq,
                iteration=None if it == none else it,
                sync_index=None if si == none else si,
                sync_var=None if sv < 0 else sv_table[sv],
                label="" if lb < 0 else lb_table[lb],
                overhead=ov,
            )
            for t, th, k, ei, sq, it, si, ov, sv, lb in zip(
                self.time.tolist(), self.thread.tolist(), self.kind.tolist(),
                self.eid.tolist(), self.seq.tolist(), self.iteration.tolist(),
                self.sync_index.tolist(), self.overhead.tolist(),
                self.sync_var.tolist(), self.label.tolist(),
            )
        ]

    def iter_events(self) -> Iterator[TraceEvent]:
        for i in range(len(self)):
            yield self.event(i)

    # -- transforms --------------------------------------------------------
    def take(self, indices) -> "TraceColumns":
        """Row subset/permutation (numpy fancy indexing; string tables shared)."""
        return self.replace(
            **{name: getattr(self, name)[indices] for name in COLUMN_NAMES}
        )

    def slice(self, start: int, stop: int) -> "TraceColumns":
        """Contiguous row range ``[start, stop)`` as a new ``TraceColumns``.

        Unlike :meth:`take` with an index array, this uses basic numpy
        slicing, so the chunk writer and streaming reader share the parent
        buffers instead of copying (1-D contiguous slices survive the
        ``ascontiguousarray`` in ``__init__`` without a copy).
        """
        return self.replace(
            **{name: getattr(self, name)[start:stop] for name in COLUMN_NAMES}
        )

    def replace(self, **overrides) -> "TraceColumns":
        """Copy with some columns (or tables) swapped out."""
        kwargs = {name: getattr(self, name) for name in COLUMN_NAMES}
        kwargs["sync_var_table"] = self.sync_var_table
        kwargs["label_table"] = self.label_table
        kwargs.update(overrides)
        return TraceColumns(**kwargs)

    # -- ordering ----------------------------------------------------------
    def is_sorted(self) -> bool:
        """True if rows are ordered by ``(time, seq)`` (vectorized O(n))."""
        if len(self) < 2:
            return True
        dt = np.diff(self.time)
        if np.any(dt < 0):
            return False
        ties = dt == 0
        if not np.any(ties):
            return True
        # ``>= 0`` (not ``> 0``): the object path's sortedness probe uses
        # ``(time, seq) <= (time, seq)``, so duplicate (time, seq) pairs
        # count as sorted there.  Requiring strictly increasing seq here
        # would send only the columnar path through a re-sort and the two
        # backends could disagree on event order for such traces.
        dseq = np.diff(self.seq)
        return bool(np.all(dseq[ties] >= 0))

    def sorted_by_time_seq(self) -> "TraceColumns":
        """Rows reordered by ``(time, seq)``; self if already sorted."""
        if self.is_sorted():
            return self
        return self.take(np.lexsort((self.seq, self.time)))

    def stamped_seq(self) -> "TraceColumns":
        """Time-sorted copy with ``seq`` = row index (normalization path).

        Mirrors the object-path rule: preserve the given order among equal
        timestamps (stable sort by time), then stamp fresh seq numbers.
        """
        time = self.time
        if len(time) > 1 and np.any(np.diff(time) < 0):
            out = self.take(np.argsort(time, kind="stable"))
        else:
            out = self
        return out.replace(seq=np.arange(len(time), dtype=np.int64))

    # -- grouping ----------------------------------------------------------
    def thread_order(self):
        """(sorted thread ids, per-thread row-index arrays).

        Grouping is a stable argsort on the ``thread`` column plus
        boundary slicing, so within each thread the rows keep the storage
        (total) order — exactly the thread-local program order when the
        columns are ``(time, seq)``-sorted.
        """
        order = np.argsort(self.thread, kind="stable")
        sorted_threads = self.thread[order]
        if len(sorted_threads) == 0:
            return [], []
        boundaries = np.flatnonzero(np.diff(sorted_threads)) + 1
        groups = np.split(order, boundaries)
        ids = [int(sorted_threads[0])] + [
            int(sorted_threads[b]) for b in boundaries
        ]
        return ids, groups

    # -- comparisons (tests / round-trip checks) ---------------------------
    def equals(self, other: "TraceColumns") -> bool:
        """Row-for-row event equality (string tables may be permuted)."""
        if len(self) != len(other):
            return False
        for name in ("time", "thread", "kind", "eid", "seq", "iteration",
                     "sync_index", "overhead"):
            if not np.array_equal(getattr(self, name), getattr(other, name)):
                return False
        for name, table in (("sync_var", "sync_var_table"),
                            ("label", "label_table")):
            mine, theirs = getattr(self, name), getattr(other, name)
            my_t, their_t = getattr(self, table), getattr(other, table)
            for a, b in zip(mine.tolist(), theirs.tolist()):
                va = None if a < 0 else my_t[a]
                vb = None if b < 0 else their_t[b]
                if va != vb:
                    return False
        return True


def kind_code_mask(kind_col, *kinds: EventKind):
    """Boolean mask of rows whose kind is one of ``kinds``."""
    codes = [KIND_CODE[k] for k in kinds]
    mask = kind_col == codes[0]
    for code in codes[1:]:
        mask |= kind_col == code
    return mask


def overhead_table(costs) -> "npt.NDArray":
    """Per-kind-code overhead lookup array for vectorized cost removal.

    ``costs`` is an :class:`~repro.instrument.costs.InstrumentationCosts`;
    indexing the result with a ``kind`` column yields each event's probe
    overhead.
    """
    return np.array(
        [costs.overhead_for(k) for k in KIND_LIST], dtype=np.int64
    )
