"""Composable vectorized queries over traces.

A query is a conjunction of column :class:`Predicate`\\ s (plus an
optional group-by aggregation) evaluated with numpy masks over
:class:`~repro.trace.columnar.TraceColumns` — either a whole in-memory
trace or, for chunked ``.rpt`` v3 files, one chunk at a time through
:class:`~repro.trace.stream.ChunkReader` with *predicate pushdown*:
chunks whose per-column min/max statistics cannot satisfy the
conjunction are skipped without reading their bytes (the
``query.chunks_pruned`` obs counter), and scanned chunks decode only the
columns the query touches.

Where-expression grammar (the CLI's ``--where``)::

    expr   := term (" and " term)*
    term   := column op value
    op     := == | != | < | <= | > | >=
    value  := integer | none | 'quoted string' | bare-string

``kind`` compares against event-kind names (``advance``, ``awaitE``,
...), ``sync_var``/``label`` against their string values, and
``iteration``/``sync_index`` accept ``none`` for the missing value.
Only ``==``/``!=`` apply to strings and kinds.  Ordering comparisons on
optional columns match non-``none`` rows only, while ``!= <int>``
matches ``none`` rows too (Python's ``None != 3`` semantics).

Semantics note: a v3 file written before chunk statistics carried the
``has_none`` flag (see :data:`repro.trace.binio.OPTIONAL_STAT_COLUMNS`)
has sentinel-poisoned bounds on the optional columns; pushdown detects
the missing flag and simply never prunes on those columns for such
files — results are unchanged, only the skip rate drops.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.obs import core as obs
from repro.trace import columnar as _columnar
from repro.trace.columnar import COLUMN_NAMES, NONE_SENTINEL, TraceColumns
from repro.trace.events import KIND_LIST, EventKind, kind_from_value
from repro.trace.trace import Trace, TraceError

OPS = ("==", "!=", "<", "<=", ">", ">=")

_STRING_COLUMNS = frozenset({"sync_var", "label"})
_OPTIONAL_COLUMNS = frozenset({"iteration", "sync_index"})
_EQUALITY_ONLY = _STRING_COLUMNS | {"kind"}

#: Columns a ``group_by`` may name (low-cardinality / identity columns).
GROUP_COLUMNS = ("thread", "kind", "eid", "sync_var", "label", "iteration")


class QueryError(TraceError):
    """Raised for malformed queries (bad column, op, or value)."""


@dataclass(frozen=True)
class Predicate:
    """One ``column op value`` filter term."""

    column: str
    op: str
    value: Union[int, str, None]

    def __post_init__(self):
        if self.column not in COLUMN_NAMES:
            raise QueryError(
                f"unknown query column {self.column!r}; "
                f"expected one of {', '.join(COLUMN_NAMES)}"
            )
        if self.op not in OPS:
            raise QueryError(
                f"unknown query operator {self.op!r}; "
                f"expected one of {', '.join(OPS)}"
            )
        value = self.value
        if isinstance(value, EventKind):
            object.__setattr__(self, "value", value.value)
            value = self.value
        if self.column in _EQUALITY_ONLY and self.op not in ("==", "!="):
            raise QueryError(
                f"column {self.column!r} only supports == and !="
            )
        if self.column == "kind":
            if not isinstance(value, str):
                raise QueryError(
                    f"kind compares against an event-kind name, got {value!r}"
                )
            try:
                kind_from_value(value)
            except ValueError as exc:
                raise QueryError(str(exc)) from None
        elif self.column in _STRING_COLUMNS:
            if value is not None and not isinstance(value, str):
                raise QueryError(
                    f"column {self.column!r} compares against a string "
                    f"(or none), got {value!r}"
                )
        elif self.column in _OPTIONAL_COLUMNS:
            if value is None:
                if self.op not in ("==", "!="):
                    raise QueryError(
                        f"{self.column} {self.op} none is not defined; "
                        "use == none or != none"
                    )
            elif not isinstance(value, int) or isinstance(value, bool):
                raise QueryError(
                    f"column {self.column!r} compares against an integer "
                    f"or none, got {value!r}"
                )
        elif not isinstance(value, int) or isinstance(value, bool):
            raise QueryError(
                f"column {self.column!r} compares against an integer, "
                f"got {value!r}"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        value = "none" if self.value is None else self.value
        return f"{self.column} {self.op} {value}"


_TERM_RE = re.compile(r"^\s*(\w+)\s*(==|!=|<=|>=|<|>)\s*(.+?)\s*$")
_INT_RE = re.compile(r"^-?\d+$")


def parse_where(text: str) -> tuple[Predicate, ...]:
    """Parse a ``"col op value and col op value ..."`` conjunction."""
    terms = re.split(r"\s+and\s+", text.strip())
    preds = []
    for term in terms:
        if not term:
            continue
        m = _TERM_RE.match(term)
        if m is None:
            raise QueryError(
                f"cannot parse query term {term!r}; "
                "expected 'column op value'"
            )
        column, op, raw = m.group(1), m.group(2), m.group(3)
        if raw[0] in "=<>":  # e.g. "thread === 3" splitting as == / "= 3"
            raise QueryError(
                f"cannot parse query term {term!r}; "
                "expected 'column op value'"
            )
        if raw.lower() == "none":
            value: Union[int, str, None] = None
        elif _INT_RE.match(raw):
            value = int(raw)
        elif len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
            value = raw[1:-1]
        else:
            value = raw
        # String-typed columns keep numeric-looking values as strings.
        if column in _STRING_COLUMNS and isinstance(value, int):
            value = raw
        preds.append(Predicate(column, op, value))
    return tuple(preds)


def _as_predicates(where) -> tuple[Predicate, ...]:
    if where is None:
        return ()
    if isinstance(where, str):
        return parse_where(where)
    if isinstance(where, Predicate):
        return (where,)
    out: list[Predicate] = []
    for item in where:
        if isinstance(item, str):
            out.extend(parse_where(item))
        elif isinstance(item, Predicate):
            out.append(item)
        else:
            raise QueryError(f"not a predicate: {item!r}")
    return tuple(out)


# -------------------------------------------------------- value resolution
#: Interned index that matches no row (a string absent from the table).
_NO_MATCH = -2


def _resolve_value(pred: Predicate, sync_var_table, label_table):
    """The int64 the predicate compares against for a given source."""
    if pred.column == "kind":
        from repro.trace.events import KIND_CODE

        return KIND_CODE[kind_from_value(pred.value)]
    if pred.column in _STRING_COLUMNS:
        value = pred.value
        if value is None or (pred.column == "label" and value == ""):
            return -1
        table = sync_var_table if pred.column == "sync_var" else label_table
        try:
            return list(table).index(value)
        except ValueError:
            return _NO_MATCH
    if pred.column in _OPTIONAL_COLUMNS and pred.value is None:
        return NONE_SENTINEL
    return int(pred.value)


def _mask(np, pred: Predicate, arr, resolved: int):
    """Boolean row mask of one predicate over one column array."""
    if resolved == _NO_MATCH:
        # String absent from this trace's table: == matches nothing,
        # != matches everything.
        return np.full(len(arr), pred.op == "!=", dtype=bool)
    if pred.column in _OPTIONAL_COLUMNS and pred.value is not None:
        if pred.op == "==":
            return arr == resolved
        if pred.op == "!=":
            return arr != resolved  # None rows: None != v is True
        present = arr != NONE_SENTINEL
        if pred.op == "<":
            return present & (arr < resolved)
        if pred.op == "<=":
            return present & (arr <= resolved)
        if pred.op == ">":
            return present & (arr > resolved)
        return present & (arr >= resolved)
    if pred.op == "==":
        return arr == resolved
    if pred.op == "!=":
        return arr != resolved
    if pred.op == "<":
        return arr < resolved
    if pred.op == "<=":
        return arr <= resolved
    if pred.op == ">":
        return arr > resolved
    return arr >= resolved


def _may_match(pred: Predicate, stats: Optional[dict], resolved: int) -> bool:
    """False only if the chunk's stats *prove* no row can match."""
    if stats is None:
        return True
    if resolved == _NO_MATCH:
        return pred.op == "!="
    lo, hi = stats.get("min"), stats.get("max")
    if pred.column in _OPTIONAL_COLUMNS:
        if "has_none" not in stats:
            return True  # pre-fix file: bounds are sentinel-poisoned
        has_none = bool(stats["has_none"])
        if pred.value is None:
            if pred.op == "==":
                return has_none
            return lo is not None  # != none needs a non-none row
        if pred.op == "!=":
            if has_none:
                return True
            return not (lo == hi == resolved)
        if lo is None:
            return False  # all-none chunk; ==/</... need a value
        return _interval_admits(pred.op, resolved, lo, hi)
    if lo is None or hi is None:
        return True
    if pred.op == "!=":
        return not (lo == hi == resolved)
    return _interval_admits(pred.op, resolved, int(lo), int(hi))


def _interval_admits(op: str, value: int, lo: int, hi: int) -> bool:
    if op == "==":
        return lo <= value <= hi
    if op == "<":
        return lo < value
    if op == "<=":
        return lo <= value
    if op == ">":
        return hi > value
    if op == ">=":
        return hi >= value
    return True


# ------------------------------------------------------------- aggregation
class GroupStats:
    """Per-group aggregates: count, time span, overhead sum."""

    __slots__ = ("count", "time_min", "time_max", "overhead")

    def __init__(self):
        self.count = 0
        self.time_min: Optional[int] = None
        self.time_max: Optional[int] = None
        self.overhead = 0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "time_min": self.time_min,
            "time_max": self.time_max,
            "overhead": self.overhead,
        }


def _fold_groups(np, groups: dict, keys, time, overhead) -> None:
    """Merge one chunk's selected rows into the running group table."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    counts = np.bincount(inverse, minlength=len(uniq))
    ov = np.bincount(inverse, weights=overhead, minlength=len(uniq))
    for g, key in enumerate(uniq.tolist()):
        stats = groups.get(key)
        if stats is None:
            stats = groups[key] = GroupStats()
        stats.count += int(counts[g])
        stats.overhead += int(ov[g])
        at = inverse == g
        t_lo, t_hi = int(time[at].min()), int(time[at].max())
        stats.time_min = (
            t_lo if stats.time_min is None else min(stats.time_min, t_lo)
        )
        stats.time_max = (
            t_hi if stats.time_max is None else max(stats.time_max, t_hi)
        )


def _render_group_key(column: str, key: int, sync_var_table, label_table):
    """Raw int64 group key -> user-facing value."""
    if column == "kind":
        return KIND_LIST[key].value
    if column == "sync_var":
        return None if key < 0 else sync_var_table[key]
    if column == "label":
        return "" if key < 0 else label_table[key]
    if column in _OPTIONAL_COLUMNS and key == NONE_SENTINEL:
        return None
    return key


# ------------------------------------------------------------------ result
class QueryResult:
    """Outcome of :func:`run_query`.

    ``events`` holds up to ``limit`` matching events (all of them when
    ``limit`` is None); ``truncated`` is True when an early-stop scan
    ended before the whole source was examined, in which case
    ``n_matched`` counts only the scanned portion.  ``groups`` maps
    rendered group keys to :class:`GroupStats` when ``group_by`` was
    given.  The chunk counters are meaningful for v3 file sources only.
    """

    __slots__ = (
        "n_source", "n_matched", "events", "truncated", "group_by",
        "groups", "chunks_scanned", "chunks_pruned",
    )

    def __init__(self, n_source, n_matched, events, truncated,
                 group_by, groups, chunks_scanned, chunks_pruned):
        self.n_source = n_source
        self.n_matched = n_matched
        self.events = events
        self.truncated = truncated
        self.group_by = group_by
        self.groups = groups
        self.chunks_scanned = chunks_scanned
        self.chunks_pruned = chunks_pruned


# ------------------------------------------------------------------ driver
def run_query(
    source,
    *,
    where=(),
    group_by: Optional[str] = None,
    limit: Optional[int] = None,
    stop_after_limit: bool = False,
) -> QueryResult:
    """Evaluate a query against a trace, columns, reader, or ``.rpt`` path.

    ``source`` may be a :class:`Trace`, a :class:`TraceColumns`, an open
    :class:`~repro.trace.stream.ChunkReader`, or a path (v3 files are
    streamed chunk-at-a-time with pushdown; anything else is read fully
    and queried in memory).  ``where`` is a grammar string, a
    :class:`Predicate`, or an iterable of either.  ``limit`` bounds the
    number of materialized events (None = all, 0 = none); with
    ``stop_after_limit`` the scan stops as soon as the limit is reached
    — the head-dump mode that reads only the first chunks of a file.
    """
    from repro.trace.stream import ChunkReader

    preds = _as_predicates(where)
    if group_by is not None and group_by not in GROUP_COLUMNS:
        raise QueryError(
            f"cannot group by {group_by!r}; "
            f"expected one of {', '.join(GROUP_COLUMNS)}"
        )
    if isinstance(source, (str, Path)):
        if _is_v3_file(source):
            with ChunkReader(source) as reader:
                return run_query(
                    reader, where=preds, group_by=group_by,
                    limit=limit, stop_after_limit=stop_after_limit,
                )
        from repro.trace.io import read_trace

        source = read_trace(source)
    if isinstance(source, Trace):
        source = source.columns
    np = _columnar.np

    if isinstance(source, TraceColumns):
        chunk_iter = [(None, source)]
        sv_table, lb_table = source.sync_var_table, source.label_table
        n_source = len(source)
        chunked = False
    elif isinstance(source, ChunkReader):
        chunk_iter = None  # built below; needs pushdown
        sv_table, lb_table = source.sync_var_table, source.label_table
        n_source = source.n_events
        chunked = True
    else:
        raise QueryError(f"cannot query {type(source).__name__} objects")

    resolved = {
        pred: _resolve_value(pred, sv_table, lb_table) for pred in preds
    }
    mask_columns = sorted({pred.column for pred in preds})
    group_columns = sorted(
        {group_by, "time", "overhead"} - {None}
    ) if group_by else []

    groups: Optional[dict] = {} if group_by else None
    events: list = []
    n_matched = 0
    truncated = False
    chunks_scanned = 0
    chunks_pruned = 0
    want_events = limit is None or limit > 0

    with obs.span(
        "trace.query",
        backend="streaming-file" if chunked else "columnar",
        n_events=n_source,
    ):
        if not chunked:
            for _info, cols in chunk_iter:
                n_matched, truncated = _scan_chunk(
                    np, cols, preds, resolved, group_by, groups,
                    events, limit, stop_after_limit, want_events,
                    n_matched,
                )
        else:
            reader = source
            for i, info in enumerate(reader.chunk_index):
                if truncated:
                    break
                stats = info.get("cols", {})
                if any(
                    not _may_match(pred, stats.get(pred.column), resolved[pred])
                    for pred in preds
                ):
                    chunks_pruned += 1
                    obs.count("query.chunks_pruned")
                    continue
                chunks_scanned += 1
                obs.count("query.chunks_scanned")
                blob = reader.read_blob(i)
                need = set(mask_columns) | set(group_columns)
                arrays = _binio_decode(
                    blob, reader.compressor,
                    sorted(need) if (need and not want_events) else None,
                )
                cols = _chunk_columns(np, arrays, sv_table, lb_table,
                                      int(info["rows"]))
                n_matched, truncated = _scan_chunk(
                    np, cols, preds, resolved, group_by, groups,
                    events, limit, stop_after_limit, want_events,
                    n_matched,
                )

    rendered = None
    if groups is not None:
        rendered = {
            _render_group_key(group_by, key, sv_table, lb_table): stats
            for key, stats in sorted(groups.items())
        }
    return QueryResult(
        n_source, n_matched, events, truncated,
        group_by, rendered, chunks_scanned, chunks_pruned,
    )


def _binio_decode(blob, compressor, columns):
    from repro.trace import binio as _binio

    return _binio.decode_chunk(blob, compressor, columns=columns)


class _ProjectedColumns:
    """Duck-typed column access over a partial (projected) decode."""

    def __init__(self, arrays, sv_table, lb_table, rows):
        self._arrays = arrays
        self.sync_var_table = sv_table
        self.label_table = lb_table
        self._rows = rows

    def __len__(self):
        return self._rows

    def __getattr__(self, name):
        try:
            return self._arrays[name]
        except KeyError:
            raise AttributeError(name) from None


def _chunk_columns(np, arrays, sv_table, lb_table, rows):
    arrays = dict(arrays)
    arrays.pop("rows", None)
    if len(arrays) == len(COLUMN_NAMES):
        return TraceColumns(
            sync_var_table=sv_table, label_table=lb_table, **arrays
        )
    return _ProjectedColumns(arrays, sv_table, lb_table, rows)


def _scan_chunk(
    np, cols, preds, resolved, group_by, groups,
    events, limit, stop_after_limit, want_events, n_matched,
):
    """Evaluate the conjunction over one chunk; fold groups and events.

    Returns the updated ``(n_matched, truncated)``.
    """
    n = len(cols)
    if n == 0:
        return n_matched, False
    mask = None
    for pred in preds:
        part = _mask(np, pred, getattr(cols, pred.column), resolved[pred])
        mask = part if mask is None else (mask & part)
        if not mask.any():
            return n_matched, False
    at = np.arange(n) if mask is None else np.flatnonzero(mask)
    if len(at) == 0:
        return n_matched, False
    n_matched += len(at)
    if groups is not None:
        _fold_groups(
            np, groups,
            getattr(cols, group_by)[at],
            cols.time[at],
            cols.overhead[at],
        )
    truncated = False
    if want_events:
        room = None if limit is None else limit - len(events)
        take = at if room is None else at[:room]
        if len(take) and isinstance(cols, TraceColumns):
            events.extend(cols.take(take).to_events())
        elif len(take):  # pragma: no cover - defensive; full decode above
            raise QueryError(
                "internal error: event materialization over a projection"
            )
        if (
            stop_after_limit
            and limit is not None
            and len(events) >= limit
        ):
            truncated = True
    return n_matched, truncated


def _is_v3_file(path: Union[str, Path]) -> bool:
    from repro.trace import binio as _binio

    try:
        with open(path, "rb") as fh:
            return fh.read(len(_binio.MAGIC_V3)) == _binio.MAGIC_V3
    except OSError:
        return False
