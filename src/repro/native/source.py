"""C source generation for the compiled sync-replay kernel.

The native backend moves exactly one thing out of Python: the special-event
worklist sweep of :class:`repro.analysis.eventbased_columnar._ColumnarResolver`
(the scalar replay loop that visits ``awaitE``/``lockAcq``/``semAcq``/
``barrier_exit``/``loop_begin`` events until a fixed point).  Everything the
kernel consumes — per-thread prefix sums, special positions, the sync-pairing
index arrays — is precomputed in numpy and handed over as typed ``int64``
pointers, following the xobjects pattern of describing every kernel argument
as a ``("scalar" | "array", name)`` pair and generating the C signature and
the ctypes prototype from that one table.

The kernel never raises: structural errors are precomputed as per-special
flags, and the kernel *stops* at the first special the Python worklist would
have raised on (or at a deadlocked round) and reports which one.  The Python
wrapper then replays that single special through the interpreted resolver so
the exception type, message, and implicated events are byte-identical to the
``"columnar"`` and ``"object"`` backends.
"""

from __future__ import annotations

import hashlib

#: Exported symbol name.
KERNEL_NAME = "repro_resolve_worklist"

#: Rule codes dispatched by the kernel (must match the packer).
RULE_AWAIT_E = 0
RULE_LOCK_ACQ = 1
RULE_SEM_ACQ = 2
RULE_BARRIER_EXIT = 3
RULE_LOOP_BEGIN = 4

#: Kernel exit statuses.
STATUS_OK = 0
STATUS_DEADLOCK = 1
STATUS_ERROR = 2

#: ``dep_b`` sentinels for awaitE specials with no matching advance.
ADV_PROLOGUE = -1  # DOACROSS prologue await: satisfied by convention
ADV_MISSING = -2  # raises once the awaitB is resolved (parity with Python)

#: Kernel argument descriptions, xobjects-style: ``(kind, name)`` with kind
#: one of ``"scalar"`` (int64 by value), ``"in"`` (const int64 pointer) or
#: ``"out"`` (mutable int64 pointer).  Declaration order here *is* the call
#: order; the packer, the C signature and the ctypes prototype all derive
#: from this table, so they can never drift apart.
RESOLVE_ARGS: tuple[tuple[str, str], ...] = (
    ("scalar", "nthreads"),
    ("scalar", "total_events"),
    # per-thread tables
    ("in", "m"),             # [T] events per thread
    ("in", "nspec"),         # [T] specials per thread
    ("in", "spec_off"),      # [T] thread t's first index into spec_* arrays
    ("in", "o_off"),         # [T] thread t's first index into o_flat
    # per-special tables (thread-major, position order within a thread)
    ("in", "spec_pos"),      # [S] position within the thread
    ("in", "spec_rule"),     # [S] RULE_* code
    ("in", "spec_err"),      # [S] 1 -> raises the moment the worklist tries it
    ("in", "spec_prefix"),   # [S] P at the special's own position
    ("in", "spec_prev_prefix"),  # [S] P at position-1 (0 when position 0)
    ("in", "dep_a"),         # [S] first dependency row (rule-specific)
    ("in", "dep_b"),         # [S] second dependency row / sentinel
    ("in", "dep_c"),         # [S] third dependency row / sentinel
    ("in", "aux"),           # [S] loop_begin base value or anchor delta
    ("in", "arr_off"),       # [S] barrier arrivals: start into arrival_rows
    ("in", "arr_len"),       # [S] barrier arrivals: count
    ("in", "arrival_rows"),  # [A] flattened barrier-arrival storage rows
    # per-row tables (storage-row indexed)
    ("in", "row_prefix"),    # [N] per-thread prefix sum, scattered to rows
    ("in", "row_pos"),       # [N] position within the row's thread
    ("in", "row_tidx"),      # [N] thread index of the row
    ("in", "row_seg"),       # [N] segment index: specials at-or-before row
    # analysis constants
    ("scalar", "s_nowait"),
    ("scalar", "s_wait"),
    ("scalar", "lock_nowait"),
    ("scalar", "lock_handoff"),
    ("scalar", "barrier_release"),
    # worklist state (in/out) and result channel
    ("out", "o_flat"),       # [S+T] per-thread segment offsets, slot 0 = 0
    ("out", "ptr"),          # [T] resolved-special count per thread
    ("out", "reached"),      # [T] scan cursor per thread
    ("out", "out_state"),    # [1] global special index behind STATUS_ERROR
)

_C_TYPES = {
    "scalar": "int64_t {name}",
    "in": "const int64_t *{name}",
    "out": "int64_t *{name}",
}


def c_signature() -> str:
    """The kernel's C parameter list, generated from :data:`RESOLVE_ARGS`."""
    parts = [_C_TYPES[kind].format(name=name) for kind, name in RESOLVE_ARGS]
    return ",\n    ".join(parts)


# Per-rule resolution bodies.  Each snippet computes ``ta`` or sets
# ``ready = 0`` (dependency unresolved) / returns STATUS_ERROR (the Python
# replay will raise).  RESOLVED/VALUE mirror _ColumnarResolver._resolved and
# ._value exactly; comments cite the Python lines being replicated.
_RULE_BODIES = {
    RULE_AWAIT_E: """
            /* _resolve_await_end */
            {
                int64_t begin = dep_a[s];
                if (!RESOLVED(begin)) { ready = 0; break; }
                int64_t t_begin = VALUE(begin);
                int64_t adv = dep_b[s];
                if (adv == ADV_PROLOGUE) { ta = t_begin + s_nowait; break; }
                if (adv == ADV_MISSING) { out_state[0] = s; return STATUS_ERROR; }
                if (!RESOLVED(adv)) { ready = 0; break; }
                int64_t t_adv = VALUE(adv);
                ta = (t_adv <= t_begin) ? t_begin + s_nowait : t_adv + s_wait;
            }
            break;""",
    RULE_LOCK_ACQ: """
            /* _resolve_lock_acquire */
            {
                int64_t req = dep_a[s];
                if (!RESOLVED(req)) { ready = 0; break; }
                ta = VALUE(req) + lock_nowait;
                int64_t prev_rel = dep_b[s];
                if (prev_rel >= 0) {
                    if (!RESOLVED(prev_rel)) { ready = 0; break; }
                    int64_t handoff = VALUE(prev_rel) + lock_handoff;
                    if (handoff > ta) ta = handoff;
                }
            }
            break;""",
    RULE_SEM_ACQ: """
            /* _resolve_sem_acquire */
            {
                int64_t req = dep_a[s];
                if (!RESOLVED(req)) { ready = 0; break; }
                ta = VALUE(req) + lock_nowait;
                int64_t enabler = dep_b[s];
                if (enabler >= 0) {
                    if (!RESOLVED(enabler)) { ready = 0; break; }
                    int64_t cand = VALUE(enabler) + lock_handoff;
                    if (cand > ta) ta = cand;
                }
                int64_t prev_acq = dep_c[s];
                if (prev_acq >= 0) {
                    if (!RESOLVED(prev_acq)) { ready = 0; break; }
                    int64_t cand = VALUE(prev_acq);
                    if (cand > ta) ta = cand;
                }
            }
            break;""",
    RULE_BARRIER_EXIT: """
            /* _resolve_barrier_exit */
            {
                int64_t start = arr_off[s];
                int64_t count = arr_len[s];
                int64_t best = INT64_MIN;
                for (int64_t i = 0; i < count; i++) {
                    int64_t a = arrival_rows[start + i];
                    if (!RESOLVED(a)) { ready = 0; break; }
                    int64_t v = VALUE(a);
                    if (v > best) best = v;
                }
                if (!ready) break;
                ta = best + barrier_release;
            }
            break;""",
    RULE_LOOP_BEGIN: """
            /* loop_begin: chain from the initiator's pre-fork event */
            {
                int64_t anchor = dep_a[s];
                if (anchor < 0) { ta = aux[s]; break; }
                if (!RESOLVED(anchor)) { ready = 0; break; }
                ta = VALUE(anchor) + aux[s];
            }
            break;""",
}


def kernel_source() -> str:
    """The complete generated C translation unit."""
    rules = "".join(
        f"        case {code}:{body}\n"
        for code, body in sorted(_RULE_BODIES.items())
    )
    return f"""\
/* Generated by repro.native.source — do not edit by hand.
 *
 * Special-event worklist sweep of the event-based perturbation analysis.
 * This is a transliteration of _ColumnarResolver.run/_try_special
 * (src/repro/analysis/eventbased_columnar.py); any change there needs a
 * matching change in the rule bodies above and bumps the source hash, so
 * stale cached builds can never be loaded.
 */
#include <stdint.h>

#define STATUS_OK {STATUS_OK}
#define STATUS_DEADLOCK {STATUS_DEADLOCK}
#define STATUS_ERROR {STATUS_ERROR}
#define ADV_PROLOGUE {ADV_PROLOGUE}
#define ADV_MISSING {ADV_MISSING}

/* _ColumnarResolver._resolved: swept past by the row's thread cursor. */
#define RESOLVED(row) (row_pos[(row)] < reached[row_tidx[(row)]])
/* _ColumnarResolver._value: segment offset plus per-thread prefix. */
#define VALUE(row) \\
    (o_flat[o_off[row_tidx[(row)]] + row_seg[(row)]] + row_prefix[(row)])

int64_t {KERNEL_NAME}(
    {c_signature()})
{{
    int64_t remaining = total_events;
    while (remaining > 0) {{
        int64_t progress = 0;
        for (int64_t t = 0; t < nthreads; t++) {{
            for (;;) {{
                int64_t ns = nspec[t];
                int64_t nxt =
                    (ptr[t] < ns) ? spec_pos[spec_off[t] + ptr[t]] : m[t];
                /* Sweep the plain run up to the next special. */
                if (reached[t] < nxt) {{
                    progress += nxt - reached[t];
                    reached[t] = nxt;
                }}
                if (ptr[t] >= ns) break;
                int64_t s = spec_off[t] + ptr[t];
                if (spec_err[s]) {{ out_state[0] = s; return STATUS_ERROR; }}
                int ready = 1;
                int64_t ta = 0;
                switch (spec_rule[s]) {{
{rules}                default:
                    /* unknown rule: packer bug, surface as an error stop */
                    out_state[0] = s;
                    return STATUS_ERROR;
                }}
                if (!ready) break;
                /* _try_special tail: causal clamp against the thread
                 * predecessor, then the non-negative floor. */
                if (nxt > 0) {{
                    int64_t ta_pred =
                        o_flat[o_off[t] + ptr[t]] + spec_prev_prefix[s];
                    if (ta_pred > ta) ta = ta_pred;
                }}
                if (ta < 0) ta = 0;
                o_flat[o_off[t] + ptr[t] + 1] = ta - spec_prefix[s];
                ptr[t] += 1;
                reached[t] = nxt + 1;
                progress += 1;
            }}
        }}
        if (progress == 0) return STATUS_DEADLOCK;
        remaining -= progress;
    }}
    return STATUS_OK;
}}
"""


def source_digest() -> str:
    """SHA-256 of the generated source (half of the build-cache key)."""
    return hashlib.sha256(kernel_source().encode()).hexdigest()
