"""sdradlint: static verification of SDRaD compartment invariants.

The runtime only notices a broken invariant at fault time — a leaked domain
pointer, an unpopped stack frame, a side effect a rewind cannot undo. ERIM
(Vahldiek-Oberwagner et al., USENIX Security '19) showed that PKU-safety
properties can instead be enforced *statically* by scanning for unsafe
WRPKRU occurrences, and rule-based verification frameworks like Klever
demonstrate that API-contract checking scales to whole codebases. This
package brings both ideas to the reproduction: an ``ast``-based analyzer
that checks seven domain-safety rules over the repo's own sources before a
single simulated request runs.

Since PR 9 the analyzer is *whole-program*: a project-wide call graph
(:mod:`.callgraph`) with per-function effect/escape summaries computed
bottom-up over SCCs (:mod:`.summaries`) lets R2/R3 see through helper
calls, powers the purely interprocedural rules R5–R7, and annotates every
cross-function finding with a call-path witness (``f -> g -> h``, one
file:line per hop). An incremental cache (:mod:`.cache`) keyed by file
content hash keeps warm runs fast — and byte-identical to ``--no-cache``,
because the whole-program layer is always recomputed from cached facts.

Rules
-----

R1  **enter/exit pairing** — every ``push_frame`` (and ``contexts.push``)
    must be matched by its pop on *all* control-flow paths, the structural
    analogue of "every ``sdrad_enter`` has a ``sdrad_exit``".
R2  **domain-heap escape** — no value aliasing a domain's heap (raw
    ``malloc``/``alloca`` addresses, ``load_view`` views) may escape a
    domain body to module globals, object attributes or the return value
    without being materialised (``bytes(...)``) or marshalled through the
    ``ffi.marshal``/``ffi.serialization`` API — including sinks reached
    through a helper the body hands the value to.
R3  **rewind-unsafe side effects** — a rewindable domain body must not
    touch files, sockets, processes or module globals: a rewind discards
    the domain's memory but cannot undo an external write. Effects buried
    any number of helper calls deep report at the body's call site with a
    witness to the actual effect.
R4  **WRPKRU gadgets** — ERIM-style scan of the simulated instruction/API
    stream: every PKRU-write site must sit inside the entry-gate sequence
    (a function that brackets the write with ``contexts.push``/``pop``, or
    one only reachable from such a gate), including the re-entry cache's
    replay of a domain's entry gate value.
R5  **interprocedural heap escape** — a helper *returns* a domain-memory
    alias the body then leaks, stores a fresh alias into a caller-owned
    argument (out-param escape), or leaks an alias to trusted state
    itself while reachable from a domain body.
R6  **backend portability** — MPK-only idioms (``PkruRegister``/keyvirt/
    pkey-count assumptions, raw gate-state pokes) reachable from code not
    guarded by a backend capability check; per-backend gate spellings come
    from :func:`repro.memory.backends.gate_idiom_table`.
R7  **FFI boundary integrity** — every ``repro.ffi`` sandbox entry must
    declare an alternate action (``fallback=``/``retries=``), marshal
    through ``repro.ffi.serialization`` rather than the raw copy
    primitives, and never leak the raw domain handle across the boundary.

Usage::

    python -m repro.analysis [paths] [--json | --format sarif]
                             [--baseline FILE] [--no-cache] [--changed-only]
    # or: make lint-domains

Per-rule suppressions use ``# sdradlint: ignore[R2]`` on the offending
line (or the ``def`` line to cover a whole function), and a baseline file
keeps pre-existing findings from blocking CI.
"""

from .findings import Finding, Hop, Severity
from .runner import LintResult, lint_paths, lint_source

__all__ = [
    "Finding",
    "Hop",
    "Severity",
    "LintResult",
    "lint_paths",
    "lint_source",
    "RULES",
]

#: Rule id -> short description (the analyzer's public contract).
RULES = {
    "R1": "unpaired domain enter/exit (push_frame/pop_frame, contexts.push/pop)",
    "R2": "domain-heap value escapes the domain body unmarshalled",
    "R3": "rewind-unsafe side effect inside a rewindable domain body",
    "R4": "PKRU write outside the entry-gate sequence (WRPKRU gadget)",
    "R5": "domain-heap value escapes interprocedurally (helper return/out-param)",
    "R6": "MPK-only idiom reachable without a backend capability check",
    "R7": "FFI sandbox entry violates the boundary contract (marshal/fallback/handle)",
}
