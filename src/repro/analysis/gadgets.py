"""R4 — ERIM-style gate-write gadget scan over the simulated API stream.

ERIM's binary inspection rejects any executable WRPKRU occurrence that is
not immediately followed by the sanctioned permission check; everything
else is a gadget an attacker could jump to and grant itself access. The
simulation's privileged gate writes are declared *per isolation backend*
(:func:`repro.memory.backends.gate_idiom_table`): the MPK backend's WRPKRU
spellings (the :class:`~repro.memory.mpk.PkruRegister` write surface —
``write``/``write_prepared``/``grant``/``revoke``/``close_all``), CHERI's
capability installs (``CapabilityGate`` / ``cap_gate`` receivers) and
SFI's mask setup (``SfiMaskGate`` / ``mask_gate``). The scan walks every
call site whose receiver resolves to a gate register of *any* registered
backend and demands it sit inside the *entry-gate sequence*:

* the enclosing function brackets the write with the context stack — a
  ``contexts.push(...)`` or ``contexts.pop(...)`` call appears lexically
  **before** the write (the ``sigsetjmp`` analogue precedes the PKRU
  derivation on entry, and the context pop precedes the restore on exit);
  this also covers the re-entry cache's replay of ``Domain.entry_gate``
  through ``write_prepared``, which happens only after the context push; or
* the enclosing function is only reachable from such a gate — computed as
  the same-module call closure of gate functions (e.g.
  ``SdradRuntime._apply_domain_gate``, called from ``execute`` between
  push and pop); or
* the write is a micro-op of a gate register class itself (the register
  *is* the instruction; its callers are what need gating); or
* the function carries an explicit ``# sdradlint: gate`` annotation on
  its ``def`` line — the audited-by-hand escape hatch.

Anything else is reported: an unguarded PKRU write is the simulated
equivalent of a stray WRPKRU gadget.

Generated accessor closures (the access-plan factories of
:mod:`repro.memory.plans`) sharpen one edge of the closure rule: a nested
function whose *name escapes* its definer — returned, stored into an
attribute like ``plan.load = load``, or bound into a container — outlives
the gate it was compiled inside and runs in whatever context later
invokes it. Such a closure must therefore NOT inherit guarding from a
gated encloser, even if the encloser also calls it once inside the gate:
a PKRU write captured in an escaping closure is a *callable* WRPKRU
gadget (ERIM's indirect-jump case). Plan accessor closures stay clean
precisely because they guard on a validity cell instead of touching the
register.
"""

from __future__ import annotations

import ast
from typing import Optional

from ..memory.backends import gate_idiom_table
from .findings import Finding
from .model import ModuleModel, call_func_name, call_receiver_path

#: The union of every registered backend's gate idiom — the substrates
#: declare their own privileged spellings; R4 only enforces the bracket.
_IDIOMS = gate_idiom_table()

#: The gate write surface (WRPKRU / capability install / mask setup
#: spellings). The historical name is kept: R4 consumers imported it.
PKRU_WRITE_CALLS = frozenset(_IDIOMS.write_calls)

#: Classes whose own methods are the register micro-ops, not call sites.
REGISTER_CLASSES = frozenset(_IDIOMS.register_classes)

#: Receiver spellings that resolve to a gate (exact segment or suffix).
GATE_RECEIVER_NAMES = frozenset(_IDIOMS.receiver_names)

_RECEIVER_SUFFIXES = tuple(f"_{name}" for name in sorted(GATE_RECEIVER_NAMES))


def _is_pkru_receiver(path: Optional[str]) -> bool:
    """Does a dotted receiver path resolve to an isolation gate?"""
    if path is None:
        return False
    return any(
        seg in GATE_RECEIVER_NAMES or seg.endswith(_RECEIVER_SUFFIXES)
        for seg in path.split(".")
    )


def _is_gate_call(call: ast.Call) -> bool:
    """A context-stack push/pop — the entry-gate bracket."""
    if call_func_name(call) not in ("push", "pop"):
        return False
    recv = call_receiver_path(call)
    return recv is not None and recv.split(".")[-1] == "contexts"


def _called_names(node: ast.AST) -> set:
    """Bare names of functions/methods called inside ``node``."""
    names = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            name = call_func_name(call)
            if name is not None:
                names.add(name)
    return names


def _escaped_closures(model: ModuleModel) -> set:
    """Names of nested functions whose value escapes their definer.

    A nested ``def`` referenced other than as the target of a direct call
    (returned, assigned to an attribute/container, passed along) outlives
    the defining call — the plan-factory shape, where generated accessor
    closures are bound to ``plan.load``/``plan.store`` and invoked from
    arbitrary later contexts. Escaping closures must carry their own gate:
    they cannot inherit one from the function that built them.
    """
    escaped = set()
    for info in model.functions:
        node = info.node
        nested = {
            child.name
            for child in ast.walk(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not node
        }
        if not nested:
            continue
        direct_call_funcs = {
            id(sub.func)
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
        }
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and sub.id in nested
                and id(sub) not in direct_call_funcs
            ):
                escaped.add(sub.id)
    return escaped


def check(model: ModuleModel) -> list:
    """Run R4 over ``model``."""
    # Pass 1: direct gates (functions containing a contexts.push/pop) and
    # their first gate-call line, plus explicitly annotated gates.
    gate_first_line: dict[str, int] = {}
    annotated: set = set()
    for info in model.functions:
        node = info.node
        def_lines = range(node.lineno, node.body[0].lineno + 1)
        if any(line in model.gate_lines for line in def_lines):
            annotated.add(node.name)
        for call in model.iter_calls(node):
            if _is_gate_call(call):
                line = gate_first_line.get(node.name)
                if line is None or call.lineno < line:
                    gate_first_line[node.name] = call.lineno

    # Pass 2: closure — functions called (by bare name) from a gate or a
    # closure member are themselves guarded in full. Escaping closures are
    # exempt from propagation: even when a gated factory calls one while
    # building it, the escaped value runs post-gate (see module docstring).
    escaped = _escaped_closures(model)
    guarded_fully: set = set(annotated)
    frontier = set(gate_first_line) | annotated
    seen = set(frontier)
    by_name = {info.node.name: info for info in model.functions}
    while frontier:
        next_frontier = set()
        for name in frontier:
            info = by_name.get(name)
            if info is None:
                continue
            for callee in _called_names(info.node):
                if callee in by_name and callee not in seen and callee not in escaped:
                    seen.add(callee)
                    guarded_fully.add(callee)
                    next_frontier.add(callee)
        frontier = next_frontier

    # Pass 3: the scan itself.
    findings: list[Finding] = []
    for info in model.functions:
        node = info.node
        if info.class_name in REGISTER_CLASSES:
            continue
        for call in model.iter_calls(node):
            name = call_func_name(call)
            if name not in PKRU_WRITE_CALLS:
                continue
            if not _is_pkru_receiver(call_receiver_path(call)):
                continue
            if node.name in guarded_fully:
                continue
            gate_line = gate_first_line.get(node.name)
            if gate_line is not None and gate_line <= call.lineno:
                continue
            where = (
                "before the entry gate (contexts.push) in the same function"
                if gate_line is not None
                else "outside any entry-gate sequence"
            )
            findings.append(
                Finding(
                    rule="R4",
                    path=model.path,
                    line=call.lineno,
                    col=call.col_offset,
                    qualname=info.qualname,
                    message=(
                        f"PKRU write {name}() {where} — an unguarded "
                        f"WRPKRU gadget (ERIM); move it behind the "
                        f"context push/pop bracket or annotate the "
                        f"audited gate with '# sdradlint: gate'"
                    ),
                )
            )
    return findings
