"""Shared AST model: parsed modules, suppressions, and the entry registry.

Every rule operates on a :class:`ModuleModel` — one parsed source file plus
the derived facts all four rules need:

* suppression comments (``# sdradlint: ignore[R1,R3]``), collected per line
  with ``def``-line suppressions extended over the whole function body;
* every function/method with its qualified name;
* the *domain-body registry*: which functions execute inside a rewindable
  domain. The registry is seeded from the entry signatures of
  ``repro.sdrad.api``/``repro.sdrad.runtime`` (``execute``,
  ``execute_unisolated``, ``execute_with_checkpoint``, ``sdrad_enter``) and
  ``repro.ffi.sandbox`` (``sandboxed``): a module-level function passed by
  name to one of those calls — or whose first parameter is annotated
  ``DomainHandle`` — is a domain body and is held to R2/R3.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterator, Optional

#: Entry-point call names seeded from SdradRuntime / SdradApi signatures.
#: The callable argument position is the index of the ``fn`` parameter.
ENTRY_CALLS = {
    "execute": 1,  # runtime.execute(udi, fn, *args)
    "execute_with_checkpoint": 1,  # runtime.execute_with_checkpoint(udi, fn, ..)
    "execute_unisolated": 0,  # runtime.execute_unisolated(fn, *args)
    "sdrad_enter": 1,  # api.sdrad_enter(udi, fn, *args)
}

#: Decorator/factory names seeded from the SDRaD-FFI sandbox signature.
SANDBOX_CALLS = {"sandboxed"}

#: First-parameter annotation that marks a function as a domain body.
HANDLE_ANNOTATION = "DomainHandle"

_SUPPRESS_RE = re.compile(r"#\s*sdradlint:\s*ignore\[([A-Za-z0-9,\s]+)\]")
_GATE_RE = re.compile(r"#\s*sdradlint:\s*gate\b")


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_func_name(call: ast.Call) -> Optional[str]:
    """Trailing attribute (or bare name) of the called expression."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def call_receiver_path(call: ast.Call) -> Optional[str]:
    """Dotted path of the receiver of a method call (``a.b`` for ``a.b.c()``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return dotted_name(func.value)
    return None


def _sandbox_decl(call: ast.Call) -> "SandboxDecl":
    """Extract the R7-relevant keywords from a ``sandboxed(...)`` call."""
    has_fallback = False
    has_retries = False
    wants_handle = False
    for kw in call.keywords:
        if kw.arg == "fallback":
            has_fallback = True
        elif kw.arg == "retries":
            value = kw.value
            has_retries = not (
                isinstance(value, ast.Constant) and not value.value
            )
        elif kw.arg == "wants_handle":
            value = kw.value
            wants_handle = not (
                isinstance(value, ast.Constant) and not value.value
            )
    return SandboxDecl(
        line=call.lineno,
        col=call.col_offset,
        has_fallback=has_fallback,
        has_retries=has_retries,
        wants_handle=wants_handle,
    )


@dataclass
class SandboxDecl:
    """The ``sandboxed(...)`` declaration site of an FFI sandbox entry."""

    line: int
    col: int
    #: Declared an alternate action (``fallback=`` keyword)?
    has_fallback: bool = False
    #: Declared transparent re-execution (``retries=`` non-zero)?
    has_retries: bool = False
    #: Receives the raw :class:`DomainHandle` (``wants_handle=True``)?
    wants_handle: bool = False


@dataclass
class FunctionInfo:
    """One function or method with the facts the rules consume."""

    node: ast.AST  # FunctionDef | AsyncFunctionDef
    qualname: str
    class_name: Optional[str]  # enclosing class, if a method
    is_domain_body: bool = False
    #: Why the registry classified it (for diagnostics/tests).
    domain_body_reason: Optional[str] = None
    #: Set when this function is an SDRaD-FFI sandbox entry (decorated
    #: with ``@sandboxed`` or passed to a ``sandboxed(...)`` factory).
    sandbox_decl: Optional[SandboxDecl] = None


@dataclass
class ModuleModel:
    """One parsed source file plus derived facts."""

    path: str
    source: str
    tree: ast.Module
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    gate_lines: set[int] = field(default_factory=set)
    functions: list[FunctionInfo] = field(default_factory=list)
    _by_name: dict[str, FunctionInfo] = field(default_factory=dict)

    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleModel":
        tree = ast.parse(source, filename=path)
        model = cls(path=path, source=source, tree=tree)
        model._collect_comments()
        model._collect_functions()
        model._classify_domain_bodies()
        return model

    # ------------------------------------------------------------------

    def is_suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        return rules is not None and (rule in rules or "ALL" in rules)

    def iter_calls(self, node: Optional[ast.AST] = None) -> Iterator[ast.Call]:
        for sub in ast.walk(node if node is not None else self.tree):
            if isinstance(sub, ast.Call):
                yield sub

    # ------------------------------------------------------------------
    # Comment collection (suppressions + gate annotations)
    # ------------------------------------------------------------------

    def _collect_comments(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except tokenize.TokenError:  # pragma: no cover - broken source
            comments = []
        for line, text in comments:
            match = _SUPPRESS_RE.search(text)
            if match:
                rules = {part.strip().upper() for part in match.group(1).split(",")}
                self.suppressions.setdefault(line, set()).update(rules)
            if _GATE_RE.search(text):
                self.gate_lines.add(line)

    def _extend_def_suppressions(self) -> None:
        """A suppression on a ``def`` line covers the whole function."""
        for info in self.functions:
            node = info.node
            def_lines = range(node.lineno, node.body[0].lineno + 1)
            rules: set[str] = set()
            for line in def_lines:
                rules |= self.suppressions.get(line, set())
            if not rules:
                continue
            end = getattr(node, "end_lineno", node.body[-1].lineno)
            for line in range(node.lineno, end + 1):
                self.suppressions.setdefault(line, set()).update(rules)

    # ------------------------------------------------------------------
    # Function collection
    # ------------------------------------------------------------------

    def _collect_functions(self) -> None:
        def visit(node: ast.AST, prefix: str, class_name: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{child.name}"
                    info = FunctionInfo(
                        node=child, qualname=qual, class_name=class_name
                    )
                    self.functions.append(info)
                    self._by_name[child.name] = info
                    visit(child, f"{qual}.", class_name)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", child.name)
                else:
                    # Recurse through compound statements (try/if/with/for):
                    # domain bodies are often defined inside them (e.g. the
                    # sandbox wrapper's ``run_inside``).
                    visit(child, prefix, class_name)

        visit(self.tree, "", None)
        self._extend_def_suppressions()

    # ------------------------------------------------------------------
    # Domain-body registry
    # ------------------------------------------------------------------

    def _classify_domain_bodies(self) -> None:
        # (a) first parameter annotated DomainHandle
        for info in self.functions:
            args = info.node.args
            params = args.posonlyargs + args.args
            if not params:
                continue
            first = params[0]
            if first.arg == "self" and len(params) > 1:
                first = params[1]
            ann = first.annotation
            if ann is not None:
                ann_name = dotted_name(ann) or (
                    ann.value if isinstance(ann, ast.Constant) else None
                )
                if isinstance(ann_name, str) and ann_name.endswith(
                    HANDLE_ANNOTATION
                ):
                    info.is_domain_body = True
                    info.domain_body_reason = "first parameter is a DomainHandle"

        # (b) passed by name to an entry call / sandbox factory
        for call in self.iter_calls():
            name = call_func_name(call)
            if name in ENTRY_CALLS:
                index = ENTRY_CALLS[name]
                if len(call.args) > index:
                    self._mark_callable(
                        call.args[index], f"passed to {name}()"
                    )
            elif name in SANDBOX_CALLS:
                if call.args:
                    self._mark_callable(
                        call.args[0], "sandboxed function", _sandbox_decl(call)
                    )

        # (c) decorated with @...sandboxed(...)
        for info in self.functions:
            for deco in info.node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                deco_name = (
                    target.attr
                    if isinstance(target, ast.Attribute)
                    else target.id
                    if isinstance(target, ast.Name)
                    else None
                )
                if deco_name in SANDBOX_CALLS:
                    info.is_domain_body = True
                    info.domain_body_reason = "decorated @sandboxed"
                    info.sandbox_decl = (
                        _sandbox_decl(deco)
                        if isinstance(deco, ast.Call)
                        else SandboxDecl(line=deco.lineno, col=deco.col_offset)
                    )

    def _mark_callable(
        self,
        node: ast.AST,
        reason: str,
        sandbox_decl: Optional[SandboxDecl] = None,
    ) -> None:
        if isinstance(node, ast.Name):
            info = self._by_name.get(node.id)
            if info is not None:
                info.is_domain_body = True
                info.domain_body_reason = reason
                if sandbox_decl is not None:
                    info.sandbox_decl = sandbox_decl
