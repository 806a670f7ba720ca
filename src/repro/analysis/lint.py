"""Flow-insensitive purity/termination lint for type-level code.

Mirrors the §4 termination checker (:mod:`repro.comp.termination`)
statically: instead of raising on the first violation while a comp
expression is being evaluated, it walks **every** comp expression and
helper body registered in a universe and reports all findings as
structured diagnostics with stable rule ids:

========  ========  =====================================================
rule id   severity  meaning
========  ========  =====================================================
COMP001   error     ``while``/``until`` loop in type-level code
COMP002   error     call to a method that may diverge (effect ``-``)
COMP003   error     block-dependent iterator with an impure block
COMP004   warning   call to an impure method from type-level code
COMP005   warning   helper recursion cycle (termination *assumed*, the
                    paper's recursion-free premise — see
                    ``termination.cycle_assumed`` in obs)
========  ========  =====================================================

The linter shares the dynamic checker's effect sources
(annotation ``terminates:``/``pure:`` keywords, then
:func:`repro.comp.effects.default_effect`), so a COMP001/002/003 finding
predicts exactly where ``TerminationError`` would be raised if checking
evaluated that comp — but covers unevaluated comps too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.footprint import comp_codes_of
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_program

SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, anchored to a source position when known."""

    rule: str
    severity: str
    message: str
    owner: str        # "Class#method" whose annotation/helper holds the code
    line: int = 0
    col: int = 0

    def render(self) -> str:
        at = f":{self.line}:{self.col}" if self.line else ""
        return f"{self.severity:<7} {self.rule} {self.owner}{at}: {self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "owner": self.owner,
            "line": self.line,
            "col": self.col,
        }


class EffectLinter:
    """Lints every comp expression and type-level helper of one universe."""

    def __init__(self, registry, interp=None):
        self.registry = registry
        self.interp = interp
        # non-helper Object methods already followed from a call site
        self._followed: set[str] = set()

    # ------------------------------------------------------------------
    def lint(self) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        seen_codes: set = set()
        for key in sorted(self.registry.method_annotations,
                          key=lambda k: (k.class_name, k.method_name, k.static)):
            for annotation in self.registry.method_annotations[key]:
                for code in sorted(comp_codes_of(annotation.signature)):
                    if code in seen_codes:
                        continue
                    seen_codes.add(code)
                    diagnostics.extend(self.lint_comp(code, str(key)))
        diagnostics.extend(self._lint_helpers())
        return diagnostics

    def lint_comp(self, code: str, owner: str) -> list[Diagnostic]:
        """Diagnostics for one comp expression's code."""
        try:
            program = parse_program(code)
        except Exception as exc:
            return [Diagnostic("COMP000", "error",
                               f"comp type does not parse: {exc}", owner)]
        findings: list[Diagnostic] = []
        for node in program.body:
            self._walk(node, owner, findings)
        return findings

    # ------------------------------------------------------------------
    def _lint_helpers(self) -> list[Diagnostic]:
        """Walk user-defined Object helpers for loops/effects plus
        recursion cycles (COMP005)."""
        findings: list[Diagnostic] = []
        helper_keys = sorted(
            (key for key in self.registry.defined_methods
             if key.class_name == "Object" and not key.static
             and key.method_name in self.registry.helper_methods),
            key=lambda k: k.method_name)
        call_graph: dict = {}
        for key in helper_keys:
            body = self.registry.defined_methods[key]
            owner = str(key)
            for stmt in body.body:
                self._walk(stmt, owner, findings)
            call_graph[key.method_name] = self._self_calls(body)
        findings.extend(self._cycle_findings(call_graph))
        return findings

    def _self_calls(self, body) -> set:
        from repro.analysis.footprint import walk

        names: set = set()
        for node in walk(body):
            if isinstance(node, ast.MethodCall) and node.receiver is None:
                names.add(node.name)
        return names

    def _cycle_findings(self, call_graph: dict) -> list[Diagnostic]:
        findings: list[Diagnostic] = []
        for name in sorted(call_graph):
            trail = self._find_cycle(name, call_graph)
            if trail is not None:
                findings.append(Diagnostic(
                    "COMP005", "warning",
                    "helper recursion cycle "
                    f"({' -> '.join(trail)}): termination is assumed, "
                    "not verified",
                    f"Object#{name}"))
        return findings

    @staticmethod
    def _find_cycle(start: str, call_graph: dict) -> list | None:
        stack = [(start, [start])]
        seen: set = set()
        while stack:
            current, trail = stack.pop()
            for callee in sorted(call_graph.get(current, ())):
                if callee == start:
                    return trail + [start]
                if callee in seen or callee not in call_graph:
                    continue
                seen.add(callee)
                stack.append((callee, trail + [callee]))
        return None

    # ------------------------------------------------------------------
    # the termination walk, reported instead of raised
    # ------------------------------------------------------------------
    def _walk(self, node, owner: str, findings: list) -> None:
        if node is None or isinstance(node, (str, int, float)):
            return
        if isinstance(node, ast.While):
            kind = "until" if node.is_until else "while"
            findings.append(Diagnostic(
                "COMP001", "error",
                f"type-level code may not contain loops ({kind})",
                owner, node.line, node.col))
            # still walk the body: report everything, not just the first
        if isinstance(node, ast.MethodCall):
            self._check_call(node, owner, findings)
        for child in self._children(node):
            self._walk(child, owner, findings)

    def _check_call(self, node: ast.MethodCall, owner: str,
                    findings: list) -> None:
        effect = self._effect_for(node)
        if effect.terminates == "-":
            findings.append(Diagnostic(
                "COMP002", "error",
                f"call to '{node.name}' may not terminate",
                owner, node.line, node.col))
        if effect.pure == "-":
            findings.append(Diagnostic(
                "COMP004", "warning",
                f"call to impure method '{node.name}'",
                owner, node.line, node.col))
        if effect.terminates == "blockdep" and node.block is not None:
            from repro.comp.termination import TerminationChecker

            checker = TerminationChecker(self.interp, self.registry)
            if not checker.is_pure_block(node.block):
                findings.append(Diagnostic(
                    "COMP003", "error",
                    f"iterator '{node.name}' takes an impure block",
                    owner, node.line, node.col))
        if node.receiver is None:
            self._follow_object_method(node.name, findings)

    def _follow_object_method(self, name: str, findings: list) -> None:
        """Walk the body of a self-call's ``Object`` method, as the dynamic
        termination checker does (comp helpers are walked by
        :meth:`_lint_helpers`)."""
        if name in self.registry.helper_methods or name in self._followed:
            return
        self._followed.add(name)
        body = self.registry.lookup_body("Object", name, False, self.interp)
        if body is not None:
            for stmt in body.body:
                self._walk(stmt, f"Object#{name}", findings)

    def _effect_for(self, node: ast.MethodCall):
        """Same best-effort lookup as the dynamic termination checker —
        shared so lint findings predict its errors."""
        from repro.comp.termination import TerminationChecker

        checker = TerminationChecker(self.interp, self.registry)
        return checker._effect_for(node)

    @staticmethod
    def _children(node):
        from repro.analysis.footprint import _children

        return _children(node)


def lint_universe(rdl) -> list[Diagnostic]:
    """All effect-lint diagnostics for one CompRDL universe."""
    return EffectLinter(rdl.registry, rdl.interp).lint()
