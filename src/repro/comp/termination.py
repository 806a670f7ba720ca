"""Termination and purity checking for type-level code (§4, Fig. 6).

CompRDL guarantees type checking terminates by restricting comp type code:

* no ``while``/``until`` loops;
* calls must target methods whose termination effect is ``:+``;
* iterator methods (``:blockdep``) terminate only if their block is *pure*
  (mutating the collection being iterated could diverge) and itself
  terminates;
* recursion in type-level code is assumed absent (as in the paper; a cycle
  among the ``Object`` methods type-level code calls is reported as a
  warning rather than an error).

Purity: a pure method may not assign instance/class/global variables or
call impure methods.

One walk implements these rules.  :meth:`TerminationChecker.diagnostics`
yields every violation as a :class:`Diagnostic` in walk order, following
self-calls into the bodies of ``Object`` methods:

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

:meth:`TerminationChecker.check_comp_code` raises the first error the walk
yields; the static lint (:mod:`repro.analysis.lint`) collects them all.  So
a comp the dynamic check rejects carries a lint error at the same position
by construction.

Walks are memoized per comp code and per helper body.  Each walk records
the method names whose effects or bodies it consulted, and
:meth:`TerminationChecker.forget` drops it when a method of one of those
names is defined or annotated; a comp whose check passed is not checked
again until the next such definition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.comp.effects import default_effect
from repro.lang import ast_nodes as ast
from repro.typecheck.errors import TerminationError
from repro.typecheck.registry import EffectInfo


@dataclass(frozen=True)
class Diagnostic:
    """One finding, anchored to a source position when known."""

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


class TerminationChecker:
    """The §4 walk over type-level code of one universe."""

    def __init__(self, interp, registry):
        self.interp = interp
        self.registry = registry
        # ("comp", owner) / ("helper", name) -> (walked node, events); an
        # event is a Diagnostic or the name of an Object method the code
        # calls, whose body the walk follows
        self._walks: dict[tuple, tuple] = {}
        # method name -> keys of the walks that consulted it
        self._readers: dict[str, set] = {}
        # comp description -> the program whose check last passed; a pass
        # rests on every helper the walk reached, so any forget() clears it
        self._passed: dict[str, object] = {}

    def forget(self, method_name: str) -> set[str]:
        """A method named ``method_name`` was defined or annotated: drop
        every walk that consulted the effects or body of that name.
        Returns the code of every comp whose walk reached the name, itself
        or through the ``Object`` methods it follows."""
        comps: set[str] = set()
        names = {method_name}
        todo = [method_name]
        while todo:
            for kind, owner in self._readers.get(todo.pop(), ()):
                if kind == "comp":
                    comps.add(owner)
                elif owner not in names:
                    names.add(owner)
                    todo.append(owner)
        self._passed.clear()
        for key in self._readers.pop(method_name, ()):
            self._walks.pop(key, None)
        return comps

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def check_comp_code(self, program, description: str) -> None:
        """Raise :class:`TerminationError` at the first error in a comp
        expression's code or in the ``Object`` methods it reaches."""
        if self._passed.get(description) is program:
            return
        for diag in self.diagnostics(program, description):
            if diag.severity == "error":
                raise TerminationError(f"{diag.message} ({diag.owner})",
                                       diag.line, col=diag.col)
            if diag.rule == "COMP005":
                # the one place the check is optimistic: surface it
                obs.event("termination.cycle_assumed", label=diag.owner)
                obs.bump("termination.cycle_assumed")
        self._passed[description] = program

    def diagnostics(self, program, owner: str, seen: set | None = None):
        """Every finding in ``program`` and in the bodies of the ``Object``
        methods it reaches, in walk order.  ``seen`` holds the names of
        the methods already followed; a caller that shares it across calls
        gets each method body's findings once."""
        entry = self._walks.get(("comp", owner))
        if entry is None or entry[0] is not program:
            entry = self._remember(("comp", owner), program, owner, set())
        return self._flatten(entry[1], [], set() if seen is None else seen)

    def helper_diagnostics(self, name: str, seen: set):
        """The findings of the ``Object`` method ``name`` and of the
        methods it reaches, unless ``seen`` already holds it."""
        return self._flatten((name,), [], seen)

    # ------------------------------------------------------------------
    # the walk
    # ------------------------------------------------------------------
    def _flatten(self, events, stack: list, seen: set):
        for event in events:
            if isinstance(event, Diagnostic):
                yield event
            elif event in stack:
                trail = " -> ".join(stack[stack.index(event):] + [event])
                yield Diagnostic(
                    "COMP005", "warning",
                    f"helper recursion cycle ({trail}): termination is "
                    "assumed, not verified", f"Object#{event}")
            elif event not in seen:
                seen.add(event)
                stack.append(event)
                yield from self._flatten(self._helper_events(event), stack,
                                         seen)
                stack.pop()

    def _helper_events(self, name: str) -> tuple:
        entry = self._walks.get(("helper", name))
        if entry is None:
            body = self.registry.lookup_body("Object", name, False,
                                             self.interp)
            entry = self._remember(("helper", name), body,
                                   f"Object#{name}", {name})
        return entry[1]

    def _remember(self, key: tuple, node, owner: str, names: set) -> tuple:
        events: list = []
        for stmt in node.body if node is not None else ():
            self._walk(stmt, owner, events, names)
        entry = self._walks[key] = (node, tuple(events))
        for name in names:
            self._readers.setdefault(name, set()).add(key)
        return entry

    def _walk(self, node, owner: str, events: list, names: set) -> None:
        if isinstance(node, ast.MethodCall):
            self._walk_call(node, owner, events, names)
            return
        if isinstance(node, ast.While):
            events.append(Diagnostic(
                "COMP001", "error", "type-level code may not contain loops",
                owner, node.line, node.col))
        for child in ast.children(node):
            self._walk(child, owner, events, names)

    def _walk_call(self, node: ast.MethodCall, owner: str, events: list,
                   names: set) -> None:
        names.add(node.name)
        for child in (node.receiver, *node.args, node.block_arg):
            if child is not None:
                self._walk(child, owner, events, names)
        has_body = node.receiver is None and self.registry.lookup_body(
            "Object", node.name, False, self.interp) is not None
        effect = self._effect_for(node, has_body)
        if effect.terminates == "-":
            events.append(Diagnostic(
                "COMP002", "error",
                f"type-level code calls '{node.name}', which may not "
                "terminate", owner, node.line, node.col))
        if effect.pure == "-":
            events.append(Diagnostic(
                "COMP004", "warning", f"call to impure method '{node.name}'",
                owner, node.line, node.col))
        if node.block is not None:
            if effect.terminates == "blockdep" and not self._pure(node.block):
                events.append(Diagnostic(
                    "COMP003", "error",
                    f"iterator '{node.name}' in type-level code takes an "
                    "impure block", owner, node.line, node.col))
            self._walk(node.block, owner, events, names)
        if has_body:
            events.append(node.name)

    def _effect_for(self, node: ast.MethodCall, has_body: bool = False):
        """Best-effort effect lookup: receiver class is unknown statically at
        the type level, so consult annotations by method name, then the
        default table."""
        registry = self.registry
        named = [registry.method_annotations[key]
                 for key in registry.annotated_by_name.get(node.name, ())]
        if node.receiver is None:
            effect = registry.effect_of("Object", node.name, False, self.interp)
            if has_body and effect.terminates == "-" and not any(
                    a.terminates for annotations in named
                    for a in annotations):
                # an Object method nothing annotates: the walk follows its
                # body instead of trusting the conservative default
                return EffectInfo("+", effect.pure)
            return effect
        # receiver calls: look for any annotation naming this method
        for annotations in named:
            terminates = next((a.terminates for a in annotations if a.terminates), None)
            pure = next((a.pure for a in annotations if a.pure), None)
            if terminates or pure:
                return EffectInfo(terminates or "+", pure or "+")
        if isinstance(node.receiver, ast.ConstRef):
            return default_effect(node.receiver.name, node.name)
        return default_effect("Object", node.name)

    def _pure(self, block: ast.BlockNode) -> bool:
        """A pure block writes no ivar/gvar, assigns no index or attribute,
        and calls no impure method."""
        for node in ast.walk(block):
            if isinstance(node, ast.Assign):
                if isinstance(node.target, (ast.IVar, ast.GVar)):
                    return False
            elif isinstance(node, (ast.IndexAssign, ast.AttrAssign)):
                return False
            elif isinstance(node, ast.MethodCall) and \
                    self._effect_for(node).pure == "-":
                return False
        return True
