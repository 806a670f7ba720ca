"""Flow-insensitive purity/termination lint for type-level code.

The §4 termination checker (:mod:`repro.comp.termination`) walks type-level
code once and yields every violation as a :class:`Diagnostic`; the dynamic
check raises the first error, and this linter collects them all.  It walks
**every** comp expression and helper body registered in a universe, so it
covers comps that checking never evaluates too.  The rule ids (COMP001–
COMP005) are listed in :mod:`repro.comp.termination`; the linter adds
COMP000 for comp code that does not parse.
"""

from __future__ import annotations

from repro.comp.termination import Diagnostic, TerminationChecker
from repro.lang.parser import parse_program


class EffectLinter:
    """Lints every comp expression and type-level helper of one universe."""

    def __init__(self, registry, interp=None):
        self.registry = registry
        self._walker = TerminationChecker(interp, registry)
        # Object methods whose findings this linter has already reported
        self._seen: set = set()

    def lint(self) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        seen_codes: set = set()
        for key in sorted(self.registry.method_annotations,
                          key=lambda k: (k.class_name, k.method_name, k.static)):
            for annotation in self.registry.method_annotations[key]:
                signature = annotation.signature
                for code in sorted({comp.code
                                    for comp in signature.comp_exprs()}):
                    if code in seen_codes:
                        continue
                    seen_codes.add(code)
                    diagnostics.extend(self.lint_comp(code, str(key)))
        helpers = sorted(
            key.method_name for key in self.registry.defined_methods
            if key.class_name == "Object" and not key.static
            and key.method_name in self.registry.helper_methods)
        for name in helpers:
            diagnostics.extend(self._walker.helper_diagnostics(name, self._seen))
        return diagnostics

    def lint_comp(self, code: str, owner: str) -> list[Diagnostic]:
        """Diagnostics for one comp expression's code."""
        try:
            program = parse_program(code)
        except Exception as exc:
            return [Diagnostic("COMP000", "error",
                               f"comp type does not parse: {exc}", owner)]
        return list(self._walker.diagnostics(program, owner, self._seen))


def lint_universe(rdl) -> list[Diagnostic]:
    """All effect-lint diagnostics for one CompRDL universe."""
    return EffectLinter(rdl.registry, rdl.interp).lint()
