"""Evaluation of comp type expressions during type checking.

Implements the dynamic part of rule C-App-Comp (§3.2): a comp expression is
(1) termination-checked, (2) evaluated in the interpreter with ``tself`` and
the signature's argument type variables bound to *types*, and (3) required
to yield a type (``Type``-typed in λC; enforced here by checking the result
is an RDL type object).  Results convert class constants to nominal types so
comp code may simply write ``String`` for ``Nominal.new(String)``.

Evaluation is memoized through the incremental subsystem
(:mod:`repro.incremental`): results are keyed on ``(comp code, binding
types)`` and stamped with the database schema generation plus the set of
tables the evaluation actually read, so a schema migration invalidates only
the comp results that depended on the migrated table.  Every evaluation is
also attributed to the enclosing method's dependency scope, which is what
lets the incremental scheduler re-check only dirty methods.
"""

from __future__ import annotations

from repro.incremental.cache import AstCache, CompEvalCache, binding_key
from repro.obs.spans import bump, span
from repro.obs.state import ENABLED as _OBS_ON
from repro.incremental.deps import DependencyTracker
from repro.incremental.stats import IncrementalStats
from repro.lang.parser import parse_program
from repro.rtypes import CompExpr, RType
from repro.rtypes.intern import fresh_copy
from repro.runtime.errors import RubyError
from repro.runtime.interp import Env, Frame, RaiseSignal
from repro.typecheck.errors import StaticTypeError
from repro.comp.reflect import to_rtype
from repro.comp.termination import TerminationChecker


class CompEngine:
    """Evaluates ``«...»`` expressions against an interpreter instance."""

    def __init__(self, interp, registry):
        self.interp = interp
        self.registry = registry
        self.termination = TerminationChecker(interp, registry)
        self.stats = IncrementalStats()
        self.deps = DependencyTracker()
        self.asts = AstCache(stats=self.stats)
        self.cache = CompEvalCache(stats=self.stats)
        # bumped on every (re)definition or annotation in this universe:
        # with the schema generation, the state check specs trust (§4)
        self.method_epoch = 0
        # the code of every comp whose §4 walk reached the name of the last
        # method (re)defined or annotated; the scheduler reads it next
        self.stale_comps: set[str] = set()
        db = getattr(interp, "db", None)
        if db is not None and hasattr(db, "add_read_listener"):
            db.add_read_listener(self.deps.note_table)
        if hasattr(registry, "add_method_listener"):
            registry.add_method_listener(self._on_method_change)

    def _on_method_change(self, key, redefined) -> None:
        """A ``load`` (re)defined a method: it may be a type-level helper
        that cached comp results silently embed, and the cache is keyed
        only on (code, bindings, schema generation) — so drop everything.
        Loads after checking are rare; the cache re-fills on the next pass.
        (The parsed-AST cache survives: comp *code* text didn't change.)
        Termination walks that consulted the method's name are dropped,
        and the comps they walked become ``stale_comps``."""
        self.method_epoch += 1
        if len(self.cache):
            self.cache.clear()
        self.stale_comps = self.termination.forget(key.method_name)

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The database schema generation comp results are valid at."""
        db = getattr(self.interp, "db", None)
        return getattr(db, "version", 0) if db is not None else 0

    def _journal(self):
        db = getattr(self.interp, "db", None)
        return getattr(db, "journal", None)

    def _comp_error(self, message: str, line: int, context: str,
                    code: str | None = None) -> StaticTypeError:
        """A comp-evaluation failure.  The message carries only
        deterministic content: it is part of the verdict, and verdicts must
        be identical across serial, incremental, and parallel runs — which
        rules out run-history context like the schema generation or cache
        population at computation time.  The generation (and, for
        provenance diagnostics, the failing comp's code) are attached as
        ``schema_generation`` / ``comp_code`` attributes instead."""
        error = StaticTypeError(message, line, context)
        error.schema_generation = self.generation
        error.comp_code = code
        return error

    # ------------------------------------------------------------------
    def evaluate(
        self,
        comp: CompExpr,
        bindings: dict[str, RType],
        line: int = 0,
        context: str = "",
    ) -> RType:
        """Evaluate a comp expression to a concrete RDL type.

        ``bindings`` maps comp-visible variables (``tself`` plus the
        signature's argument type variables) to the types observed at the
        call site.  Raises :class:`StaticTypeError` if the code fails the
        termination check, raises, or does not produce a type.

        Successful evaluations are memoized; a hit replays the entry's
        footprint (tables, columns, nested comps) into the active
        dependency scope, so incremental invalidation stays sound and a
        method's recorded dependencies are the same whether or not
        evaluation was skipped.
        """
        generation = self.generation
        self.deps.note_comp(comp.code)
        bkey = binding_key(bindings)
        entry = self.cache.lookup(comp.code, bkey, generation, self._journal())
        if entry is not None:
            # a bare counter, not a span: the hit path is the microloop the
            # perf budget guards, so disabled runs must not even call span()
            if _OBS_ON[0]:
                bump("comp.eval.hits")
            self.deps.note_footprint(entry.tables, entry.columns,
                                     entry.comps)
            return _fresh(entry.value)

        # a miss pays a parse and/or an interpreter run (~hundreds of µs),
        # so a span here is in the noise — and is the interesting signal
        with span("comp.eval", label=context or comp.code) as sp:
            program = self.asts.get(comp.code)
            if program is None:
                sp.set("parsed", True)
                try:
                    program = parse_program(comp.code)
                except Exception as exc:
                    raise self._comp_error(
                        f"comp type does not parse: {exc}", line, context,
                        code=comp.code)
                self.asts.store(comp.code, program)
            self.termination.check_comp_code(program, comp.code)

            env = Env()
            env.vars.update(bindings)
            frame = Frame(self.interp.main, env,
                          defining_class=self.interp.classes["Object"])
            with self.deps.capture() as scope:
                try:
                    result = self.interp.execute_program(program, frame)
                except RaiseSignal as sig:
                    raise self._comp_error(
                        f"comp type evaluation raised {sig.exc.rclass.name}: "
                        f"{sig.exc.message}", line, context, code=comp.code)
                except RubyError as exc:
                    raise self._comp_error(
                        f"comp type evaluation failed: {exc}", line, context,
                        code=comp.code)
                try:
                    value = to_rtype(self.interp, result)
                except RubyError:
                    raise self._comp_error(
                        f"comp type did not evaluate to a type "
                        f"(got {result!r})", line, context, code=comp.code)
            self.cache.store(comp.code, bkey, generation, scope.tables, value,
                             scope.columns, scope.comps)
        # the first caller must not alias the cache entry either: weak
        # updates widen types in place, which would pollute later hits
        return _fresh(value)


def _fresh(value: RType) -> RType:
    """A recursive copy of a cached result along mutable structure.

    Weak updates widen tuples / finite hashes / const strings *in place*
    (including elements nested inside containers, e.g. ``promote()`` on a
    const string held by a tuple), so distinct call sites must never alias
    one cache entry.  Immutable subtrees are shared as-is — that is
    :func:`repro.rtypes.intern.fresh_copy`."""
    return fresh_copy(value)
