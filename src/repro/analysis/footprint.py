"""Static dependency-footprint inference for checked methods.

The dynamic tracker (:mod:`repro.incremental.deps`) learns what a method's
verdict depended on by *watching* the check: every ``schema_of`` /
``all_schemas`` / ``associated`` read, every column the SQL fragment
checker resolves, every comp expression the engine evaluates.  This module
computes a superset of that footprint **without executing anything**, by
abstract interpretation over the method body's AST plus the annotation
registry.

Where each dynamic read can come from, and how it is over-approximated:

* ``schema_of(table)`` — reached only through the table-reading native
  helpers (``db_table_type``, ``dataset_type``, ``check_association``, the
  SQL path, ``pluck_type``…).  Their table argument is always derived from
  a *singleton* type: a class reference or symbol literal.  Statically we
  collect every ``ConstRef`` and ``SymLit`` in the body, every singleton
  in the method's own signature, and the method's own class — the only
  sources a singleton at a call site can have been derived from.
* SQL fragments can name arbitrary tables via qualified refs and
  subqueries, so every string literal in the body is parsed with the SQL
  fragment parser and its table references collected.
* ``all_schemas()`` (a wildcard read) is reached when the SQL path runs
  against a chained relation.  Statically: any call site whose callee may
  evaluate a table-reading comp but whose receiver/argument is not a
  recognizable literal makes the whole footprint a wildcard — the sound
  escape hatch for flowed values the literal analysis cannot see.
* comp evaluations are noted by *code*; the static comp set is the union
  of comp codes over every annotation matching each called name (receiver
  classes are unknown statically, mirroring the termination checker).
* columns are only ever noted for **existing** columns of read tables, so
  the static column set is every existing column of every static table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.annotations.helpers import _NATIVE_HELPERS, _table_name_for
from repro.comp.reflect import _METHODS as _REFLECT_METHODS
from repro.db.engine import pluralize, snake_case
from repro.incremental.deps import MethodDeps
from repro.incremental.versioning import WILDCARD
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_program
from repro.rtypes.kinds import ClassRef, Sym
from repro.rtypes.methods import BoundArg, CompExpr, MethodType, OptionalArg, VarargArg
from repro.sqltc.parser import (
    ColumnRef,
    InCondition,
    Query,
    SqlParseError,
    parse_where_fragment,
)

#: native helpers whose evaluation may read table schemas (directly or via
#: ``_schema_of``); a comp whose reach includes one of these can register
#: table dependencies at evaluation time
TABLE_READING_NATIVES = frozenset({
    "db_table_type",
    "dataset_type",
    "check_association",
    "sql_typecheck",
    "where_arg_type",
    "pluck_type",
    "column_value_type",
    "record_row_type",
})

#: the subset that can take the raw-SQL path (arbitrary tables via
#: qualified refs) and the ``all_schemas`` wildcard scope
SQL_CAPABLE_NATIVES = frozenset({"sql_typecheck", "where_arg_type"})

_REFLECTION_NAMES = frozenset(_REFLECT_METHODS)
_NATIVE_NAMES = frozenset(_NATIVE_HELPERS)


@dataclass(frozen=True)
class StaticFootprint:
    """An over-approximation of one method's checkable dependency set.

    ``wildcard`` means the analysis could not bound the footprint (a
    table-reading comp may evaluate against values the literal analysis
    cannot see) — it covers *any* dynamic footprint.  ``natives`` records
    the native/reflection helpers the method's comp reach includes; it is
    diagnostic (not part of the soundness contract).
    """

    tables: frozenset = frozenset()
    columns: frozenset = frozenset()
    comps: frozenset = frozenset()
    natives: frozenset = frozenset()
    wildcard: bool = False

    def covers(self, deps: MethodDeps) -> bool:
        """The soundness contract: does this footprint contain every
        dependency the dynamic tracker recorded?"""
        if self.wildcard:
            return True
        if WILDCARD in deps.tables:
            return False
        return (set(deps.tables) <= set(self.tables)
                and set(deps.columns) <= set(self.columns)
                and set(deps.comps) <= set(self.comps))

    def summary(self) -> dict:
        return {
            "tables": sorted(self.tables),
            "columns": sorted(f"{t}.{c}" for t, c in self.columns),
            "comps": len(self.comps),
            "natives": sorted(self.natives),
            "wildcard": self.wildcard,
        }


@dataclass
class _BodyFacts:
    """Everything one AST walk collects from a method body."""

    const_refs: set = field(default_factory=set)
    sym_lits: set = field(default_factory=set)
    str_lits: list = field(default_factory=list)
    #: (name, receiver_is_literal, first_arg_is_literal) per call-like site
    calls: list = field(default_factory=list)


def table_for_class(class_name: str) -> str:
    """The conventional table of a model class (``Topic`` → ``topics``)."""
    return pluralize(snake_case(class_name.split("::")[-1]))


def table_for_symbol(name: str) -> str:
    """How ``_table_name_for`` maps a symbol to a table name."""
    return name if name.endswith("s") else pluralize(name)


class FootprintAnalyzer:
    """Infers static footprints for the methods of one universe.

    Stateless with respect to checking: reads only the annotation registry
    (bodies + signatures) and the database schema (for the column closure).
    Results are cached per ``(db.version, registry size)`` — call
    :meth:`footprint_of` freely.
    """

    def __init__(self, registry, db=None, interp=None):
        self.registry = registry
        self.db = db
        self.interp = interp
        self._reach_cache: dict = {}       # comp code / helper name -> frozenset
        self._facts_cache: dict = {}       # method key -> _BodyFacts
        self._footprints: dict = {}        # method key -> StaticFootprint
        self._comp_index = None            # call name -> (codes, reach, reads)
        self._index_sig = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def footprint_of(self, key) -> StaticFootprint:
        self._refresh_index()
        cached = self._footprints.get(key)
        if cached is None:
            cached = self._infer(key)
            self._footprints[key] = cached
        return cached

    def footprints_for(self, keys) -> dict:
        return {key: self.footprint_of(key) for key in keys}

    def invalidate(self) -> None:
        """Drop derived state (schema or annotations changed)."""
        self._footprints.clear()
        self._comp_index = None
        self._index_sig = None

    # ------------------------------------------------------------------
    # the comp index: call name -> what evaluating its comps could do
    # ------------------------------------------------------------------
    def _refresh_index(self) -> None:
        signature = (
            getattr(self.db, "version", 0) if self.db is not None else 0,
            len(self.registry.method_annotations),
            len(self.registry.defined_methods),
        )
        if signature != self._index_sig:
            self.invalidate()
            self._index_sig = signature
            self._build_comp_index()

    def _build_comp_index(self) -> None:
        """Group annotation comp codes by method *name* (receiver classes
        are unknown statically, so a call to ``where`` may evaluate any
        annotation named ``where`` — the union over-approximates the
        checker's superclass-chain resolution)."""
        index: dict = {}
        for key, annotations in self.registry.method_annotations.items():
            codes: set = set()
            for annotation in annotations:
                codes.update(comp.code
                             for comp in annotation.signature.comp_exprs())
            if not codes:
                continue
            entry = index.setdefault(key.method_name, set())
            entry.update(codes)
        self._comp_index = {}
        for name, codes in index.items():
            reach = frozenset().union(*(self.reach_of(code) for code in codes)) \
                if codes else frozenset()
            self._comp_index[name] = (
                frozenset(codes),
                reach,
                bool(reach & TABLE_READING_NATIVES),
            )

    def comp_entry(self, name: str):
        """(comp codes, native reach, reads_tables) for a called name."""
        self._refresh_index()
        return self._comp_index.get(name)

    # ------------------------------------------------------------------
    # native reach: which leaves can a comp's call graph hit?
    # ------------------------------------------------------------------
    def reach_of(self, code: str) -> frozenset:
        """Native/reflection helper names transitively reachable from a
        comp expression, walking user helper bodies to a fixed point."""
        cached = self._reach_cache.get(code)
        if cached is not None:
            return cached
        self._reach_cache[code] = frozenset()  # cycle guard
        try:
            program = parse_program(code)
        except Exception:
            # unparseable comp code fails at evaluation before reading
            # anything — empty reach is sound
            return frozenset()
        reach: set = set()
        pending = list(_call_names(program))
        seen: set = set()
        while pending:
            name = pending.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in _NATIVE_NAMES or name in _REFLECTION_NAMES:
                reach.add(name)
            body = self.registry.lookup_body("Object", name, False, self.interp)
            if body is not None:
                pending.extend(_call_names(body))
        result = frozenset(reach)
        self._reach_cache[code] = result
        return result

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def _infer(self, key) -> StaticFootprint:
        tables: set = set()
        comps: set = set()
        natives: set = set()
        wildcard = False

        # the method's own class table: `self` receivers inside a model
        # resolve to its singleton/nominal, whose table is this
        tables.add(table_for_class(key.class_name))

        # singletons in the method's own signature: argument types the
        # checker binds comp variables to
        own = self.registry.lookup_method(
            key.class_name, key.method_name, key.static, self.interp) or []
        for annotation in own:
            comps.update(comp.code
                         for comp in annotation.signature.comp_exprs())
            for value in signature_singletons(annotation.signature):
                try:
                    tables.add(_table_name_for(value))
                except Exception:
                    pass

        body = self.registry.lookup_body(
            key.class_name, key.method_name, key.static, self.interp)
        facts = self._facts_for(key, body)
        if facts is not None:
            for name in facts.const_refs:
                tables.add(table_for_class(name))
            for name in facts.sym_lits:
                tables.add(table_for_symbol(name))
            for literal in facts.str_lits:
                tables.update(sql_fragment_tables(literal))
            for name, recv_literal, arg_literal in facts.calls:
                entry = self.comp_entry(name)
                if entry is None:
                    continue
                codes, reach, reads = entry
                comps.update(codes)
                natives.update(reach)
                if not reads:
                    continue
                # a table-reading comp at a site whose receiver the
                # literal analysis cannot resolve may evaluate against
                # any singleton (or hit the all_schemas wildcard scope)
                if not recv_literal:
                    wildcard = True
                # the SQL path type checks const strings the checker may
                # have *flowed* here (locals, folded concatenations) —
                # only a directly-literal argument is boundable
                if reach & SQL_CAPABLE_NATIVES and not arg_literal:
                    wildcard = True

        for code in comps:
            natives |= self.reach_of(code)

        columns: set = set()
        if self.db is not None and not wildcard:
            for table in tables:
                schema = self.db.tables.get(table)
                if schema is not None:
                    columns.update((table, column) for column in schema.columns)

        return StaticFootprint(
            tables=frozenset(tables),
            columns=frozenset(columns),
            comps=frozenset(comps),
            natives=frozenset(natives),
            wildcard=wildcard,
        )

    def _facts_for(self, key, body) -> _BodyFacts | None:
        if body is None:
            return None
        facts = self._facts_cache.get(key)
        if facts is None:
            facts = collect_body_facts(body)
            self._facts_cache[key] = facts
        return facts


# ---------------------------------------------------------------------------
# AST facts
# ---------------------------------------------------------------------------

def _is_literal_receiver(node) -> bool:
    """Receivers whose singleton derivation the walk already covers."""
    return node is None or isinstance(
        node, (ast.ConstRef, ast.SelfExpr, ast.SymLit, ast.StrLit,
               ast.ArrayLit, ast.HashLit, ast.IntLit, ast.FloatLit,
               ast.NilLit, ast.TrueLit, ast.FalseLit))


def _is_literal_arg(node) -> bool:
    """First arguments the SQL path can be bounded for: direct literals
    (string fragments are parsed separately; symbols/hashes take the
    hash-condition path, which reads only the receiver's schema)."""
    return node is None or isinstance(
        node, (ast.StrLit, ast.SymLit, ast.HashLit, ast.ArrayLit,
               ast.IntLit, ast.FloatLit, ast.NilLit, ast.TrueLit,
               ast.FalseLit, ast.ConstRef, ast.SelfExpr))


def collect_body_facts(body) -> _BodyFacts:
    facts = _BodyFacts()
    for node in ast.walk(body):
        if isinstance(node, ast.ConstRef):
            facts.const_refs.add(node.name)
        elif isinstance(node, ast.SymLit):
            facts.sym_lits.add(node.name)
        elif isinstance(node, ast.StrLit):
            facts.str_lits.append(node.value)
        elif isinstance(node, ast.MethodCall):
            facts.calls.append((
                node.name,
                _is_literal_receiver(node.receiver),
                _is_literal_arg(node.args[0] if node.args else None),
            ))
        elif isinstance(node, ast.IndexAssign):
            facts.calls.append(("[]=", _is_literal_receiver(node.receiver),
                                True))
        elif isinstance(node, ast.AttrAssign):
            facts.calls.append((node.name + "=",
                                _is_literal_receiver(node.receiver), True))
    return facts


def _call_names(node) -> set:
    names: set = set()
    for current in ast.walk(node):
        if isinstance(current, ast.MethodCall):
            names.add(current.name)
        elif isinstance(current, ast.IndexAssign):
            names.add("[]=")
        elif isinstance(current, ast.AttrAssign):
            names.add(current.name + "=")
    return names


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

def signature_singletons(signature: MethodType) -> list:
    """Singleton values (class refs / symbols) in a signature's argument
    positions — the types the checker binds comp variables to, hence the
    tables its comps could read."""
    from repro.rtypes import SingletonType, UnionType

    values: list = []

    def visit(part) -> None:
        if isinstance(part, SingletonType) \
                and isinstance(part.value, (ClassRef, Sym)):
            values.append(part.value)
        elif isinstance(part, BoundArg):
            visit(part.bound)
        elif isinstance(part, (OptionalArg, VarargArg)):
            visit(part.inner)
        elif isinstance(part, CompExpr):
            visit(part.bound)
        elif isinstance(part, UnionType):
            for member in part.types:
                visit(member)

    for arg in signature.args:
        visit(arg)
    if signature.block is not None:
        values.extend(signature_singletons(signature.block))
    return values


# ---------------------------------------------------------------------------
# SQL fragments
# ---------------------------------------------------------------------------

def sql_fragment_tables(literal: str) -> set:
    """Table names a string literal would reach if checked as a raw SQL
    fragment: qualified column refs plus subquery scopes.  Non-SQL strings
    simply fail to parse and contribute nothing."""
    if not literal or not any(ch in literal for ch in "=<>?") and \
            " in " not in literal.lower() and " is " not in literal.lower():
        return set()
    try:
        condition = parse_where_fragment(literal)
    except (SqlParseError, RecursionError, ValueError):
        return set()
    tables: set = set()
    stack = [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, ColumnRef):
            if node.table:
                tables.add(node.table)
        elif isinstance(node, Query):
            tables.add(node.table)
            tables.update(join.table for join in node.joins)
            stack.extend([node.where] + list(node.select))
        elif isinstance(node, InCondition):
            stack.extend([node.operand, node.subquery] + list(node.values))
        elif hasattr(node, "__dataclass_fields__"):
            stack.extend(getattr(node, name)
                         for name in node.__dataclass_fields__)
    return tables
