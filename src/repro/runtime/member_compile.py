"""Compiled membership predicates: lower each RType once, check many times.

:func:`repro.runtime.membership.value_has_type` re-walks the isinstance
ladder on the *type* for every dynamic check — the per-verdict floor every
fleet shard and warm-session round pays.  This module applies the PR 4
compile-once strategy to the checker side: each type node is lowered once
into a Python closure ``fn(interp, value) -> bool`` whose structure dispatch
is resolved at compile time.  Unions become tuples of child closures,
optionals a ``None`` test plus the inner closure, and nominal/generic
membership gets a per-predicate inline cache keyed on the receiver's Python
type + the method-table epoch (class hierarchies only change under method
(re)definition, which bumps ``_METHOD_EPOCH``).

Predicates cache on the type instance itself (the ``RType._pred`` slot) and
— via hash-consing (:mod:`repro.rtypes.intern`) — on *interned identity*:
one predicate per canonical structure, shared by every universe in the
process, fleet-safe because closures read all dynamic state (class tables,
foreign schema hooks) from the ``interp`` argument at call time.

Weak updates (§4) are why two compilation regimes exist:

* **immutable nodes** (unions, generics, comp/bound/optional wrappers —
  their child tuples are assigned only in constructors) resolve child
  predicates *eagerly* at compile time;
* **mutable-rooted nodes** (tuples, finite hashes, const strings — the
  weak-update types, never interned) read their own mutable fields live on
  every call and dispatch children through the child's ``_pred`` slot,
  because ``widen_*``/``promote`` replace child entries with new objects.

This is the only membership path the dynamic checks take.
``value_has_type`` (:mod:`repro.runtime.membership`) stays as the reference
semantics: the fuzz storm's fifth invariant compares against it, and
``tests/runtime/test_member_parity.py`` runs whole test suites with every
check routed through it to pin verdict and Blame parity.
"""

from __future__ import annotations

from repro.obs.state import ENABLED as _OBS_ON
from repro.obs.state import bump
from repro.rtypes import (
    AnyType,
    BotType,
    BoundArg,
    CompExpr,
    ConstStringType,
    FiniteHashType,
    GenericType,
    MethodType,
    NominalType,
    OptionalArg,
    RType,
    SingletonType,
    TupleType,
    UnionType,
    VarType,
)
from repro.rtypes.intern import try_intern
from repro.rtypes.kinds import ClassRef, Sym
from repro.runtime.membership import _nominal_member
from repro.runtime.objects import (
    _METHOD_EPOCH,
    RArray,
    RBlock,
    RClass,
    RHash,
    RString,
)

# Receiver Python types whose nominal-membership verdict may be inline
# cached: builtin value types mapping to a fixed RClass independent of the
# instance, and which never advertise `comprdl_class_name` (the foreign
# schema objects that do — RelationValue and friends — have their own
# wrapper classes).  RObject/RClass stay out: their Ruby class varies per
# instance.
_IC_TYPES = frozenset((int, float, RString, RArray, RHash, Sym, RBlock))

#: distinguishes "not cached" from a cached ``False`` verdict
_MISS = object()

def predicate_for(t: RType):
    """The compiled membership predicate for ``t``: ``fn(interp, value)``.

    Cached on ``t._pred``; internable types compile once per *canonical*
    structure and share the closure across every structurally-equal
    instance (safe: internable ⟹ no part is subject to weak updates).
    """
    pred = t._pred
    if pred is not None:
        if _OBS_ON[0]:
            bump("membership.pred_cache_hits")
        return pred
    canon = try_intern(t)
    if canon is not None and canon is not t:
        pred = canon._pred
        if pred is None:
            pred = _compile(canon)
            canon._pred = pred
        t._pred = pred
        return pred
    pred = _compile(t)
    t._pred = pred
    return pred


# ---------------------------------------------------------------------------
# compilation — one case per constructor, mirroring value_has_type exactly
# ---------------------------------------------------------------------------

def _true(interp, value):
    return True


def _false(interp, value):
    return False


def _compile(t: RType):
    if _OBS_ON[0]:
        bump("membership.compiles")
    cls = t.__class__
    if cls is AnyType or cls is VarType:
        return _true
    if cls is BotType:
        return _false
    if cls is UnionType:
        return _compile_union(t)
    if cls is OptionalArg:
        inner = predicate_for(t.inner)

        def optional_pred(interp, value, _inner=inner):
            return value is None or _inner(interp, value)

        return optional_pred
    if cls is CompExpr or cls is BoundArg:
        # transparent wrappers: membership delegates to the bound entirely,
        # so the bound's predicate *is* this type's predicate
        return predicate_for(t.bound)
    if cls is SingletonType:
        return _compile_singleton(t)
    if cls is ConstStringType:
        # mutable: `is_promoted` flips in place under promotion — read live
        def const_string_pred(interp, value, _t=t):
            return isinstance(value, RString) and (
                _t.is_promoted or value.val == _t.value
            )

        return const_string_pred
    if cls is NominalType:
        return _compile_nominal(t.name)
    if cls is GenericType:
        return _compile_generic(t)
    if cls is TupleType:
        return _compile_tuple(t)
    if cls is FiniteHashType:
        return _compile_finite_hash(t)
    if cls is MethodType:
        def method_pred(interp, value):
            return isinstance(value, RBlock)

        return method_pred
    return _false  # unknown type classes are uninhabited, as in the walker


def _compile_union(t: UnionType):
    # `types` is an immutable tuple (constructor-only), so child predicates
    # resolve eagerly; each child closure reads its own mutable fields live
    # if it has any.  Arms probe left-to-right with short-circuit, exactly
    # like the structural path (interning canonicalizes the order — see
    # rtypes/intern.py).
    preds = tuple(predicate_for(m) for m in t.types)
    if len(preds) == 2:
        first, second = preds

        def union2_pred(interp, value, _a=first, _b=second):
            return _a(interp, value) or _b(interp, value)

        return union2_pred

    def union_pred(interp, value, _preds=preds):
        for p in _preds:
            if p(interp, value):
                return True
        return False

    return union_pred


def _compile_singleton(t: SingletonType):
    expected = t.value
    if isinstance(expected, ClassRef):
        def class_ref_pred(interp, value, _name=expected.name):
            return isinstance(value, RClass) and value.name == _name

        return class_ref_pred
    if expected is None:
        def nil_pred(interp, value):
            return value is None

        return nil_pred
    if expected is True or expected is False:
        def bool_pred(interp, value, _expected=expected):
            return value is _expected

        return bool_pred
    if isinstance(expected, Sym):
        def sym_pred(interp, value, _name=expected.name):
            return isinstance(value, Sym) and value.name == _name

        return sym_pred
    if isinstance(expected, (int, float)):
        def num_pred(interp, value, _expected=expected):
            return (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and value == _expected
            )

        return num_pred
    if isinstance(expected, str):
        def str_pred(interp, value, _expected=expected):
            return isinstance(value, RString) and value.val == _expected

        return str_pred
    return _false


def _compile_nominal(name: str):
    if name in ("Object", "BasicObject"):
        return _true
    if name in ("Boolean", "%bool"):
        def boolean_pred(interp, value):
            return value is True or value is False

        return boolean_pred
    # the general case walks the receiver's ancestor chain; memoize the
    # verdict per (interp, method-table epoch, receiver pytype) for builtin
    # value types — their RClass is fixed per pytype, and hierarchy edits
    # (method (re)definition) bump the epoch
    cache = [None, -1, None]  # [interp weakref, epoch, {pytype: verdict}]

    def nominal_pred(interp, value, _name=name, _cache=cache):
        t = value.__class__
        if t in _IC_TYPES:
            owner = _cache[0]
            # weakref: predicates are process-shared via the intern table,
            # and a strong interp reference would pin discarded universes
            if (owner is not None and owner() is interp
                    and _cache[1] == _METHOD_EPOCH[0]):
                verdict = _cache[2].get(t, _MISS)
                if verdict is not _MISS:
                    if _OBS_ON[0]:
                        bump("membership.ic_hits")
                    return verdict
            else:
                _cache[0] = interp.weak_self
                _cache[1] = _METHOD_EPOCH[0]
                _cache[2] = {}
            verdict = _nominal_member(interp, value, _name)
            if _OBS_ON[0]:
                bump("membership.ic_misses")
            _cache[2][t] = verdict
            return verdict
        return _nominal_member(interp, value, _name)

    return nominal_pred


def _compile_generic(t: GenericType):
    # `params` is an immutable tuple (constructor-only): resolve eagerly
    if t.base == "Array":
        elem = predicate_for(t.params[0])

        def array_pred(interp, value, _elem=elem):
            if not isinstance(value, RArray):
                return False
            for v in value.items:
                if not _elem(interp, v):
                    return False
            return True

        return array_pred
    if t.base == "Hash":
        key_pred = predicate_for(t.params[0])
        value_pred = predicate_for(t.params[1])

        def hash_pred(interp, value, _kp=key_pred, _vp=value_pred):
            if not isinstance(value, RHash):
                return False
            for k, v in value.pairs():
                if not _kp(interp, k) or not _vp(interp, v):
                    return False
            return True

        return hash_pred
    if t.base == "Table":
        # Table<S>: the ORM relation advertises its schema for checking
        schema = t.params[0]
        fallback = _compile_nominal("Table")

        def table_pred(interp, value, _schema=schema, _fallback=fallback):
            schema_check = getattr(value, "comprdl_check_table", None)
            if schema_check is not None:
                return schema_check(interp, _schema)
            return _fallback(interp, value)

        return table_pred
    return _compile_nominal(t.base)


def _compile_tuple(t: TupleType):
    # mutable: weak updates *replace* entries of `elts` with new union
    # objects (the list identity is stable, its contents are not), so the
    # closure re-reads the list and dispatches children per call through
    # their `_pred` slots
    def tuple_pred(interp, value, _t=t):
        if not isinstance(value, RArray):
            return False
        elts = _t.elts
        if len(value.items) != len(elts):
            return False
        for v, e in zip(value.items, elts):
            p = e._pred
            if p is None:
                p = predicate_for(e)
            if not p(interp, v):
                return False
        return True

    return tuple_pred


def _compile_finite_hash(t: FiniteHashType):
    # mutable, same regime as tuples; the key-normalization loop replicates
    # _finite_hash_member exactly — including first-match-wins over `elts`
    # in insertion order, which a precomputed {norm: type} map would break
    # for duplicate normalized keys
    def finite_hash_pred(interp, value, _t=t):
        if not isinstance(value, RHash):
            return False
        elts = _t.elts
        rest = _t.rest
        seen = set()
        for key, entry_value in value.pairs():
            norm = key.name if isinstance(key, Sym) else (
                key.val if isinstance(key, RString) else key
            )
            matched = None
            for type_key in elts:
                type_norm = type_key.name if isinstance(type_key, Sym) else type_key
                if type_norm == norm:
                    matched = elts[type_key]
                    break
            if matched is None:
                if rest is None:
                    return False
                p = rest._pred
                if p is None:
                    p = predicate_for(rest)
                if not p(interp, entry_value):
                    return False
            else:
                seen.add(norm)
                p = matched._pred
                if p is None:
                    p = predicate_for(matched)
                if not p(interp, entry_value):
                    return False
        for type_key in elts:
            type_norm = type_key.name if isinstance(type_key, Sym) else type_key
            if type_norm not in seen and type_key not in _t.optional_keys:
                return False
        return True

    return finite_hash_pred
