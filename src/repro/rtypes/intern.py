"""Hash-consing for RDL types: interning, fingerprints, and fresh copies.

The checker compares, hashes and re-derives the same types millions of
times per run.  Interning makes structurally-equal *immutable* types
pointer-equal — ``intern`` returns one canonical instance per structure, so
``__eq__`` degrades to an identity check (see :class:`repro.rtypes.core.
RType`), hashes are computed once, and caches can key on object identity.

Three related facilities live here:

* :func:`intern` / :func:`try_intern` — the interning constructors.  Only
  immutable types participate; the weak-update types (tuples, finite
  hashes, const strings — the paper's §4 "type mutations") and anything
  containing one stay out of the table, because their structure changes
  under ``widen_*``/``promote`` and a canonical table entry would alias
  every copy.  Inference/type variables are immutable *names* here
  (bindings live in separate dicts), so ``VarType`` itself interns safely.

* :func:`fingerprint` — a process-stable integer id for *any* type,
  derived from its current structure.  For interned types the id is cached
  on the instance; for mutable types it is recomputed per call, i.e. a
  fingerprint is a snapshot of "the structure right now" — exactly what
  memo keys like ``CompEvalCache.binding_key`` and the relation membership
  memo previously captured with ``to_s()``/``repr()`` strings, but as one
  int instead of a rendered string.  Fingerprints are never recycled
  (the table is append-only), so same id ⟺ same structure, forever.

* :func:`fresh_copy` — copy a type along its mutable structure, sharing
  every immutable subtree.  This is what lets parsed signatures and cached
  comp results be shared safely: callers get private mutable spines with
  common immutable leaves.

Pickling: interned instances carry a ``__reduce_ex__`` that routes through
:func:`_reintern`, so types crossing the parallel fleet's process boundary
re-intern on unpickle instead of resurrecting ``_interned`` duplicates that
would break the identity-equality invariant.
"""

from __future__ import annotations

from repro.rtypes.containers import (
    ConstStringType,
    FiniteHashType,
    GenericType,
    TupleType,
)
from repro.rtypes.core import (
    AnyType,
    BotType,
    NominalType,
    RType,
    SingletonType,
    UnionType,
)
from repro.rtypes.methods import (
    BoundArg,
    CompExpr,
    MethodType,
    OptionalArg,
    VarargArg,
)
from repro.rtypes.vars import VarType

#: canonical instance per (class, structural key); holds strong references
#: forever, which is what makes `id(interned_type)` a stable cache key
_INTERN_TABLE: dict[tuple, RType] = {}

#: structural key -> int id.  Ids are epoch-tagged (``epoch * _FP_SPAN +
#: index``): when the table reaches ``_FP_SPAN`` entries — possible in a
#: long-running process fingerprinting ever-widening mutable types — it is
#: cleared and the epoch advances, so freshly-issued ids can never collide
#: with ids minted before the flush.  "Same fingerprint => same structure"
#: therefore holds forever; after a flush two equal structures may briefly
#: get *different* ids (old cached vs newly issued), which costs dependent
#: memos a false miss, never a false hit.
_FP_TABLE: dict[tuple, int] = {}
_FP_SPAN = 1 << 22
_FP_EPOCH = [0]

_MUTABLE = (TupleType, FiniteHashType, ConstStringType)
_LEAVES = (NominalType, SingletonType, AnyType, BotType, VarType)


def interned_count() -> int:
    """Number of canonical types in the intern table (for diagnostics)."""
    return len(_INTERN_TABLE)


def fingerprint_count() -> int:
    """Number of structural fingerprints issued this epoch (diagnostics)."""
    return len(_FP_TABLE)


def env_count() -> int:
    """Number of interned binding environments this epoch (diagnostics)."""
    return len(_ENV_TABLE)


def _union_order_key(member: RType) -> tuple[str, str]:
    """Process-stable sort key for canonical union arm order.

    Derived purely from structure (class name + rendered syntax), never from
    ids or fingerprints, so memory and sqlite universes — and parent vs
    worker processes — all agree on the order arms are probed in.
    """
    return (member.__class__.__name__, member.to_s())


def try_intern(t: RType | None) -> RType | None:
    """The canonical instance for ``t``, or ``None`` if not internable.

    A type is internable when no part of its structure is subject to weak
    updates.  Children are interned first, so a hit at any level returns a
    fully-canonical tree.
    """
    if t is None:
        return None
    if t._interned:
        return t
    cls = t.__class__
    if cls in _LEAVES:
        key = (cls, t._key())
        found = _INTERN_TABLE.get(key)
        if found is not None:
            return found
        t._interned = True
        _INTERN_TABLE[key] = t
        return t
    if cls is UnionType:
        members = []
        changed = False
        for member in t.types:
            canon = try_intern(member)
            if canon is None:
                return None
            members.append(canon)
            changed = changed or canon is not member
        # Canonicalize arm order: membership probes a union's arms
        # left-to-right and short-circuits, so an effectful arm (a
        # ``Table<S>`` schema check) reached in one arrival order but
        # shadowed in another would make verdicts — and Blame — depend on
        # which universe interned the union first.  The sort key is
        # process-stable (rendered syntax + class name, never ids or
        # fingerprints), so every process derives the same canonical order.
        ordered = sorted(members, key=_union_order_key)
        if any(a is not b for a, b in zip(ordered, members)):
            changed = True
        candidate = UnionType(tuple(ordered)) if changed else t
        return _store(cls, (frozenset(ordered),), candidate)
    if cls is GenericType:
        params = _intern_all(t.params)
        if params is None:
            return None
        unchanged = all(a is b for a, b in zip(params, t.params))
        candidate = t if unchanged else GenericType(t.base, params)
        return _store(cls, (t.base, tuple(params)), candidate)
    if cls is CompExpr:
        bound = try_intern(t.bound)
        if bound is None:
            return None
        candidate = t if bound is t.bound else CompExpr(t.code, bound)
        return _store(cls, (t.code, bound), candidate)
    if cls is BoundArg:
        bound = try_intern(t.bound)
        if bound is None:
            return None
        candidate = t if bound is t.bound else BoundArg(t.var, bound)
        return _store(cls, (t.var, bound), candidate)
    if cls is OptionalArg or cls is VarargArg:
        inner = try_intern(t.inner)
        if inner is None:
            return None
        candidate = t if inner is t.inner else cls(inner)
        return _store(cls, (inner,), candidate)
    if cls is MethodType:
        args = _intern_all(t.args)
        if args is None:
            return None
        block = None
        if t.block is not None:
            block = try_intern(t.block)
            if block is None:
                return None
        ret = try_intern(t.ret)
        if ret is None:
            return None
        unchanged = (ret is t.ret and block is t.block
                     and all(a is b for a, b in zip(args, t.args)))
        candidate = t if unchanged else MethodType(args, block, ret)
        return _store(cls, (tuple(args), block, ret), candidate)
    return None  # mutable (weak-update) types and unknown classes


def intern(t: RType) -> RType:
    """Canonicalize ``t`` where possible; non-internable types pass through."""
    canon = try_intern(t)
    return canon if canon is not None else t


def _intern_all(types) -> list[RType] | None:
    out = []
    for t in types:
        canon = try_intern(t)
        if canon is None:
            return None
        out.append(canon)
    return out


def _store(cls: type, key_tail: tuple, candidate: RType) -> RType:
    key = (cls,) + key_tail
    found = _INTERN_TABLE.get(key)
    if found is not None:
        return found
    candidate._interned = True
    _INTERN_TABLE[key] = candidate
    return candidate


def _reintern(cls_name: str, args: tuple) -> RType:
    """Pickle hook: rebuild and re-intern an interned type in this process."""
    cls = _CLASSES[cls_name]
    return intern(cls(*args))


_CLASSES = {
    cls.__name__: cls
    for cls in (NominalType, SingletonType, AnyType, BotType, UnionType,
                GenericType, CompExpr, BoundArg, OptionalArg, VarargArg,
                MethodType, VarType)
}


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

def fingerprint(t: RType | None) -> int:
    """A process-stable integer identifying ``t``'s *current* structure.

    Same fingerprint ⇒ same structure, always (ids are never reused — see
    the epoch note on ``_FP_TABLE``).  Interned types cache theirs; mutable
    types pay one structural walk per call — still far cheaper than
    rendering a repr, and the result keys as a machine int.
    """
    if t is None:
        return 0
    fp = t._fp
    if fp != -1:
        return fp
    key = _fp_key(t)
    fp = _FP_TABLE.get(key)
    if fp is None:
        if len(_FP_TABLE) >= _FP_SPAN:
            _FP_TABLE.clear()
            _FP_EPOCH[0] += 1
        fp = _FP_EPOCH[0] * _FP_SPAN + len(_FP_TABLE) + 1
        _FP_TABLE[key] = fp
    if t._interned:
        t._fp = fp
    return fp


def _fp_key(t: RType) -> tuple:
    cls = t.__class__
    if cls is NominalType:
        return ("N", t.name)
    if cls is SingletonType:
        return ("S", type(t.value).__name__, t.value)
    if cls is AnyType:
        return ("Any",)
    if cls is BotType:
        return ("Bot",)
    if cls is VarType:
        return ("V", t.name)
    if cls is UnionType:
        return ("U", frozenset(fingerprint(m) for m in t.types))
    if cls is GenericType:
        return ("G", t.base, tuple(fingerprint(p) for p in t.params))
    if cls is TupleType:
        return ("T", tuple(fingerprint(e) for e in t.elts))
    if cls is FiniteHashType:
        return (
            "FH",
            tuple(sorted(((str(k), fingerprint(v)) for k, v in t.elts.items()),
                         key=lambda kv: kv[0])),
            fingerprint(t.rest),
            frozenset(str(k) for k in t.optional_keys),
        )
    if cls is ConstStringType:
        return ("CS", t.value, t.is_promoted)
    if cls is CompExpr:
        return ("CE", t.code, fingerprint(t.bound))
    if cls is BoundArg:
        return ("BA", t.var, fingerprint(t.bound))
    if cls is OptionalArg:
        return ("O", fingerprint(t.inner))
    if cls is VarargArg:
        return ("VA", fingerprint(t.inner))
    if cls is MethodType:
        return ("MT", tuple(fingerprint(a) for a in t.args),
                fingerprint(t.block), fingerprint(t.ret))
    raise TypeError(f"no fingerprint for {t!r}")


# ---------------------------------------------------------------------------
# interned binding environments
# ---------------------------------------------------------------------------

#: structural env key (sorted (name, fingerprint) pairs) -> env id.  Same
#: epoch-tagged never-recycled scheme as the type fingerprint table.
_ENV_TABLE: dict[tuple, int] = {}
#: identity fast path: sorted (name, id(type)) pairs -> env id, valid only
#: for environments whose every binding is interned (the intern table holds
#: strong references forever, so ``id`` is a stable proxy for structure)
_ENV_ID_TABLE: dict[tuple, int] = {}
_ENV_SPAN = 1 << 20
_ENV_EPOCH = [0]

#: the canonical id of the empty environment (issued eagerly so epoch
#: flushes never renumber it)
_EMPTY_ENV = 0


def env_fingerprint(bindings: dict) -> int:
    """A process-stable integer identifying a whole binding environment.

    Comp binding environments (``tself`` plus the signature's type
    variables) recur constantly during checking; this interns the *whole
    dict* so memo keys like ``CompEvalCache.binding_key`` become one int.
    Environments whose bindings are all interned types hit the identity
    table — a single dict lookup on object ids, no structural walks; only
    environments containing mutable (weak-update) types pay a per-type
    :func:`fingerprint` each call, which is exactly the snapshot semantics
    those types need (mutating a binding changes the env id).

    Same id ⟺ same structure, forever (ids are epoch-tagged and never
    recycled, like type fingerprints).
    """
    if not bindings:
        return _EMPTY_ENV
    items = sorted(bindings.items())
    id_key: tuple | None = tuple(
        (name, id(t)) for name, t in items
    ) if all(t._interned for _, t in items) else None
    if id_key is not None:
        fp = _ENV_ID_TABLE.get(id_key)
        if fp is not None:
            return fp
    key = tuple((name, fingerprint(t)) for name, t in items)
    fp = _ENV_TABLE.get(key)
    if fp is None:
        if len(_ENV_TABLE) >= _ENV_SPAN:
            _ENV_TABLE.clear()
            _ENV_ID_TABLE.clear()
            _ENV_EPOCH[0] += 1
        fp = _ENV_EPOCH[0] * _ENV_SPAN + len(_ENV_TABLE) + 1
        _ENV_TABLE[key] = fp
    if id_key is not None:
        _ENV_ID_TABLE[id_key] = fp
    return fp


# ---------------------------------------------------------------------------
# fresh copies along mutable structure
# ---------------------------------------------------------------------------

_IMMUTABLE_LEAVES = frozenset(
    (NominalType, SingletonType, AnyType, BotType, VarType))


def fresh_copy(t: RType | None) -> RType | None:
    """Copy ``t`` along its mutable structure, sharing immutable subtrees.

    Weak updates widen tuples / finite hashes / const strings *in place*
    (including parts nested inside immutable containers), so distinct
    consumers of one cached/parsed type must never alias its mutable spine.
    Fully-immutable subtrees are shared as-is — interned or not, nothing can
    change them.  Fresh mutable copies start with empty constraint logs,
    exactly like a fresh parse.
    """
    if t is None or t._interned:
        return t
    cls = t.__class__
    if cls in _IMMUTABLE_LEAVES:
        return t
    if cls is TupleType:
        return TupleType([fresh_copy(e) for e in t.elts])
    if cls is FiniteHashType:
        return FiniteHashType(
            {k: fresh_copy(v) for k, v in t.elts.items()},
            rest=fresh_copy(t.rest),
            optional_keys=t.optional_keys,  # the constructor copies it
        )
    if cls is ConstStringType:
        copy = ConstStringType(t.value)
        copy.is_promoted = t.is_promoted
        return copy
    if cls is UnionType:
        members = [fresh_copy(m) for m in t.types]
        if all(m is o for m, o in zip(members, t.types)):
            return t
        return UnionType(tuple(members))
    if cls is GenericType:
        params = [fresh_copy(p) for p in t.params]
        if all(p is o for p, o in zip(params, t.params)):
            return t
        return GenericType(t.base, params)
    if cls is CompExpr:
        bound = fresh_copy(t.bound)
        return t if bound is t.bound else CompExpr(t.code, bound)
    if cls is BoundArg:
        bound = fresh_copy(t.bound)
        return t if bound is t.bound else BoundArg(t.var, bound)
    if cls is OptionalArg or cls is VarargArg:
        inner = fresh_copy(t.inner)
        return t if inner is t.inner else cls(inner)
    if cls is MethodType:
        args = [fresh_copy(a) for a in t.args]
        block = fresh_copy(t.block)
        ret = fresh_copy(t.ret)
        if (ret is t.ret and block is t.block
                and all(a is b for a, b in zip(args, t.args))):
            return t
        return MethodType(args, block, ret)
    return t  # an RType subclass with no mutable structure
