"""Subtyping, joins, and the constraint log used for weak updates.

The relation follows RDL's, specialised per the paper:

* ``%any`` is compatible with everything in both directions;
* ``nil`` (and ``NilClass``) is a subtype of every type, matching λC where
  null-pointer errors surface as blame rather than type errors;
* singleton types are subtypes of their base class;
* tuples promote to ``Array<T>`` and finite hashes to ``Hash<K, V>``; each
  such use records a constraint on the mutable type so it can be *replayed*
  after a weak update (§4).
"""

from __future__ import annotations

from repro.rtypes.containers import (
    ConstStringType,
    FiniteHashType,
    GenericType,
    TupleType,
    _MutableType,
)
from repro.rtypes.core import (
    AnyType,
    BotType,
    NominalType,
    RType,
    SingletonType,
    UnionType,
    make_union,
)
from repro.obs.spans import bump
from repro.obs.state import ENABLED as _OBS_ON
from repro.rtypes.hierarchy import ClassHierarchy, default_hierarchy
from repro.rtypes.kinds import ClassRef, Sym
from repro.rtypes.methods import BoundArg, CompExpr, MethodType, OptionalArg, VarargArg
from repro.rtypes.vars import VarType


class ConstraintLog:
    """Errors raised when replaying constraints after a weak update."""

    class ReplayError(Exception):
        """A weak update violated a previously asserted constraint."""


def subtype(
    s: RType,
    t: RType,
    hierarchy: ClassHierarchy | None = None,
    record: bool = True,
) -> bool:
    """Decide ``s <= t``.

    ``record=True`` appends promotion constraints to the logs of any mutable
    types involved, so that later weak updates can replay them; pass
    ``record=False`` for speculative queries (e.g. overload selection).
    """
    hierarchy = hierarchy or _DEFAULT
    if _OBS_ON[0]:
        bump("subtype.queries")
    if s is t or s == t:
        return True
    if isinstance(s, AnyType) or isinstance(t, AnyType):
        return True
    if isinstance(s, BotType):
        return True
    if isinstance(t, BotType):
        return False

    # nil is bottom (λC §3.1).
    if isinstance(s, SingletonType) and s.value is None:
        return True
    if isinstance(s, NominalType) and s.name == "NilClass":
        return True

    if isinstance(t, NominalType) and t.name == "Object":
        return True

    # Unions.
    if isinstance(s, UnionType):
        return all(subtype(member, t, hierarchy, record) for member in s.types)
    if isinstance(t, UnionType):
        return any(subtype(s, member, hierarchy, record) for member in t.types)

    # Type variables match only themselves outside unification.
    if isinstance(s, VarType) or isinstance(t, VarType):
        return isinstance(s, VarType) and isinstance(t, VarType) and s.name == t.name

    ok = _subtype_core(s, t, hierarchy, record)
    if ok and record:
        if isinstance(s, _MutableType):
            s.record("upper", t)
        if isinstance(t, _MutableType) and not isinstance(s, _MutableType):
            t.record("lower", s)
    return ok


def _subtype_core(s: RType, t: RType, hierarchy: ClassHierarchy, record: bool) -> bool:
    if isinstance(s, SingletonType):
        if isinstance(t, SingletonType):
            return s == t
        return subtype(NominalType(s.base_name), t, hierarchy, record)

    if isinstance(s, ConstStringType):
        if isinstance(t, ConstStringType):
            if t.is_promoted:
                return True
            return not s.is_promoted and s.value == t.value
        return subtype(NominalType("String"), t, hierarchy, record)

    if isinstance(s, NominalType):
        if isinstance(t, NominalType):
            return hierarchy.le(s.name, t.name)
        return False

    if isinstance(s, GenericType):
        if isinstance(t, GenericType):
            if not hierarchy.le(s.base, t.base):
                return False
            if len(s.params) != len(t.params):
                return False
            return all(
                subtype(sp, tp, hierarchy, record)
                for sp, tp in zip(s.params, t.params)
            )
        if isinstance(t, NominalType):
            return hierarchy.le(s.base, t.name)
        if isinstance(t, FiniteHashType) or isinstance(t, TupleType):
            return False
        return False

    if isinstance(s, TupleType):
        if isinstance(t, TupleType):
            if len(s.elts) != len(t.elts):
                return False
            return all(
                subtype(se, te, hierarchy, record)
                for se, te in zip(s.elts, t.elts)
            )
        if isinstance(t, GenericType) and t.base == "Array":
            return subtype(s.promoted(), t, hierarchy, record)
        if isinstance(t, NominalType):
            return hierarchy.le("Array", t.name)
        return False

    if isinstance(s, FiniteHashType):
        if isinstance(t, FiniteHashType):
            return _fh_subtype(s, t, hierarchy, record)
        if isinstance(t, GenericType) and t.base == "Hash":
            return subtype(s.promoted(), t, hierarchy, record)
        if isinstance(t, NominalType):
            return hierarchy.le("Hash", t.name)
        return False

    if isinstance(s, MethodType) and isinstance(t, MethodType):
        if len(s.args) != len(t.args):
            return False
        contra = all(
            subtype(ta, sa, hierarchy, record)
            for sa, ta in zip(s.args, t.args)
        )
        return contra and subtype(s.ret, t.ret, hierarchy, record)

    if isinstance(s, (BoundArg, OptionalArg, VarargArg, CompExpr)):
        raise TypeError(f"{s!r} is a signature component, not a standalone type")

    return False


def _fh_subtype(
    s: FiniteHashType, t: FiniteHashType, hierarchy: ClassHierarchy, record: bool
) -> bool:
    for key, t_value in t.elts.items():
        if key in s.elts:
            if not subtype(s.elts[key], t_value, hierarchy, record):
                return False
        elif key not in t.optional_keys:
            return False
    for key, s_value in s.elts.items():
        if key in t.elts:
            continue
        if t.rest is None or not subtype(s_value, t.rest, hierarchy, record):
            return False
    return True


def join(a: RType, b: RType, hierarchy: ClassHierarchy | None = None) -> RType:
    """The least upper bound used at control-flow merges.

    Prefers one side when the other is subsumed; otherwise returns a union
    (RDL's behaviour — it does not climb the class hierarchy eagerly).
    """
    hierarchy = hierarchy or _DEFAULT
    if subtype(a, b, hierarchy, record=False):
        return b
    if subtype(b, a, hierarchy, record=False):
        return a
    return make_union([a, b])


def replay_constraints(t: _MutableType, hierarchy: ClassHierarchy | None = None) -> None:
    """Re-check every constraint recorded on ``t`` after a weak update.

    This is the paper's constraint replay (§4): if ``α <= [Integer, String]``
    was asserted and the tuple is widened to ``[Integer or String, String]``,
    the original constraint is replayed against the widened type.  Raises
    :class:`ConstraintLog.ReplayError` when a constraint no longer holds.
    """
    hierarchy = hierarchy or _DEFAULT
    for direction, other in list(t.constraint_log):
        if direction == "upper":
            ok = subtype(t, other, hierarchy, record=False)
        else:
            ok = subtype(other, t, hierarchy, record=False)
        if not ok:
            raise ConstraintLog.ReplayError(
                f"weak update on {t.to_s()} violates recorded constraint "
                f"({'<=' if direction == 'upper' else '>='} {other.to_s()})"
            )


def type_of_value(value: object) -> RType:
    """The most precise RDL type of a runtime scalar (for reflection).

    Container values are handled by the runtime layer; this helper covers
    immediates, which always get singleton types per §2.4.
    """
    if value is None or isinstance(value, (bool, int, float, Sym, ClassRef)):
        from repro.rtypes.intern import intern

        return intern(SingletonType(value))
    if isinstance(value, str):
        return ConstStringType(value)
    raise TypeError(f"no immediate type for {value!r}")


_DEFAULT = default_hierarchy()
