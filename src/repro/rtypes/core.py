"""Core scalar types: nominal, singleton, union, ``%any`` and ``%bot``.

Container types (generics, finite hashes, tuples, const strings) live in
:mod:`repro.rtypes.containers`; method types in :mod:`repro.rtypes.methods`.
"""

from __future__ import annotations

from typing import Iterable

from repro.rtypes.kinds import singleton_base_class


class RType:
    """Base class of every RDL type.

    Types are *structural values*: two types compare equal when they denote
    the same set of values.  The mutable container types (tuples, finite
    hashes, const strings) override identity-sensitive behaviour to support
    the paper's weak updates (§4), but still compare structurally.

    Immutable types are **hash-consed** (:mod:`repro.rtypes.intern`):
    interning makes structurally-equal types pointer-equal, which turns the
    hot ``__eq__``/``__hash__`` paths into identity checks — the hash is
    computed once and cached in ``_hash``, and two distinct *interned*
    objects are unequal by construction, so their comparison never recurses
    into the structural key.  Mutable types (tuples, finite hashes, const
    strings) are never interned: their structure changes under weak updates,
    so they always compare structurally (and hash by class, as before).
    """

    __slots__ = ("_hash", "_interned", "_fp", "_pred")

    def __init__(self) -> None:
        self._hash = -1
        self._interned = False
        self._fp = -1
        # compiled membership predicate (repro.runtime.member_compile),
        # bound lazily on first dynamic check of this type
        self._pred = None

    def to_s(self) -> str:
        """Render the type in RDL's surface syntax."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.to_s()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.to_s()}>"

    # Equality is defined per subclass via a key tuple.
    def _key(self) -> object:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            if not isinstance(other, RType):
                return NotImplemented
            return False
        if self._interned and other._interned:
            # interned types are canonical: equal structure => same object
            return False
        return self._key() == other._key()

    def __hash__(self) -> int:
        h = self._hash
        if h != -1:
            return h
        h = hash((type(self).__name__, self._key()))
        if h == -1:  # reserved as the "not yet computed" sentinel
            h = -2
        self._hash = h
        return h

    def __reduce_ex__(self, protocol):
        # Interned instances must re-intern when unpickled (e.g. when the
        # parallel fleet ships verdicts between processes): a plain state
        # round-trip would resurrect `_interned = True` duplicates, breaking
        # the identity-equality invariant above.
        if self._interned:
            from repro.rtypes.intern import _reintern

            return (_reintern, (type(self).__name__, self._intern_args()))
        return super().__reduce_ex__(protocol)

    def __getstate__(self):
        # Non-interned pickling path: scrub the cached hash and fingerprint.
        # `_hash` depends on PYTHONHASHSEED, so a value cached in one
        # process is wrong in another process (equal types with unequal
        # hashes corrupt any hash container); `_fp` indexes this process's
        # fingerprint table.  Both recompute lazily on first use.
        state: dict[str, object] = {}
        for cls in type(self).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if hasattr(self, name):
                    state[name] = getattr(self, name)
        state["_hash"] = -1
        state["_fp"] = -1
        # compiled membership predicates are closures over this process's
        # inline caches: never picklable, always recompiled on first use
        state["_pred"] = None
        return (None, state)

    def _intern_args(self) -> tuple:
        """Constructor arguments for rebuilding this (interned) type."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support interning")

    def is_comp(self) -> bool:
        """Whether the type (or a component of it) is a comp expression."""
        return False


class NominalType(RType):
    """A class name used as a type, e.g. ``Integer`` or ``User``.

    The pseudo-class ``%bool`` is modelled as a nominal type that the default
    class hierarchy makes the superclass of ``TrueClass`` and ``FalseClass``.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def _key(self) -> object:
        return self.name

    def _intern_args(self) -> tuple:
        return (self.name,)

    def to_s(self) -> str:
        return self.name


class SingletonType(RType):
    """The type of exactly one value, e.g. ``:emails``, ``2``, or ``User``.

    The paper uses singleton types for symbols, numerics, booleans, ``nil``
    and classes; const strings have their own type because Ruby strings are
    mutable (see :class:`repro.rtypes.containers.ConstStringType`).
    """

    __slots__ = ("value", "base_name")

    def __init__(self, value: object):
        super().__init__()
        self.value = value
        self.base_name = singleton_base_class(value)

    def _key(self) -> object:
        # bool is an int subtype in Python: disambiguate True from 1.
        return (type(self.value).__name__, self.value)

    def _intern_args(self) -> tuple:
        return (self.value,)

    def to_s(self) -> str:
        if self.value is None:
            return "nil"
        if self.value is True:
            return "true"
        if self.value is False:
            return "false"
        return str(self.value)


class AnyType(RType):
    """RDL's dynamic type ``%any``: compatible with every type, both ways."""

    __slots__ = ()

    def _key(self) -> object:
        return ()

    def _intern_args(self) -> tuple:
        return ()

    def to_s(self) -> str:
        return "%any"


class BotType(RType):
    """The empty type ``%bot``; subtype of everything."""

    __slots__ = ()

    def _key(self) -> object:
        return ()

    def _intern_args(self) -> tuple:
        return ()

    def to_s(self) -> str:
        return "%bot"


class UnionType(RType):
    """A union ``t1 or t2 or ...`` of two or more types.

    Use :func:`make_union` to build unions: it flattens nested unions,
    removes duplicates and collapses single-member unions.
    """

    __slots__ = ("types",)

    def __init__(self, types: tuple[RType, ...]):
        super().__init__()
        if len(types) < 2:
            raise ValueError("a union needs at least two member types")
        self.types = types

    def _key(self) -> object:
        return frozenset(self.types)

    def _intern_args(self) -> tuple:
        return (self.types,)

    def to_s(self) -> str:
        return " or ".join(t.to_s() for t in self.types)


def make_union(types: Iterable[RType]) -> RType:
    """Construct the canonical union of ``types``.

    Flattens nested unions, deduplicates members (preserving first-seen
    order), and returns the single member unchanged for singleton unions.
    An empty iterable yields ``%bot``.
    """
    flat: list[RType] = []
    seen: set[RType] = set()

    def add(t: RType) -> None:
        if isinstance(t, UnionType):
            for member in t.types:
                add(member)
            return
        if isinstance(t, BotType):
            return
        if t not in seen:
            seen.add(t)
            flat.append(t)

    for t in types:
        add(t)
    if not flat:
        return BotType()
    if len(flat) == 1:
        return flat[0]
    if any(isinstance(t, AnyType) for t in flat):
        return AnyType()
    return UnionType(tuple(flat))
