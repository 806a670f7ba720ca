"""Container types: generics, finite hashes, tuples, and const strings.

Finite hash types, tuple types and const string types are the paper's
*heterogeneous* types (§2.2).  They are **mutable type objects**: when the
program mutates a value whose static type is one of these, CompRDL performs
a *weak update* — the shared type object itself is widened in place, and all
previously recorded subtype constraints on it are replayed (§4, "Type
Mutations and Weak Updates").  To support that, each mutable type carries a
constraint log that :func:`repro.rtypes.subtype.subtype` appends to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.rtypes.core import NominalType, RType, make_union
from repro.rtypes.kinds import Sym

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    pass


class GenericType(RType):
    """An instantiated generic type such as ``Array<String>`` or ``Table<T>``."""

    __slots__ = ("base", "params")

    def __init__(self, base: str, params: Sequence[RType]):
        super().__init__()
        self.base = base
        self.params = tuple(params)

    def _key(self) -> object:
        return (self.base, self.params)

    def _intern_args(self) -> tuple:
        return (self.base, self.params)

    def to_s(self) -> str:
        inner = ", ".join(p.to_s() for p in self.params)
        return f"{self.base}<{inner}>"


class _MutableType(RType):
    """Shared machinery for types subject to weak updates.

    Subclasses compare structurally but hash by class name only, because
    their contents can change after they have been put in a set or dict.
    The ``constraint_log`` records asserted constraints ``other <= self``
    (``"lower"``) and ``self <= other`` (``"upper"``) for replay.
    """

    __slots__ = ("constraint_log",)

    def __init__(self) -> None:
        super().__init__()
        self.constraint_log: list[tuple[str, RType]] = []

    def __hash__(self) -> int:
        return hash(type(self).__name__)

    def record(self, direction: str, other: RType) -> None:
        """Record an asserted constraint for later replay on mutation."""
        entry = (direction, other)
        if entry not in self.constraint_log:
            self.constraint_log.append(entry)


class TupleType(_MutableType):
    """A heterogeneous array type ``[t1, ..., tn]``.

    ``widen_elem`` implements the weak update from §4: writing a value of
    type ``t`` to index ``i`` replaces ``elts[i]`` with ``elts[i] or t``
    (in place, so every alias sees the widened type) and replays the
    recorded constraints.
    """

    __slots__ = ("elts",)

    def __init__(self, elts: Iterable[RType]):
        super().__init__()
        self.elts = list(elts)

    def _key(self) -> object:
        return tuple(self.elts)

    def to_s(self) -> str:
        inner = ", ".join(t.to_s() for t in self.elts)
        return f"[{inner}]"

    def widen_elem(self, index: int, t: RType) -> None:
        """Weakly update element ``index`` to include type ``t``."""
        self.elts[index] = make_union([self.elts[index], t])

    def promoted(self) -> GenericType:
        """The array type this tuple promotes to: ``Array<t1 or ... or tn>``."""
        if not self.elts:
            return GenericType("Array", [NominalType("Object")])
        return GenericType("Array", [make_union(self.elts)])


class FiniteHashType(_MutableType):
    """A heterogeneous hash type ``{k1: t1, ..., kn: tn}``.

    Keys are symbols (:class:`repro.rtypes.kinds.Sym`) or strings.  ``rest``
    optionally types unknown extra keys (``**``); ``optional_keys`` marks
    keys that may be absent.
    """

    __slots__ = ("elts", "rest", "optional_keys")

    def __init__(
        self,
        elts: Mapping[object, RType],
        rest: RType | None = None,
        optional_keys: Iterable[object] = (),
    ):
        super().__init__()
        self.elts: dict[object, RType] = dict(elts)
        self.rest = rest
        self.optional_keys = set(optional_keys)

    def _key(self) -> object:
        return (
            tuple(sorted(((str(k), v) for k, v in self.elts.items()), key=lambda kv: kv[0])),
            self.rest,
            frozenset(str(k) for k in self.optional_keys),
        )

    def to_s(self) -> str:
        parts = []
        for key, value in self.elts.items():
            opt = "?" if key in self.optional_keys else ""
            name = key.name if isinstance(key, Sym) else repr(key)
            parts.append(f"{name}: {opt}{value.to_s()}")
        if self.rest is not None:
            parts.append(f"**{self.rest.to_s()}")
        return "{ " + ", ".join(parts) + " }"

    def widen_key(self, key: object, t: RType) -> None:
        """Weakly update ``key`` to include type ``t`` (adds the key if new)."""
        if key in self.elts:
            self.elts[key] = make_union([self.elts[key], t])
        else:
            self.elts[key] = t
            self.optional_keys.add(key)

    def merged(self, other: "FiniteHashType") -> "FiniteHashType":
        """A new finite hash combining this one's entries with ``other``'s.

        Used by the ``joins`` comp type to build joined table schemas.
        """
        elts = dict(self.elts)
        elts.update(other.elts)
        return FiniteHashType(elts, rest=None, optional_keys=set())

    def key_type(self) -> RType:
        """The promoted key type (``Symbol`` or ``String`` union)."""
        from repro.rtypes.core import SingletonType

        keys = [SingletonType(k) if isinstance(k, Sym) else NominalType("String") for k in self.elts]
        if not keys:
            return NominalType("Object")
        return make_union([NominalType(k.base_name) if isinstance(k, SingletonType) else k for k in keys])

    def value_type(self) -> RType:
        """The promoted value type: union of all entry types (and rest)."""
        values = list(self.elts.values())
        if self.rest is not None:
            values.append(self.rest)
        if not values:
            return NominalType("Object")
        return make_union(values)

    def promoted(self) -> GenericType:
        """The hash type this finite hash promotes to (§2.2)."""
        return GenericType("Hash", [self.key_type(), self.value_type()])


class ConstStringType(_MutableType):
    """The type of a string literal that is never written to (§2.2).

    CompRDL treats const strings as singletons, enabling the SQL checker to
    see query text at type-checking time.  Mutating a const string promotes
    it (weakly) to plain ``String``.
    """

    __slots__ = ("value", "is_promoted")

    def __init__(self, value: str):
        super().__init__()
        self.value = value
        self.is_promoted = False

    def _key(self) -> object:
        return (self.value, self.is_promoted)

    def to_s(self) -> str:
        if self.is_promoted:
            return "String"
        return repr(self.value)

    def promote(self) -> None:
        """Weak update: forget the known value, becoming plain ``String``."""
        self.is_promoted = True
