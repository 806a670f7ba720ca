"""The class hierarchy used for nominal subtyping.

λC assumes classes form a lattice with ``Nil`` as bottom and ``Obj`` as top
(§3.1).  We mirror that with Ruby's names: ``Object`` is the top,
``NilClass`` is treated as a subtype of every class (null-pointer errors
become blame, as in the formalism), and the pseudo-class ``Boolean``
(written ``%bool`` in signatures) is the superclass of ``TrueClass`` and
``FalseClass``.
"""

from __future__ import annotations


class ClassHierarchy:
    """A registry of classes and their superclasses.

    ``le`` queries are memoized per hierarchy (``_le_cache``); the cache
    is dropped whenever the hierarchy gains a class.
    """

    def __init__(self) -> None:
        self._superclass: dict[str, str | None] = {"Object": None}
        self._le_cache: dict[tuple[str, str], bool] = {}

    def add_class(self, name: str, superclass: str = "Object") -> None:
        """Register ``name`` with the given superclass (default ``Object``)."""
        if name == "Object":
            return
        existing = self._superclass.get(name)
        if existing is not None and existing != superclass:
            raise ValueError(
                f"class {name} already registered with superclass {existing}"
            )
        self._superclass[name] = superclass
        if self._le_cache:
            self._le_cache.clear()
        if superclass not in self._superclass:
            self._superclass[superclass] = "Object"

    def knows(self, name: str) -> bool:
        """Whether ``name`` has been registered."""
        return name in self._superclass

    def superclass(self, name: str) -> str | None:
        """The registered superclass of ``name`` (``None`` for ``Object``)."""
        return self._superclass.get(name, "Object" if name != "Object" else None)

    def ancestors(self, name: str) -> list[str]:
        """``name`` followed by its superclass chain up to ``Object``."""
        chain = [name]
        current: str | None = name
        seen = {name}
        while current is not None:
            current = self.superclass(current)
            if current is None or current in seen:
                break
            seen.add(current)
            chain.append(current)
        return chain

    def le(self, sub: str, sup: str) -> bool:
        """Nominal subtyping: is ``sub`` the same as or a subclass of ``sup``?"""
        if sub == sup or sup == "Object":
            return True
        if sub == "NilClass":
            return True
        key = (sub, sup)
        cached = self._le_cache.get(key)
        if cached is None:
            cached = sup in self.ancestors(sub)
            self._le_cache[key] = cached
        return cached

    def lub(self, a: str, b: str) -> str:
        """The least common ancestor of two classes."""
        a_chain = self.ancestors(a)
        b_chain = set(self.ancestors(b))
        for name in a_chain:
            if name in b_chain:
                return name
        return "Object"

    def copy(self) -> "ClassHierarchy":
        """An independent copy (used by per-program checkers)."""
        clone = ClassHierarchy()
        clone._superclass = dict(self._superclass)
        return clone


_CORE_CLASSES: list[tuple[str, str]] = [
    ("BasicObject", "Object"),
    ("Module", "Object"),
    ("Class", "Module"),
    ("NilClass", "Object"),
    ("Boolean", "Object"),
    ("TrueClass", "Boolean"),
    ("FalseClass", "Boolean"),
    ("Comparable", "Object"),
    ("Numeric", "Object"),
    ("Integer", "Numeric"),
    ("Float", "Numeric"),
    ("String", "Object"),
    ("Symbol", "Object"),
    ("Regexp", "Object"),
    ("Range", "Object"),
    ("Enumerable", "Object"),
    ("Array", "Enumerable"),
    ("Hash", "Enumerable"),
    ("Proc", "Object"),
    ("Exception", "Object"),
    ("StandardError", "Exception"),
    ("TypeError", "StandardError"),
    ("ArgumentError", "StandardError"),
    ("RuntimeError", "StandardError"),
    ("IO", "Object"),
    ("Time", "Object"),
    ("DateTime", "Object"),
    ("Type", "Object"),
    ("Table", "Object"),
    ("ActiveRecord::Base", "Object"),
    ("Sequel::Model", "Object"),
    ("Sequel::Dataset", "Object"),
]


def default_hierarchy() -> ClassHierarchy:
    """A hierarchy pre-populated with the core classes CompRDL knows about."""
    hierarchy = ClassHierarchy()
    for name, superclass in _CORE_CLASSES:
        hierarchy.add_class(name, superclass)
    return hierarchy
