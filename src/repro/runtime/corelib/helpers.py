"""Shared helpers for native core-library methods."""

from __future__ import annotations

from repro.rtypes.kinds import Sym
from repro.runtime.errors import RubyError
from repro.runtime.objects import (
    RArray,
    RBlock,
    RClass,
    RMethod,
    RString,
    ruby_eq,
)


def native(klass: RClass, name: str, fn, static: bool = False) -> None:
    """Register a Python function as a native method."""
    klass.define(name, RMethod(name, native=fn), static=static)


def arg_or(args: list, index: int, default: object = None) -> object:
    return args[index] if index < len(args) else default


def expect_block(interp, block: RBlock | None, name: str):
    if block is None:
        raise RubyError("ArgumentError", f"{name}: no block given")
    return block


def as_str(value: object) -> str:
    """Coerce a runtime value used where Ruby expects a String."""
    if isinstance(value, RString):
        return value.val
    if isinstance(value, Sym):
        return value.name
    raise RubyError("TypeError", f"no implicit conversion to String: {value!r}")


def as_int(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RubyError("TypeError", f"no implicit conversion to Integer: {value!r}")
    return value


def as_num(value: object):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RubyError("TypeError", f"no implicit conversion to Numeric: {value!r}")
    return value


def call_block(interp, block: RBlock, args: list):
    return interp.call_block(block, args, 0)


def compare_values(interp, a: object, b: object) -> int:
    """Ruby ``<=>`` over built-ins, falling back to a user ``<=>`` method."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        return (a > b) - (a < b)
    if isinstance(a, RString) and isinstance(b, RString):
        return (a.val > b.val) - (a.val < b.val)
    if isinstance(a, Sym) and isinstance(b, Sym):
        return (a.name > b.name) - (a.name < b.name)
    if isinstance(a, RArray) and isinstance(b, RArray):
        for x, y in zip(a.items, b.items):
            c = compare_values(interp, x, y)
            if c != 0:
                return c
        return (len(a.items) > len(b.items)) - (len(a.items) < len(b.items))
    result = interp.call_method(a, "<=>", [b], None, 0)
    if isinstance(result, int) and not isinstance(result, bool):
        return result
    raise RubyError("ArgumentError", f"comparison failed between {a!r} and {b!r}")


def sort_key(interp):
    """A key-function adapter usable with Python's sort."""
    import functools

    return functools.cmp_to_key(lambda x, y: compare_values(interp, x, y))


def eq(a: object, b: object) -> bool:
    return ruby_eq(a, b)

