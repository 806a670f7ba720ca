"""Type annotations for Object / Kernel / NilClass / Symbol / Boolean / Proc.

Mostly conventional signatures (these are not part of Table 1's comp type
counts), plus the λC §3.1 example: comp types for ``TrueClass``/
``FalseClass`` conjunction and disjunction that fold singletons.
"""

from __future__ import annotations

OBJECT_SIGS: dict[str, object] = {
    "==": "(Object) -> %bool",
    "!=": "(Object) -> %bool",
    "equal?": "(Object) -> %bool",
    "eql?": "(Object) -> %bool",
    "nil?": "() -> %bool",
    "!": "() -> %bool",
    "is_a?": "(Class) -> %bool",
    "kind_of?": "(Class) -> %bool",
    "instance_of?": "(Class) -> %bool",
    "class": "() -> Class",
    "respond_to?": "(Object) -> %bool",
    "send": "(Object, *Object) -> %any",
    "public_send": "(Object, *Object) -> %any",
    "to_s": "() -> String",
    "inspect": "() -> String",
    "hash": "() -> Integer",
    "freeze": "() -> self",
    "frozen?": "() -> %bool",
    "dup": "() -> self",
    "clone": "() -> self",
    "tap": "() { (Object) -> Object } -> self",
    "itself": "() -> self",
    "instance_variable_get": "(Object) -> %any",
    "instance_variable_set": "(Object, Object) -> %any",
    "puts": "(*Object) -> nil",
    "print": "(*Object) -> nil",
    "p": "(*Object) -> %any",
    "require": "(String) -> %bool",
    "require_relative": "(String) -> %bool",
    "block_given?": "() -> %bool",
    "lambda": "() -> Proc",
    "proc": "() -> Proc",
    "format": "(String, *Object) -> String",
    "sprintf": "(String, *Object) -> String",
    "Integer": "(Object) -> Integer",
    "Float": "(Object) -> Float",
    "String": "(Object) -> String",
    "Array": "(Object) -> Array<Object>",
}

NIL_SIGS: dict[str, object] = {
    "to_s": "() -> String",
    "to_a": "() -> []",
    "to_i": "() -> 0",
    "inspect": "() -> String",
    "nil?": "() -> true",
}

SYMBOL_SIGS: dict[str, object] = {
    "to_s": "() -> String",
    "id2name": "() -> String",
    "to_sym": "() -> self",
    "inspect": "() -> String",
    "length": "() -> Integer",
    "size": "() -> Integer",
    "empty?": "() -> %bool",
    "upcase": "() -> Symbol",
    "downcase": "() -> Symbol",
    "capitalize": "() -> Symbol",
    "succ": "() -> Symbol",
    "<=>": "(Symbol) -> Integer or nil",
    "to_proc": "() -> Proc",
}

# λC's Bool.∧ example (§3.1): singleton-folding boolean operators
BOOLEAN_SIGS: dict[str, object] = {
    "&": "(t<:%bool) -> «bool_and_type(tself, t)»/%bool",
    "|": "(t<:%bool) -> «bool_or_type(tself, t)»/%bool",
    "to_s": "() -> String",
}

PROC_SIGS: dict[str, object] = {
    "call": "(*Object) -> %any",
    "[]": "(*Object) -> %any",
    "yield": "(*Object) -> %any",
    "to_proc": "() -> self",
    "lambda?": "() -> %bool",
    "arity": "() -> Integer",
}

RANGE_SIGS: dict[str, object] = {
    "to_a": "() -> Array<Integer>",
    "include?": "(Object) -> %bool",
    "cover?": "(Object) -> %bool",
    "member?": "(Object) -> %bool",
    "first": "() -> Integer",
    "begin": "() -> Integer",
    "last": "() -> Integer",
    "end": "() -> Integer",
    "min": "() -> Integer or nil",
    "max": "() -> Integer or nil",
    "size": "() -> Integer",
    "count": "() -> Integer",
    "sum": "() -> Integer",
    "each": "() { (Integer) -> Object } -> self",
    "map": "() { (Integer) -> t } -> Array<t>",
    "collect": "() { (Integer) -> t } -> Array<t>",
    "select": "() { (Integer) -> %bool } -> Array<Integer>",
}

EXCEPTION_SIGS: dict[str, object] = {
    "message": "() -> String",
    "to_s": "() -> String",
}

CLASS_SIGS: dict[str, object] = {
    "name": "() -> String",
    "to_s": "() -> String",
}
