"""Comp type annotations for Integer (paper: 108) and Float (paper: 98).

These implement the paper's §2.4 constant folding: arithmetic on singleton
numeric types yields singleton result types (``1+1 : Singleton(2)``).
As the paper observes, the precision is rarely exercised in app code; the
annotations exist to reproduce Table 1 and the §2.4 experiment.
"""

from __future__ import annotations


def _arith(op: str) -> str:
    return f"(t<:Numeric) -> «num_fold(tself, t, :{op})»/Numeric"


def _cmp(op: str) -> str:
    return f"(t<:Numeric) -> «num_cmp_fold(tself, t, :{op})»/%bool"


def _unary(op: str, fallback: str) -> str:
    name = op.replace("?", "?")
    return f"() -> «num_fold_unary(tself, :{name})»/{fallback}"


def _common_sigs() -> dict[str, object]:
    return {
        "+": _arith("+"),
        "-": _arith("-"),
        "*": _arith("*"),
        "**": _arith("**"),
        "pow": _arith("**"),
        "/": "(t<:Numeric) -> «num_div_fold(tself, t)»/Numeric",
        "%": "(Numeric) -> Numeric",
        "modulo": "(Numeric) -> Numeric",
        "fdiv": "(Numeric) -> Float",
        "<": _cmp("<"),
        ">": _cmp(">"),
        "<=": _cmp("<="),
        ">=": _cmp(">="),
        "==": "(t<:Object) -> «num_cmp_fold(tself, t, :==)»/%bool",
        "!=": "(t<:Object) -> «num_cmp_fold(tself, t, :!=)»/%bool",
        "<=>": "(Numeric) -> Integer or nil",
        "abs": _unary("abs", "Numeric"),
        "magnitude": _unary("abs", "Numeric"),
        "zero?": _unary("zero?", "%bool"),
        "nonzero?": "() -> Numeric or nil",
        "positive?": _unary("positive?", "%bool"),
        "negative?": _unary("negative?", "%bool"),
        "to_i": _unary("to_i", "Integer"),
        "to_int": _unary("to_i", "Integer"),
        "to_f": _unary("to_f", "Float"),
        "to_s": "(?Integer) -> String",
        "inspect": "() -> String",
        "ceil": _unary("ceil", "Integer"),
        "floor": _unary("floor", "Integer"),
        "round": "(?Integer) -> Numeric",
        "truncate": _unary("to_i", "Integer"),
        "divmod": "(Numeric) -> [Numeric, Numeric]",
        "coerce": "(Numeric) -> [Float, Float]",
        "between?": "(Numeric, Numeric) -> %bool",
        "clamp": "(Numeric, Numeric) -> Numeric",
        "step": "(Numeric, ?Numeric) -> Array<Numeric>",
        "finite?": "() -> %bool",
        "hash": "() -> Integer",
        "eql?": "(Object) -> %bool",
    }


INTEGER_SIGS: dict[str, object] = {
    **_common_sigs(),
    "succ": _unary("succ", "Integer"),
    "next": _unary("next", "Integer"),
    "pred": _unary("pred", "Integer"),
    "even?": _unary("even?", "%bool"),
    "odd?": _unary("odd?", "%bool"),
    "integer?": "() -> true",
    "chr": "() -> String",
    "ord": "() -> «tself»/Integer",
    "digits": "(?Integer) -> Array<Integer>",
    "bit_length": "() -> Integer",
    "gcd": "(Integer) -> Integer",
    "lcm": "(Integer) -> Integer",
    "times": "() { (Integer) -> Object } -> Integer",
    "upto": "(Integer) { (Integer) -> Object } -> Integer",
    "downto": "(Integer) { (Integer) -> Object } -> Integer",
    "size": "() -> Integer",
    "[]": "(Integer) -> Integer",
    "&": "(Integer) -> Integer",
    "|": "(Integer) -> Integer",
    "<<": "(Integer) -> Integer",
    ">>": "(Integer) -> Integer",
    "-@": _unary("-@", "Integer"),
}

FLOAT_SIGS: dict[str, object] = {
    **_common_sigs(),
    "nan?": "() -> %bool",
    "infinite?": "() -> Integer or nil",
    "integer?": "() -> false",
    "-@": _unary("-@", "Float"),
}
