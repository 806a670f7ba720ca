"""Comp type annotations for String (paper: 114 definitions).

Const string types (§2.2) make string operations precise: operations on
never-mutated strings fold at the type level (``'a' + 'b'`` has type
``'ab'``), which is what lets the SQL checker see query text (§2.3).
Mutators are impure, triggering the weak promotion of const strings back to
``String`` (§4).
"""

from __future__ import annotations


def _fold(op: str) -> str:
    return f"() -> «str_fold_unary(tself, :{op})»/String"


STRING_SIGS: dict[str, object] = {
    # basics
    "+": "(t<:String) -> «str_concat_type(tself, t)»/String",
    "*": "(t<:Integer) -> «str_mult_type(tself, t)»/String",
    "%": "(Object) -> String",
    "==": "(Object) -> %bool",
    "!=": "(Object) -> %bool",
    "eql?": "(Object) -> %bool",
    "<": "(String) -> %bool",
    ">": "(String) -> %bool",
    "<=": "(String) -> %bool",
    ">=": "(String) -> %bool",
    "<=>": "(Object) -> Integer or nil",
    "length": "() -> «str_length_type(tself)»/Integer",
    "size": "() -> «str_length_type(tself)»/Integer",
    "bytesize": "(*targs<:Object) -> «str_fold_call(tself, :bytesize, targs)»/Integer",
    "empty?": "() -> «str_empty_type(tself)»/%bool",
    "hash": "() -> Integer",
    # element access
    # RDL's String#[] returns String (nil only out of bounds; RDL accepts this)
    "[]": ["(Integer) -> String", "(Integer, Integer) -> String",
           "(String) -> String or nil"],
    "slice": ["(Integer) -> String", "(Integer, Integer) -> String"],
    "[]=": "(Object, String) -> String",
    "chr": "(*targs<:Object) -> «str_fold_call(tself, :chr, targs)»/String",
    "ord": "(*targs<:Object) -> «str_fold_call(tself, :ord, targs)»/Integer",
    # case
    "upcase": _fold("upcase"),
    "downcase": _fold("downcase"),
    "capitalize": _fold("capitalize"),
    "swapcase": _fold("swapcase"),
    "upcase!": "() -> self or nil",
    "downcase!": "() -> self or nil",
    "capitalize!": "() -> self or nil",
    "swapcase!": "() -> self or nil",
    "casecmp": "(String) -> Integer",
    "casecmp?": "(t<:String, *targs<:Object) -> «str_fold_call(tself, :casecmp?, Tuple.new(t))»/%bool",
    # whitespace
    "strip": _fold("strip"),
    "lstrip": _fold("lstrip"),
    "rstrip": _fold("rstrip"),
    "strip!": "() -> self or nil",
    "lstrip!": "() -> self or nil",
    "rstrip!": "() -> self or nil",
    "chomp": _fold("chomp"),
    "chomp!": "() -> self or nil",
    "chop": _fold("chop"),
    "chop!": "() -> self or nil",
    "squeeze": "(*targs<:Object) -> «str_fold_call(tself, :squeeze, targs)»/String",
    # search
    "include?": "(t<:String, *targs<:Object) -> «str_fold_call(tself, :include?, Tuple.new(t))»/%bool",
    "start_with?": "(*targs<:String) -> «str_fold_call(tself, :start_with?, targs)»/%bool",
    "end_with?": "(*targs<:String) -> «str_fold_call(tself, :end_with?, targs)»/%bool",
    "index": "(t<:String, *targs<:Integer) -> «str_fold_call(tself, :index, Tuple.new(t))»/Integer or nil",
    "rindex": "(t<:String, *targs<:Object) -> «str_fold_call(tself, :rindex, Tuple.new(t))»/Integer or nil",
    "count": "(t<:String, *targs<:Object) -> «str_fold_call(tself, :count, Tuple.new(t))»/Integer",
    "match": "(String) -> String or nil",
    "match?": "(String) -> %bool",
    "=~": "(String) -> Integer or nil",
    "scan": "(String) -> Array<String>",
    # substitution (non-mutating)
    "sub": ["(t<:String, u<:String, *targs<:Object) -> «str_fold_call(tself, :sub, Tuple.new(t, u))»/String",
            "(String) { (String) -> String } -> String"],
    "gsub": ["(t<:String, u<:String, *targs<:Object) -> «str_fold_call(tself, :gsub, Tuple.new(t, u))»/String",
             "(String) { (String) -> String } -> String"],
    "tr": "(t<:String, u<:String, *targs<:Object) -> «str_fold_call(tself, :tr, Tuple.new(t, u))»/String",
    "delete": "(t<:String, *targs<:Object) -> «str_fold_call(tself, :delete, Tuple.new(t))»/String",
    "delete_prefix": "(t<:String, *targs<:Object) -> «str_fold_call(tself, :delete_prefix, Tuple.new(t))»/String",
    "delete_suffix": "(t<:String, *targs<:Object) -> «str_fold_call(tself, :delete_suffix, Tuple.new(t))»/String",
    # mutation (promotes const strings, §4)
    "sub!": "(String, String) -> self or nil",
    "gsub!": "(String, String) -> self or nil",
    "<<": "(Object) -> self",
    "concat": "(*Object) -> self",
    "replace": "(String) -> self",
    "insert": "(Integer, String) -> self",
    "prepend": "(String) -> self",
    "clear": "() -> self",
    "center": "(Integer, ?String) -> String",
    "ljust": "(Integer, ?String) -> String",
    "rjust": "(Integer, ?String) -> String",
    "succ": "(*targs<:Object) -> «str_fold_call(tself, :succ, targs)»/String",
    "next": "(*targs<:Object) -> «str_fold_call(tself, :next, targs)»/String",
    # conversion
    "to_s": "() -> «tself»/String",
    "to_str": "() -> «tself»/String",
    "to_sym": "() -> «str_to_sym_type(tself)»/Symbol",
    "intern": "() -> «str_to_sym_type(tself)»/Symbol",
    "to_i": "() -> «str_to_i_type(tself)»/Integer",
    "to_f": "() -> Float",
    "inspect": "() -> String",
    "reverse": _fold("reverse"),
    "reverse!": "() -> self",
    "hex": "(*targs<:Object) -> «str_fold_call(tself, :hex, targs)»/Integer",
    "oct": "(*targs<:Object) -> «str_fold_call(tself, :oct, targs)»/Integer",
    "freeze": "() -> self",
    "frozen?": "() -> %bool",
    "dup": "() -> String",
    "clone": "() -> String",
    # splitting
    "split": "(?String, ?Integer) -> Array<String>",
    "chars": "() -> Array<String>",
    "bytes": "() -> Array<Integer>",
    "lines": "() -> Array<String>",
    "each_char": "() { (String) -> Object } -> self",
    "each_line": "() { (String) -> Object } -> self",
    "partition": "(String) -> [String, String, String]",
    "rpartition": "(String) -> [String, String, String]",
}
