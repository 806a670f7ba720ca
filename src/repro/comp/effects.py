"""Default termination/purity effects for core-library methods (§4, Fig. 6).

Annotations can override these with ``terminates:`` / ``pure:`` keywords;
what is listed here reflects the semantics of the native implementations:
iterators are ``:blockdep`` (they terminate iff their block terminates and
is pure), mutators are impure, and everything else is pure and terminating.
Unknown user-defined methods default to the conservative ``(-, -)``.
"""

from __future__ import annotations

# Iterator methods: terminate if the block terminates and does not mutate
# the receiver (":blockdep").
_BLOCKDEP = {
    "each", "each_with_index", "each_index", "each_with_object", "each_pair",
    "each_key", "each_value", "each_char", "each_line", "each_slice",
    "each_cons", "reverse_each", "map", "collect", "flat_map",
    "collect_concat", "select", "filter", "filter_map", "reject", "find",
    "detect", "all?", "any?", "none?", "one?", "count", "sum", "min_by",
    "max_by", "sort_by", "sort", "group_by", "partition", "take_while",
    "drop_while", "reduce", "inject", "times", "upto", "downto", "step",
    "uniq", "tally", "zip", "find_index", "index", "transform_values",
    "transform_keys", "scan", "gsub", "sub", "fill", "cycle", "combination",
}

# Methods that mutate their receiver (impure; still terminate).
_IMPURE = {
    "push", "append", "<<", "pop", "shift", "unshift", "prepend", "insert",
    "delete", "delete_at", "delete_if", "keep_if", "clear", "replace",
    "concat", "compact!", "flatten!", "uniq!", "reverse!", "sort!",
    "sort_by!", "map!", "collect!", "select!", "filter!", "reject!",
    "store", "[]=", "merge!", "update", "upcase!", "downcase!",
    "capitalize!", "swapcase!", "strip!", "lstrip!", "rstrip!", "chomp!",
    "chop!", "sub!", "gsub!", "slice!", "squeeze!", "succ!", "next!",
    "tr!", "freeze", "puts", "print", "p", "instance_variable_set",
    "create", "create!", "save", "save!", "update!", "destroy", "destroy!",
    "delete_all", "update_all", "insert_row",
}

# Methods that may diverge regardless of blocks (loop-like).
_DIVERGENT = {"loop"}


def default_effect(class_name: str, method_name: str):
    """The (terminates, pure) effect assumed for an unannotated method."""
    from repro.typecheck.registry import EffectInfo

    if method_name in _DIVERGENT:
        return EffectInfo("-", "-")
    if method_name in _BLOCKDEP:
        return EffectInfo("blockdep", "+")
    if method_name in _IMPURE:
        return EffectInfo("+", "-")
    if class_name in _CORE_CLASSES:
        return EffectInfo("+", "+")
    return EffectInfo("-", "-")


_CORE_CLASSES = {
    "Object", "Kernel", "BasicObject", "Comparable", "Enumerable",
    "Integer", "Float", "Numeric", "String", "Symbol", "Array", "Hash",
    "Range", "Proc", "NilClass", "TrueClass", "FalseClass", "Boolean",
    "Class", "Module", "Type", "RDL", "Table",
    "Singleton", "Nominal", "Generic", "FiniteHash", "Tuple", "Union",
    "ConstString",
}
