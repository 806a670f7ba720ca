"""Comp type annotations for Array (paper: 114 definitions).

Tuple types make these precise (§2.2): indexing/first/last return the exact
element type of a tuple, ``+`` concatenates tuple types, ``length`` is a
singleton integer, and iterators type their block parameter from the
receiver's element type.  Every signature falls back to the conventional
``Array`` behaviour on non-tuple receivers, per the paper's fallback rule.
"""

from __future__ import annotations

_ELEM = "«array_elem_type(tself)»/Object"
_ELEM_OR_NIL = "«array_elem_or_nil(tself)»/Object"
_SAME = "«array_of_elem(tself)»/Array"

ARRAY_SIGS: dict[str, object] = {
    # element access
    "[]": [
        f"(t<:Object) -> «tuple_index_type(tself, t)»/Object",
        "(Integer) -> a",
        f"(Integer, Integer) -> {_SAME}",
    ],
    "at": "(t<:Integer) -> «tuple_index_type(tself, t)»/Object",
    "fetch": [
        "(t<:Integer) -> «tuple_index_type(tself, t)»/Object",
        f"(Integer, Object) -> {_ELEM}",
    ],
    "slice": [
        "(t<:Object) -> «tuple_index_type(tself, t)»/Object",
        f"(Integer, Integer) -> {_SAME}",
    ],
    "dig": "(Object, *Object) -> %any",
    "first": [
        "() -> «tuple_first_type(tself)»/Object",
        "() -> a",
        f"(Integer) -> {_SAME}",
    ],
    "last": [
        "() -> «tuple_last_type(tself)»/Object",
        "() -> a",
        f"(Integer) -> {_SAME}",
    ],
    "values_at": f"(*Integer) -> {_SAME}",
    "assoc": "(Object) -> Object",
    "sample": f"() -> {_ELEM_OR_NIL}",
    # size
    "length": "() -> «tuple_length_type(tself)»/Integer",
    "size": "() -> «tuple_length_type(tself)»/Integer",
    "count": [f"() -> «tuple_length_type(tself)»/Integer",
              "(Object) -> Integer"],
    "empty?": "() -> «tuple_empty_type(tself)»/%bool",
    # mutation (impure: weak updates apply, §4)
    "push": f"(*Object) -> self",
    "append": f"(*Object) -> self",
    "<<": "(Object) -> self",
    "pop": f"() -> {_ELEM_OR_NIL}",
    "shift": f"() -> {_ELEM_OR_NIL}",
    "unshift": "(*Object) -> self",
    "prepend": "(*Object) -> self",
    "insert": "(Integer, *Object) -> self",
    "delete": f"(Object) -> {_ELEM_OR_NIL}",
    "delete_at": f"(Integer) -> {_ELEM_OR_NIL}",
    "delete_if": f"() {{ ({_ELEM}) -> %bool }} -> self",
    "keep_if": f"() {{ ({_ELEM}) -> %bool }} -> self",
    "clear": "() -> self",
    "replace": "(Array) -> self",
    "fill": f"(Object) -> self",
    "concat": "(*Array) -> self",
    # copies
    "compact": "() -> «tuple_compact_type(tself)»/Array",
    "compact!": "() -> self or nil",
    "flatten": "() -> Array<Object>",
    "flatten!": "() -> self or nil",
    "uniq": f"() -> {_SAME}",
    "uniq!": "() -> self or nil",
    "reverse": "() -> «tuple_reverse_type(tself)»/Array",
    "reverse!": "() -> self",
    "rotate": f"(?Integer) -> {_SAME}",
    "dup": "() -> «tself»/Array",
    "clone": "() -> «tself»/Array",
    "+": "(t<:Array) -> «tuple_concat_type(tself, t)»/Array",
    "-": f"(Array) -> {_SAME}",
    "*": [f"(Integer) -> {_SAME}", "(String) -> String"],
    "&": f"(Array) -> {_SAME}",
    "|": "(t<:Array) -> «tuple_concat_type(tself, t)»/Array",
    # ordering
    "sort": f"() -> {_SAME}",
    "sort!": "() -> self",
    "sort_by": f"() {{ ({_ELEM}) -> Object }} -> {_SAME}",
    "sort_by!": f"() {{ ({_ELEM}) -> Object }} -> self",
    "min": f"() -> {_ELEM_OR_NIL}",
    "max": f"() -> {_ELEM_OR_NIL}",
    "min_by": f"() {{ ({_ELEM}) -> Object }} -> {_ELEM_OR_NIL}",
    "max_by": f"() {{ ({_ELEM}) -> Object }} -> {_ELEM_OR_NIL}",
    "minmax": "() -> [Object, Object]",
    "sum": [f"() -> {_ELEM}", "(Object) -> Object"],
    # search
    "include?": "(Object) -> %bool",
    "index": ["(Object) -> Integer or nil",
              f"() {{ ({_ELEM}) -> %bool }} -> Integer or nil"],
    "find_index": ["(Object) -> Integer or nil",
                   f"() {{ ({_ELEM}) -> %bool }} -> Integer or nil"],
    "rindex": "(Object) -> Integer or nil",
    "find": f"() {{ ({_ELEM}) -> %bool }} -> {_ELEM_OR_NIL}",
    "detect": f"() {{ ({_ELEM}) -> %bool }} -> {_ELEM_OR_NIL}",
    "bsearch": f"() {{ ({_ELEM}) -> %bool }} -> {_ELEM_OR_NIL}",
    # iteration
    "each": f"() {{ ({_ELEM}) -> Object }} -> self",
    "each_with_index": f"() {{ ({_ELEM}, Integer) -> Object }} -> self",
    "each_index": "() { (Integer) -> Object } -> self",
    "each_with_object": f"(t<:Object) {{ ({_ELEM}, t) -> Object }} -> t",
    "reverse_each": f"() {{ ({_ELEM}) -> Object }} -> self",
    "map": f"() {{ ({_ELEM}) -> t }} -> Array<t>",
    "collect": f"() {{ ({_ELEM}) -> t }} -> Array<t>",
    "map!": f"() {{ ({_ELEM}) -> Object }} -> self",
    "collect!": f"() {{ ({_ELEM}) -> Object }} -> self",
    "flat_map": f"() {{ ({_ELEM}) -> Object }} -> Array<Object>",
    "collect_concat": f"() {{ ({_ELEM}) -> Object }} -> Array<Object>",
    "select": f"() {{ ({_ELEM}) -> %bool }} -> {_SAME}",
    "filter": f"() {{ ({_ELEM}) -> %bool }} -> {_SAME}",
    "select!": f"() {{ ({_ELEM}) -> %bool }} -> self",
    "filter!": f"() {{ ({_ELEM}) -> %bool }} -> self",
    "filter_map": f"() {{ ({_ELEM}) -> t }} -> Array<t>",
    "reject": f"() {{ ({_ELEM}) -> %bool }} -> {_SAME}",
    "reject!": f"() {{ ({_ELEM}) -> %bool }} -> self",
    "reduce": [f"() {{ (Object, {_ELEM}) -> Object }} -> Object",
               f"(Object) {{ (Object, {_ELEM}) -> Object }} -> Object",
               "(Symbol) -> Object"],
    "inject": [f"() {{ (Object, {_ELEM}) -> Object }} -> Object",
               f"(Object) {{ (Object, {_ELEM}) -> Object }} -> Object",
               "(Symbol) -> Object"],
    "each_slice": f"(Integer) -> Array<{'Array<Object>'}>",
    "each_cons": "(Integer) -> Array<Array<Object>>",
    "partition": f"() {{ ({_ELEM}) -> %bool }} -> [Array<Object>, Array<Object>]",
    "group_by": f"() {{ ({_ELEM}) -> Object }} -> Hash<Object, Array<Object>>",
    "tally": "() -> Hash<Object, Integer>",
    "zip": "(*Array) -> Array<Array<Object>>",
    "cycle": f"(Integer) {{ ({_ELEM}) -> Object }} -> nil",
    # predicates
    "all?": f"() {{ ({_ELEM}) -> %bool }} -> %bool",
    "any?": f"() {{ ({_ELEM}) -> %bool }} -> %bool",
    "none?": f"() {{ ({_ELEM}) -> %bool }} -> %bool",
    "one?": f"() {{ ({_ELEM}) -> %bool }} -> %bool",
    # slicing
    "take": f"(Integer) -> {_SAME}",
    "drop": f"(Integer) -> {_SAME}",
    "take_while": f"() {{ ({_ELEM}) -> %bool }} -> {_SAME}",
    "drop_while": f"() {{ ({_ELEM}) -> %bool }} -> {_SAME}",
    # conversion
    "join": "(?String) -> String",
    "to_a": "() -> «tself»/Array",
    "to_ary": "() -> «tself»/Array",
    "to_h": "() -> Hash<Object, Object>",
    "to_s": "() -> String",
    "inspect": "() -> String",
    "hash": "() -> Integer",
    "==": "(Object) -> %bool",
    "eql?": "(Object) -> %bool",
    "freeze": "() -> self",
    "frozen?": "() -> %bool",
    "product": "(*Array) -> Array<Array<Object>>",
    "combination": "(Integer) -> Array<Array<Object>>",
    "transpose": "() -> Array<Array<Object>>",
}
