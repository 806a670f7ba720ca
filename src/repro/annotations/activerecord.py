"""Comp type annotations for the ActiveRecord DSL (paper: 77 definitions).

Signatures are installed twice — as class methods of ``ActiveRecord::Base``
(so ``User.joins(...)`` checks with ``tself`` bound to the ``User``
singleton) and as instance methods of ``Table`` (so chained relation calls
like ``.exists?`` see the joined schema, Fig. 1b).  A method is counted
once for Table 1.
"""

from __future__ import annotations

_TABLE = "«table_type_of(tself)»/Table"
_RECORD = "«record_type(tself)»/Object"
_RECORD_OR_NIL = "«record_or_nil(tself)»/Object"
_COND = "«query_schema_type(tself)»"

ACTIVERECORD_SIGS: dict[str, object] = {
    # query building (Fig. 1b)
    "joins": "(t<:Symbol) -> «joins_type(tself, t)»/Table",
    "includes": "(t<:Symbol) -> «joins_type(tself, t)»/Table",
    "where": [
        f"(t<:«where_arg_type(tself, t, targs)», *targs<:Object) -> {_TABLE}",
        f"() -> {_TABLE}",
    ],
    "not": f"(t<:{_COND}) -> {_TABLE}",
    "order": f"(Object) -> {_TABLE}",
    "limit": f"(Integer) -> {_TABLE}",
    "distinct": f"() -> {_TABLE}",
    "select": f"(*Symbol) -> {_TABLE}",
    "all": f"() -> {_TABLE}",
    "none": f"() -> {_TABLE}",
    # probes
    "exists?": [f"(?t<:{_COND}) -> %bool"],
    "any?": "() -> %bool",
    "empty?": "() -> %bool",
    "count": "() -> Integer",
    "size": "() -> Integer",
    "sum": "(t<:Symbol) -> «column_value_type(tself, t)»/Object",
    "minimum": "(t<:Symbol) -> «column_value_type(tself, t)»/Object or nil",
    "maximum": "(t<:Symbol) -> «column_value_type(tself, t)»/Object or nil",
    "average": "(Symbol) -> Float or nil",
    # materialization
    "find": f"(Integer) -> {_RECORD}",
    "find_by": f"(t<:{_COND}) -> {_RECORD_OR_NIL}",
    "find_by!": f"(t<:{_COND}) -> {_RECORD}",
    "first": f"() -> {_RECORD_OR_NIL}",
    "last": f"() -> {_RECORD_OR_NIL}",
    "take": f"() -> {_RECORD_OR_NIL}",
    "pluck": "(t<:Symbol) -> «pluck_type(tself, t)»/Array<Object>",
    "ids": "() -> Array<Integer>",
    "to_a": "() -> «records_array_type(tself)»/Array<Object>",
    "each": f"() {{ («record_type(tself)») -> Object }} -> {_TABLE}",
    "find_each": f"() {{ («record_type(tself)») -> Object }} -> {_TABLE}",
    "map": "() { («record_type(tself)») -> t } -> Array<t>",
    # writes
    "create": f"(t<:{_COND}) -> {_RECORD}",
    "create!": f"(t<:{_COND}) -> {_RECORD}",
    "update_all": f"(t<:{_COND}) -> Integer",
    "delete_all": "() -> Integer",
    "destroy_all": "() -> Integer",
    # extended querying
    "offset": "(Integer) -> «records_array_type(tself)»/Array<Object>",
    "group": f"(Symbol) -> {_TABLE}",
    "reorder": f"(Object) -> {_TABLE}",
    "rewhere": f"(t<:{_COND}) -> {_TABLE}",
    "second": f"() -> {_RECORD_OR_NIL}",
    "third": f"() -> {_RECORD_OR_NIL}",
    "sole": f"() -> {_RECORD}",
    "pick": "(t<:Symbol) -> «column_value_type(tself, t)»/Object or nil",
    "find_or_create_by": f"(t<:{_COND}) -> {_RECORD}",
    "find_or_initialize_by": f"(t<:{_COND}) -> {_RECORD}",
    # metadata
    "table_name": "() -> String",
}

# model instance persistence methods (conventional types)
MODEL_INSTANCE_SIGS: dict[str, object] = {
    "save": "() -> %bool",
    "save!": "() -> %bool",
    "update": "(Hash<Symbol, Object>) -> %bool",
    "update!": "(Hash<Symbol, Object>) -> %bool",
    "destroy": "() -> self",
}

ASSOCIATION_SIGS: dict[str, object] = {
    "has_many": "(Symbol) -> nil",
    "has_one": "(Symbol) -> nil",
    "belongs_to": "(Symbol) -> nil",
}
