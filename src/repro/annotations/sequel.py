"""Comp type annotations for the Sequel DSL (paper: 27 definitions).

Covers both styles: ``DB[:users].where(...)`` datasets (rows are hashes
typed by the table schema) and ``Sequel::Model`` classes (rows are model
instances).  Dataset-building methods share the ``Table<{...}>`` typing
with ActiveRecord; ``record_type`` distinguishes the two result shapes.
"""

from __future__ import annotations

_TABLE = "«table_type_of(tself)»/Table"
_RECORD_OR_NIL = "«record_or_nil(tself)»/Object"
_COND = "«query_schema_type(tself)»"

SEQUEL_DATABASE_SIGS: dict[str, object] = {
    "[]": "(t<:Symbol) -> «dataset_type(t)»/Table",
    "tables": "() -> Array<Symbol>",
}

SEQUEL_DATASET_SIGS: dict[str, object] = {
    "exclude": f"(t<:{_COND}) -> {_TABLE}",
    "[]": f"(t<:{_COND}) -> {_RECORD_OR_NIL}",
    "get": "(t<:Symbol) -> «column_value_type(tself, t)»/Object or nil",
    "select_map": "(t<:Symbol) -> «pluck_type(tself, t)»/Array<Object>",
    "insert": f"(t<:{_COND}) -> Integer",
    "update": f"(t<:{_COND}) -> Integer",
    "delete": "() -> Integer",
    "paged_each": f"() {{ («record_type(tself)») -> Object }} -> {_TABLE}",
    "sum_of": "(t<:Symbol) -> «column_value_type(tself, t)»/Object",
    "max": "(t<:Symbol) -> «column_value_type(tself, t)»/Object or nil",
    "min": "(t<:Symbol) -> «column_value_type(tself, t)»/Object or nil",
}

# model-style query methods (same comp types, Sequel::Model receivers)
SEQUEL_MODEL_SIGS: dict[str, object] = {
    "where": f"(t<:«where_arg_type(tself, t, targs)», *targs<:Object) -> {_TABLE}",
    "exclude": f"(t<:{_COND}) -> {_TABLE}",
    "first": f"() -> {_RECORD_OR_NIL}",
    "last": f"() -> {_RECORD_OR_NIL}",
    "all": "() -> «records_array_type(tself)»/Array<Object>",
    "count": "() -> Integer",
    "order": f"(Object) -> {_TABLE}",
    "limit": f"(Integer) -> {_TABLE}",
    "each": f"() {{ («record_type(tself)») -> Object }} -> {_TABLE}",
    "map": "() { («record_type(tself)») -> t } -> Array<t>",
    "to_a": "() -> «records_array_type(tself)»/Array<Object>",
    "find": f"(t<:{_COND}) -> {_RECORD_OR_NIL}",
    "[]": f"(t<:{_COND}) -> {_RECORD_OR_NIL}",
    "create": f"(t<:{_COND}) -> «record_type(tself)»/Object",
    "insert": f"(t<:{_COND}) -> Integer",
    "dataset": f"() -> {_TABLE}",
}
