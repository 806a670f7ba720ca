"""Type-level helper methods shared by the annotation sets.

The paper factors its 586 comp types through 83 helper methods (§5.1).
Here the front-line helpers that the paper shows in Ruby (``schema_type``,
Fig. 1b) are written in mini-Ruby and loaded through the interpreter —
demonstrating that type-level code really is object-language code — while
the leaf helpers (schema lookup, folding, SQL checking) are native.

Every helper is annotated ``terminates: :+`` / ``pure: :+`` so the §4
termination checker accepts comp types that call it.
"""

from __future__ import annotations

import re

from repro.db.engine import pluralize, snake_case
from repro.rtypes import (
    ConstStringType,
    FiniteHashType,
    GenericType,
    NominalType,
    RType,
    SingletonType,
    TupleType,
    make_union,
)
from repro.rtypes.kinds import ClassRef, Sym
from repro.runtime.errors import RubyError
from repro.runtime.objects import RMethod, RString, adopt_shared

_OBJECT = NominalType("Object")
_BOOL = NominalType("Boolean")
_NIL = SingletonType(None)


# mini-Ruby helpers, written as in the paper's Fig. 1b
_RUBY_HELPERS = """
type :schema_type, "(Type) -> Type", terminates: :+, pure: :+
def schema_type(t)
  if t.is_a?(Generic) && t.base == Table
    t.param(0)
  elsif t.is_a?(Singleton)
    db_table_type(t).param(0)
  else
    fallback_hash_type
  end
end

type :query_schema_type, "(Type) -> Type", terminates: :+, pure: :+
def query_schema_type(t)
  optionalize(schema_type(t))
end

type :joins_type, "(Type, Type) -> Type", terminates: :+, pure: :+
def joins_type(tself, t)
  if t.is_a?(Singleton)
    check_association(tself, t)
    Generic.new(Table, schema_type(tself).merge({ t.val => schema_type(t) }), model_of(tself))
  else
    Nominal.new(Table)
  end
end

type :table_type_of, "(Type) -> Type", terminates: :+, pure: :+
def table_type_of(tself)
  if tself.is_a?(Generic) && tself.base == Table
    tself
  else
    Generic.new(Table, schema_type(tself), model_of(tself))
  end
end
"""

# Their ``type`` lines are registered once per process with the rest of the
# library (:func:`annotate`); each universe runs only the ``def``s
# (:func:`install`), with a blank line where each ``type`` was, so every
# ``def`` keeps its line number
_HELPER_TYPE = re.compile(r'^type :(\w+), "([^"]*)", terminates: :\+, pure: :\+$',
                          re.MULTILINE)
_RUBY_HELPER_TYPES = dict(_HELPER_TYPE.findall(_RUBY_HELPERS))
_RUBY_HELPER_DEFS = _HELPER_TYPE.sub("", _RUBY_HELPERS)


def annotate(registry) -> None:
    """Register every helper's signature and mark it a comp helper: the
    native helpers, then the mini-Ruby ones, in that order."""
    for name in (*_NATIVE_HELPERS, *_RUBY_HELPER_TYPES):
        signature = _RUBY_HELPER_TYPES.get(name, "(*Type) -> Type")
        registry.annotate("Object", name, signature, terminates="+", pure="+")
        registry.helper_methods.add(name)


def install(rdl) -> None:
    """Give a universe the helpers' bodies: the process-wide native
    methods, then the mini-Ruby ``def``s, owned by this universe's
    ``Object``."""
    interp = rdl.interp
    adopt_shared([(interp.classes["Object"], _NATIVE_METHODS, {})])
    interp.run(_RUBY_HELPER_DEFS)


# ---------------------------------------------------------------------------
# native helper implementations
# ---------------------------------------------------------------------------

def _type_error(message: str):
    raise RubyError("CompTypeError", message)


def _arg(args, index, default=None):
    return args[index] if index < len(args) else default


def _table_name_for(value) -> str:
    """Table name of a singleton type's value (class or symbol)."""
    if isinstance(value, ClassRef):
        return pluralize(snake_case(value.name.split("::")[-1]))
    if isinstance(value, Sym):
        name = value.name
        return name if name.endswith("s") else pluralize(name)
    if isinstance(value, str):
        return value
    raise RubyError("CompTypeError", f"cannot derive a table from {value!r}")


def _db_table_type(i, recv, args, block):
    """``Table<{...}>`` for a singleton class/symbol, via RDL.db_schema."""
    t = _arg(args, 0)
    if not isinstance(t, SingletonType):
        return GenericType("Hash", [NominalType("Symbol"), _OBJECT])
    table = _table_name_for(t.value)
    if i.db is None:
        _type_error("no database loaded")
    schema = i.db.schema_of(table)
    if schema is None:
        _type_error(f"query against unknown table '{table}'")
    return schema.table_type()


def _fallback_hash_type(i, recv, args, block):
    return GenericType("Hash", [NominalType("Symbol"), _OBJECT])


def _optionalize(i, recv, args, block):
    """All keys of a finite hash type become optional (query conditions
    mention a subset of columns); nested table hashes too."""
    t = _arg(args, 0)
    if not isinstance(t, FiniteHashType):
        return t
    elts = {}
    for key, value in t.elts.items():
        if isinstance(value, FiniteHashType):
            value = _optionalize(i, recv, [value], None)
        elts[key] = value
    return FiniteHashType(elts, rest=None, optional_keys=set(elts))


def _model_of(i, recv, args, block):
    """The model nominal type of a receiver (class singleton or Table)."""
    t = _arg(args, 0)
    if isinstance(t, SingletonType) and isinstance(t.value, ClassRef):
        return NominalType(t.value.name)
    if isinstance(t, GenericType) and t.base == "Table" and len(t.params) >= 2:
        return t.params[1]
    return _OBJECT


def _check_association(i, recv, args, block):
    """The §2.1 invariant: tables may only be joined along a declared
    Rails association."""
    tself = _arg(args, 0)
    t = _arg(args, 1)
    if not (isinstance(t, SingletonType) and isinstance(tself, (SingletonType, GenericType))):
        return True
    assoc_table = _table_name_for(t.value)
    if isinstance(tself, SingletonType):
        owner_table = _table_name_for(tself.value)
    else:
        owner = _model_of(i, recv, [tself], None)
        if not isinstance(owner, NominalType) or owner.name == "Object":
            return True
        owner_table = pluralize(snake_case(owner.name.split("::")[-1]))
    if i.db is not None and not i.db.associated(owner_table, assoc_table):
        _type_error(
            f"cannot join '{owner_table}' with '{assoc_table}': "
            f"no declared association"
        )
    return True


def _sql_typecheck(i, recv, args, block):
    """Fig. 3: type check a raw SQL WHERE fragment, returning String."""
    from repro.sqltc.checker import SqlTypeError, check_fragment
    from repro.sqltc.parser import SqlParseError

    tself = _arg(args, 0)
    t = _arg(args, 1)
    targs = _arg(args, 2)
    if not isinstance(t, ConstStringType) or t.is_promoted:
        return NominalType("String")
    tables = _scope_tables(i, tself)
    kinds = _placeholder_kinds(targs)
    try:
        check_fragment(i.db, tables, t.value, kinds)
    except (SqlTypeError, SqlParseError) as exc:
        _type_error(f"SQL type error: {exc}")
    return ConstStringType(t.value)


def _scope_tables(i, tself) -> list[str]:
    if isinstance(tself, SingletonType):
        return [_table_name_for(tself.value)]
    if isinstance(tself, GenericType) and tself.base == "Table" and tself.params:
        fh = tself.params[0]
        if isinstance(fh, FiniteHashType):
            base: list[str] = []
            joined: list[str] = []
            for key, value in fh.elts.items():
                if isinstance(value, FiniteHashType) and isinstance(key, Sym):
                    joined.append(key.name)
            # base table: best-effort reverse lookup by column shape (reads
            # the whole schema, so it registers a wildcard dependency)
            if i.db is not None:
                for name, schema in i.db.all_schemas().items():
                    columns = set(schema.columns)
                    keys = {k.name for k in fh.elts if isinstance(k, Sym)
                            and not isinstance(fh.elts[k], FiniteHashType)}
                    if keys and keys == columns:
                        base = [name]
                        break
            return (base or ["t"]) + joined
    return ["t"]


def _placeholder_kinds(targs) -> list[str]:
    kinds: list[str] = []
    if isinstance(targs, TupleType):
        for t in targs.elts:
            kinds.append(_kind_of(t))
    elif isinstance(targs, RType):
        kinds.append(_kind_of(targs))
    return kinds


def _kind_of(t: RType) -> str:
    if isinstance(t, SingletonType):
        t = NominalType(t.base_name)
    if isinstance(t, ConstStringType):
        return "string"
    if isinstance(t, NominalType):
        return {
            "Integer": "integer", "Float": "float", "String": "string",
            "Boolean": "boolean", "TrueClass": "boolean",
            "FalseClass": "boolean",
        }.get(t.name, "string")
    return "string"


def _where_arg_type(i, recv, args, block):
    """where's first argument: a raw-SQL const string (checked), or a
    partial schema hash (Fig. 3, line 10)."""
    tself = _arg(args, 0)
    t = _arg(args, 1)
    targs = _arg(args, 2)
    if isinstance(t, ConstStringType) and not t.is_promoted:
        return _sql_typecheck(i, recv, [tself, t, targs], None)
    if isinstance(t, NominalType) and t.name == "String":
        # a dynamically built SQL string cannot be checked statically
        return NominalType("String")
    schema = _schema_of(i, tself)
    return _optionalize(i, recv, [schema], None)


def _schema_of(i, tself) -> RType:
    if isinstance(tself, GenericType) and tself.base == "Table" and tself.params:
        return tself.params[0]
    if isinstance(tself, SingletonType):
        table_type = _db_table_type(i, None, [tself], None)
        if isinstance(table_type, GenericType) and table_type.params:
            return table_type.params[0]
    return GenericType("Hash", [NominalType("Symbol"), _OBJECT])


# -- hash helpers --------------------------------------------------------------

def _hash_access_type(i, recv, args, block):
    """The paper's flagship Hash#[] comp type (§2.2)."""
    tself = _arg(args, 0)
    t = _arg(args, 1)
    if isinstance(tself, FiniteHashType) and isinstance(t, (SingletonType, ConstStringType)):
        key = t.value if isinstance(t, SingletonType) else t.value
        entry = tself.elts.get(key)
        if entry is None and isinstance(key, str):
            entry = tself.elts.get(key)
        if entry is not None:
            return entry
        return _NIL
    return _hash_value_type(i, recv, [tself], None)


def _hash_fetch_type(i, recv, args, block):
    tself = _arg(args, 0)
    t = _arg(args, 1)
    if isinstance(tself, FiniteHashType) and isinstance(t, SingletonType):
        entry = tself.elts.get(t.value)
        if entry is None:
            _type_error(f"hash has no key {t.to_s()}")
        return entry
    return _hash_value_type(i, recv, [tself], None)


def _hash_value_type(i, recv, args, block):
    tself = _arg(args, 0)
    if isinstance(tself, FiniteHashType):
        return tself.value_type()
    if isinstance(tself, GenericType) and tself.base == "Hash" and len(tself.params) == 2:
        return tself.params[1]
    return _OBJECT


def _hash_key_type(i, recv, args, block):
    tself = _arg(args, 0)
    if isinstance(tself, FiniteHashType):
        return make_union([SingletonType(k) if isinstance(k, Sym) else ConstStringType(k)
                           for k in tself.elts]) if tself.elts else _OBJECT
    if isinstance(tself, GenericType) and tself.base == "Hash" and len(tself.params) == 2:
        return tself.params[0]
    return _OBJECT


def _hash_keys_type(i, recv, args, block):
    tself = _arg(args, 0)
    if isinstance(tself, FiniteHashType):
        return TupleType([SingletonType(k) if isinstance(k, Sym) else ConstStringType(str(k))
                          for k in tself.elts])
    if isinstance(tself, GenericType) and tself.base == "Hash":
        return GenericType("Array", [tself.params[0]])
    return GenericType("Array", [_OBJECT])


def _hash_values_type(i, recv, args, block):
    tself = _arg(args, 0)
    if isinstance(tself, FiniteHashType):
        return TupleType(list(tself.elts.values()))
    if isinstance(tself, GenericType) and tself.base == "Hash":
        return GenericType("Array", [tself.params[1]])
    return GenericType("Array", [_OBJECT])


def _hash_merge_type(i, recv, args, block):
    tself = _arg(args, 0)
    t = _arg(args, 1)
    if isinstance(tself, FiniteHashType) and isinstance(t, FiniteHashType):
        return tself.merged(t)
    return GenericType("Hash", [
        make_union([_hash_key_type(i, recv, [tself], None), _hash_key_type(i, recv, [t], None)]),
        make_union([_hash_value_type(i, recv, [tself], None), _hash_value_type(i, recv, [t], None)]),
    ])


def _hash_size_type(i, recv, args, block):
    tself = _arg(args, 0)
    if isinstance(tself, FiniteHashType):
        return SingletonType(len(tself.elts))
    return NominalType("Integer")


def _hash_to_a_type(i, recv, args, block):
    tself = _arg(args, 0)
    if isinstance(tself, FiniteHashType):
        return TupleType([
            TupleType([SingletonType(k) if isinstance(k, Sym) else ConstStringType(str(k)), v])
            for k, v in tself.elts.items()
        ])
    return GenericType("Array", [GenericType("Array", [_OBJECT])])


# -- array / tuple helpers --------------------------------------------------------

def _tuple_index_type(i, recv, args, block):
    """Array#[] — same logic as Hash#[] but for tuples (§2.2)."""
    tself = _arg(args, 0)
    t = _arg(args, 1)
    if isinstance(tself, TupleType) and isinstance(t, SingletonType) \
            and isinstance(t.value, int):
        index = t.value
        if -len(tself.elts) <= index < len(tself.elts):
            return tself.elts[index]
        return _NIL
    return _array_elem_type(i, recv, [tself], None)


def _tuple_first_type(i, recv, args, block):
    tself = _arg(args, 0)
    if isinstance(tself, TupleType):
        return tself.elts[0] if tself.elts else _NIL
    return _array_elem_type(i, recv, [tself], None)


def _tuple_last_type(i, recv, args, block):
    tself = _arg(args, 0)
    if isinstance(tself, TupleType):
        return tself.elts[-1] if tself.elts else _NIL
    return _array_elem_type(i, recv, [tself], None)


def _array_elem_type(i, recv, args, block):
    tself = _arg(args, 0)
    if isinstance(tself, TupleType):
        return make_union(tself.elts) if tself.elts else _OBJECT
    if isinstance(tself, GenericType) and tself.base == "Array" and tself.params:
        return tself.params[0]
    return _OBJECT


def _tuple_length_type(i, recv, args, block):
    tself = _arg(args, 0)
    if isinstance(tself, TupleType):
        return SingletonType(len(tself.elts))
    return NominalType("Integer")


def _tuple_concat_type(i, recv, args, block):
    tself = _arg(args, 0)
    t = _arg(args, 1)
    if isinstance(tself, TupleType) and isinstance(t, TupleType):
        return TupleType(list(tself.elts) + list(t.elts))
    return GenericType("Array", [make_union([
        _array_elem_type(i, recv, [tself], None),
        _array_elem_type(i, recv, [t], None),
    ])])


def _tuple_reverse_type(i, recv, args, block):
    tself = _arg(args, 0)
    if isinstance(tself, TupleType):
        return TupleType(list(reversed(tself.elts)))
    return tself


def _array_of_elem(i, recv, args, block):
    return GenericType("Array", [_array_elem_type(i, recv, args, block)])


def _array_elem_or_nil(i, recv, args, block):
    return make_union([_array_elem_type(i, recv, args, block), _NIL])


def _tuple_compact_type(i, recv, args, block):
    tself = _arg(args, 0)
    if isinstance(tself, TupleType):
        kept = [t for t in tself.elts
                if not (isinstance(t, SingletonType) and t.value is None)]
        return TupleType(kept)
    return _array_of_elem(i, recv, args, block)


def _tuple_empty_type(i, recv, args, block):
    tself = _arg(args, 0)
    if isinstance(tself, TupleType):
        return SingletonType(len(tself.elts) == 0)
    return _BOOL


def _hash_empty_type(i, recv, args, block):
    tself = _arg(args, 0)
    if isinstance(tself, FiniteHashType):
        return SingletonType(len(tself.elts) == 0)
    return _BOOL


def _hash_has_key_type(i, recv, args, block):
    tself, t = _arg(args, 0), _arg(args, 1)
    if isinstance(tself, FiniteHashType) and isinstance(t, SingletonType):
        return SingletonType(t.value in tself.elts)
    return _BOOL


# -- string helpers -----------------------------------------------------------------

def _cs(t) -> str | None:
    if isinstance(t, ConstStringType) and not t.is_promoted:
        return t.value
    return None


def _str_concat_type(i, recv, args, block):
    a, b = _cs(_arg(args, 0)), _cs(_arg(args, 1))
    if a is not None and b is not None:
        return ConstStringType(a + b)
    return NominalType("String")


_UNARY_STR_FOLDS = {
    "upcase": str.upper, "downcase": str.lower, "capitalize": str.capitalize,
    "swapcase": str.swapcase, "strip": str.strip, "lstrip": str.lstrip,
    "rstrip": str.rstrip, "reverse": lambda s: s[::-1],
    "chomp": lambda s: s.removesuffix("\n"), "chop": lambda s: s[:-1],
}


def _str_fold_unary(i, recv, args, block):
    tself = _arg(args, 0)
    op = _arg(args, 1)
    value = _cs(tself)
    op_name = op.name if isinstance(op, Sym) else (op.val if isinstance(op, RString) else None)
    if value is not None and op_name in _UNARY_STR_FOLDS:
        return ConstStringType(_UNARY_STR_FOLDS[op_name](value))
    return NominalType("String")


def _str_length_type(i, recv, args, block):
    value = _cs(_arg(args, 0))
    if value is not None:
        return SingletonType(len(value))
    return NominalType("Integer")


def _str_mult_type(i, recv, args, block):
    value = _cs(_arg(args, 0))
    n = _arg(args, 1)
    if value is not None and isinstance(n, SingletonType) and isinstance(n.value, int):
        return ConstStringType(value * n.value)
    return NominalType("String")


def _str_to_sym_type(i, recv, args, block):
    value = _cs(_arg(args, 0))
    if value is not None:
        return SingletonType(Sym(value))
    return NominalType("Symbol")


def _str_empty_type(i, recv, args, block):
    value = _cs(_arg(args, 0))
    if value is not None:
        return SingletonType(len(value) == 0)
    return _BOOL


def _str_to_i_type(i, recv, args, block):
    value = _cs(_arg(args, 0))
    if value is not None:
        import re

        match = re.match(r"\s*[+-]?\d+", value)
        return SingletonType(int(match.group(0)) if match else 0)
    return NominalType("Integer")


# a general const-string folding table: (python fold, fallback kind)
_STR_CALL_FOLDS: dict = {
    "chr": (lambda s, a: s[0] if s else "", "String"),
    "squeeze": (lambda s, a: __import__("repro.runtime.corelib.string_methods",
                                        fromlist=["_squeeze"])._squeeze(s), "String"),
    "delete": (lambda s, a: "".join(c for c in s if c not in a[0]), "String"),
    "delete_prefix": (lambda s, a: s.removeprefix(a[0]), "String"),
    "delete_suffix": (lambda s, a: s.removesuffix(a[0]), "String"),
    "tr": (lambda s, a: s.translate(str.maketrans(a[0][: len(a[1])], a[1][: len(a[0])])), "String"),
    "sub": (lambda s, a: s.replace(a[0], a[1], 1), "String"),
    "gsub": (lambda s, a: s.replace(a[0], a[1]), "String"),
    "succ": (lambda s, a: s[:-1] + chr(ord(s[-1]) + 1) if s else "", "String"),
    "next": (lambda s, a: s[:-1] + chr(ord(s[-1]) + 1) if s else "", "String"),
    "include?": (lambda s, a: a[0] in s, "%bool"),
    "start_with?": (lambda s, a: s.startswith(tuple(a)) if a else False, "%bool"),
    "end_with?": (lambda s, a: s.endswith(tuple(a)) if a else False, "%bool"),
    "index": (lambda s, a: (s.find(a[0]) if s.find(a[0]) >= 0 else None), "Integer or nil"),
    "rindex": (lambda s, a: (s.rfind(a[0]) if s.rfind(a[0]) >= 0 else None), "Integer or nil"),
    "count": (lambda s, a: sum(s.count(c) for c in a[0]), "Integer"),
    "hex": (lambda s, a: int(s, 16) if s else 0, "Integer"),
    "oct": (lambda s, a: int(s, 8) if s else 0, "Integer"),
    "bytesize": (lambda s, a: len(s.encode("utf-8")), "Integer"),
    "ord": (lambda s, a: ord(s[0]) if s else None, "Integer"),
    "casecmp?": (lambda s, a: s.lower() == a[0].lower(), "%bool"),
}


def _str_fold_call(i, recv, args, block):
    """Generic const-string folding for String methods with literal args.

    ``str_fold_call(tself, :op, targs)`` — when the receiver and every
    argument are const strings / singletons, the operation folds to a
    singleton result; otherwise it falls back to the conventional type.
    """
    tself, op, targs = _arg(args, 0), _arg(args, 1), _arg(args, 2)
    op_name = op.name if isinstance(op, Sym) else str(op)
    fold, fallback = _STR_CALL_FOLDS.get(op_name, (None, "String"))
    value = _cs(tself)
    literal_args: list = []
    folded = value is not None and fold is not None
    if isinstance(targs, TupleType):
        for t in targs.elts:
            if isinstance(t, ConstStringType) and not t.is_promoted:
                literal_args.append(t.value)
            elif isinstance(t, SingletonType) and not isinstance(t.value, (Sym,)):
                literal_args.append(t.value)
            else:
                folded = False
    if folded:
        try:
            result = fold(value, literal_args)
        except Exception:
            result = None
            folded = False
        if folded:
            if isinstance(result, str):
                return ConstStringType(result)
            if result is None:
                return _NIL
            return SingletonType(result)
    from repro.rtypes import parse_type

    return parse_type(fallback)


# -- numeric folding (§2.4 constant folding) -------------------------------------------

_NUM_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "**": lambda a, b: a ** b,
}


def _num_fold(i, recv, args, block):
    tself, t, op = _arg(args, 0), _arg(args, 1), _arg(args, 2)
    op_name = op.name if isinstance(op, Sym) else None
    if (isinstance(tself, SingletonType) and isinstance(t, SingletonType)
            and isinstance(tself.value, (int, float)) and isinstance(t.value, (int, float))
            and not isinstance(tself.value, bool) and not isinstance(t.value, bool)
            and op_name in _NUM_BINOPS):
        return SingletonType(_NUM_BINOPS[op_name](tself.value, t.value))
    left = tself.base_name if isinstance(tself, SingletonType) else getattr(tself, "name", "Integer")
    right = t.base_name if isinstance(t, SingletonType) else getattr(t, "name", "Integer")
    if "Float" in (left, right):
        return NominalType("Float")
    return NominalType(left if left in ("Integer", "Float") else "Integer")


def _num_div_fold(i, recv, args, block):
    tself, t = _arg(args, 0), _arg(args, 1)
    if (isinstance(tself, SingletonType) and isinstance(t, SingletonType)
            and isinstance(t.value, (int, float)) and t.value != 0
            and not isinstance(t.value, bool)):
        a, b = tself.value, t.value
        if isinstance(a, int) and isinstance(b, int):
            return SingletonType(a // b)
        return SingletonType(a / b)
    left = tself.base_name if isinstance(tself, SingletonType) else getattr(tself, "name", "Integer")
    right = t.base_name if isinstance(t, SingletonType) else getattr(t, "name", "Integer")
    if "Float" in (left, right):
        return NominalType("Float")
    return NominalType("Integer")


_NUM_CMPS = {
    "<": lambda a, b: a < b, ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
}


def _num_cmp_fold(i, recv, args, block):
    tself, t, op = _arg(args, 0), _arg(args, 1), _arg(args, 2)
    op_name = op.name if isinstance(op, Sym) else None
    if (isinstance(tself, SingletonType) and isinstance(t, SingletonType)
            and isinstance(tself.value, (int, float)) and isinstance(t.value, (int, float))
            and op_name in _NUM_CMPS):
        return SingletonType(_NUM_CMPS[op_name](tself.value, t.value))
    return _BOOL


def _num_fold_unary(i, recv, args, block):
    tself, op = _arg(args, 0), _arg(args, 1)
    op_name = op.name if isinstance(op, Sym) else None
    folds = {
        "abs": abs, "succ": lambda v: v + 1, "next": lambda v: v + 1,
        "pred": lambda v: v - 1, "floor": lambda v: int(v // 1),
        "ceil": lambda v: int(-(-v // 1)), "to_i": int, "to_f": float,
        "zero?": lambda v: v == 0, "even?": lambda v: v % 2 == 0,
        "odd?": lambda v: v % 2 == 1, "positive?": lambda v: v > 0,
        "negative?": lambda v: v < 0, "-@": lambda v: -v,
    }
    if isinstance(tself, SingletonType) and isinstance(tself.value, (int, float)) \
            and not isinstance(tself.value, bool) and op_name in folds:
        return SingletonType(folds[op_name](tself.value))
    if op_name in ("zero?", "even?", "odd?", "positive?", "negative?"):
        return _BOOL
    if op_name in ("to_i", "floor", "ceil"):
        return NominalType("Integer")
    if op_name == "to_f":
        return NominalType("Float")
    base = tself.base_name if isinstance(tself, SingletonType) else getattr(tself, "name", "Integer")
    return NominalType(base if base in ("Integer", "Float") else "Integer")


# -- boolean folding (the λC Bool.∧ example) ----------------------------------------

def _bool_and_type(i, recv, args, block):
    tself, t = _arg(args, 0), _arg(args, 1)
    if isinstance(tself, SingletonType) and isinstance(t, SingletonType):
        if tself.value is True and t.value is True:
            return SingletonType(True)
        if tself.value is False or t.value is False:
            return SingletonType(False)
    return _BOOL


def _bool_or_type(i, recv, args, block):
    tself, t = _arg(args, 0), _arg(args, 1)
    if isinstance(tself, SingletonType) and isinstance(t, SingletonType):
        if tself.value is True or t.value is True:
            return SingletonType(True)
        if tself.value is False and t.value is False:
            return SingletonType(False)
    return _BOOL


# -- ORM helpers ------------------------------------------------------------------------

def _pluck_type(i, recv, args, block):
    tself, t = _arg(args, 0), _arg(args, 1)
    schema = _schema_of(i, tself)
    if isinstance(schema, FiniteHashType) and isinstance(t, SingletonType) \
            and isinstance(t.value, Sym):
        entry = schema.elts.get(t.value)
        if entry is None:
            _type_error(f"pluck of unknown column {t.to_s()}")
        return GenericType("Array", [entry])
    return GenericType("Array", [_OBJECT])


def _column_value_type(i, recv, args, block):
    tself, t = _arg(args, 0), _arg(args, 1)
    schema = _schema_of(i, tself)
    if isinstance(schema, FiniteHashType) and isinstance(t, SingletonType) \
            and isinstance(t.value, Sym):
        entry = schema.elts.get(t.value)
        if entry is not None:
            return entry
    return _OBJECT


def _model_instance_type(i, recv, args, block):
    model = _model_of(i, recv, args, block)
    return model


def _model_instance_or_nil(i, recv, args, block):
    model = _model_of(i, recv, args, block)
    return make_union([model, _NIL])


def _record_type(i, recv, args, block):
    """What one result of a query is: a model instance for ActiveRecord
    relations / model classes, a row hash for bare Sequel datasets."""
    tself = _arg(args, 0)
    if isinstance(tself, SingletonType) and isinstance(tself.value, ClassRef):
        return NominalType(tself.value.name)
    if isinstance(tself, GenericType) and tself.base == "Table":
        if len(tself.params) >= 2 and isinstance(tself.params[1], NominalType) \
                and tself.params[1].name != "Object":
            return tself.params[1]
        if tself.params:
            return tself.params[0]
    return _OBJECT


def _record_or_nil(i, recv, args, block):
    return make_union([_record_type(i, recv, args, block), _NIL])


def _records_array_type(i, recv, args, block):
    return GenericType("Array", [_record_type(i, recv, args, block)])


def _dataset_type(i, recv, args, block):
    """``DB[:table]``: the Table type of a bare Sequel dataset."""
    t = _arg(args, 0)
    if not isinstance(t, SingletonType):
        return NominalType("Table")
    table = _table_name_for(t.value)
    if i.db is None or i.db.schema_of(table) is None:
        _type_error(f"no such table '{table}'")
    return i.db.schema_of(table).table_type()


def _record_row_type(i, recv, args, block):
    """Sequel datasets yield row hashes typed by the schema."""
    tself = _arg(args, 0)
    schema = _schema_of(i, tself)
    return schema


_NATIVE_HELPERS = {
    "db_table_type": _db_table_type,
    "fallback_hash_type": _fallback_hash_type,
    "optionalize": _optionalize,
    "model_of": _model_of,
    "check_association": _check_association,
    "sql_typecheck": _sql_typecheck,
    "where_arg_type": _where_arg_type,
    "hash_access_type": _hash_access_type,
    "hash_fetch_type": _hash_fetch_type,
    "hash_value_type": _hash_value_type,
    "hash_key_type": _hash_key_type,
    "hash_keys_type": _hash_keys_type,
    "hash_values_type": _hash_values_type,
    "hash_merge_type": _hash_merge_type,
    "hash_size_type": _hash_size_type,
    "hash_to_a_type": _hash_to_a_type,
    "tuple_index_type": _tuple_index_type,
    "tuple_first_type": _tuple_first_type,
    "tuple_last_type": _tuple_last_type,
    "tuple_length_type": _tuple_length_type,
    "tuple_concat_type": _tuple_concat_type,
    "tuple_reverse_type": _tuple_reverse_type,
    "array_elem_type": _array_elem_type,
    "array_of_elem": _array_of_elem,
    "array_elem_or_nil": _array_elem_or_nil,
    "tuple_compact_type": _tuple_compact_type,
    "tuple_empty_type": _tuple_empty_type,
    "hash_empty_type": _hash_empty_type,
    "hash_has_key_type": _hash_has_key_type,
    "str_concat_type": _str_concat_type,
    "str_fold_unary": _str_fold_unary,
    "str_length_type": _str_length_type,
    "str_mult_type": _str_mult_type,
    "str_to_sym_type": _str_to_sym_type,
    "str_empty_type": _str_empty_type,
    "str_to_i_type": _str_to_i_type,
    "str_fold_call": _str_fold_call,
    "num_fold": _num_fold,
    "num_div_fold": _num_div_fold,
    "num_cmp_fold": _num_cmp_fold,
    "num_fold_unary": _num_fold_unary,
    "bool_and_type": _bool_and_type,
    "bool_or_type": _bool_or_type,
    "pluck_type": _pluck_type,
    "column_value_type": _column_value_type,
    "model_instance_type": _model_instance_type,
    "model_instance_or_nil": _model_instance_or_nil,
    "record_row_type": _record_row_type,
    "record_type": _record_type,
    "record_or_nil": _record_or_nil,
    "records_array_type": _records_array_type,
    "dataset_type": _dataset_type,
}

# one RMethod per native helper for the whole process (``owner`` None)
_NATIVE_METHODS = {name: RMethod(name, native=fn)
                   for name, fn in _NATIVE_HELPERS.items()}
