"""Comp type annotation sets for the core and DB libraries (Table 1).

The paper writes 586 comp type annotations across Array, Hash, String,
Integer, Float, ActiveRecord and Sequel, supported by 83 shared helper
methods.  This package reproduces that library: helpers (some written in
mini-Ruby, as in Fig. 1b; most native) plus one module of signature tables
per library, listed once in :data:`LIBRARY`.  :func:`library_registry`
registers the helpers and that list once per process, ``install_all``
gives each CompRDL instance a copy-on-write view of it, and
:mod:`repro.evaluation.table1` counts Table 1 from the same list.
"""

from __future__ import annotations

import functools

from repro.annotations import helpers
from repro.annotations.activerecord import (
    ACTIVERECORD_SIGS,
    ASSOCIATION_SIGS,
    MODEL_INSTANCE_SIGS,
)
from repro.annotations.corelib_array import ARRAY_SIGS
from repro.annotations.corelib_hash import HASH_SIGS
from repro.annotations.corelib_numeric import FLOAT_SIGS, INTEGER_SIGS
from repro.annotations.corelib_object import (
    BOOLEAN_SIGS,
    CLASS_SIGS,
    EXCEPTION_SIGS,
    NIL_SIGS,
    OBJECT_SIGS,
    PROC_SIGS,
    RANGE_SIGS,
    SYMBOL_SIGS,
)
from repro.annotations.corelib_string import STRING_SIGS
from repro.annotations.sequel import (
    SEQUEL_DATABASE_SIGS,
    SEQUEL_DATASET_SIGS,
    SEQUEL_MODEL_SIGS,
)
from repro.typecheck.registry import AnnotationRegistry

# (Table 1 row or None, class name, {method: sig-or-list}, static), in
# install order.  A row of None installs without counting: the Object
# tables are conventional types, and the ActiveRecord signatures that
# relations and model instances share are counted once, on the DSL.
LIBRARY: list[tuple[str | None, str, dict[str, object], bool]] = [
    ("Array", "Array", ARRAY_SIGS, False),
    ("Hash", "Hash", HASH_SIGS, False),
    ("String", "String", STRING_SIGS, False),
    ("Integer", "Integer", INTEGER_SIGS, False),
    ("Float", "Float", FLOAT_SIGS, False),
    (None, "Object", OBJECT_SIGS, False),
    (None, "NilClass", NIL_SIGS, False),
    (None, "Symbol", SYMBOL_SIGS, False),
    (None, "Boolean", BOOLEAN_SIGS, False),
    (None, "TrueClass", BOOLEAN_SIGS, False),
    (None, "FalseClass", BOOLEAN_SIGS, False),
    (None, "Proc", PROC_SIGS, False),
    (None, "Range", RANGE_SIGS, False),
    (None, "Exception", EXCEPTION_SIGS, False),
    (None, "Class", CLASS_SIGS, False),
    ("ActiveRecord", "ActiveRecord::Base", ACTIVERECORD_SIGS, True),
    (None, "Table", ACTIVERECORD_SIGS, False),
    (None, "ActiveRecord::Base", MODEL_INSTANCE_SIGS, False),
    (None, "ActiveRecord::Base", ASSOCIATION_SIGS, True),
    ("Sequel", "Sequel::Database", SEQUEL_DATABASE_SIGS, False),
    ("Sequel", "Table", SEQUEL_DATASET_SIGS, False),
    ("Sequel", "Sequel::Model", SEQUEL_MODEL_SIGS, True),
]


def signatures(table: dict[str, object]):
    """``(method name, signature text)`` for every signature of a table,
    in table order."""
    for method_name, sigs in table.items():
        for sig_text in sigs if isinstance(sigs, (list, tuple)) else (sigs,):
            yield method_name, sig_text


@functools.cache
def library_registry() -> AnnotationRegistry:
    """The process-wide base: every helper's signature, then every
    :data:`LIBRARY` entry, registered in install order on the first call.
    Universes share its annotations, so nothing may mutate it."""
    registry = AnnotationRegistry()
    helpers.annotate(registry)
    for _row, class_name, table, static in LIBRARY:
        for method_name, sig_text in signatures(table):
            registry.annotate(class_name, method_name, sig_text, static=static)
    return registry


def install_all(rdl) -> None:
    """Adopt the library into a universe's registry, then give the
    universe the helpers' bodies."""
    rdl.registry.adopt(library_registry())
    helpers.install(rdl)
