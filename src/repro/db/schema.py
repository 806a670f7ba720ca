"""Database schemas and storage.

Schemas are the ground truth the comp types consult: ``RDL.db_schema``
returns a hash from table name to ``Table<{col: Type, ...}>`` — exactly the
shape ``schema_type`` destructures in Fig. 1b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.incremental.versioning import (
    WILDCARD,
    ReplayError,
    SchemaEvent,
    SchemaJournal,
)
from repro.obs import faults as _faults
from repro.obs.spans import bump, event, span
from repro.obs.state import ENABLED as _OBS_ON

_FAULTS_ON = _faults.ENABLED  # cached cell: zero-cost guard when off
from repro.rtypes import FiniteHashType, GenericType, NominalType, RType
from repro.rtypes.kinds import Sym
from repro.runtime.objects import RHash, RString

_COLUMN_TYPES: dict[str, RType] = {
    "integer": NominalType("Integer"),
    "string": NominalType("String"),
    "text": NominalType("String"),
    "boolean": NominalType("Boolean"),
    "float": NominalType("Float"),
    "datetime": NominalType("String"),
}


@dataclass
class Column:
    """One column: a name and a SQL-ish type kind."""

    name: str
    kind: str

    def rtype(self) -> RType:
        if self.kind not in _COLUMN_TYPES:
            raise ValueError(f"unknown column type {self.kind!r}")
        return _COLUMN_TYPES[self.kind]


@dataclass
class TableSchema:
    """A table's name and ordered columns."""

    name: str
    columns: dict[str, Column] = field(default_factory=dict)
    _fh_cache: FiniteHashType | None = field(default=None, repr=False, compare=False)

    def column(self, name: str) -> Column | None:
        return self.columns.get(name)

    def finite_hash(self) -> FiniteHashType:
        """The schema as a finite hash type ``{col: Type, ...}`` (memoized;
        column mutations invalidate the cache)."""
        if self._fh_cache is None:
            self._fh_cache = FiniteHashType(
                {Sym(c.name): c.rtype() for c in self.columns.values()}
            )
        return self._fh_cache

    def table_type(self) -> GenericType:
        """The schema as ``Table<{...}>``."""
        return GenericType("Table", [self.finite_hash()])


class InvalidRowIdError(TypeError):
    """An explicit ``id`` value that is not an integer."""

    def __init__(self, table: str, value: object):
        super().__init__(
            f"invalid id {value!r} for table {table!r}: "
            f"ids must be integers")
        self.table = table
        self.value = value


#: the names that read sqlite's rowid; a column of one of these names (in
#: any letter case) hides the rowid under that name
_ROWID_NAMES = frozenset({"rowid", "oid", "_rowid_"})


def _check_rowid_reachable(table: str, column_names) -> None:
    """Refuse a table whose columns take all of ``_ROWID_NAMES``, on every
    backend alike: sqlite would have no name left to address its rows."""
    if _ROWID_NAMES <= {name.lower() for name in column_names}:
        raise ValueError(
            f"table {table!r} cannot have columns named rowid, oid and "
            f"_rowid_ all at once: sqlite could not address its rows")


class Database:
    """Schemas plus row storage plus declared associations.

    A *façade*: the checker-visible semantics live here — the generation
    counter, the :class:`SchemaJournal`, the read/change listeners, the
    declared associations, and the id-assignment policy — while schema and
    row storage delegates to a pluggable :class:`StorageBackend`
    (:mod:`repro.db.backends`).  Both backends drive the same journal, so
    the incremental engine's invalidation and the parallel fleet's
    dependency back-feed work unchanged against either.

    ``backend`` may be a backend name (``"memory"``/``"sqlite"``), an
    already-constructed backend instance, or ``None`` (the
    ``REPRO_DB_BACKEND`` environment variable, defaulting to memory).
    ``path`` selects on-disk storage for backends that support it; see
    :meth:`attach` for opening a database some other tool created.
    """

    def __init__(self, backend: "str | None" = None,
                 path: str | None = None) -> None:
        from repro.db.backends import (StorageBackend, backend_for_name,
                                       default_backend_name)

        if isinstance(backend, StorageBackend):
            if path is not None:
                raise ValueError(
                    "path= only applies when naming a backend; the instance "
                    "passed already chose its storage")
            self.backend = backend
        else:
            self.backend = backend_for_name(
                backend if backend is not None else default_backend_name(),
                path)
        # model associations: (owner_table, assoc_table) pairs declared via
        # has_many / belongs_to — consulted by the `joins` comp type
        self.associations: set[tuple[str, str]] = set()
        self._next_ids: dict[str, int] = {}
        # bumped on every schema mutation; comp-type caches key on it so
        # consistency checks stay sound (§4) but cheap
        self.version = 0
        # the incremental engine's view of this database: a journal of what
        # each generation changed, plus read/change listeners
        self.journal = SchemaJournal()
        self.read_listeners: list = []
        self.change_listeners: list = []
        # pre-existing tables (an attached on-disk schema): seed the id
        # counters past whatever rows are already there
        for name, schema in self.backend.tables.items():
            _check_rowid_reachable(name, schema.columns)
            if schema.column("id") is not None:
                highest = max(
                    (row["id"] for row in self.backend.all_rows(name)
                     if isinstance(row.get("id"), int)),
                    default=0)
                self._next_ids[name] = highest + 1

    @classmethod
    def attach(cls, path: str, backend: str = "sqlite") -> "Database":
        """Open an existing on-disk database this process did not create.

        The schemas come straight from engine introspection (``PRAGMA
        table_info`` for sqlite), so a subject app can be checked against
        a real schema file.  Generation 0 is the attached state: no
        journal events are emitted for pre-existing tables.
        """
        return cls(backend=backend, path=path)

    @property
    def backend_name(self) -> str:
        """The storage backend's short name (worker protocol / reporting)."""
        return self.backend.name

    @property
    def tables(self) -> dict[str, TableSchema]:
        return self.backend.tables

    # -- incremental hooks -------------------------------------------------
    def add_read_listener(self, listener) -> None:
        """``listener(table, column=None)`` fires on every schema read."""
        if listener not in self.read_listeners:
            self.read_listeners.append(listener)

    def add_change_listener(self, listener) -> None:
        """``listener(event)`` fires after every schema mutation."""
        if listener not in self.change_listeners:
            self.change_listeners.append(listener)

    def note_read(self, table: str, column: str | None = None) -> None:
        for listener in self.read_listeners:
            listener(table, column)

    def _mutated(self, kind: str, table: str, column: str | None = None,
                 detail: str | None = None,
                 payload: tuple | None = None) -> None:
        self.version += 1
        schema_event = SchemaEvent(kind, self.version, table, column, detail,
                                   payload)
        self.journal.record(schema_event)
        if _OBS_ON[0]:
            bump(f"db.{self.backend.name}.migrations")
            event("db.migrate", args={"kind": kind, "table": table,
                                      "generation": self.version})
        for listener in self.change_listeners:
            listener(schema_event)

    # -- schema -----------------------------------------------------------
    def create_table(self, table_name: str, **columns: str) -> TableSchema:
        """Create a table: ``create_table("users", username="string", ...)``.

        An integer ``id`` column is added automatically when absent.
        """
        return self._create_table(
            table_name, [Column(c, kind) for c, kind in columns.items()])

    def _create_table(self, table_name: str,
                      declared: list[Column]) -> TableSchema:
        """The kwargs-free core of :meth:`create_table` — journal replay
        goes through here directly, so column names that collide with
        parameter names (``table_name``, ``self``) still replay."""
        declared = list(declared)
        if not any(column.name == "id" for column in declared):
            declared.insert(0, Column("id", "integer"))
        _check_rowid_reachable(table_name,
                               [column.name for column in declared])
        self.backend.create_table(table_name, declared)
        self._next_ids[table_name] = 1
        self._mutated("create_table", table_name,
                      payload=tuple((c.name, c.kind) for c in declared))
        return self.backend.tables[table_name]

    def drop_table(self, table: str) -> None:
        """Remove a whole table (migration).  Dropping a table that does
        not exist is a no-op: nothing changed, so no generation bump and
        no journal event (dependents stay clean)."""
        if table not in self.backend.tables:
            return
        self.backend.drop_table(table)
        self._next_ids.pop(table, None)
        self.associations = {
            pair for pair in self.associations if table not in pair
        }
        self._mutated("drop_table", table)

    def rename_table(self, table: str, new_name: str) -> None:
        """Rename a whole table (migration), preserving rows, id counters,
        and associations.  Dependents of the old name are invalidated: the
        journal event carries the new name as its detail, so both names
        count as changed."""
        if table not in self.backend.tables:
            raise KeyError(f"no such table {table!r}")
        if new_name in self.backend.tables:
            raise KeyError(
                f"cannot rename {table!r} to {new_name!r}: table exists")
        self.backend.rename_table(table, new_name)
        self._next_ids[new_name] = self._next_ids.pop(table, 1)
        self.associations = {
            tuple(new_name if name == table else name for name in pair)
            for pair in self.associations
        }
        self._mutated("rename_table", table, detail=new_name)

    def drop_column(self, table: str, column: str) -> None:
        """Remove a column (used to exercise comp-type consistency checks).

        Dropping a column that does not exist (or from a table that does
        not exist) is a no-op: no generation bump, no journal event."""
        schema = self.backend.tables.get(table)
        if schema is None or schema.column(column) is None:
            return
        self.backend.drop_column(table, column)
        self._mutated("drop_column", table, column)

    def add_column(self, table: str, column: str, kind: str) -> None:
        if table not in self.backend.tables:
            raise KeyError(
                f"cannot add column {column!r}: no such table {table!r}")
        columns = self.backend.tables[table].columns
        if column in columns:
            raise KeyError(
                f"cannot add column {column!r} to {table!r}: column exists")
        _check_rowid_reachable(table, [*columns, column])
        self.backend.add_column(table, Column(column, kind))
        self._mutated("add_column", table, column, payload=(kind,))

    def rename_column(self, table: str, column: str, new_name: str) -> None:
        """Rename a column in place, preserving order and row data."""
        schema = self.backend.tables[table]
        if column not in schema.columns:
            raise KeyError(f"no column {column!r} in table {table!r}")
        if new_name in schema.columns:
            raise KeyError(
                f"cannot rename {column!r} to {new_name!r}: column exists "
                f"in table {table!r}")
        _check_rowid_reachable(
            table, [name for name in schema.columns if name != column]
            + [new_name])
        self.backend.rename_column(table, column, new_name)
        self._mutated("rename_column", table, column, detail=new_name)

    def schema_of(self, table: str) -> TableSchema | None:
        self.note_read(table)
        return self.backend.tables.get(table)

    def all_schemas(self) -> dict[str, TableSchema]:
        """Every table schema; registers a wildcard read (whole-schema
        consumers like ``RDL.db_schema`` depend on any change)."""
        self.note_read(WILDCARD)
        return dict(self.backend.tables)

    def schema_hash(self) -> RHash:
        """``RDL.db_schema``: table name symbol → ``Table<{...}>`` type."""
        result = RHash()
        for name, schema in self.all_schemas().items():
            result.set(Sym(name), schema.table_type())
        return result

    def declare_association(self, owner_table: str, assoc_table: str) -> None:
        self.associations.add((owner_table, assoc_table))
        self._mutated("association", owner_table, detail=assoc_table)

    # -- journal replay ----------------------------------------------------
    def replay(self, events) -> int:
        """Replay journal events recorded by another :class:`Database`.

        The warm worker sessions' synchronization primitive: a replica that
        was built identically to the source universe (same generation, same
        schemas) applies the source's journal delta and converges —
        ``schema_hash()`` parity afterwards is what makes remote
        ``recheck_dirty`` sound.  Replay goes through the public migration
        methods, so both storage backends, the generation counter, the
        journal, and every change listener behave exactly as if the
        migrations had happened locally.

        Events at or below the current generation are skipped (already
        applied); a gap or a generation mismatch after applying an event
        raises :class:`ReplayError` — the replica diverged and nothing
        further can be trusted.  Returns the number of events applied.
        """
        applied = 0
        with span("db.replay") as sp:
            for replay_event in events:
                if replay_event.generation <= self.version:
                    continue
                if replay_event.generation != self.version + 1:
                    raise ReplayError(
                        f"cannot replay {replay_event.describe()}: replica is "
                        f"at generation {self.version} (event stream has a "
                        f"gap)")
                if _FAULTS_ON[0]:
                    # injected mid-sequence failure (fuzz harness): with
                    # `after=N` this is a genuine partial replay
                    _faults.fire("db.replay.event")
                self._apply_event(replay_event)
                if self.version != replay_event.generation:
                    raise ReplayError(
                        f"replay of {replay_event.describe()} left the "
                        f"replica at generation {self.version} — replica "
                        f"diverged")
                applied += 1
            sp.set("applied", applied)
        return applied

    def _apply_event(self, event: SchemaEvent) -> None:
        kind = event.kind
        try:
            if kind == "create_table":
                if not event.payload:
                    raise ReplayError(
                        f"create_table event for {event.table!r} carries no "
                        f"column payload")
                self._create_table(
                    event.table,
                    [Column(name, k) for name, k in event.payload])
            elif kind == "drop_table":
                self.drop_table(event.table)
            elif kind == "rename_table":
                self.rename_table(event.table, event.detail)
            elif kind == "add_column":
                if not event.payload:
                    raise ReplayError(
                        f"add_column event for {event.table!r}.{event.column!r} "
                        f"carries no kind payload")
                self.add_column(event.table, event.column, event.payload[0])
            elif kind == "drop_column":
                self.drop_column(event.table, event.column)
            elif kind == "rename_column":
                self.rename_column(event.table, event.column, event.detail)
            elif kind == "association":
                self.declare_association(event.table, event.detail)
            else:
                raise ReplayError(f"unknown schema event kind {kind!r}")
        except ReplayError:
            raise
        except KeyError as exc:
            raise ReplayError(
                f"replay of {event.describe()} failed: {exc}") from exc

    def associated(self, owner_table: str, assoc_table: str) -> bool:
        self.note_read(owner_table)
        self.note_read(assoc_table)
        return (owner_table, assoc_table) in self.associations

    # -- rows ----------------------------------------------------------------
    def insert(self, table: str, values: dict) -> dict:
        """Insert a row (auto-assigning ``id``) and return it.

        An explicit ``id`` must be an integer — anything else raises
        :class:`InvalidRowIdError` before any bookkeeping or storage is
        touched (the next-id counter and the backend stay consistent).
        """
        schema = self.backend.tables.get(table)
        if schema is None:
            raise KeyError(f"no such table {table!r}")
        row = dict(values)
        self._validate_columns(table, schema, row)
        if "id" in row:
            row_id = row["id"]
            if isinstance(row_id, bool) or not isinstance(row_id, int):
                raise InvalidRowIdError(table, row_id)
            self._next_ids[table] = max(
                self._next_ids.get(table, 1), row_id + 1)
        elif schema.column("id") is not None:
            row["id"] = self._next_ids.setdefault(table, 1)
            self._next_ids[table] += 1
        if _OBS_ON[0]:
            bump(f"db.{self.backend.name}.insert")
        self.backend.insert(table, row)
        return row

    def all_rows(self, table: str) -> list[dict]:
        if _OBS_ON[0]:
            bump(f"db.{self.backend.name}.select")
        return self.backend.all_rows(table)

    def update_rows(self, table: str, predicate, updates: dict) -> int:
        """Apply ``updates`` to every row matching ``predicate``."""
        schema = self.backend.tables.get(table)
        if schema is not None:
            self._validate_columns(table, schema, updates)
        if _OBS_ON[0]:
            bump(f"db.{self.backend.name}.update")
        return self.backend.update_rows(table, predicate, updates)

    @staticmethod
    def _validate_columns(table: str, schema: TableSchema, values: dict) -> None:
        """SQL semantics: writing a column the schema lacks is an error on
        any engine — reject it up front so both backends agree (the memory
        backend would otherwise store the stray key silently while a real
        engine raises its own error mid-statement)."""
        for name in values:
            if schema.column(name) is None:
                raise KeyError(f"no column {name!r} in table {table!r}")

    def delete_rows(self, table: str, predicate) -> int:
        if _OBS_ON[0]:
            bump(f"db.{self.backend.name}.delete")
        return self.backend.delete_rows(table, predicate)

    def clear(self, table: str | None = None) -> None:
        self.backend.clear(table)
