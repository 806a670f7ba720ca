"""A real ``sqlite3`` storage engine behind the ``Database`` façade.

Schemas are never hand-maintained here: after every DDL statement the
affected table is re-introspected with ``PRAGMA table_info``, so the
``TableSchema`` objects the comp types consult always describe what the
engine itself reports — including for databases this process did not
create (``Database.attach(path)``).

Migrations translate to real DDL, one table at a time:

* ``create_table`` → ``CREATE TABLE`` with the canonical column
  definitions (each quoted name plus its ``_KIND_TO_SQL`` type)
* ``drop_table``   → ``DROP TABLE``
* ``add_column``, ``drop_column``, ``rename_column`` and ``rename_table``
  → a rebuild of that one table, in one transaction: read its rows with
  their rowids, ``DROP TABLE``, ``CREATE TABLE`` the new shape, insert the
  rows back under the same rowids; or the ``ALTER TABLE`` statement.

The two cost different things.  A rebuild copies every row of its table;
``ALTER TABLE`` re-parses every ``CREATE`` in the file (``RENAME/DROP
COLUMN`` and ``RENAME TO`` cost 0.03-0.06 ms per table, ``ADD COLUMN``
about 0.005 ms), while a rebuild copies a row in about 0.003 ms.  So a
migration rebuilds a table that holds at most 10 rows per table in the
file (1 for ``add_column``) and runs ``ALTER TABLE`` on a bigger one: a
wide schema of small tables, as in ``schema_churn``, rebuilds; a table of
thousands of rows in a small schema alters.

A rebuild writes the canonical ``CREATE`` and copies the rowid by name,
so it is also taken only when it is lossless: the table's stored
``CREATE`` is already canonical, the file holds no index, trigger, view
or foreign key that a rebuild would drop or leave dangling, and one of
``rowid``, ``oid`` and ``_rowid_`` is free in both the old and the new
columns (a column of that name hides sqlite's rowid; ``Database`` refuses
a table that takes all three, so rows are always addressed by the real
rowid).  A non-canonical
table can only come from a file another tool wrote (``Database.attach``);
sqlite's ``ALTER TABLE`` carries its keys, constraints, indexes and views
along.

A table rebuilt by a column migration keeps its place in the in-process
mirror (``tables`` order; a renamed table moves last there, as on the
memory backend), but the file now lists it last: a reopened file orders
tables by ``sqlite_master``, where the rebuild's ``CREATE`` is newest.

Row parity with the memory backend (what the parity suite asserts):
values round-trip by *declared* column type — booleans come back as
booleans, not 0/1 — and columns a row never set are omitted from the
returned dict (the memory backend's rows simply lack those keys; every
consumer reads rows with ``dict.get``, so NULL-vs-absent is unobservable).

Connections are process-local and deliberately unpicklable: the parallel
worker protocol ships the backend *name* (plus a path for on-disk files)
and each worker opens its own connection.
"""

from __future__ import annotations

import sqlite3
from typing import Callable

from repro.db.backends.base import StorageBackend
from repro.obs.spans import span

#: repro column kind → sqlite declared type.  The declared names are chosen
#: so the reverse mapping below is a bijection for our kinds *and* each
#: name lands in the right sqlite type-affinity class (VARCHAR → TEXT, so
#: numeric-looking strings are not coerced to numbers on insert).
_KIND_TO_SQL = {
    "integer": "INTEGER",
    "string": "VARCHAR",
    "text": "TEXT",
    "boolean": "BOOLEAN",
    "float": "DOUBLE",
    "datetime": "DATETIME",
}

_SQL_TO_KIND = {sql: kind for kind, sql in _KIND_TO_SQL.items()}

#: rows a rebuild may copy per table in the file before the ``ALTER
#: TABLE`` statement is cheaper (see the module docstring)
_REBUILD_ROWS_PER_TABLE = 10
_REBUILD_ROWS_PER_TABLE_ADD = 1


def kind_from_declared(declared: str) -> str:
    """Map a sqlite declared column type back to a repro column kind.

    Exact matches cover everything this backend itself creates; the
    substring fallbacks (modelled on sqlite's own affinity rules) cover
    attached databases created by other tools (``VARCHAR(255)``,
    ``NUMERIC``, ``INTEGER PRIMARY KEY`` ...).
    """
    normalized = (declared or "").strip().upper()
    if normalized in _SQL_TO_KIND:
        return _SQL_TO_KIND[normalized]
    if "INT" in normalized:
        return "integer"
    if "BOOL" in normalized:
        return "boolean"
    if "CHAR" in normalized or "CLOB" in normalized:
        return "string"
    if "TEXT" in normalized:
        return "text"
    if "REAL" in normalized or "FLOA" in normalized or "DOUB" in normalized:
        return "float"
    if "DATE" in normalized or "TIME" in normalized:
        return "datetime"
    # sqlite's own fallback affinity is NUMERIC; for schema types the
    # safest conservative kind is string
    return "string"


def _quote(identifier: str) -> str:
    """Quote an identifier for DDL/DML (doubling embedded quotes)."""
    return '"' + identifier.replace('"', '""') + '"'


def _rowid_name(*column_names) -> str | None:
    """The first name of sqlite's rowid that no column in ``column_names``
    hides (a column named ``rowid``, ``oid`` or ``_rowid_``, in any letter
    case, takes that name over); None when all three are taken."""
    taken = {name.lower() for names in column_names for name in names}
    return next((name for name in ("rowid", "oid", "_rowid_")
                 if name not in taken), None)


def _create_sql(table: str, columns) -> str:
    """The canonical ``CREATE TABLE``: quoted names, ``_KIND_TO_SQL`` types."""
    defs = ", ".join(
        f"{_quote(column.name)} {_KIND_TO_SQL.get(column.kind, 'VARCHAR')}"
        for column in columns
    )
    return f"CREATE TABLE {_quote(table)} ({defs})"


class SqliteBackend(StorageBackend):
    """Schema + row storage in a sqlite database (file or ``:memory:``)."""

    name = "sqlite"

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self.conn = sqlite3.connect(path)
        # TableSchema mirror, rebuilt from PRAGMA after every DDL; dict
        # order tracks creation order (renames re-append, like the memory
        # backend's pop/reinsert)
        self._schemas: dict = {}
        for table in self._table_names():
            self._schemas[table] = self._introspect(table)

    # -- introspection -----------------------------------------------------
    def _table_names(self) -> list[str]:
        cursor = self.conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY rowid")
        return [row[0] for row in cursor.fetchall()]

    def _introspect(self, table: str):
        """One table's schema, as sqlite reports it (``PRAGMA table_info``)."""
        from repro.db.schema import Column, TableSchema

        with span("db.sqlite.introspect", label=table):
            info = self.conn.execute(
                f"PRAGMA table_info({_quote(table)})").fetchall()
        columns = {
            name: Column(name, kind_from_declared(declared))
            for (_cid, name, declared, _notnull, _default, _pk) in info
        }
        return TableSchema(table, columns)

    def _refresh(self, table: str) -> None:
        self._schemas[table] = self._introspect(table)

    # -- schema ------------------------------------------------------------
    @property
    def tables(self):
        return self._schemas

    def create_table(self, table, columns) -> None:
        with span("db.sqlite.ddl", label=f"create_table {table}"):
            self.conn.execute(_create_sql(table, columns))
            self.conn.commit()
        self._refresh(table)

    def drop_table(self, table) -> None:
        with span("db.sqlite.ddl", label=f"drop_table {table}"):
            self.conn.execute(f"DROP TABLE IF EXISTS {_quote(table)}")
            self.conn.commit()
        self._schemas.pop(table, None)

    def rename_table(self, table, new_name) -> None:
        columns = self._schemas[table].columns
        self._migrate(table, new_name, list(columns.items()),
                      f"RENAME TO {_quote(new_name)}",
                      _REBUILD_ROWS_PER_TABLE)
        self._schemas.pop(table, None)
        self._refresh(new_name)

    def add_column(self, table, column) -> None:
        columns = self._schemas[table].columns
        declared = _KIND_TO_SQL.get(column.kind, "VARCHAR")
        self._migrate(table, table, [*columns.items(), (None, column)],
                      f"ADD COLUMN {_quote(column.name)} {declared}",
                      _REBUILD_ROWS_PER_TABLE_ADD)
        self._refresh(table)

    def drop_column(self, table, column) -> None:
        columns = self._schemas[table].columns
        if column not in columns:
            return
        self._migrate(table, table, [(name, kept)
                                     for name, kept in columns.items()
                                     if name != column],
                      f"DROP COLUMN {_quote(column)}",
                      _REBUILD_ROWS_PER_TABLE)
        self._refresh(table)

    def rename_column(self, table, column, new_name) -> None:
        from repro.db.schema import Column

        columns = self._schemas[table].columns
        self._migrate(table, table, [
            (name, Column(new_name, kept.kind) if name == column else kept)
            for name, kept in columns.items()],
            f"RENAME COLUMN {_quote(column)} TO {_quote(new_name)}",
            _REBUILD_ROWS_PER_TABLE)
        self._refresh(table)

    def _migrate(self, table, new_name, columns, alter: str,
                 rows_per_table: int) -> None:
        """Give ``table`` the name ``new_name`` and the ``columns`` — pairs
        of (old column that fills it or None, new ``Column``) — by
        rebuilding it when that is lossless and the table holds at most
        ``rows_per_table`` rows per table in the file, else by the
        ``alter`` statement."""
        rowid = _rowid_name(self._schemas[table].columns,
                            [column.name for _, column in columns])
        with span("db.sqlite.ddl", label=f"{table} {alter}"):
            if rowid and self._rebuild_pays(table, rows_per_table) and \
                    self._rebuildable(table):
                self._rebuild(table, new_name, columns, rowid)
            else:
                self.conn.execute(f"ALTER TABLE {_quote(table)} {alter}")
                self.conn.commit()

    def _rebuild_pays(self, table, rows_per_table: int) -> bool:
        """True when copying ``table``'s rows costs less than re-parsing
        every table in the file."""
        rows = self.conn.execute(
            f"SELECT COUNT(*) FROM {_quote(table)}").fetchone()[0]
        return rows <= rows_per_table * len(self._schemas)

    def _rebuildable(self, table) -> bool:
        """True when ``table``'s stored ``CREATE`` is the canonical one
        and nothing else in the file (index, trigger, view, a foreign key
        naming some table) would be lost or left dangling by a rebuild."""
        canonical = _create_sql(table, self._schemas[table].columns.values())
        blockers = self.conn.execute(
            "SELECT COUNT(*) FROM sqlite_master WHERE sql IS NOT NULL AND "
            "(type != 'table' OR sql LIKE '%REFERENCES%' "
            "OR (name = ? AND sql != ?))", (table, canonical)).fetchone()[0]
        return blockers == 0

    def _rebuild(self, table, new_name, columns, rowid: str) -> None:
        """Copy ``table``'s rows, rowids (read and written as ``rowid``)
        included, into a fresh canonical table; one transaction, rolled
        back on any exception."""
        copied = [(source, column.name) for source, column in columns
                  if source is not None]
        sources = "".join(f", {_quote(source)}" for source, _ in copied)
        targets = "".join(f", {_quote(target)}" for _, target in copied)
        placeholders = ", ?" * len(copied)
        self.conn.execute("BEGIN")
        try:
            rows = self.conn.execute(
                f"SELECT {rowid}{sources} FROM {_quote(table)}").fetchall()
            self.conn.execute(f"DROP TABLE {_quote(table)}")
            self.conn.execute(
                _create_sql(new_name, [column for _, column in columns]))
            self.conn.executemany(
                f"INSERT INTO {_quote(new_name)} ({rowid}{targets}) "
                f"VALUES (?{placeholders})", rows)
        except BaseException:
            self.conn.rollback()
            raise
        self.conn.commit()

    # -- rows --------------------------------------------------------------
    def insert(self, table, row) -> None:
        if not row:
            self.conn.execute(f"INSERT INTO {_quote(table)} DEFAULT VALUES")
        else:
            names = list(row)
            placeholders = ", ".join("?" for _ in names)
            quoted = ", ".join(_quote(name) for name in names)
            self.conn.execute(
                f"INSERT INTO {_quote(table)} ({quoted}) "
                f"VALUES ({placeholders})",
                [row[name] for name in names])
        self.conn.commit()

    def all_rows(self, table) -> list[dict]:
        return [row for _rowid, row in self._rows_with_ids(table)]

    def _rowid(self, table) -> str:
        """The name that reads ``table``'s rowid (``Database`` refuses a
        table whose columns take all three)."""
        return _rowid_name(self._schemas[table].columns)

    def _rows_with_ids(self, table) -> list[tuple[int, dict]]:
        """(rowid, row-dict) pairs in insertion order, values converted
        back to Python by declared column kind, NULL columns omitted."""
        schema = self._schemas.get(table)
        if schema is None:
            return []
        names = list(schema.columns)
        if not names:
            return []
        quoted = ", ".join(_quote(name) for name in names)
        key = self._rowid(table)
        cursor = self.conn.execute(
            f"SELECT {key}, {quoted} FROM {_quote(table)} ORDER BY {key}")
        out = []
        for fetched in cursor.fetchall():
            rowid, values = fetched[0], fetched[1:]
            row = {}
            for name, value in zip(names, values):
                if value is None:
                    continue
                if schema.columns[name].kind == "boolean" and \
                        isinstance(value, int):
                    value = bool(value)
                row[name] = value
            out.append((rowid, row))
        return out

    def update_rows(self, table, predicate: Callable[[dict], bool],
                    updates: dict) -> int:
        if table not in self._schemas:
            raise KeyError(table)
        matching = [rowid for rowid, row in self._rows_with_ids(table)
                    if predicate(row)]
        if matching and updates:
            assignments = ", ".join(
                f"{_quote(name)} = ?" for name in updates)
            placeholders = ", ".join("?" for _ in matching)
            self.conn.execute(
                f"UPDATE {_quote(table)} SET {assignments} "
                f"WHERE {self._rowid(table)} IN ({placeholders})",
                [*updates.values(), *matching])
            self.conn.commit()
        return len(matching)

    def delete_rows(self, table, predicate: Callable[[dict], bool]) -> int:
        if table not in self._schemas:
            raise KeyError(table)
        matching = [rowid for rowid, row in self._rows_with_ids(table)
                    if predicate(row)]
        if matching:
            placeholders = ", ".join("?" for _ in matching)
            self.conn.execute(
                f"DELETE FROM {_quote(table)} "
                f"WHERE {self._rowid(table)} IN ({placeholders})", matching)
            self.conn.commit()
        return len(matching)

    def clear(self, table=None) -> None:
        # an unknown table is a no-op, matching the memory backend
        targets = list(self._schemas) if table is None else \
            [table] if table in self._schemas else []
        for target in targets:
            self.conn.execute(f"DELETE FROM {_quote(target)}")
        self.conn.commit()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self.conn.close()

    def __getstate__(self):  # pragma: no cover - exercised by pickle
        raise TypeError(
            "SqliteBackend holds a live sqlite3 connection and cannot be "
            "pickled; ship the backend name (and file path) and reopen it "
            "in the receiving process — see repro.parallel.protocol")
