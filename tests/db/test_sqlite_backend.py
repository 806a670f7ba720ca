"""SqliteBackend specifics: PRAGMA introspection, real DDL, table
rebuilds, attach()."""

import pickle
import sqlite3

import pytest

from repro import CompRDL, Database
from repro.db import SqliteBackend, UnknownBackendError, backend_for_name
from repro.db.backends import BACKEND_ENV, kind_from_declared
from repro.db.backends.memory import MemoryBackend


class TestBackendSelection:
    def test_names_resolve(self):
        assert isinstance(backend_for_name("memory"), MemoryBackend)
        assert isinstance(backend_for_name("sqlite"), SqliteBackend)
        assert isinstance(backend_for_name("SQLite3"), SqliteBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(UnknownBackendError):
            backend_for_name("postgres")
        with pytest.raises(UnknownBackendError):
            Database(backend="mysql")

    def test_memory_rejects_a_path(self):
        with pytest.raises(UnknownBackendError):
            backend_for_name("memory", path="/tmp/nope.db")

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "sqlite")
        assert Database().backend_name == "sqlite"
        monkeypatch.delenv(BACKEND_ENV)
        assert Database().backend_name == "memory"

    def test_backend_instance_with_path_rejected(self):
        with pytest.raises(ValueError):
            Database(backend=SqliteBackend(), path="/tmp/x.db")

    def test_comprdl_backend_kwarg(self):
        assert CompRDL(backend="sqlite", install_libraries=False) \
            .db.backend_name == "sqlite"
        with pytest.raises(ValueError):
            CompRDL(db=Database(), backend="sqlite",
                    install_libraries=False)


class TestIntrospection:
    def test_schema_comes_from_pragma(self):
        db = Database(backend="sqlite")
        db.create_table("users", username="string", staged="boolean")
        # the engine itself must know the table, not just the mirror
        info = db.backend.conn.execute(
            "PRAGMA table_info(users)").fetchall()
        assert [row[1] for row in info] == ["id", "username", "staged"]
        assert db.tables["users"].columns["staged"].kind == "boolean"

    def test_migrations_run_as_real_ddl(self):
        db = Database(backend="sqlite")
        db.create_table("users", username="string")
        db.add_column("users", "age", "integer")
        db.rename_column("users", "username", "login")
        db.rename_table("users", "accounts")
        names = [row[1] for row in db.backend.conn.execute(
            "PRAGMA table_info(accounts)").fetchall()]
        assert names == ["id", "login", "age"]
        db.drop_column("accounts", "age")
        names = [row[1] for row in db.backend.conn.execute(
            "PRAGMA table_info(accounts)").fetchall()]
        assert names == ["id", "login"]
        db.drop_table("accounts")
        assert db.backend.conn.execute(
            "SELECT COUNT(*) FROM sqlite_master WHERE name='accounts'"
        ).fetchone()[0] == 0

    def test_kind_mapping_covers_foreign_declarations(self):
        assert kind_from_declared("INTEGER PRIMARY KEY") == "integer"
        assert kind_from_declared("VARCHAR(255)") == "string"
        assert kind_from_declared("varchar") == "string"
        assert kind_from_declared("TEXT") == "text"
        assert kind_from_declared("tinyint(1)") == "integer"
        assert kind_from_declared("BOOLEAN") == "boolean"
        assert kind_from_declared("double precision") == "float"
        assert kind_from_declared("datetime(6)") == "datetime"
        assert kind_from_declared("") == "string"
        assert kind_from_declared("NUMERIC") == "string"


class TestAttach:
    def test_attach_a_schema_we_did_not_create(self, tmp_path):
        path = str(tmp_path / "legacy.db")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE posts (id INTEGER PRIMARY KEY, "
                     "title VARCHAR(80), views INT, draft BOOLEAN)")
        conn.execute("INSERT INTO posts (id, title, views, draft) "
                     "VALUES (1, 'hello', 10, 1)")
        conn.commit()
        conn.close()

        db = Database.attach(path)
        assert db.backend_name == "sqlite"
        assert [(c.name, c.kind)
                for c in db.tables["posts"].columns.values()] == [
            ("id", "integer"), ("title", "string"),
            ("views", "integer"), ("draft", "boolean")]
        assert db.all_rows("posts") == [
            {"id": 1, "title": "hello", "views": 10, "draft": True}]
        # attaching emits no journal events: generation 0 IS this state
        assert db.version == 0 and len(db.journal) == 0
        # the id counter continues past the attached data
        assert db.insert("posts", {"title": "next"})["id"] == 2

    def test_attach_refuses_a_table_that_hides_every_rowid_name(
            self, tmp_path):
        path = str(tmp_path / "hidden.db")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (rowid INTEGER, oid INTEGER, "
                     "_rowid_ INTEGER)")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="could not address its rows"):
            Database.attach(path)

    def test_checking_against_an_attached_schema(self, tmp_path):
        path = str(tmp_path / "app.db")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE users (id INTEGER PRIMARY KEY, "
                     "username VARCHAR(40), staged BOOLEAN)")
        conn.commit()
        conn.close()

        rdl = CompRDL(db=Database.attach(path))
        rdl.load("""
class User < ActiveRecord::Base
  type "(String) -> %bool", typecheck: :attached
  def self.taken?(name)
    User.exists?({ username: name })
  end
end
""")
        assert rdl.check_all("attached").ok()
        # a column the schema lacks is a real comp-type error
        rdl.load("""
class User < ActiveRecord::Base
  type "(String) -> %bool", typecheck: :attached2
  def self.ghost?(name)
    User.exists?({ nickname: name })
  end
end
""")
        assert not rdl.check_all("attached2").ok()

    def test_on_disk_database_persists_migrations(self, tmp_path):
        path = str(tmp_path / "persist.db")
        db = Database(backend="sqlite", path=path)
        db.create_table("users", username="string")
        db.insert("users", {"username": "a"})
        db.add_column("users", "age", "integer")
        db.backend.close()

        reopened = Database.attach(path)
        assert [c for c in reopened.tables["users"].columns] == \
            ["id", "username", "age"]
        assert reopened.all_rows("users") == [{"id": 1, "username": "a"}]


#: each migration and the canonical CREATE the table is stored with after it
MIGRATIONS = {
    "add_column": (
        lambda db: db.add_column("users", "age", "integer"),
        'CREATE TABLE "users" ("id" INTEGER, "username" VARCHAR, '
        '"staged" BOOLEAN, "age" INTEGER)'),
    "drop_column": (
        lambda db: db.drop_column("users", "staged"),
        'CREATE TABLE "users" ("id" INTEGER, "username" VARCHAR)'),
    "rename_column": (
        lambda db: db.rename_column("users", "username", "login"),
        'CREATE TABLE "users" ("id" INTEGER, "login" VARCHAR, '
        '"staged" BOOLEAN)'),
    "rename_table": (
        lambda db: db.rename_table("users", "accounts"),
        'CREATE TABLE "accounts" ("id" INTEGER, "username" VARCHAR, '
        '"staged" BOOLEAN)'),
}


def _users(path=":memory:", rows=2) -> Database:
    """``users`` with ``rows`` rows (every second one leaves ``staged``
    NULL) next to an empty ``tags``.  Two rows are few enough for every
    migration to rebuild; 40 are enough for each to run ``ALTER TABLE``."""
    db = Database(backend="sqlite", path=path)
    db.create_table("users", username="string", staged="boolean")
    db.create_table("tags", label="string")
    for index in range(rows):
        db.insert("users", {"username": f"u{index}", "staged": True}
                  if index % 2 == 0 else {"username": f"u{index}"})
    return db


TAGS_SQL = 'CREATE TABLE "tags" ("id" INTEGER, "label" VARCHAR)'


def _stored_sql(db: Database) -> dict:
    return dict(db.backend.conn.execute(
        "SELECT name, sql FROM sqlite_master ORDER BY rowid").fetchall())


class _Proxy:
    """A connection that records every ``execute``d statement and raises
    on the one that starts with ``fail`` (a rebuild's middle step)."""

    def __init__(self, conn, fail=None):
        self._conn = conn
        self._fail = fail
        self.statements = []

    def execute(self, sql, *args):
        self.statements.append(sql)
        if self._fail and sql.startswith(self._fail):
            raise sqlite3.OperationalError(f"injected {self._fail} failure")
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestRebuild:
    @pytest.mark.parametrize("rows, statement",
                             [(2, "CREATE TABLE"), (40, "ALTER TABLE")])
    @pytest.mark.parametrize("migration", sorted(MIGRATIONS))
    def test_stored_create_stays_canonical(self, migration, rows, statement):
        # a small table is rebuilt, a big one altered: both stay canonical
        migrate, expected = MIGRATIONS[migration]
        db = _users(rows=rows)
        conn = db.backend.conn
        db.backend.conn = proxy = _Proxy(conn)
        migrate(db)
        db.backend.conn = conn
        kinds = [" ".join(sql.split()[:2]) for sql in proxy.statements]
        assert [kind for kind in kinds
                if kind in ("CREATE TABLE", "ALTER TABLE")] == [statement]
        stored = _stored_sql(db)
        assert stored.pop("tags") == TAGS_SQL
        assert list(stored.values()) == [expected]
        assert len(db.all_rows(expected.split('"')[1])) == rows

    def test_rebuilt_table_keeps_its_mirror_place_not_its_file_place(
            self, tmp_path):
        path = str(tmp_path / "order.db")
        db = Database(backend="sqlite", path=path)
        for table in ("a", "b", "c"):
            db.create_table(table, name="string")
        db.rename_column("a", "name", "title")
        assert list(db.tables) == ["a", "b", "c"]
        db.backend.close()
        # a reopened file lists tables in sqlite_master order
        assert list(Database.attach(path).tables) == ["b", "c", "a"]

    @pytest.mark.parametrize("migration", sorted(MIGRATIONS))
    def test_a_failed_rebuild_leaves_nothing_behind(self, migration):
        migrate, _expected = MIGRATIONS[migration]

        def state(db):
            return (_stored_sql(db), db.all_rows("users"),
                    {name: [(c.name, c.kind) for c in schema.columns.values()]
                     for name, schema in db.tables.items()},
                    db.version, len(db.journal))

        db = _users()
        before = state(db)
        conn = db.backend.conn
        db.backend.conn = _Proxy(conn, fail="CREATE TABLE")
        with pytest.raises(sqlite3.OperationalError, match="injected"):
            migrate(db)
        db.backend.conn = conn
        assert not conn.in_transaction
        assert state(db) == before
        migrate(db)  # and the same migration still goes through
        assert db.version == before[3] + 1

    def test_rowids_survive_a_column_named_rowid(self):
        # such a column hides sqlite's rowid under that name; the rebuild
        # copies the real rowids under a name no old or new column takes
        db = _users(rows=3)
        db.delete_rows("users", lambda r: r.get("username") == "u1")

        def rowids():
            return [row[0] for row in db.backend.conn.execute(
                "SELECT _rowid_ FROM users ORDER BY _rowid_")]

        assert rowids() == [1, 3]
        db.add_column("users", "rowid", "integer")
        db.update_rows("users", lambda r: True, {"rowid": 7})
        db.rename_column("users", "username", "oid")
        assert rowids() == [1, 3]
        db.drop_column("users", "rowid")
        db.rename_column("users", "oid", "username")
        assert rowids() == [1, 3]
        assert db.all_rows("users") == [
            {"id": 1, "username": "u0", "staged": True},
            {"id": 3, "username": "u2", "staged": True}]


class TestForeignTables:
    """A table another tool created keeps ``ALTER TABLE``, so sqlite carries
    its key, declared types, indexes, views and foreign keys along."""

    def _legacy(self, tmp_path) -> Database:
        path = str(tmp_path / "legacy.db")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE posts (id INTEGER PRIMARY KEY, "
                     "title VARCHAR(80), views INT, body TEXT)")
        conn.execute("CREATE INDEX posts_by_views ON posts (views)")
        conn.execute("CREATE VIEW popular AS "
                     "SELECT title FROM posts WHERE views > 5")
        conn.executemany(
            "INSERT INTO posts (id, title, views, body) VALUES (?, ?, ?, ?)",
            [(1, "hello", 10, "x"), (2, "quiet", 1, "y")])
        conn.commit()
        conn.close()
        return Database.attach(path)

    def test_key_type_index_and_view_survive(self, tmp_path):
        db = self._legacy(tmp_path)
        db.rename_column("posts", "title", "headline")
        db.drop_column("posts", "body")
        db.rename_table("posts", "articles")
        conn = db.backend.conn
        info = {name: (declared, pk) for (_cid, name, declared, _nn, _d, pk)
                in conn.execute("PRAGMA table_info(articles)")}
        assert info == {"id": ("INTEGER", 1), "headline": ("VARCHAR(80)", 0),
                        "views": ("INT", 0)}
        assert [row[1] for row in conn.execute(
            "PRAGMA index_list(articles)")] == ["posts_by_views"]
        assert conn.execute("SELECT * FROM popular").fetchall() == \
            [("hello",)]
        assert db.all_rows("articles") == [
            {"id": 1, "headline": "hello", "views": 10},
            {"id": 2, "headline": "quiet", "views": 1}]

    def test_a_foreign_key_follows_a_renamed_canonical_table(self, tmp_path):
        path = str(tmp_path / "keys.db")
        _users(path).backend.close()
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE emails (id INTEGER PRIMARY KEY, "
                     "user_id INTEGER REFERENCES users (id))")
        conn.commit()
        conn.close()
        db = Database.attach(path)
        db.rename_table("users", "accounts")
        assert [row[2] for row in db.backend.conn.execute(
            "PRAGMA foreign_key_list(emails)")] == ["accounts"]


class TestWorkerSafety:
    def test_connection_refuses_to_pickle(self):
        db = Database(backend="sqlite")
        db.create_table("users", username="string")
        with pytest.raises(TypeError, match="reopen"):
            pickle.dumps(db.backend)

    def test_cold_check_requests_carry_the_backend_name(self):
        # a cold check is a session attach: the attach names the backend
        # the worker builds its replicas against
        from repro.parallel.protocol import AttachUniverse

        request = AttachUniverse("session", ("huginn",), backend="sqlite")
        assert pickle.loads(pickle.dumps(request)).backend == "sqlite"
