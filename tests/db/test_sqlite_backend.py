"""SqliteBackend specifics: PRAGMA introspection, real DDL, attach()."""

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


class TestWorkerSafety:
    def test_connection_refuses_to_pickle(self):
        db = Database(backend="sqlite")
        db.create_table("users", username="string")
        with pytest.raises(TypeError, match="reopen"):
            pickle.dumps(db.backend)

    def test_cold_check_requests_carry_the_backend_name(self):
        from repro.parallel.protocol import CheckRequest

        request = CheckRequest(None, 0, backend="sqlite")
        assert pickle.loads(pickle.dumps(request)).backend == "sqlite"
