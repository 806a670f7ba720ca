"""Backend parity: memory and sqlite must be observationally identical.

The same migration script (create / add / rename / drop / rename_table,
plus inserts, updates, deletes, and joined queries) runs against both
backends; schema hashes, rows, and journal event streams must match
exactly.  Then the acceptance bar: the combined subject apps produce
verdict-for-verdict identical reports on both backends — cold, after a
migration (``recheck_dirty``), and with ``workers=4``.
"""

import pytest

from repro import CompRDL, Database
from repro.db.engine import QueryEngine


def _migration_script(db: Database) -> None:
    """The shared migration + data script both backends replay."""
    db.create_table("users", username="string", staged="boolean",
                    score="float", bio="text", joined_at="datetime")
    db.create_table("emails", email="string", user_id="integer")
    db.create_table("drafts", body="string")
    db.insert("users", {"username": "a", "staged": False, "score": 1.5,
                        "bio": "first", "joined_at": "2020-01-02"})
    db.insert("users", {"username": "b", "staged": True, "score": 2.0})
    db.insert("users", {"id": 9, "username": "c", "staged": False})
    db.insert("users", {"username": "d"})  # id continues past 9
    db.insert("emails", {"email": "a@x.com", "user_id": 1})
    db.insert("emails", {"email": "b@x.com", "user_id": 2})
    db.add_column("users", "age", "integer")
    db.insert("users", {"username": "e", "age": 30})
    db.rename_column("users", "username", "login")
    db.drop_column("users", "bio")
    db.rename_table("drafts", "sketches")
    db.insert("sketches", {"body": "wip"})
    db.update_rows("users", lambda r: r.get("staged") is True,
                   {"staged": False, "age": 99})
    db.delete_rows("users", lambda r: r.get("login") == "c")
    db.drop_table("sketches")
    db.declare_association("users", "emails")


def _build(backend: str) -> Database:
    db = Database(backend=backend)
    _migration_script(db)
    return db


def _schema_key(db: Database):
    return [
        (name, [(c.name, c.kind) for c in schema.columns.values()])
        for name, schema in db.tables.items()
    ]


def _hash_key(db: Database):
    return repr(db.schema_hash())


def _journal_key(db: Database):
    return [(e.kind, e.generation, e.table, e.column, e.detail)
            for e in db.journal.events_since(0)]


@pytest.fixture(scope="module")
def pair():
    return _build("memory"), _build("sqlite")


class TestStorageParity:
    def test_schemas_identical(self, pair):
        memory, sqlite = pair
        assert _schema_key(memory) == _schema_key(sqlite)

    def test_schema_hash_identical(self, pair):
        memory, sqlite = pair
        assert _hash_key(memory) == _hash_key(sqlite)

    def test_rows_identical(self, pair):
        memory, sqlite = pair
        for table in memory.tables:
            assert memory.all_rows(table) == sqlite.all_rows(table), table

    def test_journal_streams_identical(self, pair):
        memory, sqlite = pair
        assert _journal_key(memory) == _journal_key(sqlite)
        assert memory.version == sqlite.version

    def test_id_assignment_identical(self, pair):
        memory, sqlite = pair
        next_memory = memory.insert("users", {"login": "z"})["id"]
        next_sqlite = sqlite.insert("users", {"login": "z"})["id"]
        assert next_memory == next_sqlite

    def test_joined_queries_identical(self, pair):
        memory, sqlite = pair
        rows_memory = QueryEngine(memory).rows_for("users", ["emails"])
        rows_sqlite = QueryEngine(sqlite).rows_for("users", ["emails"])
        assert rows_memory == rows_sqlite
        assert rows_memory  # the join actually matched something

    def test_boolean_roundtrip(self, pair):
        _memory, sqlite = pair
        staged = [row.get("staged") for row in sqlite.all_rows("users")]
        assert all(isinstance(s, bool) for s in staged if s is not None)

    def test_clear_unknown_table_is_a_noop_on_both(self):
        for backend in ("memory", "sqlite"):
            db = Database(backend=backend)
            db.create_table("users", username="string")
            db.insert("users", {"username": "a"})
            db.clear("ghosts")  # must not raise on either engine
            assert len(db.all_rows("users")) == 1, backend
            db.clear("users")
            db.clear()
            assert db.all_rows("users") == [], backend


APP_SOURCE = """
class User < ActiveRecord::Base
  has_many :emails
  type "(String) -> %bool", typecheck: :parity
  def self.taken?(name)
    User.exists?({ username: name })
  end

  type "() -> Array<String>", typecheck: :parity
  def self.names()
    User.pluck(:username)
  end
end

class Email < ActiveRecord::Base
end
"""


def _app_universe(backend: str) -> CompRDL:
    db = Database(backend=backend)
    db.create_table("users", username="string", staged="boolean")
    db.create_table("emails", email="string", user_id="integer")
    db.declare_association("users", "emails")
    rdl = CompRDL(db=db)
    rdl.load(APP_SOURCE)
    return rdl


def _report_key(report):
    return (list(report.checked_methods), [str(e) for e in report.errors],
            report.casts_used, report.oracle_casts)


class TestCheckingParity:
    def test_cold_check_and_recheck_dirty_match(self):
        memory = _app_universe("memory")
        sqlite = _app_universe("sqlite")
        assert _report_key(memory.check_all("parity")) == \
            _report_key(sqlite.check_all("parity"))
        for rdl in (memory, sqlite):
            rdl.db.rename_column("users", "username", "login")
        assert _report_key(memory.recheck_dirty()) == \
            _report_key(sqlite.recheck_dirty())
        # the rename breaks `exists?({username: ...})`: both backends must
        # agree there are now real errors, not just agree on emptiness
        assert not memory.recheck_dirty().ok()

    def test_dirty_tracking_parity(self):
        memory = _app_universe("memory")
        sqlite = _app_universe("sqlite")
        memory.check_all("parity")
        sqlite.check_all("parity")
        for rdl in (memory, sqlite):
            rdl.db.add_column("users", "age", "integer")
        assert memory.incremental.dirty == sqlite.incremental.dirty
        assert memory.incremental_stats.methods_dirtied == \
            sqlite.incremental_stats.methods_dirtied


# ---------------------------------------------------------------------------
# acceptance bar: combined subject apps, both backends, serial and fleet
# ---------------------------------------------------------------------------

def _combined_report(backend: str, workers: int = 1):
    """check_all over every subject app's label on one shared universe
    is not meaningful (each app owns its db); instead run each app's
    universe and concatenate, mirroring evaluation/table1."""
    from repro.apps import all_apps

    methods, errors = [], []
    for app in all_apps():
        rdl = app.build(backend=backend)
        report = rdl.check_all(app.label, workers=workers)
        methods.extend(report.checked_methods)
        errors.extend(str(e) for e in report.errors)
    return methods, errors


@pytest.mark.slow
def test_combined_apps_identical_verdicts_across_backends():
    assert _combined_report("memory") == _combined_report("sqlite")


@pytest.mark.slow
def test_combined_apps_identical_verdicts_with_worker_fleet():
    from repro.apps import all_apps

    checked = 0
    for app in all_apps():
        memory, sqlite = (
            app.build(backend=backend).check_all(app.label, workers=4)
            for backend in ("memory", "sqlite"))
        assert _report_key(memory) == _report_key(sqlite), app.name
        checked += len(memory.checked_methods)
    assert checked > 0


@pytest.mark.slow
def test_post_migration_recheck_parity_per_app():
    from repro.apps import all_apps

    for app in all_apps():
        memory = app.build(backend="memory")
        sqlite = app.build(backend="sqlite")
        assert _report_key(memory.check_all(app.label)) == \
            _report_key(sqlite.check_all(app.label)), app.name
        table = next(iter(memory.db.tables), None)
        if table is None:
            continue
        for rdl in (memory, sqlite):
            rdl.db.add_column(table, "parity_migration_col", "string")
        assert _report_key(memory.recheck_dirty()) == \
            _report_key(sqlite.recheck_dirty()), app.name
