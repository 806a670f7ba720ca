"""Tests for the incremental checking engine (cache, deps, scheduler)."""

import pytest

from repro import CompRDL, Database
from repro.apps import all_apps
from repro.incremental import (
    WILDCARD,
    CompEvalCache,
    DependencyTracker,
    IncrementalStats,
    SchemaJournal,
    affects,
    binding_key,
)
from repro.rtypes import NominalType

APPS = {app.name: app for app in all_apps()}

APP_SOURCE = """
class User < ActiveRecord::Base
end
class Post < ActiveRecord::Base
end

class UserQueries
  type :"self.find_name", "(String) -> User or nil", typecheck: :inc
  def self.find_name(name)
    User.find_by(username: name)
  end

  type :"self.usernames", "() -> Array<String>", typecheck: :inc
  def self.usernames()
    User.pluck(:username)
  end

  type :"self.count_users", "() -> Integer", typecheck: :inc
  def self.count_users()
    User.count
  end
end

class PostQueries
  type :"self.titles", "() -> Array<String>", typecheck: :inc
  def self.titles()
    Post.pluck(:title)
  end
end
"""


def build_universe():
    db = Database()
    db.create_table("users", username="string", staged="boolean")
    db.create_table("posts", title="string", body="text")
    rdl = CompRDL(db=db)
    rdl.load(APP_SOURCE)
    return rdl


# ---------------------------------------------------------------------------
# cache unit behaviour
# ---------------------------------------------------------------------------

def test_cache_hit_miss_accounting():
    stats = IncrementalStats()
    cache = CompEvalCache(stats=stats)
    journal = SchemaJournal()
    bkey = binding_key({"tself": NominalType("User")})

    assert cache.lookup("code", bkey, 1, journal) is None
    assert stats.comp_misses == 1
    cache.store("code", bkey, 1, {"users"}, NominalType("String"))
    entry = cache.lookup("code", bkey, 1, journal)
    assert entry is not None and entry.value == NominalType("String")
    assert stats.comp_hits == 1
    assert stats.comp_hit_rate == pytest.approx(0.5)


def test_cache_revalidates_untouched_entries_across_generations():
    from repro.incremental.versioning import SchemaEvent

    stats = IncrementalStats()
    cache = CompEvalCache(stats=stats)
    journal = SchemaJournal()
    bkey = binding_key({})
    cache.store("code", bkey, 1, {"users"}, NominalType("String"))
    # generation 2 touched an unrelated table
    journal.record(SchemaEvent("add_column", 2, "posts", "title"))
    entry = cache.lookup("code", bkey, 2, journal)
    assert entry is not None
    assert entry.generation == 2
    assert stats.comp_revalidations == 1
    # generation 3 touched this entry's table -> invalidated
    journal.record(SchemaEvent("add_column", 3, "users", "extra"))
    assert cache.lookup("code", bkey, 3, journal) is None
    assert stats.comp_invalidations == 1


def test_cache_lru_eviction():
    stats = IncrementalStats()
    cache = CompEvalCache(maxsize=2, stats=stats)
    for index in range(3):
        cache.store(f"code{index}", (), 1, set(), NominalType("String"))
    assert len(cache) == 2
    assert stats.comp_evictions == 1
    assert cache.lookup("code0", (), 1, None) is None  # the LRU victim


def test_affects_wildcard_semantics():
    assert affects(frozenset({WILDCARD}), {"anything"})
    assert affects(frozenset({"users"}), {WILDCARD})
    assert not affects(frozenset({"users"}), set())
    assert not affects(frozenset({"users"}), {"posts"})


# ---------------------------------------------------------------------------
# dependency tracking
# ---------------------------------------------------------------------------

def test_dependency_tracker_scopes_propagate():
    tracker = DependencyTracker()
    with tracker.tracking("m1"):
        tracker.note_table("users")
        with tracker.capture() as inner:
            tracker.note_table("posts", "title")
        assert inner.tables == {"posts"}
    deps = tracker.deps_of("m1")
    assert deps.tables == {"users", "posts"}
    assert ("posts", "title") in deps.columns
    assert tracker.dependents_of_table("posts") == {"m1"}


def test_checker_records_table_deps_per_method():
    rdl = build_universe()
    rdl.check_all("inc")
    tracker = rdl.checker.engine.deps
    from repro.typecheck.registry import MethodKey

    finder = tracker.deps_of(MethodKey("UserQueries", "find_name", True))
    poster = tracker.deps_of(MethodKey("PostQueries", "titles", True))
    counter = tracker.deps_of(MethodKey("UserQueries", "count_users", True))
    assert finder is not None and "users" in finder.tables
    assert poster is not None and "posts" in poster.tables
    assert "posts" not in finder.tables
    assert finder.comps  # comp expressions used are recorded too
    # a conventionally-typed query never reads the schema -> no deps
    assert counter is not None and not counter.tables


# ---------------------------------------------------------------------------
# scheduler: dirty marking + incremental re-check
# ---------------------------------------------------------------------------

def test_add_column_dirties_only_dependent_methods():
    rdl = build_universe()
    report = rdl.check_all("inc")
    assert report.ok(), report.summary()
    assert len(report.checked_methods) == 4
    assert not rdl.incremental.dirty

    rdl.db.add_column("posts", "likes", "integer")
    dirty_descs = {str(key) for key in rdl.incremental.dirty}
    assert dirty_descs == {"PostQueries.titles"}

    before = rdl.incremental_stats.methods_checked
    recheck = rdl.recheck_dirty()
    assert recheck.ok()
    assert len(recheck.checked_methods) == 4  # full coverage in the report
    assert rdl.incremental_stats.methods_checked == before + 1  # 1 re-run
    assert not rdl.incremental.dirty


def test_drop_column_invalidates_and_surfaces_new_errors():
    rdl = build_universe()
    assert rdl.check_all("inc").ok()

    rdl.db.drop_column("users", "username")
    assert {str(k) for k in rdl.incremental.dirty} == {
        "UserQueries.find_name", "UserQueries.usernames"}
    report = rdl.recheck_dirty()
    assert not report.ok()
    messages = [str(e) for e in report.errors]
    assert any("username" in m for m in messages), messages
    # restoring the column clears the error again
    rdl.db.add_column("users", "username", "string")
    assert rdl.recheck_dirty().ok()


def test_second_check_all_reuses_clean_verdicts():
    rdl = build_universe()
    rdl.check_all("inc")
    checked = rdl.incremental_stats.methods_checked
    rdl.check_all("inc")
    assert rdl.incremental_stats.methods_checked == checked
    assert rdl.incremental_stats.methods_skipped >= 4


def test_comp_errors_are_deterministic_with_generation_attribute():
    rdl = build_universe()
    rdl.db.drop_column("users", "username")
    report = rdl.check_all("inc")
    assert not report.ok()
    # the generation travels as a diagnostic *attribute*: verdict text must
    # be identical across serial/incremental/parallel runs, whose
    # computation histories (and hence generations at computation time)
    # differ — so it never belongs in the message
    assert any(getattr(e, "schema_generation", None) is not None
               for e in report.errors), report.summary()
    assert all("schema gen" not in str(e) for e in report.errors)
    # a cached error verdict surviving an unrelated migration still matches
    # a fresh universe that replayed both migrations, string for string
    rdl.db.add_column("posts", "unrelated_col", "string")
    recheck = rdl.recheck_dirty()
    fresh = build_universe()
    fresh.db.drop_column("users", "username")
    fresh.db.add_column("posts", "unrelated_col", "string")
    full = fresh.check_all("inc")
    assert sorted(str(e) for e in recheck.errors) == \
        sorted(str(e) for e in full.errors)


HELPER_APP = """
class Thing
  comp_helper :ret_kind
  type :"self.ret_kind", "() -> Type", terminates: :+
  def self.ret_kind()
    Nominal.new(String)
  end

  type :"self.make", "() -> «Thing.ret_kind()»", typecheck: :helper
  def self.make()
    "a string"
  end

  type :"self.use", "() -> String", typecheck: :helper
  def self.use()
    Thing.make()
  end
end
"""

HELPER_REDEF = """
class Thing
  type :"self.ret_kind", "() -> Type", terminates: :+
  def self.ret_kind()
    Nominal.new(Integer)
  end
end
"""


def test_redefining_a_type_level_helper_invalidates_comp_cache():
    # the comp cache is keyed on (code, bindings, schema generation), and a
    # helper redefinition changes none of those — any method (re)definition
    # must therefore flush it, or re-checks replay the stale result
    def build():
        rdl = build_universe()
        rdl.load(HELPER_APP)
        return rdl

    rdl = build()
    assert rdl.check_all("helper").ok()
    rdl.load(HELPER_REDEF)
    rdl.incremental.mark_all_dirty()
    report = rdl.recheck_dirty()

    fresh = build()
    fresh.load(HELPER_REDEF)
    full = fresh.check_all("helper")
    assert sorted(str(e) for e in report.errors) == \
        sorted(str(e) for e in full.errors)
    assert not full.ok()  # the redefined helper genuinely changed verdicts


PICK_APP = """
type :pick_type, "() -> Type", terminates: :+, pure: :+
def pick_type
  Nominal.new(Integer)
end
comp_helper :pick_type

class Thing
  type :"self.make", "() -> «pick_type()»"
  def self.make()
    1
  end

  type :"self.go", "() -> Integer", typecheck: :pick
  def self.go()
    Thing.make()
  end
end
"""

PICK_REDEF = """
def pick_type
  Nominal.new(String)
end
"""


def test_redefining_a_helper_dirties_every_verdict_that_evaluated_a_comp():
    # incremental ≡ full after a helper redefinition, with no escape hatch:
    # the redefined key has no verdict of its own, but Thing.go's verdict
    # evaluated a comp that calls it
    rdl = CompRDL()
    rdl.load(PICK_APP)
    assert rdl.check_all("pick").ok()
    rdl.load(PICK_REDEF)
    incremental = rdl.check_all("pick")

    fresh = CompRDL()
    fresh.load(PICK_APP)
    fresh.load(PICK_REDEF)
    full = fresh.check_all("pick")
    assert len(full.errors) == 1
    assert [str(e) for e in incremental.errors] == \
        [str(e) for e in full.errors] == \
        [str(e) for e in rdl.check("pick").errors]


NATIVE_APP = """
class Thing
  type :"self.make", "() -> «str_length_type(Nominal.new(String))»"
  def self.make()
    1
  end

  type :"self.go", "() -> Integer", typecheck: :native
  def self.go()
    Thing.make()
  end
end
"""

NATIVE_REDEF = """
def str_length_type(t)
  Nominal.new(String)
end
"""


def test_overriding_an_annotated_native_helper_dirties_comp_verdicts():
    # the native helper has annotations but no body in the registry: a def
    # that replaces it is still a redefinition, not a brand-new method
    rdl = CompRDL()
    rdl.load(NATIVE_APP)
    assert rdl.check_all("native").ok()
    rdl.load(NATIVE_REDEF)
    incremental = rdl.check_all("native")

    fresh = CompRDL()
    fresh.load(NATIVE_APP)
    fresh.load(NATIVE_REDEF)
    full = fresh.check_all("native")
    assert len(full.errors) == 1
    assert [str(e) for e in incremental.errors] == \
        [str(e) for e in full.errors] == \
        [str(e) for e in rdl.check("native").errors]


def test_a_brand_new_method_dirties_only_itself():
    rdl = build_universe()
    assert rdl.check_all("inc").ok()
    dirtied = rdl.incremental_stats.methods_dirtied
    rdl.load("""
class Extra
  type :"self.total", "() -> Integer", typecheck: :inc
  def self.total()
    User.count
  end
end
""")
    assert rdl.incremental.dirty == set()
    assert rdl.incremental_stats.methods_dirtied == dirtied
    report = rdl.recheck_dirty()
    assert report.ok() and "Extra.total" in report.checked_methods


def test_redefining_a_method_dirties_its_cached_verdict():
    rdl = build_universe()
    assert rdl.check_all("inc").ok()
    # a later load redefines count_users with an ill-typed body: no schema
    # change happened, but the cached verdict is stale
    rdl.load("""
class UserQueries
  type :"self.count_users", "() -> Integer", typecheck: :inc
  def self.count_users()
    "not an integer"
  end
end
""")
    assert "UserQueries.count_users" in {
        str(k) for k in rdl.incremental.dirty}
    report = rdl.recheck_dirty()
    assert not report.ok()
    assert any("count_users" in str(e) for e in report.errors)


def test_comp_results_are_not_aliased_between_call_sites():
    from repro.comp.engine import _fresh
    from repro.rtypes import ConstStringType, TupleType

    inner = ConstStringType("SELECT 1")
    original = TupleType([inner])
    copy = _fresh(original)
    assert copy == original and copy is not original
    # nested mutable elements must not be shared either: promote() mutates
    # the const string in place
    copy.elts[0].promote()
    assert not inner.is_promoted


def test_rename_table_migration_dirties_dependents():
    rdl = build_universe()
    assert rdl.check_all("inc").ok()
    rdl.db.rename_table("posts", "articles")
    # only methods whose footprint touches the old (or new) name re-check
    assert {str(k) for k in rdl.incremental.dirty} == {"PostQueries.titles"}
    report = rdl.recheck_dirty()
    assert not report.ok()  # Post's table is gone under its old name
    assert any("titles" in str(e) for e in report.errors)
    # exact verdict parity with a fresh universe that saw the same rename
    # (error text must be deterministic — no cache-state diagnostics)
    fresh = build_universe()
    fresh.db.rename_table("posts", "articles")
    full = fresh.check_all("inc")
    assert sorted(str(e) for e in report.errors) == \
        sorted(str(e) for e in full.errors)
    # renaming back heals the verdicts — and comp cache entries for the
    # renamed table were invalidated, not reused stale
    rdl.db.rename_table("articles", "posts")
    assert {str(k) for k in rdl.incremental.dirty} == {"PostQueries.titles"}
    assert rdl.recheck_dirty().ok()


def test_rename_column_migration_dirties_dependents():
    rdl = build_universe()
    assert rdl.check_all("inc").ok()
    rdl.db.rename_column("users", "username", "handle")
    assert {str(k) for k in rdl.incremental.dirty} == {
        "UserQueries.find_name", "UserQueries.usernames"}
    report = rdl.recheck_dirty()
    assert not report.ok()  # find_by(username:) no longer type checks


# ---------------------------------------------------------------------------
# parity with full checking on the subject apps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(APPS))
def test_recheck_dirty_matches_full_check_verdicts(name):
    app = APPS[name]
    rdl = app.build()
    rdl.check_all(app.label)
    tables = list(rdl.db.tables)
    if not tables:
        pytest.skip("app has no database schema to migrate")
    table = tables[0]
    rdl.db.add_column(table, "migration_col", "string")
    incremental = rdl.recheck_dirty()

    fresh = app.build()
    fresh.db.add_column(table, "migration_col", "string")
    full = fresh.check(app.label)

    assert sorted(str(e) for e in incremental.errors) == \
        sorted(str(e) for e in full.errors)
    assert sorted(incremental.checked_methods) == \
        sorted(full.checked_methods)


@pytest.mark.parametrize("name", list(APPS))
def test_check_all_matches_check(name):
    app = APPS[name]
    incremental = app.build().check_all(app.label)
    full = app.build().check(app.label)
    assert sorted(str(e) for e in incremental.errors) == \
        sorted(str(e) for e in full.errors)
    assert sorted(incremental.checked_methods) == sorted(full.checked_methods)
