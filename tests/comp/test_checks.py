"""Seeded check specs: a checked call re-evaluates its comp types only when
the state they were checked against has moved (§4 "Heap Mutation").

A :class:`~repro.comp.checks.CheckSpec` is seeded with the schema
generation and the universe's method epoch its expected comp results were
computed at, and owns private copies of its types.  These tests pin both
halves: no comp evaluation on a freshly checked universe, Blame after any
schema change or helper redefinition the comp results depend on, and no
spurious Blame from weak updates to the checker's own type objects.
"""

from __future__ import annotations

import pytest

from repro import CompRDL, Database
from repro.apps import all_apps
from repro.runtime.errors import Blame
from repro.runtime.objects import ruby_inspect
from tests.incremental.test_incremental import (HELPER_APP, HELPER_REDEF,
                                                build_universe)

APPS = all_apps()


def _comp_evals(rdl) -> int:
    stats = rdl.incremental_stats
    return stats.comp_hits + stats.comp_misses


@pytest.mark.parametrize("app", APPS, ids=lambda app: app.label)
def test_checked_suite_on_fresh_universe_evaluates_no_comp(app):
    rdl = app.build()
    rdl.check(app.label)
    before = _comp_evals(rdl)
    rdl.run(app.test_suite, checks=True)
    assert _comp_evals(rdl) == before


@pytest.mark.parametrize("first_call", [False, True],
                         ids=["redef-before-call", "redef-after-call"])
def test_helper_redefinition_blames_whenever_it_happens(first_call):
    rdl = build_universe()
    rdl.load(HELPER_APP)
    assert rdl.check(":helper").ok()
    if first_call:
        assert ruby_inspect(rdl.run("Thing.use()", checks=True)) == \
            "'a string'"
    rdl.load(HELPER_REDEF)
    with pytest.raises(Blame, match="comp type for Thing#make changed"):
        rdl.run("Thing.use()", checks=True)


def _widening_universe(body: str) -> CompRDL:
    db = Database()
    db.create_table("users", username="string")
    rdl = CompRDL(db=db)
    rdl.load(f"""
class Widen
  type :"self.go", "() -> Integer", typecheck: :widen
  def self.go()
{body}
  end
end
""")
    report = rdl.check(":widen")
    assert report.ok(), report.summary()
    return rdl


def test_weak_update_of_call_result_does_not_blame():
    # `r << "x"` widens r's tuple type in place; that object is the type
    # the checker computed for `[1, 2] + [3]`, which the spec must not share
    rdl = _widening_universe('    r = [1, 2] + [3]\n    r << "x"\n    r.length')
    assert rdl.run("Widen.go()", checks=True) == 4


@pytest.mark.xfail(strict=True, raises=Blame, reason=(
    "a spec's comp bindings alias the checker's env types: `a << \"x\"` "
    "widens the [1, 2] the spec of `a + [3]` holds, so after any migration "
    "the re-evaluated Array#+ differs from the expected [1, 2, 3]"))
def test_aliased_binding_does_not_blame_after_an_unrelated_migration():
    rdl = _widening_universe(
        '    a = [1, 2]\n    r = a + [3]\n    a << "x"\n    r.length')
    assert rdl.run("Widen.go()", checks=True) == 3
    rdl.db.add_column("users", "nick", "string")
    assert rdl.run("Widen.go()", checks=True) == 3


FINDER = """
class User < ActiveRecord::Base
end

class Finder
  type "(Symbol) -> Table<{ id: Integer, username: String, staged: %bool }, User>", typecheck: :finder
  def find_staged(flag)
    User.where(staged: true)
  end
end
"""

STAGED_BLAME = (
    "Blame: comp type for User#where changed between type checking "
    "({ id: ?Integer, username: ?String, staged: ?Boolean }) and call time "
    "({ id: ?Integer, username: ?String }) — mutable state the type depends "
    "on was modified (line 8:10)")


def test_unrelated_migration_revalidates_without_a_miss():
    db = Database()
    db.create_table("users", username="string", staged="boolean")
    db.create_table("audits", note="string")
    rdl = CompRDL(db=db)
    rdl.load(FINDER)
    assert rdl.check(":finder").ok()
    call = "Finder.new.find_staged(:staged)"
    rdl.run(call, checks=True)
    misses = rdl.incremental_stats.comp_misses
    db.add_column("audits", "author", "string")
    rdl.run(call, checks=True)
    assert rdl.incremental_stats.comp_misses == misses
    db.drop_column("users", "staged")
    with pytest.raises(Blame) as blamed:
        rdl.run(call, checks=True)
    assert str(blamed.value) == STAGED_BLAME


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("app", APPS, ids=lambda app: app.label)
def test_checked_suite_returns_the_unchecked_value(app, backend):
    values = []
    for checks in (False, True):
        rdl = app.build(backend=backend)
        rdl.check(app.label)
        try:
            values.append(ruby_inspect(rdl.run(app.test_suite, checks=checks)))
        except Blame:
            assert checks, "an unchecked run cannot Blame"
            pytest.skip(f"{app.label}: the checked suite Blames")
    assert values[0] == values[1]
