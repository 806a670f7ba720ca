"""The analysis consumers: scheduler re-dirtying, planner costs, warm
session delta skipping."""

import pytest

from repro import CompRDL, Database
from repro.analysis.footprint import StaticFootprint
from repro.apps import app_for_label
from repro.parallel.planner import BASE_METHOD_COST, method_cost
from repro.parallel.protocol import MethodSpec
from repro.typecheck.registry import MethodKey


@pytest.fixture
def rdl():
    app = app_for_label("discourse")
    rdl = app.build()
    rdl.check_all(app.label)
    return rdl


def erase_deps(rdl, key):
    """Simulate a verdict adopted without dynamic deps (a worker that
    could not capture them)."""
    rdl.incremental.tracker.forget(key)
    assert rdl.incremental.tracker.deps_of(key) is None


class TestSchedulerStaticDirty:
    def test_static_footprint_decides_for_depless_verdicts(self, rdl):
        scheduler = rdl.incremental
        key = MethodKey("User", "staff_count", True)
        assert key in scheduler.results
        erase_deps(rdl, key)
        rdl.analyze()
        footprint = scheduler.static_footprints[key]
        assert not footprint.wildcard

        # a migration of an unrelated table must NOT dirty it...
        rdl.db.create_table("unrelated_things", note="string")
        assert key not in scheduler.dirty
        # ...but touching a table its static footprint names must
        rdl.db.add_column("users", "probe", "string")
        assert key in scheduler.dirty
        assert rdl.incremental_stats.extra.get("analysis.static_dirtied",
                                               0) >= 1

    def test_depless_verdict_without_footprint_dirtied_conservatively(
            self, rdl):
        scheduler = rdl.incremental
        key = MethodKey("User", "staff_count", True)
        erase_deps(rdl, key)
        assert not scheduler.static_footprints
        rdl.db.create_table("unrelated_things", note="string")
        # with neither dynamic deps nor a static footprint the only sound
        # answer is "affected"
        assert key in scheduler.dirty
        assert rdl.incremental_stats.extra.get(
            "analysis.conservative_dirtied", 0) >= 1

    def test_rename_table_dirties_by_static_footprint(self, rdl):
        """A rename_table journal event carries the new name as its
        detail: methods whose *static* footprint names either table name
        must be dirtied (satellite of the soundness contract)."""
        scheduler = rdl.incremental
        old_name_key = MethodKey("User", "staff_count", True)
        new_name_key = MethodKey("Topic", "hot?", False)
        for key in (old_name_key, new_name_key):
            assert key in scheduler.results
            erase_deps(rdl, key)
        rdl.analyze()
        # pin one footprint to the *new* name to prove the detail side
        scheduler.adopt_static_footprints({
            new_name_key: StaticFootprint(tables=frozenset({"members"})),
        })
        assert "users" in scheduler.static_footprints[old_name_key].tables

        rdl.db.rename_table("users", "members")
        assert old_name_key in scheduler.dirty, \
            "footprint naming the old table must dirty on rename"
        assert new_name_key in scheduler.dirty, \
            "footprint naming the new table must dirty on rename"

    def test_verdicts_with_dynamic_deps_unaffected_by_seeding(self, rdl):
        from repro.incremental.versioning import WILDCARD

        scheduler = rdl.incremental
        rdl.analyze()
        rdl.db.create_table("unrelated_things", note="string")
        # dynamic deps exist for everything, so the static fallback never
        # fires; only methods whose *dynamic* footprint is wildcard react
        # to an unrelated migration (pre-existing behavior)
        for key in scheduler.dirty:
            deps = scheduler.tracker.deps_of(key)
            assert deps is not None and WILDCARD in deps.tables
        assert "analysis.conservative_dirtied" not in \
            rdl.incremental_stats.extra
        assert "analysis.static_dirtied" not in \
            rdl.incremental_stats.extra


class TestPlannerStaticCost:
    def test_static_cost_used_when_no_observation(self, rdl):
        report = rdl.analyze()
        static_costs = report.static_costs()
        spec = MethodSpec("discourse", "User", "staff_count", True)
        assert spec.desc in static_costs

        cost = method_cost(spec, rdl.registry, stats=None,
                           static_costs=static_costs)
        assert cost == pytest.approx(
            BASE_METHOD_COST * static_costs[spec.desc])

    def test_observed_cost_still_wins(self, rdl):
        report = rdl.analyze()
        spec = MethodSpec("discourse", "User", "staff_count", True)
        stats = rdl.incremental_stats
        stats.method_costs[spec.desc] = 0.123
        cost = method_cost(spec, rdl.registry, stats=stats,
                           static_costs=report.static_costs())
        assert cost == pytest.approx(0.123)

    def test_bigger_footprints_cost_more(self, rdl):
        report = rdl.analyze()
        costs = report.static_costs()
        light = MethodSpec("discourse", "User", "staff?", False)
        heavy = MethodSpec("discourse", "Topic", "excerpt", False)
        assert costs[heavy.desc] > costs[light.desc]


class TestWarmDeltaSkip:
    def test_delta_irrelevant_requires_footprints_and_disjointness(self):
        """Unit-level: _delta_irrelevant over fabricated worker handles."""
        from repro.parallel.engine import ParallelCheckEngine

        class Handle:
            def __init__(self, gen, loads):
                self.synced_generation = gen
                self.loads_applied = loads
                self.attached = True

        app = app_for_label("discourse")
        rdl = app.build()
        rdl.check_all(app.label)
        rdl.analyze()
        scheduler = rdl.incremental
        key = MethodKey("User", "staff_count", True)
        assert not scheduler.static_footprints[key].wildcard

        engine = ParallelCheckEngine(workers=2)
        base_gen = rdl.db.version
        handles = [Handle(base_gen, len(rdl.post_build_loads))]
        engine._attached_workers = lambda: handles

        # no delta yet: nothing to skip
        assert not engine._delta_irrelevant(rdl, [key])
        # a delta touching only an unrelated table: skippable
        rdl.db.create_table("unrelated_things", note="string")
        assert engine._delta_irrelevant(rdl, [key])
        # a delta touching the method's own table: must sync
        rdl.db.add_column("users", "probe", "string")
        assert not engine._delta_irrelevant(rdl, [key])
        # wildcard-footprint methods always sync
        rdl.db.journal  # (journal unchanged)
        handles[0].synced_generation = rdl.db.version
        rdl.db.create_table("more_unrelated", note="string")
        wild = next(k for k, fp in scheduler.static_footprints.items()
                    if fp.wildcard)
        assert not engine._delta_irrelevant(rdl, [wild])
        # unshipped load records always sync
        handles[0].loads_applied = -1
        assert not engine._delta_irrelevant(rdl, [key])

    def test_warm_round_skips_sync_for_disjoint_delta(self):
        """Integration: a warm recheck whose pending methods' static
        footprints are disjoint from the journal delta ships CheckRequests
        without a sync — and the verdicts stay correct.

        Uses journey: none of its methods record a *dynamic* wildcard, so
        an unrelated migration leaves the dirty set empty and the only
        pending method is the one this test un-caches.
        """
        app = app_for_label("journey")
        rdl = app.build()
        rdl.check_all(app.label)
        rdl.analyze()
        scheduler = rdl.incremental
        try:
            # round 1 needs pending work, or it returns before attaching
            del scheduler.results[MethodKey("Survey", "display_title",
                                            False)]
            rdl.recheck_dirty(workers=2)  # cold attach + sync
            run = rdl.warm_engine.last_warm_run
            if not run.remote:
                pytest.skip(f"warm session unavailable: "
                            f"{run.fallback_reason}")

            # make one statically-bounded method pending again, then
            # migrate a table its footprint does not name
            key = MethodKey("Question", "label", False)
            assert not scheduler.static_footprints[key].wildcard
            del scheduler.results[key]
            rdl.db.create_table("warm_unrelated", note="string")

            report = rdl.recheck_dirty(workers=2)
            extra = rdl.incremental_stats.extra
            assert extra.get("analysis.syncs_skipped", 0) == 1
            assert len(report.errors) == app.expected_errors
        finally:
            rdl.shutdown_warm()
