"""Integration tests: fleet checking, verdict-parity merge, incremental
back-feed.  The merge tests drive the worker checking loop in-process (it
is a plain function over freshly built universes); the rest exercise real
forked workers end to end.
"""

import multiprocessing

import pytest

from repro.apps import all_apps, app_for_label
from repro.parallel import (
    MethodSpec,
    ParallelCheckEngine,
    ShardGapError,
    ShardResult,
    merge_report,
    specs_for_labels,
)
from repro.parallel.worker import check_specs_into

APPS = {app.label: app for app in all_apps()}


def _serial_key(report):
    return (list(report.checked_methods), [str(e) for e in report.errors],
            report.casts_used, report.oracle_casts)


def test_app_for_label_resolves_and_rejects():
    assert app_for_label("huginn").label == "huginn"
    assert app_for_label(":huginn").label == "huginn"
    with pytest.raises(KeyError):
        app_for_label("nonesuch")


# ---------------------------------------------------------------------------
# worker checking loop + merge, in-process
# ---------------------------------------------------------------------------

def _attached_pids(engine):
    """The pids of the live workers holding ``engine``'s session."""
    return [handle.pid for handle in engine._session_pool.live()
            if engine._synced.get(handle) is not None]


def _check_fresh(shard_id, specs) -> ShardResult:
    """Check ``specs`` the way a cold worker does: against freshly built,
    pristine universes of their labels."""
    universes: dict = {}

    def resolve(label):
        if label not in universes:
            universes[label] = APPS[label].build()
        return universes[label]

    result = ShardResult(shard_id=shard_id)
    check_specs_into(result, resolve, specs)
    return result


def test_check_specs_matches_serial_verdicts():
    app = APPS["journey"]
    rdl = app.build()
    serial = rdl.check(app.label)
    specs = specs_for_labels([app.label], rdl.registry)
    result = _check_fresh(0, specs)
    report = merge_report(specs, [result])
    assert _serial_key(report) == _serial_key(serial)
    # dependency footprints travel with the verdicts
    assert any(v.deps is not None and v.deps.tables for v in result.verdicts)


def test_merge_is_arrival_order_independent():
    app = APPS["huginn"]
    rdl = app.build()
    specs = specs_for_labels([app.label], rdl.registry)
    half = len(specs) // 2
    first = _check_fresh(0, specs[:half])
    second = _check_fresh(1, specs[half:])
    forward = merge_report(specs, [first, second])
    backward = merge_report(specs, [second, first])
    assert _serial_key(forward) == _serial_key(backward)
    assert forward.checked_methods == [spec.desc for spec in specs]


def test_merge_refuses_missing_verdicts():
    app = APPS["huginn"]
    rdl = app.build()
    specs = specs_for_labels([app.label], rdl.registry)
    partial = _check_fresh(0, specs[:2])
    with pytest.raises(ShardGapError):
        merge_report(specs, [partial])


# ---------------------------------------------------------------------------
# real forked workers end to end
# ---------------------------------------------------------------------------

def test_check_all_with_workers_matches_serial_and_feeds_incremental():
    app = APPS["huginn"]
    rdl = app.build()
    report = rdl.check_all(app.label, workers=2)

    serial = app.build().check(app.label)
    assert _serial_key(report) == _serial_key(serial)

    # the parallel cold check must leave the incremental engine fully
    # populated: a migration dirties only dependents, and recheck_dirty
    # stays verdict-for-verdict equal to a fresh full check
    stats = rdl.incremental_stats
    assert stats.methods_checked_parallel == len(serial.checked_methods)
    assert stats.parallel_shards >= 1
    assert not rdl.incremental.dirty

    table = next(iter(rdl.db.tables))
    rdl.db.add_column(table, "parallel_migration_col", "string")
    incremental = rdl.recheck_dirty()

    fresh = app.build()
    fresh.db.add_column(table, "parallel_migration_col", "string")
    full = fresh.check(app.label)
    assert sorted(str(e) for e in incremental.errors) == \
        sorted(str(e) for e in full.errors)
    assert sorted(incremental.checked_methods) == \
        sorted(full.checked_methods)


def test_check_all_workers_rejects_unknown_labels():
    from repro import CompRDL

    rdl = CompRDL()
    rdl.load("""
class C
  type :m, "() -> nil", typecheck: :unknown_fleet_label
  def m()
    nil
  end
end
""")
    with pytest.raises(KeyError):
        rdl.check_all("unknown_fleet_label", workers=2)
    # the serial path still accepts arbitrary labels
    assert rdl.check_all("unknown_fleet_label").ok()


def test_methods_loaded_after_build_replay_on_session_workers():
    # a worker builds the *pristine* app, which does not contain this
    # class: the post-build load travels to the replicas as a load record,
    # so check_all(workers=N) runs remote and still produces the same
    # verdicts as the serial path, including the new method
    app = APPS["huginn"]
    rdl = app.build()
    rdl.load("""
class ParallelProbe
  type :"self.answer", "() -> Integer", typecheck: :huginn
  def self.answer()
    42
  end
end
""")
    serial = app.build()
    serial.load("""
class ParallelProbe
  type :"self.answer", "() -> Integer", typecheck: :huginn
  def self.answer()
    42
  end
end
""")
    serial_report = serial.check(app.label)
    report = rdl.check_all(app.label, workers=2)
    assert _serial_key(report) == _serial_key(serial_report)
    assert "ParallelProbe.answer" in report.checked_methods
    stats = rdl.incremental_stats
    assert "warm.fallbacks" not in stats.extra
    assert stats.methods_checked_parallel == len(report.checked_methods)


def test_check_all_with_workers_keeps_the_fleet_until_it_is_closed(
        monkeypatch):
    # a universe without a warm engine runs the round on the process's
    # pool of that width, detaches, and leaves the workers up for the next
    # call; closing an engine of that width ends them
    ParallelCheckEngine(workers=2).close()
    before = set(multiprocessing.active_children())
    runs = []
    check = ParallelCheckEngine.check

    def recording(engine, rdl, labels):
        report = check(engine, rdl, labels)
        runs.append(engine.last_warm_run)
        return report

    monkeypatch.setattr(ParallelCheckEngine, "check", recording)
    for _ in range(2):
        rdl = APPS["huginn"].build()
        rdl.check_all("huginn", workers=2)
        assert rdl.warm_engine is None
    first, second = ({result.pid for result in run.results} for run in runs)
    assert all(run.remote for run in runs) and first and first == second
    ParallelCheckEngine(workers=2).close()
    assert set(multiprocessing.active_children()) == before


def test_check_all_after_pristine_redefinition_falls_back_to_serial():
    app = APPS["huginn"]
    rdl, serial = app.build(), app.build()
    key = rdl.incremental.keys_for([app.label])[0]
    redefinition = (f"class {key.class_name}\n"
                    f"  def {key.method_name}()\n    nil\n  end\nend\n")
    rdl.load(redefinition)
    serial.load(redefinition)
    report = rdl.check_all(app.label, workers=2)
    assert _serial_key(report) == _serial_key(serial.check_all(app.label))
    extra = rdl.incremental_stats.extra
    assert extra["warm.fallbacks"] == 1
    assert "(re)definition" in extra["warm.fallback_reason"]
    assert rdl.incremental_stats.methods_checked_parallel == 0


def test_check_all_rides_the_universe_engine_without_rebuilds():
    # an adopted engine of the requested width serves check_all(workers=N)
    # and the later warm rechecks under one session: no round rebuilds
    app = APPS["discourse"]
    with ParallelCheckEngine(workers=2) as engine:
        rdl = app.build()
        rdl.adopt_warm_engine(engine)
        report = rdl.check_all(app.label, workers=2)
        assert _serial_key(report) == _serial_key(app.build().check(app.label))
        first = engine.last_warm_run
        assert first.remote and first.methods == len(report.checked_methods)
        pids = _attached_pids(engine)

        rdl.db.add_column("users", "engine_probe", "string")
        rdl.recheck_dirty(workers=2)
        run = engine.last_warm_run
        assert run.remote and run.session_id == first.session_id
        assert _attached_pids(engine) == pids
        rdl.shutdown_warm()


def test_cold_round_on_a_pristine_universe_attaches_with_its_requests(
        monkeypatch):
    # no AttachUniverse crosses the pipe: each CheckRequest to a fresh
    # worker carries the attach, its result reports the replica generation,
    # and the worker counts as attached afterwards
    from repro.parallel.sessions import SessionWorkerHandle

    sent = []
    send = SessionWorkerHandle.send
    monkeypatch.setattr(SessionWorkerHandle, "send",
                        lambda handle, message: (sent.append(message),
                                                 send(handle, message))[1])
    app = APPS["discourse"]
    with ParallelCheckEngine(workers=2) as engine:
        engine.prime([app.label])
        sent.clear()
        rdl = app.build()
        rdl.adopt_warm_engine(engine)
        report = rdl.check_all(app.label, workers=2)
        run = engine.last_warm_run
        assert _serial_key(report) == _serial_key(app.build().check(app.label))
        assert run.remote and len(run.results) == 2
        assert all(result.generations == {app.label: rdl.pristine_generation}
                   for result in run.results)
        assert [type(message).__name__ for message in sent] == \
            ["CheckRequest", "CheckRequest"]
        assert all(message.attach is not None for message in sent)
        assert len(_attached_pids(engine)) == 2
        rdl.shutdown_warm()


def test_duplicate_label_annotations_register_one_method_entry():
    # two annotations under the same label must not double-check the method:
    # serial check_label and the fleet both walk methods_for_label, and
    # verdict parity needs them to agree on the count
    from repro import CompRDL
    from repro.typecheck.registry import MethodKey

    rdl = CompRDL(install_libraries=False)
    rdl.registry.annotate("C", "m", "(Integer) -> Integer", label="dup")
    rdl.registry.annotate("C", "m", "(String) -> String", label="dup")
    assert rdl.registry.methods_for_label("dup") == [MethodKey("C", "m", False)]


def test_post_build_migration_verdicts_match_the_live_universe():
    # workers build the *pristine* app, but the parent mutated its schema
    # after build: the attach is followed by the journal delta, so the
    # replicas check against the live universe's schema
    app = APPS["discourse"]
    rdl = app.build()
    rdl.db.drop_column("users", "username")
    report = rdl.check_all(app.label, workers=2)

    serial = app.build()
    serial.db.drop_column("users", "username")
    serial_report = serial.check_all(app.label)
    assert _serial_key(report) == _serial_key(serial_report)
    assert not report.ok()  # the dropped column is a real comp-type error
    assert not rdl.incremental.dirty  # everything was resolved


def test_check_all_scopes_report_to_requested_labels():
    # a second check_all for a different label must not sweep the first
    # label's cached verdicts into its report
    from repro import CompRDL, Database

    db = Database()
    db.create_table("users", username="string")
    rdl = CompRDL(db=db)
    rdl.load("""
class A
  type :"self.one", "() -> Integer", typecheck: :la
  def self.one()
    1
  end
end
class B
  type :"self.two", "() -> Integer", typecheck: :lb
  def self.two()
    2
  end
end
""")
    assert rdl.check_all("la").checked_methods == ["A.one"]
    assert rdl.check_all("lb").checked_methods == ["B.two"]
    # recheck_dirty still covers every label checked so far
    assert sorted(rdl.recheck_dirty().checked_methods) == ["A.one", "B.two"]
