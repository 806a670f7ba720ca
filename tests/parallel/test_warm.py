"""Warm-universe worker sessions: delta replication + remote recheck_dirty.

The acceptance bar is journal-replay parity: a migrate → recheck sequence
at ``workers > 1`` must produce a report verdict-for-verdict identical to
the serial incremental path — on both storage backends (parametrized here;
the CI matrix additionally runs the whole file under each default backend).
A *serial twin* universe receives the same migrations and loads
and re-checks in-process; every warm report is compared against it.
"""

import os
import signal

import pytest

from repro.apps import app_for_label
from repro.parallel import ParallelCheckEngine

WORKERS = 4

PROBE_SOURCE = """
class WarmSessionProbe
  type :"self.answer", "() -> Integer", typecheck: :huginn
  def self.answer()
    42
  end
end
"""


def _key(report):
    return (list(report.checked_methods), [str(e) for e in report.errors],
            report.casts_used, report.oracle_casts)


def _twin_pair(label, backend=None):
    app = app_for_label(label)
    warm = app.build(backend=backend)
    warm.check_all(app.label)
    serial = app.build(backend=backend)
    serial.check_all(app.label)
    return warm, serial


# ---------------------------------------------------------------------------
# migrate → recheck parity (the tentpole's acceptance bar)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_migrate_recheck_parity_with_serial_incremental(backend):
    warm, serial = _twin_pair("discourse", backend=backend)
    try:
        # round 1: a destructive migration (real comp-type errors appear)
        warm.db.drop_column("users", "username")
        serial.db.drop_column("users", "username")
        warm_report = warm.recheck_dirty(workers=WORKERS)
        serial_report = serial.recheck_dirty()
        assert _key(warm_report) == _key(serial_report)
        assert not warm_report.ok()  # the dropped column is a real error
        run = warm.warm_engine.last_warm_run
        assert run.remote and run.methods > 0
        assert run.results  # verdicts actually came from session workers
        session = run.session_id
        pids = [h.pid for h in warm.warm_engine._attached_workers()]

        # round 2: the session stays attached — only the journal delta
        # crosses the process boundary, no rebuilds
        warm.db.add_column("users", "username", "string")
        serial.db.add_column("users", "username", "string")
        warm_report = warm.recheck_dirty(workers=WORKERS)
        serial_report = serial.recheck_dirty()
        assert _key(warm_report) == _key(serial_report)
        assert warm_report.ok()
        run = warm.warm_engine.last_warm_run
        assert run.remote
        # the same session on the same processes: no respawn, no re-attach
        assert run.session_id == session
        assert [h.pid for h in warm.warm_engine._attached_workers()] == pids
    finally:
        warm.shutdown_warm()


def test_recheck_with_no_dirty_methods_skips_the_fleet():
    warm, serial = _twin_pair("twitter")
    try:
        warm_report = warm.recheck_dirty(workers=WORKERS)
        assert _key(warm_report) == _key(serial.recheck_dirty())
        run = warm.warm_engine.last_warm_run
        assert not run.remote and run.methods == 0
    finally:
        warm.shutdown_warm()


def test_new_methods_travel_as_load_records():
    # a brand-new method defined post-build is replayable: the delta ships
    # the load source and the worker replicas converge
    warm, serial = _twin_pair("huginn")
    try:
        warm.load(PROBE_SOURCE)
        serial.load(PROBE_SOURCE)
        table = next(iter(warm.db.tables))
        warm.db.add_column(table, "warm_probe_col", "string")
        serial.db.add_column(table, "warm_probe_col", "string")
        warm_report = warm.recheck_dirty(workers=2)
        serial_report = serial.recheck_dirty()
        assert _key(warm_report) == _key(serial_report)
        assert "WarmSessionProbe.answer" in warm_report.checked_methods
        assert warm.warm_engine.last_warm_run.remote
    finally:
        warm.shutdown_warm()


def test_pristine_redefinition_falls_back_to_serial():
    # redefining a method that existed at mark_pristine is the unbounded
    # delta (a redefined type-level helper can change any verdict): the
    # engine must run the round in-process
    warm, serial = _twin_pair("huginn")
    try:
        key = warm.incremental.keys_for(["huginn"])[0]
        redefinition = (f"class {key.class_name}\n"
                        f"  def {key.method_name}()\n    nil\n  end\nend\n")
        warm.load(redefinition)
        serial.load(redefinition)
        warm_report = warm.recheck_dirty(workers=2)
        serial_report = serial.recheck_dirty()
        assert _key(warm_report) == _key(serial_report)
        run = warm.warm_engine.last_warm_run
        assert not run.remote
        assert "(re)definition" in run.fallback_reason
        assert warm.incremental_stats.extra["warm.fallbacks"] >= 1
    finally:
        warm.shutdown_warm()


def test_unknown_label_universe_falls_back_to_serial():
    from repro import CompRDL, Database

    db = Database()
    db.create_table("users", username="string")
    rdl = CompRDL(db=db)
    rdl.load("""
class WarmLocal
  type :"self.one", "() -> Integer", typecheck: :warm_local
  def self.one()
    1
  end
end
""")
    rdl.mark_pristine()
    assert rdl.check_all("warm_local").ok()
    db.add_column("users", "extra", "string")
    report = rdl.recheck_dirty(workers=2)
    assert report.ok() and report.checked_methods == ["WarmLocal.one"]
    run = rdl.warm_engine.last_warm_run
    assert not run.remote and "no subject app" in run.fallback_reason
    rdl.shutdown_warm()


def test_class_only_loads_are_replayed_too():
    # a post-build load that defines only a class fires no method event,
    # but later verdicts can depend on it — it must still travel in the
    # session delta or the replica checks against a universe missing it
    warm, serial = _twin_pair("huginn")
    try:
        helper = "class WarmHelperOnly\nend\n"
        user = """
class WarmHelperUser
  type :"self.make", "() -> WarmHelperOnly", typecheck: :huginn
  def self.make()
    WarmHelperOnly.new
  end
end
"""
        warm.load(helper)
        warm.load(user)
        serial.load(helper)
        serial.load(user)
        assert helper in warm.post_build_loads
        warm_report = warm.recheck_dirty(workers=2)
        serial_report = serial.recheck_dirty()
        assert _key(warm_report) == _key(serial_report)
        assert warm.warm_engine.last_warm_run.remote
        assert "WarmHelperUser.make" in warm_report.checked_methods
    finally:
        warm.shutdown_warm()


def test_loads_that_migrate_the_schema_block_warm_mode():
    # a load whose execution migrates the schema is unbounded: its journal
    # events AND its source would both replay, applying the migration twice
    from repro.runtime.corelib.helpers import native

    warm, serial = _twin_pair("huginn")
    try:
        table = next(iter(warm.db.tables))
        for rdl in (warm, serial):
            db = rdl.db
            native(rdl.interp.classes["Object"], "migrate_in_load",
                   lambda i, r, a, b, db=db: db.add_column(
                       table, "load_migrated_col", "string"))
            version = rdl.db.version
            rdl.load("migrate_in_load()")
            assert rdl.db.version != version
        assert "migrated the schema" in warm.replay_blocker
        warm_report = warm.recheck_dirty(workers=2)
        serial_report = serial.recheck_dirty()
        assert _key(warm_report) == _key(serial_report)
        run = warm.warm_engine.last_warm_run
        assert not run.remote
        assert "migrated the schema" in run.fallback_reason
    finally:
        warm.shutdown_warm()


def test_methods_defined_outside_load_block_warm_mode():
    # run() executes code without recording it: a method it defines is
    # missing from the replayable log, so worker replicas could never see it
    warm, serial = _twin_pair("huginn")
    try:
        for rdl in (warm, serial):
            rdl.run(PROBE_SOURCE)
        assert "outside load()" in warm.replay_blocker
        warm_report = warm.recheck_dirty(workers=2)
        serial_report = serial.recheck_dirty()
        assert _key(warm_report) == _key(serial_report)
        assert "WarmSessionProbe.answer" in warm_report.checked_methods
        run = warm.warm_engine.last_warm_run
        assert not run.remote
        assert "outside load()" in run.fallback_reason
    finally:
        warm.shutdown_warm()


def test_remarking_pristine_mid_session_blocks_warm_mode():
    # mark_pristine absorbs post-build loads into the baseline, but worker
    # replicas rebuild from the subject-app recipe, which knows nothing
    # about them — the delta cannot be bounded, so the round runs serially
    warm, serial = _twin_pair("huginn")
    try:
        for rdl in (warm, serial):
            rdl.load(PROBE_SOURCE)
            rdl.mark_pristine()  # PROBE_SOURCE is now baseline, unrecorded
        table = next(iter(warm.db.tables))
        warm.db.add_column(table, "c1", "string")
        serial.db.add_column(table, "c1", "string")
        warm_report = warm.recheck_dirty(workers=2)
        serial_report = serial.recheck_dirty()
        assert _key(warm_report) == _key(serial_report)
        run = warm.warm_engine.last_warm_run
        assert not run.remote
        assert "re-marked pristine" in run.fallback_reason
    finally:
        warm.shutdown_warm()


def test_multi_label_universes_are_blocked_before_any_build():
    # one combined journal cannot replay into per-app replicas; the block
    # must trigger before any worker wastes a fleet-wide cold build
    with ParallelCheckEngine(workers=2) as engine:
        reason = engine.warm_block_reason(object(), ["discourse", "huginn"])
        assert reason is not None and "multi-label" in reason
        assert engine._session_pool is None  # nothing was spawned


# ---------------------------------------------------------------------------
# worker-crash retry
# ---------------------------------------------------------------------------

def test_worker_death_mid_round_reruns_shard_on_survivors():
    warm, serial = _twin_pair("discourse")
    try:
        # round 1 attaches the session
        warm.db.drop_column("users", "username")
        serial.db.drop_column("users", "username")
        assert _key(warm.recheck_dirty(workers=2)) == \
            _key(serial.recheck_dirty())
        engine = warm.warm_engine

        # dirty the next round, converge the (still-live) workers, *then*
        # kill one: the death is discovered when its shard is dispatched,
        # which is the mid-round re-plan path
        warm.db.add_column("users", "username", "string")
        serial.db.add_column("users", "username", "string")
        engine.migrate(warm)
        victim = engine._session_pool.workers[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=10)

        warm_report = warm.recheck_dirty(workers=2)
        serial_report = serial.recheck_dirty()
        assert _key(warm_report) == _key(serial_report)
        run = engine.last_warm_run
        assert run.remote
        assert run.retries >= 1
        assert engine.stats.extra["warm.retries"] >= 1
        assert not victim.alive  # the engine noticed the death

        # the pool heals: the next round respawns to full strength and a
        # cold attach brings the newcomer back into the session
        warm.db.drop_column("users", "username")
        serial.db.drop_column("users", "username")
        assert _key(warm.recheck_dirty(workers=2)) == \
            _key(serial.recheck_dirty())
        assert len(engine._session_pool.live()) == 2
    finally:
        warm.shutdown_warm()


def test_total_worker_loss_still_completes_via_in_process_backstop():
    warm, serial = _twin_pair("huginn")
    try:
        table = next(iter(warm.db.tables))
        warm.db.add_column(table, "c1", "string")
        serial.db.add_column(table, "c1", "string")
        assert _key(warm.recheck_dirty(workers=2)) == \
            _key(serial.recheck_dirty())
        engine = warm.warm_engine

        warm.db.drop_column(table, "c1")
        serial.db.drop_column(table, "c1")
        engine.migrate(warm)
        for handle in engine._session_pool.workers:
            os.kill(handle.process.pid, signal.SIGKILL)
            handle.process.join(timeout=10)
        warm_report = warm.recheck_dirty(workers=2)
        serial_report = serial.recheck_dirty()
        assert _key(warm_report) == _key(serial_report)
    finally:
        warm.shutdown_warm()


# ---------------------------------------------------------------------------
# engine-level session API
# ---------------------------------------------------------------------------

def test_attach_migrate_recheck_api():
    app = app_for_label("journey")
    rdl = app.build()
    rdl.check_all(app.label)
    with ParallelCheckEngine(workers=2, stats=rdl.incremental_stats,
                             backend=rdl.db.backend_name) as engine:
        session_id = engine.attach(rdl)
        assert session_id
        table = next(iter(rdl.db.tables))
        rdl.db.add_column(table, "session_col", "string")
        assert engine.migrate(rdl) == rdl.db.version
        # every live worker is converged with the universe
        for handle in engine._attached_workers():
            assert handle.synced_generation == rdl.db.version
        report = engine.recheck_dirty(rdl)

        serial = app.build()
        serial.check_all(app.label)
        serial.db.add_column(table, "session_col", "string")
        assert _key(report) == _key(serial.recheck_dirty())


def test_attach_rejects_unreplicable_universe():
    from repro import CompRDL

    rdl = CompRDL()
    with ParallelCheckEngine(workers=2) as engine:
        with pytest.raises(ValueError):
            engine.attach(rdl, labels=["huginn"])  # never marked pristine


def test_labels_checked_after_attach_are_covered():
    # the warm report must track the scheduler's label list, not the
    # labels frozen at attach time
    app = app_for_label("journey")
    warm = app.build()
    warm.check_all(app.label)
    serial = app.build()
    serial.check_all(app.label)
    try:
        table = next(iter(warm.db.tables))
        warm.db.add_column(table, "c1", "string")
        serial.db.add_column(table, "c1", "string")
        assert _key(warm.recheck_dirty(workers=2)) == \
            _key(serial.recheck_dirty())
        attached = list(warm.warm_engine._attached_labels)

        warm.check_all(app.label)  # no-op round, session unchanged
        assert warm.warm_engine._attached_labels == attached
    finally:
        warm.shutdown_warm()
