"""The worker's pristine replica catalog lends replicas to sessions.

A session attach borrows a cataloged replica (or builds one), and a
``DetachSession`` returns each replica that is still pristine to its empty
catalog slot, so a worker builds each label at most once and a later cold
attach adopts an already-checked replica.  A replica that replayed an event
or a load, or whose session a partial replay poisoned, is never returned.
The in-process cases drive ``worker._serve`` directly; the pooled ones run
``check_all(label, workers=2)`` on the process's kept fleet.
"""

import pytest

from repro import obs
from repro.apps import all_apps, app_for_label
from repro.obs import faults
from repro.parallel import ParallelCheckEngine, worker
from repro.parallel.engine import specs_for_labels
from repro.parallel.protocol import (AttachUniverse, CheckRequest,
                                     DetachSession)

LABEL = "huginn"
KEY = (LABEL, "memory")


def _key(report):
    return (list(report.checked_methods), [str(e) for e in report.errors],
            report.casts_used, report.oracle_casts)


def _footprints(rdl):
    """Every checked method's recorded dependencies: what a worker checked
    on a warm replica must match a cold serial check, comp-cache hits or
    not."""
    return {str(key): deps.summary()
            for key, deps in rdl.checker.engine.deps.method_deps.items()}


@pytest.fixture
def catalog(monkeypatch):
    """An empty catalog for this process, restored afterwards."""
    monkeypatch.setattr(worker, "_WARM_CATALOG", {})
    yield worker._WARM_CATALOG
    faults.clear()


@pytest.fixture
def traced():
    was_enabled = obs.enabled()
    obs.reset()
    yield
    obs.reset()
    obs.set_enabled(was_enabled)


def _attach(sessions, session_id):
    worker._serve(sessions, AttachUniverse(
        session_id=session_id, labels=(LABEL,), backend="memory"))
    return sessions[session_id][LABEL]


def _check(sessions, session_id, **catch_up):
    rdl = sessions[session_id][LABEL]
    specs = tuple(specs_for_labels([LABEL], rdl.registry))
    return worker._serve(sessions, CheckRequest(
        session_id=session_id, shard_id=0, specs=specs, **catch_up))


# ---------------------------------------------------------------------------
# in-process: worker._serve
# ---------------------------------------------------------------------------

def test_detach_returns_a_checked_replica_for_the_next_attach(catalog):
    sessions: dict = {}
    lent = _attach(sessions, "s")
    assert KEY not in catalog  # lent to "s" alone
    assert _check(sessions, "s").verdicts
    worker._serve(sessions, DetachSession("s"))
    assert "s" not in sessions
    assert catalog[KEY] is lent
    assert _attach(sessions, "t") is lent
    assert KEY not in catalog


def test_a_returned_replica_never_replaces_a_cataloged_one(catalog):
    sessions: dict = {}
    first = _attach(sessions, "s")
    second = _attach(sessions, "t")  # the catalog is empty: builds anew
    assert second is not first
    worker._serve(sessions, DetachSession("s"))
    worker._serve(sessions, DetachSession("t"))
    assert catalog[KEY] is first


def _migration_events(generation):
    source = app_for_label(LABEL).build(backend="memory")
    assert source.db.version == generation
    source.db.add_column("agents", "catalog_a", "integer")
    source.db.add_column("events", "catalog_b", "integer")
    return tuple(e.to_wire() for e in source.db.journal.events_since(generation))


def _replay_event(sessions):
    rdl = sessions["s"][LABEL]
    _check(sessions, "s", events=_migration_events(rdl.db.version)[:1])


def _replay_load(sessions):
    _check(sessions, "s", loads=("class CatalogProbe\nend\n",))


def _poison(sessions):
    rdl = sessions["s"][LABEL]
    faults.inject("db.replay.event", "error", arg="boom", after=1, times=1)
    with pytest.raises(faults.InjectedFault):
        _check(sessions, "s", events=_migration_events(rdl.db.version))
    assert "s" not in sessions


@pytest.mark.parametrize("diverge", [_replay_event, _replay_load, _poison],
                         ids=["event", "load", "poisoned"])
def test_a_session_that_left_pristine_returns_nothing(catalog, diverge):
    sessions: dict = {}
    _attach(sessions, "s")
    diverge(sessions)
    worker._serve(sessions, DetachSession("s"))
    assert catalog == {}


# ---------------------------------------------------------------------------
# pooled: the process's kept 2-worker fleet
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_a_second_cold_check_adopts_the_returned_replicas(traced):
    serial = _key(app_for_label(LABEL).build().check(LABEL))
    app_for_label(LABEL).build().check_all(LABEL, workers=2)
    obs.enable()
    rdl = app_for_label(LABEL).build()
    report = rdl.check_all(LABEL, workers=2)
    snapshot = rdl.metrics_snapshot()
    assert snapshot.get("counters.sessions.catalog_hits", 0) >= 2
    assert _key(report) == serial


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_cold_rounds_on_returned_replicas_match_serial(traced, backend):
    engine = ParallelCheckEngine(workers=2)
    for app in all_apps():
        serial = app.build(backend=backend)
        expected = _key(serial.check_all(app.label))
        engine.check(app.build(backend=backend), [app.label])
        engine.detach()
        obs.reset()
        obs.enable()
        rdl = app.build(backend=backend)
        report = engine.check(rdl, [app.label])
        hits = obs.counters().get("sessions.catalog_hits", 0)
        obs.set_enabled(False)
        engine.detach()
        assert engine.last_warm_run.remote, app.label
        assert hits >= 1, app.label
        assert _key(report) == expected, app.label
        assert _footprints(rdl) == _footprints(serial), app.label
