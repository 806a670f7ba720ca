"""Session-layer failure modes, each pinned by its own test.

The robustness contract: a dead worker raises :class:`WorkerLost` from
whichever half of the round-trip noticed (send vs recv), a silent worker
hits the recv deadline as :class:`WorkerWedged`, a worker-side error
arrives as :class:`SessionRequestFailed` with the process still usable,
a journal gap is a :class:`ReplayError`, and losing *every* worker
degrades a warm round to the serial path with identical verdicts.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.apps import app_for_label
from repro.parallel.protocol import AttachUniverse, CheckRequest
from repro.parallel.sessions import (
    SessionRequestFailed,
    SessionWorkerHandle,
    WorkerLost,
    WorkerWedged,
)

pytestmark = pytest.mark.slow


@pytest.fixture()
def handle():
    ctx = multiprocessing.get_context("spawn")
    worker = SessionWorkerHandle(ctx, 0, deadline_s=30.0)
    yield worker
    worker.close()


def test_recv_deadline_detects_wedged_worker(handle):
    # nothing was requested, so the worker will never reply: before the
    # deadline existed this recv blocked forever
    start = time.monotonic()
    with pytest.raises(WorkerWedged):
        handle.recv(deadline_s=0.5)
    assert time.monotonic() - start < 10.0
    assert not handle.alive
    handle.process.join(timeout=10)
    assert not handle.process.is_alive()


def test_worker_lost_on_send(handle):
    os.kill(handle.process.pid, signal.SIGKILL)
    handle.process.join(timeout=10)
    with pytest.raises(WorkerLost):
        # the first send can land in the socket buffer before the kernel
        # notices the peer died; keep sending until the pipe breaks
        for _ in range(10):
            handle.send(AttachUniverse(session_id="s", labels=()))
            time.sleep(0.05)
    assert not handle.alive


def test_worker_lost_on_recv(handle):
    handle.send(AttachUniverse(session_id="s", labels=()))
    os.kill(handle.process.pid, signal.SIGKILL)
    handle.process.join(timeout=10)
    with pytest.raises(WorkerLost):
        handle.recv()  # served before the kill? then the ack is buffered...
        handle.recv()  # ...and the EOF surfaces on the next recv
    assert not handle.alive


def test_session_request_failed_keeps_worker_alive(handle):
    with pytest.raises(SessionRequestFailed) as excinfo:
        handle.request(CheckRequest(session_id="ghost", shard_id=0))
    assert "ghost" in str(excinfo.value)
    assert excinfo.value.reply.request == "CheckRequest"
    # worker-side failure, not a dead process: the handle stays usable
    assert handle.alive
    with pytest.raises(SessionRequestFailed):
        handle.request(CheckRequest(session_id="ghost", shard_id=1))


def test_replay_detects_journal_gap():
    from repro.incremental.versioning import ReplayError

    src = app_for_label("huginn").build(backend="memory")
    replica = app_for_label("huginn").build(backend="memory")
    base = replica.db.version
    src.db.add_column("agents", "fz_gap_a", "integer")
    src.db.add_column("agents", "fz_gap_b", "integer")
    events = list(src.db.journal.events_since(base))
    with pytest.raises(ReplayError):
        replica.db.replay(events[1:])  # first event missing: a gap


def test_all_workers_dead_falls_back_to_serial(monkeypatch):
    # every spawned session worker dies on attach (times=0: unlimited);
    # the sync retry loop exhausts its respawn budget and the round must
    # degrade to the serial path — same verdicts, no hang, no exception
    monkeypatch.setenv("REPRO_FAULTS", "worker.AttachUniverse=die::0:0")
    rdl = app_for_label("huginn").build(backend="memory")
    serial = app_for_label("huginn").build(backend="memory")
    for universe in (rdl, serial):
        universe.check_all("huginn")
        universe.db.add_column("agents", "fz_dead_pool", "integer")
    baseline = serial.recheck_dirty()
    try:
        report = rdl.recheck_dirty(workers=2)
        run = rdl.warm_engine.last_warm_run
    finally:
        rdl.shutdown_warm()
    assert run is not None and not run.remote
    assert run.fallback_reason
    assert list(report.checked_methods) == list(baseline.checked_methods)
    assert [str(e) for e in report.errors] == \
        [str(e) for e in baseline.errors]


def test_cold_round_reruns_lost_shards_in_process(monkeypatch):
    # every spawned worker dies on its first CheckRequest: each lost shard
    # must rerun in-process against the engine's own catalog universes,
    # and the merged report must still match the serial checks label by
    # label, in order
    from repro.parallel import check_fleet

    monkeypatch.setenv("REPRO_FAULTS", "worker.CheckRequest=die::0:0")
    labels = ["huginn", "journey", "twitter"]
    run = check_fleet(labels, workers=2)
    methods, errors = [], []
    for label in labels:
        serial = app_for_label(label).build().check(label)
        methods.extend(serial.checked_methods)
        errors.extend(str(e) for e in serial.errors)
    assert list(run.report.checked_methods) == methods
    assert [str(e) for e in run.report.errors] == errors
    assert len(run.results) >= 2  # a real fan-out, not the in-process path
    assert all(result.pid == os.getpid() for result in run.results)
