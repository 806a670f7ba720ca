"""Session-layer failure modes, each pinned by its own test.

The robustness contract: a dead worker raises :class:`WorkerLost` from
whichever half of the round-trip noticed (send vs recv), a silent worker
hits the recv deadline as :class:`WorkerWedged`, a worker-side error
arrives as :class:`SessionRequestFailed` with the process still usable,
a journal gap is a :class:`ReplayError`, and losing *every* worker
leaves a warm round to the in-process resolve backstop, with identical
verdicts.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.apps import app_for_label
from repro.parallel.protocol import AttachUniverse, CheckRequest
from repro.parallel.sessions import (
    SessionRequestFailed,
    SessionWorkerHandle,
    WorkerLost,
    WorkerWedged,
    pool_context,
)

pytestmark = pytest.mark.slow


@pytest.fixture()
def handle():
    worker = SessionWorkerHandle(pool_context(), 0, deadline_s=30.0)
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


def test_all_workers_dead_leaves_the_round_to_in_process_resolve(
        monkeypatch):
    # every session worker dies on its check request, which carries its
    # attach (times=0: unlimited); the round re-plans onto no survivors and
    # the in-process resolve backstop checks every method — same
    # verdicts, no hang, no exception
    monkeypatch.setenv("REPRO_FAULTS", "worker.CheckRequest=die::0:0")
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
    assert run is not None and run.remote and run.results == []
    assert list(report.checked_methods) == list(baseline.checked_methods)
    assert [str(e) for e in report.errors] == \
        [str(e) for e in baseline.errors]


def test_cold_round_reruns_lost_shards_in_process(monkeypatch):
    # every worker dies on its first CheckRequest: a cold
    # check_all(workers=2) loses every shard to a dead worker, the
    # in-process resolve backstop checks them, and each app's report still
    # matches its serial check, in order
    from repro.parallel import ParallelCheckEngine

    monkeypatch.setenv("REPRO_FAULTS", "worker.CheckRequest=die::0:0")
    for label in ["huginn", "journey", "twitter"]:
        rdl = app_for_label(label).build()
        with ParallelCheckEngine(workers=2) as engine:
            rdl.adopt_warm_engine(engine)
            report = rdl.check_all(label, workers=2)
            run = engine.last_warm_run
        serial = app_for_label(label).build().check(label)
        assert list(report.checked_methods) == list(serial.checked_methods)
        assert [str(e) for e in report.errors] == \
            [str(e) for e in serial.errors]
        # a real dispatch to session workers, none of which answered
        assert run.remote and run.methods == len(serial.checked_methods)
        assert run.results == []


_FAULTED_THEN_CLEAN = textwrap.dedent("""
    import json, os
    from repro.apps import app_for_label
    from repro.parallel import ParallelCheckEngine

    app = app_for_label("huginn")
    runs = []
    for plan in ("worker.CheckRequest=die::0:0", None):
        if plan is None:
            del os.environ["REPRO_FAULTS"]
        else:
            os.environ["REPRO_FAULTS"] = plan
        with ParallelCheckEngine(workers=2) as engine:
            rdl = app.build()
            rdl.adopt_warm_engine(engine)
            rdl.check_all(app.label, workers=2)
            run = engine.last_warm_run
            runs.append({
                "remote": run.remote,
                "methods": run.methods,
                "verdicts": sum(len(r.verdicts) for r in run.results),
            })
            rdl.shutdown_warm()
    print(json.dumps(runs))
""")


def test_fault_plan_stays_with_the_workers_it_was_set_for(tmp_path):
    # a fresh process, so the forkserver starts while the plan is set:
    # workers fork from that server, and only their start arguments may
    # decide what they arm
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src
    done = subprocess.run([sys.executable, "-c", _FAULTED_THEN_CLEAN],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    faulted, clean = json.loads(done.stdout.strip().splitlines()[-1])
    # the faulted fleet dispatched and lost every shard
    assert faulted["remote"] and faulted["verdicts"] == 0
    # the clean fleet fired nothing: every method came back from a worker
    assert clean["remote"]
    assert clean["verdicts"] == clean["methods"] > 0
