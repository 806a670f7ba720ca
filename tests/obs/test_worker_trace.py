"""Cross-process span propagation and the VM inline-cache counters.

Workers buffer spans locally and piggyback them, with the request's
counter deltas, on their protocol replies; the engine absorbs both into one
timeline and one counter registry.  With tracing off, the protocol messages
carry nothing — the empty defaults, no span or counter attributes.
"""

import os

import pytest

from repro import obs
from repro.apps import app_for_label
from repro.parallel import ParallelCheckEngine
from repro.parallel.protocol import CheckRequest, ShardResult
from repro.parallel.worker import _trace_begin, _trace_end
from repro.runtime.interp import Interp

LABEL = "discourse"


# ---------------------------------------------------------------------------
# worker-side windowing helpers (in-process)
# ---------------------------------------------------------------------------

class _Message:
    def __init__(self, trace):
        self.trace = trace


def test_untraced_request_adds_no_attributes_to_reply():
    reply = ShardResult(shard_id=0)
    mark = _trace_begin(_Message(trace=False))
    assert mark is None
    assert not obs.enabled()
    obs.bump("probe.untraced")
    _trace_end(reply, mark)
    assert reply.spans == ()  # the protocol defaults, untouched
    assert reply.counters == ()


def test_traced_request_ships_only_its_own_window():
    obs.enable()
    with obs.span("pre-existing"):
        pass
    obs.bump("probe.before")
    reply = ShardResult(shard_id=0)
    mark = _trace_begin(_Message(trace=True))
    with obs.span("inside"):
        pass
    obs.bump("probe.before")
    obs.bump("probe.inside", 2)
    _trace_end(reply, mark)
    # the reply carries the request's spans and counter deltas; an
    # in-process caller's earlier ones stay local (workers == 1 runs share
    # the process)
    assert [e["name"] for e in reply.spans] == ["inside"]
    assert [e["name"] for e in obs.events()] == ["pre-existing"]
    assert sorted(reply.counters) == [("probe.before", 1), ("probe.inside", 2)]
    assert obs.counters() == {"probe.before": 1}


def test_protocol_messages_default_to_untraced():
    request = CheckRequest("session", 0)
    assert request.trace is False
    assert ShardResult(shard_id=0).spans == ()


# ---------------------------------------------------------------------------
# real fleet round-trips (spawned worker processes)
# ---------------------------------------------------------------------------

def test_fleet_check_collects_spans_from_distinct_worker_pids():
    obs.enable()
    # a transient fleet sizes itself to one worker per app; an adopted,
    # primed 2-worker engine splits the app across both, so spans arrive
    # from two pids
    app = app_for_label(LABEL)
    with ParallelCheckEngine(workers=2) as engine:
        engine.prime([app.label])
        rdl = app.build()
        rdl.adopt_warm_engine(engine)
        report = rdl.check_all(app.label, workers=2)
        rdl.shutdown_warm()
    assert report.checked_methods
    events = obs.events()
    worker_pids = {e["pid"] for e in events} - {os.getpid()}
    assert len(worker_pids) >= 2, (
        f"expected spans from >= 2 worker processes, got {worker_pids}")
    # the shard execution spans themselves were recorded worker-side
    shard_pids = {e["pid"] for e in events if e["name"] == "session.check"}
    assert shard_pids and os.getpid() not in shard_pids
    # engine-side phases frame them on the same timeline
    names = {e["name"] for e in events}
    assert "fleet.round" in names
    assert "warm.round" in names


@pytest.mark.slow
def test_worker_counters_reach_the_parent_snapshot():
    """``sessions.catalog_hits`` is bumped only inside workers (a session
    attach adopting a primed replica); traced replies carry it home."""
    app = app_for_label(LABEL)
    with ParallelCheckEngine(workers=2) as engine:
        engine.prime([app.label])
        rdl = app.build()
        rdl.adopt_warm_engine(engine)
        obs.enable()
        rdl.check_all(app.label, workers=2)
        snapshot = rdl.metrics_snapshot()
        rdl.shutdown_warm()
    assert snapshot.get("counters.sessions.catalog_hits", 0) >= 1


def test_fleet_check_disabled_emits_zero_events():
    assert not obs.enabled()
    report = app_for_label(LABEL).build().check_all(LABEL, workers=2)
    assert report.checked_methods
    assert obs.events() == []
    assert obs.buffered() == 0
    assert obs.counters() == {}


# ---------------------------------------------------------------------------
# compiled-VM inline caches through the metrics registry
# ---------------------------------------------------------------------------

def test_monomorphic_call_site_reports_hits_after_warmup():
    obs.enable()
    interp = Interp()
    # one monomorphic call site on a cacheable receiver type (RString),
    # executed 30 times: the first fill is a miss, the rest must hit
    interp.run("""
total = 0
i = 0
while i < 30
  total = total + "abc".length()
  i = i + 1
end
total
""")
    counters = obs.counters()
    assert counters["vm.inline_cache.misses"] >= 1
    assert counters["vm.inline_cache.hits"] >= 29
    # and the snapshot surfaces the same counters under stable keys
    snap = obs.metrics_snapshot()
    assert snap["vm.inline_cache.hits"] == counters["vm.inline_cache.hits"]
    assert snap["counters.vm.inline_cache.misses"] == \
        snap["vm.inline_cache.misses"] == counters["vm.inline_cache.misses"]
    assert 0.0 < snap["vm.inline_cache.hit_rate"] <= 1.0


def test_inline_cache_counters_stay_zero_while_disabled():
    assert not obs.enabled()
    interp = Interp()
    interp.run('x = 0\nwhile x < 10\n  x = x + "a".length()\nend\nx')
    assert not any(name.startswith("vm.") for name in obs.counters())
    snap = obs.metrics_snapshot()
    assert snap["vm.inline_cache.hits"] == snap["vm.inline_cache.misses"] == 0
