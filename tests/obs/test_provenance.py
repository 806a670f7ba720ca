"""Verdict provenance: the ledger, ``explain()``, parity, disabled mode.

Three contracts matter.  First, *path parity*: the production-path-
independent part of an ``explain()`` answer — verdict, dependency
footprint, generation, staleness, dirtying events, flip structure — must be
identical whether a verdict came from a serial in-process check, a cold
worker fleet, or a warm session round, on either storage backend (who
produced it and how warm its caches were legitimately differ, and
:func:`parity_view` excludes exactly that).  Second, flip history must name
the journal event that dirtied the flipped verdict.  Third, disabled mode
is free: the shared :data:`NULL_CAPTURE` no-op, zero ledger records, and
``None`` provenance payloads on the wire.
"""

import json
import os

import pytest

from repro import obs
from repro.apps import app_for_label
from repro.incremental import IncrementalStats
from repro.obs import provenance
from repro.obs.export import ExportPathError
from repro.obs.provenance import NULL_CAPTURE, parity_view

LABEL = "discourse"
WORKERS = 4


def _build_checked(backend=None, workers=1):
    app = app_for_label(LABEL)
    rdl = app.build(backend=backend)
    rdl.check_all(app.label, workers=workers)
    return rdl


def _views(rdl):
    """parity_view per checked method, keyed by method desc."""
    return {
        str(key): parity_view(provenance.explain(
            rdl.incremental, key.class_name, key.method_name,
            static=key.static))
        for key in rdl.incremental.results
    }


def _producer_kinds(rdl):
    return {entry.producer["kind"]
            for entry in rdl.incremental.provenance.records.values()}


# ---------------------------------------------------------------------------
# parity across production paths (the tentpole's acceptance bar)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_explain_parity_across_production_paths(backend):
    provenance.enable()
    serial = _build_checked(backend)
    fleet = _build_checked(backend, workers=WORKERS)
    warm = _build_checked(backend)
    try:
        # the same destructive migration on all three twins; serial and
        # fleet re-verify in-process, warm across live session workers
        for rdl in (serial, fleet, warm):
            rdl.db.drop_column("users", "username")
        serial.recheck_dirty()
        fleet.recheck_dirty()
        warm.recheck_dirty(workers=WORKERS)
        assert warm.warm_engine.last_warm_run.remote

        # each universe exercised the production path it is named for
        assert _producer_kinds(serial) == {"fresh"}
        assert "warm" in _producer_kinds(fleet)
        assert "warm" in _producer_kinds(warm)

        v_serial, v_fleet, v_warm = _views(serial), _views(fleet), _views(warm)
        assert set(v_serial) == set(v_fleet) == set(v_warm)
        for desc in v_serial:
            assert v_serial[desc] == v_fleet[desc] == v_warm[desc], desc
        # the migration flipped at least one verdict identically everywhere
        assert any(view["flips"] for view in v_serial.values())
    finally:
        warm.shutdown_warm()


def test_warm_producer_names_worker_pid_and_session():
    provenance.enable()
    rdl = _build_checked()
    try:
        rdl.db.drop_column("users", "username")
        rdl.recheck_dirty(workers=WORKERS)
        run = rdl.warm_engine.last_warm_run
        assert run.remote and run.session_id
        warm_entries = [e for e in rdl.incremental.provenance.records.values()
                        if e.producer["kind"] == "warm"]
        assert warm_entries
        for entry in warm_entries:
            assert entry.producer["session"] == run.session_id
            assert entry.producer["pid"] != os.getpid()
            assert "shard" in entry.producer
    finally:
        rdl.shutdown_warm()


# ---------------------------------------------------------------------------
# flip history names the dirtying journal event
# ---------------------------------------------------------------------------

def test_flip_history_records_the_dirtying_event():
    provenance.enable()
    rdl = _build_checked()
    rdl.db.drop_column("users", "username")
    rdl.recheck_dirty()
    flipped = {key: flips for key, flips
               in rdl.incremental.provenance.flips.items() if flips}
    assert flipped, "the dropped column must flip at least one verdict"
    for flips in flipped.values():
        [flip] = flips
        assert flip["from"] == "PASS"
        assert "error" in flip["to"]
        assert any("drop_column" in event and "users.username" in event
                   for event in flip["events"]), flip["events"]
    # the flip count surfaces through the stable metrics key, and
    # explain() carries the same history
    assert rdl.metrics_snapshot()["provenance.flips"] == len(flipped)
    key = sorted(flipped, key=str)[0]
    info = rdl.explain(key.class_name, key.method_name, static=key.static)
    assert info["flips"] == flipped[key]
    # the rendered tree mentions the flip and the event
    tree = rdl.explain(key.class_name, key.method_name, static=key.static,
                       render=True)
    assert "flips: 1 recorded" in tree
    assert "drop_column users.username" in tree


def test_stale_verdict_reports_its_dirtying_events():
    provenance.enable()
    rdl = _build_checked()
    rdl.db.drop_column("users", "username")
    # no recheck yet: the stale verdicts must say what dirtied them
    stale = [key for key in rdl.incremental.dirty
             if key in rdl.incremental.provenance.records]
    assert stale
    info = rdl.explain(stale[0].class_name, stale[0].method_name,
                       static=stale[0].static)
    assert info["generation"]["stale"] is True
    assert info["generation"]["current"] > info["generation"]["checked_at"]
    assert any("drop_column" in event for event in info["dirtied_by"])


# ---------------------------------------------------------------------------
# disabled mode: free, and invisible on the wire
# ---------------------------------------------------------------------------

def test_disabled_mode_records_nothing_and_ships_no_payload():
    from repro.parallel.protocol import CheckRequest, MethodSpec, ShardResult
    from repro.parallel.worker import check_specs_into

    assert not provenance.enabled()
    # the no-op singleton: identical object every call (no per-check
    # allocation on the disabled path)
    assert provenance.capture(IncrementalStats()) is NULL_CAPTURE
    rdl = _build_checked()
    assert len(rdl.incremental.provenance) == 0
    assert provenance.recorded() == 0
    # protocol defaults carry no provenance
    assert CheckRequest(None, 0).provenance is False
    # and the worker checking loop leaves every verdict's payload at None
    key = sorted(rdl.incremental.results, key=str)[0]
    spec = MethodSpec(label=LABEL, class_name=key.class_name,
                      method_name=key.method_name, static=key.static)
    result = ShardResult(shard_id=0)
    check_specs_into(result, lambda label: rdl, [spec])
    [verdict] = result.verdicts
    assert verdict.prov is None
    # explain() distinguishes "never checked" from "checked, not recorded"
    info = rdl.explain(key.class_name, key.method_name, static=key.static)
    assert info["known"] is False and "enable" in info["reason"]
    ghost = rdl.explain("NoSuchClass", "nope")
    assert ghost["known"] is False and "never been checked" in ghost["reason"]


def test_explain_render_handles_unknown_methods():
    provenance.enable()
    rdl = _build_checked()
    tree = rdl.explain("NoSuchClass", "nope", render=True)
    assert "NoSuchClass#nope" in tree and "unknown" in tree


# ---------------------------------------------------------------------------
# JSONL export (and the shared export-path contract, both exporters)
# ---------------------------------------------------------------------------

def _tiny_ledger():
    ledger = provenance.ProvenanceLedger()
    ledger.record("k1", "K#m", [], 3)
    ledger.record("k2", "K#n", ["boom in K#n (line 1)"], 3)
    return ledger


def test_export_jsonl_creates_parent_dirs_and_orders_by_time(tmp_path):
    provenance.enable()
    path = provenance.export_jsonl(
        str(tmp_path / "deep" / "nested" / "prov.jsonl"),
        ledgers=[_tiny_ledger()])
    with open(path) as handle:
        rows = [json.loads(line) for line in handle]
    assert [row["method"] for row in rows] == ["K#m", "K#n"]
    assert all(row["type"] == "verdict" for row in rows)
    stamps = [row["timing"]["ts_us"] for row in rows]
    assert stamps == sorted(stamps)
    assert rows[0]["verdict"] == {"ok": True, "errors": []}
    assert rows[1]["verdict"]["ok"] is False


def test_export_jsonl_unwritable_target_names_the_path(tmp_path):
    provenance.enable()
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    bad = str(blocker / "sub" / "prov.jsonl")
    with pytest.raises(ExportPathError) as err:
        provenance.export_jsonl(bad, ledgers=[_tiny_ledger()])
    assert bad in str(err.value)


def test_trace_export_shares_the_path_contract(tmp_path):
    obs.enable()
    with obs.span("something"):
        pass
    # missing parents are created...
    path = obs.export_chrome_trace(str(tmp_path / "a" / "b" / "trace.json"))
    assert os.path.exists(path)
    # ...and an unwritable target raises the same clear error
    blocker = tmp_path / "f"
    blocker.write_text("x")
    bad = str(blocker / "trace.json")
    with pytest.raises(ExportPathError) as err:
        obs.export_chrome_trace(bad)
    assert bad in str(err.value)
