"""Small fixed-seed storms: the five invariants hold end-to-end."""

import json

import pytest

from repro.fuzz import Step, StormConfig, run_events, run_storm
from repro.fuzz.__main__ import main as fuzz_main

pytestmark = pytest.mark.slow


def test_migrations_profile_small_storm():
    report = run_storm(StormConfig(seed=0, steps=20, profile="migrations"))
    assert report.ok, report.summary()
    assert report.checkpoints >= 4


def test_storm_profile_checks_warm_sessions_remotely():
    report = run_storm(StormConfig(seed=1, steps=15, profile="storm"))
    assert report.ok, report.summary()
    # invariant 3 must not be vacuous: at least one warm round has to run
    # on real session workers, not the serial fallback
    assert report.warm_remote >= 1, report.summary()


def test_null_insert_regression():
    # the first storm ever run found this one: the memory backend stored
    # an explicit None where sqlite reads the column as absent (SQL NULL)
    events = [
        Step(op="insert", table="events", values={"payload": None}),
        Step(op="check"),
    ]
    report = run_events(
        events, StormConfig(seed=0, steps=2, profile="migrations"))
    assert report.ok, report.summary()


def test_violations_are_reported_not_raised():
    # an inapplicable-only sequence still ends on a clean final checkpoint
    events = [Step(op="insert", table="no_such_table", values={"x": 1})]
    report = run_events(
        events, StormConfig(seed=0, steps=1, profile="migrations"))
    assert report.ok
    assert report.skipped == 1
    assert report.checkpoints == 1


def test_fuzz_counters_in_metrics_snapshot():
    from repro.obs.metrics import metrics_snapshot

    run_storm(StormConfig(seed=2, steps=10, profile="migrations"))
    snap = metrics_snapshot()
    assert snap.get("fuzz.checks", 0) >= 1
    assert snap.get("fuzz.steps", 0) >= 10
    assert "faults.enabled" in snap
    # invariant 5 must not be vacuous: the subject app carries check
    # specs, so every checkpoint probes compiled-vs-structural membership
    assert snap.get("fuzz.member_probes", 0) >= 1


def test_shrinker_finds_small_repro():
    from repro.fuzz import shrink_events

    # stand-in oracle: the failure needs the one insert step, nothing else
    full = [Step(op="insert", table="events", values={"payload": None}),
            Step(op="add_column", table="agents", column="fz_x",
                 kind="integer"),
            Step(op="check"),
            Step(op="insert", table="agents", values={"fz_x": 3}),
            Step(op="check")]

    def fails(candidate):
        return any(step.op == "insert" and step.table == "events"
                   for step in candidate)

    minimal = shrink_events(full, fails)
    assert len(minimal) == 1
    assert minimal[0].op == "insert" and minimal[0].table == "events"


def test_cli_json_summary_creates_its_directory(tmp_path):
    path = tmp_path / "artifacts" / "smoke.json"
    argv = ["--seed", "0", "--steps", "4", "--profile", "migrations",
            "--json", str(path)]
    assert fuzz_main(argv) == 0
    assert json.loads(path.read_text())["failed"] == 0
