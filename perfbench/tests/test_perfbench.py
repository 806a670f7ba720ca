"""Tests for the benchmark itself (run: ``python -m pytest perfbench/tests``).

They pin what the benchmark's numbers rest on: seeded inputs that repeat
byte for byte, expected verdicts that hold by construction, printed metric
names that match ``BENCHMARK.json``, and a minimal run of every workload
that passes its oracle.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from perfbench import ledger
from perfbench import run as bench
from perfbench import synth
from perfbench.churn import EventApplier, batches
from perfbench.workloads import report_key
from repro.fuzz.events import events_to_json
from repro.fuzz.generate import SchemaModel, generate_steps

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _storm(seed: int, tables: int = 8, steps: int = 40):
    app = synth.generate(seed, tables)
    rdl = app.build("memory")
    rdl.load(app.source)
    rdl.check_all(synth.LABEL)
    return rdl, generate_steps(seed, SchemaModel.of_universe(rdl), steps,
                               check_every=10)


@pytest.mark.parametrize("seed", [0, 7])
def test_generator_is_byte_identical_for_a_seed(seed):
    first = synth.generate(seed, 12, variant=3)
    second = synth.generate(seed, 12, variant=3)
    assert first.source == second.source
    assert (first.tables, first.associations, first.rows, first.injected) == \
        (second.tables, second.associations, second.rows, second.injected)
    # a new variant is new source text: the parse cache cannot serve it
    assert synth.generate(seed, 12, variant=4).source != first.source


def test_event_stream_is_byte_identical_for_a_seed():
    _, first = _storm(5)
    _, second = _storm(5)
    assert json.dumps(events_to_json(first)) == json.dumps(events_to_json(second))
    assert json.dumps(events_to_json(_storm(6)[1])) != \
        json.dumps(events_to_json(first))


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_by_construction_verdicts_match_the_checker(seed, backend):
    app = synth.generate(seed, 10)
    rdl = app.build(backend)
    rdl.load(app.source)
    report = rdl.check_all(synth.LABEL)
    assert len(report.checked_methods) == app.expected_methods == 70
    assert len(report.errors) == app.expected_errors == 1
    assert {e.method.rsplit(".", 1)[-1] for e in report.errors} == \
        app.injected_methods


def test_event_applier_counts_every_op_and_keeps_parity():
    rdl, steps = _storm(9)
    twin = _storm(9)[0]
    live = EventApplier(rdl, synth.LABEL)
    shadow = EventApplier(twin, synth.LABEL)
    for batch in batches(steps):
        for step in batch:
            live.apply(step)
            shadow.apply(step)
        twin.incremental.mark_all_dirty()
        assert report_key(rdl.recheck_dirty()) == \
            report_key(twin.recheck_dirty())
    assert sum(live.ops.values()) == sum(1 for s in steps if s.op != "check")


def test_declared_names_match_the_printed_ones():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == \
        ["paper_apps", "schema_churn", "fleet"]
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    assert end_to_end == {"setup_s", "peak_rss_mb", *bench.END_TO_END}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        ledger.PER_LAYER


@pytest.mark.parametrize("workload", ["paper_apps", "schema_churn", "fleet"])
@pytest.mark.parametrize("trace", [0, 1])
def test_minimal_run_passes_its_oracle(workload, trace):
    declared = _declared()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in declared[section]}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def _in_session(sid: int) -> list[int]:
    """Processes, exited but unreaped ones included, still in session
    ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # after the command name: state, ppid, pgrp, session, ...
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append(int(entry))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_fleet_run_leaves_no_process_behind(trace):
    """Worker pools, their resource tracker and the set-up probes all end
    before the benchmark does."""
    run = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "fleet",
         "--seed", "4", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    _, err = run.communicate(timeout=300)
    assert run.returncode == 0, err
    assert _in_session(run.pid) == []


def test_refuses_to_run_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "paper_apps", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
