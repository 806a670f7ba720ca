"""The storm harness: replay one event sequence on twin universes and
assert every parity invariant at each checkpoint.

Twins (all built from the same subject app, all fed every event):

* ``mem`` — memory backend, serial incremental rechecks (the reference);
* ``sql`` — sqlite backend, serial incremental rechecks;
* ``full`` — memory backend, but every checkpoint marks *everything*
  dirty first: the full-re-check oracle for invariant 2;
* ``warm`` — memory backend, rechecked through warm session workers
  (``storm``/``faults`` profiles only): the oracle for invariant 3.

The ``faults`` profile additionally sets a :mod:`repro.obs.faults` plan in
``REPRO_FAULTS`` (each session worker started meanwhile gets it as a start
argument and arms from it) — a wedged ``CheckRequest`` reply, an injected
storage error mid-journal-replay — and SIGKILLs a live session worker at
a fixed checkpoint.  The invariants
are asserted unchanged: degradation must be invisible in verdicts.

Checkpoints additionally assert membership-backend parity (invariant 5):
every type carried by the reference twin's check specs, probed against a
fixed value corpus, must produce identical verdicts from the compiled
predicates and the structural ``value_has_type`` walker.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

from repro.obs import faults as obs_faults
from repro.obs.spans import bump
from repro.fuzz.events import Step, probe_source
from repro.fuzz.generate import SchemaModel, generate_steps

PROFILES = ("migrations", "storm", "faults")

#: faults profile: which checkpoint (0-based) SIGKILLs a session worker
KILL_AT_CHECKPOINT = 1
#: faults profile: the armed fault plan (see repro.obs.faults) — a wedged
#: CheckRequest reply on each worker's third request, and a storage error
#: mid-way through a journal replay (a genuine partial migration)
FAULT_PLAN = (
    ("worker.CheckRequest", "wedge", None, 2, 1),   # arg filled from config
    ("db.replay.event", "error", "operational", 3, 1),
)


class InvariantViolation(AssertionError):
    """One parity invariant failed at a checkpoint."""

    def __init__(self, invariant: str, step: int, detail: str):
        super().__init__(f"[{invariant}] at step {step}: {detail}")
        self.invariant = invariant
        self.step = step
        self.detail = detail


@dataclass
class StormConfig:
    seed: int = 0
    steps: int = 50
    profile: str = "storm"
    app: str = "huginn"
    check_every: int = 5
    workers: int = 2
    #: faults profile: per-recv reply deadline for warm session workers
    deadline_s: float = 3.0

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r} "
                             f"(choose from {', '.join(PROFILES)})")

    @property
    def warm(self) -> bool:
        return self.profile in ("storm", "faults")

    def repro_command(self) -> str:
        return (f"python -m repro.fuzz --seed {self.seed} "
                f"--steps {self.steps} --profile {self.profile} "
                f"--app {self.app}")


@dataclass
class FuzzReport:
    """One storm run's outcome (``ok`` iff every invariant held)."""

    config: StormConfig
    events: list = field(default_factory=list)
    steps_run: int = 0
    skipped: int = 0
    checkpoints: int = 0
    #: checkpoints whose warm round actually ran on session workers (not a
    #: serial fallback) — invariant 3 is vacuous when this stays 0
    warm_remote: int = 0
    violation: InvariantViolation | None = None
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.violation is None

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"FAIL ({self.violation.invariant})"
        warm = (f" warm_remote={self.warm_remote}"
                if self.config.warm else "")
        return (f"seed={self.config.seed} profile={self.config.profile} "
                f"steps={self.steps_run} (skipped {self.skipped}) "
                f"checkpoints={self.checkpoints}{warm} "
                f"wall={self.wall_s:.1f}s — {verdict}")


# ---------------------------------------------------------------------------
# parity keys (the idioms the backend-parity suite established)
# ---------------------------------------------------------------------------

def _schema_key(db):
    return [(name, [(c.name, c.kind) for c in schema.columns.values()])
            for name, schema in db.tables.items()]


def _journal_key(db):
    return [(e.kind, e.generation, e.table, e.column, e.detail, e.payload)
            for e in db.journal.events_since(0)]


def _report_key(report):
    return (list(report.checked_methods), [str(e) for e in report.errors],
            report.casts_used, report.oracle_casts)


def _membership_probes(interp) -> tuple:
    """The fixed value corpus for invariant 5: one probe per runtime-value
    shape the membership walker dispatches on, accept and reject paths
    both reachable for every constructor the check specs carry."""
    from repro.runtime.objects import RArray, RHash, RString, Sym

    return (
        None, True, False, 0, 3, 2.5,
        RString("probe"), RString(""), Sym("id"),
        RArray([1, 2]), RArray([1, RString("x")]),
        RHash.from_pairs([(Sym("id"), 1), (Sym("name"), RString("n"))]),
        interp.classes["Integer"],
    )


def _predicate(where):
    _op, column, value = where
    return lambda row: row.get(column) == value


def _apply_step(rdl, step: Step, label: str) -> None:
    db = rdl.db
    op = step.op
    if op == "create_table":
        db.create_table(step.table, **{name: kind
                                       for name, kind in step.columns})
        rdl.load(f"class {step.cls} < ActiveRecord::Base\nend\n")
    elif op == "add_column":
        db.add_column(step.table, step.column, step.kind)
    elif op == "drop_column":
        db.drop_column(step.table, step.column)
    elif op == "rename_column":
        db.rename_column(step.table, step.column, step.to)
    elif op == "rename_table":
        db.rename_table(step.table, step.to)
        rdl.load(f"class {step.cls} < ActiveRecord::Base\nend\n")
    elif op == "drop_table":
        db.drop_table(step.table)
    elif op == "insert":
        db.insert(step.table, dict(step.values))
    elif op == "update":
        db.update_rows(step.table, _predicate(step.where), dict(step.values))
    elif op == "delete":
        db.delete_rows(step.table, _predicate(step.where))
    elif op == "load_probe":
        rdl.load(probe_source(step, label))
    else:
        raise ValueError(f"unknown fuzz op {step.op!r}")


class _Storm:
    """One run's twin universes plus the checkpoint logic."""

    def __init__(self, config: StormConfig):
        from repro.apps import app_for_label

        self.config = config
        app = app_for_label(config.app)
        self.label = app.label
        self.mem = app.build(backend="memory")
        self.sql = app.build(backend="sqlite")
        self.full = app.build(backend="memory")
        self.twins = [self.mem, self.sql, self.full]
        self.warm = None
        if config.warm:
            self.warm = app.build(backend="memory")
            if config.profile == "faults":
                self.warm.warm_deadline_s = config.deadline_s
            self.twins.append(self.warm)
        for rdl in self.twins:
            rdl.check_all(self.label)
        self.model = SchemaModel.of_universe(self.mem)
        self.probes = _membership_probes(self.mem.interp)
        self.checkpoints = 0
        self.warm_remote = 0

    def close(self) -> None:
        for rdl in self.twins:
            rdl.shutdown_warm()

    def apply(self, step: Step) -> None:
        for rdl in self.twins:
            _apply_step(rdl, step, self.label)

    # -- the five invariants -------------------------------------------
    def checkpoint(self, step_index: int) -> None:
        bump("fuzz.checks")
        index = self.checkpoints
        self.checkpoints += 1
        if (self.config.profile == "faults" and index == KILL_AT_CHECKPOINT):
            self._kill_one_session_worker()

        serial = self.mem.recheck_dirty()
        serial_key = _report_key(serial)

        # invariant 1: backend parity — verdicts, schemas, rows, journal
        sqlite_key = _report_key(self.sql.recheck_dirty())
        if sqlite_key != serial_key:
            self._fail("backend-verdicts", step_index,
                       f"memory {serial_key!r}\n  != sqlite {sqlite_key!r}")
        if _schema_key(self.mem.db) != _schema_key(self.sql.db):
            self._fail("backend-schema", step_index,
                       f"memory {_schema_key(self.mem.db)!r}\n  != sqlite "
                       f"{_schema_key(self.sql.db)!r}")
        if repr(self.mem.db.schema_hash()) != repr(self.sql.db.schema_hash()):
            self._fail("backend-schema-hash", step_index,
                       "schema_hash() diverged between backends")
        for table in self.mem.db.tables:
            if self.mem.db.all_rows(table) != self.sql.db.all_rows(table):
                self._fail("backend-rows", step_index,
                           f"rows of {table!r} diverged:\n  memory "
                           f"{self.mem.db.all_rows(table)!r}\n  sqlite "
                           f"{self.sql.db.all_rows(table)!r}")
        if _journal_key(self.mem.db) != _journal_key(self.sql.db) \
                or self.mem.db.version != self.sql.db.version:
            self._fail("backend-journal", step_index,
                       "journal streams diverged between backends")

        # invariant 2: incremental ≡ full re-check
        self.full.incremental.mark_all_dirty()
        full_key = _report_key(self.full.recheck_dirty())
        if full_key != serial_key:
            self._fail("incremental-vs-full", step_index,
                       f"incremental {serial_key!r}\n  != full {full_key!r}")

        # invariant 3: warm sessions ≡ serial
        if self.warm is not None:
            warm_key = _report_key(
                self.warm.recheck_dirty(workers=self.config.workers))
            last_run = self.warm.warm_engine and \
                self.warm.warm_engine.last_warm_run
            if last_run is not None and last_run.remote:
                self.warm_remote += 1
                bump("fuzz.warm_remote")
            if warm_key != serial_key:
                run = self.warm.warm_engine and self.warm.warm_engine.last_warm_run
                self._fail("warm-vs-serial", step_index,
                           f"warm {warm_key!r}\n  != serial {serial_key!r}"
                           f"\n  warm run: {run!r}")

        # invariant 4: static footprints cover dynamic deps, which every
        # cached verdict carries
        from repro.analysis.footprint import FootprintAnalyzer

        analyzer = FootprintAnalyzer(self.mem.registry, self.mem.db,
                                     self.mem.interp)
        for key in self.mem.incremental.results:
            deps = self.mem.incremental.tracker.deps_of(key)
            if deps is None:
                self._fail("static-footprint", step_index,
                           f"{key}: cached verdict carries no dynamic deps")
            footprint = analyzer.footprint_of(key)
            if not footprint.covers(deps):
                self._fail(
                    "static-footprint", step_index,
                    f"{key}: static tables {sorted(footprint.tables)} "
                    f"(wildcard={footprint.wildcard}) does not cover "
                    f"dynamic tables {sorted(deps.tables)}")

        # invariant 5: compiled membership ≡ structural walker — every
        # type the §4 guards would test, probed against a fixed value
        # corpus under both backends (the schema churn above is exactly
        # what reshapes the comp-evaluated types these guards carry)
        from repro.runtime.member_compile import predicate_for
        from repro.runtime.membership import value_has_type

        interp = self.mem.interp
        for spec in interp.check_table.values():
            for rtype in list(spec.arg_types) + [spec.ret_type]:
                pred = predicate_for(rtype)
                for value in self.probes:
                    bump("fuzz.member_probes")
                    compiled = pred(interp, value)
                    structural = value_has_type(interp, value, rtype)
                    if compiled != structural:
                        self._fail(
                            "membership-parity", step_index,
                            f"{spec.method_desc}: {rtype.to_s()} vs "
                            f"{value!r}: compiled={compiled} "
                            f"structural={structural}")

    def _fail(self, invariant: str, step_index: int, detail: str):
        bump("fuzz.violations")
        raise InvariantViolation(invariant, step_index, detail)

    def _kill_one_session_worker(self) -> None:
        engine = self.warm.warm_engine if self.warm is not None else None
        if engine is None:
            return
        # the workers holding this engine's session
        victims = [handle for handle in engine._synced if handle.alive]
        if not victims:
            return
        victim = victims[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=10)
        bump("faults.worker_kills")


def run_events(events, config: StormConfig) -> FuzzReport:
    """Replay a recorded event list (corpus files, shrink candidates).

    Non-applicable steps — preconditions deleted by the shrinker — are
    skipped, so every subsequence is runnable.  Any engine crash is
    reported as an ``engine-crash`` violation rather than propagated: for
    the fuzzer, "never crashes" is an invariant like the others.
    """
    report = FuzzReport(config=config, events=list(events))
    start = time.perf_counter()
    storm = None
    env_before = os.environ.get("REPRO_FAULTS")
    try:
        if config.profile == "faults":
            os.environ["REPRO_FAULTS"] = _fault_env(config)
        storm = _Storm(config)
        try:
            for index, step in enumerate(events):
                bump("fuzz.steps")
                if not storm.model.applies(step):
                    bump("fuzz.skipped")
                    report.skipped += 1
                    continue
                storm.model.apply(step)
                report.steps_run += 1
                if step.op == "check":
                    storm.checkpoint(index)
                else:
                    storm.apply(step)
            if not events or events[-1].op != "check":
                storm.checkpoint(len(events))
        except InvariantViolation as violation:
            report.violation = violation
        except Exception as exc:  # noqa: BLE001 — a crash IS a finding
            bump("fuzz.violations")
            report.violation = InvariantViolation(
                "engine-crash", report.steps_run,
                f"{type(exc).__name__}: {exc}")
    finally:
        if env_before is None:
            os.environ.pop("REPRO_FAULTS", None)
        else:
            os.environ["REPRO_FAULTS"] = env_before
        if storm is not None:
            report.checkpoints = storm.checkpoints
            report.warm_remote = storm.warm_remote
            storm.close()
    report.wall_s = time.perf_counter() - start
    return report


def run_storm(config: StormConfig) -> FuzzReport:
    """Generate a seeded storm and run it (the CLI's entry point)."""
    from repro.apps import app_for_label

    app = app_for_label(config.app)
    model = SchemaModel.of_universe(app.build(backend="memory"))
    events = generate_steps(config.seed, model, config.steps,
                            check_every=config.check_every)
    return run_events(events, config)


def _fault_env(config: StormConfig) -> str:
    """The faults profile's armed plan as a REPRO_FAULTS value."""
    specs = []
    for site, action, arg, after, times in FAULT_PLAN:
        if action == "wedge" and arg is None:
            arg = f"{config.deadline_s * 2:g}"
        specs.append(obs_faults.FaultSpec(
            site=site, action=action, arg=arg, after=after,
            times=times).encode())
    return ";".join(specs)


def max_wall_bound(config: StormConfig) -> float:
    """The graceful-degradation wall-clock bound for a faults run: every
    wedge costs at most one deadline per (re)started worker, plus generous
    slack for attaches and serial fallbacks."""
    return config.deadline_s * 8 + 120.0
