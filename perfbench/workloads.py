"""The three closed-loop workloads: ``paper_apps``, ``schema_churn``, ``fleet``.

One client (this process) waits for each verdict before it sends the next
request.  Each workload runs *cycles*; a cycle has one ``verify`` operation
(check a freshly built program), several ``step`` operations (the loop that
follows verification) and, for each step, a ``reference`` operation (the
computation the step's oracle compares against).  Only ``verify`` and
``step`` run inside the per-layer ledger; ``reference`` and every oracle
run outside the timed windows.

The system is driven only through public entry points: ``SubjectApp.build``,
``CompRDL.check``/``check_all``/``recheck_dirty``/``run``/``load``, the
``Database`` migration and row methods, and ``ParallelCheckEngine``.
"""

from __future__ import annotations

import contextlib
import gc
import random
import time
from collections import Counter, defaultdict
from statistics import median

from repro import obs
from repro.apps import DISCOURSE, all_apps
from repro.fuzz.generate import COLUMN_KINDS, SchemaModel, generate_steps
from repro.parallel import ParallelCheckEngine

from perfbench import calibrate, synth
from perfbench.churn import EventApplier, batches

#: verdicts the six Table-2 apps must produce: label -> (methods, errors)
PAPER_EXPECTED = {
    "wikipedia": (17, 0), "twitter": (3, 0), "discourse": (34, 0),
    "huginn": (7, 0), "codeorg": (31, 1), "journey": (20, 2),
}
#: schema_churn: tables in the synthetic app (~12x Discourse's methods)
CHURN_TABLES = 60
#: schema_churn: storm length per cycle (a check every CHURN_CHECK_EVERY)
CHURN_STEPS = 120
CHURN_CHECK_EVERY = 20
#: fleet: worker processes (one per core of a 2-core machine)
FLEET_WORKERS = 2
#: fleet: warm migrate-and-recheck rounds per cycle
FLEET_WARM_ROUNDS = 24
#: fleet: the table-backed app whose universe adopts the primed engine
FLEET_WARM_APP = DISCOURSE


def report_key(report) -> tuple:
    """What two verdicts must agree on (the parity suites' idiom)."""
    return (tuple(report.checked_methods),
            tuple(str(error) for error in report.errors),
            report.casts_used, report.oracle_casts)


def widest_fanout_table(rdl) -> str:
    """The checked table the most verdicts depend on."""
    fanout = {table: count
              for table, count in rdl.incremental.table_fanout().items()
              if table in rdl.db.tables}
    return max(sorted(fanout), key=lambda table: fanout[table])


class OracleMiss(AssertionError):
    """An operation's verdict differs from its independent answer."""


class Workload:
    """Shared cycle bookkeeping: samples, failures and the traced flag."""

    name = ""
    why = ""
    backend = "memory"
    workers = 1
    scale = ""
    #: what verify / step / reference are called in this workload (the
    #: names the run record prints and the ROADMAP uses)
    op_names: dict = {}
    #: cycles after which this process's peak RSS is read (and the fewest
    #: cycles a run makes)
    rss_cycles = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        #: op kind -> speed-normalized latencies in ms (see calibrate),
        #: for untraced and traced cycles, and the raw wall times
        self.plain: dict = defaultdict(list)
        self.traced: dict = defaultdict(list)
        self.wall: dict = defaultdict(list)
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()

    # -- the runner's interface ------------------------------------------
    def setup(self) -> None:
        """Prepare the workload, including one untimed warm-up cycle, then
        forget everything the warm-up counted."""
        self.prepare()
        for store in (self.plain, self.traced, self.wall):
            store.clear()
        self.attempted = self.failed = 0
        self.failures.clear()
        self.reset_counts()

    def prepare(self) -> None:
        raise NotImplementedError

    def reset_counts(self) -> None:
        """Zero the workload's own tallies after the warm-up cycle."""

    def cycle(self, index: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def record(self) -> dict:
        """Workload-specific lines for the run record."""
        return {}

    def layer_metrics(self) -> dict:
        """Per-layer figures that need no trace (rates, per-batch counts)."""
        return {}

    def traced_cycle(self, events) -> None:
        """Take workload-specific figures from one traced cycle's spans."""

    def finish_ledger(self, layers: dict) -> None:
        """Adjust the summed layer self times (ms) before they are shared
        out per cycle."""

    # -- helpers -----------------------------------------------------------
    @contextlib.contextmanager
    def op(self, kind: str, ledger: bool = True):
        """Time one operation, bracketed by calibration runs; in a traced
        cycle, trace it too (only ``verify`` and ``step`` enter the
        ledger).  A verify starts from a fully collected heap, so it pays
        for its own garbage and not for the oracle work before it."""
        trace = self.tracing and ledger
        samples = self.traced if self.tracing else self.plain
        if kind == "verify":
            gc.collect()
        speed = calibrate.kernel_ms()
        if trace:
            obs.enable()
        try:
            with obs.span("bench.op", label=kind):
                start = time.perf_counter()
                yield
                elapsed = (time.perf_counter() - start) * 1e3
        finally:
            if trace:
                obs.disable()
        speed = (speed + calibrate.kernel_ms()) / 2
        samples[kind].append(elapsed * calibrate.REFERENCE_MS / speed)
        if not self.tracing:
            self.wall[kind].append(elapsed)

    def attempt(self, what: str, fn, *args):
        """Run one operation-with-oracle; any exception or oracle miss is a
        failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 — a failure is a result here
            self.failed += 1
            self.failures[f"{what}: {type(exc).__name__}: {exc}"[:200]] += 1
            return None


# ---------------------------------------------------------------------------
# paper_apps: the paper's own Table-2 workflow
# ---------------------------------------------------------------------------

class PaperApps(Workload):
    name = "paper_apps"
    why = ("the paper's Table-2 workflow: build and check the six apps, then "
           "run each test suite with checks off and on")
    scale = "6 apps, 112 methods"
    op_names = {"verify": "check_round", "step": "suite_checked",
                "reference": "suite_unchecked"}
    rss_cycles = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        self.apps = all_apps()
        self.app_ms: dict = defaultdict(list)

    def prepare(self) -> None:
        # one untimed round: first CompRDL(), parse and compile caches
        self.cycle(-1)

    def reset_counts(self) -> None:
        self.app_ms.clear()

    def cycle(self, index: int) -> None:
        order = list(self.apps)
        self.rng.shuffle(order)
        universes = self.attempt("verify", self._verify, order)
        if universes is None:
            return
        kinds = ["reference", "step"]
        if index % 2:
            kinds.reverse()  # alternate which suite pass runs first
        values = {kind: self.attempt(f"suite {kind}", self._suite_pass,
                                     universes, kind) for kind in kinds}
        if None not in values.values():
            self.attempt("suite parity", self._same_values,
                         values["reference"], values["step"])

    def _verify(self, order):
        universes = []
        with self.op("verify"):
            for app in order:
                start = time.perf_counter()
                rdl = app.build(backend=self.backend)
                report = rdl.check(app.label)
                self.app_ms[app.label].append(
                    (time.perf_counter() - start) * 1e3)
                universes.append((app, rdl, report))
        for app, _rdl, report in universes:
            got = (len(report.checked_methods), len(report.errors))
            if got != PAPER_EXPECTED[app.label]:
                raise OracleMiss(f"{app.label}: (methods, errors) {got} != "
                                 f"{PAPER_EXPECTED[app.label]}")
        return [(app, rdl) for app, rdl, _ in universes if app.test_suite]

    def _suite_pass(self, universes, kind: str):
        """One pass of the six test suites: the step runs with the inserted
        dynamic checks on, the reference with them off."""
        checked = kind == "step"
        values = []
        with self.op(kind, ledger=checked):
            for app, rdl in universes:
                with obs.span("bench.runtime.run"):
                    values.append(rdl.run(app.test_suite, checks=checked))
        return values

    @staticmethod
    def _same_values(unchecked, checked):
        if unchecked != checked:
            raise OracleMiss(f"suite values differ with checks on: "
                             f"{unchecked!r} != {checked!r}")

    def record(self) -> dict:
        rows = []
        for app in self.apps:
            samples = self.app_ms.get(app.label) or [0.0]
            methods, errors = PAPER_EXPECTED[app.label]
            rows.append({"app": app.name, "build_check_ms_p50":
                         round(median(samples), 3),
                         "methods": methods, "errors": errors,
                         "paper": dict(app.paper)})
        return {"table2": rows}

    def layer_metrics(self) -> dict:
        checked = self.plain.get("step")
        unchecked = self.plain.get("reference")
        if not checked or not unchecked:
            return {}
        return {"runtime.check_overhead_pct":
                (median(checked) / median(unchecked) - 1.0) * 100.0}


# ---------------------------------------------------------------------------
# schema_churn: the long-running-service loop on a scaled synthetic app
# ---------------------------------------------------------------------------

class SchemaChurn(Workload):
    name = "schema_churn"
    why = ("a 60-table synthetic app on sqlite: verify fresh source, then "
           "seeded migrations, row writes and probe loads with recheck_dirty")
    backend = "sqlite"
    op_names = {"verify": "scaled_verify", "step": "recheck",
                "reference": "full_recheck"}
    scale = f"{CHURN_TABLES} tables, {CHURN_TABLES * synth.METHODS_PER_TABLE} methods"
    rss_cycles = 5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops: Counter = Counter()
        self.rechecked = 0
        self.reused = 0
        self.batches = 0

    def prepare(self) -> None:
        self.cycle(-1)

    def reset_counts(self) -> None:
        self.ops.clear()
        self.rechecked = self.reused = self.batches = 0

    def cycle(self, index: int) -> None:
        app = synth.generate(self.seed, CHURN_TABLES, variant=index + 1)
        rdl = app.build(self.backend)
        twin = app.build("memory")
        if self.attempt("verify", self._verify, app, rdl, twin) is None:
            return
        model = SchemaModel.of_universe(rdl)
        steps = generate_steps(self.rng.randrange(2**31), model, CHURN_STEPS,
                               check_every=CHURN_CHECK_EVERY)
        live = EventApplier(rdl, synth.LABEL)
        shadow = EventApplier(twin, synth.LABEL)
        for count, batch in enumerate(batches(steps)):
            if index < 0 and count == 2:
                break  # the warm-up cycle only needs the caches filled
            self.attempt("recheck", self._recheck, rdl, twin, live, shadow,
                         batch)
        self.ops.update(live.ops)

    def _verify(self, app, rdl, twin):
        with self.op("verify"):
            rdl.load(app.source)
            report = rdl.check_all(synth.LABEL)
        got = (len(report.checked_methods), len(report.errors))
        want = (app.expected_methods, app.expected_errors)
        if got != want:
            raise OracleMiss(f"scaled verify: (methods, errors) {got} != {want}")
        flagged = {error.method.rsplit(".", 1)[-1] for error in report.errors}
        if flagged != app.injected_methods:
            raise OracleMiss(f"errors in {sorted(flagged)}, injected "
                             f"{sorted(app.injected_methods)}")
        twin.load(app.source)
        if report_key(twin.check_all(synth.LABEL)) != report_key(report):
            raise OracleMiss("sqlite and memory verdicts differ after load")
        return report

    def _recheck(self, rdl, twin, live, shadow, batch):
        stats = rdl.incremental_stats
        checked, skipped = stats.methods_checked, stats.methods_skipped
        with self.op("step"):
            for step in batch:
                live.apply(step)
            report = rdl.recheck_dirty()
        self.rechecked += stats.methods_checked - checked
        self.reused += stats.methods_skipped - skipped
        self.batches += 1
        for step in batch:
            shadow.apply(step)
        with self.op("reference", ledger=False):
            # the fuzzer's full-re-check oracle: everything dirty, rechecked
            twin.incremental.mark_all_dirty()
            full = twin.recheck_dirty()
        if report_key(report) != report_key(full):
            raise OracleMiss("incremental recheck differs from a full re-check")
        return report

    def record(self) -> dict:
        return {"ops": dict(sorted(self.ops.items())),
                "batches": self.batches}

    def layer_metrics(self) -> dict:
        total = self.rechecked + self.reused
        return {
            "incremental.reuse_rate": self.reused / total if total else 0.0,
            "incremental.methods_rechecked_per_batch":
                self.rechecked / self.batches if self.batches else 0.0,
        }


# ---------------------------------------------------------------------------
# fleet: the 2-worker parallel paths
# ---------------------------------------------------------------------------

class Fleet(Workload):
    name = "fleet"
    why = ("check_all(workers=2) on fresh apps and warm recheck_dirty("
           "workers=2) after migrations: the only workload that runs parallel/")
    workers = FLEET_WORKERS
    op_names = {"verify": "fleet_check", "step": "warm_recheck",
                "reference": "serial_recheck"}
    scale = f"6 apps cold, {FLEET_WARM_APP.label} warm"
    rss_cycles = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        self.engine = None
        self.warm = None
        self.twin = None
        self.expected: dict = {}
        self.order: list = []
        self.probe = None      # (column, kind) while the probe column exists
        self.probes = 0
        self.warm_rounds = 0
        self.remote_rounds = 0
        self.retries = 0
        self.rechecked = 0
        #: the parallel layers' figures, summed over traced cycles
        self.extras: dict = defaultdict(float)

    def prepare(self) -> None:
        labels = [app.label for app in all_apps()]
        self.engine = ParallelCheckEngine(workers=self.workers,
                                          backend=self.backend)
        self.engine.prime(labels)
        for app in all_apps():
            serial = app.build(backend=self.backend)
            self.expected[app.label] = report_key(serial.check_all(app.label))
        app = FLEET_WARM_APP
        self.warm = app.build(backend=self.backend)
        self.warm.check_all(app.label)
        self.twin = app.build(backend=self.backend)
        self.twin.check_all(app.label)
        self.table = widest_fanout_table(self.warm)
        self.warm.adopt_warm_engine(self.engine)
        # the first round attaches the session: set-up, not a sample
        self.cycle(-1)

    def reset_counts(self) -> None:
        self.warm_rounds = self.remote_rounds = self.retries = 0
        self.rechecked = 0

    def close(self) -> None:
        if self.warm is not None:
            self.warm.shutdown_warm()
        if self.engine is not None:
            self.engine.close()

    def cycle(self, index: int) -> None:
        if not self.order:
            self.order = list(all_apps())
            self.rng.shuffle(self.order)
        app = self.order.pop()
        rdl = app.build(backend=self.backend)
        self.attempt("fleet check", self._fleet_check, app, rdl)
        rounds = 1 if index < 0 else FLEET_WARM_ROUNDS
        for _ in range(rounds):
            self.attempt("warm recheck", self._warm_recheck)

    def _fleet_check(self, app, rdl):
        with self.op("verify"):
            report = rdl.check_all(app.label, workers=self.workers)
        if report_key(report) != self.expected[app.label]:
            raise OracleMiss(f"{app.label}: fleet verdicts differ from serial")

    def _migrate(self, db) -> None:
        column, kind = self.probe
        with obs.span("bench.db.migration"):
            if column in db.tables[self.table].columns:
                db.drop_column(self.table, column)
            else:
                db.add_column(self.table, column, kind)

    def _warm_recheck(self):
        if self.probe is None:
            self.probes += 1
            self.probe = (f"bench_probe{self.probes}",
                          self.rng.choice(COLUMN_KINDS))
        with self.op("step"):
            self._migrate(self.warm.db)
            report = self.warm.recheck_dirty(workers=self.workers)
        run = self.warm.warm_engine.last_warm_run
        with self.op("reference", ledger=False):
            self._migrate(self.twin.db)
            serial = self.twin.recheck_dirty()
        if self.probe[0] not in self.warm.db.tables[self.table].columns:
            self.probe = None  # dropped: the next round adds a fresh one
        self.warm_rounds += 1
        self.remote_rounds += bool(run.remote)
        self.retries += run.retries
        self.rechecked += run.methods
        if self.tracing:
            self.extras["warm_critical_ms"] += max(
                (r.check_s for r in run.results), default=0.0) * 1e3
        if report_key(report) != report_key(serial):
            raise OracleMiss("warm verdicts differ from the serial twin")

    def traced_cycle(self, events) -> None:
        """Split the cold fan-out window into spawn, critical path and IPC
        wait, from the worker spans absorbed into this cycle's trace."""
        from perfbench.ledger import spans_named

        shards = spans_named(events, "shard.run")
        for window in spans_named(events, "bench.parallel.fanout"):
            inside = [s for s in shards
                      if window["ts"] <= s["ts"] <= window["ts"] + window["dur"]]
            if not inside:
                continue
            self.extras["spawn_ms"] += (
                min(s["ts"] for s in inside) - window["ts"]) / 1e3
            self.extras["cold_critical_ms"] += max(
                s["dur"] for s in inside) / 1e3

    def finish_ledger(self, layers: dict) -> None:
        """Charge the engine-side waiting (the cold fan-out window and the
        self time of each warm round) to spawn, the critical path and the
        IPC wait that remains."""
        extras = self.extras
        critical = extras["cold_critical_ms"] + extras["warm_critical_ms"]
        waiting = (layers.pop("parallel.fanout_ms", 0.0)
                   + layers.pop("parallel.warm_round_ms", 0.0))
        layers["parallel.spawn_ms"] = extras["spawn_ms"]
        layers["parallel.critical_path_ms"] = critical
        layers["parallel.ipc_wait_ms"] = waiting - extras["spawn_ms"] - critical

    def record(self) -> dict:
        return {"warm_app": FLEET_WARM_APP.label, "warm_table": self.table,
                "warm_rounds": self.warm_rounds,
                "remote_rounds": self.remote_rounds,
                "dirty_per_round": (self.rechecked / self.warm_rounds
                                    if self.warm_rounds else 0.0)}

    def layer_metrics(self) -> dict:
        return {
            "parallel.remote_round_frac": (self.remote_rounds / self.warm_rounds
                                           if self.warm_rounds else 0.0),
            "parallel.retries": float(self.retries),
            "incremental.methods_rechecked_per_batch":
                self.rechecked / self.warm_rounds if self.warm_rounds else 0.0,
        }


WORKLOADS = {cls.name: cls for cls in (PaperApps, SchemaChurn, Fleet)}
