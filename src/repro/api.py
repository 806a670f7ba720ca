"""The public CompRDL facade.

Ties the whole system together, mirroring RDL's workflow (§2):

1. construct a :class:`CompRDL` instance (optionally with a database);
2. :meth:`load` mini-Ruby programs — running them registers classes,
   methods, and ``type`` annotations;
3. :meth:`check` labelled methods — comp types evaluate during checking
   and dynamic checks are attached to comp-typed call sites;
4. :meth:`run` code with ``checks_enabled`` to execute those dynamic
   checks (Blame on violation).

Example::

    from repro import CompRDL, Database

    db = Database()
    db.create_table("users", username="string", staged="boolean")
    rdl = CompRDL(db=db)
    rdl.load(APP_SOURCE)
    report = rdl.check(":model")
    assert report.ok()
"""

from __future__ import annotations

from repro import obs
from repro.annotations import install_all
from repro.comp.reflect import install_type_reflection
from repro.db.schema import Database
from repro.incremental import IncrementalScheduler, IncrementalStats
from repro.orm.activerecord import install_activerecord
from repro.orm.sequel import install_sequel
from repro.runtime.interp import Interp
from repro.typecheck.checker import CheckerConfig, TypeChecker
from repro.typecheck.errors import TypeErrorReport
from repro.typecheck.registry import AnnotationRegistry


class CompRDL:
    """One CompRDL universe: interpreter + registry + checker + DB."""

    def __init__(
        self,
        db: Database | None = None,
        use_comp_types: bool = True,
        insert_checks: bool = True,
        install_libraries: bool = True,
        repair_with_casts: bool = False,
        backend: str | None = None,
        trace: bool | None = None,
        provenance: bool | None = None,
    ):
        if db is not None and backend is not None:
            raise ValueError(
                "pass either db= (an existing Database) or backend= "
                "(a storage backend name for a fresh one), not both")
        # trace=True/False flips the process-wide repro.obs switch (spans
        # are process-scoped, not per-universe); None leaves it alone, so
        # the REPRO_TRACE default and explicit obs.enable() calls survive
        if trace is not None:
            obs.set_enabled(trace)
        # same contract for the verdict-provenance ledger (REPRO_PROVENANCE
        # is its environment default)
        if provenance is not None:
            obs.provenance.set_enabled(provenance)
        self.interp = Interp()
        self.registry = AnnotationRegistry()
        self.interp.registry = self.registry
        install_type_reflection(self.interp)
        self.db = db if db is not None else Database(backend=backend)
        install_activerecord(self.interp, self.db)
        install_sequel(self.interp, self.db)
        self.library_stats: dict = {}
        if install_libraries:
            self.library_stats = install_all(self)
        self.config = CheckerConfig(
            use_comp_types=use_comp_types,
            insert_checks=insert_checks,
            repair_with_casts=repair_with_casts,
        )
        self.checker = TypeChecker(self.interp, self.registry, self.config)
        self.incremental = IncrementalScheduler(self.checker, self.registry,
                                                self.db)
        # replayability: a fresh rebuild from the app recipe (everything
        # up to mark_pristine) plus the post_build_loads log reproduces this
        # universe unless replay_blocker names the first event that broke
        # that — warm session engines replay the log onto worker replicas,
        # or fall back to serial checking with the blocker as the reason
        self.post_build_loads: list[str] = []
        self.replay_blocker: str | None = "universe was never marked pristine"
        self.pristine_generation: int | None = None
        self._pristine_keys: frozenset = frozenset()
        self._loading = False
        self._warm_engine = None
        # True when _warm_engine was adopted from a caller-owned fleet
        # (adopt_warm_engine): shutdown_warm then detaches instead of
        # closing — the owner's other universes must keep working
        self._warm_engine_adopted = False
        # per-recv reply deadline for warm session workers (None → the
        # process default, sessions.DEADLINE_S); set before the first
        # recheck_dirty(workers=N) call — the fuzzer's fault profile uses a
        # tight deadline so a wedged worker is detected within the round
        self.warm_deadline_s: float | None = None
        self.registry.add_method_listener(self._note_method_event)

    # ------------------------------------------------------------------
    def _block_replay(self, reason: str) -> None:
        if self.replay_blocker is None:  # the first offending event wins
            self.replay_blocker = reason

    def _note_method_event(self, key, redefined) -> None:
        if key in self._pristine_keys:
            self._block_replay(
                f"post-build (re)definition of {key} — a redefined "
                f"type-level helper can change any verdict")
        elif not self._loading:
            self._block_replay(
                f"method {key} defined outside load(), not replayable")

    def load(self, source: str):
        """Execute a mini-Ruby program (defining classes and annotations)."""
        version_before = self.db.version
        self._loading = True
        try:
            with obs.span("universe.load") as sp:
                sp.set("bytes", len(source))
                result = self.interp.run(source)
        finally:
            self._loading = False
        # every source is a replayable definition record: a load that only
        # defines a class (no method events) still shapes later verdicts,
        # so warm replicas must replay it too
        self.post_build_loads.append(source)
        if self.db.version != version_before:
            # the source migrated the schema: its events are already in the
            # journal, so replaying the source would apply them twice
            self._block_replay("a post-build load migrated the schema "
                               "itself: its journal events and its source "
                               "would replay twice")
        return result

    def mark_pristine(self) -> None:
        """Declare the current state reproducible from scratch: everything
        loaded so far is part of this universe's canonical build recipe
        (``SubjectApp.build`` calls this after loading the app source).
        Loads *afterwards* diverge from a fresh rebuild, which the warm
        session engine replays from ``post_build_loads`` unless
        ``replay_blocker`` says it cannot.  A second call absorbs the
        post-build loads into a baseline no app recipe reproduces, so it
        blocks replay for good."""
        self.replay_blocker = (
            None if self.pristine_generation is None else
            "the universe was re-marked pristine after build: replicas "
            "rebuilt from the app recipe cannot reproduce it")
        self.post_build_loads = []
        self.pristine_generation = self.db.version
        self._pristine_keys = (frozenset(self.registry.defined_methods)
                               | frozenset(self.registry.method_annotations))

    def check(self, label: str) -> TypeErrorReport:
        """Type check every method annotated ``typecheck: :label``."""
        label = label.lstrip(":")
        return self.checker.check_label(label)

    def check_method(self, class_name: str, method_name: str,
                     static: bool = False) -> TypeErrorReport:
        return self.checker.check_method(class_name, method_name, static)

    def check_requests(self) -> TypeErrorReport:
        """Honour every ``RDL.do_typecheck :label`` the program issued."""
        for label in self.registry.typecheck_requests:
            self.checker.check_label(label)
        return self.checker.report

    # ------------------------------------------------------------------
    # incremental checking (schema-versioned memoization + dirty tracking)
    # ------------------------------------------------------------------
    def check_all(self, labels, workers: int = 1) -> TypeErrorReport:
        """Batch-check one or more labels through the incremental engine.

        The first call verifies everything; subsequent calls (including
        after schema migrations) reuse every verdict whose recorded
        dependencies are untouched and re-check only the rest.

        With ``workers > 1`` the pending methods are checked on up to that
        many warm session workers, exactly like ``recheck_dirty(workers=N)``:
        a cold check is a session attach with an empty delta.  Every label
        must name a :mod:`repro.apps` subject app.  The universe's warm
        engine is used when its width matches; otherwise a transient one
        runs the round and is closed before returning.  Worker verdicts and
        dependencies are fed back into the incremental engine, the report
        is verdict-for-verdict identical to a serial run, and deltas that
        cannot be bounded fall back to the serial path.
        """
        if workers <= 1:
            return self.incremental.check_all(labels)
        # one span over the whole call, the transient fleet's shutdown
        # included, so a traced run attributes all of it to the fleet
        with obs.span("fleet.round"):
            engine = self._warm_engine
            transient = engine is None or engine.workers != workers
            if transient:
                engine = self._new_engine(workers)
            try:
                return engine.check(self, labels)
            finally:
                if transient:
                    engine.close()

    def recheck_dirty(self, workers: int = 1) -> TypeErrorReport:
        """Re-verify only methods dirtied by schema changes since the last
        ``check_all``; the returned report covers every known method,
        verdict-for-verdict equal to a full re-check.

        With ``workers > 1`` the dirty methods are sharded across *warm
        session workers*: each worker keeps live replicas of this
        universe's subject apps, receives the schema-journal delta (and any
        post-build ``load`` sources) instead of rebuilding, and checks only
        its slice.  The session stays attached between calls, so a
        migrate → recheck loop pays one build ever.  Deltas that cannot be
        bounded — a post-build method *re*definition, a label without a
        subject app, an over-long journal — fall back to the serial path;
        either way the report is verdict-for-verdict identical.
        """
        if workers <= 1:
            return self.incremental.recheck_dirty()
        engine = self._warm_engine
        if engine is None or engine.workers != workers:
            self.shutdown_warm()
            engine = self._warm_engine = self._new_engine(workers)
        return engine.recheck_dirty(self)

    def _new_engine(self, workers: int):
        from repro.parallel import ParallelCheckEngine

        return ParallelCheckEngine(
            workers=workers,
            stats=self.incremental_stats,
            backend=self.db.backend_name,
            deadline_s=self.warm_deadline_s,
        )

    @property
    def warm_engine(self):
        """The warm session engine behind ``recheck_dirty(workers=N)``
        (None until first used; ``check_all(workers=N)`` uses it too but
        never creates it); exposes diagnostics like
        ``last_warm_run``."""
        return self._warm_engine

    def adopt_warm_engine(self, engine) -> None:
        """Use ``engine``'s worker fleet for ``check_all(workers=N)`` and
        ``recheck_dirty(workers=N)``.

        A primed fleet (``engine.prime(labels)``) holds pristine replicas
        in its workers' warm catalogs, so the first session attach
        adopts them instead of rebuilding — the shared-catalog path that
        collapses warm-setup cost.  The adopting universe does NOT own the
        engine: ``shutdown_warm()`` releases the reference without closing
        it, and the caller remains responsible for ``engine.close()``.
        """
        if self._warm_engine is engine:
            return
        self.shutdown_warm()
        self._warm_engine = engine
        self._warm_engine_adopted = True

    def shutdown_warm(self) -> None:
        """Shut down the warm session workers (if any).  An adopted engine
        (:meth:`adopt_warm_engine`) is detached, not closed — its owner
        keeps using the fleet."""
        if self._warm_engine is not None:
            if self._warm_engine_adopted:
                self._warm_engine.detach()
            else:
                self._warm_engine.close()
            self._warm_engine = None
        self._warm_engine_adopted = False

    @property
    def incremental_stats(self) -> IncrementalStats:
        """Cache hit/miss and scheduling counters for this universe."""
        return self.checker.engine.stats

    # ------------------------------------------------------------------
    # static analysis (repro.analysis)
    # ------------------------------------------------------------------
    def analyze(self, label: str = ""):
        """Run the static passes (footprint inference + effect lint) over
        every labelled method of this universe, without executing any
        type-level code.

        Returns an :class:`~repro.analysis.report.AnalysisReport` and, as
        a side effect, seeds the incremental scheduler with the inferred
        footprints (static ⊇ dynamic): verdicts that carry no dynamic deps
        become precisely re-dirtiable, the shard planner gets per-method
        static costs, and warm sessions can prove a journal delta
        irrelevant before shipping a sync.  Re-running after schema or
        annotation changes recomputes automatically.
        """
        from repro.analysis import analyze_universe

        report = analyze_universe(self, label=label)
        self.incremental.adopt_static_footprints(report.footprints)
        extra = self.incremental_stats.extra
        counts = report.counts()
        extra["analysis.diagnostics"] = counts["diagnostics"]
        extra["analysis.wildcards"] = counts["wildcard_footprints"]
        return report

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """One flat dict of every layer's counters with stable keys: this
        universe's :class:`IncrementalStats` plus the process-wide VM
        inline-cache, intern-table and obs counters."""
        return obs.metrics_snapshot(self.incremental_stats)

    def export_trace(self, path: str) -> str:
        """Write the buffered trace (this process + absorbed worker spans)
        as Chrome ``trace_event`` JSON, with this universe's metrics
        snapshot attached; returns ``path``."""
        return obs.export_chrome_trace(path, metrics=self.metrics_snapshot())

    def explain(self, class_name: str, method_name: str,
                static: bool = False, render: bool = False):
        """Why is this method's verdict what it is, and what changed it?

        Answers from the provenance ledger (enable with
        ``CompRDL(provenance=True)``, ``obs.provenance.enable()``, or
        ``REPRO_PROVENANCE=1``): how the verdict was produced (fresh
        in-process check or warm-session worker — with
        pid / shard / session id), the dependency footprint it was recorded
        with, the schema generation it was checked at and whether it has
        gone stale since, the journal events that dirtied it, comp-cache
        hit/miss attribution, timing, and the method's verdict-flip
        history.  Returns a structured dict, or the rendered tree (one
        string) with ``render=True``.
        """
        info = obs.provenance.explain(
            self.incremental, class_name, method_name, static=static)
        return obs.provenance.render_explain(info) if render else info

    def export_provenance(self, path: str) -> str:
        """Write this universe's provenance ledger as JSONL (one verdict
        record per line, ordered by record time — the same µs timeline the
        trace spans use); returns ``path``."""
        return obs.provenance.export_jsonl(
            path, ledgers=[self.incremental.provenance])

    # ------------------------------------------------------------------
    def run(self, source: str, checks: bool | None = None):
        """Run code, optionally toggling the inserted dynamic checks."""
        previous = self.interp.checks_enabled
        if checks is not None:
            self.interp.checks_enabled = checks
        try:
            return self.interp.run(source)
        finally:
            self.interp.checks_enabled = previous

    @property
    def report(self) -> TypeErrorReport:
        return self.checker.report

    @property
    def stdout(self) -> list[str]:
        return self.interp.stdout
