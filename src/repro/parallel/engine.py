"""The parallel checking fleet: pool management and orchestration.

Every off-process check speaks the session protocol
(:mod:`repro.parallel.protocol`) to one pool of session workers:

* :class:`ParallelCheckEngine` — a persistent fleet for checking one or
  more subject-app labels across spawn workers, keeping the worker pool
  warm between rounds (a cold check of the combined apps is one round; a
  long-lived checking service runs many).  A cold round sends each shard
  as a ``CheckRequest`` with session id ``None``, which the worker checks
  against its pristine replica catalog.  Observed per-method and
  per-app-build costs flow back into the engine's stats after every round
  (EWMA), and observed shard *imbalance* tunes the planner's split
  threshold, so later plans balance on measurements instead of heuristics.
* the engine's **warm session** methods (:meth:`ParallelCheckEngine.attach`
  / :meth:`migrate` / :meth:`check` / :meth:`recheck_dirty`) — a live
  universe's checks: session workers keep replicas of its subject app,
  receive schema-journal deltas plus post-build load records, and check
  only the pending methods; the merged report is verdict-for-verdict
  identical to the serial incremental path.  ``CompRDL.check_all(labels,
  workers=N)`` is :meth:`check`: a cold check is a session attach with an
  empty delta.  A universe whose ``replay_blocker`` is set (a post-build
  method *re*definition — a redefined type-level helper can change any
  verdict, which no dependency footprint bounds — among others), or whose
  journal has forgotten the needed events, falls back to the serial
  incremental path.
"""

from __future__ import annotations

import os
import time
# not used by the engine itself: kept as a module attribute because the
# benchmark's traced runs (perfbench/ledger.py) patch it
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

from repro.incremental.stats import IncrementalStats
from repro.obs import provenance as obs_prov
from repro.obs import spans as obs_spans
from repro.parallel import worker as worker_mod
from repro.parallel.merge import feed_incremental, merge_report
from repro.parallel.planner import Shard, plan_shards
from repro.parallel.protocol import (
    AttachUniverse,
    CheckRequest,
    DetachSession,
    MethodSpec,
    SessionDelta,
    ShardResult,
)
from repro.parallel.sessions import (
    DEADLINE_S,
    SessionPool,
    SessionRequestFailed,
    WarmRun,
    WorkerLost,
    new_session_id,
)
from repro.typecheck.errors import TypeErrorReport

#: shard-CPU imbalance (max/mean) a round may show before the engine
#: loosens the planner's split threshold for the next round
SPLIT_IMBALANCE_TOLERANCE = 1.25
#: ceiling/decay for the feedback-driven split bias
SPLIT_BIAS_MAX = 8.0
SPLIT_BIAS_DECAY = 0.7
#: session-sync retry budget: a lost/failed sync drops the pool (stale
#: pipes cannot be resynchronized) and cold-reattaches a fresh one after
#: an exponential backoff
SYNC_ATTEMPTS = 3
SYNC_BACKOFF_S = 0.05


class WarmSyncError(RuntimeError):
    """A warm session could not be converged with the live universe."""


@dataclass
class ParallelRun:
    """One fleet round: the merged report plus scheduling diagnostics."""

    report: TypeErrorReport
    shards: list[Shard] = field(default_factory=list)
    results: list[ShardResult] = field(default_factory=list)
    wall_s: float = 0.0          # parent-observed wall time for the round
    plan_s: float = 0.0          # time spent planning + merging (serial part)
    critical_path_s: float = 0.0  # max worker CPU time: projected wall on
                                  # a machine with >= workers free cores


def specs_for_labels(labels, registry_for_label) -> list[MethodSpec]:
    """The serial-order method list for ``labels`` (registry order per
    label).  Dedup is by *method key*, matching the serial scheduler: a
    method annotated under several requested labels is checked once, under
    the first label that names it."""
    specs: list[MethodSpec] = []
    seen: set = set()
    for label in labels:
        registry = registry_for_label(label)
        for key in registry.methods_for_label(label):
            if key not in seen:
                seen.add(key)
                specs.append(MethodSpec(
                    label, key.class_name, key.method_name, key.static))
    return specs


def _normalize_labels(labels) -> list[str]:
    if isinstance(labels, str):
        labels = [labels]
    return [label.lstrip(":") for label in labels]


def _static_costs_of(scheduler) -> dict | None:
    """Analysis-derived planner cost weights (desc -> weight) from the
    scheduler's seeded static footprints; None until ``CompRDL.analyze()``
    (or an explicit seed) has run."""
    footprints = getattr(scheduler, "static_footprints", None)
    if not footprints:
        return None
    return {str(key): footprint.cost_weight()
            for key, footprint in footprints.items()}


class ParallelCheckEngine:
    """A persistent multi-process checking fleet over subject-app labels."""

    def __init__(self, workers: int | None = None,
                 stats: IncrementalStats | None = None,
                 backend: str | None = None,
                 deadline_s: float | None = None):
        self.workers = max(1, workers or os.cpu_count() or 1)
        # per-recv reply deadline for session workers (None → the process
        # default in sessions.DEADLINE_S); a wedged worker is killed and
        # re-planned around instead of blocking the engine forever
        self.deadline_s = deadline_s
        # storage backend name for every universe this fleet builds —
        # parent-side catalogs and worker-side rebuilds alike (None → the
        # REPRO_DB_BACKEND environment default, which spawn children
        # inherit); the name travels in each request, never a connection
        self.backend = backend
        self.stats = stats or IncrementalStats()
        self.build_costs: dict[str, float] = {}
        self._catalog: dict[str, object] = {}  # label -> CompRDL (enumeration)
        # observed-imbalance feedback into the planner's split threshold
        self.split_bias: float = 1.0
        # warm session state: a pool of stateful session workers plus the
        # universe currently attached to them
        self._session_pool: SessionPool | None = None
        self._attached_rdl = None
        self._attached_labels: list[str] = []
        self._session_id: str | None = None
        self.last_warm_run: WarmRun | None = None

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def prime(self, labels) -> float:
        """One-time fleet set-up for ``labels``: build the parent-side
        catalog universes (method enumeration + serial order), spin up
        every worker and pre-build the labels into each worker's pristine
        replica catalog, so the first cold round — and a later session
        attach — reuses them instead of rebuilding.  Returns the set-up
        wall time; after this, ``check_labels`` rounds measure steady-state
        checking only."""
        start = time.perf_counter()
        labels = _normalize_labels(labels)
        for label in labels:
            self._catalog_universe(label)
        if self.workers == 1:
            # degenerate fleet: everything runs in-process, nothing to warm
            return time.perf_counter() - start
        prebuild = AttachUniverse(None, tuple(labels), backend=self.backend)
        sent = []
        for handle in self._session_handles():
            try:
                handle.send(prebuild)
                sent.append(handle)
            except WorkerLost:
                continue
        for handle in sent:
            try:
                handle.recv(deadline_s=self._cold_deadline())
            except (WorkerLost, SessionRequestFailed):
                continue
        return time.perf_counter() - start

    def _session_handles(self):
        """The shared session-worker pool (spawned on first use): one fleet
        of processes serves cold shards, prebuilds and warm sessions, so
        their module-level replica catalogs are shared."""
        if self._session_pool is None:
            self._session_pool = SessionPool(
                self.workers, deadline_s=self.deadline_s)
        return self._session_pool.ensure()

    def _cold_deadline(self) -> float:
        # cold work (full app builds) legitimately takes seconds: use the
        # generous process default even when the engine runs with a tight
        # per-request deadline
        return max(DEADLINE_S[0], self.deadline_s or 0.0)

    def close(self) -> None:
        if self._session_pool is not None:
            self._session_pool.close()
            self._session_pool = None
        self._attached_rdl = None
        self._attached_labels = []
        self._session_id = None

    def __enter__(self) -> "ParallelCheckEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def _registry_for_label(self, label: str):
        return self._catalog_universe(label).registry

    def _catalog_universe(self, label: str):
        """A parent-side build of the label's app, cached: the source of the
        serial method order and of the heuristic cost model's AST bodies."""
        from repro.apps import app_for_label

        universe = self._catalog.get(label)
        if universe is None:
            build_start = time.perf_counter()
            universe = app_for_label(label).build(backend=self.backend)
            self.build_costs.setdefault(
                label, time.perf_counter() - build_start)
            self._catalog[label] = universe
        return universe

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def check_labels(self, labels) -> ParallelRun:
        """One cold fleet check of ``labels`` across the worker pool."""
        labels = _normalize_labels(labels)
        round_start = time.perf_counter()
        round_span = obs_spans.span("fleet.round", label=",".join(labels))
        round_span.__enter__()
        plan_start = time.perf_counter()
        specs = specs_for_labels(labels, self._registry_for_label)
        shards = plan_shards(
            specs,
            self.workers,
            registry_for_label=self._registry_for_label,
            stats=self.stats,
            build_costs=self.build_costs,
            split_bias=self.split_bias,
        )
        plan_s = time.perf_counter() - plan_start

        results = self._run_shards(shards)
        for result in results:
            obs_spans.absorb(result.spans, result.counters)

        merge_start = time.perf_counter()
        with obs_spans.span("fleet.merge"):
            report = merge_report(specs, results)
        plan_s += time.perf_counter() - merge_start
        self._absorb_costs(results)
        run = ParallelRun(
            report=report,
            shards=shards,
            results=results,
            wall_s=time.perf_counter() - round_start,
            plan_s=plan_s,
            critical_path_s=max((r.cpu_s for r in results), default=0.0),
        )
        self.stats.parallel_rounds += 1
        round_span.set("shards", len(shards))
        round_span.set("methods", len(specs))
        round_span.__exit__(None, None, None)
        return run

    def _run_shards(self, shards: list[Shard]) -> list[ShardResult]:
        requests = [
            CheckRequest(None, shard.index, tuple(shard.specs),
                         backend=self.backend, trace=obs_spans.enabled(),
                         provenance=obs_prov.enabled())
            for shard in shards
        ]
        if self.workers == 1 or len(requests) <= 1:
            # degenerate fleet: check in-process
            return [self._check_in_process(request) for request in requests]
        # cold shards ride the session workers: same processes (and same
        # pristine replica catalogs) as later session attaches, so a cold
        # round's builds seed the warm path.  Send all, then recv in request
        # order (replies are FIFO per pipe); a lost worker's shard reruns
        # in-process so the round always completes.
        handles = self._session_handles()
        in_flight: list = []
        for index, request in enumerate(requests):
            handle = handles[index % len(handles)]
            try:
                handle.send(request)
            except WorkerLost:
                handle = None
            in_flight.append((handle, request))
        results: list[ShardResult] = []
        for handle, request in in_flight:
            result = None
            if handle is not None:
                try:
                    result = handle.recv(deadline_s=self._cold_deadline())
                except (WorkerLost, SessionRequestFailed):
                    obs_spans.event("fleet.worker_lost",
                                    args={"shard": request.shard_id})
            if result is None:
                result = self._check_in_process(request)
            results.append(result)
        return results

    def _check_in_process(self, request: CheckRequest) -> ShardResult:
        """Check one cold shard against this engine's own pristine catalog
        universes (the ones enumeration already built)."""
        result = ShardResult(shard_id=request.shard_id, pid=os.getpid())
        with obs_spans.span("session.check", label="catalog") as sp:
            sp.set("methods", len(request.specs))
            worker_mod.check_specs_into(result, self._catalog_universe,
                                        request.specs)
        return result

    def _absorb_costs(self, results: list[ShardResult]) -> None:
        """Feed observed costs back into the planner's model (EWMA per
        method) and observed shard imbalance into the split threshold."""
        for result in results:
            for label, build_s in result.build_s.items():
                self.build_costs[label] = build_s
            for verdict in result.verdicts:
                self.stats.observe_cost(verdict.desc, verdict.cost_s)
            self.stats.parallel_shards += 1
            self.stats.methods_checked_parallel += len(result.verdicts)
        self._absorb_imbalance(results)

    def _absorb_imbalance(self, results: list[ShardResult]) -> None:
        """Tune the planner's split eagerness from observed shard CPU.

        A round whose slowest shard dominates the mean means the cost model
        under-predicted that shard's methods — the next plan should split
        finer (raise ``split_bias``).  Balanced rounds decay the bias back
        toward 1.0 so a transient skew does not over-fragment forever.
        """
        cpu = [result.cpu_s for result in results]
        if len(cpu) < 2:
            return
        mean = sum(cpu) / len(cpu)
        if mean <= 0:
            return
        imbalance = max(cpu) / mean
        if imbalance > SPLIT_IMBALANCE_TOLERANCE:
            self.split_bias = min(self.split_bias * imbalance, SPLIT_BIAS_MAX)
        else:
            self.split_bias = max(1.0, self.split_bias * SPLIT_BIAS_DECAY)
        self.stats.extra["planner.split_bias"] = self.split_bias

    # ------------------------------------------------------------------
    # warm sessions: attach / migrate / recheck_dirty
    # ------------------------------------------------------------------
    def attach(self, rdl, labels=None) -> str:
        """Attach a live universe to warm session workers.

        Each session worker builds pristine replicas of every label's
        subject app once (the cold step) and keeps them alive; afterwards
        :meth:`migrate` ships journal deltas instead of rebuilds and
        :meth:`recheck_dirty` checks only dirty methods remotely.  Raises
        ``ValueError`` when the universe cannot be warm-replicated (see
        :meth:`warm_block_reason`); returns the session id.
        """
        labels = (_normalize_labels(labels) if labels is not None
                  else list(rdl.incremental.labels))
        reason = self.warm_block_reason(rdl, labels)
        if reason is not None:
            raise ValueError(f"cannot attach a warm session: {reason}")
        if self._session_id is not None:
            self.detach()  # workers must not serve a stale session's replicas
        self._attached_rdl = rdl
        self._attached_labels = labels
        self._session_id = new_session_id()
        self.last_warm_run = None
        try:
            self._sync_session(rdl)
        except (WarmSyncError, WorkerLost, SessionRequestFailed):
            self._abort_session()
            raise
        return self._session_id

    def migrate(self, rdl=None) -> int:
        """Converge every session worker with the live universe now
        (journal events + post-build load records).  Returns the synced
        generation.  Implicitly called by :meth:`recheck_dirty`; exposed
        for callers that want to overlap delta replay with other work."""
        rdl = self._require_attached(rdl)
        try:
            self._sync_session(rdl)
        except (WarmSyncError, WorkerLost, SessionRequestFailed):
            self._abort_session()
            raise
        return rdl.db.version

    def recheck_dirty(self, rdl=None) -> TypeErrorReport:
        """Re-verify the universe's dirty methods across warm workers.

        The warm counterpart of ``IncrementalScheduler.recheck_dirty``:
        dirty / never-checked methods are sharded across session workers
        (after a delta sync), their verdicts and dependency footprints are
        adopted back into the scheduler, and the returned report covers
        every previously-checked label — verdict-for-verdict identical to
        the serial incremental path.  Falls back to that serial path
        whenever the delta cannot be bounded or the session cannot be
        converged; a worker death mid-round re-plans the lost shard onto
        surviving workers, so the round always completes.
        """
        if rdl is None:
            rdl = self._attached_rdl
        if rdl is None:
            raise ValueError("no universe attached: call attach(rdl) first "
                             "or pass rdl=")
        scheduler = rdl.incremental
        # follow the scheduler's label list (it may have grown since
        # attach): the warm report must cover exactly what the serial
        # incremental report would
        return self._round(rdl, list(scheduler.labels),
                           scheduler.recheck_dirty)

    def check(self, rdl, labels) -> TypeErrorReport:
        """Check ``labels`` of a live universe across warm session workers.

        The ``CompRDL.check_all(labels, workers=N)`` backend: the
        :meth:`recheck_dirty` round scoped to ``labels``.  On a fresh
        universe that is a session attach with an empty delta, then one
        round over every method.  The report covers exactly ``labels``,
        verdict-for-verdict identical to ``IncrementalScheduler.check_all``,
        which is also the fallback.  Raises ``KeyError`` for a label that
        names no subject app.

        On an engine with no pool yet, every worker started pays a full
        replica build, so the pool is sized by the plan the build costs
        allow (often one worker), never above ``workers``.
        """
        from repro.apps import app_for_label

        labels = _normalize_labels(labels)
        for label in labels:
            app_for_label(label)  # raises KeyError early for unknown labels
        scheduler = rdl.incremental
        for label in labels:
            if label not in scheduler.labels:
                scheduler.labels.append(label)
        if self._session_pool is None:
            cold_plan = plan_shards(
                specs_for_labels(labels, lambda _label: rdl.registry),
                self.workers,
                registry_for_label=lambda _label: rdl.registry,
                stats=scheduler.stats,
                build_costs=self.build_costs,
                split_bias=self.split_bias,
                static_costs=_static_costs_of(scheduler),
            )
            self._session_pool = SessionPool(
                max(1, len(cold_plan)), deadline_s=self.deadline_s)
        return self._round(rdl, labels, lambda: scheduler.check_all(labels))

    def _round(self, rdl, labels, serial) -> TypeErrorReport:
        """One warm round over ``labels``: sync the session, shard the
        pending methods, adopt their verdicts and resolve the report in
        serial order.  ``serial`` is the in-process equivalent, run instead
        whenever the delta cannot be bounded."""
        scheduler = rdl.incremental
        reason = self.warm_block_reason(rdl, labels)
        if reason is not None:
            return self._fallback_serial(scheduler, reason, serial)

        round_start = time.perf_counter()
        serial_keys = scheduler.keys_for(labels)
        pending = scheduler.pending_keys(labels)
        if not pending:
            self.last_warm_run = WarmRun(methods=0, remote=False)
            return scheduler.resolve(serial_keys)
        round_span = obs_spans.span("warm.round", label=",".join(labels))
        round_span.__enter__()
        round_span.set("dirty", len(pending))

        sync_start = time.perf_counter()
        try:
            if rdl is not self._attached_rdl or labels != self._attached_labels:
                self.attach(rdl, labels)
            elif self._delta_irrelevant(rdl, pending):
                # every pending method's static footprint is disjoint from
                # the un-synced journal delta: checking on the stale
                # replicas yields identical verdicts, so the sync can wait
                scheduler.stats.bump("analysis.syncs_skipped")
                obs_spans.event("warm.sync_skipped",
                                args={"pending": len(pending)})
            else:
                self._sync_session(rdl)
        except (WarmSyncError, WorkerLost, SessionRequestFailed) as exc:
            self._abort_session()
            round_span.set("fallback", True)
            round_span.__exit__(None, None, None)
            return self._fallback_serial(
                scheduler, f"session sync failed: {exc}", serial)
        sync_s = time.perf_counter() - sync_start

        plan_start = time.perf_counter()
        label_of: dict = {}
        for label in labels:
            for key in rdl.registry.methods_for_label(label):
                label_of.setdefault(key, label)
        specs = [
            MethodSpec(label_of[key], key.class_name, key.method_name,
                       key.static)
            for key in pending
        ]
        workers = self._attached_workers()
        shards = plan_shards(
            specs,
            max(1, len(workers)),
            registry_for_label=lambda _label: rdl.registry,
            stats=scheduler.stats,
            # replicas are already alive: splitting a label costs nothing
            build_costs={label: 0.0 for label in labels},
            split_bias=self.split_bias,
            static_costs=_static_costs_of(scheduler),
        )
        plan_s = time.perf_counter() - plan_start

        results, retries = self._run_warm_shards(shards)
        feed_incremental(scheduler, results, generation=rdl.db.version,
                         producer={"kind": "warm",
                                   "session": self._session_id})
        self._absorb_imbalance(results)
        scheduler.stats.parallel_rounds += 1
        # resolve() assembles the report in serial order from the adopted
        # verdicts — and is the completeness backstop: anything a lost
        # worker never returned is checked in-process right here
        report = scheduler.resolve(serial_keys)
        self.last_warm_run = WarmRun(
            methods=len(pending),
            remote=True,
            results=results,
            wall_s=time.perf_counter() - round_start,
            plan_s=plan_s,
            sync_s=sync_s,
            retries=retries,
            session_id=self._session_id,
        )
        round_span.set("shards", len(shards))
        round_span.set("retries", retries)
        round_span.__exit__(None, None, None)
        return report

    def detach(self) -> None:
        """Drop the attached session (workers stay up for re-attachment)."""
        if self._session_id is not None and self._session_pool is not None:
            for handle in self._session_pool.live():
                if not handle.attached:
                    continue
                try:
                    handle.request(DetachSession(self._session_id))
                except (WorkerLost, SessionRequestFailed):
                    pass
                handle.attached = False
        self._attached_rdl = None
        self._attached_labels = []
        self._session_id = None

    def _abort_session(self) -> None:
        """Discard the session AND the worker pool.

        After a failed sync some pipes may hold unread replies, and a
        plain request/reply transport cannot resynchronize them — a stale
        reply would be mistaken for the next request's answer.  Dropping
        the pool is the only safe reset; the next warm round respawns and
        cold-attaches."""
        if self._session_pool is not None:
            self._session_pool.close()
            self._session_pool = None
        self._attached_rdl = None
        self._attached_labels = []
        self._session_id = None

    # -- warm internals ----------------------------------------------------
    def warm_block_reason(self, rdl, labels) -> str | None:
        """Why this universe cannot be warm-replicated right now (None when
        it can).  These are exactly the "delta cannot be bounded" cases —
        the callers fall back to the serial incremental path."""
        from repro.apps import app_for_label

        if not labels:
            return "no labels have been checked yet"
        if len(labels) > 1:
            # each replica is one label's app, but the universe has ONE
            # journal and one pristine generation spanning all of them —
            # replaying the combined journal into per-app replicas cannot
            # line up (per-label journals are the distributed-fleet item)
            return ("multi-label universes are not warm-replicable: one "
                    "combined journal cannot replay into per-app replicas")
        if rdl.replay_blocker is not None:
            return rdl.replay_blocker
        for label in labels:
            try:
                app_for_label(label)
            except KeyError:
                return f"label {label!r} names no subject app"
        if rdl.pristine_generation < rdl.db.journal.oldest_retained:
            return ("the schema journal no longer reaches the pristine "
                    "generation (too many migrations)")
        return None

    def _require_attached(self, rdl):
        if rdl is None:
            rdl = self._attached_rdl
        if rdl is None:
            raise ValueError("no universe attached: call attach(rdl) first")
        if rdl is not self._attached_rdl:
            self.attach(rdl)
        return rdl

    def _attached_workers(self):
        return [handle for handle in self._session_pool.live()
                if handle.attached] if self._session_pool else []

    def _delta_irrelevant(self, rdl, pending) -> bool:
        """Can this round ship CheckRequests without a delta sync?

        True only when every attached worker is load-converged and every
        pending method has a static footprint (``repro.analysis``, a
        proven superset of its dynamic deps) disjoint from the tables the
        un-synced journal delta touches — then checking on the stale
        replicas is verdict-identical and the sync can be deferred.
        """
        workers = self._attached_workers()
        if not workers:
            return False
        footprints = rdl.incremental.static_footprints
        if not footprints:
            return False
        loads = rdl.post_build_loads
        if any(handle.loads_applied < len(loads) for handle in workers):
            return False
        journal = rdl.db.journal
        oldest = min(handle.synced_generation for handle in workers)
        if oldest < journal.oldest_retained or oldest >= rdl.db.version:
            # forgotten delta must cold-sync; an empty delta syncs for free
            return False
        changed = journal.tables_changed_since(oldest)
        for key in pending:
            footprint = footprints.get(key)
            if footprint is None or footprint.affected_by(changed):
                return False
        return True

    def _fallback_serial(self, scheduler, reason: str,
                         serial) -> TypeErrorReport:
        scheduler.stats.bump("warm.fallbacks")
        scheduler.stats.extra["warm.fallback_reason"] = reason
        self.last_warm_run = WarmRun(remote=False, fallback_reason=reason)
        return serial()

    def _sync_session(self, rdl) -> None:
        """Bring every session worker to the universe's current state.

        Blank or stale workers (freshly spawned, respawned after a crash,
        or synced to a generation the bounded journal has forgotten) get a
        cold attach — pristine rebuild — then everyone receives the journal
        delta and unshipped load records.  Broadcasts overlap: all sends go
        out before any ack is awaited.
        """
        if self._session_id is None:
            raise WarmSyncError("no session attached")
        sync_span = obs_spans.span("session.sync", label=self._session_id)
        with sync_span:
            backoff = SYNC_BACKOFF_S
            for attempt in range(SYNC_ATTEMPTS):
                if self._session_pool is None:
                    self._session_pool = SessionPool(
                        self.workers, deadline_s=self.deadline_s)
                try:
                    self._sync_session_inner(rdl, sync_span)
                    return
                except (WorkerLost, SessionRequestFailed):
                    # a failed sync leaves pipes with unread or missing
                    # replies that a request/reply transport cannot
                    # resynchronize: drop the whole pool and cold-reattach
                    # a fresh one after an exponential backoff.  (A
                    # WarmSyncError divergence is deterministic — retrying
                    # would rebuild the same divergent replica — so it
                    # propagates immediately.)
                    self._session_pool.close()
                    self._session_pool = None
                    if attempt == SYNC_ATTEMPTS - 1:
                        raise
                    obs_spans.bump("sessions.reattach_retries")
                    sync_span.set("reattach_retries", attempt + 1)
                    time.sleep(backoff)
                    backoff *= 2

    def _sync_session_inner(self, rdl, sync_span) -> None:
        handles = self._session_pool.ensure()
        journal = rdl.db.journal
        pristine = rdl.pristine_generation
        loads = list(rdl.post_build_loads)
        backend = self.backend or rdl.db.backend_name

        needs_attach = [
            handle for handle in handles
            if not handle.attached
            or handle.synced_generation < journal.oldest_retained
        ]
        sync_span.set("attaches", len(needs_attach))
        attach = AttachUniverse(
            session_id=self._session_id,
            labels=tuple(self._attached_labels),
            backend=backend,
            trace=obs_spans.enabled(),
        )
        sent = []
        for handle in needs_attach:
            try:
                handle.send(attach)
                sent.append(handle)
            except WorkerLost:
                continue
        for handle in sent:
            try:
                ack = handle.recv(deadline_s=self._cold_deadline())
            except WorkerLost:
                continue
            obs_spans.absorb(ack.spans, ack.counters)
            if any(gen != pristine for gen in ack.generations.values()):
                raise WarmSyncError(
                    f"replica build diverged: worker {handle.index} built "
                    f"generations {ack.generations}, expected {pristine} — "
                    f"the universe is not reproducible from its apps")
            handle.attached = True
            handle.synced_generation = pristine
            handle.loads_applied = 0

        sent = []
        for handle in self._attached_workers():
            events = journal.events_since(handle.synced_generation)
            new_loads = loads[handle.loads_applied:]
            if not events and not new_loads:
                continue
            delta = SessionDelta(
                session_id=self._session_id,
                events=tuple(event.to_wire() for event in events),
                loads=tuple(new_loads),
                trace=obs_spans.enabled(),
            )
            try:
                handle.send(delta)
                sent.append(handle)
            except WorkerLost:
                continue
        for handle in sent:
            try:
                ack = handle.recv()
            except WorkerLost:
                continue
            obs_spans.absorb(ack.spans, ack.counters)
            if any(gen != rdl.db.version for gen in ack.generations.values()):
                raise WarmSyncError(
                    f"delta replay diverged on worker {handle.index}: "
                    f"replicas at {ack.generations}, universe at "
                    f"{rdl.db.version}")
            handle.synced_generation = rdl.db.version
            handle.loads_applied = len(loads)

        if not self._attached_workers():
            # WorkerLost (not WarmSyncError) so _sync_session's retry loop
            # respawns the pool and tries again before anyone falls back
            raise WorkerLost("no session workers survived the sync")

    def _run_warm_shards(self, shards: list[Shard]) -> tuple[list[ShardResult], int]:
        """Fan shards out to attached workers; re-plan lost shards onto
        survivors.  Missing verdicts (every worker died) are left for the
        caller's in-process resolve backstop."""
        workers = self._attached_workers()
        results: list[ShardResult] = []
        retries = 0

        def dispatch(assignments) -> list[Shard]:
            """Send all, then recv all (overlapped); returns lost shards."""
            lost: list[Shard] = []
            in_flight: list[tuple] = []
            for handle, shard in assignments:
                request = CheckRequest(self._session_id, shard.index,
                                       tuple(shard.specs),
                                       trace=obs_spans.enabled(),
                                       provenance=obs_prov.enabled())
                try:
                    handle.send(request)
                    in_flight.append((handle, shard))
                except WorkerLost:
                    obs_spans.event("warm.worker_lost",
                                    args={"shard": shard.index,
                                          "during": "send"})
                    lost.append(shard)
            for handle, shard in in_flight:
                try:
                    result = handle.recv()
                except WorkerLost:
                    obs_spans.event("warm.worker_lost",
                                    args={"shard": shard.index,
                                          "during": "recv"})
                    lost.append(shard)
                except SessionRequestFailed:
                    handle.attached = False  # stale session: re-attach later
                    obs_spans.event("warm.session_stale",
                                    args={"shard": shard.index})
                    lost.append(shard)
                else:
                    obs_spans.absorb(result.spans, result.counters)
                    results.append(result)
            return lost

        failed = dispatch(zip(workers, shards))
        # plan_shards caps shards at the worker count, but workers can die
        # between planning and sending — anything unassigned retries below
        failed.extend(shards[len(workers):])
        while failed:
            survivors = self._attached_workers()
            if not survivors:
                break  # the caller's in-process resolve backstop completes
            # round-robin the lost shards across every survivor, overlapped
            obs_spans.event("warm.replan", args={"shards": len(failed)})
            still_failed = dispatch(
                (survivors[i % len(survivors)], shard)
                for i, shard in enumerate(failed)
            )
            retries += len(failed) - len(still_failed)
            if len(still_failed) == len(failed):
                break  # no progress: stop before spinning on a sick fleet
            failed = still_failed
        if retries:
            self.stats.bump("warm.retries", retries)
        return results, retries


def check_fleet(labels, workers: int, backend: str | None = None) -> ParallelRun:
    """One-shot convenience: spin a fleet up, check, tear it down."""
    with ParallelCheckEngine(workers=workers, backend=backend) as engine:
        return engine.check_labels(labels)

