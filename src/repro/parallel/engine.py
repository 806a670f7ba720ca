"""The parallel checking fleet: pool management and orchestration.

:class:`ParallelCheckEngine` keeps one pool of spawn-mode session workers
(:mod:`repro.parallel.sessions`) warm between rounds and checks a *live*
universe on it.  Session workers keep replicas of the universe's subject
app, receive schema-journal deltas plus post-build load records, and check
only the pending methods; the report is verdict-for-verdict identical to the
serial incremental path.  ``CompRDL.check_all(label, workers=N)`` is
:meth:`ParallelCheckEngine.check` — a cold check is a session attach with an
empty delta — and ``CompRDL.recheck_dirty(workers=N)`` is
:meth:`~ParallelCheckEngine.recheck_dirty`.  Several apps are several such
rounds, one per app.  :meth:`~ParallelCheckEngine.prime` prebuilds pristine
replicas in every worker, so a later attach adopts them instead of
building.

A universe whose ``replay_blocker`` is set (a post-build method
*re*definition — a redefined type-level helper can change any verdict,
which no dependency footprint bounds — among others), that spans several
labels, or whose journal has forgotten the needed events, falls back to the
serial incremental path.
"""

from __future__ import annotations

import time
# perfbench/ledger.py wraps ProcessPoolExecutor, merge_report, feed_incremental
from concurrent.futures import ProcessPoolExecutor  # noqa: F401

from repro.incremental.stats import IncrementalStats
from repro.obs import provenance as obs_prov
from repro.obs import spans as obs_spans
from repro.parallel.merge import feed_incremental, merge_report  # noqa: F401
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

#: session-sync retry budget: a lost/failed sync drops the pool (stale
#: pipes cannot be resynchronized) and cold-reattaches a fresh one after
#: an exponential backoff
SYNC_ATTEMPTS = 3
SYNC_BACKOFF_S = 0.05


class WarmSyncError(RuntimeError):
    """A warm session could not be converged with the live universe."""


def specs_for_labels(labels, registry) -> list[MethodSpec]:
    """The serial-order method list for ``labels`` (registry order per
    label).  Dedup is by *method key*, matching the serial scheduler: a
    method annotated under several requested labels is checked once, under
    the first label that names it."""
    specs: list[MethodSpec] = []
    seen: set = set()
    for label in labels:
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
    """A persistent pool of session workers checking live universes."""

    def __init__(self, workers: int,
                 stats: IncrementalStats | None = None,
                 backend: str | None = None,
                 deadline_s: float | None = None):
        self.workers = max(1, workers)
        # per-recv reply deadline for session workers (None → the process
        # default in sessions.DEADLINE_S); a wedged worker is killed and
        # re-planned around instead of blocking the engine forever
        self.deadline_s = deadline_s
        # storage backend name for every replica the workers build (None →
        # the attached universe's backend, or for prime() the
        # REPRO_DB_BACKEND environment default, which spawn children
        # inherit); the name travels in each request, never a connection
        self.backend = backend
        self.stats = stats or IncrementalStats()
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
        """One-time fleet set-up for ``labels``: spin up every worker and
        pre-build the labels into each worker's pristine replica catalog,
        so a later session attach adopts them instead of building.  Returns
        the set-up wall time."""
        start = time.perf_counter()
        labels = _normalize_labels(labels)
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
        """The shared session-worker pool (spawned on first use): the
        processes prime() prebuilds in are the ones sessions attach to."""
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
        replica build, so the pool is sized by the plan that build cost
        (``planner.DEFAULT_BUILD_COST``) allows — often one worker, never
        above ``workers``.
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
                specs_for_labels(labels, rdl.registry),
                self.workers,
                registry=rdl.registry,
                stats=scheduler.stats,
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
            registry=rdl.registry,
            stats=scheduler.stats,
            # replicas are already alive: splitting costs nothing
            build_cost=0.0,
            static_costs=_static_costs_of(scheduler),
        )
        plan_s = time.perf_counter() - plan_start

        results, retries = self._run_warm_shards(shards)
        feed_incremental(scheduler, results, generation=rdl.db.version,
                         producer={"kind": "warm",
                                   "session": self._session_id})
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

