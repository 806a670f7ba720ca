"""The parallel checking fleet: sessions and orchestration.

:class:`ParallelCheckEngine` checks a *live* universe on the process's
pool of session workers of its width, forked from a preloaded template
(:mod:`repro.parallel.sessions`) and kept up between rounds and between
engines.  Session workers keep replicas of the universe's subject app and
check only the pending methods; the report is verdict-for-verdict
identical to the serial incremental path.
A round sends each worker one :class:`CheckRequest` carrying what that
worker lacks of the universe — the session's attach when it holds no
replicas, then the journal events and post-build load records it has not
applied — and checks its shard on the caught-up replicas.
``CompRDL.check_all(label, workers=N)`` is :meth:`ParallelCheckEngine.check`
and ``CompRDL.recheck_dirty(workers=N)`` is
:meth:`~ParallelCheckEngine.recheck_dirty`.  Several apps are several such
rounds, one per app.  :meth:`~ParallelCheckEngine.prime` prebuilds pristine
replicas in every worker, so a later attach borrows them instead of
building; a detach returns each replica that is still pristine, so a
worker builds each app at most once.

A universe whose ``replay_blocker`` is set (a post-build method
*re*definition — a redefined type-level helper can change any verdict,
which no dependency footprint bounds — among others), that spans several
labels, or whose journal has forgotten the needed events, falls back to the
serial incremental path; so does a round whose replicas diverge from it.
"""

from __future__ import annotations

import time
# perfbench/ledger.py wraps ProcessPoolExecutor, merge_report, feed_incremental
from concurrent.futures import ProcessPoolExecutor  # noqa: F401

from repro.db.backends import default_backend_name
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
    ShardResult,
)
from repro.parallel.sessions import (
    DEADLINE_S,
    SessionPool,
    SessionRequestFailed,
    WarmRun,
    WorkerLost,
    end_pool,
    new_session_id,
    shared_pool,
)
from repro.typecheck.errors import TypeErrorReport


class WarmSyncError(RuntimeError):
    """A worker's replicas diverged from the live universe."""


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


def _broadcast(handles, message, deadline_s) -> None:
    """Send ``message`` to every live handle, then take every reply (the
    workers serve it in parallel); a lost or failing worker is skipped."""
    sent = []
    for handle in handles:
        try:
            handle.send(message)
            sent.append(handle)
        except WorkerLost:
            pass
    for handle in sent:
        try:
            handle.recv(deadline_s=deadline_s)
        except (WorkerLost, SessionRequestFailed):
            pass


def _normalize_labels(labels) -> list[str]:
    if isinstance(labels, str):
        labels = [labels]
    return [label.lstrip(":") for label in labels]


class ParallelCheckEngine:
    """One session at a time on the process's pool of ``workers`` session
    workers, checking live universes."""

    def __init__(self, workers: int,
                 stats: IncrementalStats | None = None,
                 backend: str | None = None,
                 deadline_s: float | None = None):
        self.workers = max(1, workers)
        # per-recv reply deadline for session workers (None →
        # sessions.DEADLINE_S, 120 s); a wedged worker is killed and
        # re-planned around instead of blocking the engine forever
        self.deadline_s = deadline_s
        # storage backend name for every replica the workers build (None →
        # the attached universe's backend, or for prime() this process's
        # REPRO_DB_BACKEND default); each request carries the resolved
        # name, never a connection, and never None: a worker's environment
        # is the forkserver's, not this process's current one
        self.backend = backend
        self.stats = stats or IncrementalStats()
        # the shared pool this engine last ran on, the universe attached as
        # its session, and the session's own sync state per worker handle:
        # (generation, post-build loads applied), or None for a worker that
        # may hold the session's replicas but must re-attach
        self._session_pool: SessionPool | None = None
        self._attached_rdl = None
        self._attached_labels: list[str] = []
        self._session_id: str | None = None
        self._synced: dict = {}
        self.last_warm_run: WarmRun | None = None

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def prime(self, labels) -> float:
        """One-time fleet set-up for ``labels``: spin up every worker and
        pre-build the labels into each worker's pristine replica catalog
        (a label already there, primed or returned by a detached session,
        is not built again), so a later session attach borrows them
        instead of building; the session's detach lends them back.
        Returns the set-up wall time."""
        start = time.perf_counter()
        labels = _normalize_labels(labels)
        backend = self.backend or default_backend_name()
        _broadcast(self._session_handles(),
                   AttachUniverse(None, tuple(labels), backend=backend),
                   self._cold_deadline())
        return time.perf_counter() - start

    def _session_handles(self):
        """The process's pool of this width at full strength (started on
        first use, dead workers respawned blank): the processes prime()
        prebuilds in are the ones every session of this width attaches
        to."""
        self._session_pool = shared_pool(self.workers)
        return self._session_pool.ensure()

    def _cold_deadline(self) -> float:
        # cold work (full app builds) legitimately takes seconds: use the
        # generous module default even when the engine runs with a tight
        # per-request deadline
        return max(DEADLINE_S, self.deadline_s or 0.0)

    def close(self) -> None:
        """Discard the session and end the pool's workers (every engine of
        this width loses its replicas; the next round respawns the pool,
        whose check requests attach afresh).

        Also the reset after a diverged round: a replica that diverged
        from the universe must never serve it again."""
        end_pool(self.workers)
        self._session_pool = None
        self.detach()  # only resets: no worker is left to tell

    def __enter__(self) -> "ParallelCheckEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # warm rounds: check / recheck_dirty
    # ------------------------------------------------------------------
    def _begin_session(self, rdl, labels) -> None:
        if self._session_id is not None:
            self.detach()  # workers must not serve a stale session's replicas
        self._attached_rdl = rdl
        self._attached_labels = labels
        self._session_id = new_session_id()
        self.last_warm_run = None

    def recheck_dirty(self, rdl=None) -> TypeErrorReport:
        """Re-verify the universe's dirty methods across warm workers.

        The warm counterpart of ``IncrementalScheduler.recheck_dirty``:
        dirty / never-checked methods are sharded across session workers
        (each request catching its worker up with the universe first),
        their verdicts and dependency footprints are adopted back into the
        scheduler, and the returned report covers every previously-checked
        label — verdict-for-verdict identical to the serial incremental
        path.  Falls back to that serial path whenever the delta cannot be
        bounded or a replica diverges; a worker death mid-round re-plans
        the lost shard onto surviving workers, so the round always
        completes.  ``rdl`` defaults to the universe the last round ran.
        """
        if rdl is None:
            rdl = self._attached_rdl
        if rdl is None:
            raise ValueError("no universe attached: pass rdl=")
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
        universe that is one round over every method, whose check requests
        also attach the session.  The report covers exactly ``labels``,
        verdict-for-verdict identical to ``IncrementalScheduler.check_all``,
        which is also the fallback.  Raises ``KeyError`` for a label that
        names no subject app.
        """
        from repro.apps import app_for_label

        labels = _normalize_labels(labels)
        for label in labels:
            app_for_label(label)  # raises KeyError early for unknown labels
        scheduler = rdl.incremental
        for label in labels:
            if label not in scheduler.labels:
                scheduler.labels.append(label)
        return self._round(rdl, labels, lambda: scheduler.check_all(labels))

    def _round(self, rdl, labels, serial) -> TypeErrorReport:
        """One warm round over ``labels``: shard the pending methods, send
        each worker one check request that also carries its catch-up with
        the universe, adopt the verdicts and resolve the report in serial
        order.  ``serial`` is the in-process equivalent, run instead
        whenever the delta cannot be bounded or a replica diverges."""
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
        with round_span:
            round_span.set("dirty", len(pending))

            sync_start = time.perf_counter()
            if (rdl is not self._attached_rdl
                    or labels != self._attached_labels):
                self._begin_session(rdl, labels)
            with obs_spans.span("session.sync",
                                label=self._session_id) as sync_span:
                workers = self._session_handles()
                catch_ups = {handle: self._catch_up(handle, rdl)
                             for handle in workers}
                sync_span.set("attaches", sum(
                    up["attach"] is not None for up in catch_ups.values()))
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
            shards = plan_shards(
                specs,
                len(workers),
                registry=rdl.registry,
                stats=scheduler.stats,
            )
            plan_s = time.perf_counter() - plan_start

            try:
                results, retries = self._run_warm_shards(
                    rdl, shards, workers, catch_ups)
            except WarmSyncError as exc:
                self.close()
                round_span.set("fallback", True)
                return self._fallback_serial(
                    scheduler, f"session sync failed: {exc}", serial)
            feed_incremental(scheduler, results, generation=rdl.db.version,
                             producer={"kind": "warm",
                                       "session": self._session_id})
            scheduler.stats.parallel_rounds += 1
            # resolve() assembles the report in serial order from the
            # adopted verdicts — and is the completeness backstop: anything
            # a lost worker never returned is checked in-process right here
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
            return report

    def detach(self) -> None:
        """Drop the attached session: its workers return its still-pristine
        replicas to their catalogs, free the rest, and stay up for the
        next session."""
        _broadcast(self._synced, DetachSession(self._session_id),
                   self.deadline_s)
        self._attached_rdl = None
        self._attached_labels = []
        self._session_id = None
        self._synced = {}

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

    def _catch_up(self, handle, rdl) -> dict:
        """The :class:`CheckRequest` fields that bring ``handle``'s worker
        level with ``rdl``: the session's attach when the worker holds no
        replicas (fresh, respawned, poisoned) or is synced to a generation
        the journal has forgotten, then the journal events and load
        records it has not applied."""
        journal = rdl.db.journal
        attach = None
        synced, applied = self._synced.get(handle) or (None, 0)
        if synced is None or synced < journal.oldest_retained:
            attach = AttachUniverse(
                session_id=self._session_id,
                labels=tuple(self._attached_labels),
                backend=self.backend or rdl.db.backend_name,
                trace=obs_spans.enabled(),
            )
            synced, applied = rdl.pristine_generation, 0
        return {
            "attach": attach,
            "events": tuple(event.to_wire()
                            for event in journal.events_since(synced)),
            "loads": tuple(rdl.post_build_loads[applied:]),
        }

    def _fallback_serial(self, scheduler, reason: str,
                         serial) -> TypeErrorReport:
        scheduler.stats.bump("warm.fallbacks")
        scheduler.stats.extra["warm.fallback_reason"] = reason
        self.last_warm_run = WarmRun(remote=False, fallback_reason=reason)
        return serial()

    def _note_synced(self, handle, request: CheckRequest,
                     result: ShardResult, rdl) -> None:
        """Assert a reply's replicas match the universe, then record the
        worker as level with it."""
        pristine = rdl.pristine_generation
        if request.attach is not None and any(
                gen != pristine for gen in result.built.values()):
            raise WarmSyncError(
                f"replica build diverged: worker {handle.index} built "
                f"generations {result.built}, expected {pristine} — "
                f"the universe is not reproducible from its apps")
        if any(gen != rdl.db.version for gen in result.generations.values()):
            raise WarmSyncError(
                f"delta replay diverged on worker {handle.index}: "
                f"replicas at {result.generations}, universe at "
                f"{rdl.db.version}")
        self._synced[handle] = (rdl.db.version, len(rdl.post_build_loads))

    def _run_warm_shards(self, rdl, shards: list[Shard], workers,
                         catch_ups: dict) -> tuple[list[ShardResult], int]:
        """Fan shards out to ``workers``, each request carrying its worker's
        catch-up (``catch_ups``, by handle); re-plan lost shards onto
        survivors.  Missing verdicts (every worker died) are left for the
        caller's in-process resolve backstop."""
        results: list[ShardResult] = []
        retries = 0

        def dispatch(assignments, catch_ups) -> list[Shard]:
            """Send all, then recv all (overlapped); returns lost shards."""
            lost: list[Shard] = []
            in_flight: list[tuple] = []
            diverged = None
            for handle, shard in assignments:
                # a handle given several shards catches up on the first
                catch_up = catch_ups.pop(handle, {})
                request = CheckRequest(self._session_id, shard.index,
                                       tuple(shard.specs),
                                       trace=obs_spans.enabled(),
                                       provenance=obs_prov.enabled(),
                                       **catch_up)
                try:
                    handle.send(request)
                    in_flight.append((handle, shard, request))
                except WorkerLost:
                    obs_spans.event("warm.worker_lost",
                                    args={"shard": shard.index,
                                          "during": "send"})
                    lost.append(shard)
            for handle, shard, request in in_flight:
                try:
                    # a request that attaches may build replicas: the cold
                    # deadline applies, as for prime()'s AttachUniverse
                    result = handle.recv(deadline_s=(
                        self._cold_deadline() if request.attach is not None
                        else self.deadline_s))
                except WorkerLost:
                    obs_spans.event("warm.worker_lost",
                                    args={"shard": shard.index,
                                          "during": "recv"})
                    lost.append(shard)
                except SessionRequestFailed:
                    # stale session: re-attach later, detach either way
                    self._synced[handle] = None
                    obs_spans.event("warm.session_stale",
                                    args={"shard": shard.index})
                    lost.append(shard)
                else:
                    obs_spans.absorb(result.spans, result.counters)
                    try:
                        self._note_synced(handle, request, result, rdl)
                    except WarmSyncError as exc:
                        diverged = diverged or exc
                        continue
                    results.append(result)
            if diverged is not None:
                # every reply is in: the pipes are clean for the abort
                raise diverged
            return lost

        failed = dispatch(zip(workers, shards), catch_ups)
        while failed:
            survivors = [handle for handle in workers if handle.alive]
            if not survivors:
                break  # the caller's in-process resolve backstop completes
            # round-robin the lost shards across every survivor, overlapped
            obs_spans.event("warm.replan", args={"shards": len(failed)})
            still_failed = dispatch(
                ((survivors[i % len(survivors)], shard)
                 for i, shard in enumerate(failed)),
                {handle: self._catch_up(handle, rdl) for handle in survivors},
            )
            retries += len(failed) - len(still_failed)
            if len(still_failed) == len(failed):
                break  # no progress: stop before spinning on a sick fleet
            failed = still_failed
        if retries:
            self.stats.bump("warm.retries", retries)
        return results, retries
