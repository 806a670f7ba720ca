"""The worker side of the parallel checking protocol.

Runs inside a worker forked from the session forkserver's template
(:mod:`repro.parallel.template`), which imported this module and built the
library base; the worker takes nothing else from the server's state, and
nothing from the parent's but its start arguments and its requests.

:func:`session_main` is a stateful dispatch loop over a pipe, keyed by
session id.  A ``CheckRequest`` first applies the catch-up it carries: the
session's attach (live label universes built once), then schema-journal
events and post-build load records replayed against them (journal-replay
parity: afterwards the replica's generation and ``schema_hash()`` equal the
engine's).  Then it checks a method slice against the warm replicas — no
rebuild, which is what makes a post-migration ``recheck_dirty`` round cheap
at ``workers > 1`` — so every round is one round trip per worker.  Verdicts
ship back together with the dependency footprints the checker recorded, so
the parent can back-feed its incremental dependency graph.

An ``AttachUniverse`` with session id ``None`` (fleet priming) builds its
labels into the process's pristine replica catalog instead.  A session
attach adopts a cataloged replica rather than building its own: the
replica is lent to that session alone, and a ``DetachSession`` returns it
to the catalog while it is still pristine (checked, but never migrated or
loaded into), so a worker builds each label at most once in its life and
later cold attaches start from warm comp caches.
"""

from __future__ import annotations

import os
import time

from repro.incremental.versioning import SchemaEvent
from repro.obs import faults as obs_faults
from repro.obs import provenance as obs_prov
from repro.obs import spans as obs_spans
from repro.obs.state import COUNTERS

_FAULTS_ON = obs_faults.ENABLED  # cached cell: zero-cost guard when off
from repro.parallel.protocol import (
    AttachAck,
    AttachUniverse,
    CheckRequest,
    DetachAck,
    DetachSession,
    MethodVerdict,
    SessionError,
    ShardResult,
    Shutdown,
    encode_error,
)


def _trace_begin(message) -> tuple | None:
    """Set this process's tracing state from the request and return the
    span-buffer mark to drain from plus a copy of the counters, or ``None``
    when tracing is off.

    A worker has neither the parent's flags nor its environment, so each
    request sets the state from its ``trace`` field (the engine stamps it
    with its own flag).  The mark keeps a call in the caller's own process
    from draining spans the caller recorded before this request.

    The provenance flag follows the ``provenance`` field the same way, so
    per-verdict attribution in :func:`check_specs_into` follows each
    request.
    """
    obs_spans.set_enabled(bool(getattr(message, "trace", False)))
    obs_prov.set_enabled(bool(getattr(message, "provenance", False)))
    if not obs_spans.enabled():
        return None
    return obs_spans.mark(), dict(COUNTERS)


def _trace_end(reply, mark: tuple | None):
    """Move this request's spans and counter deltas onto the reply."""
    if mark is not None:
        start, before = mark
        reply.spans = tuple(obs_spans.drain(start))
        reply.counters = tuple(
            (name, n - before.get(name, 0)) for name, n in COUNTERS.items()
            if n != before.get(name, 0))
        COUNTERS.clear()
        COUNTERS.update(before)
    return reply


# ---------------------------------------------------------------------------
# pristine replica catalog: priming builds into it, attaches borrow from it
# ---------------------------------------------------------------------------

#: pristine label universes of this process: built by fleet priming or by a
#: session attach, *lent* to one session at a time by its attach and
#: returned by its detach while still pristine.  Keyed by (label, backend
#: name): a replica must never cross storage backends.  Only worker
#: processes (:func:`session_main`) reach it.
_WARM_CATALOG: dict[tuple, object] = {}


def _catalog_key(label: str, backend: str | None) -> tuple:
    from repro.db.backends import default_backend_name

    return (label, backend or default_backend_name())


def _catalog_reusable(rdl) -> bool:
    """Only pristine replicas may be shared: nothing happened to the
    universe since ``mark_pristine``."""
    return (rdl.pristine_generation == rdl.db.version
            and rdl.replay_blocker is None
            and not rdl.post_build_loads)


def _catalog_peek(label: str, backend: str | None):
    """A cataloged pristine replica for reuse in place, or ``None``."""
    key = _catalog_key(label, backend)
    rdl = _WARM_CATALOG.get(key)
    if rdl is None:
        return None
    if not _catalog_reusable(rdl):
        del _WARM_CATALOG[key]  # diverged somehow: never serve it again
        return None
    obs_spans.bump("sessions.catalog_hits")
    return rdl


def _catalog_take(label: str, backend: str | None):
    """Remove and return a cataloged pristine replica (session attaches
    mutate their replicas via deltas, so a loan is exclusive until
    :func:`_catalog_return`)."""
    rdl = _catalog_peek(label, backend)
    if rdl is not None:
        del _WARM_CATALOG[_catalog_key(label, backend)]
    return rdl


def _catalog_return(replicas: dict) -> None:
    """Put a detached session's replicas back into their empty catalog
    slots, each under its own backend's key; a replica that is no longer
    pristine (migrated, loaded into, replay-blocked) is dropped."""
    for label, rdl in replicas.items():
        key = _catalog_key(label, rdl.db.backend_name)
        if key not in _WARM_CATALOG and _catalog_reusable(rdl):
            _WARM_CATALOG[key] = rdl


def _catalog_build(label: str, backend: str | None):
    """The label's cataloged replica, built into the catalog if missing."""
    from repro.apps import app_for_label

    rdl = _catalog_peek(label, backend)
    if rdl is None:
        rdl = app_for_label(label).build(backend=backend)
        _WARM_CATALOG[_catalog_key(label, backend)] = rdl
    return rdl


# ---------------------------------------------------------------------------
# session service: a stateful dispatch loop keyed by session id
# ---------------------------------------------------------------------------

def session_main(conn, faults: str) -> None:
    """Serve session messages over ``conn`` until shutdown or EOF.

    The entry point of a session worker.  ``faults`` is the parent's
    ``REPRO_FAULTS`` plan when it started this worker (fuzz harness, error
    path tests): the only source this process arms faults from.  All state
    — the live label universes, keyed by session id — lives in this loop's
    locals; a reply is sent for every request (``SessionError`` on failure,
    so one bad request never wedges the engine), and the loop only exits on
    :class:`Shutdown`, a closed pipe, or a dead parent.
    """
    sessions: dict[str, dict[str, object]] = {}
    obs_faults.arm(faults)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if isinstance(message, Shutdown):
            break
        try:
            if _FAULTS_ON[0]:
                # inside the try: an `error` fault becomes a SessionError
                # reply, a `wedge` delays the reply past the engine's recv
                # deadline, a `die` kills this process mid-conversation
                obs_faults.fire(f"worker.{type(message).__name__}")
            reply = _serve(sessions, message)
        except Exception as exc:  # noqa: BLE001 — ship it, keep serving
            reply = SessionError(
                session_id=getattr(message, "session_id", ""),
                request=type(message).__name__,
                error=f"{type(exc).__name__}: {exc}",
            )
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


def _serve(sessions: dict, message):
    if isinstance(message, AttachUniverse):
        return _attach(sessions, message)
    if isinstance(message, CheckRequest):
        return _check(sessions, message)
    if isinstance(message, DetachSession):
        _catalog_return(sessions.pop(message.session_id, None) or {})
        return DetachAck(session_id=message.session_id)
    raise TypeError(f"unknown session message {type(message).__name__}")


def _attach(sessions: dict, message: AttachUniverse) -> AttachAck:
    trace_mark = _trace_begin(message)
    return _trace_end(_attach_replicas(sessions, message), trace_mark)


def _attach_replicas(sessions: dict, message: AttachUniverse) -> AttachAck:
    from repro.apps import app_for_label

    replicas: dict[str, object] = {}
    ack = AttachAck(session_id=message.session_id, pid=os.getpid())
    with obs_spans.span("session.attach",
                        label=message.session_id or "catalog") as sp:
        sp.set("labels", len(message.labels))
        for label in message.labels:
            build_start = time.perf_counter()
            if message.session_id is None:
                rdl = _catalog_build(label, message.backend)
            else:
                # borrow a cataloged pristine replica when one exists
                # (primed, or returned by an earlier session's detach) —
                # the ack still reports its generation, so the engine's
                # pristine assertion guards the reuse like a fresh build
                rdl = _catalog_take(label, message.backend)
                if rdl is None:
                    rdl = app_for_label(label).build(backend=message.backend)
            ack.build_s[label] = time.perf_counter() - build_start
            ack.generations[label] = rdl.db.version
            replicas[label] = rdl
    if message.session_id is not None:
        # replace atomically: a re-attach (crash recovery, journal gap) must
        # not leave a half-updated session behind a failed build
        sessions[message.session_id] = replicas
    return ack


def _session_of(sessions: dict, session_id: str) -> dict:
    session = sessions.get(session_id)
    if session is None:
        raise KeyError(f"no attached session {session_id!r} "
                       f"(worker pid {os.getpid()} was restarted?)")
    return session


def _replay(sessions: dict, session: dict, message: CheckRequest) -> None:
    """Replay the request's journal events and load records onto every
    replica of its ``session``."""
    events = [SchemaEvent.from_wire(record) for record in message.events]
    with obs_spans.span("session.delta", label=message.session_id) as sp:
        sp.set("events", len(events))
        sp.set("loads", len(message.loads))
        try:
            for rdl in session.values():
                rdl.db.replay(events)
            for source in message.loads:
                for rdl in session.values():
                    rdl.load(source)
        except Exception:
            # a partial replay leaves replicas half-migrated; they must
            # never serve another request, so poison the whole session —
            # the next request errors ("no attached session") unless it
            # re-attaches, instead of replaying onto divergent state
            sessions.pop(message.session_id, None)
            raise


def _check(sessions: dict, message: CheckRequest) -> ShardResult:
    trace_mark = _trace_begin(message)
    result = ShardResult(shard_id=message.shard_id, pid=os.getpid())
    # the catch-up is part of this shard's critical path: count its CPU
    cpu_start = time.process_time()
    if message.attach is not None:
        result.built = _attach_replicas(sessions, message.attach).generations
    session = _session_of(sessions, message.session_id)
    if message.events or message.loads:
        _replay(sessions, session, message)
    result.generations = {
        label: rdl.db.version for label, rdl in session.items()
    }
    result.cpu_s = time.process_time() - cpu_start

    def resolve(label: str):
        rdl = session.get(label)
        if rdl is None:
            raise KeyError(f"session {message.session_id!r} has no "
                           f"replica for label {label!r}")
        return rdl

    with obs_spans.span("session.check", label=message.session_id) as sp:
        sp.set("methods", len(message.specs))
        check_specs_into(result, resolve, message.specs)
    return _trace_end(result, trace_mark)


def check_specs_into(result: ShardResult, resolve, specs) -> None:
    """Check ``specs`` in order, appending verdicts to ``result``;
    ``resolve(label)`` supplies the universe to check against.  This loop
    is the single place the verdict wire format is produced."""
    cpu_start = time.process_time()
    prov_on = obs_prov.enabled()
    for spec in specs:
        rdl = resolve(spec.label)
        # per-verdict comp-cache attribution rides the always-on stats
        # counters; one delta per *method* stays far off the comp microloop
        cap = obs_prov.capture(rdl.checker.engine.stats)
        check_start = time.perf_counter()
        with cap:
            desc, errors, casts, oracle = rdl.checker.check_one(
                spec.class_name, spec.method_name, spec.static)
        cost = time.perf_counter() - check_start
        result.check_s += cost
        result.verdicts.append(MethodVerdict(
            spec=spec,
            desc=desc,
            deps=rdl.checker.engine.deps.deps_of(spec.key()),
            errors=[encode_error(e) for e in errors],
            casts_used=casts,
            oracle_casts=oracle,
            cost_s=cost,
            prov=((cap.comp_hits, cap.comp_misses) if prov_on else None),
        ))
    result.cpu_s += time.process_time() - cpu_start
