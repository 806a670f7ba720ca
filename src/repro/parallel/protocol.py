"""Picklable messages exchanged between the planner and worker processes.

Workers are separate processes, so everything crossing the
boundary must round-trip through pickle *and* reconstruct faithfully:
errors travel as plain ``(kind, message, line, method)`` tuples rather than
exception instances because :class:`StaticTypeError`'s constructor formats
its arguments (re-pickling the instance would re-format an already-formatted
message and lose the structured ``line``/``method`` fields).

One session vocabulary (:class:`AttachUniverse` / :class:`CheckRequest` /
:class:`DetachSession`) serves every off-process check.  Workers keep live
label universes between rounds and re-check only dirty methods; each
:class:`CheckRequest` carries whatever its worker lacks of the live
universe — the attach, the schema-journal events and the post-build load
records it has not seen — so a round is one message per worker.  Messages
are routed to a *specific* worker process (state lives there), so they
carry a ``session_id`` and the worker side is a dispatch loop
(:func:`repro.parallel.worker.session_main`).  The one message that names
no session is ``AttachUniverse(None, …)``: it prebuilds pristine replicas
into the worker's catalog for later attaches to adopt.

Schema deltas travel as :meth:`SchemaEvent.to_wire` tuples — the stable
encoding shared with any future socket transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.incremental.deps import MethodDeps
from repro.typecheck.errors import StaticTypeError, TerminationError
from repro.typecheck.registry import MethodKey

#: error-kind tags for the wire format
_ERROR_KINDS = {
    "static": StaticTypeError,
    "termination": TerminationError,
}


def encode_error(error: StaticTypeError) -> tuple[str, str, int, str, int]:
    kind = "termination" if isinstance(error, TerminationError) else "static"
    return (kind, error.message, error.line, error.method,
            getattr(error, "col", 0))


def decode_error(record: tuple) -> StaticTypeError:
    kind, message, line, method = record[:4]
    col = record[4] if len(record) > 4 else 0
    return _ERROR_KINDS.get(kind, StaticTypeError)(message, line, method, col)


@dataclass(frozen=True)
class MethodSpec:
    """One unit of checkable work: a method of a labelled subject app."""

    label: str
    class_name: str
    method_name: str
    static: bool = False

    def key(self) -> MethodKey:
        return MethodKey(self.class_name, self.method_name, self.static)

    @property
    def desc(self) -> str:
        return str(self.key())


@dataclass
class MethodVerdict:
    """One method's result, exactly what the serial checker would record."""

    spec: MethodSpec
    desc: str
    #: what the check read, recorded by the worker's ``check_one``
    deps: MethodDeps
    errors: list[tuple[str, str, int, str]] = field(default_factory=list)
    casts_used: int = 0
    oracle_casts: int = 0
    cost_s: float = 0.0
    #: worker-side provenance piggyback: ``(comp_hits, comp_misses)``
    #: attributed to this check, or None when provenance was off for the
    #: request (the protocol default — a disabled round ships no payload)
    prov: tuple | None = None

    def rebuild_errors(self) -> list[StaticTypeError]:
        return [decode_error(record) for record in self.errors]


@dataclass
class ShardResult:
    """Everything a worker sends back for one shard."""

    shard_id: int
    verdicts: list[MethodVerdict] = field(default_factory=list)
    check_s: float = 0.0      # wall time spent checking (worker-side)
    cpu_s: float = 0.0        # process CPU time for the whole shard
    pid: int = 0
    #: label -> replica generation after the request's catch-up
    generations: dict[str, int] = field(default_factory=dict)
    #: label -> generation each replica was built at, when the request
    #: attached the session
    built: dict[str, int] = field(default_factory=dict)
    #: worker trace events and ``(name, n)`` counter deltas; () unless tracing
    spans: tuple = ()
    counters: tuple = ()


# ---------------------------------------------------------------------------
# session vocabulary (warm workers)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttachUniverse:
    """Build (or rebuild, pristine) live label universes in a worker.

    The session lifecycle's cold step: each label's subject app is built
    from scratch (or borrowed from the worker's pristine replica catalog),
    and the universes then *stay alive* in the worker while the journal
    events and load records on later :class:`CheckRequest` messages keep
    them converged with the engine's universe.  A borrowed replica is lent
    to this session alone; :class:`DetachSession` returns it to the
    catalog if it is still pristine (checked, never migrated or loaded
    into).  A session attach rides
    on a :class:`CheckRequest` (its ``attach`` field); re-attaching an
    existing session id replaces its replicas (crash recovery / journal
    gaps fall back to this).  A ``None`` session id, sent on its own,
    prebuilds the labels into the catalog and attaches nothing (fleet
    priming).

    ``backend`` names the storage backend the worker builds against
    (``None`` → the environment default).  Only the *name* crosses the
    process boundary — a live engine connection (sqlite3) is unpicklable
    by design; each worker opens its own.
    """

    session_id: str | None
    labels: tuple[str, ...]
    backend: str | None = None
    trace: bool = False


@dataclass
class AttachAck:
    """Attach reply: the replica generations the engine must verify."""

    session_id: str | None
    generations: dict[str, int] = field(default_factory=dict)  # label -> gen
    build_s: dict[str, float] = field(default_factory=dict)
    pid: int = 0
    spans: tuple = ()
    counters: tuple = ()


@dataclass(frozen=True)
class CheckRequest:
    """Bring a worker level with the engine's universe, then check a
    method slice against the session's live replicas.

    The catch-up comes first, in order: with ``attach`` set the worker
    attaches the session as that :class:`AttachUniverse` would (the
    result's ``built`` reports the generations it built); ``events`` (the
    journal delta since the worker's synced generation, as
    :meth:`SchemaEvent.to_wire` tuples) are replayed against every
    replica's live ``Database``; ``loads`` (post-pristine program
    sources) are re-executed against every replica.  A failed replay
    poisons the session.  Then the worker resolves each spec's label to
    that session's replica, runs the ``check_one`` loop and returns a
    :class:`ShardResult` whose ``generations`` the engine asserts equal
    its universe's.
    """

    session_id: str
    shard_id: int
    specs: tuple[MethodSpec, ...] = ()
    trace: bool = False
    #: attribute comp-cache traffic per verdict worker-side (the ``prov``
    #: field on each MethodVerdict); False adds no payload at all
    provenance: bool = False
    attach: AttachUniverse | None = None
    events: tuple[tuple, ...] = ()
    loads: tuple[str, ...] = ()


@dataclass(frozen=True)
class DetachSession:
    """End one session: its still-pristine replicas go back to the
    worker's catalog, the rest are dropped (the worker process stays
    up)."""

    session_id: str


@dataclass
class DetachAck:
    session_id: str


@dataclass(frozen=True)
class Shutdown:
    """End the worker's dispatch loop; the process exits cleanly."""


@dataclass
class SessionError:
    """A request failed worker-side; the loop keeps serving.

    The engine re-plans the request's shard either way and re-attaches
    the worker on its next request: a failed replay poisoned the session,
    an unknown session id means the worker restarted, anything else is a
    bug surfaced verbatim.
    """

    session_id: str
    request: str   # message class name
    error: str     # "ExceptionType: message"
