"""Picklable messages exchanged between the planner and worker processes.

Workers run in spawn-mode child processes, so everything crossing the
boundary must round-trip through pickle *and* reconstruct faithfully:
errors travel as plain ``(kind, message, line, method)`` tuples rather than
exception instances because :class:`StaticTypeError`'s constructor formats
its arguments (re-pickling the instance would re-format an already-formatted
message and lose the structured ``line``/``method`` fields).

One session vocabulary (:class:`AttachUniverse` / :class:`SessionDelta` /
:class:`CheckRequest` …) serves every off-process check.  Workers keep live
label universes between rounds, receive schema-journal deltas and
post-build load records instead of rebuilding, and re-check only dirty
methods.  Messages are routed to a *specific* worker process (state lives
there), so they carry a ``session_id`` and the worker side is a dispatch
loop (:func:`repro.parallel.worker.session_main`).  The one message that
names no session is ``AttachUniverse(None, …)``: it prebuilds pristine
replicas into the worker's catalog for later attaches to adopt.

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
    errors: list[tuple[str, str, int, str]] = field(default_factory=list)
    casts_used: int = 0
    oracle_casts: int = 0
    deps: MethodDeps | None = None
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
    from scratch (or adopted from the worker's pristine replica catalog),
    and the universes then *stay alive* in the worker while subsequent
    :class:`SessionDelta` messages keep them converged with the engine's
    universe.  Re-attaching an existing session id replaces its replicas
    (crash recovery / journal gaps fall back to this).  A ``None`` session
    id prebuilds the labels into the catalog and attaches nothing (fleet
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
class SessionDelta:
    """Converge a session's live replicas with the engine's universe.

    ``events`` are :meth:`SchemaEvent.to_wire` tuples (the journal delta
    since the worker's last synced generation), replayed against every
    replica's live ``Database``; ``loads`` are post-pristine program
    sources (method definition records), re-executed against every
    replica's interpreter/registry.  After a successful delta the
    replica's generation equals the engine universe's — which the ack
    reports and the engine asserts.
    """

    session_id: str
    events: tuple[tuple, ...] = ()
    loads: tuple[str, ...] = ()
    trace: bool = False


@dataclass
class DeltaAck:
    """Delta reply: post-replay generations, for parity verification."""

    session_id: str
    generations: dict[str, int] = field(default_factory=dict)  # label -> gen
    events_applied: int = 0
    loads_applied: int = 0
    pid: int = 0
    spans: tuple = ()
    counters: tuple = ()


@dataclass(frozen=True)
class CheckRequest:
    """Check a method slice against a session's live replicas.

    The worker resolves each spec's label to that session's replica, runs
    the ``check_one`` loop and returns a :class:`ShardResult`.
    """

    session_id: str
    shard_id: int
    specs: tuple[MethodSpec, ...] = ()
    trace: bool = False
    #: attribute comp-cache traffic per verdict worker-side (the ``prov``
    #: field on each MethodVerdict); False adds no payload at all
    provenance: bool = False


@dataclass(frozen=True)
class DetachSession:
    """Drop one session's replicas (the worker process stays up)."""

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

    The engine decides what the failure means: a replay divergence bounds
    the delta (cold re-attach / serial fallback), an unknown session id
    means the worker restarted, anything else is a bug surfaced verbatim.
    """

    session_id: str
    request: str   # message class name
    error: str     # "ExceptionType: message"
