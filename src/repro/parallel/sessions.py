"""Engine-side management of session workers.

One :class:`SessionWorkerHandle` wraps one worker process running
:func:`repro.parallel.worker.session_main` over a private duplex pipe.
:class:`SessionPool` owns a fixed-size fleet of handles and respawns dead
ones blank.  A process keeps one pool per width (:func:`shared_pool`),
which every :class:`~repro.parallel.engine.ParallelCheckEngine` of that
width runs its sessions on; each engine keeps its own session's sync state
per handle.  ``engine.close()`` ends a pool's workers, and an exit handler
ends those of a pool no engine closed.

Every worker forks from one process-wide forkserver (:func:`pool_context`)
whose template, :mod:`repro.parallel.template`, has already imported the
package and built the library base, so a worker is ready in milliseconds.
A worker inherits the *server's* environment, frozen when the server
started, never the parent's current one: whatever a worker must take from
the parent rides on its start arguments (the fault plan, fixed per pool)
or on each request (tracing, provenance, the storage backend).

Crash semantics: every request is a send + recv on the handle's pipe; if
the child died, either call raises and the handle is marked dead —
:class:`WorkerLost` — letting the engine re-plan the affected shard onto
surviving workers instead of losing the round.  A worker-side failure that
is *not* a crash comes back as a ``SessionError`` reply and is raised as
:class:`SessionRequestFailed`: the engine re-plans the shard and
re-attaches the worker on its next request, but never counts it dead.

A third failure mode is the worker that is alive but never replies — a
wedged pipe would otherwise block ``recv()`` forever.  Every recv carries
a deadline (overridable per call, otherwise the handle's, otherwise
``DEADLINE_S``, 120 s); on expiry the worker is killed — its reply stream
can no longer be trusted — and :class:`WorkerWedged` (a ``WorkerLost``)
routes into the same shard-retry path as a crash.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import forkserver

import repro
from repro.obs.spans import bump
from repro.parallel import worker as worker_mod
from repro.parallel.protocol import SessionError, ShardResult, Shutdown

#: the forkserver's preload, imported once in the server before any fork
_TEMPLATE_MODULE = "repro.parallel.template"
#: switches a worker takes from the parent per start or per request; the
#: server starts without them
_PARENT_ONLY_ENV = ("REPRO_TRACE", "REPRO_PROVENANCE", "REPRO_FAULTS")
_SERVER_LOCK = threading.Lock()


def pool_context():
    """The forkserver context every :class:`SessionPool` starts workers
    from, with its server running.

    Started here rather than on the first fork because CPython's forkserver
    ignores the parent's ``sys.path`` and skips a preload that fails to
    import without a word: the server starts with this package's root
    prefixed to ``PYTHONPATH``, so the template loads even when ``repro``
    is importable only through ``sys.path`` (pytest, perfbench).  It also
    starts without the parent-only switches: a server that imported
    ``repro.obs`` under ``REPRO_TRACE=<path>`` would export over the
    parent's trace file at exit.  ``os.environ`` is restored either way.
    """
    ctx = multiprocessing.get_context("forkserver")
    with _SERVER_LOCK:
        ctx.set_forkserver_preload([_TEMPLATE_MODULE])
        saved = {name: os.environ.get(name)
                 for name in ("PYTHONPATH", *_PARENT_ONLY_ENV)}
        root = os.path.dirname(os.path.dirname(repro.__file__))
        try:
            os.environ["PYTHONPATH"] = os.pathsep.join(
                path for path in (root, saved["PYTHONPATH"]) if path)
            for name in _PARENT_ONLY_ENV:
                os.environ.pop(name, None)
            forkserver.ensure_running()  # a no-op while the server lives
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
    return ctx


#: the process-wide pools, by width (see :func:`shared_pool`)
_POOLS: dict[int, SessionPool] = {}


def shared_pool(size: int) -> SessionPool:
    """This process's pool of ``size`` workers, started on first use and
    replaced once ``REPRO_FAULTS`` changed since it started: a request
    made under one fault plan must never reach workers armed with another."""
    pool = _POOLS.get(size)
    if pool is None or pool.faults != os.environ.get("REPRO_FAULTS", ""):
        end_pool(size)
        pool = _POOLS[size] = SessionPool(size)
    return pool


def end_pool(size: int) -> None:
    """End the workers of this process's pool of ``size``, if it has one
    (the next :func:`shared_pool` call starts a fresh one)."""
    pool = _POOLS.pop(size, None)
    if pool is not None:
        pool.close()


def _stop_server() -> None:
    """At exit, end every pool's workers, then stop the forkserver and
    reap it, so that neither outlives this process.  The server stops only
    once no worker is left: every worker holds it open, and one started
    outside a pool is ended later, by multiprocessing's own exit handler."""
    for pool in _POOLS.values():
        pool.close()
    if not multiprocessing.active_children():
        forkserver._forkserver._stop()


atexit.register(_stop_server)


_SESSION_COUNTER = itertools.count(1)


#: default recv deadline in seconds, for a handle and an engine that set
#: none of their own
DEADLINE_S = 120.0


def new_session_id() -> str:
    """A process-unique session id (readable in logs and error messages)."""
    return f"sess-{os.getpid()}-{next(_SESSION_COUNTER)}"


class WorkerLost(RuntimeError):
    """The worker process died (or its pipe broke) mid-conversation."""


class WorkerWedged(WorkerLost):
    """The worker missed its reply deadline; it was killed and marked lost.

    Subclasses :class:`WorkerLost` so every existing retry/re-plan path
    treats a wedged worker exactly like a crashed one.
    """


class SessionRequestFailed(RuntimeError):
    """The worker is alive but could not serve a request."""

    def __init__(self, reply: SessionError):
        super().__init__(f"{reply.request} failed worker-side: {reply.error}")
        self.reply = reply


class SessionWorkerHandle:
    """One live session worker process and its pipe."""

    def __init__(self, ctx, index: int, deadline_s: float | None = None):
        self.index = index
        #: default recv deadline for this handle (None: the module's
        #: DEADLINE_S; <= 0 disables)
        self.deadline_s = deadline_s
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        # the fault plan as the parent has it now: the worker inherits the
        # server's environment, not this one
        self.process = ctx.Process(
            target=worker_mod.session_main,
            args=(child_conn, os.environ.get("REPRO_FAULTS", "")),
            daemon=True)
        self.process.start()
        child_conn.close()
        self.alive = True

    @property
    def pid(self) -> int:
        return self.process.pid or 0

    def request(self, message):
        """One round-trip; raises WorkerLost / SessionRequestFailed."""
        self.send(message)
        return self.recv()

    def send(self, message) -> None:
        if not self.alive:
            raise WorkerLost(f"worker {self.index} already marked dead")
        try:
            self.conn.send(message)
        except (BrokenPipeError, EOFError, OSError) as exc:
            self._lost()
            raise WorkerLost(
                f"worker {self.index} (pid {self.pid}) died on send: "
                f"{exc!r}") from exc

    def recv(self, deadline_s: float | None = None):
        """Receive one reply, bounded by a deadline.

        ``deadline_s`` overrides the handle default (which overrides the
        module's ``DEADLINE_S``); ``<= 0`` waits forever.  On
        expiry the worker is killed — once a reply is late the stream can
        never be resynchronized — and :class:`WorkerWedged` is raised.
        """
        if not self.alive:
            raise WorkerLost(f"worker {self.index} already marked dead")
        if deadline_s is None:
            deadline_s = self.deadline_s
        if deadline_s is None:
            deadline_s = DEADLINE_S
        try:
            if deadline_s > 0 and not self._poll(deadline_s):
                self._wedged(deadline_s)
            reply = self.conn.recv()
        except (BrokenPipeError, EOFError, OSError) as exc:
            self._lost()
            raise WorkerLost(
                f"worker {self.index} (pid {self.pid}) died before "
                f"replying: {exc!r}") from exc
        if isinstance(reply, SessionError):
            raise SessionRequestFailed(reply)
        return reply

    def _poll(self, deadline_s: float) -> bool:
        """True if a reply arrived within ``deadline_s`` seconds."""
        expires = time.monotonic() + deadline_s
        while True:
            remaining = expires - time.monotonic()
            if remaining <= 0:
                return False
            # bounded slices so a clock jump can't extend the wait unbounded
            if self.conn.poll(min(remaining, 1.0)):
                return True

    def _wedged(self, deadline_s: float) -> None:
        pid = self.pid
        try:
            self.process.kill()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        self._lost()
        bump("sessions.recv_timeouts")
        raise WorkerWedged(
            f"worker {self.index} (pid {pid}) missed its {deadline_s:g}s "
            f"reply deadline; killed and marked lost")

    def _lost(self) -> None:
        self.alive = False
        try:
            self.conn.close()
        except OSError:
            pass

    def request_shutdown(self) -> None:
        """Ask the loop to exit without waiting for the process to end."""
        if self.alive:
            try:
                self.conn.send(Shutdown())
            except (BrokenPipeError, EOFError, OSError):
                pass
            self.alive = False
            try:
                self.conn.close()
            except OSError:
                pass

    def close(self) -> None:
        """Graceful shutdown: ask the loop to exit, then reap the process."""
        self.request_shutdown()
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.join(timeout=5)


class SessionPool:
    """A fixed-size fleet of session workers with respawn-on-death."""

    def __init__(self, size: int):
        self.size = max(1, size)
        self.faults = os.environ.get("REPRO_FAULTS", "")  # see shared_pool
        self._ctx = pool_context()
        self.workers: list[SessionWorkerHandle] = []
        self._next_index = 0  # never reused, so diagnostics stay unambiguous

    def ensure(self) -> list[SessionWorkerHandle]:
        """The pool at full strength: dead handles replaced by blank ones
        (new handles, so no session counts them attached)."""
        self.workers = [h for h in self.workers if h.alive]
        while len(self.workers) < self.size:
            self.workers.append(
                SessionWorkerHandle(self._ctx, self._next_index))
            self._next_index += 1
        return list(self.workers)

    def live(self) -> list[SessionWorkerHandle]:
        return [h for h in self.workers if h.alive]

    def close(self) -> None:
        # signal every worker before joining any, so their exits overlap
        for handle in self.workers:
            handle.request_shutdown()
        for handle in self.workers:
            handle.close()
        self.workers = []


@dataclass
class WarmRun:
    """Diagnostics for one warm round (``check`` or ``recheck_dirty``)."""

    methods: int = 0                 # dirty/new methods shipped to workers
    remote: bool = False             # False: nothing pending or fell back
    fallback_reason: str | None = None
    results: list[ShardResult] = field(default_factory=list)
    wall_s: float = 0.0
    plan_s: float = 0.0
    sync_s: float = 0.0              # engine side before dispatch: pool
                                     # start and the catch-up payloads
    retries: int = 0                 # shards re-planned after a worker loss
    #: the session the round ran under (None: serial fallback / no-op) —
    #: the same id provenance records as the verdicts' producer session
    session_id: str | None = None

    @property
    def critical_path_s(self) -> float:
        return max((r.cpu_s for r in self.results), default=0.0)
