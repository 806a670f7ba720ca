"""Span recording: the tracing core of :mod:`repro.obs`.

A *span* is one timed phase of the check lifecycle (``universe.build``,
``comp.eval``, ``session.delta``, …), recorded as a Chrome ``trace_event``
complete event (``"ph": "X"``) the moment its context manager exits.  The
buffer therefore already holds export-ready, picklable dicts — workers ship
slices of it back to the engine verbatim, and nesting needs no explicit
parent links because Chrome/Perfetto reconstruct it from ``ts``/``dur``
containment per ``(pid, tid)``.

Timestamps come from :func:`time.perf_counter`, which on Linux is
``CLOCK_MONOTONIC`` — one system-wide clock, so spans recorded in worker
processes line up with the engine's on a shared timeline.

Everything here is built around one rule: **disabled tracing must cost
nothing on hot paths**.  ``span()`` checks the module-level flag first and
returns a shared no-op singleton — no dict, no object allocation; the
genuinely hot sites (interpreter dispatch, subtype queries, row ops)
additionally guard with ``if ENABLED[0]:`` so a disabled run does not even
pay the function call.
"""

from __future__ import annotations

import os
import threading
import time

from repro.obs.state import COUNTERS, ENABLED, bump

#: buffered trace events (chrome trace_event dicts), drained by exporters
#: and by workers shipping spans back to the engine
_EVENTS: list[dict] = []

#: buffer hard cap: a tracing-enabled run that never exports must not grow
#: without bound; overflow drops new events and counts them
_MAX_EVENTS = 500_000


# ---------------------------------------------------------------------------
# the switch
# ---------------------------------------------------------------------------

def enabled() -> bool:
    """Whether span/metric recording is on."""
    return ENABLED[0]


def enable() -> None:
    ENABLED[0] = True


def disable() -> None:
    ENABLED[0] = False


def set_enabled(on: bool) -> None:
    ENABLED[0] = bool(on)


# ---------------------------------------------------------------------------
# the buffer
# ---------------------------------------------------------------------------

def mark() -> int:
    """The current buffer position; pass to :func:`drain` to take only the
    events recorded after this point (how workers isolate one request's
    spans without stealing an in-process caller's earlier ones)."""
    return len(_EVENTS)


def drain(start: int = 0) -> list[dict]:
    """Remove and return every buffered event from ``start`` on."""
    taken = _EVENTS[start:]
    del _EVENTS[start:]
    return taken


def absorb(events, counters) -> None:
    """Merge events and ``(name, n)`` counter deltas from a worker reply.

    No-op while disabled, so a worker that kept tracing after the engine
    turned it off cannot silently re-fill the buffer.
    """
    if ENABLED[0]:
        _EVENTS.extend(events)
        for name, n in counters:
            bump(name, n)


def events() -> list[dict]:
    """A snapshot of the buffer (exporters read this; not draining)."""
    return list(_EVENTS)


def buffered() -> int:
    return len(_EVENTS)


def reset() -> None:
    """Clear the buffer and every process-wide counter — VM inline caches
    and compiled membership included (tests / fresh capture runs)."""
    _EVENTS.clear()
    COUNTERS.clear()


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

def counters() -> dict[str, int]:
    return dict(COUNTERS)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class _NullSpan:
    """The disabled fast path: one shared instance, every method a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """One live span; records a complete event when the ``with`` exits."""

    __slots__ = ("name", "cat", "_args", "_start")

    def __init__(self, name: str, label, cat: str):
        self.name = name
        self.cat = cat
        self._args = {"label": label} if label is not None else None
        self._start = 0.0

    def set(self, key: str, value) -> None:
        """Attach a structured attribute (shows under ``args`` in Perfetto)."""
        if self._args is None:
            self._args = {}
        self._args[key] = value

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        if len(_EVENTS) >= _MAX_EVENTS:
            bump("obs.events_dropped")
            return False
        record = {
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": self._start * 1e6,
            "dur": (end - self._start) * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if exc_type is not None:
            self.set("error", exc_type.__name__)
        if self._args is not None:
            record["args"] = self._args
        _EVENTS.append(record)
        return False


def span(name: str, label=None, cat: str = "repro"):
    """A context manager timing one phase: ``with obs.span("universe.build",
    label="discourse") as sp: ...; sp.set("methods", n)``.

    Returns the shared no-op span while tracing is disabled — no dict or
    object is allocated, so instrumented code paths stay cheap.
    """
    if not ENABLED[0]:
        return NULL_SPAN
    return Span(name, label, cat)


def event(name: str, label=None, cat: str = "repro",
          args: dict | None = None) -> None:
    """An instant event (``"ph": "i"``) — retries, worker deaths, and other
    point-in-time occurrences that have no duration."""
    if not ENABLED[0]:
        return
    if len(_EVENTS) >= _MAX_EVENTS:
        bump("obs.events_dropped")
        return
    payload = dict(args) if args else {}
    if label is not None:
        payload["label"] = label
    record = {
        "name": name,
        "cat": cat,
        "ph": "i",
        "ts": time.perf_counter() * 1e6,
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "s": "p",
    }
    if payload:
        record["args"] = payload
    _EVENTS.append(record)


def traced(name: str | None = None, cat: str = "repro"):
    """Decorator form of :func:`span`: times every call of the function
    under ``name`` (default: the function's qualified name)."""
    def decorate(fn):
        span_name = name or fn.__qualname__

        def wrapper(*args, **kwargs):
            if not ENABLED[0]:
                return fn(*args, **kwargs)
            with span(span_name, cat=cat):
                return fn(*args, **kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper
    return decorate
