"""Schema generations and the change journal.

The database schema is the mutable state comp types consult (§4), so every
schema mutation gets a monotonically increasing *generation* number.  The
journal records which tables each generation touched, letting the comp
cache and the incremental scheduler invalidate only what a change could
actually affect instead of flushing everything.

The journal is bounded: once it forgets events (production-scale runs can
migrate thousands of times), queries about generations older than the
retained window conservatively answer "everything changed".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

#: Dependency marker meaning "read the whole schema" (e.g. ``RDL.db_schema``
#: or reverse lookups over every table).  Any schema change invalidates it.
WILDCARD = "*"

#: event kinds whose ``detail`` names a second affected table: an
#: association's partner, or a rename's new name (dependents of either
#: name must be invalidated).  Shared with the scheduler's dirty marking —
#: both views of "what changed" must agree or verdicts go stale.
TWO_TABLE_KINDS = ("association", "rename_table")


class ReplayError(RuntimeError):
    """A journal event could not be replayed onto a replica database.

    Raised when the replica's generation does not line up with the event
    stream (the replica diverged from the universe that recorded the
    events) or when an event's payload is missing/malformed.  Warm worker
    sessions treat this as "the delta cannot be bounded" and fall back to
    a cold attach.
    """


@dataclass(frozen=True)
class SchemaEvent:
    """One schema mutation: what happened, to which table, at which generation.

    ``payload`` carries whatever replay needs beyond the names: the column
    kinds for ``create_table`` / ``add_column``.  It is always built from
    plain strings/tuples so the wire form (:meth:`to_wire`) is stable
    across processes and pickle-free transports.
    """

    kind: str                 # create_table / drop_table / rename_table /
                              # add_column / drop_column / rename_column /
                              # association
    generation: int
    table: str
    column: str | None = None
    detail: str | None = None  # e.g. rename target, association partner
    payload: tuple | None = None  # replay data, e.g. column kinds

    def describe(self) -> str:
        parts = [f"gen {self.generation}: {self.kind} {self.table}"]
        if self.column:
            parts.append(f".{self.column}")
        if self.detail:
            parts.append(f" ({self.detail})")
        return "".join(parts)

    # -- wire encoding -----------------------------------------------------
    def to_wire(self) -> tuple:
        """A stable, pickle-friendly tuple for the session protocol.

        Plain strings/ints/tuples only, so the encoding survives any
        transport (pipes today, sockets for a distributed fleet) and two
        processes always agree on what an event means.
        """
        return (self.kind, self.generation, self.table, self.column,
                self.detail, self.payload)

    @classmethod
    def from_wire(cls, record: tuple) -> "SchemaEvent":
        kind, generation, table, column, detail, payload = record
        return cls(kind, generation, table, column, detail,
                   tuple(tuple(p) if isinstance(p, (list, tuple)) else p
                         for p in payload) if payload is not None else None)


class SchemaJournal:
    """A bounded log of :class:`SchemaEvent`, queryable by generation."""

    def __init__(self, max_events: int = 4096):
        self.max_events = max_events
        self._events: deque[SchemaEvent] = deque()

    def record(self, event: SchemaEvent) -> None:
        self._events.append(event)
        while len(self._events) > self.max_events:
            self._events.popleft()

    # ------------------------------------------------------------------
    @property
    def oldest_retained(self) -> int:
        """The earliest generation the journal can still answer precisely."""
        if not self._events:
            return 0
        return self._events[0].generation - 1

    def events_since(self, generation: int) -> list[SchemaEvent]:
        return [e for e in self._events if e.generation > generation]

    def tables_changed_since(self, generation: int) -> set[str]:
        """Tables touched after ``generation``.

        Contains :data:`WILDCARD` when the journal has forgotten events that
        old, which forces callers to treat everything as changed.
        """
        if generation < self.oldest_retained:
            return {WILDCARD}
        changed: set[str] = set()
        for event in self._events:
            if event.generation > generation:
                changed.add(event.table)
                if event.detail and event.kind in TWO_TABLE_KINDS:
                    changed.add(event.detail)
        return changed

    def __len__(self) -> int:
        return len(self._events)


def affects(deps: frozenset | set, changed: set[str]) -> bool:
    """Whether a dependency set is hit by a set of changed tables."""
    if not changed:
        return False
    if WILDCARD in changed or WILDCARD in deps:
        return True
    return bool(deps & changed)
