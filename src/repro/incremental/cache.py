"""Memoization caches for comp-type evaluation.

Two caches back the comp engine:

* :class:`AstCache` — parsed comp programs, keyed on source text.  Comp
  code never changes behind our back, so entries live forever (bounded
  only by distinct comp expressions).

* :class:`CompEvalCache` — evaluated comp results, keyed on
  ``(comp code, binding types)`` and stamped with the schema generation and
  the set of tables the evaluation read.  On lookup at a newer generation
  the entry is *revalidated* against the schema journal: if none of its
  tables changed since it was stored the entry survives (its stamp moves
  forward); otherwise it is invalidated.  This is what makes re-checking
  after a one-table migration cheap — every other table's comp results are
  still warm.

Both are LRU-bounded so production-scale runs cannot grow without bound.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.incremental.stats import IncrementalStats
from repro.incremental.versioning import SchemaJournal, affects
from repro.rtypes.intern import env_fingerprint


def binding_key(bindings: dict) -> int:
    """A hashable key for a comp binding environment (``tself`` + type vars).

    The whole environment is interned (:func:`repro.rtypes.intern.
    env_fingerprint`): environments of interned types resolve with a single
    identity-table lookup, and the key is one machine int — no per-type
    fingerprint tupling, no string formatting.  Two environments get the
    same key exactly when every binding is structurally identical, as
    before.
    """
    return env_fingerprint(bindings)


@dataclass
class CacheEntry:
    """One memoized comp evaluation."""

    value: object             # the RType the comp produced
    generation: int           # schema generation the entry is valid at
    tables: frozenset[str]    # tables the evaluation read
    # the columns and nested comps it read, replayed with the tables on a
    # hit so a method's footprint is the same warm or cold
    columns: frozenset[tuple[str, str]] = frozenset()
    comps: frozenset[str] = frozenset()


class CompEvalCache:
    """LRU cache of comp evaluations with journal-driven invalidation."""

    def __init__(self, maxsize: int = 4096,
                 stats: IncrementalStats | None = None):
        self.maxsize = maxsize
        self.stats = stats or IncrementalStats()
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()

    # ------------------------------------------------------------------
    def lookup(self, code: str, bkey: int, generation: int,
               journal: SchemaJournal | None) -> CacheEntry | None:
        key = (code, bkey)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.comp_misses += 1
            return None
        if entry.generation != generation:
            changed = (journal.tables_changed_since(entry.generation)
                       if journal is not None else {"*"})
            if affects(entry.tables, changed):
                del self._entries[key]
                self.stats.comp_invalidations += 1
                self.stats.comp_misses += 1
                return None
            # the schema moved on but none of this entry's tables did
            entry.generation = generation
            self.stats.comp_revalidations += 1
        self._entries.move_to_end(key)
        self.stats.comp_hits += 1
        return entry

    def store(self, code: str, bkey: int, generation: int,
              tables, value, columns=(), comps=()) -> CacheEntry:
        key = (code, bkey)
        entry = CacheEntry(value, generation, frozenset(tables),
                           frozenset(columns), frozenset(comps))
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.comp_evictions += 1
        return entry

    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class AstCache:
    """Parsed comp programs, keyed on source text."""

    def __init__(self, maxsize: int = 8192,
                 stats: IncrementalStats | None = None):
        self.maxsize = maxsize
        self.stats = stats or IncrementalStats()
        self._entries: OrderedDict[str, object] = OrderedDict()

    def get(self, code: str):
        program = self._entries.get(code)
        if program is None:
            self.stats.ast_misses += 1
            return None
        self._entries.move_to_end(code)
        self.stats.ast_hits += 1
        return program

    def store(self, code: str, program) -> None:
        self._entries[code] = program
        self._entries.move_to_end(code)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)
