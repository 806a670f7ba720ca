"""The incremental re-check scheduler.

Sits between the public facade and the :class:`TypeChecker`: it remembers
every method verdict (errors + cast counts) together with the schema
generation it was computed at, listens to schema-change events from the
database, and dirties exactly the methods whose recorded dependencies a
change touches.  ``check_all`` / ``recheck_dirty`` then re-verify only
dirty or never-checked methods and assemble a full report from cached
verdicts for the rest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.incremental.versioning import TWO_TABLE_KINDS, SchemaEvent
from repro.obs import provenance as prov
from repro.obs.spans import span
from repro.obs.state import PROVENANCE as _PROV_ON
from repro.typecheck.errors import StaticTypeError, TypeErrorReport


@dataclass
class MethodResult:
    """One method's cached verdict."""

    key: object               # MethodKey
    desc: str
    errors: list[StaticTypeError] = field(default_factory=list)
    casts_used: int = 0
    oracle_casts: int = 0
    generation: int = 0


class IncrementalScheduler:
    """Dirty-set bookkeeping + batch / incremental checking entry points."""

    def __init__(self, checker, registry, db=None):
        self.checker = checker
        self.registry = registry
        self.db = db
        self.tracker = checker.engine.deps
        self.stats = checker.engine.stats
        self.results: dict[object, MethodResult] = {}
        self.dirty: set[object] = set()
        self.labels: list[str] = []
        # every production path writes this universe's verdict provenance
        # here — _check for fresh verdicts, feed_incremental for fleet/warm
        # adoptions; empty (and never touched) while provenance is disabled
        self.provenance = prov.ProvenanceLedger(stats=self.stats)
        if db is not None and hasattr(db, "add_change_listener"):
            db.add_change_listener(self.on_schema_change)
        if hasattr(registry, "add_method_listener"):
            registry.add_method_listener(self.on_method_change)

    # ------------------------------------------------------------------
    # schema-change reaction
    # ------------------------------------------------------------------
    def on_schema_change(self, event: SchemaEvent) -> None:
        changed = {event.table}
        # associations and table renames touch a second table (the partner /
        # the new name); dependents of either must be dirtied
        if event.detail and event.kind in TWO_TABLE_KINDS:
            changed.add(event.detail)
        # every cached verdict carries dynamic deps: _check records them
        # through check_one, feed_incremental adopts the worker's
        affected = self.tracker.methods_affected_by(changed) & set(self.results)
        fresh = affected - self.dirty
        self.dirty |= affected
        self.stats.methods_dirtied += len(fresh)
        self.stats.schema_events += 1

    def on_method_change(self, key, redefined) -> None:
        """A ``load`` defined a method or added an annotation: its cached
        verdict (if any) is stale regardless of the schema generation.  A
        *re*definition or re-annotation may change what a type-level helper
        computes, so every cached verdict that evaluated a comp is stale
        too.  A brand-new key dirties itself and the verdicts that
        evaluated a comp whose §4 walk named it: that comp called the
        method before it existed (the engine's listener, which runs first,
        collected those comps)."""
        if key in self.results:
            self.dirty.add(key)
            self.stats.methods_dirtied += 1
        comps = self.checker.engine.stale_comps
        if redefined:
            stale = {other for other in self.results
                     if other not in self.dirty
                     and self.tracker.deps_of(other).comps}
        elif comps:
            stale = {other for other in self.results
                     if other not in self.dirty
                     and not comps.isdisjoint(self.tracker.deps_of(other).comps)}
        else:
            return
        self.dirty |= stale
        self.stats.methods_dirtied += len(stale)

    def mark_all_dirty(self) -> None:
        """Escape hatch: force full re-verification on the next pass."""
        self.dirty |= set(self.results)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def check_all(self, labels) -> TypeErrorReport:
        """Batch-check every method under ``labels``, reusing clean verdicts.

        The first call populates the verdict store; later calls (or calls
        after schema edits) re-verify only dirty / new methods.
        """
        if isinstance(labels, str):
            labels = [labels]
        labels = [label.lstrip(":") for label in labels]
        for label in labels:
            if label not in self.labels:
                self.labels.append(label)
        return self.resolve(self.keys_for(labels))

    def recheck_dirty(self) -> TypeErrorReport:
        """Re-verify only dirty methods; the report still covers every
        label previously checked, verdict-for-verdict equal to a full
        re-check."""
        return self.resolve(self.keys_for(self.labels))

    def resolve(self, keys) -> TypeErrorReport:
        """A report covering ``keys`` in order: dirty or never-checked
        methods are (re)verified against the live universe, clean cached
        verdicts are reused as-is."""
        keys = list(keys)
        with span("incremental.resolve") as sp:
            sp.set("methods", len(keys))
            report = TypeErrorReport()
            for key in keys:
                self._ensure(key, report)
        return report

    # ------------------------------------------------------------------
    # exportable scheduling state (the parallel engines plan over these)
    # ------------------------------------------------------------------
    def keys_for(self, labels) -> list:
        """The serial-order method keys for ``labels`` (registry order per
        label, deduplicated by key — the order every report follows)."""
        keys: list = []
        seen: set = set()
        for label in labels:
            for key in self.registry.methods_for_label(label):
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
        return keys

    def pending_keys(self, labels=None) -> list:
        """Dirty or never-checked method keys, in serial order.

        Exactly the work a ``recheck_dirty`` pass would perform in-process
        — exported so the warm session engine can shard it across workers;
        everything else is served from cached verdicts either way.
        """
        if labels is None:
            labels = self.labels
        return [
            key for key in self.keys_for(labels)
            if key not in self.results or key in self.dirty
        ]

    def _ensure(self, key, report: TypeErrorReport) -> None:
        result = self.results.get(key)
        if result is None or key in self.dirty:
            result = self._check(key)
        else:
            self.stats.methods_skipped += 1
            if _PROV_ON[0]:
                self.provenance.note_serve(key)
        report.checked_methods.append(result.desc)
        report.errors.extend(result.errors)
        report.casts_used += result.casts_used
        report.oracle_casts += result.oracle_casts

    def _check(self, key) -> MethodResult:
        cap = prov.capture(self.stats)
        with cap:
            desc, errors, casts, oracle = self.checker.check_one(
                key.class_name, key.method_name, key.static)
        generation = getattr(self.db, "version", 0) if self.db else 0
        result = MethodResult(key, desc, errors, casts, oracle, generation)
        self.results[key] = result
        self.dirty.discard(key)
        self.stats.methods_checked += 1
        if cap is not prov.NULL_CAPTURE:
            self.provenance.record(
                key, desc, errors, generation,
                deps=self.tracker.deps_of(key),
                producer={"kind": "fresh", "pid": os.getpid()},
                comp_hits=cap.comp_hits,
                comp_misses=cap.comp_misses,
                wall_s=self.checker.last_check_wall_s,
                journal=getattr(self.db, "journal", None),
            )
        return result

    # ------------------------------------------------------------------
    # introspection (benchmarks / diagnostics)
    # ------------------------------------------------------------------
    def table_fanout(self) -> dict[str, int]:
        """How many checked methods depend on each table (wildcard included)."""
        fanout: dict[str, int] = {}
        for key in self.results:
            for table in self.tracker.deps_of(key).tables:
                fanout[table] = fanout.get(table, 0) + 1
        return fanout
