"""Per-verdict provenance: why is this verdict what it is, and what changed it?

A comp-type verdict is *derived* — from the schema state, the type-level
evaluations it triggered, and the method's recorded dependency footprint —
and the repo has two production paths (serial and warm sessions, on two
storage backends) whose parity is asserted but was never inspectable.
This module records, for every verdict a universe produces:

* **how** it was produced — a fresh in-process evaluation or a
  warm-session worker (with worker pid, shard index, and session id), plus
  how often the cached verdict was served since;
* **from what** — the dependency footprint (:class:`MethodDeps` tables,
  columns, comp codes) and the schema generation it was checked at;
* **what changed it** — which :class:`SchemaJournal` events dirtied it
  since its last check, and a bounded *flip history*: ``verdict changed at
  generation G; dirtying events: [...]``;
* **at what cost** — comp-cache hits/misses attributed to the check and
  the wall time the span layer measured, on the same ``perf_counter``
  timeline trace events use.

Recording is off by default and guarded by the same one-element-list cell
pattern as tracing (``PROVENANCE`` in :mod:`repro.obs.state`): the comp-eval
microloop is untouched, and the only per-method work in disabled mode is
one flag read returning the shared :data:`NULL_CAPTURE`.  Arm it with
``CompRDL(provenance=True)``, :func:`enable`, or ``REPRO_PROVENANCE`` (an
on/off token, or a path to auto-export JSONL at process exit).

Worker-side provenance piggybacks on protocol replies exactly like spans:
each :class:`MethodVerdict` carries a small ``prov`` tuple when the request
asked for it and ``None`` otherwise — a disabled round adds zero payload.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from repro.obs.state import PROVENANCE

#: flips retained per method — enough to answer "what changed it lately"
#: without letting a migration-storm benchmark grow history without bound
FLIP_HISTORY_LIMIT = 8

#: every ledger that has recorded at least one verdict this process —
#: the ``REPRO_PROVENANCE=path`` atexit export merges them.  Registration
#: is lazy (first record), so disabled runs never touch this list.
_LEDGERS: list["ProvenanceLedger"] = []


# ---------------------------------------------------------------------------
# the switch (mirrors repro.obs.spans)
# ---------------------------------------------------------------------------

def enabled() -> bool:
    """Whether per-verdict provenance recording is on."""
    return PROVENANCE[0]


def enable() -> None:
    PROVENANCE[0] = True


def disable() -> None:
    PROVENANCE[0] = False


def set_enabled(on: bool) -> None:
    PROVENANCE[0] = bool(on)


def reset() -> None:
    """Forget every registered ledger (tests / fresh capture runs).  The
    ledgers themselves live on in their universes; only the process-wide
    export registry is cleared."""
    _LEDGERS.clear()


# ---------------------------------------------------------------------------
# per-check capture: comp-cache attribution without touching the microloop
# ---------------------------------------------------------------------------

class _NullCapture:
    """The disabled fast path: one shared instance, every field zero."""

    __slots__ = ()

    comp_hits = 0
    comp_misses = 0
    wall_s = 0.0

    def __enter__(self) -> "_NullCapture":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_CAPTURE = _NullCapture()


class Capture:
    """Attribute comp-cache traffic (and wall time) to one method check.

    The comp engine's hit path stays untouched: ``IncrementalStats`` counts
    hits/misses unconditionally already, so a per-check *delta* of those
    counters costs four attribute reads at method granularity — far off the
    microloop the perf budget guards.
    """

    __slots__ = ("stats", "comp_hits", "comp_misses", "wall_s",
                 "_hits0", "_misses0", "_start")

    def __init__(self, stats):
        self.stats = stats
        self.comp_hits = 0
        self.comp_misses = 0
        self.wall_s = 0.0

    def __enter__(self) -> "Capture":
        self._hits0 = self.stats.comp_hits
        self._misses0 = self.stats.comp_misses
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self._start
        self.comp_hits = self.stats.comp_hits - self._hits0
        self.comp_misses = self.stats.comp_misses - self._misses0
        return False


def capture(stats):
    """A context manager attributing one check's comp-cache traffic;
    returns the shared no-op :data:`NULL_CAPTURE` while disabled."""
    if not PROVENANCE[0]:
        return NULL_CAPTURE
    return Capture(stats)


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------

@dataclass
class VerdictRecord:
    """One verdict's provenance entry (the latest production of a method)."""

    desc: str
    producer: dict                    # kind / pid / shard / session
    generation: int                   # schema generation it was checked at
    errors: tuple[str, ...] = ()
    tables: tuple[str, ...] = ()
    columns: tuple[str, ...] = ()     # "table.column", sorted
    comps: tuple[str, ...] = ()       # comp codes, sorted
    comp_hits: int = 0
    comp_misses: int = 0
    wall_s: float = 0.0
    ts: float = 0.0                   # perf_counter µs — the trace timeline
    serves: int = 0                   # cached-verdict reuses since production


def _verdict_word(errors) -> str:
    if not errors:
        return "PASS"
    return f"{len(errors)} error" + ("s" if len(errors) != 1 else "")


def dirtying_events(journal, generation: int, tables) -> list:
    """Journal events after ``generation`` that touch ``tables`` — exactly
    the events that dirty (or would dirty) a verdict with that footprint.
    Mirrors the scheduler's dirty marking: two-table kinds touch their
    ``detail`` partner, and a wildcard footprint is touched by everything.
    """
    # lazy: a top-level import of repro.incremental here would close an
    # import cycle through the scheduler (which imports this module)
    from repro.incremental.versioning import TWO_TABLE_KINDS, WILDCARD

    if journal is None:
        return []
    wildcard = WILDCARD in tables
    table_set = set(tables)
    touched = []
    for event in journal.events_since(generation):
        changed = {event.table}
        if event.detail and event.kind in TWO_TABLE_KINDS:
            changed.add(event.detail)
        if wildcard or changed & table_set:
            touched.append(event)
    return touched


class ProvenanceLedger:
    """Per-universe verdict provenance: latest records plus flip history.

    Owned by the :class:`IncrementalScheduler`; every production path
    funnels through it — ``_check`` for fresh in-process verdicts,
    ``feed_incremental`` for fleet/warm adoptions — so one ledger answers
    for a universe no matter which path produced which verdict.
    """

    def __init__(self, stats=None):
        self.records: dict[object, VerdictRecord] = {}
        self.flips: dict[object, list[dict]] = {}
        self.stats = stats
        self._registered = False

    def __len__(self) -> int:
        return len(self.records)

    def record(self, key, desc: str, errors, generation: int, deps=None,
               producer: dict | None = None, comp_hits: int = 0,
               comp_misses: int = 0, wall_s: float = 0.0,
               journal=None) -> VerdictRecord:
        """Install the provenance entry for one (re)produced verdict.

        A changed error tuple against the previous record appends a flip
        entry — including the journal events that dirtied the old verdict,
        computed against the *previous* record's footprint (what the old
        verdict depended on is what a migration could have flipped).
        """
        errors_t = tuple(str(error) for error in errors)
        previous = self.records.get(key)
        if previous is not None and previous.errors != errors_t:
            events = dirtying_events(journal, previous.generation,
                                     previous.tables)
            flips = self.flips.setdefault(key, [])
            flips.append({
                "generation": generation,
                "from": _verdict_word(previous.errors),
                "to": _verdict_word(errors_t),
                "events": [event.describe() for event in events],
            })
            del flips[:-FLIP_HISTORY_LIMIT]
            if self.stats is not None:
                self.stats.bump("provenance.flips")
        entry = VerdictRecord(
            desc=desc,
            producer=dict(producer) if producer else {"kind": "fresh"},
            generation=generation,
            errors=errors_t,
            ts=time.perf_counter() * 1e6,
            comp_hits=comp_hits,
            comp_misses=comp_misses,
            wall_s=wall_s,
        )
        if deps is not None:
            footprint = deps.summary()
            entry.tables = tuple(footprint["tables"])
            entry.columns = tuple(footprint["columns"])
            entry.comps = tuple(footprint["comps"])
        self.records[key] = entry
        if not self._registered:
            self._registered = True
            _LEDGERS.append(self)
        return entry

    def note_serve(self, key) -> None:
        """A clean cached verdict was served without re-checking."""
        entry = self.records.get(key)
        if entry is not None:
            entry.serves += 1

    # ------------------------------------------------------------------
    def export_records(self) -> list[dict]:
        """Every record (plus its flips) as JSONL-ready dicts, ordered by
        production timestamp — the same µs timeline the trace uses."""
        rows = []
        for key, entry in self.records.items():
            rows.append({
                "type": "verdict",
                "method": entry.desc,
                "verdict": {"ok": not entry.errors,
                            "errors": list(entry.errors)},
                "producer": dict(entry.producer),
                "generation": entry.generation,
                "dependencies": {"tables": list(entry.tables),
                                 "columns": list(entry.columns),
                                 "comps": list(entry.comps)},
                "comp_cache": {"hits": entry.comp_hits,
                               "misses": entry.comp_misses},
                "timing": {"wall_ms": round(entry.wall_s * 1e3, 3),
                           "ts_us": round(entry.ts, 1)},
                "cache_serves": entry.serves,
                "flips": [dict(flip) for flip in self.flips.get(key, [])],
            })
        rows.sort(key=lambda row: row["timing"]["ts_us"])
        return rows


# ---------------------------------------------------------------------------
# explain: the structured answer, plus a rendered tree
# ---------------------------------------------------------------------------

def explain(scheduler, class_name: str, method_name: str,
            static: bool = False) -> dict:
    """Why is this method's verdict what it is, and what changed it?

    Reads the scheduler's ledger plus its *live* state (dirty set, current
    generation, journal), so the answer distinguishes "checked and still
    valid" from "stale: these events dirtied it since generation N".
    """
    from repro.typecheck.registry import MethodKey

    key = MethodKey(class_name, method_name, static)
    desc = str(key)
    db = scheduler.db
    current = getattr(db, "version", 0) if db is not None else 0
    entry = scheduler.provenance.records.get(key)
    if entry is None:
        if key in scheduler.results:
            reason = ("verdict exists but no provenance was recorded — "
                      "enable it (CompRDL(provenance=True), "
                      "obs.provenance.enable(), or REPRO_PROVENANCE=1) "
                      "before checking")
        else:
            reason = "method has never been checked in this universe"
        return {"method": desc, "known": False, "reason": reason,
                "generation": {"current": current}}
    journal = getattr(db, "journal", None) if db is not None else None
    stale = key in scheduler.dirty
    dirtied = [event.describe() for event in
               dirtying_events(journal, entry.generation, entry.tables)]
    return {
        "method": desc,
        "known": True,
        "verdict": {"ok": not entry.errors, "errors": list(entry.errors)},
        "producer": dict(entry.producer),
        "generation": {"checked_at": entry.generation, "current": current,
                       "stale": stale},
        "dependencies": {"tables": list(entry.tables),
                         "columns": list(entry.columns),
                         "comps": list(entry.comps)},
        "comp_cache": {"hits": entry.comp_hits, "misses": entry.comp_misses},
        "timing": {"wall_ms": round(entry.wall_s * 1e3, 3),
                   "ts_us": round(entry.ts, 1)},
        "cache_serves": entry.serves,
        "dirtied_by": dirtied,
        "flips": [dict(flip) for flip in
                  scheduler.provenance.flips.get(key, [])],
    }


def parity_view(info: dict) -> dict:
    """The production-path-independent subset of an :func:`explain` dict.

    Who produced a verdict (pid, shard, session), how warm its comp cache
    happened to be, and how long it took are legitimately different across
    serial / warm-session runs; everything *about the verdict
    itself* — errors, footprint, generation, staleness, flip structure —
    must be identical, and the parity tests compare exactly this view.
    """
    if not info.get("known"):
        return {"method": info["method"], "known": False}
    return {
        "method": info["method"],
        "verdict": info["verdict"],
        "generation": info["generation"],
        "dependencies": info["dependencies"],
        "dirtied_by": info["dirtied_by"],
        "flips": info["flips"],
    }


def render_explain(info: dict) -> str:
    """An :func:`explain` dict as a human-readable tree."""
    lines = [f"verdict provenance — {info['method']}"]
    if not info.get("known"):
        lines.append(f"└─ unknown: {info['reason']}")
        return "\n".join(lines)
    verdict = info["verdict"]
    producer = info["producer"]
    generation = info["generation"]
    deps = info["dependencies"]

    produced = {"fresh": "fresh in-process eval",
                "warm": "warm-session worker"}.get(
                    producer.get("kind"), producer.get("kind", "?"))
    where = [f"pid {producer['pid']}"] if "pid" in producer else []
    if "shard" in producer:
        where.append(f"shard {producer['shard']}")
    if "session" in producer:
        where.append(f"session {producer['session']}")
    suffix = f" ({', '.join(where)})" if where else ""

    lines.append(f"├─ verdict: {_verdict_word(verdict['errors'])}")
    for error in verdict["errors"]:
        lines.append(f"│    {error}")
    lines.append(f"├─ produced by: {produced}{suffix} "
                 f"at schema generation {generation['checked_at']}")
    lines.append(f"├─ timing: {info['timing']['wall_ms']:.2f} ms wall; "
                 f"comp cache {info['comp_cache']['hits']} hits / "
                 f"{info['comp_cache']['misses']} misses")
    lines.append("├─ dependency footprint")
    lines.append(f"│  ├─ tables: {', '.join(deps['tables']) or '(none)'}")
    lines.append(f"│  ├─ columns: {', '.join(deps['columns']) or '(none)'}")
    lines.append(f"│  └─ comp codes: {len(deps['comps'])}")
    state = "STALE" if generation["stale"] else "valid"
    lines.append(f"├─ schema: checked at generation "
                 f"{generation['checked_at']}, now {generation['current']} "
                 f"— {state}")
    for event in info["dirtied_by"]:
        lines.append(f"│    dirtied by {event}")
    lines.append(f"├─ served from verdict cache {info['cache_serves']}× "
                 f"since production")
    flips = info["flips"]
    if not flips:
        lines.append("└─ flips: none recorded")
    else:
        lines.append(f"└─ flips: {len(flips)} recorded")
        for index, flip in enumerate(flips):
            branch = "└─" if index == len(flips) - 1 else "├─"
            lines.append(f"   {branch} at generation {flip['generation']}: "
                         f"{flip['from']} → {flip['to']}")
            for event in flip["events"]:
                lines.append(f"        after {event}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSONL export (shares the trace timeline)
# ---------------------------------------------------------------------------

def export_jsonl(path: str, ledgers=None) -> str:
    """Write provenance records as JSON Lines — one verdict per line,
    ordered by production timestamp (``timing.ts_us`` is the same
    ``perf_counter`` µs timeline the Chrome trace uses, so the two exports
    line up event-for-event).  ``ledgers`` defaults to every ledger that
    recorded anything in this process; returns ``path``.
    """
    from repro.obs.export import open_export

    if ledgers is None:
        ledgers = list(_LEDGERS)
    rows = [row for ledger in ledgers for row in ledger.export_records()]
    rows.sort(key=lambda row: row["timing"]["ts_us"])
    with open_export(path) as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True))
            handle.write("\n")
    return path


def recorded() -> int:
    """Total verdict records across every registered ledger."""
    return sum(len(ledger) for ledger in _LEDGERS)
