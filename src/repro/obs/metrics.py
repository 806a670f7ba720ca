"""The unified metrics registry: one snapshot, stable keys.

Before this module each layer reported numbers its own way —
``IncrementalStats`` attributes, ``WarmRun`` diagnostics, VM counters that
were simply invisible.  :func:`metrics_snapshot` merges the two counter
homes — per-universe :class:`~repro.incremental.stats.IncrementalStats`
and the process-wide registry (:data:`repro.obs.state.COUNTERS`) — into
one flat dict with dotted, **stable** key names:

* ``comp_cache.*`` / ``ast_cache.*`` / ``methods.*`` / ``schema.*`` /
  ``fleet.*`` / ``planner.*`` / ``warm.*`` / ``analysis.*`` /
  ``provenance.flips`` — from the ``IncrementalStats`` sources passed in
* ``counters.<name>`` — every process-wide counter (VM inline caches,
  compiled membership, subtype queries, comp-eval hits, db row ops, …)
* ``vm.*`` / ``membership.*`` / ``fuzz.*`` / ``faults.*`` / ``sessions.*``
  — those prefixes' counters again under their bare names.  The VM's
  ``vm.inline_cache.{hits,misses,hit_rate}`` and compiled membership's
  ``membership.{compiles,pred_cache_hits,ic_hits,ic_misses,ic_hit_rate}``
  are always present (zero until tracing counts them); the two hit rates
  derive from the registry
* ``intern.types`` / ``intern.fingerprints`` / ``intern.envs`` — the
  hash-consing table sizes (process-wide)

Imports of the instrumented layers are lazy (inside the function): even
the leaf ``repro.obs.state`` import runs ``repro.obs.__init__``, which
imports this module, so a top-level import of a layer that itself imports
``repro.obs`` would complete a cycle.
"""

from __future__ import annotations

from repro.obs import spans

#: counter prefixes exported under their bare name as well as
#: ``counters.<name>``
_BARE_PREFIXES = ("vm", "membership", "fuzz", "faults", "sessions")

#: bare counter keys every snapshot carries, zero until first bumped
_ZERO_KEYS = (
    "vm.inline_cache.hits", "vm.inline_cache.misses",
    "membership.compiles", "membership.pred_cache_hits",
    "membership.ic_hits", "membership.ic_misses",
)


def _rate(counters: dict, hits: str, misses: str) -> float:
    hit = counters.get(hits, 0)
    total = hit + counters.get(misses, 0)
    return round(hit / total, 4) if total else 0.0


def metrics_snapshot(*sources) -> dict:
    """One flat metrics dict merging every layer's counters.

    ``sources`` are :class:`IncrementalStats` instances (or anything with a
    ``snapshot()`` returning a flat dict).  With several sources, integer
    counters sum, rates/floats are recomputed or last-write-wins per key —
    callers wanting per-universe numbers pass one source at a time.
    """
    snap: dict = {}
    for source in sources:
        if source is None:
            continue
        for key, value in source.snapshot().items():
            if key in snap and isinstance(value, int) \
                    and isinstance(snap[key], int):
                snap[key] += value
            else:
                snap[key] = value

    # repro.rtypes.__init__ re-exports the intern *function* under the same
    # name as the submodule, so plain ``import repro.rtypes.intern as ...``
    # resolves to the function; go through importlib for the module itself
    import importlib
    intern_tables = importlib.import_module("repro.rtypes.intern")
    snap["intern.types"] = intern_tables.interned_count()
    snap["intern.fingerprints"] = intern_tables.fingerprint_count()
    snap["intern.envs"] = intern_tables.env_count()

    counters = spans.counters()
    for name, value in counters.items():
        snap[f"counters.{name}"] = value
        # these prefixes also get first-class dotted keys alongside the
        # generic counters.* namespace: dashboards watching the VM, the
        # fuzzer or the fault harness shouldn't depend on the prefix
        if name.split(".", 1)[0] in _BARE_PREFIXES:
            snap[name] = value
    for name in _ZERO_KEYS:
        snap.setdefault(name, 0)
    snap["vm.inline_cache.hit_rate"] = _rate(
        counters, "vm.inline_cache.hits", "vm.inline_cache.misses")
    snap["membership.ic_hit_rate"] = _rate(
        counters, "membership.ic_hits", "membership.ic_misses")

    snap["obs.enabled"] = spans.enabled()
    snap["obs.buffered_events"] = spans.buffered()

    from repro.obs import faults
    snap["faults.enabled"] = faults.enabled()

    from repro.obs import provenance
    snap["provenance.enabled"] = provenance.enabled()
    snap["provenance.records"] = provenance.recorded()
    return snap


def metrics_diff(before: dict, after: dict) -> dict:
    """Stable-key snapshot subtraction: what changed between two
    :func:`metrics_snapshot` (or ``IncrementalStats.snapshot()``) dicts.

    Numeric values subtract (``after - before``, missing treated as 0);
    bools and strings report the ``after`` value when it changed.  Keys
    whose delta is zero / unchanged are omitted, so asserting "this round
    added no comp-cache misses" is ``diff.get("comp_cache.misses", 0) == 0``
    and a no-op round diffs to ``{}``.
    """
    diff: dict = {}
    for key in before.keys() | after.keys():
        old, new = before.get(key), after.get(key)
        if old == new:
            continue
        numeric_old = isinstance(old, (int, float)) and not isinstance(old, bool)
        numeric_new = isinstance(new, (int, float)) and not isinstance(new, bool)
        if (numeric_old or old is None) and (numeric_new or new is None):
            delta = (new or 0) - (old or 0)
            if delta:
                diff[key] = round(delta, 9) if isinstance(delta, float) else delta
        else:
            diff[key] = new
    return diff
