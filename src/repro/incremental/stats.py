"""Counters for the incremental checking engine.

One :class:`IncrementalStats` instance is shared by the comp caches and the
scheduler of a CompRDL universe, so a single summary answers "what did
incrementality buy us" — cache hit rates, invalidation traffic, and how
many method re-checks were skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: weight of the newest observation in the per-method cost EWMA.  One noisy
#: round (a GC pause, a cold cache) must not swing the shard planner, but a
#: genuine cost shift should dominate within a few rounds: at 0.4 the last
#: three observations carry ~78% of the weight.
COST_EWMA_ALPHA = 0.4

@dataclass
class IncrementalStats:
    """Hit/miss and scheduling accounting for one CompRDL universe."""

    # comp evaluation cache
    comp_hits: int = 0
    comp_misses: int = 0
    comp_revalidations: int = 0   # entry survived a generation bump untouched
    comp_invalidations: int = 0   # entry dropped because its tables changed
    comp_evictions: int = 0       # LRU capacity evictions
    # parsed comp ASTs (schema-independent, never invalidated)
    ast_hits: int = 0
    ast_misses: int = 0
    # method scheduling
    methods_checked: int = 0
    methods_skipped: int = 0      # clean cached verdict reused
    methods_dirtied: int = 0      # marked dirty by schema changes
    schema_events: int = 0
    # parallel fleet accounting
    methods_checked_parallel: int = 0  # verdicts computed by worker processes
    parallel_shards: int = 0
    parallel_rounds: int = 0
    # observed per-method check wall time (desc -> seconds, exponentially
    # weighted across observations — see observe_cost); the shard planner's
    # cost model reads this
    method_costs: dict = field(default_factory=dict)

    # free-form counters (warm fallbacks, analysis consumers, verdict
    # flips, …), keyed by their stable snapshot names
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def bump(self, key: str, n: int = 1) -> None:
        """Increment the free-form counter ``key`` (a stable snapshot
        name such as ``"warm.fallbacks"``)."""
        self.extra[key] = self.extra.get(key, 0) + n

    def observe_cost(self, desc: str, seconds: float) -> float:
        """Fold one observed method-check wall time into the cost model.

        Keeps an exponentially-weighted moving average per method instead
        of decaying to the last observation, so a single outlier round
        cannot capsize the shard planner's balance.  Returns the updated
        estimate.
        """
        previous = self.method_costs.get(desc)
        if previous is None:
            estimate = seconds
        else:
            estimate = (COST_EWMA_ALPHA * seconds
                        + (1.0 - COST_EWMA_ALPHA) * previous)
        self.method_costs[desc] = estimate
        return estimate

    # ------------------------------------------------------------------
    @property
    def comp_lookups(self) -> int:
        return self.comp_hits + self.comp_misses

    @property
    def comp_hit_rate(self) -> float:
        lookups = self.comp_lookups
        return self.comp_hits / lookups if lookups else 0.0

    @property
    def ast_hit_rate(self) -> float:
        lookups = self.ast_hits + self.ast_misses
        return self.ast_hits / lookups if lookups else 0.0

    @property
    def method_reuse_rate(self) -> float:
        total = self.methods_checked + self.methods_skipped
        return self.methods_skipped / total if total else 0.0

    def snapshot(self) -> dict:
        """The counters as a flat dict with **stable** dotted key names.

        These keys are the public contract consumed by perfbench,
        ``obs.metrics_snapshot()`` and downstream charting — rename only
        with a deprecation story.  ``extra`` is keyed by stable names
        already and merges in as is; ``warm.retries`` and
        ``warm.fallbacks`` are present even before anything sets them.
        """
        snap = {
            "comp_cache.hits": self.comp_hits,
            "comp_cache.misses": self.comp_misses,
            "comp_cache.hit_rate": round(self.comp_hit_rate, 4),
            "comp_cache.revalidations": self.comp_revalidations,
            "comp_cache.invalidations": self.comp_invalidations,
            "comp_cache.evictions": self.comp_evictions,
            "ast_cache.hits": self.ast_hits,
            "ast_cache.misses": self.ast_misses,
            "ast_cache.hit_rate": round(self.ast_hit_rate, 4),
            "methods.checked": self.methods_checked,
            "methods.skipped": self.methods_skipped,
            "methods.dirtied": self.methods_dirtied,
            "methods.reuse_rate": round(self.method_reuse_rate, 4),
            "methods.checked_parallel": self.methods_checked_parallel,
            "schema.events": self.schema_events,
            "fleet.shards": self.parallel_shards,
            "fleet.rounds": self.parallel_rounds,
            "planner.cost_model_size": len(self.method_costs),
            "warm.retries": 0,
            "warm.fallbacks": 0,
        }
        snap.update(self.extra)
        return snap

    def summary(self) -> str:
        parallel = ""
        if self.parallel_rounds:
            parallel = (
                f"\nparallel: {self.methods_checked_parallel} verdicts from "
                f"{self.parallel_shards} shards over "
                f"{self.parallel_rounds} rounds"
            )
        return (
            f"comp cache: {self.comp_hits} hits / {self.comp_misses} misses "
            f"({self.comp_hit_rate:.1%} hit rate), "
            f"{self.comp_revalidations} revalidated, "
            f"{self.comp_invalidations} invalidated, "
            f"{self.comp_evictions} evicted\n"
            f"ast cache: {self.ast_hits} hits / {self.ast_misses} misses "
            f"({self.ast_hit_rate:.1%} hit rate)\n"
            f"methods: {self.methods_checked} checked, "
            f"{self.methods_skipped} reused ({self.method_reuse_rate:.1%}), "
            f"{self.methods_dirtied} dirtied across "
            f"{self.schema_events} schema events"
            f"{parallel}"
        )
