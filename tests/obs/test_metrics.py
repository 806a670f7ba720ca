"""The unified metrics registry and the stable-key stats snapshot."""

import json

from repro import obs
from repro.api import CompRDL
from repro.incremental import IncrementalStats

#: the public key contract — benchmarks and downstream charting read these;
#: renaming any of them is a breaking change
STATS_KEYS = {
    "comp_cache.hits", "comp_cache.misses", "comp_cache.hit_rate",
    "comp_cache.revalidations", "comp_cache.invalidations",
    "comp_cache.evictions",
    "ast_cache.hits", "ast_cache.misses", "ast_cache.hit_rate",
    "methods.checked", "methods.skipped", "methods.dirtied",
    "methods.reuse_rate", "methods.checked_parallel",
    "schema.events",
    "fleet.shards", "fleet.rounds",
    "planner.cost_model_size",
    "warm.retries", "warm.fallbacks",
}


def test_incremental_stats_snapshot_has_stable_keys():
    stats = IncrementalStats()
    assert set(stats.snapshot()) == STATS_KEYS


def test_snapshot_reflects_counters_and_extra_mapping():
    stats = IncrementalStats(comp_hits=3, comp_misses=1, methods_checked=4,
                             methods_skipped=12)
    stats.bump("warm.retries", 2)
    stats.extra["analysis.diagnostics"] = 2
    stats.extra["warm.fallbacks"] = 3
    snap = stats.snapshot()
    assert snap["comp_cache.hits"] == 3
    assert snap["comp_cache.hit_rate"] == 0.75
    assert snap["methods.reuse_rate"] == 0.75
    # free-form extras are keyed by their stable names and override the
    # always-present defaults...
    assert snap["warm.retries"] == 2
    assert snap["warm.fallbacks"] == 3
    # ...and extras beyond the fixed key set are preserved, not dropped
    assert snap["analysis.diagnostics"] == 2
    assert set(snap) == STATS_KEYS | {"analysis.diagnostics"}


def test_metrics_snapshot_unifies_every_layer():
    obs.enable()
    rdl = CompRDL()
    rdl.load("""
class MetricsProbe
  type :"self.answer", "() -> Integer", typecheck: :probe
  def self.answer()
    42
  end
end
""")
    assert rdl.check_all("probe").ok()
    snap = rdl.metrics_snapshot()
    # incremental-stats keys pass through
    assert snap["methods.checked"] >= 1
    # process-wide layers join the same flat dict under their own prefixes
    assert "vm.inline_cache.hits" in snap
    assert "vm.inline_cache.misses" in snap
    assert "vm.inline_cache.hit_rate" in snap
    assert snap["intern.types"] > 0
    assert snap["obs.enabled"] is True
    # obs counters appear namespaced (subtype queries ran during the check)
    assert snap.get("counters.subtype.queries", 0) > 0
    # and the whole thing is JSON-serializable as-is
    json.dumps(snap)


#: the VM and compiled-membership keys every snapshot carries
PROCESS_KEYS = (
    "vm.inline_cache.hits", "vm.inline_cache.misses",
    "vm.inline_cache.hit_rate",
    "membership.compiles", "membership.pred_cache_hits",
    "membership.ic_hits", "membership.ic_misses", "membership.ic_hit_rate",
)


def test_reset_clears_every_process_wide_counter():
    from repro.rtypes import NominalType
    from repro.runtime.member_compile import predicate_for

    obs.enable()
    rdl = CompRDL()
    # an inline-cached call site (monomorphic, RString receiver)...
    rdl.interp.run('i = 0\nwhile i < 5\n  i = i + "ab".length()\nend\ni')
    # ...and a nominal membership check on a never-compiled type
    rtype = NominalType("ObsResetCounterProbe")
    predicate = predicate_for(rtype)
    predicate(rdl.interp, 3)
    predicate(rdl.interp, 3)
    predicate_for(rtype)
    snap = obs.metrics_snapshot()
    assert all(snap[key] > 0 for key in PROCESS_KEYS), snap
    assert all(snap[f"counters.{key}"] == snap[key]
               for key in PROCESS_KEYS if not key.endswith("hit_rate"))

    obs.reset()
    snap = obs.metrics_snapshot()
    assert {key: snap[key] for key in PROCESS_KEYS} == \
        dict.fromkeys(PROCESS_KEYS, 0)
    assert not any(key.startswith(("counters.vm.", "counters.membership."))
                   for key in snap)


def test_metrics_snapshot_merges_multiple_sources():
    first = IncrementalStats(comp_hits=2)
    second = IncrementalStats(comp_hits=5)
    snap = obs.metrics_snapshot(first, second)
    assert snap["comp_cache.hits"] == 7  # ints sum across universes


def test_metrics_snapshot_reports_provenance_state():
    from repro.obs import provenance

    snap = obs.metrics_snapshot()
    assert snap["provenance.enabled"] is False
    assert snap["provenance.records"] == 0
    provenance.enable()
    provenance.ProvenanceLedger().record("k", "K#m", [], 1)
    snap = obs.metrics_snapshot()
    assert snap["provenance.enabled"] is True
    assert snap["provenance.records"] == 1


def test_metrics_diff_subtracts_numeric_keys():
    before = {"comp_cache.hits": 10, "comp_cache.misses": 4,
              "methods.checked": 7, "obs.enabled": False,
              "comp_cache.hit_rate": 0.5}
    after = {"comp_cache.hits": 25, "comp_cache.misses": 4,
             "methods.checked": 9, "obs.enabled": True,
             "comp_cache.hit_rate": 0.75}
    diff = obs.metrics_diff(before, after)
    assert diff["comp_cache.hits"] == 15
    assert diff["methods.checked"] == 2
    # unchanged keys are omitted — a diff reads as "what moved"
    assert "comp_cache.misses" not in diff
    assert diff["comp_cache.hit_rate"] == 0.25
    # non-numeric changes report the after value
    assert diff["obs.enabled"] is True


def test_metrics_diff_handles_missing_and_none_values():
    before = {"warm.retries": None, "fleet.shards": 2}
    after = {"warm.retries": 3, "counters.subtype.queries": 40,
             "fleet.shards": 2}
    diff = obs.metrics_diff(before, after)
    # None and absent both count as zero on the numeric side
    assert diff["warm.retries"] == 3
    assert diff["counters.subtype.queries"] == 40
    assert "fleet.shards" not in diff
    # the documented idiom: "no misses during the window"
    assert diff.get("comp_cache.misses", 0) == 0


def test_metrics_diff_brackets_a_real_check():
    obs.enable()
    rdl = CompRDL()
    rdl.load("""
class DiffProbe
  type :"self.answer", "() -> Integer", typecheck: :probe
  def self.answer()
    42
  end
end
""")
    before = rdl.metrics_snapshot()
    assert rdl.check_all("probe").ok()
    diff = obs.metrics_diff(before, rdl.metrics_snapshot())
    assert diff["methods.checked"] >= 1
    # a second no-op pass moves nothing in the checked counter
    before = rdl.metrics_snapshot()
    rdl.check_all("probe")
    diff = obs.metrics_diff(before, rdl.metrics_snapshot())
    assert diff.get("methods.checked", 0) == 0


def test_perfbench_ledger_counter_keys_move_on_a_traced_cycle():
    """perfbench's per-layer ledger reads these snapshot keys with
    ``counters.get(key, 0)``: a renamed key would silently read as zero,
    so one traced build/check/checked-suite cycle must move every one."""
    from repro.apps import all_apps

    obs.enable()
    obs.reset()
    before = obs.metrics_snapshot()
    app = next(app for app in all_apps() if app.label == "journey")
    rdl = app.build()
    rdl.check(app.label)
    rdl.run(app.test_suite, checks=True)
    diff = obs.metrics_diff(before, obs.metrics_snapshot())
    for key in ("counters.comp.eval.hits", "counters.subtype.queries",
                "membership.ic_hits", "membership.ic_misses"):
        assert diff.get(key, 0) > 0, key

