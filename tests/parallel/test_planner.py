"""Unit tests for the shard planner and the wire protocol (no processes)."""

import pytest

from repro.incremental.stats import IncrementalStats
from repro.parallel import MethodSpec, method_cost, plan_shards
from repro.parallel.planner import (
    BASE_METHOD_COST,
    COMP_SITE_COST,
    DEFAULT_BUILD_COST,
    comp_site_count,
)
from repro.parallel.protocol import decode_error, encode_error
from repro.typecheck.errors import StaticTypeError, TerminationError


def _specs(label: str, count: int) -> list[MethodSpec]:
    return [MethodSpec(label, "C", f"m{i}", False) for i in range(count)]


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def test_method_cost_prefers_observed_over_heuristic():
    stats = IncrementalStats()
    spec = MethodSpec("app", "C", "m", False)
    heuristic = method_cost(spec, registry=None, stats=stats)
    assert heuristic == BASE_METHOD_COST
    stats.method_costs[spec.desc] = 0.25
    assert method_cost(spec, registry=None, stats=stats) == 0.25


def test_comp_site_heuristic_reads_the_method_body():
    from repro import CompRDL

    rdl = CompRDL(install_libraries=False)
    rdl.load("""
class C
  def busy(xs)
    xs.map { |x| x + 1 }.select { |x| x > 2 }
  end
  def idle()
    nil
  end
end
""")
    from repro.typecheck.registry import MethodKey

    busy = rdl.registry.defined_methods[MethodKey("C", "busy", False)]
    idle = rdl.registry.defined_methods[MethodKey("C", "idle", False)]
    assert comp_site_count(busy) > comp_site_count(idle)
    busy_spec = MethodSpec("app", "C", "busy", False)
    cost = method_cost(busy_spec, registry=rdl.registry, stats=None)
    assert cost > BASE_METHOD_COST
    assert cost == BASE_METHOD_COST + COMP_SITE_COST * comp_site_count(busy)


# ---------------------------------------------------------------------------
# sharding
# ---------------------------------------------------------------------------

def test_plan_covers_every_spec_exactly_once():
    specs = _specs("a", 12)
    shards = plan_shards(specs, workers=3, build_cost=0.0)
    assert len(shards) == 3
    planned = [spec for shard in shards for spec in shard.specs]
    assert sorted(planned, key=specs.index) == specs
    assert len(planned) == len(set(planned)) == len(specs)


def test_plan_is_deterministic():
    specs = _specs("a", 14)
    first = plan_shards(specs, workers=4, build_cost=0.0)
    second = plan_shards(specs, workers=4, build_cost=0.0)
    assert [s.specs for s in first] == [s.specs for s in second]


def test_heavy_label_splits_across_spare_workers():
    stats = IncrementalStats()
    specs = _specs("hot", 8)
    for spec in specs:
        stats.method_costs[spec.desc] = 1.0  # checking dwarfs any build
    shards = plan_shards(specs, workers=4, stats=stats, build_cost=0.01)
    assert len(shards) == 4
    sizes = sorted(len(shard.specs) for shard in shards)
    assert sizes == [2, 2, 2, 2]


def test_cheap_methods_stay_in_one_shard_when_a_build_dominates():
    # a fresh worker pays a replica build (DEFAULT_BUILD_COST): twelve
    # heuristic-cost methods do not save that much, so 4 workers get 1
    # shard — the plan that sizes a fresh pool for check_all(workers=N)
    specs = _specs("a", 12)
    assert 12 * BASE_METHOD_COST / 2 < DEFAULT_BUILD_COST
    assert len(plan_shards(specs, workers=4)) == 1
    assert len(plan_shards(specs, workers=4, build_cost=0.0)) == 4


def test_single_worker_gets_everything_in_serial_order():
    specs = _specs("a", 4) + _specs("b", 2)
    shards = plan_shards(specs, workers=1)
    assert len(shards) == 1
    assert shards[0].specs == specs


# ---------------------------------------------------------------------------
# EWMA cost model
# ---------------------------------------------------------------------------

def test_observe_cost_is_an_ewma_not_last_observation():
    from repro.incremental.stats import COST_EWMA_ALPHA

    stats = IncrementalStats()
    assert stats.observe_cost("C#m", 0.10) == pytest.approx(0.10)
    updated = stats.observe_cost("C#m", 0.20)
    # a single outlier moves the estimate toward — not onto — the new value
    expected = COST_EWMA_ALPHA * 0.20 + (1 - COST_EWMA_ALPHA) * 0.10
    assert updated == pytest.approx(expected)
    assert 0.10 < stats.method_costs["C#m"] < 0.20
    # repeated observations converge
    for _ in range(30):
        stats.observe_cost("C#m", 0.20)
    assert stats.method_costs["C#m"] == pytest.approx(0.20, rel=1e-3)


# ---------------------------------------------------------------------------
# error wire format
# ---------------------------------------------------------------------------

def test_error_roundtrip_preserves_class_message_line_method():
    for error in (StaticTypeError("bad type", 12, "C#m"),
                  TerminationError("loops forever", 3, "C#t")):
        rebuilt = decode_error(encode_error(error))
        assert type(rebuilt) is type(error)
        assert str(rebuilt) == str(error)
        assert rebuilt.message == error.message
        assert rebuilt.line == error.line
        assert rebuilt.method == error.method
