"""The shard planner: partition one label's pending methods into balanced
shards.

The cost model mirrors how work is actually spent: a method's **check
cost** is its last *observed* wall time when the incremental stats have one
(``IncrementalStats.method_costs``, recorded by every
``TypeChecker.check_one``), then the static-analysis cost weight, falling
back to a comp-count heuristic — call sites are where comp types evaluate
(rule C-App-Comp), so a body's ``MethodCall`` node count is the best static
proxy for its checking cost.

A shard only pays off when it saves more checking than its worker spends
getting a replica: ``build_cost`` is that price.  Session rounds over live
replicas pass 0 (every split pays); sizing a fresh pool uses
:data:`DEFAULT_BUILD_COST`, the price of a worker's first replica build.

Planning is deterministic: all orderings derive from the caller's spec
order, with explicit tie-breaks, so the same inputs always produce the same
shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import ast_nodes as ast
from repro.obs.spans import traced
from repro.parallel.protocol import MethodSpec

#: the price in seconds of a fresh worker's replica build
DEFAULT_BUILD_COST = 0.05
#: fallback per-method base checking cost in seconds
BASE_METHOD_COST = 0.0004
#: heuristic cost of one potential comp-evaluation site (a call node)
COMP_SITE_COST = 0.0002


#: comp-site counts by node identity.  Parsed programs are shared across
#: universes, so every fresh universe of an app plans from these; each
#: entry keeps its node alive, so the id cannot be reused while it lives.
_SITE_COUNTS: dict[int, tuple[object, int]] = {}
_SITE_COUNTS_MAX = 4096


def comp_site_count(node) -> int:
    """Count ``MethodCall`` nodes reachable from an AST node — each call is
    a potential comp evaluation during checking (operators included, since
    the parser desugars them to calls)."""
    entry = _SITE_COUNTS.get(id(node))
    if entry is not None:
        return entry[1]
    count = sum(isinstance(current, ast.MethodCall)
                for current in ast.walk(node))
    if len(_SITE_COUNTS) >= _SITE_COUNTS_MAX:
        _SITE_COUNTS.clear()
    _SITE_COUNTS[id(node)] = (node, count)
    return count


def method_cost(spec: MethodSpec, registry=None, stats=None,
                static_costs: dict | None = None) -> float:
    """Predicted checking cost (seconds) for one method.

    Sources, best first: the observed wall-time EWMA, the static-analysis
    cost weight (``repro.analysis`` — comps/tables the method's footprint
    actually reaches), then the raw comp-site count heuristic.
    """
    if stats is not None:
        observed = stats.method_costs.get(spec.desc)
        if observed is not None:
            return max(observed, 1e-6)
    if static_costs is not None:
        weight = static_costs.get(spec.desc)
        if weight is not None:
            if stats is not None:
                stats.bump("analysis.static_costs")
            return BASE_METHOD_COST * weight
    sites = 0
    if registry is not None:
        node = registry.defined_methods.get(spec.key())
        if node is not None:
            sites = comp_site_count(node)
    return BASE_METHOD_COST + COMP_SITE_COST * sites


@dataclass
class Shard:
    """One worker's assignment."""

    index: int
    specs: list[MethodSpec] = field(default_factory=list)


@traced("fleet.plan_shards")
def plan_shards(
    specs: list[MethodSpec],
    workers: int,
    registry=None,
    stats=None,
    build_cost: float = DEFAULT_BUILD_COST,
    static_costs: dict | None = None,
) -> list[Shard]:
    """Partition ``specs`` into at most ``workers`` balanced shards.

    ``registry`` holds the method bodies (for the comp-count heuristic);
    ``static_costs`` maps method descs to analysis-derived cost weights
    (``AnalysisReport.static_costs()``), consulted when no wall time has
    been observed yet.  While there are spare workers, the costliest group
    of methods is halved (LPT), but only when half its checking outweighs
    ``build_cost``.  Each group becomes one shard, costliest first.
    """
    groups = [[(spec, method_cost(spec, registry, stats, static_costs))
               for spec in specs]]
    while len(groups) < max(1, workers):
        candidates = [group for group in groups
                      if len(group) > 1 and _cost(group) / 2 > build_cost]
        if not candidates:
            break
        # max() keeps the oldest group on ties: list order is creation order
        group = max(candidates, key=_cost)
        groups.remove(group)
        groups.extend(_halve(group))

    order = {spec: index for index, spec in enumerate(specs)}
    ranked = sorted((group for group in groups if group),
                    key=lambda group: -_cost(group))
    return [Shard(index, sorted((spec for spec, _ in group),
                                key=order.__getitem__))
            for index, group in enumerate(ranked)]


def _cost(group) -> float:
    return sum(cost for _, cost in group)


def _halve(group) -> tuple[list, list]:
    """Split one group's methods into two cost-balanced halves (LPT)."""
    left: list = []
    right: list = []
    ordered = sorted(enumerate(group), key=lambda item: (-item[1][1], item[0]))
    for _, entry in ordered:
        (left if _cost(left) <= _cost(right) else right).append(entry)
    return left, right
