"""The shard planner: partition one label's pending methods into balanced
shards.

The cost model mirrors how work is actually spent: a method's **check
cost** is its last *observed* wall time when the incremental stats have one
(``IncrementalStats.method_costs``, recorded by every
``TypeChecker.check_one``), falling back to a comp-count heuristic — call
sites are where comp types evaluate (rule C-App-Comp), so a body's
``MethodCall`` node count is the best static proxy for its checking cost.

Every spare worker gets a shard: the workers are already up (the
process's pool is kept between rounds), and a worker that holds no
replicas attaches with its shard's request.

Planning is deterministic: all orderings derive from the caller's spec
order, with explicit tie-breaks, so the same inputs always produce the same
shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import ast_nodes as ast
from repro.obs.spans import traced
from repro.parallel.protocol import MethodSpec

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


def method_cost(spec: MethodSpec, registry=None, stats=None) -> float:
    """Predicted checking cost (seconds) for one method: the observed
    wall-time EWMA, else the comp-site count heuristic."""
    if stats is not None:
        observed = stats.method_costs.get(spec.desc)
        if observed is not None:
            return max(observed, 1e-6)
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
) -> list[Shard]:
    """Partition ``specs`` into at most ``workers`` balanced shards.

    ``registry`` holds the method bodies (for the comp-count heuristic).
    While there are spare workers, the costliest group of several methods
    is halved (LPT).  Each group becomes one shard, costliest first.
    """
    groups = [[(spec, method_cost(spec, registry, stats)) for spec in specs]]
    while len(groups) < max(1, workers):
        candidates = [group for group in groups if len(group) > 1]
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
