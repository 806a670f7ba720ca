"""The shard planner: partition a fleet's methods into balanced shards.

The cost model mirrors how work is actually spent:

* a method's **check cost** is its last *observed* wall time when the
  incremental stats have one (``IncrementalStats.method_costs``, recorded by
  every ``TypeChecker.check_one``), falling back to a comp-count heuristic —
  call sites are where comp types evaluate (rule C-App-Comp), so a body's
  ``MethodCall`` node count is the best static proxy for its checking cost;
* a label's **build cost** is the price a worker pays to rebuild that
  subject app from scratch (observed from previous shard results when
  available).  Build cost is what makes naive method-scatter slow: every
  worker holding any method of an app must rebuild the whole app, so the
  planner keeps a label's methods together and only *splits* a label across
  shards when the split saves more checking time than it duplicates in
  build time.

Planning is deterministic: all orderings derive from the caller's label
order and each label's registry order, with explicit tie-breaks, so the
same inputs always produce the same shards (a prerequisite for the
verdict-parity merge).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import ast_nodes as ast
from repro.obs.spans import traced
from repro.parallel.protocol import MethodSpec

#: fallback app (re)build cost in seconds, used until a worker reports one
DEFAULT_BUILD_COST = 0.05
#: fallback per-method base checking cost in seconds
BASE_METHOD_COST = 0.0004
#: heuristic cost of one potential comp-evaluation site (a call node)
COMP_SITE_COST = 0.0002


def comp_site_count(node) -> int:
    """Count ``MethodCall`` nodes reachable from an AST node — each call is
    a potential comp evaluation during checking (operators included, since
    the parser desugars them to calls)."""
    return sum(isinstance(current, ast.MethodCall)
               for current in ast.walk(node))


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
class _Bin:
    """An unsplittable planning unit: some of one label's methods."""

    label: str
    entries: list[tuple[MethodSpec, float]]
    build_cost: float
    seq: int  # creation order, for deterministic tie-breaks

    @property
    def check_cost(self) -> float:
        return sum(cost for _, cost in self.entries)

    @property
    def total_cost(self) -> float:
        return self.build_cost + self.check_cost


@dataclass
class Shard:
    """One worker's assignment, with the planner's cost prediction."""

    index: int
    specs: list[MethodSpec] = field(default_factory=list)
    predicted_cost: float = 0.0

    @property
    def labels(self) -> list[str]:
        seen: list[str] = []
        for spec in self.specs:
            if spec.label not in seen:
                seen.append(spec.label)
        return seen


@traced("fleet.plan_shards")
def plan_shards(
    specs: list[MethodSpec],
    workers: int,
    registry_for_label=None,
    stats=None,
    build_costs: dict[str, float] | None = None,
    split_bias: float = 1.0,
    static_costs: dict | None = None,
) -> list[Shard]:
    """Partition ``specs`` into at most ``workers`` balanced shards.

    ``registry_for_label`` maps a label to the AnnotationRegistry holding its
    method bodies (for the comp-count heuristic); ``build_costs`` carries
    observed per-label app build times; ``static_costs`` maps method descs
    to analysis-derived cost weights (``AnalysisReport.static_costs()``),
    consulted when no wall time has been observed yet.  Three phases:

    1. **bin** — one bin per label, methods costed individually;
    2. **split** — while there are spare workers, halve the bin whose check
       cost dominates, but only when half the saved checking outweighs the
       duplicated build cost;
    3. **pack** — longest-processing-time greedy over bins into shards.

    ``split_bias`` scales how eagerly phase 2 splits: the fleet engine
    raises it when observed shard CPU times come back imbalanced (the cost
    model under-predicted some label's methods, so the plan should split
    finer next round) and decays it back toward 1.0 while rounds stay
    balanced.
    """
    workers = max(1, workers)
    build_costs = build_costs or {}

    bins: list[_Bin] = []
    by_label: dict[str, _Bin] = {}
    for spec in specs:
        registry = registry_for_label(spec.label) if registry_for_label else None
        cost = method_cost(spec, registry, stats, static_costs)
        existing = by_label.get(spec.label)
        if existing is None:
            existing = _Bin(
                label=spec.label,
                entries=[],
                build_cost=build_costs.get(spec.label, DEFAULT_BUILD_COST),
                seq=len(bins),
            )
            by_label[spec.label] = existing
            bins.append(existing)
        existing.entries.append((spec, cost))

    seq = len(bins)
    while len(bins) < workers:
        candidate = _best_split(bins, split_bias)
        if candidate is None:
            break
        bins.remove(candidate)
        left, right = _halve(candidate, seq)
        seq += 2
        bins.extend([left, right])

    shards = [Shard(index=i) for i in range(min(workers, len(bins)))]
    if not shards:
        return []
    loads = [0.0] * len(shards)
    build_paid: list[set[str]] = [set() for _ in shards]
    for bin_ in sorted(bins, key=lambda b: (-b.total_cost, b.seq)):
        target = min(range(len(shards)), key=lambda i: (loads[i], i))
        extra_build = 0.0 if bin_.label in build_paid[target] else bin_.build_cost
        build_paid[target].add(bin_.label)
        loads[target] += bin_.check_cost + extra_build
        shards[target].specs.extend(spec for spec, _ in bin_.entries)
        shards[target].predicted_cost = loads[target]

    order = {spec: index for index, spec in enumerate(specs)}
    for shard in shards:
        shard.specs.sort(key=lambda s: order[s])
    return [s for s in shards if s.specs]


def _best_split(bins: list[_Bin], split_bias: float = 1.0) -> _Bin | None:
    """The bin most worth halving, or None when no split pays for itself:
    halving saves ~check/2 of wall time on the critical path but costs one
    extra app build.  ``split_bias > 1`` (fed back from observed shard
    imbalance) discounts the duplicated build cost, making splits easier
    to justify."""
    candidates = [
        b for b in bins
        if len(b.entries) > 1 and b.check_cost * split_bias / 2 > b.build_cost
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda b: (b.check_cost, -b.seq))


def _halve(bin_: _Bin, seq: int) -> tuple[_Bin, _Bin]:
    """Split one bin's methods into two cost-balanced halves (LPT)."""
    left = _Bin(bin_.label, [], bin_.build_cost, seq)
    right = _Bin(bin_.label, [], bin_.build_cost, seq + 1)
    ordered = sorted(
        enumerate(bin_.entries), key=lambda item: (-item[1][1], item[0])
    )
    for _, entry in ordered:
        target = left if left.check_cost <= right.check_cost else right
        target.entries.append(entry)
    return left, right
