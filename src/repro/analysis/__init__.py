"""``repro.analysis`` — static analysis over comp-typed mini-Ruby code.

Two passes, neither of which executes any type-level code:

* **footprint inference** (:mod:`repro.analysis.footprint`) — an abstract
  interpreter over the mini-Ruby AST that over-approximates each method's
  *dependency footprint*: the tables, ``table.column`` pairs, comp codes,
  and native helpers its checking could possibly read.  The contract is
  soundness relative to the dynamic tracker: for every method, the static
  footprint is a superset of the :class:`~repro.incremental.deps.MethodDeps`
  the checker records while actually verifying it (``static ⊇ dynamic``),
  falling back to a wildcard where literal reasoning runs out.
* **effect lint** (:mod:`repro.analysis.lint`) — drives the §4
  termination walk (:mod:`repro.comp.termination`) over every comp and
  helper body and collects all of its structured diagnostics, with
  stable rule ids, instead of raising on the first: loops in type-level
  code, calls to possibly-divergent or impure methods, iterators with
  mutating blocks, and helper-recursion cycles the dynamic checker
  assumes away.

The analysis reports; it does not schedule.  Checking, re-dirtying and
shard planning run on the dependencies the dynamic tracker records, and
the fuzzer asserts ``static ⊇ dynamic`` against them.

Surfaces: ``python -m repro.analysis`` (the repo-wide diagnostics CLI),
``CompRDL.analyze()``, and ``analysis.*`` keys in ``metrics_snapshot()``.
"""

from repro.analysis.footprint import (
    FootprintAnalyzer,
    StaticFootprint,
    TABLE_READING_NATIVES,
)
from repro.analysis.lint import Diagnostic, EffectLinter, lint_universe
from repro.analysis.report import AnalysisReport, analyze_universe

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "EffectLinter",
    "FootprintAnalyzer",
    "StaticFootprint",
    "TABLE_READING_NATIVES",
    "analyze_universe",
    "lint_universe",
]
