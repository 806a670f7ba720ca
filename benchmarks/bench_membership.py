"""Benchmark: compiled membership predicates vs the structural walker.

Every dynamic check the paper's §4 contract inserts — argument guards,
return guards, cast oracles — bottoms out in a value-membership test
against an RType.  Two ways to answer it:

* **structural** — ``value_has_type`` re-walks the type tree on every
  call: an isinstance ladder re-dispatched per node, unions re-scanned,
  ancestor chains re-walked (the reference semantics; the benchmark
  routes check specs through it by substituting it for
  ``repro.comp.checks.predicate_for``);
* **compiled** — ``predicate_for`` lowers the type once into a closure
  tree; the isinstance ladder is resolved at compile time and nominal
  members carry an epoch-guarded inline cache keyed on the receiver's
  pytype (the only path the dynamic checks ship with).

Measurements:

* **microloop** — per-eval cost of each backend over a corpus that
  covers every membership constructor; the gated metric: the compiled
  predicates must be >= 2x faster per eval.
* **test-suite parity** — every subject app's test suite run with the
  inserted dynamic checks on, once per backend; results, stdout and any
  Blame must agree, and the walker must actually have been consulted.
* **Blame parity** — the §4 staged-column Blame scenario must render a
  byte-identical message under both backends.
* **warm attach** — first warm round after a migration, before/after the
  shared replica catalogs (recorded alongside ``bench_warm``'s gate so
  the membership artifact carries the full per-verdict-floor story).

Run: ``PYTHONPATH=src python benchmarks/bench_membership.py
[--iters N] [--workers N] [--json PATH] [--quick]``
(``BENCH_QUICK=1`` implies ``--quick``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import time

import repro.comp.checks
from repro import CompRDL, Database
from repro.apps import all_apps
from repro.parallel import ParallelCheckEngine
from repro.rtypes import (ConstStringType, NominalType, OptionalArg,
                          SingletonType, parse_type)
from repro.runtime.errors import Blame
from repro.runtime.member_compile import predicate_for
from repro.runtime.membership import value_has_type
from repro.runtime.objects import RArray, RHash, RString, Sym, ruby_inspect

DEFAULT_ITERS = 300
QUICK_ITERS = 25
DEFAULT_WORKERS = 4
RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results",
                            "bench_membership.json")

#: the §4 consistency scenario: checked against a schema with ``staged``,
#: run after the column is dropped -> the re-evaluated comp type no longer
#: matches and the guard must Blame (identically under both backends)
FINDER_SOURCE = """
class User < ActiveRecord::Base
end

class Finder
  type "(Symbol) -> Table<{ id: Integer, username: String, staged: %bool }, User>", typecheck: :finder
  def find_staged(flag)
    User.where(staged: true)
  end
end
"""


@contextlib.contextmanager
def _checks_on(mode: str):
    """Check specs built inside the block use the ``mode`` backend; yields
    a one-slot counter of structural walker calls."""
    calls = [0]

    def walker_for(rtype):
        def pred(interp, value):
            calls[0] += 1
            return value_has_type(interp, value, rtype)
        return pred

    saved = repro.comp.checks.predicate_for
    if mode == "structural":
        repro.comp.checks.predicate_for = walker_for
    try:
        yield calls
    finally:
        repro.comp.checks.predicate_for = saved


def _corpus(interp):
    """(types, values): one type per membership constructor, probed against
    values that hit both the accept and reject paths of each."""
    types = [
        parse_type("Integer"),
        parse_type("String"),
        parse_type("Numeric"),
        parse_type("Object"),
        parse_type("%any"),
        parse_type("%bool"),
        parse_type("Integer or String"),
        parse_type("Integer or String or Symbol or Float"),
        parse_type("Array<Integer>"),
        parse_type("Hash<Symbol, String>"),
        parse_type("{ id: Integer, username: String }"),
        parse_type("[Integer, String]"),
        OptionalArg(NominalType("Integer")),
        SingletonType(3),
        ConstStringType("hi"),
    ]
    values = [
        None, True, False, 0, 3, 2.5,
        RString("hi"), RString("bye"), Sym("id"),
        RArray([1, 2]), RArray([1, RString("x")]),
        RHash.from_pairs([(Sym("id"), 1), (Sym("username"), RString("u"))]),
        RHash.from_pairs([(Sym("k"), RString("v"))]),
        interp.classes["Integer"],
    ]
    return types, values


def bench_microloop(iters: int) -> dict:
    """Per-eval wall time of each backend over the constructor corpus."""
    db = Database()
    db.create_table("users", username="string", staged="boolean")
    rdl = CompRDL(db=db)
    interp = rdl.interp
    types, values = _corpus(interp)

    # parity over the exact pairs the timing loops will run
    preds = [predicate_for(t) for t in types]
    mismatches = 0
    for t, pred in zip(types, preds):
        for value in values:
            if pred(interp, value) != value_has_type(interp, value, t):
                mismatches += 1
                print(f"MISMATCH: {t.to_s()} vs {value!r}")
    assert mismatches == 0, f"{mismatches} verdict mismatches in microloop"

    evals = iters * len(types) * len(values)

    start = time.perf_counter()
    for _ in range(iters):
        for t in types:
            for value in values:
                value_has_type(interp, value, t)
    structural_s = time.perf_counter() - start

    # the check-spec plan binds each predicate once at construction; the
    # timed loop mirrors that steady state (closures prebound, no lookup)
    start = time.perf_counter()
    for _ in range(iters):
        for pred in preds:
            for value in values:
                pred(interp, value)
    compiled_s = time.perf_counter() - start

    return {
        "corpus_types": len(types),
        "corpus_values": len(values),
        "evals_per_backend": evals,
        "structural_wall_s": round(structural_s, 4),
        "compiled_wall_s": round(compiled_s, 4),
        "per_eval_structural_us": round(structural_s / evals * 1e6, 4),
        "per_eval_compiled_us": round(compiled_s / evals * 1e6, 4),
        "speedup": round(structural_s / compiled_s, 2)
        if compiled_s else float("inf"),
    }


def _suite_outcomes(mode: str, apps) -> tuple[dict, int]:
    """Each app's test suite with dynamic checks on, under one backend:
    (result, stdout, Blame) per app, plus the structural walker's calls."""
    outcomes = {}
    with _checks_on(mode) as calls:
        for app in apps:
            rdl = app.build()
            rdl.check(app.label)
            try:
                result = ("ok", ruby_inspect(
                    rdl.run(app.test_suite, checks=True)))
            except Blame as blame:
                result = ("blame", str(blame))
            outcomes[app.label] = (result, list(rdl.stdout))
    return outcomes, calls[0]


def bench_mode_parity(quick: bool) -> dict:
    """Test-suite parity across backends — the semantic gate: a faster
    membership test that changes any dynamic-check verdict is a bug, not a
    result."""
    apps = list(all_apps())
    if quick:
        apps = [min(apps, key=lambda a: a.source_loc())]
    structural, walker_calls = _suite_outcomes("structural", apps)
    compiled, _ = _suite_outcomes("compiled", apps)
    assert walker_calls > 0, "the test suites ran no dynamic checks"
    for label, outcome in structural.items():
        assert compiled[label] == outcome, f"test suite diverged: {label}"
    return {
        "apps": [app.label for app in apps],
        "dynamic_checks": walker_calls,
        "configurations": 2,  # {structural, compiled} x test suite + checks
        "parity": True,
    }


def _blame_message(mode: str) -> str:
    db = Database()
    db.create_table("users", username="string", staged="boolean")
    rdl = CompRDL(db=db)
    rdl.load(FINDER_SOURCE)
    with _checks_on(mode):
        report = rdl.check(":finder")
    assert report.ok(), report.summary()
    db.drop_column("users", "staged")
    try:
        rdl.run("Finder.new.find_staged(:staged)", checks=True)
    except Blame as blame:
        return str(blame)
    raise AssertionError(f"expected a Blame under {mode}")


def bench_blame_parity() -> dict:
    structural = _blame_message("structural")
    compiled = _blame_message("compiled")
    assert compiled == structural, (
        f"Blame text diverged:\n  structural: {structural}\n"
        f"  compiled:   {compiled}")
    return {"parity": True, "message": structural}


def bench_warm_attach(workers: int) -> dict | None:
    """First warm round after a migration, unseeded vs seeded by the cold
    fleet's shared replica catalogs (same measurement bench_warm gates;
    recorded here so this artifact tells the whole floor-lowering story)."""
    from bench_warm import _measure_setup, _migration_table

    # smallest subject app that actually has a table to migrate (the
    # smallest overall is a table-less API client — nothing to attach)
    for app in sorted(all_apps(), key=lambda a: a.source_loc()):
        table = _migration_table(app.build())
        if table is not None:
            break
    else:
        return None

    with ParallelCheckEngine(workers=workers) as engine:
        engine.prime([app.label])
        engine.check_labels([app.label])  # cold round seeds the catalogs

        unseeded = app.build()
        unseeded.check_all(app.label)
        unseeded_twin = app.build()
        unseeded_twin.check_all(app.label)
        unseeded_s = _measure_setup(
            unseeded, unseeded_twin, table, "bench_membership_unseeded",
            workers, app.label)
        unseeded.shutdown_warm()

        seeded = app.build()
        seeded.check_all(app.label)
        seeded_twin = app.build()
        seeded_twin.check_all(app.label)
        seeded.adopt_warm_engine(engine)
        seeded_s = _measure_setup(
            seeded, seeded_twin, table, "bench_membership_seeded",
            workers, app.label)
        seeded.shutdown_warm()  # detaches; the `with` closes the fleet

    return {
        "app": app.label,
        "warm_setup_unseeded_s": round(unseeded_s, 4),
        "warm_setup_seeded_s": round(seeded_s, 4),
        "warm_setup_drop": round(1.0 - seeded_s / unseeded_s, 4)
        if unseeded_s else 0.0,
    }


def run_benchmark(iters: int, workers: int, quick: bool) -> dict:
    micro = bench_microloop(iters)
    modes = bench_mode_parity(quick)
    blame = bench_blame_parity()
    warm = bench_warm_attach(workers)
    parity = modes["parity"] and blame["parity"]
    return {
        "benchmark": "membership_predicates",
        "workload": (
            "per-eval membership cost over a full constructor corpus, "
            "test-suite (dynamic checks on) + Blame parity between the "
            "compiled predicates and the structural walker, warm attach "
            "before/after shared catalogs"
        ),
        "iters": iters,
        "microloop": micro,
        "mode_parity": modes,
        "blame_parity": {"parity": blame["parity"]},
        "warm_attach": warm,
        "speedup": micro["speedup"],
        "parity": parity,
        "pass": micro["speedup"] >= 2.0 and parity,
        "pass_criterion": (
            "compiled predicates >= 2x faster per eval than the structural "
            "walker over the constructor corpus (machine-independent: both "
            "loops run in the same process on the same pairs), every app's "
            "test suite with dynamic checks on identical (result, stdout, "
            "Blame) under both backends, and the staged-column Blame "
            "message byte-identical across backends"
        ),
    }


def main() -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--iters", type=int, default=None)
    cli.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    cli.add_argument("--json", type=str, default=RESULTS_PATH,
                     help=f"where to write results (default {RESULTS_PATH})")
    cli.add_argument("--quick", action="store_true",
                     help="small iteration counts (CI smoke mode)")
    options = cli.parse_args()
    quick = options.quick or bool(os.environ.get("BENCH_QUICK"))
    iters = options.iters or (QUICK_ITERS if quick else DEFAULT_ITERS)

    results = run_benchmark(iters, options.workers, quick)
    results["quick_mode"] = quick

    micro = results["microloop"]
    print(f"membership microloop: {micro['evals_per_backend']} evals/backend "
          f"over {micro['corpus_types']} types x {micro['corpus_values']} "
          f"values")
    print(f"  structural: {micro['per_eval_structural_us']:.3f}us/eval   "
          f"compiled: {micro['per_eval_compiled_us']:.3f}us/eval   "
          f"speedup {micro['speedup']:.2f}x (>= 2x required)")
    modes = results["mode_parity"]
    print(f"test-suite parity: {len(modes['apps'])} app(s) x "
          f"{{structural, compiled}}, {modes['dynamic_checks']} dynamic "
          f"membership checks — all identical")
    print("Blame parity: staged-column message byte-identical across "
          "backends")
    if results["warm_attach"]:
        warm = results["warm_attach"]
        print(f"warm attach ({warm['app']}): unseeded "
              f"{warm['warm_setup_unseeded_s'] * 1e3:.1f}ms vs seeded "
              f"{warm['warm_setup_seeded_s'] * 1e3:.1f}ms "
              f"({warm['warm_setup_drop'] * 100:.1f}% drop via shared "
              f"catalogs)")

    os.makedirs(os.path.dirname(os.path.abspath(options.json)), exist_ok=True)
    with open(options.json, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"results written to {options.json}")

    if not results["pass"]:
        if quick:
            # quick mode is the CI smoke step: it records the numbers but
            # never gates on a perf threshold a 25-iteration sample could
            # flip (verdict + Blame parity, asserted above, still gate)
            print(f"NOTE: {results['speedup']:.2f}x (< 2x) — recorded, "
                  f"not gated in quick mode")
            return 0
        print(f"FAIL: expected >= 2x per-eval speedup, got "
              f"{results['speedup']:.2f}x")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
