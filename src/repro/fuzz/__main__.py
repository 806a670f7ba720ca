"""``python -m repro.fuzz`` — run seeded migration storms from the shell.

Examples::

    python -m repro.fuzz --seed 0..4 --steps 50            # CI smoke
    python -m repro.fuzz --seed 7 --profile faults         # fault storm
    python -m repro.fuzz --seed 3 --save-crashers out/     # keep crashers

Exit status 0 iff every seed passed all invariants.  On failure the
sequence is shrunk (unless ``--no-shrink``) and written as a crasher
JSON, with the deterministic repro command printed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.fuzz.corpus import CORPUS_DIR, crasher_record, save_crasher
from repro.fuzz.harness import (
    PROFILES,
    StormConfig,
    max_wall_bound,
    run_events,
    run_storm,
)
from repro.fuzz.shrink import shrink_events
from repro.obs.export import open_export


def _parse_seeds(text: str) -> list[int]:
    """``"3"`` → [3]; ``"0..4"`` → [0, 1, 2, 3, 4]."""
    if ".." in text:
        low, _, high = text.partition("..")
        return list(range(int(low), int(high) + 1))
    return [int(text)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="differential storm fuzzer for the parity guarantees")
    parser.add_argument("--seed", default="0",
                        help="seed or inclusive range, e.g. 7 or 0..4")
    parser.add_argument("--steps", type=int, default=50)
    parser.add_argument("--profile", choices=PROFILES, default="storm")
    parser.add_argument("--app", default="huginn")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--check-every", type=int, default=5)
    parser.add_argument("--deadline", type=float, default=3.0,
                        help="faults profile: session recv deadline (s)")
    parser.add_argument("--save-crashers", metavar="DIR", default=None,
                        help=f"write shrunk failing sequences here "
                             f"(commit under {CORPUS_DIR} as regressions)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write a machine-readable result summary")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debug shrinking of failures")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    seeds = _parse_seeds(args.seed)
    results = []
    failed = 0
    for seed in seeds:
        config = StormConfig(
            seed=seed, steps=args.steps, profile=args.profile, app=args.app,
            check_every=args.check_every, workers=args.workers,
            deadline_s=args.deadline)
        start = time.perf_counter()
        report = run_storm(config)
        entry = {
            "seed": seed, "profile": config.profile, "app": config.app,
            "ok": report.ok, "steps_run": report.steps_run,
            "skipped": report.skipped, "checkpoints": report.checkpoints,
            "wall_s": round(report.wall_s, 3),
        }
        if config.profile == "faults":
            bound = max_wall_bound(config)
            entry["wall_bound_s"] = bound
            if report.ok and report.wall_s > bound:
                # the graceful-degradation contract: a fault storm may
                # degrade to serial but must never stall the engine
                from repro.fuzz.harness import InvariantViolation
                report.violation = InvariantViolation(
                    "fault-deadline", report.steps_run,
                    f"faults run took {report.wall_s:.1f}s "
                    f"(bound {bound:.1f}s)")
                entry["ok"] = False
        print(report.summary())
        if not report.ok:
            failed += 1
            entry["invariant"] = report.violation.invariant
            entry["detail"] = report.violation.detail
            print(f"  repro: {config.repro_command()}", file=sys.stderr)
            if not args.no_shrink \
                    and report.violation.invariant != "fault-deadline":
                report = _shrink(report, config)
                entry["shrunk_events"] = len(report.events)
            if args.save_crashers:
                path = save_crasher(report, args.save_crashers)
                entry["crasher"] = path
                print(f"  crasher written: {path}", file=sys.stderr)
            else:
                print("  (re-run with --save-crashers DIR to keep the "
                      "sequence)", file=sys.stderr)
        entry["total_wall_s"] = round(time.perf_counter() - start, 3)
        results.append(entry)
    if args.json:
        with open_export(args.json) as fh:
            json.dump({"results": results, "failed": failed}, fh, indent=2)
            fh.write("\n")
    return 1 if failed else 0


def _shrink(report, config):
    """ddmin the failing sequence down; returns the report to save (the
    shrunk one when the failure still reproduces, else the original)."""
    print(f"  shrinking {len(report.events)} events...", file=sys.stderr)

    def fails(candidate) -> bool:
        return not run_events(candidate, config).ok

    minimal = shrink_events(report.events, fails)
    if len(minimal) < len(report.events):
        final = run_events(minimal, config)
        if not final.ok:
            print(f"  shrunk to {len(minimal)} events "
                  f"([{final.violation.invariant}])", file=sys.stderr)
            return final
    print("  (sequence did not shrink)", file=sys.stderr)
    return report


if __name__ == "__main__":
    sys.exit(main())
