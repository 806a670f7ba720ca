"""``repro.fuzz`` — differential storm fuzzing for the parity guarantees.

The repo's parity guarantees (ROADMAP's "crown jewels") are ∀-migration
properties; this package tests them as such.  A seeded, deterministic
generator (:mod:`repro.fuzz.generate`) emits random migration sequences —
create/add/drop/rename of tables and columns, row loads, post-build method
loads — which the harness (:mod:`repro.fuzz.harness`) replays on *twin
universes* of one subject app, asserting at every checkpoint:

1. **backend parity** — memory and sqlite agree on schema hash, rows,
   journal stream, and verdicts;
2. **incremental ≡ full** — ``recheck_dirty()`` equals a full re-check;
3. **warm ≡ serial** — warm-session replay equals the serial path;
4. **static ⊇ dynamic** — every cached verdict carries the dynamic
   dependencies the checker recorded, and its inferred static footprint
   covers them (the ``repro.analysis`` contract).

The ``faults`` profile additionally arms :mod:`repro.obs.faults` (worker
kill, wedged session pipe, injected sqlite ``OperationalError``) and
asserts graceful degradation: the engine never hangs, never returns a
wrong verdict, and falls back to serial when it must.

Failing sequences shrink to minimal event lists (:mod:`repro.fuzz.shrink`)
and are committed under ``tests/fuzz/corpus/`` as permanent regression
tests (:mod:`repro.fuzz.corpus`).  CLI: ``python -m repro.fuzz --seed S
--steps N --profile migrations|storm|faults``.
"""

from repro.fuzz.corpus import load_crasher, save_crasher
from repro.fuzz.events import Step, events_from_json, events_to_json
from repro.fuzz.generate import SchemaModel, generate_steps
from repro.fuzz.harness import (
    FuzzReport,
    InvariantViolation,
    StormConfig,
    run_events,
    run_storm,
)
from repro.fuzz.shrink import shrink_events

__all__ = [
    "FuzzReport", "InvariantViolation", "SchemaModel", "Step", "StormConfig",
    "events_from_json", "events_to_json", "generate_steps", "load_crasher",
    "run_events", "run_storm", "save_crasher", "shrink_events",
]
