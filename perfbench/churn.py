"""Event applier for the ``schema_churn`` workload.

Dispatches each :class:`repro.fuzz.events.Step` of a seeded storm to the
public ``Database`` migration and row methods and to ``CompRDL.load``, and
counts the ops it applied, so two seeds' mixes can be compared.  Migration
and row calls run inside benchmark-side spans (``bench.db.migration`` and
``bench.db.row_write``); they cost one no-op call while tracing is off.
"""

from __future__ import annotations

from collections import Counter

from repro import obs
from repro.fuzz.events import Step, probe_source

MIGRATIONS = ("create_table", "add_column", "drop_column", "rename_column",
              "rename_table", "drop_table")
ROW_WRITES = ("insert", "update", "delete")


def batches(steps):
    """Split a storm at its ``check`` steps: each batch is the events one
    ``recheck_dirty()`` has to absorb."""
    batch = []
    for step in steps:
        if step.op == "check":
            if batch:
                yield batch
            batch = []
        else:
            batch.append(step)
    if batch:
        yield batch


def _equals(where):
    _op, column, value = where
    return lambda row: row.get(column) == value


class EventApplier:
    """Applies storm steps to one universe; ``ops`` counts them by kind."""

    def __init__(self, rdl, label: str):
        self.rdl = rdl
        self.label = label
        self.ops: Counter = Counter()

    def apply(self, step: Step) -> None:
        op = step.op
        db = self.rdl.db
        if op in MIGRATIONS:
            with obs.span("bench.db.migration", label=op):
                if op == "create_table":
                    db.create_table(step.table, **dict(step.columns))
                elif op == "add_column":
                    db.add_column(step.table, step.column, step.kind)
                elif op == "drop_column":
                    db.drop_column(step.table, step.column)
                elif op == "rename_column":
                    db.rename_column(step.table, step.column, step.to)
                elif op == "rename_table":
                    db.rename_table(step.table, step.to)
                else:
                    db.drop_table(step.table)
            if op in ("create_table", "rename_table"):
                # the new table gets its model class, as a Rails app would
                self.rdl.load(f"class {step.cls} < ActiveRecord::Base\nend\n")
        elif op in ROW_WRITES:
            with obs.span("bench.db.row_write", label=op):
                if op == "insert":
                    db.insert(step.table, dict(step.values))
                elif op == "update":
                    db.update_rows(step.table, _equals(step.where),
                                   dict(step.values))
                else:
                    db.delete_rows(step.table, _equals(step.where))
        elif op == "load_probe":
            self.rdl.load(probe_source(step, self.label))
        else:
            raise ValueError(f"unknown storm op {op!r}")
        self.ops[op] += 1
