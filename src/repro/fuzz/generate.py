"""Seeded generation of migration storms, and the schema model behind it.

:class:`SchemaModel` mirrors what the fuzzed universes' schemas *should*
look like after the steps applied so far — tables and their columns, which
tables the fuzzer created (only those may be dropped or renamed wholesale;
the subject app's own tables only evolve column-wise), which model classes
exist, and which class names are spent.  Both the generator and the harness
keep one: the generator to emit only applicable steps, the harness so any
*subsequence* of a recorded run (the shrinker's candidates) replays cleanly
— a step whose preconditions were deleted out from under it is skipped,
not crashed on.

Generation is a plain ``random.Random(seed)`` walk over a weighted op
table: same seed + same step count → byte-identical sequence, which is
what makes ``python -m repro.fuzz --seed S`` a reproduction command.
"""

from __future__ import annotations

import random

from repro.fuzz.events import KIND_TYPES, Step

#: column kinds the fuzzer mints (every kind both backends support)
COLUMN_KINDS = tuple(KIND_TYPES)

#: weighted op table — migrations ~half, row traffic ~a third, the rest
#: post-build probe loads; ``check`` placement is handled separately
OP_WEIGHTS = (
    ("create_table", 8),
    ("add_column", 14),
    ("drop_column", 10),
    ("rename_column", 10),
    ("rename_table", 4),
    ("drop_table", 4),
    ("insert", 16),
    ("update", 7),
    ("delete", 5),
    ("load_probe", 12),
)


class SchemaModel:
    """The expected schema state, tracked step-by-step."""

    def __init__(self, db=None, models: dict | None = None):
        # table -> {column -> kind}
        self.tables: dict[str, dict[str, str]] = {}
        self.fuzz_tables: set[str] = set()
        # model class name -> table it maps to (Rails convention)
        self.models: dict[str, str] = dict(models or {})
        self.spent_classes: set[str] = set(self.models)
        if db is not None:
            for name, schema in db.tables.items():
                self.tables[name] = {
                    c.name: c.kind for c in schema.columns.values()}

    @classmethod
    def of_universe(cls, rdl) -> "SchemaModel":
        """Snapshot a built universe: its tables, plus every loaded class
        that maps to one of them by the Rails naming convention."""
        from repro.orm.relation import table_name_for_class

        models = {}
        for class_name in getattr(rdl.interp, "classes", {}):
            table = table_name_for_class(class_name)
            if table in rdl.db.tables:
                models[class_name] = table
        return cls(db=rdl.db, models=models)

    def columns_of(self, table: str) -> dict:
        return self.tables.get(table, {})

    # -- applicability ------------------------------------------------------
    def applies(self, step: Step) -> bool:
        """Whether ``step`` can run against the current state.  The harness
        skips non-applicable steps (shrink candidates lose prerequisites);
        the generator only emits applicable ones."""
        op, table = step.op, step.table
        if op == "check":
            return True
        if op == "create_table":
            return (table not in self.tables
                    and step.cls not in self.spent_classes)
        cols = self.tables.get(table)
        if cols is None:
            return False
        if op == "add_column":
            return step.column not in cols
        if op == "drop_column":
            return step.column in cols and step.column != "id"
        if op == "rename_column":
            return (step.column in cols and step.column != "id"
                    and step.to not in cols)
        if op == "rename_table":
            return (table in self.fuzz_tables and step.to not in self.tables
                    and step.cls not in self.spent_classes)
        if op == "drop_table":
            return table in self.fuzz_tables
        if op == "insert":
            return all(c in cols for c in step.values)
        if op in ("update", "delete"):
            if step.where and step.where[1] not in cols:
                return False
            return all(c in cols for c in step.values)
        if op == "load_probe":
            return (step.cls not in self.spent_classes
                    and self.models.get(step.model) == table
                    and step.column in cols)
        return False

    def apply(self, step: Step) -> None:
        """Advance the model past an applicable step (schema only — row
        contents are the database's business)."""
        op, table = step.op, step.table
        if op == "create_table":
            self.tables[table] = {"id": "integer",
                                  **{n: k for n, k in step.columns}}
            self.fuzz_tables.add(table)
            self.models[step.cls] = table
            self.spent_classes.add(step.cls)
        elif op == "add_column":
            self.tables[table][step.column] = step.kind
        elif op == "drop_column":
            self.tables[table].pop(step.column, None)
        elif op == "rename_column":
            cols = self.tables[table]
            cols[step.to] = cols.pop(step.column)
        elif op == "rename_table":
            self.tables[step.to] = self.tables.pop(table)
            self.fuzz_tables.discard(table)
            self.fuzz_tables.add(step.to)
            # the old name's model classes dangle (their queries now error
            # — deliberately); the new name gets a fresh model class
            self.models = {cls: tab for cls, tab in self.models.items()
                           if tab != table}
            self.models[step.cls] = step.to
            self.spent_classes.add(step.cls)
        elif op == "drop_table":
            self.tables.pop(table, None)
            self.fuzz_tables.discard(table)
            self.models = {cls: tab for cls, tab in self.models.items()
                           if tab != table}
        elif op == "load_probe":
            self.spent_classes.add(step.cls)


def _value_for(rng: random.Random, kind: str):
    if rng.random() < 0.15:
        return None  # NULL traffic: three-valued logic stays exercised
    if kind == "integer":
        return rng.randrange(-3, 100)
    if kind == "float":
        return round(rng.uniform(-2.0, 9.0), 2)
    if kind == "boolean":
        return rng.random() < 0.5
    if kind == "datetime":
        return (f"20{rng.randrange(20, 27):02d}-"
                f"{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}")
    return f"fz_{rng.randrange(1000)}"


class _Names:
    """Fresh, convention-mapping table/class/column names.

    ``FzTab{n}`` snake-pluralizes to ``fz_tab{n}s`` (and ``FzRen{n}`` to
    ``fz_ren{n}s``), so a minted model class maps to its minted table by
    the same rule the ORM uses — no special-casing in the relation layer.
    """

    def __init__(self):
        self.tables = 0
        self.renames = 0
        self.columns = 0
        self.probes = 0

    def table(self) -> tuple[str, str]:
        self.tables += 1
        return f"fz_tab{self.tables}s", f"FzTab{self.tables}"

    def rename(self) -> tuple[str, str]:
        self.renames += 1
        return f"fz_ren{self.renames}s", f"FzRen{self.renames}"

    def column(self) -> str:
        self.columns += 1
        return f"fz_c{self.columns}"

    def probe(self) -> str:
        self.probes += 1
        return f"FzProbe{self.probes}"


def generate_steps(seed: int, model: SchemaModel, steps: int,
                   check_every: int = 5) -> list[Step]:
    """A deterministic storm of ``steps`` events against ``model``.

    ``model`` is advanced in place (pass a fresh snapshot).  A ``check``
    step is forced whenever ``check_every`` events have passed without
    one, and once at the end, so every run ends on a verified state.
    """
    rng = random.Random(seed)
    names = _Names()
    ops = [op for op, _ in OP_WEIGHTS]
    weights = [weight for _, weight in OP_WEIGHTS]
    out: list[Step] = []
    since_check = 0

    while len(out) < steps:
        if since_check >= check_every:
            out.append(Step(op="check"))
            since_check = 0
            continue
        op = rng.choices(ops, weights=weights, k=1)[0]
        step = _emit(rng, names, model, op)
        if step is None:
            continue  # not applicable right now; redraw
        model.apply(step)
        out.append(step)
        since_check += 1
    if out and out[-1].op != "check":
        out.append(Step(op="check"))
    return out


def _pick(rng: random.Random, items):
    items = sorted(items)
    return rng.choice(items) if items else None


def _emit(rng: random.Random, names: _Names, model: SchemaModel,
          op: str) -> Step | None:
    """Build one applicable step for ``op``, or None when the state can't
    host it (no tables yet, nothing to rename, ...)."""
    if op == "create_table":
        table, cls = names.table()
        columns = [[names.column(), rng.choice(COLUMN_KINDS)]
                   for _ in range(rng.randrange(2, 5))]
        step = Step(op=op, table=table, cls=cls, columns=columns)
        return step if model.applies(step) else None

    if op == "load_probe":
        candidates = [(cls, table) for cls, table in model.models.items()
                      if model.columns_of(table)]
        picked = _pick(rng, candidates)
        if picked is None:
            return None
        target_model, table = picked
        column = _pick(rng, model.columns_of(table))
        kind = model.columns_of(table)[column]
        shape = "exists" if kind == "boolean" or rng.random() < 0.4 \
            else "pluck"
        step = Step(op=op, cls=names.probe(), model=target_model,
                    table=table, column=column, kind=kind, shape=shape)
        if shape == "exists":
            value = _value_for(rng, kind)
            # `exists?({col: nil})` is legitimate three-valued traffic, but
            # keep most probes matching the column's type
            step.values = {column: value}
        return step if model.applies(step) else None

    table = _pick(rng, model.tables)
    if table is None:
        return None
    cols = model.columns_of(table)

    if op == "add_column":
        step = Step(op=op, table=table, column=names.column(),
                    kind=rng.choice(COLUMN_KINDS))
    elif op == "drop_column":
        droppable = [c for c in cols if c != "id"]
        if len(droppable) < 2:
            return None  # keep at least one probed-able column around
        step = Step(op=op, table=table, column=rng.choice(sorted(droppable)))
    elif op == "rename_column":
        renameable = [c for c in cols if c != "id"]
        if not renameable:
            return None
        step = Step(op=op, table=table,
                    column=rng.choice(sorted(renameable)),
                    to=names.column())
    elif op == "rename_table":
        fuzz_table = _pick(rng, model.fuzz_tables)
        if fuzz_table is None:
            return None
        to, cls = names.rename()
        step = Step(op=op, table=fuzz_table, to=to, cls=cls)
    elif op == "drop_table":
        fuzz_table = _pick(rng, model.fuzz_tables)
        if fuzz_table is None:
            return None
        step = Step(op=op, table=fuzz_table)
    elif op == "insert":
        writable = [c for c in cols if c != "id"]
        if not writable:
            return None
        chosen = [c for c in sorted(writable) if rng.random() < 0.8]
        step = Step(op=op, table=table,
                    values={c: _value_for(rng, cols[c]) for c in chosen})
    elif op in ("update", "delete"):
        predicated = [c for c in cols if c != "id"]
        if not predicated:
            return None
        where_col = rng.choice(sorted(predicated))
        step = Step(op=op, table=table,
                    where=["eq", where_col, _value_for(rng, cols[where_col])])
        if op == "update":
            target = rng.choice(sorted(predicated))
            step.values = {target: _value_for(rng, cols[target])}
    else:
        return None
    return step if model.applies(step) else None
