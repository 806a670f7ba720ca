"""Seeded generator of synthetic Rails-shaped apps for the scaled workloads.

Every table gets one model class with seven comp-typed methods, each a
query shape the paper's Rails apps use:

* ``has_many`` + ``joins(...).exists?`` across a declared association,
* ``where(...).pluck``,
* ``where('<raw SQL>', n).count`` (a Fig. 3 fragment, so ``sqltc`` works),
* ``sum``, ``find_by``, ``exists?``,
* an instance method over a column accessor.

About one table in ten gets a ``pluck`` of the wrong column kind (an
``Integer`` column under a declared ``Array<String>``).  The expected
verdicts are therefore known by construction: every method is checked and
each injected ``pluck`` is exactly one type error, with no help from the
checker under test.

The same ``(seed, tables, variant)`` always yields byte-identical source,
schema and rows; a new ``variant`` changes literals and column names, so a
fresh sample misses the parser's content cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

LABEL = "synth"
#: comp-typed methods emitted per table
METHODS_PER_TABLE = 7
#: share of tables whose pluck is injected with the wrong column kind
INJECT_RATE = 0.1
#: extra column kinds (the fixed name/flag/score columns come first)
_EXTRA_KINDS = ("string", "integer", "float", "boolean", "text")


@dataclass
class SyntheticApp:
    """One generated app: source, schema and what checking it must report."""

    source: str = ""
    #: [(table, [(column, kind), ...])] in creation order
    tables: list = field(default_factory=list)
    #: [(owner_table, assoc_table)]
    associations: list = field(default_factory=list)
    #: [(table, {column: value})]
    rows: list = field(default_factory=list)
    #: indices of the tables whose pluck method is a deliberate type error
    injected: list = field(default_factory=list)

    @property
    def expected_methods(self) -> int:
        return METHODS_PER_TABLE * len(self.tables)

    @property
    def expected_errors(self) -> int:
        return len(self.injected)

    @property
    def injected_methods(self) -> set:
        """Names of the methods that must be the reported type errors."""
        return {f"names_{index}" for index in self.injected}

    def build(self, backend: str):
        """A fresh universe with the schema and rows in place; the source is
        not loaded yet (loading it is part of a verify sample)."""
        from repro import CompRDL, Database

        db = Database(backend=backend)
        for table, columns in self.tables:
            db.create_table(table, **dict(columns))
        for owner, assoc in self.associations:
            db.declare_association(owner, assoc)
        for table, values in self.rows:
            db.insert(table, dict(values))
        return CompRDL(db=db)


def class_name(index: int) -> str:
    """``Syn{index}Row``, which maps to table ``syn{index}_rows``."""
    return f"Syn{index}Row"


def table_name(index: int) -> str:
    return f"syn{index}_rows"


def generate(seed: int, tables: int, variant: int = 0) -> SyntheticApp:
    """The app for ``(seed, tables, variant)``; deterministic."""
    rng = random.Random(f"synth:{seed}:{tables}:{variant}")
    app = SyntheticApp()
    injected_count = max(1, round(tables * INJECT_RATE))
    injected = set(rng.sample(range(tables), injected_count))
    chunks = []
    for index in range(tables):
        table = table_name(index)
        extras = [(f"x{variant}_{index}_{k}", rng.choice(_EXTRA_KINDS))
                  for k in range(rng.randrange(0, 3))]
        columns = [("name", "string"), ("flag", "boolean"),
                   ("score", "integer")] + extras
        app.tables.append((table, columns))
        child = (index + 1) % tables
        if child != index:
            app.associations.append((table, table_name(child)))
        for _ in range(2):
            app.rows.append((table, {
                "name": f"n{rng.randrange(1000)}",
                "flag": rng.random() < 0.5,
                "score": rng.randrange(100),
            }))
        if index in injected:
            app.injected.append(index)
        chunks.append(_model_source(rng, index, child, index in injected))
    app.source = "\n".join(chunks)
    return app


def _model_source(rng: random.Random, index: int, child: int,
                  inject: bool) -> str:
    cls = class_name(index)
    child_table = table_name(child)
    label = f":{LABEL}"
    pluck = ("score" if inject else "name")
    lines = [f"class {cls} < ActiveRecord::Base"]
    if child != index:
        lines += [
            f"  has_many :{child_table}",
            "",
            f'  type "(String) -> %bool", typecheck: {label}',
            f"  def self.linked_{index}?(label)",
            f"    {cls}.joins(:{child_table}).exists?({{ flag: "
            f"{_bool(rng)}, {child_table}: {{ name: label }} }})",
            "  end",
        ]
    else:
        # a one-table app has nothing to join; keep the method count
        lines += [
            f'  type "(String) -> %bool", typecheck: {label}',
            f"  def self.linked_{index}?(label)",
            f"    {cls}.exists?({{ name: label }})",
            "  end",
        ]
    lines += [
        "",
        f'  type "() -> Array<String>", typecheck: {label}',
        f"  def self.names_{index}",
        f"    {cls}.where({{ flag: {_bool(rng)} }}).pluck(:{pluck})",
        "  end",
        "",
        f'  type "() -> Integer", typecheck: {label}',
        f"  def self.above_{index}",
        f"    {cls}.where('score >= ?', {rng.randrange(100)}).count",
        "  end",
        "",
        f'  type "() -> Integer", typecheck: {label}',
        f"  def self.total_{index}",
        f"    {cls}.where({{ flag: {_bool(rng)} }}).sum(:score)",
        "  end",
        "",
        f'  type "(String) -> {cls} or nil", typecheck: {label}',
        f"  def self.named_{index}(label)",
        f"    {cls}.find_by({{ name: label }})",
        "  end",
        "",
        f'  type "() -> %bool", typecheck: {label}',
        f"  def self.scored_{index}?",
        f"    {cls}.exists?({{ score: {rng.randrange(100)} }})",
        "  end",
        "",
        f'  type "() -> String", typecheck: {label}',
        f"  def shout_{index}",
        f'    name.upcase + "{rng.choice("!?.")}"',
        "  end",
        "end",
        "",
    ]
    return "\n".join(lines)


def _bool(rng: random.Random) -> str:
    return "true" if rng.random() < 0.5 else "false"
