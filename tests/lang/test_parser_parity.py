"""The master-pattern lexer and the precedence-climbing parser against the
originals they replaced, kept as the oracle ``tests/oracles/ruby_parser.py``.

Every source either lexes (parses) to the same tokens (AST) on both sides or
fails on both with the same error class, message and line.  Tokens compare
as ``(kind, value, line, col)``; ASTs compare field by field with ``line``
and ``col`` spelled out, because ``Node.__eq__`` skips ``col``.  Only
``node_id`` (fresh per parse) and ``compiled`` (a cache slot) are exempt.

The corpus is the six apps (sources and test suites), synthetic seeds 0..9
at 60 tables, and every string constant in ``examples/``, ``tests/`` and
``src/`` (the Ruby programs embedded there, the comp-type code between
``«»`` inside them, and much that is not Ruby at all and must fail alike).
The mutation corpus deletes or duplicates one seeded token span of each
app source, seeds 0..49.

Exempt are the string positions the production lexer fixes, each pinned in
``tests/lang/test_lexer.py`` and ``tests/lang/test_parser.py``:

* a multi-line literal's token carries its opening line (the oracle gave
  its closing line), and a newline escaped inside a double-quoted literal
  counts as a line (the oracle skipped it) — :class:`_OracleLexer` applies
  both fixes to the oracle;
* code inside ``#{...}`` is lexed at its real line and column (the oracle
  lexed it as line 1 of the fragment), so positions below an interpolation
  are not compared, and an error raised there may name another line.
"""

from __future__ import annotations

import ast as pyast
import dataclasses
import functools
import random
import re
from pathlib import Path

import pytest

from perfbench import synth
from repro.apps import all_apps
from repro.lang import ast_nodes as ast
from repro.lang.errors import LangError
from repro.lang.lexer import Lexer
from repro.lang.parser import _Parser
from tests.oracles import ruby_parser as oracle

ROOT = Path(__file__).resolve().parents[2]
APPS = list(all_apps())
_EXEMPT_FIELDS = {"node_id", "compiled"}


class _OracleLexer(oracle.Lexer):
    """The oracle lexer with the literal-position fixes: a string or symbol
    token carries the line its literal opens on, and every newline inside
    the literal counts."""

    def _lex_sstring(self) -> None:
        self._at_opening_line(super()._lex_sstring)

    def _lex_dstring(self) -> None:
        self._at_opening_line(super()._lex_dstring)

    def _lex_symbol(self) -> None:
        self._at_opening_line(super()._lex_symbol)

    def _at_opening_line(self, lex) -> None:
        line, start = self.line, self.pos
        try:
            lex()
        except LangError as exc:
            raise type(exc)(exc.message,
                            line + self.source.count("\n", start, self.pos)) from None
        newlines = self.source.count("\n", start, self.pos)
        if newlines:
            self.line = line + newlines
            self.line_start = self.source.rindex("\n", start, self.pos) + 1
        self.tokens[-1] = dataclasses.replace(self.tokens[-1], line=line)


@pytest.fixture(autouse=True)
def _fixed_oracle(monkeypatch):
    """The oracle parser lexes ``#{...}`` code with the fixed lexer too."""
    monkeypatch.setattr(oracle, "Lexer", _OracleLexer)


def _string_constants(top: str) -> list[str]:
    found = []
    for path in sorted((ROOT / top).rglob("*.py")):
        for node in pyast.walk(pyast.parse(path.read_text())):
            if isinstance(node, pyast.Constant) and isinstance(node.value, str):
                found.append(node.value)
                found.extend(re.findall("«(.*?)»", node.value, re.S))
    return found


CORPORA = {
    "apps": lambda: [text for app in APPS for text in (app.source, app.test_suite)],
    "synthetic": lambda: [synth.generate(seed, 60).source for seed in range(10)],
    "examples": lambda: _string_constants("examples"),
    "tests": lambda: _string_constants("tests"),
    "src": lambda: _string_constants("src"),
}


def _raised(exc: LangError) -> tuple:
    return ("raises", type(exc).__name__, exc.message, exc.line)


def _front_end(lexer_class, parser_class, source: str) -> tuple:
    """The tokens of ``source`` as ``(kind, value, line, col)`` and the
    :func:`_shape` of its AST, or the error that stopped each as
    ``("raises", class, message, line)``."""
    try:
        tokens = lexer_class(source).tokenize()
    except LangError as exc:
        return _raised(exc), _raised(exc)
    listed = [(token.kind, token.value, token.line, token.col) for token in tokens]
    try:
        return listed, _shape(parser_class(tokens).parse())
    except LangError as exc:
        return listed, _raised(exc)


def _oracle(source: str) -> tuple:
    return _front_end(_OracleLexer, oracle._Parser, source)


def _production(source: str) -> tuple:
    return _front_end(Lexer, _Parser, source)


@functools.lru_cache(maxsize=None)
def _compared_fields(node_class: type, positions: bool) -> tuple:
    return tuple(field.name for field in dataclasses.fields(node_class)
                 if field.name not in _EXEMPT_FIELDS
                 and (positions or field.name not in ("line", "col")))


def _shape(value, positions: bool = True):
    """``value`` as nested tuples of every compared field."""
    if isinstance(value, ast.Node):
        below = positions and not isinstance(value, ast.StrInterp)
        return (type(value).__name__,) + tuple(
            (name, _shape(getattr(value, name), below if name == "parts" else positions))
            for name in _compared_fields(type(value), positions))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(_shape(item, positions) for item in value)
    return value


def _fragment_lines(source: str) -> set:
    """The lines that hold ``#{...}`` code."""
    try:
        tokens = Lexer(source).tokenize()
    except LangError:
        return set()
    return {code.line + offset for token in tokens if token.kind == "dstring"
            for kind, code in token.value if kind == "code"
            for offset in range(code.count("\n") + 1)}


def _same(source: str, old, new) -> bool:
    """Equal outcomes, where an error raised inside ``#{...}`` may name
    another line: the oracle counted lines from the fragment's start."""
    if old == new:
        return True
    return (old[0] == new[0] == "raises" and old[1:3] == new[1:3]
            and new[3] in _fragment_lines(source))


def _mismatches(triples) -> list:
    return [(source[:60], old, new) for source, old, new in triples
            if not _same(source, old, new)][:3]


@functools.lru_cache(maxsize=None)
def _compared(corpus: str) -> list:
    """``(source, oracle outcome, production outcome)`` per source."""
    return [(source, _oracle(source), _production(source)) for source in CORPORA[corpus]()]


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_tokens_match_the_oracle(corpus):
    assert _mismatches((source, old[0], new[0]) for source, old, new in _compared(corpus)) == []


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_asts_match_the_oracle(corpus):
    assert _mismatches((source, old[1], new[1]) for source, old, new in _compared(corpus)) == []


def _mutant(source: str, seed: int) -> str:
    """``source`` with one to three consecutive tokens (and what lies
    between them) deleted or duplicated."""
    rng = random.Random(seed)
    line_starts = [0] + [m.end() for m in re.finditer("\n", source)]
    starts = [line_starts[token.line - 1] + token.col - 1
              for token in Lexer(source).tokenize() if token.col]
    first = rng.randrange(len(starts))
    last = first + rng.randint(1, 3)
    begin = starts[first]
    end = starts[last] if last < len(starts) else len(source)
    if rng.random() < 0.5:
        return source[:begin] + source[end:]
    return source[:end] + source[begin:end] + source[end:]


@pytest.mark.parametrize("app", APPS, ids=[app.name for app in APPS])
def test_mutated_apps_parse_or_fail_alike(app):
    mutants = [_mutant(app.source, seed) for seed in range(50)]
    asts = [(text, _oracle(text)[1], _production(text)[1]) for text in mutants]
    assert _mismatches(asts) == []
    # the mutations reach the error paths, not just the happy one
    assert sum(old[0] == "raises" for _, old, _ in asts) >= 5


def test_the_corpus_is_mostly_ruby():
    """Over a thousand sources parse cleanly (the rest must fail alike),
    interpolations among them, so the StrInterp exemption is exercised."""
    programs = [new[1] for corpus in CORPORA for _, _, new in _compared(corpus)
                if new[1][0] == "Program"]
    assert len(programs) >= 1000
    assert any("'StrInterp'" in repr(program) for program in programs)
