"""Lexer for mini-Ruby.

Produces a flat token stream with explicit ``newline`` tokens (statement
terminators).  Double-quoted strings are lexed into interpolation *parts*:
a list alternating literal text and raw code fragments (``#{...}``), which
the parser recursively parses at the fragment's own line and column.

Scanning is one compiled master pattern, :data:`_TOKEN`, with a named
group per token class; :meth:`Lexer.tokenize` matches it at the current
position (blanks before a token are part of the match) and dispatches on
the group that matched (``m.lastgroup``).  Operators match longest first,
a ``:`` starts a symbol only before a symbol character (so ``A::B``,
``c ? a : b`` and ``:sym`` stay apart), and a method name takes a
``?``/``!`` suffix only when no ``.``, ``=`` or ``~`` follows (``foo?``,
but ``a!=b`` and ``x!.y``).  Only interpolated strings, quoted symbols,
line continuations and errors leave the pattern, for :meth:`Lexer._lex_slow`.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.lang.errors import LexError

KEYWORDS = {
    "def", "end", "if", "elsif", "else", "unless", "while", "until",
    "return", "class", "module", "self", "nil", "true", "false", "then",
    "do", "yield", "case", "when", "and", "or", "not", "break", "next",
    "begin", "rescue", "ensure", "raise", "require", "require_relative",
    "super", "lambda", "proc",
}

# Alternatives are tried in order; the word, number and symbol groups use
# ``\w``/``\d``, which are Unicode-aware like ``str.isalnum``/``isdigit``.
# A double-quoted string matches here only without interpolation; the
# ``slow`` group takes one character of everything else: the start of an
# interpolated or unterminated string, a quoted symbol's ``:``, a
# ``\``-newline continuation, and whatever cannot start a token.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<word>[^\W\d]\w*(?:[?!](?![.=~]))?)
  | (?P<op><=>|===|\*\*=|<<=|>>=|\.\.\.|&&=|\|\|=|==|!=|<=|>=|\*\*|<<|>>
          |&&|\|\||[-+*/%]=|=>|=~|::|\.\.|->|[-+*/%=<>!.,()\[\]{}|&?;]
          |:(?![^\W\d]|[@$=\["+\-*/%<>!]))
  | (?P<newline>\n)
  | (?P<symbol>:(?:<=>|==|!=|\[\]=|\[\]|<=|>=|<<|\*\*|-@|[-+*/%<>!]
                 |(?=[^\W\d]|[@$=\[])[@$]*\w*(?:[?!]|=(?![>=]))?))
  | (?P<string>'[^'\\]*(?:\\[\s\S][^'\\]*)*'
              |"[^"\\\#]*(?:(?:\\[\s\S]|\#(?!\{))[^"\\\#]*)*")
  | (?P<number>\d[\d_]*(?:\.\d+)?)
  | (?P<ivar>@@?\w*)
  | (?P<gvar>\$\w*)
  | (?P<comment>\#[^\n]*)
  | (?P<slow>[^ \t\r])
)""", re.VERBOSE)

#: literal text of a double-quoted string, up to a quote or ``#{``
_DSTRING_TEXT = re.compile(r'[^"\\#]*(?:(?:\\[\s\S]|#(?!\{))[^"\\#]*)*')
_DSTRING_ESCAPE = re.compile(r"\\([\s\S])")
_SSTRING_ESCAPE = re.compile(r"\\(['\\])")
#: ``::Name`` segments that extend a constant (``ActiveRecord::Base``)
_CONST_TAIL = re.compile(r"(?:::[^\W\d_]\w*)+")
_BRACE = re.compile(r"[{}]")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "s": " ",
            "\\": "\\", "'": "'", '"': '"', "#": "#"}


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[0])


class Token(NamedTuple):
    """A lexical token: ``kind`` discriminates, ``value`` carries payload.

    ``col`` is the 1-based column of the token's first character (0 for
    synthetic tokens like ``newline``/``eof``), so diagnostics can point at
    a real source position instead of just a line.
    """

    kind: str
    value: object
    line: int
    col: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind}, {self.value!r}, L{self.line}:{self.col})"


class Fragment(str):
    """The code of one ``#{...}`` interpolation, with the ``line`` and
    ``col`` of its first character; a :class:`Lexer` over it starts there."""


class Lexer:
    """Tokenize mini-Ruby source text."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        # a Fragment starts where its ``#{`` code sits in the outer source
        self.line = getattr(source, "line", 1)
        # offset of the current line's first character, for columns
        self.line_start = 1 - getattr(source, "col", 1)
        self.tokens: list[Token] = []

    def error(self, message: str) -> LexError:
        return LexError(message, self.line)

    def tokenize(self) -> list[Token]:
        """Lex the whole source, returning the token list (ends with eof)."""
        source = self.source
        tokens = self.tokens
        append = tokens.append
        match = _TOKEN.match
        line, line_start, pos, end = self.line, self.line_start, 0, len(source)
        while pos < end:
            m = match(source, pos)
            if m is None:  # blanks up to the end
                break
            kind = m.lastgroup
            text = m.group(kind)
            pos = m.end()
            start = pos - len(text)
            col = start - line_start + 1
            if kind == "comment":
                continue
            if kind == "word":
                if text in KEYWORDS:
                    append(Token("kw", text, line, col))
                elif text[0].isupper():
                    tail = _CONST_TAIL.match(source, pos)
                    if tail is not None:
                        text += tail.group()
                        pos = tail.end()
                    append(Token("const", text, line, col))
                else:
                    append(Token("ident", text, line, col))
            elif kind == "op":
                append(Token("op", text, line, col))
            elif kind == "newline":
                if tokens and tokens[-1].kind != "newline":
                    append(Token("newline", None, line))
                line += 1
                line_start = pos
            elif kind == "symbol":
                append(Token("symbol", text[1:], line, col))
            elif kind == "string":
                body = text[1:-1]
                if "\\" in body:
                    body = (_SSTRING_ESCAPE.sub(r"\1", body) if text[0] == "'"
                            else _DSTRING_ESCAPE.sub(_unescape, body))
                append(Token("string", body, line, col))
                if "\n" in text:
                    line += text.count("\n")
                    line_start = source.rindex("\n", 0, pos) + 1
            elif kind == "number":
                if "." in text:
                    append(Token("float", float(text.replace("_", "")), line, col))
                else:
                    append(Token("int", int(text.replace("_", "")), line, col))
            elif kind == "ivar" or kind == "gvar":
                if not text.lstrip("@$"):
                    self.line = line
                    prefix = "instance" if kind == "ivar" else "global"
                    raise self.error(f"bad {prefix} variable name")
                append(Token(kind, text, line, col))
            else:
                self.line, self.line_start, self.pos = line, line_start, start
                self._lex_slow(col)
                line, line_start, pos = self.line, self.line_start, self.pos
        self.line = line
        if tokens and tokens[-1].kind != "newline":
            append(Token("newline", None, line))
        append(Token("eof", None, line))
        return tokens

    # -- the cases the master pattern leaves out ---------------------------
    def _lex_slow(self, col: int) -> None:
        """Lex the token at ``self.pos`` that :data:`_TOKEN` routed to its
        ``slow`` group: an interpolated string, a quoted symbol, a line
        continuation, or an error."""
        source, pos = self.source, self.pos
        ch = source[pos]
        if ch == '"':
            self._lex_interp_string(col)
        elif ch == ":" and source.startswith('"', pos + 1):
            # :"quoted symbol"
            line = self.line
            self.pos += 1
            self._lex_interp_string(col)
            token = self.tokens.pop()
            if token.kind != "string":
                raise self.error("interpolated symbols are not supported")
            self.tokens.append(Token("symbol", token.value, line, col))
        elif ch == "\\" and source.startswith("\n", pos + 1):
            self.pos += 2
            self.line += 1
            self.line_start = self.pos
        else:
            if ch == "'":
                self._move_to(len(source))
                raise self.error("unterminated string literal")
            raise self.error(f"unexpected character {ch!r}")

    def _lex_interp_string(self, col: int) -> None:
        """The double-quoted string at ``self.pos``, as a ``dstring`` token
        of parts (or a ``string`` token when it has no ``#{...}``)."""
        source, line = self.source, self.line
        pos = self.pos + 1
        parts: list[tuple[str, str]] = []
        while True:
            m = _DSTRING_TEXT.match(source, pos)
            if m.end() > pos:
                parts.append(("str", _DSTRING_ESCAPE.sub(_unescape, m.group())))
            pos = m.end()
            if source.startswith('"', pos):
                break
            if not source.startswith("#{", pos):
                self._move_to(len(source))
                raise self.error("unterminated string literal")
            parts.append(("code", self._interp_code(pos + 2)))
            pos = self.pos
        self._move_to(pos + 1)
        if not parts:
            parts.append(("str", ""))
        if len(parts) == 1 and parts[0][0] == "str":
            self.tokens.append(Token("string", parts[0][1], line, col))
        else:
            self.tokens.append(Token("dstring", parts, line, col))

    def _interp_code(self, start: int) -> Fragment:
        """The code of the ``#{`` whose body begins at ``start``, up to its
        matching ``}``; leaves ``self.pos`` after that brace."""
        self._move_to(start)
        depth = 1
        for brace in _BRACE.finditer(self.source, start):
            depth += 1 if brace.group() == "{" else -1
            if depth == 0:
                code = Fragment(self.source[start:brace.start()])
                code.line, code.col = self.line, start - self.line_start + 1
                self._move_to(brace.end())
                return code
        self._move_to(len(self.source))
        raise self.error("unterminated string interpolation")

    def _move_to(self, pos: int) -> None:
        """Advance to ``pos``, counting the newlines passed on the way."""
        newlines = self.source.count("\n", self.pos, pos)
        if newlines:
            self.line += newlines
            self.line_start = self.source.rindex("\n", self.pos, pos) + 1
        self.pos = pos
