"""The mini-Ruby lexer and recursive-descent parser as they were before the
master-pattern lexer and the precedence-climbing parser: a test oracle.

``tests/lang/test_parser_parity.py`` asserts that :mod:`repro.lang.lexer`
and :mod:`repro.lang.parser` produce the same tokens, the same ASTs and the
same errors as this copy, and ``tests/test_gates.py`` times the production
parser against it.  Only the imports differ from the originals, whose
module docs follow.

The lexer's doc: Lexer for mini-Ruby.

Produces a flat token stream with explicit ``newline`` tokens (statement
terminators).  Double-quoted strings are lexed into interpolation *parts*:
a list alternating literal text and raw code fragments (``#{...}``), which
the parser recursively parses.

The parser's doc: Recursive-descent parser for mini-Ruby.

Notable Ruby behaviours reproduced:

* **operators are method calls** — ``a + b`` parses to ``a.+(b)``, ``x[k]``
  to ``x.[](k)``, so comp types on operator methods apply uniformly;
* **locals vs self-calls** — a bare identifier is a local variable only if
  an assignment to it has been seen in the current scope, otherwise it is a
  call on ``self`` (this is how ``page[:info]`` works in Fig. 2);
* **command calls** — DSL-style paren-less calls with arguments
  (``type "(String) -> %bool"``, ``has_many :emails``) are accepted when the
  callee is not a known local;
* **postfix modifiers** — ``return false if reserved?(name)``;
* **blocks** — both ``{ |x| ... }`` and ``do |x| ... end`` attach to the
  nearest call, with trailing-keyword-argument sugar collected into a hash.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.lang import ast_nodes as ast
from repro.lang.errors import LexError, ParseError
from repro.obs.spans import span

KEYWORDS = {
    "def", "end", "if", "elsif", "else", "unless", "while", "until",
    "return", "class", "module", "self", "nil", "true", "false", "then",
    "do", "yield", "case", "when", "and", "or", "not", "break", "next",
    "begin", "rescue", "ensure", "raise", "require", "require_relative",
    "super", "lambda", "proc",
}

# Longest first so that e.g. "<=>" wins over "<=".
OPERATORS = [
    "<=>", "===", "**=", "<<=", ">>=", "...", "&&=", "||=",
    "==", "!=", "<=", ">=", "**", "<<", ">>", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "=>", "=~", "::", "..", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", ".", ",", "(", ")",
    "[", "]", "{", "}", "|", "&", "?", ":", ";", "@",
]


@dataclass(frozen=True)
class Token:
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


class Lexer:
    """Tokenize mini-Ruby source text."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        # offset of the current line's first character, for columns
        self.line_start = 0
        # column where the token being lexed started (set per dispatch)
        self._tok_col = 1
        self.tokens: list[Token] = []

    def error(self, message: str) -> LexError:
        return LexError(message, self.line)

    def tokenize(self) -> list[Token]:
        """Lex the whole source, returning the token list (ends with eof)."""
        while self.pos < len(self.source):
            ch = self.source[self.pos]
            self._tok_col = self.pos - self.line_start + 1
            if ch == "\n":
                self._emit_newline()
                self.pos += 1
                self.line += 1
                self.line_start = self.pos
            elif ch in " \t\r":
                self.pos += 1
            elif ch == "\\" and self._peek(1) == "\n":
                # explicit line continuation
                self.pos += 2
                self.line += 1
                self.line_start = self.pos
            elif ch == "#":
                self._skip_comment()
            elif ch.isdigit():
                self._lex_number()
            elif ch == '"':
                self._lex_dstring()
            elif ch == "'":
                self._lex_sstring()
            elif ch == ":" and self._is_symbol_start(self._peek(1)):
                self._lex_symbol()
            elif ch == "@":
                self._lex_ivar()
            elif ch == "$":
                self._lex_gvar()
            elif ch.isalpha() or ch == "_":
                self._lex_word()
            else:
                self._lex_operator()
        self._emit_newline()
        self.tokens.append(Token("eof", None, self.line))
        return self.tokens

    # -- helpers -----------------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index < len(self.source):
            return self.source[index]
        return ""

    def _emit_newline(self) -> None:
        if self.tokens and self.tokens[-1].kind not in ("newline",):
            self.tokens.append(Token("newline", None, self.line))

    def _skip_comment(self) -> None:
        while self.pos < len(self.source) and self.source[self.pos] != "\n":
            self.pos += 1

    _SYMBOL_OPERATORS = ["<=>", "==", "!=", "[]=", "[]", "<=", ">=", "<<",
                         "**", "-@", "+", "-", "*", "/", "%", "<", ">", "!"]

    @staticmethod
    def _is_symbol_start(ch: str) -> bool:
        return bool(ch) and (ch.isalpha() or ch in '_"@$' or ch in "+-*/%<>=![")

    def _lex_number(self) -> None:
        start = self.pos
        while self._peek().isdigit() or self._peek() == "_":
            self.pos += 1
        if self._peek() == "." and self._peek(1).isdigit():
            self.pos += 1
            while self._peek().isdigit():
                self.pos += 1
            literal = self.source[start:self.pos].replace("_", "")
            self.tokens.append(Token("float", float(literal), self.line, self._tok_col))
        else:
            literal = self.source[start:self.pos].replace("_", "")
            self.tokens.append(Token("int", int(literal), self.line, self._tok_col))

    _ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "s": " ",
                "\\": "\\", "'": "'", '"': '"', "#": "#"}

    def _lex_sstring(self) -> None:
        self.pos += 1
        chars: list[str] = []
        while True:
            ch = self._peek()
            if not ch:
                raise self.error("unterminated string literal")
            if ch == "'":
                self.pos += 1
                break
            if ch == "\\" and self._peek(1) in ("'", "\\"):
                chars.append(self._peek(1))
                self.pos += 2
            else:
                if ch == "\n":
                    self.line += 1
                    self.line_start = self.pos + 1
                chars.append(ch)
                self.pos += 1
        self.tokens.append(Token("string", "".join(chars), self.line, self._tok_col))

    def _lex_dstring(self) -> None:
        self.pos += 1
        parts: list[tuple[str, str]] = []
        chars: list[str] = []
        while True:
            ch = self._peek()
            if not ch:
                raise self.error("unterminated string literal")
            if ch == '"':
                self.pos += 1
                break
            if ch == "\\":
                escape = self._peek(1)
                chars.append(self._ESCAPES.get(escape, "\\" + escape))
                self.pos += 2
                continue
            if ch == "#" and self._peek(1) == "{":
                if chars:
                    parts.append(("str", "".join(chars)))
                    chars = []
                parts.append(("code", self._lex_interp_code()))
                continue
            if ch == "\n":
                self.line += 1
                self.line_start = self.pos + 1
            chars.append(ch)
            self.pos += 1
        if chars or not parts:
            parts.append(("str", "".join(chars)))
        if len(parts) == 1 and parts[0][0] == "str":
            self.tokens.append(Token("string", parts[0][1], self.line, self._tok_col))
        else:
            self.tokens.append(Token("dstring", parts, self.line, self._tok_col))

    def _lex_interp_code(self) -> str:
        # positioned at '#{'
        self.pos += 2
        depth = 1
        start = self.pos
        while self.pos < len(self.source):
            ch = self.source[self.pos]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    code = self.source[start:self.pos]
                    self.pos += 1
                    return code
            elif ch == "\n":
                self.line += 1
                self.line_start = self.pos + 1
            self.pos += 1
        raise self.error("unterminated string interpolation")

    def _lex_symbol(self) -> None:
        self.pos += 1
        for op in self._SYMBOL_OPERATORS:
            if self.source.startswith(op, self.pos):
                self.tokens.append(Token("symbol", op, self.line, self._tok_col))
                self.pos += len(op)
                return
        if self._peek() == '"':
            # :"quoted symbol"
            self._lex_dstring()
            token = self.tokens.pop()
            if token.kind != "string":
                raise self.error("interpolated symbols are not supported")
            self.tokens.append(Token("symbol", token.value, self.line, self._tok_col))
            return
        start = self.pos
        # ivar/gvar symbols: :@data, :@@count, :$db
        while self._peek() in ("@", "$"):
            self.pos += 1
        while self._peek().isalnum() or self._peek() == "_":
            self.pos += 1
        if self._peek() in ("?", "!"):
            self.pos += 1
        elif self._peek() == "=" and self._peek(1) not in (">", "="):
            self.pos += 1
        self.tokens.append(Token("symbol", self.source[start:self.pos], self.line, self._tok_col))

    def _lex_ivar(self) -> None:
        self.pos += 1
        if self._peek() == "@":
            self.pos += 1
            prefix = "@@"
        else:
            prefix = "@"
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self.pos += 1
        name = self.source[start:self.pos]
        if not name:
            raise self.error("bad instance variable name")
        self.tokens.append(Token("ivar", prefix + name, self.line, self._tok_col))

    def _lex_gvar(self) -> None:
        self.pos += 1
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self.pos += 1
        name = self.source[start:self.pos]
        if not name:
            raise self.error("bad global variable name")
        self.tokens.append(Token("gvar", "$" + name, self.line, self._tok_col))

    def _lex_word(self) -> None:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self.pos += 1
        # method-name suffixes ? and ! — but not when the next char makes a
        # two-char operator (a != b) or begins a chain (x!.y is not a name)
        if self._peek() in ("?", "!") and self._peek(1) not in (".", "=", "~"):
            self.pos += 1
        word = self.source[start:self.pos]
        line = self.line
        if word in KEYWORDS:
            self.tokens.append(Token("kw", word, line, self._tok_col))
        elif word[0].isupper():
            # Allow namespaced constants (ActiveRecord::Base)
            while self.source.startswith("::", self.pos) and self._peek(2).isalpha():
                self.pos += 2
                while self._peek().isalnum() or self._peek() == "_":
                    self.pos += 1
                word = self.source[start:self.pos]
            self.tokens.append(Token("const", word, line, self._tok_col))
        else:
            self.tokens.append(Token("ident", word, line, self._tok_col))

    def _lex_operator(self) -> None:
        for op in OPERATORS:
            if self.source.startswith(op, self.pos):
                self.tokens.append(Token("op", op, self.line, self._tok_col))
                self.pos += len(op)
                return
        raise self.error(f"unexpected character {self.source[self.pos]!r}")


# Binary operators that desugar to method calls, grouped by precedence
# (loosest first).
_EQ_OPS = ("==", "!=", "=~", "===", "<=>")
_CMP_OPS = ("<", ">", "<=", ">=")
_SHIFT_OPS = ("<<", ">>")
_ADD_OPS = ("+", "-")
_MUL_OPS = ("*", "/", "%")

# Tokens that may begin a command-call argument (paren-less call).
_COMMAND_ARG_KINDS = {
    "string", "dstring", "int", "float", "symbol", "const", "ivar", "gvar",
}
_COMMAND_ARG_KEYWORDS = {"self", "nil", "true", "false", "lambda", "proc"}

# Method names that may appear after `def` as operator definitions.
_DEF_OP_NAMES = (
    "[]=", "[]", "==", "!=", "<=>", "<=", ">=", "<<", "+", "-", "*", "/",
    "%", "<", ">",
)


# Content-keyed cache of parsed programs.  Subject-app sources are parsed
# once per process, not once per universe: every `SubjectApp.build` and every
# parallel-worker round rebuilds its universe pristine, but the *parse* of
# identical source is pure and therefore shareable.  The AST is read-only
# after parsing (the checker keys its dynamic-check table on `node_id`, per
# interpreter, and the closure compiler caches on the `compiled` slot with
# interpreter-agnostic closures), so returning one shared Program is safe.
_PROGRAM_CACHE: OrderedDict[str, ast.Program] = OrderedDict()
_PROGRAM_CACHE_MAX = 256


def parse_program(source: str, use_cache: bool = True) -> ast.Program:
    """Parse mini-Ruby source text into a :class:`repro.lang.ast_nodes.Program`.

    Identical source returns the same (shared, read-only) ``Program`` object;
    pass ``use_cache=False`` to force a fresh parse with fresh node ids.
    """
    if use_cache:
        program = _PROGRAM_CACHE.get(source)
        if program is not None:
            _PROGRAM_CACHE.move_to_end(source)
            return program
    with span("parse.program") as sp:
        sp.set("bytes", len(source))
        tokens = Lexer(source).tokenize()
        program = _Parser(tokens).parse()
    if use_cache:
        _PROGRAM_CACHE[source] = program
        while len(_PROGRAM_CACHE) > _PROGRAM_CACHE_MAX:
            _PROGRAM_CACHE.popitem(last=False)
    return program


class _Scope:
    """Tracks declared local variables; blocks extend their parent chain."""

    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.names: set[str] = set()

    def declare(self, name: str) -> None:
        self.names.add(name)

    def knows(self, name: str) -> bool:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return True
            scope = scope.parent
        return False


class _Parser:
    def __init__(self, tokens: list[Token], scope: _Scope | None = None):
        self.tokens = tokens
        self.index = 0
        self.scope = scope or _Scope()
        self._pending_block_arg: ast.Node | None = None

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.index += 1
        return token

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek().line)

    def at(self, kind: str, value: object = None, offset: int = 0) -> bool:
        token = self.peek(offset)
        return token.kind == kind and (value is None or token.value == value)

    def accept(self, kind: str, value: object = None) -> Token | None:
        if self.at(kind, value):
            return self.next()
        return None

    def expect(self, kind: str, value: object = None) -> Token:
        if not self.at(kind, value):
            found = self.peek()
            raise self.error(f"expected {value or kind}, found {found.value!r}")
        return self.next()

    def skip_newlines(self) -> None:
        while self.at("newline") or self.at("op", ";"):
            self.next()

    def skip_terminators(self) -> None:
        self.skip_newlines()

    # ------------------------------------------------------------------
    # program / statements
    # ------------------------------------------------------------------
    def parse(self) -> ast.Program:
        body = self.parse_stmts(("eof",))
        return ast.Program(body=body, line=1)

    def parse_stmts(self, stop_keywords: tuple[str, ...]) -> list[ast.Node]:
        """Parse statements until one of ``stop_keywords`` (kw values, or
        the pseudo-terminator "eof")."""
        stmts: list[ast.Node] = []
        while True:
            self.skip_terminators()
            token = self.peek()
            if token.kind == "eof":
                break
            if token.kind == "kw" and token.value in stop_keywords:
                break
            stmts.append(self.parse_stmt())
        return stmts

    def parse_stmt(self) -> ast.Node:
        stmt = self._parse_stmt_core()
        # postfix modifiers: `stmt if cond`, `stmt unless cond`, `stmt while c`
        while self.at("kw") and self.peek().value in ("if", "unless", "while", "until"):
            keyword = self.next().value
            cond = self.parse_expression()
            if keyword == "if":
                stmt = ast.If(cond=cond, then_body=[stmt], else_body=[], line=stmt.line, col=stmt.col)
            elif keyword == "unless":
                stmt = ast.If(cond=cond, then_body=[], else_body=[stmt], line=stmt.line, col=stmt.col)
            else:
                stmt = ast.While(
                    cond=cond, body=[stmt], is_until=(keyword == "until"), line=stmt.line, col=stmt.col
                )
        return stmt

    def _parse_stmt_core(self) -> ast.Node:
        token = self.peek()
        if token.kind == "kw":
            keyword = token.value
            if keyword == "def":
                return self.parse_def()
            if keyword == "class":
                return self.parse_class()
            if keyword == "module":
                return self.parse_module()
            if keyword == "if" or keyword == "unless":
                return self.parse_if()
            if keyword == "while" or keyword == "until":
                return self.parse_while()
            if keyword == "case":
                return self.parse_case()
            if keyword == "begin":
                return self.parse_begin()
            if keyword == "return":
                return self.parse_return()
            if keyword == "break":
                self.next()
                return ast.Break(value=self._optional_expr(), line=token.line, col=token.col)
            if keyword == "next":
                self.next()
                return ast.Next(value=self._optional_expr(), line=token.line, col=token.col)
            if keyword == "raise":
                self.next()
                return ast.Raise(args=self._command_args(), line=token.line, col=token.col)
            if keyword in ("require", "require_relative"):
                self.next()
                self.parse_expression()
                return ast.NilLit(line=token.line, col=token.col)
        # multi-assign lookahead: a, b = ...
        if token.kind == "ident" and self.at("op", ",", 1):
            multi = self._try_multi_assign()
            if multi is not None:
                return multi
        return self.parse_expression()

    def _optional_expr(self) -> ast.Node | None:
        if self.at("newline") or self.at("eof") or self.at("op", ";"):
            return None
        if self.at("kw") and self.peek().value in ("if", "unless", "while", "until", "end"):
            return None
        return self.parse_expression()

    def _try_multi_assign(self) -> ast.Node | None:
        start = self.index
        names = [str(self.next().value)]
        while self.accept("op", ","):
            if not self.at("ident"):
                self.index = start
                return None
            names.append(str(self.next().value))
        if not self.at("op", "="):
            self.index = start
            return None
        _pos_tok = self.next()
        line, col = _pos_tok.line, _pos_tok.col
        values = [self.parse_expression()]
        while self.accept("op", ","):
            values.append(self.parse_expression())
        targets = []
        for name in names:
            self.scope.declare(name)
            targets.append(ast.LocalVar(name=name, line=line, col=col))
        return ast.MultiAssign(targets=targets, values=values, line=line, col=col)

    # ------------------------------------------------------------------
    # definitions
    # ------------------------------------------------------------------
    def parse_def(self) -> ast.MethodDef:
        _pos_tok = self.expect("kw", "def")
        line, col = _pos_tok.line, _pos_tok.col
        is_self = False
        if self.at("kw", "self") and self.at("op", ".", 1):
            self.next()
            self.next()
            is_self = True
        name = self._def_name()
        outer_scope = self.scope
        self.scope = _Scope()
        params = self._def_params()
        body = self.parse_stmts(("end",))
        self.expect("kw", "end")
        self.scope = outer_scope
        return ast.MethodDef(name=name, params=params, body=body, is_self=is_self, line=line, col=col)

    def _def_name(self) -> str:
        token = self.peek()
        if token.kind == "ident" or token.kind == "const":
            name = str(self.next().value)
            # setter: def name=(v)
            if self.at("op", "=") and self.at("op", "(", 1):
                self.next()
                return name + "="
            return name
        if token.kind == "op":
            for op_name in _DEF_OP_NAMES:
                if op_name == "[]" and token.value == "[" and self.at("op", "]", 1):
                    self.next()
                    self.next()
                    if self.at("op", "="):
                        self.next()
                        return "[]="
                    return "[]"
                if token.value == op_name:
                    self.next()
                    return op_name
        if token.kind == "kw":  # e.g. def class — not supported, but `def ==`...
            pass
        raise self.error(f"bad method name {token.value!r}")

    def _def_params(self) -> list[ast.Param]:
        params: list[ast.Param] = []
        parens = bool(self.accept("op", "("))
        if parens and self.accept("op", ")"):
            return params
        if not parens and (self.at("newline") or self.at("op", ";")):
            return params
        while True:
            self.skip_newlines() if parens else None
            is_block = bool(self.accept("op", "&"))
            is_splat = bool(self.accept("op", "*"))
            name = str(self.expect("ident").value)
            default = None
            if self.accept("op", "="):
                default = self.parse_expression()
            params.append(ast.Param(name=name, default=default, is_block=is_block,
                                    is_splat=is_splat, line=self.peek().line, col=self.peek().col))
            self.scope.declare(name)
            if not self.accept("op", ","):
                break
        if parens:
            self.skip_newlines()
            self.expect("op", ")")
        return params

    def parse_class(self) -> ast.ClassDef:
        _pos_tok = self.expect("kw", "class")
        line, col = _pos_tok.line, _pos_tok.col
        name = str(self.expect("const").value)
        superclass = None
        if self.accept("op", "<"):
            superclass = str(self.expect("const").value)
        body = self.parse_stmts(("end",))
        self.expect("kw", "end")
        return ast.ClassDef(name=name, superclass=superclass, body=body, line=line, col=col)

    def parse_module(self) -> ast.ModuleDef:
        _pos_tok = self.expect("kw", "module")
        line, col = _pos_tok.line, _pos_tok.col
        name = str(self.expect("const").value)
        body = self.parse_stmts(("end",))
        self.expect("kw", "end")
        return ast.ModuleDef(name=name, body=body, line=line, col=col)

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------
    def parse_if(self) -> ast.If:
        token = self.next()  # if / unless
        is_unless = token.value == "unless"
        cond = self.parse_expression()
        self.accept("kw", "then")
        then_body = self.parse_stmts(("elsif", "else", "end"))
        else_body: list[ast.Node] = []
        if self.at("kw", "elsif"):
            else_body = [self.parse_if_tail()]
        elif self.accept("kw", "else"):
            else_body = self.parse_stmts(("end",))
            self.expect("kw", "end")
        else:
            self.expect("kw", "end")
        if is_unless:
            then_body, else_body = else_body, then_body
        return ast.If(cond=cond, then_body=then_body, else_body=else_body, line=token.line, col=token.col)

    def parse_if_tail(self) -> ast.If:
        _pos_tok = self.expect("kw", "elsif")
        line, col = _pos_tok.line, _pos_tok.col
        cond = self.parse_expression()
        self.accept("kw", "then")
        then_body = self.parse_stmts(("elsif", "else", "end"))
        else_body: list[ast.Node] = []
        if self.at("kw", "elsif"):
            else_body = [self.parse_if_tail()]
        elif self.accept("kw", "else"):
            else_body = self.parse_stmts(("end",))
            self.expect("kw", "end")
        else:
            self.expect("kw", "end")
        return ast.If(cond=cond, then_body=then_body, else_body=else_body, line=line, col=col)

    def parse_while(self) -> ast.While:
        token = self.next()
        cond = self.parse_expression()
        self.accept("kw", "do")
        body = self.parse_stmts(("end",))
        self.expect("kw", "end")
        return ast.While(cond=cond, body=body, is_until=(token.value == "until"), line=token.line, col=token.col)

    def parse_case(self) -> ast.Case:
        _pos_tok = self.expect("kw", "case")
        line, col = _pos_tok.line, _pos_tok.col
        subject = None
        if not self.at("newline"):
            subject = self.parse_expression()
        self.skip_newlines()
        whens: list[ast.CaseWhen] = []
        while self.at("kw", "when"):
            _pos_tok = self.next()
            when_line, when_col = _pos_tok.line, _pos_tok.col
            values = [self.parse_expression()]
            while self.accept("op", ","):
                values.append(self.parse_expression())
            self.accept("kw", "then")
            body = self.parse_stmts(("when", "else", "end"))
            whens.append(ast.CaseWhen(values=values, body=body, line=when_line, col=when_col))
        else_body: list[ast.Node] = []
        if self.accept("kw", "else"):
            else_body = self.parse_stmts(("end",))
        self.expect("kw", "end")
        return ast.Case(subject=subject, whens=whens, else_body=else_body, line=line, col=col)

    def parse_begin(self) -> ast.BeginRescue:
        _pos_tok = self.expect("kw", "begin")
        line, col = _pos_tok.line, _pos_tok.col
        body = self.parse_stmts(("rescue", "ensure", "end"))
        rescue_class = None
        rescue_var = None
        rescue_body: list[ast.Node] = []
        ensure_body: list[ast.Node] = []
        if self.accept("kw", "rescue"):
            if self.at("const"):
                rescue_class = str(self.next().value)
            if self.accept("op", "=>"):
                rescue_var = str(self.expect("ident").value)
                self.scope.declare(rescue_var)
            rescue_body = self.parse_stmts(("ensure", "end"))
        if self.accept("kw", "ensure"):
            ensure_body = self.parse_stmts(("end",))
        self.expect("kw", "end")
        return ast.BeginRescue(body=body, rescue_class=rescue_class, rescue_var=rescue_var,
                               rescue_body=rescue_body, ensure_body=ensure_body, line=line, col=col)

    def parse_return(self) -> ast.Return:
        _pos_tok = self.expect("kw", "return")
        line, col = _pos_tok.line, _pos_tok.col
        return ast.Return(value=self._optional_expr(), line=line, col=col)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> ast.Node:
        return self.parse_assignment()

    def parse_assignment(self) -> ast.Node:
        left = self.parse_or()
        token = self.peek()
        if token.kind != "op":
            return left
        if token.value == "=":
            _pos_tok = self.next()
            line, col = _pos_tok.line, _pos_tok.col
            self.skip_newlines()
            value = self.parse_assignment()
            return self._make_assign(left, value, line, col)
        if token.value in ("+=", "-=", "*=", "/=", "%="):
            op = str(token.value)[0]
            _pos_tok = self.next()
            line, col = _pos_tok.line, _pos_tok.col
            self.skip_newlines()
            value = self.parse_assignment()
            combined = ast.MethodCall(receiver=left, name=op, args=[value], line=line, col=col)
            return self._make_assign(_copy_target(left), combined, line, col)
        if token.value in ("||=", "&&="):
            op = str(token.value)[:2]
            _pos_tok = self.next()
            line, col = _pos_tok.line, _pos_tok.col
            self.skip_newlines()
            value = self.parse_assignment()
            self._declare_target(left)
            return ast.OpAssign(target=left, op=op, value=value, line=line, col=col)
        return left

    def _declare_target(self, target: ast.Node) -> None:
        if isinstance(target, ast.LocalVar):
            self.scope.declare(target.name)
        if isinstance(target, ast.MethodCall) and target.receiver is None and not target.args:
            self.scope.declare(target.name)

    def _make_assign(self, left: ast.Node, value: ast.Node, line: int,
                     col: int = 0) -> ast.Node:
        if isinstance(left, ast.MethodCall):
            if left.name == "[]" and left.receiver is not None:
                return ast.IndexAssign(receiver=left.receiver, args=left.args,
                                       value=value, line=line, col=col)
            if left.receiver is not None and not left.args:
                return ast.AttrAssign(receiver=left.receiver, name=left.name,
                                      value=value, line=line, col=col)
            if left.receiver is None and not left.args:
                # `x = e` where x was parsed as a self-call: it's a new local
                self.scope.declare(left.name)
                return ast.Assign(target=ast.LocalVar(name=left.name, line=left.line, col=left.col),
                                  value=value, line=line, col=col)
        if isinstance(left, (ast.LocalVar, ast.IVar, ast.GVar, ast.ConstRef)):
            if isinstance(left, ast.LocalVar):
                self.scope.declare(left.name)
            return ast.Assign(target=left, value=value, line=line, col=col)
        raise self.error("invalid assignment target")

    def parse_or(self) -> ast.Node:
        left = self.parse_and()
        while self.at("op", "||") or self.at("kw", "or"):
            _pos_tok = self.next()
            line, col = _pos_tok.line, _pos_tok.col
            self.skip_newlines()
            left = ast.OrOp(left=left, right=self.parse_and(), line=line, col=col)
        return left

    def parse_and(self) -> ast.Node:
        left = self.parse_not()
        while self.at("op", "&&") or self.at("kw", "and"):
            _pos_tok = self.next()
            line, col = _pos_tok.line, _pos_tok.col
            self.skip_newlines()
            left = ast.AndOp(left=left, right=self.parse_not(), line=line, col=col)
        return left

    def parse_not(self) -> ast.Node:
        if self.at("op", "!") or self.at("kw", "not"):
            _pos_tok = self.next()
            line, col = _pos_tok.line, _pos_tok.col
            return ast.NotOp(operand=self.parse_not(), line=line, col=col)
        return self.parse_equality()

    def _binop_chain(self, ops: tuple[str, ...], sub) -> ast.Node:
        left = sub()
        while self.at("op") and self.peek().value in ops:
            token = self.next()
            self.skip_newlines()
            right = sub()
            left = ast.MethodCall(receiver=left, name=str(token.value), args=[right],
                                  line=token.line, col=token.col)
        return left

    def parse_equality(self) -> ast.Node:
        return self._binop_chain(_EQ_OPS, self.parse_comparison)

    def parse_comparison(self) -> ast.Node:
        return self._binop_chain(_CMP_OPS, self.parse_bitor)

    def parse_bitor(self) -> ast.Node:
        return self._binop_chain(("|",), self.parse_bitand)

    def parse_bitand(self) -> ast.Node:
        return self._binop_chain(("&",), self.parse_range)

    def parse_range(self) -> ast.Node:
        left = self.parse_shift()
        if self.at("op", "..") or self.at("op", "..."):
            token = self.next()
            right = self.parse_shift()
            return ast.RangeLit(low=left, high=right,
                                exclusive=(token.value == "..."), line=token.line, col=token.col)
        return left

    def parse_shift(self) -> ast.Node:
        return self._binop_chain(_SHIFT_OPS, self.parse_additive)

    def parse_additive(self) -> ast.Node:
        return self._binop_chain(_ADD_OPS, self.parse_multiplicative)

    def parse_multiplicative(self) -> ast.Node:
        return self._binop_chain(_MUL_OPS, self.parse_unary)

    def parse_unary(self) -> ast.Node:
        if self.at("op", "-"):
            _pos_tok = self.next()
            line, col = _pos_tok.line, _pos_tok.col
            operand = self.parse_unary()
            if isinstance(operand, ast.IntLit):
                return ast.IntLit(value=-operand.value, line=line, col=col)
            if isinstance(operand, ast.FloatLit):
                return ast.FloatLit(value=-operand.value, line=line, col=col)
            return ast.MethodCall(receiver=operand, name="-@", args=[], line=line, col=col)
        return self.parse_power()

    def parse_power(self) -> ast.Node:
        left = self.parse_postfix()
        if self.at("op", "**"):
            token = self.next()
            right = self.parse_unary()  # right associative
            return ast.MethodCall(receiver=left, name="**", args=[right], line=token.line, col=token.col)
        return left

    # ------------------------------------------------------------------
    # postfix: method chains, indexing, blocks
    # ------------------------------------------------------------------
    def parse_postfix(self) -> ast.Node:
        node = self.parse_primary()
        while True:
            if self.at("op", "."):
                self.next()
                node = self._parse_call_after_dot(node)
            elif self.at("op", "::") and self.at("const", None, 1):
                self.next()
                name = str(self.next().value)
                if isinstance(node, ast.ConstRef):
                    node = ast.ConstRef(name=f"{node.name}::{name}", line=node.line, col=node.col)
                else:
                    node = ast.MethodCall(receiver=node, name=name, args=[], line=node.line, col=node.col)
            elif self.at("op", "["):
                _pos_tok = self.next()
                line, col = _pos_tok.line, _pos_tok.col
                args = self._bracket_args("]")
                node = ast.MethodCall(receiver=node, name="[]", args=args, line=line, col=col)
            elif self.at("newline") and self._next_nonblank_is_dot():
                self.skip_newlines()
                # loop back around; the '.' branch will fire
            else:
                break
        return node

    def _next_nonblank_is_dot(self) -> bool:
        offset = 0
        while self.peek(offset).kind == "newline":
            offset += 1
        return self.at("op", ".", offset)

    def _parse_call_after_dot(self, receiver: ast.Node) -> ast.Node:
        token = self.next()
        if token.kind not in ("ident", "const", "kw"):
            raise self.error(f"expected method name after '.', found {token.value!r}")
        name = str(token.value)
        args: list[ast.Node] = []
        block_arg = None
        if self.accept("op", "("):
            args = self._bracket_args(")")
            block_arg = self._take_block_arg()
        elif self._starts_command_arg():
            args = self._command_args()
            block_arg = self._take_block_arg()
        call = ast.MethodCall(receiver=receiver, name=name, args=args,
                              block_arg=block_arg, line=token.line, col=token.col)
        call.block = self._maybe_block()
        return call

    def _take_block_arg(self) -> ast.Node | None:
        block_arg = self._pending_block_arg
        self._pending_block_arg = None
        return block_arg

    def _maybe_block(self) -> ast.BlockNode | None:
        if self.at("op", "{"):
            self.next()
            return self._parse_block_body("}", brace=True)
        if self.at("kw", "do"):
            self.next()
            return self._parse_block_body("end", brace=False)
        return None

    def _parse_block_body(self, closer: str, brace: bool) -> ast.BlockNode:
        _pos_tok = self.peek()
        line, col = _pos_tok.line, _pos_tok.col
        outer = self.scope
        self.scope = _Scope(parent=outer)
        params: list[ast.Param] = []
        self.skip_newlines()
        if self.accept("op", "|"):
            while not self.at("op", "|"):
                is_splat = bool(self.accept("op", "*"))
                name = str(self.expect("ident").value)
                params.append(ast.Param(name=name, is_splat=is_splat, line=self.peek().line, col=self.peek().col))
                self.scope.declare(name)
                if not self.accept("op", ","):
                    break
            self.expect("op", "|")
        if brace:
            body = self._parse_brace_block_stmts()
        else:
            body = self.parse_stmts(("end",))
            self.expect("kw", "end")
        self.scope = outer
        return ast.BlockNode(params=params, body=body, line=line, col=col)

    def _parse_brace_block_stmts(self) -> list[ast.Node]:
        stmts: list[ast.Node] = []
        while True:
            self.skip_terminators()
            if self.accept("op", "}"):
                break
            if self.at("eof"):
                raise self.error("unterminated block")
            stmts.append(self.parse_stmt())
        return stmts

    # ------------------------------------------------------------------
    # primaries
    # ------------------------------------------------------------------
    def parse_primary(self) -> ast.Node:
        token = self.peek()
        kind = token.kind
        if kind == "int":
            self.next()
            return ast.IntLit(value=int(token.value), line=token.line, col=token.col)
        if kind == "float":
            self.next()
            return ast.FloatLit(value=float(token.value), line=token.line, col=token.col)
        if kind == "string":
            self.next()
            return ast.StrLit(value=str(token.value), line=token.line, col=token.col)
        if kind == "dstring":
            self.next()
            return self._build_interp(token)
        if kind == "symbol":
            self.next()
            return ast.SymLit(name=str(token.value), line=token.line, col=token.col)
        if kind == "ivar":
            self.next()
            return ast.IVar(name=str(token.value), line=token.line, col=token.col)
        if kind == "gvar":
            self.next()
            return ast.GVar(name=str(token.value), line=token.line, col=token.col)
        if kind == "const":
            self.next()
            node: ast.Node = ast.ConstRef(name=str(token.value), line=token.line, col=token.col)
            return node
        if kind == "kw":
            return self._parse_keyword_primary(token)
        if kind == "op":
            if token.value == "(":
                self.next()
                self.skip_newlines()
                inner = self.parse_expression()
                self.skip_newlines()
                self.expect("op", ")")
                return inner
            if token.value == "[":
                self.next()
                elements = self._bracket_args("]")
                return ast.ArrayLit(elements=elements, line=token.line, col=token.col)
            if token.value == "{":
                self.next()
                return self._parse_hash_literal(token.line, token.col)
            if token.value == "->":
                return self._parse_stabby_lambda()
        if kind == "ident":
            return self._parse_ident_primary(token)
        raise self.error(f"unexpected token {token.value!r}")

    def _parse_keyword_primary(self, token: Token) -> ast.Node:
        keyword = token.value
        if keyword == "nil":
            self.next()
            return ast.NilLit(line=token.line, col=token.col)
        if keyword == "true":
            self.next()
            return ast.TrueLit(line=token.line, col=token.col)
        if keyword == "false":
            self.next()
            return ast.FalseLit(line=token.line, col=token.col)
        if keyword == "self":
            self.next()
            return ast.SelfExpr(line=token.line, col=token.col)
        if keyword == "yield":
            self.next()
            if self.accept("op", "("):
                args = self._bracket_args(")")
            else:
                args = self._command_args()
            return ast.Yield(args=args, line=token.line, col=token.col)
        if keyword in ("lambda", "proc"):
            self.next()
            block = self._maybe_block()
            if block is None:
                raise self.error(f"{keyword} requires a block")
            return ast.MethodCall(receiver=None, name="lambda", args=[], block=block,
                                  line=token.line, col=token.col)
        if keyword in ("if", "unless"):
            return self.parse_if()
        if keyword == "case":
            return self.parse_case()
        if keyword == "begin":
            return self.parse_begin()
        if keyword == "raise":
            self.next()
            return ast.Raise(args=self._command_args(), line=token.line, col=token.col)
        raise self.error(f"unexpected keyword {keyword!r}")

    def _parse_stabby_lambda(self) -> ast.Node:
        _pos_tok = self.expect("op", "->")
        line, col = _pos_tok.line, _pos_tok.col
        outer = self.scope
        self.scope = _Scope(parent=outer)
        params: list[ast.Param] = []
        if self.accept("op", "("):
            while not self.at("op", ")"):
                name = str(self.expect("ident").value)
                params.append(ast.Param(name=name, line=line, col=col))
                self.scope.declare(name)
                if not self.accept("op", ","):
                    break
            self.expect("op", ")")
        self.expect("op", "{")
        body = self._parse_brace_block_stmts()
        self.scope = outer
        block = ast.BlockNode(params=params, body=body, line=line, col=col)
        return ast.MethodCall(receiver=None, name="lambda", args=[], block=block, line=line, col=col)

    def _parse_ident_primary(self, token: Token) -> ast.Node:
        self.next()
        name = str(token.value)
        if name == "defined?" and self.accept("op", "("):
            operand = self.parse_expression()
            self.expect("op", ")")
            return ast.Defined(operand=operand, line=token.line, col=token.col)
        if self.at("op", "("):
            self.next()
            args = self._bracket_args(")")
            call = ast.MethodCall(receiver=None, name=name, args=args,
                                  block_arg=self._take_block_arg(), line=token.line, col=token.col)
            call.block = self._maybe_block()
            return call
        if self.scope.knows(name):
            return ast.LocalVar(name=name, line=token.line, col=token.col)
        # command call (paren-less) if the next token can begin an argument
        if self._starts_command_arg():
            args = self._command_args()
            call = ast.MethodCall(receiver=None, name=name, args=args,
                                  block_arg=self._take_block_arg(), line=token.line, col=token.col)
            call.block = self._maybe_block()
            return call
        call = ast.MethodCall(receiver=None, name=name, args=[], line=token.line, col=token.col)
        call.block = self._maybe_block()
        return call

    def _starts_command_arg(self) -> bool:
        token = self.peek()
        if token.kind in _COMMAND_ARG_KINDS:
            return True
        if token.kind == "kw" and token.value in _COMMAND_ARG_KEYWORDS:
            return True
        if token.kind == "ident" and self.at("op", ":", 1):
            return True  # keyword argument: `typecheck: :model`
        return False

    def _command_args(self) -> list[ast.Node]:
        if self.at("newline") or self.at("eof") or self.at("op", ";"):
            return []
        if self.at("kw") and self.peek().value in ("if", "unless", "while", "until",
                                                   "then", "do", "end"):
            return []
        return self._arg_list(terminators=("newline", ";"))

    def _bracket_args(self, closer: str) -> list[ast.Node]:
        self.skip_newlines()
        if self.accept("op", closer):
            return []
        args = self._arg_list(terminators=(), closer=closer)
        self.skip_newlines()
        self.expect("op", closer)
        return args

    def _arg_list(self, terminators: tuple[str, ...], closer: str | None = None) -> list[ast.Node]:
        """Parse comma-separated arguments; trailing ``key: value`` pairs are
        collected into a single hash literal, as in Ruby."""
        args: list[ast.Node] = []
        kw_pairs: list[tuple[ast.Node, ast.Node]] = []
        while True:
            if closer is not None:
                self.skip_newlines()
            if self._at_kwarg():
                key_token = self.next()
                self.expect("op", ":")
                self.skip_newlines()
                value = self.parse_expression()
                kw_pairs.append(
                    (ast.SymLit(name=str(key_token.value), line=key_token.line, col=key_token.col), value)
                )
            elif self.at("op", "&"):
                # block-pass argument `&:sym` / `&blk` becomes the call's block
                self.next()
                self._pending_block_arg = self.parse_expression()
            elif self.at("op", "*"):
                _pos_tok = self.next()
                line, col = _pos_tok.line, _pos_tok.col
                inner = self.parse_expression()
                args.append(ast.MethodCall(receiver=inner, name="to_a", args=[], line=line, col=col))
            else:
                args.append(self.parse_expression())
            if closer is not None:
                self.skip_newlines()
            if not self.accept("op", ","):
                break
            if closer is not None:
                self.skip_newlines()
        if kw_pairs:
            args.append(ast.HashLit(pairs=kw_pairs, line=kw_pairs[0][0].line, col=kw_pairs[0][0].col))
        return args

    def _at_kwarg(self) -> bool:
        return (
            self.peek().kind in ("ident", "const")
            and self.at("op", ":", 1)
            and not self.at("op", "::", 1)
        )

    def _parse_hash_literal(self, line: int, col: int = 0) -> ast.HashLit:
        pairs: list[tuple[ast.Node, ast.Node]] = []
        self.skip_newlines()
        if self.accept("op", "}"):
            return ast.HashLit(pairs=pairs, line=line, col=col)
        while True:
            self.skip_newlines()
            pairs.append(self._parse_hash_pair())
            self.skip_newlines()
            if not self.accept("op", ","):
                break
        self.skip_newlines()
        self.expect("op", "}")
        return ast.HashLit(pairs=pairs, line=line, col=col)

    def _parse_hash_pair(self) -> tuple[ast.Node, ast.Node]:
        token = self.peek()
        if token.kind in ("ident", "const") and self.at("op", ":", 1):
            self.next()
            self.next()
            self.skip_newlines()
            return (ast.SymLit(name=str(token.value), line=token.line, col=token.col),
                    self.parse_expression())
        key = self.parse_expression()
        self.expect("op", "=>")
        self.skip_newlines()
        return (key, self.parse_expression())

    def _build_interp(self, token: Token) -> ast.Node:
        parts: list[object] = []
        for kind, payload in token.value:  # type: ignore[union-attr]
            if kind == "str":
                parts.append(payload)
            else:
                sub_tokens = Lexer(str(payload)).tokenize()
                sub_parser = _Parser(sub_tokens, scope=self.scope)
                sub_parser.skip_newlines()
                parts.append(sub_parser.parse_expression())
        return ast.StrInterp(parts=parts, line=token.line, col=token.col)


def _copy_target(node: ast.Node) -> ast.Node:
    """Re-usable copy of an assignment target for `x += 1` desugaring."""
    if isinstance(node, ast.LocalVar):
        return ast.LocalVar(name=node.name, line=node.line, col=node.col)
    if isinstance(node, ast.IVar):
        return ast.IVar(name=node.name, line=node.line, col=node.col)
    if isinstance(node, ast.GVar):
        return ast.GVar(name=node.name, line=node.line, col=node.col)
    if isinstance(node, ast.MethodCall):
        return ast.MethodCall(receiver=node.receiver, name=node.name,
                              args=node.args, line=node.line, col=node.col)
    return node
