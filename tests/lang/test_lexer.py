"""Lexer unit tests."""

import pytest

from repro.lang import LexError, Lexer
from tests.oracles import ruby_parser as oracle


def kinds(source):
    return [(t.kind, t.value) for t in Lexer(source).tokenize() if t.kind != "newline"][:-1]


class TestBasics:
    def test_integer_and_float(self):
        assert kinds("42 3.5") == [("int", 42), ("float", 3.5)]

    def test_underscore_numbers(self):
        assert kinds("1_000") == [("int", 1000)]

    def test_single_quoted_string(self):
        assert kinds("'hi'") == [("string", "hi")]

    def test_double_quoted_plain(self):
        assert kinds('"hi"') == [("string", "hi")]

    def test_escapes(self):
        assert kinds('"a\\nb"') == [("string", "a\nb")]

    def test_symbol(self):
        assert kinds(":emails") == [("symbol", "emails")]

    def test_symbol_with_suffix(self):
        assert kinds(":exists?") == [("symbol", "exists?")]

    def test_ivar_and_gvar(self):
        assert kinds("@name $db") == [("ivar", "@name"), ("gvar", "$db")]

    def test_keywords_vs_idents(self):
        assert kinds("def foo end") == [("kw", "def"), ("ident", "foo"), ("kw", "end")]

    def test_method_name_suffixes(self):
        assert kinds("empty? save!") == [("ident", "empty?"), ("ident", "save!")]

    def test_bang_not_eaten_by_neq(self):
        assert kinds("a != b") == [("ident", "a"), ("op", "!="), ("ident", "b")]

    def test_namespaced_const(self):
        assert kinds("ActiveRecord::Base") == [("const", "ActiveRecord::Base")]

    def test_comment_skipped(self):
        assert kinds("1 # comment\n2") == [("int", 1), ("int", 2)]

    def test_hashrocket_after_symbol(self):
        assert kinds(":a=>1") == [("symbol", "a"), ("op", "=>"), ("int", 1)]

    def test_operators(self):
        assert kinds("a <=> b") == [("ident", "a"), ("op", "<=>"), ("ident", "b")]

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            Lexer("'oops").tokenize()


class TestInterpolation:
    def test_plain_interp(self):
        tokens = kinds('"a#{x}b"')
        assert tokens[0][0] == "dstring"
        parts = tokens[0][1]
        assert parts == [("str", "a"), ("code", "x"), ("str", "b")]

    def test_nested_braces(self):
        tokens = kinds('"#{h[:k]}"')
        assert tokens[0][1] == [("code", "h[:k]")]


#: (source, tokens without newlines and eof) pinned on the production
#: lexer and its oracle alike
EDGE_CASES = [
    ("foo?x", [("ident", "foo?"), ("ident", "x")]),
    ("a!=b", [("ident", "a"), ("op", "!="), ("ident", "b")]),
    ("x!.y", [("ident", "x"), ("op", "!"), ("op", "."), ("ident", "y")]),
    ("defined?(x)", [("ident", "defined?"), ("op", "("), ("ident", "x"), ("op", ")")]),
    ("1..5", [("int", 1), ("op", ".."), ("int", 5)]),
    ("1.5", [("float", 1.5)]),
    ("1_000", [("int", 1000)]),
    ("A::B", [("const", "A::B")]),
    ("c ? a : b", [("ident", "c"), ("op", "?"), ("ident", "a"), ("op", ":"), ("ident", "b")]),
    (":sym", [("symbol", "sym")]),
    (':"quoted"', [("symbol", "quoted")]),
    (":[]=", [("symbol", "[]=")]),
    ("@@x $x", [("ivar", "@@x"), ("gvar", "$x")]),
    ("a +\\\n  b", [("ident", "a"), ("op", "+"), ("ident", "b")]),
    ("größe = 1", [("ident", "größe"), ("op", "="), ("int", 1)]),
    ("x :", [("ident", "x"), ("op", ":")]),
]


@pytest.fixture(params=["production", "oracle"])
def lexer_class(request):
    return Lexer if request.param == "production" else oracle.Lexer


class TestEdgeCases:
    @pytest.mark.parametrize("source,expected", EDGE_CASES, ids=[s for s, _ in EDGE_CASES])
    def test_tokens(self, lexer_class, source, expected):
        tokens = [(t.kind, t.value) for t in lexer_class(source).tokenize()
                  if t.kind not in ("newline", "eof")]
        assert tokens == expected

    def test_continuation_moves_to_the_next_line(self, lexer_class):
        last = lexer_class("a +\\\n  b").tokenize()[2]
        assert (last.value, last.line, last.col) == ("b", 2, 3)

    def test_unterminated_string_reports_the_last_line(self, lexer_class):
        with pytest.raises(LexError) as raised:
            lexer_class("x = 1\n'oops\nmore").tokenize()
        assert (raised.value.message, raised.value.line) == ("unterminated string literal", 3)


class TestLiteralPositions:
    def test_multiline_literal_takes_its_opening_line(self):
        token = Lexer("s = 'ab\ncd'").tokenize()[2]
        assert (token.kind, token.line, token.col) == ("string", 1, 5)

    def test_escaped_newline_in_a_string_counts_as_a_line(self):
        last = [t for t in Lexer('"a\\\nb"\nx').tokenize() if t.kind == "ident"][0]
        assert last.line == 3
