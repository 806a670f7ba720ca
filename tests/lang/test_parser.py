"""Parser unit tests over the mini-Ruby subset."""

import pytest

from repro.lang import ParseError, ast, parse_program


def first_stmt(source):
    return parse_program(source).body[0]


class TestLiterals:
    def test_array_literal(self):
        node = first_stmt("[1, 'two', :three]")
        assert isinstance(node, ast.ArrayLit)
        assert len(node.elements) == 3

    def test_hash_literal_modern_keys(self):
        node = first_stmt("{ name: 'Alice', age: 30 }")
        assert isinstance(node, ast.HashLit)
        keys = [k.name for k, _ in node.pairs]
        assert keys == ["name", "age"]

    def test_hash_literal_rockets(self):
        node = first_stmt("{ :action => prompt, 'k' => 1 }")
        assert isinstance(node, ast.HashLit)

    def test_nested_hash(self):
        node = first_stmt("{ apartments: { bedrooms: 2 } }")
        inner = node.pairs[0][1]
        assert isinstance(inner, ast.HashLit)


class TestCalls:
    def test_operator_desugars_to_call(self):
        node = first_stmt("1 + 2")
        assert isinstance(node, ast.MethodCall)
        assert node.name == "+"

    def test_index_desugars(self):
        node = first_stmt("x = 1\npage[:info]").body if False else parse_program("page[:info]").body[0]
        assert isinstance(node, ast.MethodCall)
        assert node.name == "[]"

    def test_chain_with_newline_dot(self):
        node = first_stmt("Post.includes(:topic)\n  .where('x')")
        assert isinstance(node, ast.MethodCall)
        assert node.name == "where"
        assert node.receiver.name == "includes"

    def test_command_call(self):
        # paren-less calls take their arguments with or without a receiver
        for source, name in (("has_many :emails", "has_many"),
                             ("RDL.do_typecheck :model", "do_typecheck")):
            program = parse_program(source)
            assert len(program.body) == 1, source
            node = program.body[0]
            assert isinstance(node, ast.MethodCall)
            assert node.name == name
            assert isinstance(node.args[0], ast.SymLit)

    def test_command_call_with_kwargs(self):
        node = first_stmt('type "(String) -> %bool", typecheck: :model')
        assert node.name == "type"
        assert isinstance(node.args[0], ast.StrLit)
        assert isinstance(node.args[1], ast.HashLit)

    def test_local_shadows_call(self):
        program = parse_program("x = 1\nx")
        assert isinstance(program.body[1], ast.LocalVar)

    def test_unassigned_ident_is_self_call(self):
        node = first_stmt("page")
        assert isinstance(node, ast.MethodCall)
        assert node.receiver is None

    def test_block_brace(self):
        node = first_stmt("array.map { |v| v + 1 }")
        assert node.block is not None
        assert node.block.params[0].name == "v"

    def test_block_do_end(self):
        node = first_stmt("items.each do |x|\n  puts x\nend")
        assert node.block is not None

    def test_blockpass_symbol(self):
        node = first_stmt("xs.map(&:to_s)")
        assert node.args == []
        assert isinstance(node.block_arg, ast.SymLit)

    def test_setter_call(self):
        node = first_stmt("user.name = 'x'")
        assert isinstance(node, ast.AttrAssign)
        assert node.name == "name"

    def test_index_assign(self):
        node = first_stmt("a[0] = 'one'")
        assert isinstance(node, ast.IndexAssign)


class TestControlFlow:
    def test_postfix_if(self):
        node = first_stmt("return false if reserved?(name)")
        assert isinstance(node, ast.If)
        assert isinstance(node.then_body[0], ast.Return)

    def test_postfix_unless(self):
        node = first_stmt("save unless frozen?")
        assert isinstance(node, ast.If)
        assert node.then_body == []

    def test_if_elsif_else(self):
        node = first_stmt("if a\n 1\nelsif b\n 2\nelse\n 3\nend")
        assert isinstance(node, ast.If)
        assert isinstance(node.else_body[0], ast.If)

    def test_unless_statement(self):
        node = first_stmt("unless a\n 1\nend")
        assert isinstance(node, ast.If)
        assert node.then_body == []

    def test_while(self):
        node = first_stmt("while x < 3\n x = x + 1\nend")
        assert isinstance(node, ast.While)

    def test_case_when(self):
        node = first_stmt("case x\nwhen 1 then 'a'\nwhen 2, 3\n 'b'\nelse\n 'c'\nend")
        assert isinstance(node, ast.Case)
        assert len(node.whens) == 2
        assert len(node.whens[1].values) == 2

    def test_begin_rescue(self):
        node = first_stmt("begin\n f\nrescue NameError => e\n g\nend")
        assert isinstance(node, ast.BeginRescue)
        assert node.rescue_class == "NameError"
        assert node.rescue_var == "e"

    def test_and_or_keywords(self):
        node = first_stmt("a and b or c")
        assert isinstance(node, ast.OrOp)


class TestDefinitions:
    def test_method_def(self):
        node = first_stmt("def m(a, b = 1)\n a\nend")
        assert isinstance(node, ast.MethodDef)
        assert [p.name for p in node.params] == ["a", "b"]
        assert node.params[1].default is not None

    def test_self_method_def(self):
        node = first_stmt("def self.available?(name, email)\n true\nend")
        assert node.is_self
        assert node.name == "available?"

    def test_operator_def(self):
        node = first_stmt("def ==(other)\n true\nend")
        assert node.name == "=="

    def test_setter_def(self):
        node = first_stmt("def name=(v)\n @name = v\nend")
        assert node.name == "name="

    def test_class_def(self):
        node = first_stmt("class User < ActiveRecord::Base\nend")
        assert isinstance(node, ast.ClassDef)
        assert node.superclass == "ActiveRecord::Base"

    def test_splat_and_block_params(self):
        node = first_stmt("def m(*rest, &blk)\nend")
        assert node.params[0].is_splat
        assert node.params[1].is_block


class TestAssignment:
    def test_simple(self):
        node = first_stmt("x = 1")
        assert isinstance(node, ast.Assign)

    def test_op_assign(self):
        program = parse_program("x = 1\nx += 2")
        node = program.body[1]
        assert isinstance(node, ast.Assign)
        assert isinstance(node.value, ast.MethodCall)
        assert node.value.name == "+"

    def test_or_assign(self):
        node = first_stmt("@cache ||= {}")
        assert isinstance(node, ast.OpAssign)

    def test_ivar_assign(self):
        node = first_stmt("@name = 'x'")
        assert isinstance(node.target, ast.IVar)

    def test_multi_assign(self):
        node = first_stmt("a, b = 1, 2")
        assert isinstance(node, ast.MultiAssign)

    def test_string_interp(self):
        node = first_stmt('"hello #{name}!"')
        assert isinstance(node, ast.StrInterp)
        assert node.parts[0] == "hello "
        assert isinstance(node.parts[1], ast.MethodCall)

    def test_paper_figure_1a_parses(self):
        source = '''
class User < ActiveRecord::Base
  type "( String, String ) -> %bool", typecheck: :model
  def self.available?(name, email)
    return false if reserved?(name)
    return true if !User.exists?({ username: name })
    return User.joins( :emails ).exists?({ staged: true, username: name, emails: { email: email } })
  end
end
'''
        program = parse_program(source)
        klass = program.body[0]
        assert isinstance(klass, ast.ClassDef)
        assert isinstance(klass.body[0], ast.MethodCall)
        assert isinstance(klass.body[1], ast.MethodDef)

    def test_parse_error_reported(self):
        with pytest.raises(ParseError):
            parse_program("def end")


class TestPrecedence:
    def test_tighter_operators_nest_right(self):
        node = first_stmt("1 + 2 * 3 << 4")
        assert node.name == "<<"
        assert node.receiver.name == "+"
        assert node.receiver.args[0].name == "*"

    def test_same_level_associates_left(self):
        node = first_stmt("8 - 4 - 2")
        assert node.name == "-"
        assert node.receiver.name == "-"
        assert isinstance(node.args[0], ast.IntLit)

    def test_not_binds_between_and_and_equality(self):
        node = first_stmt("a || !b == c && d")
        assert isinstance(node, ast.OrOp)
        assert isinstance(node.right, ast.AndOp)
        negated = node.right.left
        assert isinstance(negated, ast.NotOp)
        assert negated.operand.name == "=="

    def test_range_takes_shifts_and_sums(self):
        node = first_stmt("1 + 2..3 << 4")
        assert isinstance(node, ast.RangeLit)
        assert node.low.name == "+"
        assert node.high.name == "<<"

    def test_range_under_a_looser_operator(self):
        node = first_stmt("x == 1..2")
        assert node.name == "=="
        assert isinstance(node.args[0], ast.RangeLit)

    def test_ranges_do_not_chain(self):
        for source in ("1..2..3", "x == 1..2..3", "!a..b..c"):
            with pytest.raises(ParseError, match=r"unexpected token '\.\.'"):
                parse_program(source, use_cache=False)

    def test_newline_may_follow_a_binary_operator_but_not_a_range(self):
        node = first_stmt("1 +\n  2")
        assert node.name == "+"
        with pytest.raises(ParseError, match="unexpected token None"):
            parse_program("1..\n  2", use_cache=False)


class TestStringPositions:
    def test_interpolated_code_sits_at_its_source_position(self):
        method = first_stmt('def f\n  "v=#{x.size}"\nend')
        call = method.body[0].parts[1]
        assert (call.name, call.line, call.col) == ("size", 2, 10)
        assert (call.receiver.line, call.receiver.col) == (2, 8)

    def test_interpolation_spanning_lines(self):
        node = first_stmt('"a#{\n  b}"')
        assert (node.parts[1].line, node.parts[1].col) == (2, 3)

    def test_errors_inside_interpolation_name_their_line(self):
        with pytest.raises(ParseError) as raised:
            parse_program('x = 1\n"#{)}"', use_cache=False)
        assert raised.value.line == 2

    def test_multiline_literal_takes_its_opening_line(self):
        node = first_stmt("s = 'ab\ncd'")
        assert (node.value.line, node.value.col) == (1, 5)
        program = parse_program('t = "ab\ncd"\nu', use_cache=False)
        assert (program.body[0].value.line, program.body[1].line) == (1, 3)
