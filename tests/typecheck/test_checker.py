"""Static checker tests: literals, flow, casts, weak updates, both modes."""

import pytest

from repro import CompRDL, Database


def fresh(**kwargs):
    return CompRDL(**kwargs)


def check(source, label=":app", **kwargs):
    rdl = fresh(**kwargs)
    rdl.load(source)
    return rdl.check(label)


def test_check_requests_honours_do_typecheck():
    # the paper's workflow: the program itself asks for its label's check
    rdl = fresh()
    rdl.load("""
class Greeter
  type :"self.hi", "() -> Integer", typecheck: :greet
  def self.hi()
    1
  end
end
RDL.do_typecheck :greet
""")
    report = rdl.check_requests()
    assert report.checked_methods == ["Greeter.hi"]
    assert report.ok()


class TestBasics:
    def test_simple_method(self):
        report = check("""
class C
  type "(Integer) -> Integer", typecheck: :app
  def double(x)
    x * 2
  end
end
""")
        assert report.ok()

    def test_wrong_return_type(self):
        report = check("""
class C
  type "(Integer) -> String", typecheck: :app
  def bad(x)
    x + 1
  end
end
""")
        assert not report.ok()
        assert "expected return type String" in str(report.errors[0])

    def test_wrong_argument(self):
        report = check("""
class C
  type "(String) -> Integer", typecheck: :app
  def bad(s)
    s + 1
  end
end
""")
        assert not report.ok()

    def test_constant_folding(self):
        report = check("""
class C
  type "() -> 4", typecheck: :app
  def four
    2 + 2
  end
end
""")
        assert report.ok()

    def test_constant_folding_rejects_wrong_singleton(self):
        report = check("""
class C
  type "() -> 5", typecheck: :app
  def four
    2 + 2
  end
end
""")
        assert not report.ok()

    def test_string_folding(self):
        report = check("""
class C
  type "() -> 'ab'", typecheck: :app
  def conc
    'a' + 'b'
  end
end
""")
        assert report.ok()

    def test_if_join(self):
        report = check("""
class C
  type "(%bool) -> Integer or String", typecheck: :app
  def branchy(b)
    if b
      1
    else
      "one"
    end
  end
end
""")
        assert report.ok()

    def test_postfix_return(self):
        report = check("""
class C
  type "(Integer) -> %bool", typecheck: :app
  def check(x)
    return false if x < 0
    true
  end
end
""")
        assert report.ok()

    def test_unannotated_callee_is_error(self):
        report = check("""
class C
  def helper
    1
  end
  type "() -> Integer", typecheck: :app
  def use
    helper
  end
end
""")
        assert not report.ok()
        assert "no type information" in str(report.errors[0])

    def test_ivar_requires_annotation(self):
        report = check("""
class C
  type "() -> Integer", typecheck: :app
  def read
    @count
  end
end
""")
        assert not report.ok()
        assert "instance variable" in str(report.errors[0])

    def test_ivar_with_annotation(self):
        report = check("""
class C
  var_type :@count, "Integer"
  type "() -> Integer", typecheck: :app
  def read
    @count
  end
end
""")
        assert report.ok()

    def test_uninitialized_constant(self):
        report = check("""
class C
  type "() -> Integer", typecheck: :app
  def broken
    Missing.all
  end
end
""")
        assert not report.ok()
        assert "uninitialized constant Missing" in str(report.errors[0])


class TestFiniteHashPrecision:
    SOURCE = """
class C
  type :cfg, "() -> { host: String, port: Integer }"
  def cfg
    { host: "localhost", port: 8080 }
  end

  type "() -> %s", typecheck: :app
  def read
    cfg[:%s]
  end
end
"""

    def test_precise_string_entry(self):
        assert check(self.SOURCE % ("String", "host")).ok()

    def test_precise_integer_entry(self):
        assert check(self.SOURCE % ("Integer", "port")).ok()

    def test_wrong_entry_type_rejected(self):
        assert not check(self.SOURCE % ("Integer", "host")).ok()

    def test_missing_key_is_nil(self):
        assert check(self.SOURCE % ("nil", "missing")).ok()

    def test_hash_merge_precision(self):
        report = check("""
class C
  type "() -> Integer", typecheck: :app
  def merged
    a = { x: 1 }
    b = { y: "s" }
    c = a.merge(b)
    c[:x]
  end
end
""")
        assert report.ok()

    def test_keys_are_singleton_tuple(self):
        report = check("""
class C
  type "() -> :a", typecheck: :app
  def first_key
    { a: 1, b: 2 }.keys.first
  end
end
""")
        assert report.ok()


class TestTuplePrecision:
    def test_index(self):
        report = check("""
class C
  type "() -> String", typecheck: :app
  def pick
    [1, 'two', :three][1]
  end
end
""")
        assert report.ok()

    def test_first_last(self):
        report = check("""
class C
  type "() -> Integer", typecheck: :app
  def ends
    t = [1, 'mid', 3]
    t.first + t.last
  end
end
""")
        assert report.ok()

    def test_length_singleton(self):
        report = check("""
class C
  type "() -> 3", typecheck: :app
  def len
    [1, 2, 3].length
  end
end
""")
        assert report.ok()

    def test_concat(self):
        report = check("""
class C
  type "() -> String", typecheck: :app
  def conc
    ([1] + ['s'])[1]
  end
end
""")
        assert report.ok()

    def test_weak_update_on_write(self):
        # a[0] = 'one' widens the shared tuple type (§4)
        report = check("""
class C
  type "() -> Integer or String", typecheck: :app
  def update
    a = [1, 'foo']
    a[0] = 'one'
    a[0]
  end
end
""")
        assert report.ok()

    def test_block_param_typed_from_receiver(self):
        report = check("""
class C
  type "() -> Array<Integer>", typecheck: :app
  def lens
    ['a', 'bb'].map { |s| s.length }
  end
end
""")
        assert report.ok()


class TestModes:
    FIG2 = """
class W
  type :page, "() -> { info: Array<String>, title: String }"
  def page
    { info: ['x'], title: 't' }
  end
  type "() -> String", typecheck: :app
  def image_url
    page[:info].first
  end
end
"""

    def test_comp_mode_no_cast(self):
        assert check(self.FIG2).ok()

    def test_rdl_mode_fails(self):
        report = check(self.FIG2, use_comp_types=False)
        assert not report.ok()

    def test_rdl_mode_repair_counts_cast(self):
        rdl = fresh(use_comp_types=False, repair_with_casts=True)
        rdl.load(self.FIG2)
        report = rdl.check(":app")
        assert report.ok()
        assert report.oracle_casts == 1

    def test_explicit_cast_counted(self):
        report = check("""
class C
  type "(%any) -> String", typecheck: :app
  def coerce(x)
    RDL.type_cast(x, "String")
  end
end
""")
        assert report.ok()
        assert report.casts_used == 1


def test_error_inside_interpolation_names_its_line():
    # the `#{...}` code is lexed where it sits, not as line 1 of a fragment
    report = check("""class A
  type "(Integer) -> String", typecheck: :app
  def f(x)
    y = x + 1
    z = y * 2
    w = z - 3
    "v=#{x.no_such_method}"
  end
end
""")
    assert [str(error) for error in report.errors] == [
        "no type information for method Integer#no_such_method in A#f (line 7)"]
