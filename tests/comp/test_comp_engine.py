"""Comp engine, reflection, and termination checker tests."""

import pytest

from repro import CompRDL, Database
from repro.comp.engine import CompEngine
from repro.rtypes import (
    CompExpr,
    FiniteHashType,
    GenericType,
    NominalType,
    SingletonType,
    Sym,
    TupleType,
)
from repro.typecheck.errors import StaticTypeError, TerminationError


@pytest.fixture
def rdl():
    db = Database()
    db.create_table("users", username="string", staged="boolean")
    db.create_table("emails", email="string", user_id="integer")
    db.declare_association("users", "emails")
    return CompRDL(db=db)


def evaluate(rdl, code, **bindings):
    engine = rdl.checker.engine
    return engine.evaluate(CompExpr(code), bindings)


class TestReflection:
    def test_is_a_singleton(self, rdl):
        # a bare boolean is not a type: evaluation must reject it (λC's
        # premise that comp expressions have type Type)
        with pytest.raises(StaticTypeError):
            evaluate(rdl, "t.is_a?(Singleton)", t=SingletonType(Sym("a")))

    def test_conditional_on_type_kind(self, rdl):
        code = "if t.is_a?(Singleton)\n Nominal.new(Integer)\nelse\n Nominal.new(String)\nend"
        assert evaluate(rdl, code, t=SingletonType(1)) == NominalType("Integer")
        assert evaluate(rdl, code, t=NominalType("Integer")) == NominalType("String")

    def test_singleton_val(self, rdl):
        t = evaluate(rdl, "Singleton.new(t.val)", t=SingletonType(Sym("emails")))
        assert t == SingletonType(Sym("emails"))

    def test_generic_construction(self, rdl):
        t = evaluate(rdl, "Generic.new(Table, Nominal.new(Integer))")
        assert t == GenericType("Table", [NominalType("Integer")])

    def test_finite_hash_elts(self, rdl):
        fh = FiniteHashType({Sym("a"): NominalType("Integer")})
        t = evaluate(rdl, "tself.elts[:a]", tself=fh)
        assert t == NominalType("Integer")

    def test_merge(self, rdl):
        a = FiniteHashType({Sym("x"): NominalType("Integer")})
        b = FiniteHashType({Sym("y"): NominalType("String")})
        t = evaluate(rdl, "tself.merge(other)", tself=a, other=b)
        assert set(t.elts) == {Sym("x"), Sym("y")}

    def test_tuple_elts(self, rdl):
        tup = TupleType([NominalType("Integer"), NominalType("String")])
        t = evaluate(rdl, "tself.elts.last", tself=tup)
        assert t == NominalType("String")

    def test_schema_type_of_class_singleton(self, rdl):
        from repro.rtypes.kinds import ClassRef

        rdl.load("class User < ActiveRecord::Base\nend")
        t = evaluate(rdl, "schema_type(t)", t=SingletonType(ClassRef("User")))
        assert isinstance(t, FiniteHashType)
        assert Sym("username") in t.elts

    def test_class_ids_convert_to_nominal(self, rdl):
        assert evaluate(rdl, "Integer") == NominalType("Integer")


class TestEngineErrors:
    def test_non_type_result_rejected(self, rdl):
        with pytest.raises(StaticTypeError):
            evaluate(rdl, "42")

    def test_exception_becomes_static_error(self, rdl):
        with pytest.raises(StaticTypeError) as err:
            evaluate(rdl, "raise 'boom'")
        assert "boom" in str(err.value)

    def test_parse_error_reported(self, rdl):
        with pytest.raises(StaticTypeError):
            evaluate(rdl, "def broken")


class TestTermination:
    def test_while_rejected(self, rdl):
        with pytest.raises(TerminationError):
            evaluate(rdl, "while true\nend\nInteger")

    def test_iterators_with_pure_blocks_allowed(self, rdl):
        t = evaluate(rdl, "[1,2,3].map { |v| v + 1 }\nNominal.new(Integer)")
        assert t == NominalType("Integer")

    def test_iterator_with_impure_block_rejected(self, rdl):
        # Fig. 6 line 15: the block mutates the receiver
        with pytest.raises(TerminationError):
            evaluate(rdl, "a = [1,2,3]\na.map { |v| a.push(4) }\nInteger")

    def test_gvar_write_in_block_rejected(self, rdl):
        with pytest.raises(TerminationError):
            evaluate(rdl, "[1].each { |v| $x = v }\nInteger")

    def test_helper_calls_allowed(self, rdl):
        t = evaluate(rdl, "fallback_hash_type")
        assert t == GenericType("Hash", [NominalType("Symbol"), NominalType("Object")])

    def test_recursive_helper_cycle_assumed_not_verified(self, rdl):
        # A helper-call cycle is *assumed* terminating (the paper's
        # recursion-free assumption), not silently treated as verified:
        # the checker must record the optimistic assumption via obs.
        from repro import obs

        rdl.load("def spin(x)\n  if x > 0\n    spin(x - 1)\n  end\n  Integer\nend")
        obs.reset()
        obs.enable()
        try:
            t = evaluate(rdl, "spin(1)")
        finally:
            names = [e["name"] for e in obs.events()]
            cycles = obs.counters().get("termination.cycle_assumed", 0)
            obs.disable()
            obs.reset()
        assert t == NominalType("Integer")
        assert cycles >= 1
        assert "termination.cycle_assumed" in names
        # the cycle key must name the helper that recursed
        checker = rdl.checker.engine.termination
        assert ("helper", "spin") in checker._walks


class TestConsistencyCache:
    def test_cache_invalidated_by_schema_change(self, rdl):
        from repro.rtypes.kinds import ClassRef

        engine = rdl.checker.engine
        comp = CompExpr("schema_type(t)")
        bindings = {"t": SingletonType(ClassRef("User"))}
        rdl.load("class User < ActiveRecord::Base\nend")
        before = engine.evaluate(comp, bindings)
        assert Sym("staged") in before.elts
        rdl.db.drop_column("users", "staged")
        after = engine.evaluate(comp, bindings)
        assert Sym("staged") not in after.elts
