"""Effect-lint diagnostics: the §4 termination rules as static findings."""

import pytest

from repro import CompRDL, Database
from repro.analysis.lint import EffectLinter, lint_universe
from repro.rtypes import CompExpr
from repro.typecheck.errors import TerminationError

#: a plain Object method (not a comp_helper) that loops
SPIN_FOREVER = "def spin_forever\n  while true\n  end\n  Integer\nend\n"

#: every comp the dynamic termination checker rejects in
#: tests/comp/test_comp_engine.py::TestTermination, plus the
#: non-helper-loop case — (source loaded first, comp code)
REJECTED_COMPS = {
    "while": ("", "while true\nend\nInteger"),
    "impure_block": ("", "a = [1,2,3]\na.map { |v| a.push(4) }\nInteger"),
    "gvar_write_in_block": ("", "[1].each { |v| $x = v }\nInteger"),
    "object_method_loop": (SPIN_FOREVER, "spin_forever()"),
}


@pytest.fixture
def rdl():
    db = Database()
    db.create_table("users", username="string")
    return CompRDL(db=db)


def rules_of(diagnostics):
    return {diag.rule for diag in diagnostics}


class TestCompLint:
    def test_clean_comp_has_no_findings(self, rdl):
        linter = EffectLinter(rdl.registry, rdl.interp)
        assert linter.lint_comp("Nominal.new(Integer)", "T#m") == []

    def test_while_loop_reported(self, rdl):
        linter = EffectLinter(rdl.registry, rdl.interp)
        findings = linter.lint_comp("while true\nend\nInteger", "T#m")
        assert rules_of(findings) == {"COMP001"}
        assert findings[0].severity == "error"
        assert findings[0].line >= 1

    def test_impure_iterator_block_reported(self, rdl):
        linter = EffectLinter(rdl.registry, rdl.interp)
        findings = linter.lint_comp(
            "a = [1,2,3]\na.map { |v| a.push(4) }\nInteger", "T#m")
        assert "COMP003" in rules_of(findings)

    def test_unparseable_comp_reported(self, rdl):
        linter = EffectLinter(rdl.registry, rdl.interp)
        findings = linter.lint_comp("def broken", "T#m")
        assert rules_of(findings) == {"COMP000"}

    def test_all_findings_reported_not_just_first(self, rdl):
        linter = EffectLinter(rdl.registry, rdl.interp)
        findings = linter.lint_comp(
            "while true\nend\nwhile false\nend\nInteger", "T#m")
        assert len([f for f in findings if f.rule == "COMP001"]) == 2


    def test_loop_in_called_object_method_reported(self, rdl):
        rdl.load(SPIN_FOREVER)
        linter = EffectLinter(rdl.registry, rdl.interp)
        findings = linter.lint_comp("spin_forever()", "T#m")
        assert rules_of(findings) == {"COMP001"}
        assert findings[0].owner == "Object#spin_forever"
        # each followed method is walked once per linter
        assert linter.lint_comp("spin_forever()", "T#n") == []


@pytest.mark.parametrize("source,code", REJECTED_COMPS.values(),
                         ids=REJECTED_COMPS)
def test_lint_flags_every_dynamically_rejected_comp(rdl, source, code):
    """lint ⊇ dynamic: a comp the termination checker rejects gets a
    COMP001–003 error from the static lint."""
    if source:
        rdl.load(source)
    with pytest.raises(TerminationError):
        rdl.checker.engine.evaluate(CompExpr(code), {})
    findings = EffectLinter(rdl.registry, rdl.interp).lint_comp(code, "T#m")
    assert {f.rule for f in findings if f.severity == "error"} & \
        {"COMP001", "COMP002", "COMP003"}


@pytest.mark.parametrize("source,code", REJECTED_COMPS.values(),
                         ids=REJECTED_COMPS)
def test_dynamic_error_is_the_lints_first_error(rdl, source, code):
    """One walk: the TerminationError sits where the lint's first error
    does."""
    if source:
        rdl.load(source)
    with pytest.raises(TerminationError) as raised:
        rdl.checker.engine.evaluate(CompExpr(code), {})
    findings = EffectLinter(rdl.registry, rdl.interp).lint_comp(code, "T#m")
    first = next(f for f in findings if f.severity == "error")
    assert (raised.value.line, raised.value.col) == (first.line, first.col)
    assert raised.value.line >= 1 and raised.value.col >= 1
    # the same finding: the engine names a comp by its code, a helper by key
    owner = code if first.owner == "T#m" else first.owner
    assert raised.value.message == f"{first.message} ({owner})"


class TestUniverseLint:
    def test_annotation_calling_looping_object_method_surfaces(self, rdl):
        rdl.load(SPIN_FOREVER)
        rdl.load(
            'class User < ActiveRecord::Base\n'
            '  type "() -> {| spin_forever() |}", typecheck: :demo\n'
            '  def risky\n'
            '    1\n'
            '  end\n'
            'end\n')
        diagnostics = lint_universe(rdl)
        assert [(d.rule, d.owner) for d in diagnostics
                if d.severity == "error"] == [("COMP001",
                                               "Object#spin_forever")]

    def test_annotation_comp_violation_surfaces(self, rdl):
        # Widget is not a core class, so Widget.fetch_all gets the
        # conservative (-, -) default effect — exactly what the dynamic
        # checker would raise TerminationError for if this comp evaluated
        rdl.load(
            'class User < ActiveRecord::Base\n'
            '  type "() -> {| Widget.fetch_all |}", typecheck: :demo\n'
            '  def risky\n'
            '    1\n'
            '  end\n'
            'end\n')
        diagnostics = lint_universe(rdl)
        mine = [d for d in diagnostics if d.rule == "COMP002"]
        assert mine
        assert any("User" in d.owner for d in mine)
        assert any(d.rule == "COMP004" for d in diagnostics)

    def test_helper_recursion_cycle_reported(self, rdl):
        rdl.load(
            "def spin(x)\n"
            "  if x > 0\n"
            "    spin(x - 1)\n"
            "  end\n"
            "  Integer\n"
            "end\n"
            "comp_helper :spin\n")
        diagnostics = lint_universe(rdl)
        cycles = [d for d in diagnostics if d.rule == "COMP005"]
        assert any("spin" in d.owner for d in cycles)
        assert all(d.severity == "warning" for d in cycles)

    def test_library_universe_is_clean(self, rdl):
        # the shipped comp-type libraries all pass their own lint — the
        # dynamic termination checker would have rejected them otherwise
        diagnostics = lint_universe(rdl)
        assert [d for d in diagnostics if d.severity == "error"] == []


class TestDiagnosticRendering:
    def test_render_includes_position(self, rdl):
        linter = EffectLinter(rdl.registry, rdl.interp)
        findings = linter.lint_comp("while true\nend\nInteger", "User#m")
        text = findings[0].render()
        assert "COMP001" in text and "User#m" in text and "error" in text

    def test_to_json_round_trip(self, rdl):
        linter = EffectLinter(rdl.registry, rdl.interp)
        findings = linter.lint_comp("while true\nend\nInteger", "User#m")
        payload = findings[0].to_json()
        assert payload["rule"] == "COMP001"
        assert payload["owner"] == "User#m"
        assert payload["line"] >= 1
