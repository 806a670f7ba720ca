"""Whole-universe analysis reports: footprints + lint, one structure.

:func:`analyze_universe` runs both static passes over every labelled
method of a :class:`~repro.api.CompRDL` universe (or an explicit key
list) and packages the result for its readers: the CLI,
``CompRDL.analyze()``, the CI baseline and the fuzzer's static ⊇ dynamic
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.footprint import FootprintAnalyzer, StaticFootprint
from repro.analysis.lint import Diagnostic, EffectLinter


@dataclass
class AnalysisReport:
    """Everything the static passes learned about one universe."""

    label: str = ""
    footprints: dict = field(default_factory=dict)   # MethodKey -> StaticFootprint
    diagnostics: list = field(default_factory=list)  # list[Diagnostic]

    # ------------------------------------------------------------------
    def counts(self) -> dict:
        """Stable summary counters (also exported as ``analysis.*`` keys
        in ``metrics_snapshot``)."""
        by_severity = {"error": 0, "warning": 0, "info": 0}
        for diag in self.diagnostics:
            by_severity[diag.severity] = by_severity.get(diag.severity, 0) + 1
        wildcards = sum(1 for fp in self.footprints.values() if fp.wildcard)
        tables = set()
        for fp in self.footprints.values():
            tables |= fp.tables
        return {
            "methods": len(self.footprints),
            "wildcard_footprints": wildcards,
            "tables_named": len(tables),
            "diagnostics": len(self.diagnostics),
            "errors": by_severity["error"],
            "warnings": by_severity["warning"],
            "infos": by_severity["info"],
        }

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "label": self.label,
            "counts": self.counts(),
            "methods": {
                str(key): fp.summary()
                for key, fp in sorted(self.footprints.items(),
                                      key=lambda kv: str(kv[0]))
            },
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }

    def render_text(self) -> str:
        lines: list[str] = []
        title = f"Static analysis — {self.label}" if self.label \
            else "Static analysis"
        lines.append(title)
        lines.append("=" * len(title))
        counts = self.counts()
        lines.append(
            f"{counts['methods']} methods analysed, "
            f"{counts['wildcard_footprints']} wildcard footprints, "
            f"{counts['tables_named']} tables named")
        lines.append("")
        for key, fp in sorted(self.footprints.items(),
                              key=lambda kv: str(kv[0])):
            tables = "*" if fp.wildcard else \
                (", ".join(sorted(fp.tables)) or "-")
            comps = len(fp.comps)
            lines.append(f"  {str(key):<44} tables: {tables}"
                         f"  comps: {comps}")
        lines.append("")
        if self.diagnostics:
            lines.append(f"{counts['diagnostics']} diagnostics "
                         f"({counts['errors']} errors, "
                         f"{counts['warnings']} warnings):")
            for diag in self.diagnostics:
                lines.append("  " + diag.render())
        else:
            lines.append("no diagnostics")
        return "\n".join(lines)


def universe_keys(rdl) -> list:
    """Every labelled method key of the universe, deterministic order
    (labels sorted; registry order within a label; deduplicated)."""
    keys: list = []
    seen: set = set()
    for label in sorted(rdl.registry.labels):
        for key in rdl.registry.methods_for_label(label):
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return keys


def analyze_universe(rdl, keys=None, label: str = "") -> AnalysisReport:
    """Run footprint inference + effect lint over ``keys`` (default: all
    labelled methods) of one universe."""
    if keys is None:
        keys = universe_keys(rdl)
    analyzer = FootprintAnalyzer(rdl.registry, rdl.db, rdl.interp)
    footprints = analyzer.footprints_for(keys)
    diagnostics = EffectLinter(rdl.registry, rdl.interp).lint()
    return AnalysisReport(label=label, footprints=footprints,
                          diagnostics=diagnostics)

