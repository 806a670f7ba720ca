"""Every function and class the package defines is used somewhere.

A name defined in ``src/repro`` that appears nowhere else — not in the
package, the tests, perfbench, the examples or the README — is dead
code.  The scan is textual (any identifier occurrence counts, docstrings
included), so it only flags names nothing mentions at all.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CORPUS = ("src", "tests", "perfbench", "examples")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _exempt(name: str) -> bool:
    # dunders are called by the language; the checker dispatches on
    # ``t_<NodeClass>`` by getattr (TypeChecker.expr_type)
    return (name.startswith("__") and name.endswith("__")) \
        or name.startswith("t_")


def _definitions() -> Counter:
    defined: Counter = Counter()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[node.name] += 1
    return defined


def _mentions() -> Counter:
    files = [ROOT / "README.md"]
    for top in CORPUS:
        files.extend((ROOT / top).rglob("*.py"))
    mentions: Counter = Counter()
    for path in files:
        mentions.update(IDENT.findall(path.read_text()))
    return mentions


def test_every_defined_name_is_referenced():
    mentions = _mentions()
    unreferenced = sorted(
        name for name, sites in _definitions().items()
        if not _exempt(name) and mentions[name] <= sites)
    assert unreferenced == [], (
        f"defined in src/repro but referenced nowhere: {unreferenced}")
