"""Machine-speed calibration for the benchmark's timings.

A virtual machine that shares its cores with other tenants drifts in speed
by tens of percent over seconds to minutes.  Every
timed operation is therefore bracketed by a fixed pure-Python kernel shaped
like the checker's own work (tokenize, parse into slotted objects, walk with
an environment dict and a memo), and the reported time is scaled to the
kernel's reference speed::

    normalized_ms = wall_ms * REFERENCE_MS / kernel_ms

The kernel is benchmark code, so a change to the program under test never
moves it; a slower program still reads slower.  Raw wall times are printed
in the run record next to the normalized ones.
"""

from __future__ import annotations

import time

#: kernel time (min of REPEATS runs) on an idle 2-core x86-64 VM;
#: normalized times are milliseconds at this speed
REFERENCE_MS = 0.70
REPEATS = 3

_SOURCE = " ".join(
    f"(a{i % 5} + {i} * (b{i % 3} - {i % 7})) * (a{(i + 1) % 5} - 2) + b{i % 3}"
    for i in range(12))


class _Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op, left=None, right=None, value=None):
        self.op = op
        self.left = left
        self.right = right
        self.value = value


def _tokens(text: str) -> list:
    out = []
    for raw in text.replace("(", " ( ").replace(")", " ) ").split():
        out.append(("num", int(raw)) if raw.isdigit() else
                   ("op", raw) if raw in "+-*()" else ("name", raw))
    return out


def _parse(tokens: list, pos: int = 0, prec: int = 0):
    kind, value = tokens[pos]
    if value == "(":
        left, pos = _parse(tokens, pos + 1, 0)
        pos += 1  # ")"
    else:
        left, pos = _Node(kind, value=value), pos + 1
    while pos < len(tokens):
        kind, value = tokens[pos]
        level = {"+": 1, "-": 1, "*": 2}.get(value) if kind == "op" else None
        if level is None or level <= prec:
            break
        right, pos = _parse(tokens, pos + 1, level)
        left = _Node(value, left, right)
    return left, pos


def _walk(node, env: dict, memo: dict) -> int:
    if node.op == "num":
        return node.value
    if node.op == "name":
        return env[node.value]
    key = id(node)
    if key in memo:
        return memo[key]
    left = _walk(node.left, env, memo)
    right = _walk(node.right, env, memo)
    value = (left + right if node.op == "+" else
             left - right if node.op == "-" else left * right)
    memo[key] = value
    return value


def kernel() -> int:
    """One fixed unit of interpreter-shaped work."""
    total = 0
    tokens = _tokens(_SOURCE)
    for round_no in range(6):
        env = {f"a{i}": i + round_no for i in range(5)}
        env.update({f"b{i}": 2 * i - round_no for i in range(3)})
        pos = 0
        while pos < len(tokens):
            tree, pos = _parse(tokens, pos)
            total += _walk(tree, env, {})
    return total


def kernel_ms() -> float:
    """The kernel's current time in ms (fastest of REPEATS runs)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1e3

