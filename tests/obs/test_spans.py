"""Span recording and Chrome trace_event export.

Two contracts matter: an *enabled* run produces trace JSON whose nesting a
Chrome-trace consumer (Perfetto) can reconstruct from ``ts``/``dur``
containment, and a *disabled* run records nothing at all — no events, no
counters, no per-call allocation (``span()`` hands back one shared no-op).
"""

import json
import os
import threading

import pytest

from repro import obs
from repro.obs import spans as spans_mod
from repro.obs.spans import NULL_SPAN


def test_span_nesting_round_trips_to_chrome_json(tmp_path):
    obs.enable()
    with obs.span("outer", label="o") as outer:
        outer.set("k", 1)
        with obs.span("inner"):
            pass
        obs.event("tick", args={"n": 3})

    path = obs.export_chrome_trace(str(tmp_path / "t.json"),
                                   metrics={"m": 1})
    with open(path) as handle:
        doc = json.load(handle)  # must be *valid* JSON, not just a file

    assert doc["displayTimeUnit"] == "ms"
    assert doc["metrics"] == {"m": 1}
    by_name = {e["name"]: e for e in doc["traceEvents"]}
    assert set(by_name) == {"outer", "inner", "tick"}
    for name in ("outer", "inner"):
        complete = by_name[name]
        assert complete["ph"] == "X"
        assert complete["pid"] == os.getpid()
        assert complete["tid"] == threading.get_ident()
        assert complete["dur"] >= 0
    assert by_name["tick"]["ph"] == "i"
    assert by_name["tick"]["s"] == "p"
    assert by_name["tick"]["args"] == {"n": 3}
    # nesting survives as ts/dur containment per (pid, tid) — exactly how
    # Chrome/Perfetto rebuild the span tree (there are no parent links)
    outer_e, inner_e = by_name["outer"], by_name["inner"]
    assert outer_e["ts"] <= inner_e["ts"]
    assert inner_e["ts"] + inner_e["dur"] <= outer_e["ts"] + outer_e["dur"]
    assert outer_e["args"] == {"label": "o", "k": 1}


def test_exception_inside_span_records_error_and_propagates():
    obs.enable()
    with pytest.raises(ValueError):
        with obs.span("boom"):
            raise ValueError("x")
    [recorded] = obs.events()
    assert recorded["args"]["error"] == "ValueError"


def test_disabled_mode_emits_zero_events_and_no_allocations():
    assert not obs.enabled()
    # the no-op singleton: identical object every call, so the disabled
    # fast path allocates nothing per span
    assert obs.span("anything", label="x") is NULL_SPAN
    with obs.span("anything") as sp:
        sp.set("k", 1)
    obs.event("tick", args={"n": 1})
    assert obs.events() == []
    assert obs.buffered() == 0
    assert obs.counters() == {}


def test_traced_decorator_times_calls_only_while_enabled():
    @obs.traced("math.double")
    def double(x):
        """Twice x."""
        return 2 * x

    assert double(4) == 8  # disabled: plain call, no event
    assert obs.events() == []

    obs.enable()
    assert double(5) == 10
    [recorded] = obs.events()
    assert recorded["name"] == "math.double"
    assert double.__name__ == "double"
    assert double.__doc__ == "Twice x."


def test_mark_drain_absorb_window_the_buffer():
    obs.enable()
    with obs.span("before"):
        pass
    position = obs.mark()
    with obs.span("after"):
        pass
    # drain(mark) takes only the window — an in-process worker call must
    # not steal the caller's earlier spans
    taken = obs.drain(position)
    assert [e["name"] for e in taken] == ["after"]
    assert [e["name"] for e in obs.events()] == ["before"]
    obs.absorb(taken, ())
    assert [e["name"] for e in obs.events()] == ["before", "after"]
    # absorbing while disabled is a no-op (a worker that kept tracing
    # cannot re-fill a buffer the engine turned off)
    obs.disable()
    obs.absorb([{"name": "ghost"}], ())
    assert obs.buffered() == 2


def test_buffer_cap_drops_and_counts(monkeypatch):
    monkeypatch.setattr(spans_mod, "_MAX_EVENTS", 2)
    obs.enable()
    for index in range(4):
        with obs.span(f"s{index}"):
            pass
    assert obs.buffered() == 2
    assert obs.counters()["obs.events_dropped"] == 2


def test_render_summary_aggregates_phases_and_counters():
    obs.enable()
    for _ in range(3):
        with obs.span("phase.a"):
            pass
    obs.bump("my.counter", 7)
    text = obs.render_summary()
    assert "phase.a" in text
    assert "my.counter: 7" in text


@pytest.mark.parametrize("value,expected", [
    (None, (False, None)),
    ("", (False, None)),
    ("Off", (False, None)),
    ("0", (False, None)),
    ("TRUE", (True, None)),
    ("1", (True, None)),
    ("out/Trace.json", (True, "out/Trace.json")),
])
def test_env_switch_parses_on_off_and_path_values(monkeypatch, value,
                                                  expected):
    from repro.obs.state import env_switch

    if value is None:
        monkeypatch.delenv("REPRO_TRACE", raising=False)
    else:
        monkeypatch.setenv("REPRO_TRACE", value)
    assert env_switch("REPRO_TRACE") == expected
