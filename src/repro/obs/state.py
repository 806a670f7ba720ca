"""The observability flags and the process-wide counter registry, isolated
so hot paths can import them.

This module is a leaf: it imports nothing from :mod:`repro`, so the
interpreter dispatch loop, the membership predicates, the subtype lattice,
and the storage façade can all guard their instrumentation with
``if ENABLED[0]: bump(...)`` without creating an import cycle through
:mod:`repro.obs` proper.

``ENABLED`` is a one-element list rather than a module-level bool because
callers cache a reference to the *cell* (``from repro.obs.state import
ENABLED as _OBS_ON``) and re-read ``_OBS_ON[0]`` — a rebound module global
would leave every cached reference stale, while the cell makes
``obs.enable()`` visible everywhere instantly.

``COUNTERS`` is the one registry every process-wide counter lives in (VM
inline caches, compiled membership, subtype queries, comp-eval hits, db row
ops, …); ``obs.counters()`` reads it, ``obs.reset()`` clears it, and
``obs.metrics_snapshot()`` exports each entry as ``counters.<name>``.
Per-universe counters stay on ``IncrementalStats``.
"""

from __future__ import annotations

import os

#: the global tracing/metrics switch — index 0 is the flag
ENABLED: list[bool] = [False]

#: the per-verdict provenance switch (see :mod:`repro.obs.provenance`) —
#: separate from tracing so either can run without the other; same cell
#: pattern, same reason
PROVENANCE: list[bool] = [False]

#: named process-wide counters; callers guard bumps behind ``ENABLED[0]``
#: so disabled runs never touch the dict
COUNTERS: dict[str, int] = {}

_ENV_OFF = ("", "0", "false", "off")
_ENV_ON = ("1", "true", "on")


def bump(name: str, n: int = 1) -> None:
    """Increment a named counter.  Hot callers must guard with
    ``if ENABLED[0]:`` themselves — the check is deliberately not repeated
    here so cold callers can bump unconditionally."""
    COUNTERS[name] = COUNTERS.get(name, 0) + n


def env_switch(var: str) -> tuple[bool, str | None]:
    """Parse an on/off/path environment switch (``REPRO_TRACE``,
    ``REPRO_PROVENANCE``): whether it asks for recording, and the export
    path it names, if any (a value that is not a plain on/off token is a
    path).  Read once, when :mod:`repro.obs` is imported; a session worker
    takes its flags from each request instead."""
    value = os.environ.get(var, "")
    token = value.lower()
    if token in _ENV_OFF:
        return False, None
    return True, None if token in _ENV_ON else value
