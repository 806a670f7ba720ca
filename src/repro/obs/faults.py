"""Fault injection: flag-cell hooks for storm testing the parity engine.

Same design rules as :mod:`repro.obs.state`: a near-leaf module (it imports
only :mod:`repro.obs.spans` for counters) whose ``ENABLED`` cell hot sites
cache and guard with ``if _FAULTS_ON[0]:`` — a run with faults disabled
pays one list-index per guarded site and allocates nothing.

A *fault site* is a named point in the engine or a worker where an injected
failure can fire: the worker dispatch loop fires ``worker.<MessageType>``
before serving each request, and :meth:`repro.db.schema.Database.replay`
fires ``db.replay.event`` before applying each journal event.  A
:class:`FaultSpec` arms one site with an action:

* ``wedge`` — sleep ``arg`` seconds before continuing (a wedged-but-alive
  worker: the reply is late or never, which is what recv deadlines exist
  to catch);
* ``die`` — ``os._exit`` immediately (a crash mid-conversation);
* ``error`` — raise an exception: ``arg == "operational"`` raises
  ``sqlite3.OperationalError`` (an injected storage failure), anything
  else raises :class:`InjectedFault`.

``after`` lets that many arrivals pass before firing and ``times`` bounds
how often it fires (0 = unlimited) — both counted *per process*, which
matters for session workers: a respawned worker starts its counts over.
Workers share neither the parent's cells nor its current environment (they
fork from a forkserver started earlier), so specs travel as one
``REPRO_FAULTS`` plan string (:func:`env_string` / :func:`arm`): a worker
handle passes the parent's current ``REPRO_FAULTS`` value as a start
argument, and ``repro.parallel.worker.session_main`` arms from it.

Every firing bumps a ``faults.fired.<site>`` counter, which
``metrics_snapshot()`` surfaces under its ``faults.*`` keys.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.obs.spans import bump

#: the global fault-injection switch — index 0 is the flag (cell, not a
#: rebindable module global, for the same reason as ``obs.state.ENABLED``)
ENABLED: list[bool] = [False]

_ENV_VAR = "REPRO_FAULTS"

_ACTIONS = ("wedge", "die", "error")


class InjectedFault(RuntimeError):
    """The generic injected failure (``error`` action, non-storage kinds)."""


@dataclass
class FaultSpec:
    """One armed fault site."""

    site: str
    action: str                  # "wedge" | "die" | "error"
    arg: str | None = None       # wedge: seconds; error: exception kind
    after: int = 0               # arrivals to let pass before firing
    times: int = 1               # firings before the spec goes inert (0 = ∞)

    def encode(self) -> str:
        return (f"{self.site}={self.action}:{self.arg if self.arg is not None else ''}"
                f":{self.after}:{self.times}")

    @classmethod
    def decode(cls, token: str) -> "FaultSpec":
        site, _, rest = token.partition("=")
        parts = rest.split(":")
        if not site or len(parts) != 4 or parts[0] not in _ACTIONS:
            raise ValueError(f"malformed fault spec {token!r} "
                             f"(want site=action:arg:after:times)")
        action, arg, after, times = parts
        return cls(site=site, action=action, arg=arg or None,
                   after=int(after), times=int(times))


#: armed specs by site, plus per-site arrival counts (per process)
_SPECS: dict[str, FaultSpec] = {}
_ARRIVALS: dict[str, int] = {}


def enabled() -> bool:
    return ENABLED[0]


def inject(site: str, action: str, arg: str | float | None = None,
           after: int = 0, times: int = 1) -> FaultSpec:
    """Arm ``site`` with a fault and flip the switch on."""
    if action not in _ACTIONS:
        raise ValueError(f"unknown fault action {action!r}")
    spec = FaultSpec(site=site, action=action,
                     arg=None if arg is None else str(arg),
                     after=after, times=times)
    _SPECS[site] = spec
    _ARRIVALS[site] = 0
    ENABLED[0] = True
    return spec


def clear() -> None:
    """Disarm every site and flip the switch off (this process only)."""
    _SPECS.clear()
    _ARRIVALS.clear()
    ENABLED[0] = False


def active() -> dict[str, FaultSpec]:
    return dict(_SPECS)


def fire(site: str) -> None:
    """One arrival at ``site``: fire the armed fault if it is due.

    Safe to call unguarded from cold paths; hot paths guard with a cached
    ``ENABLED`` cell first so the disabled cost is one list index.
    """
    if not ENABLED[0]:
        return
    spec = _SPECS.get(site)
    if spec is None:
        return
    _ARRIVALS[site] = arrival = _ARRIVALS.get(site, 0) + 1
    fired = arrival - spec.after
    if fired <= 0 or (spec.times > 0 and fired > spec.times):
        return
    bump(f"faults.fired.{site}")
    if spec.action == "wedge":
        time.sleep(float(spec.arg or 1.0))
    elif spec.action == "die":
        os._exit(23)
    elif spec.action == "error":
        if spec.arg == "operational":
            import sqlite3

            raise sqlite3.OperationalError(
                f"injected storage fault at {site}")
        raise InjectedFault(f"injected fault at {site}"
                            + (f": {spec.arg}" if spec.arg else ""))


# ---------------------------------------------------------------------------
# plan strings: the REPRO_FAULTS value a worker is started with
# ---------------------------------------------------------------------------

def env_string() -> str:
    """The armed specs as one ``REPRO_FAULTS`` value."""
    return ";".join(spec.encode() for spec in _SPECS.values())


def set_env(environ=None) -> None:
    """Publish the armed specs as ``REPRO_FAULTS``, for the session
    workers started after this call."""
    environ = os.environ if environ is None else environ
    value = env_string()
    if value:
        environ[_ENV_VAR] = value
    else:
        environ.pop(_ENV_VAR, None)


def load_env(environ=None) -> bool:
    """Arm this process from ``REPRO_FAULTS``; returns whether anything
    was armed."""
    environ = os.environ if environ is None else environ
    return arm(environ.get(_ENV_VAR, ""))


def arm(plan: str) -> bool:
    """Arm this process from a ``REPRO_FAULTS`` plan string; returns
    whether anything was armed.  Malformed tokens are ignored (a fuzz run
    must not be wedged by its own plumbing)."""
    armed = False
    for token in plan.split(";"):
        token = token.strip()
        if not token:
            continue
        try:
            spec = FaultSpec.decode(token)
        except ValueError:
            continue
        _SPECS[spec.site] = spec
        _ARRIVALS[spec.site] = 0
        armed = True
    if armed:
        ENABLED[0] = True
    return armed
