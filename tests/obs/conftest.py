"""obs tests flip process-global tracing state; always restore it."""

import pytest

from repro import obs
from repro.obs import provenance


@pytest.fixture(autouse=True)
def _obs_isolation():
    was_enabled = obs.enabled()
    prov_enabled = provenance.enabled()
    obs.reset()
    provenance.reset()
    yield
    obs.reset()
    provenance.reset()
    obs.set_enabled(was_enabled)
    provenance.set_enabled(prov_enabled)
