"""The forkserver's preload: the warm template every session worker forks
from (see :func:`repro.parallel.sessions.pool_context`).

Importing it loads the worker module, builds the process-wide library base
with one ``CompRDL()``, and freezes everything alive into the collector's
permanent generation, so a forked worker has nothing left to import or build,
and its collector never walks (and so never copies on write) the base.
"""

import gc

from repro.api import CompRDL
from repro.parallel import worker  # noqa: F401  (the workers' entry point)

CompRDL()
gc.collect()
gc.freeze()
