"""The session forkserver's template: a worker forks with the package
imported and the library base built.

CPython's forkserver skips a preload that fails to import without a word,
and then every worker would pay the imports and the base again.  So the
check runs inside a process started from the pool's context, before it has
handled any message.  This module imports nothing from ``repro`` at the
top: the child imports it to find the probe, and must see only what the
template loaded.
"""

import gc
import sys


def _report_preload(conn) -> None:
    """Child side: what the process held before its target ran."""
    annotations = sys.modules.get("repro.annotations")
    conn.send({
        "worker": "repro.parallel.worker" in sys.modules,
        "base": annotations is not None
        and annotations.library_registry.cache_info().currsize == 1,
        "frozen": gc.get_freeze_count(),
    })
    conn.close()


def test_workers_fork_from_the_preloaded_template():
    from repro.parallel.sessions import pool_context

    ctx = pool_context()
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=_report_preload, args=(child_conn,))
    process.start()
    child_conn.close()
    try:
        assert parent_conn.poll(60), "the forked probe never reported"
        seen = parent_conn.recv()
    finally:
        parent_conn.close()
        process.join(timeout=10)
    assert not process.is_alive()
    assert seen["worker"], "the template did not import the worker module"
    assert seen["base"], "the template did not build the library base"
    assert seen["frozen"] > 0, "the template did not freeze its heap"
