"""Native implementations of the Ruby core library for mini-Ruby.

The paper writes comp type annotations for 482 Ruby core library methods
(Table 1: Array 114, Hash 48, String 114, Integer 108, Float 98).  These
modules implement the corresponding methods natively so that (a) subject
programs run, (b) dynamic checks have real behaviour to validate, and
(c) the annotation sets in :mod:`repro.annotations` describe methods that
actually exist.

No native closes over its interpreter or its classes (each receives the
interpreter as an argument), so the methods are built once per process:
:func:`corelib_table` installs them into a template ``Interp`` and every
``Interp()`` copies the result into its own fresh classes.
"""

from __future__ import annotations

import functools

from repro.runtime.corelib.array_methods import install_array
from repro.runtime.corelib.hash_methods import install_hash
from repro.runtime.corelib.misc import install_misc
from repro.runtime.corelib.numeric import install_numeric
from repro.runtime.corelib.object_kernel import install_object_kernel
from repro.runtime.corelib.string_methods import install_string


def install_corelib(interp) -> None:
    """Install every native core-library method into ``interp``'s classes."""
    install_object_kernel(interp)
    install_numeric(interp)
    install_string(interp)
    install_array(interp)
    install_hash(interp)
    install_misc(interp)


@functools.cache
def corelib_table() -> list[tuple[str, str | None, dict, dict]]:
    """``(class, superclass, imethods, smethods)`` for every class the core
    library defines, in creation order, built on the first call.  Each
    method is shared by every interpreter of the process, with ``owner``
    None (see :func:`repro.runtime.objects.adopt_shared`)."""
    from repro.runtime.interp import Interp

    template = Interp(natives=False)
    install_corelib(template)
    table = []
    for klass in template.classes.values():
        for method in (*klass.imethods.values(), *klass.smethods.values()):
            method.owner = None
        parent = klass.superclass.name if klass.superclass else None
        table.append((klass.name, parent, klass.imethods, klass.smethods))
    return table
