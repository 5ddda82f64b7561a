"""Every span the benchmark's tracer installs wraps a real function.

``perfbench/tracing.py`` wraps the program's layers by name
(``PATCHES``).  A method reached only by inheritance is absent from its
class's own ``vars()``, so the tracer would wrap ``None`` and nothing
would fail until a traced call raised ``TypeError``.  This check
imports the tracer the way ``perfbench/serve.py`` does, installs it,
and asserts that each wrapper wraps a callable.  It changes nothing
under ``perfbench/``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def _installed(module_name: str, path: str):
    """The object now bound at ``module_name``'s ``path``."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner).get(attr) if isinstance(owner, type) \
        else getattr(owner, attr)


def test_every_patch_wraps_a_callable():
    tracing = _tracing()
    originals = [_installed(module_name, path)
                 for module_name, path, _ in tracing.PATCHES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module_name, path, span in tracing.PATCHES:
            wrapper = _installed(module_name, path)
            if isinstance(wrapper, classmethod):
                wrapper = wrapper.__func__
            wrapped = getattr(wrapper, "__wrapped__", None)
            assert callable(wrapped), \
                f"{module_name}.{path} ({span}) wraps {wrapped!r}"
    finally:
        tracer.uninstall()
    restored = [_installed(module_name, path)
                for module_name, path, _ in tracing.PATCHES]
    assert restored == originals
