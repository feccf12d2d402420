"""Every name that the benchmark's tracer patches exists, and uninstall restores it.

``perfbench/tracing.py`` wraps library functions where their callers look them
up; a refactor that drops or renames one of them breaks every traced run.  The
tracer is loaded from its file and only installed and uninstalled here.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_traced_name():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()  # a dropped name raises AttributeError here
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} not restored"
