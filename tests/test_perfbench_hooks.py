"""The names the benchmark's tracer swaps out must exist where it looks for them.

``perfbench/tracing.py`` replaces each ``(module, attr)`` in ``TARGETS``, and
``RunConfig.fingerprint``, with a timing wrapper.  A refactor that moves or
drops one of those names would only show up as a crash of a traced
benchmark run; this test catches it in the fast suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

from edgesense.config import RunConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_callables():
    targets = load_tracing().TARGETS
    assert targets
    for module_name, attr, _ in targets:
        obj = getattr(importlib.import_module(module_name), attr, None)
        assert callable(obj), f"{module_name}.{attr}"
    assert "fingerprint" in RunConfig.__dict__
