"""The names and call shapes the benchmark relies on must stay where it looks.

``perfbench/tracing.py`` replaces each ``(module, attr)`` in ``TARGETS``, and
``RunConfig.fingerprint``, with a timing wrapper, and reads the solve's
kappa, the sweep's ``parallel`` keyword and the solve diagnostics.
``perfbench/workloads.py`` reads the default ``residual_tol``.  A refactor
that moves or drops one of those would only show up as a crash of a
benchmark run; these tests catch it in the fast suite instead.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

from edgesense.config import RunConfig
from edgesense.experiments import sweep_decoherence, sweep_gate
from edgesense.master_eq import SolveDiagnostics, SolverConfig, solve_steady_state

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


def test_benchmark_call_shapes():
    # tracing._solve_attrs takes kappa from args[1] of a positional call
    assert list(inspect.signature(solve_steady_state).parameters)[1] == "kappa"
    for sweep in (sweep_gate, sweep_decoherence):
        assert "parallel" in inspect.signature(sweep).parameters, sweep.__name__
    assert SolverConfig().residual_tol > 0
    fields = {f.name for f in dataclasses.fields(SolveDiagnostics)}
    assert {"iterations", "residual", "warnings"} <= fields
