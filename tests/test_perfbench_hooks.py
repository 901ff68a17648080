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

from edgesense import experiments
from edgesense.config import RunConfig, parse_config_dict
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


def test_benchmark_call_shapes(monkeypatch):
    # tracing._solve_attrs takes kappa from args[1] of a positional call
    assert list(inspect.signature(solve_steady_state).parameters)[1] == "kappa"
    # perfbench's check_solve and floor_systems call cfg.build_system(gate=...)
    assert "gate" in inspect.signature(RunConfig.build_system).parameters
    # its workloads call sweep(cfg, values[, fixed]) and pass parallel by keyword
    pos, kw = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY
    for sweep, values, fixed in (
        (sweep_gate, "delta_values", "kappa"),
        (sweep_decoherence, "kappa_values", "delta"),
    ):
        params = inspect.signature(sweep).parameters.values()
        assert [(p.name, p.kind) for p in params] == [
            ("cfg", pos), (values, pos), (fixed, pos), ("parallel", kw)
        ], sweep.__name__
    assert SolverConfig().residual_tol > 0
    fields = {f.name for f in dataclasses.fields(SolveDiagnostics)}
    assert {"iterations", "residual", "warnings"} <= fields
    # tracing wraps edgesense.experiments.solve_steady_state as the span
    # master_eq.solve, so every sweep row must call it through that name
    calls = []
    solve = experiments.solve_steady_state

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_steady_state", counted)
    cfg = parse_config_dict({
        "lattice": {"kind": "ssh", "L": 4, "J": 1.0, "J_tilde": 0.5},
        "leads": {"M": 8, "mu_L": 0.08, "mu_R": -0.08},
        "coupling": 0.2,
    })
    for parallel in (1, 2):
        calls.clear()
        sweep_decoherence(cfg, [1e-3, 2e-3, 3e-3], parallel=parallel)
        assert sorted(calls) == [1e-3, 2e-3, 3e-3], parallel
