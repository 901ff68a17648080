import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_solve_pieces_reports_every_piece():
    # the tool reads private names of master_eq; this keeps a refactor from breaking it silently
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "solve_pieces.py"), "--repeats", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert sorted(out["sectors_ms"]) == ["fig1", "fig2", "fig3", "fig4"]
    cases = out["cases"]
    assert [(c["config"], c["gate"], c["kappa"]) for c in cases] == [
        ("fig1", 0.0, 0.0), ("fig1", 0.0, 0.002), ("fig1", 0.3, 0.002),
        ("fig2", None, 0.001), ("fig3", None, 0.001), ("fig4", None, 0.001),
    ]
    for case in cases:
        pieces = ["floor", "factorization", "residual", "solve", "row"]
        pieces += ["dephasing_map"] if case["kappa"] > 0 else []
        for piece in pieces:
            for unit in ("ms", "minflt", "sys_ms"):
                assert case[f"{piece}_{unit}"] >= 0, (case["config"], piece, unit)
        assert case["eig_blocks"] and case["solve_over_floor"] > 0


def test_compare_artifacts_starts_children_as_a_user_does(monkeypatch, tmp_path):
    # a thread variable set for the tool must not reach the commands it compares
    spec = importlib.util.spec_from_file_location("compare_artifacts", ROOT / "tools" / "compare_artifacts.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    envs = []
    monkeypatch.setattr(tool, "run", lambda argv, env, root, out: envs.append(env) or (0, ""))
    for name in tool.THREAD_VARS:
        monkeypatch.setenv(name, "1")
    results = tool.run_commands(ROOT, "fig1", tmp_path / "out")
    assert sorted(results) == ["spectrum", "steady", "sweep-gate"]
    for env in envs:
        assert not set(tool.THREAD_VARS) & set(env)
        assert env["PYTHONPATH"] == str(ROOT / "src")
