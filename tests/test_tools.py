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
